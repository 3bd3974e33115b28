import json
import math
import re

import pytest

from optomech import cli
from optomech.config import (extract_params, load_document,
                             params_from_config, sweep_from_config)
from optomech.errors import ConfigError

from conftest import poison_nth

GOOD_PARAMS = {
    "omega_m_over_2pi_hz": 1.0e7,
    "quality_factor": 2.0e6,
    "kappa_over_omega_m": 0.5,
    "detuning_mode": "effective",
    "delta_over_omega_m": 1.0,
    "g0_rad_s": 1.0e3,
    "laser_power_mw": 20.0,
    "laser_wavelength_nm": 810.0,
    "bath_temperature_k": 0.4,
    "phase_noise": {
        "kind": "bandpass",
        "linewidth_over_2pi_hz": 100.0,
        "band_center_over_2pi_hz": 5.0e4,
        "bandwidth_over_band_center": 0.5,
    },
}


def write_json(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc, indent=1))
    return path


class TestParamsDocument:
    def test_unit_conversions(self, tmp_path):
        doc, src = load_document(write_json(tmp_path, "p.json", GOOD_PARAMS))
        p = params_from_config(doc, src)
        assert p.omega_m == pytest.approx(2 * math.pi * 1e7)
        assert p.kappa == pytest.approx(math.pi * 1e7)
        assert p.detuning == pytest.approx(p.omega_m)
        assert p.laser_power == pytest.approx(0.02)
        assert p.laser_wavelength == pytest.approx(810e-9)
        assert p.phase_noise.gamma_l == pytest.approx(2 * math.pi * 100)
        assert p.phase_noise.gamma_tilde == pytest.approx(math.pi * 5e4)

    def test_unknown_key_reports_line(self, tmp_path):
        doc = dict(GOOD_PARAMS)
        doc["unknown_knob"] = 1
        path = write_json(tmp_path, "p.json", doc)
        loaded, src = load_document(path)
        with pytest.raises(ConfigError) as err:
            params_from_config(loaded, src)
        message = str(err.value)
        assert "unknown_knob" in message
        line = int(message.split(":")[1])
        assert path.read_text().splitlines()[line - 1].find("unknown_knob") >= 0

    def test_missing_required_field(self, tmp_path):
        doc = dict(GOOD_PARAMS)
        del doc["bath_temperature_k"]
        loaded, src = load_document(write_json(tmp_path, "p.json", doc))
        with pytest.raises(ConfigError, match="bath_temperature_k"):
            params_from_config(loaded, src)

    def test_conflicting_unit_variants(self, tmp_path):
        doc = dict(GOOD_PARAMS)
        doc["kappa_rad_s"] = 1.0e7
        loaded, src = load_document(write_json(tmp_path, "p.json", doc))
        with pytest.raises(ConfigError, match="conflicts"):
            params_from_config(loaded, src)

    def test_wrong_type_reports_field(self, tmp_path):
        doc = dict(GOOD_PARAMS)
        doc["quality_factor"] = "big"
        loaded, src = load_document(write_json(tmp_path, "p.json", doc))
        with pytest.raises(ConfigError, match="quality_factor"):
            params_from_config(loaded, src)

    def test_syntax_error_reports_line(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{\n "omega_m_over_2pi_hz": 1e7,\n broken\n}\n')
        with pytest.raises(ConfigError, match="broken.json:3"):
            load_document(path)

    def test_bare_mode_and_white_noise(self, tmp_path):
        doc = dict(GOOD_PARAMS)
        doc["detuning_mode"] = "bare"
        doc["phase_noise"] = {"kind": "white", "linewidth_over_2pi_hz": 50.0}
        loaded, src = load_document(write_json(tmp_path, "p.json", doc))
        p = params_from_config(loaded, src)
        assert p.detuning_mode == "bare"
        assert p.phase_noise.kind == "white"

    def test_internal_params_round_trip(self, tmp_path):
        import dataclasses

        doc, src = load_document(write_json(tmp_path, "p.json", GOOD_PARAMS))
        p = params_from_config(doc, src)
        wrapped = {"internal_params": dataclasses.asdict(p)}
        loaded, src2 = load_document(write_json(tmp_path, "i.json", wrapped))
        p2 = params_from_config(loaded, src2)
        assert p2 == p

    def test_extract_params_with_run_keys(self, tmp_path):
        doc = dict(GOOD_PARAMS)
        doc["n_steps"] = 1000
        loaded, src = load_document(write_json(tmp_path, "v.json", doc))
        p = extract_params(loaded, src, allowed_extra=("n_steps",))
        assert p.laser_power == pytest.approx(0.02)
        with pytest.raises(ConfigError, match="n_steps"):
            extract_params(loaded, src)


class TestSweepDocument:
    def test_recipe_form(self, tmp_path):
        loaded, src = load_document(write_json(
            tmp_path, "s.json", {"recipe": "fig3b", "grid": [6, 5]}))
        spec = sweep_from_config(loaded, src)
        assert spec.recipe == "fig3b"
        assert (spec.axis_x.count, spec.axis_y.count) == (6, 5)

    def test_explicit_form(self, tmp_path):
        doc = {
            "axis_x": {"name": "power_mw", "min": 1, "max": 10, "count": 4},
            "axis_y": {"name": "kappa_over_omega_m", "min": 0.2, "max": 1.0,
                       "count": 3, "scale": "log"},
            "fixed": GOOD_PARAMS,
            "outputs": ["e_n", "n_eff"],
        }
        loaded, src = load_document(write_json(tmp_path, "s.json", doc))
        spec = sweep_from_config(loaded, src)
        assert spec.axis_y.scale == "log"
        assert spec.outputs == ("e_n", "n_eff")

    def test_bad_recipe_reports(self, tmp_path):
        loaded, src = load_document(write_json(tmp_path, "s.json",
                                               {"recipe": "fig77a"}))
        with pytest.raises(ConfigError, match="recipe"):
            sweep_from_config(loaded, src)


class TestCli:
    def test_point_command(self, tmp_path, capsys):
        path = write_json(tmp_path, "p.json", GOOD_PARAMS)
        code = cli.main(["point", "--config", str(path)])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["result"]["stable"] is True
        assert doc["result"]["e_n"] > 0.0
        assert doc["metadata"]["internal_params"]["kappa"] == \
            pytest.approx(math.pi * 1e7)

    def test_point_dump_model(self, tmp_path):
        from optomech.dynamics import LinearModel

        path = write_json(tmp_path, "p.json", GOOD_PARAMS)
        dump = tmp_path / "model.json"
        out = tmp_path / "r.json"
        assert cli.main(["point", "--config", str(path), "--out", str(out),
                         "--dump-model", str(dump)]) == 0
        model = LinearModel.from_document(json.loads(dump.read_text()))
        assert model.order == 6
        assert model.drift[0, 1] == pytest.approx(2 * math.pi * 1e7)

    def test_point_to_file(self, tmp_path):
        path = write_json(tmp_path, "p.json", GOOD_PARAMS)
        out = tmp_path / "result.json"
        assert cli.main(["point", "--config", str(path),
                         "--out", str(out)]) == 0
        assert json.loads(out.read_text())["result"]["stable"] is True

    def test_sweep_command_with_recipe(self, tmp_path):
        code = cli.main(["sweep", "--recipe", "fig2b", "--grid", "4x3",
                         "--out-dir", str(tmp_path)])
        assert code == 0
        assert (tmp_path / "fig2b.csv").exists()
        assert (tmp_path / "fig2b.grid.txt").exists()
        assert (tmp_path / "fig2b.json").exists()
        doc = json.loads((tmp_path / "fig2b.json").read_text())
        assert len(doc["rows"]) == 12

    def test_config_error_exit_code(self, tmp_path, capsys):
        doc = dict(GOOD_PARAMS)
        doc["unknown_knob"] = 1
        path = write_json(tmp_path, "bad.json", doc)
        assert cli.main(["point", "--config", str(path)]) == 1
        assert "unknown_knob" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, fields, name", [
        pytest.param(["sweep", "--recipe", "fig2z"], None, "--recipe",
                     id="recipe-fig2z"),
        pytest.param(["sweep", "--recipe", "fig2b", "--grid", "40x"], None,
                     "--grid", id="grid-40x"),
        pytest.param(["sweep", "--recipe", "fig2b", "--grid", "1x5"], None,
                     "--grid", id="grid-1x5"),
        pytest.param(["validate"], {"n_steps": 0}, "n_steps", id="n_steps-0"),
        pytest.param(["validate"], {"n_steps": "many"}, "n_steps",
                     id="n_steps-many"),
        pytest.param(["validate"], {"burn_in": 10}, "burn_in", id="burn_in-10"),
        pytest.param(["spectrum"], {"omega_count": "x"}, "omega_count",
                     id="omega_count-x"),
        pytest.param(["spectrum"], {"tau_count": -3}, "tau_count",
                     id="tau_count-neg"),
    ])
    def test_bad_run_value_exits_1_naming_it(self, tmp_path, capsys, argv,
                                             fields, name):
        if fields is not None:
            path = write_json(tmp_path, "run.json", {**GOOD_PARAMS, **fields})
            argv = argv + ["--config", str(path)]
        assert cli.main(argv + ["--out-dir", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and name in err
        if fields is not None:
            where = re.search(rf'{re.escape(str(path))}:(\d+): field "{name}"', err)
            line = path.read_text().splitlines()[int(where.group(1)) - 1]
            assert f'"{name}"' in line

    def test_spectrum_command(self, tmp_path):
        doc = dict(GOOD_PARAMS)
        doc.update(omega_count=64, tau_count=9, omega_max_over_omega_m=2.0)
        path = write_json(tmp_path, "sp.json", doc)
        assert cli.main(["spectrum", "--config", str(path),
                         "--out-dir", str(tmp_path)]) == 0
        for name in ("frequency_noise_spectrum", "effective_susceptibility",
                     "laser_correlation"):
            lines = (tmp_path / f"{name}.csv").read_text().splitlines()
            assert lines[0].startswith("# config: ")
            assert len(lines) > 5

    def test_validate_command(self, tmp_path):
        doc = dict(GOOD_PARAMS)
        doc.update(n_steps=60_000, n_ensemble=6, seed=11)
        path = write_json(tmp_path, "v.json", doc)
        assert cli.main(["validate", "--config", str(path),
                         "--out-dir", str(tmp_path)]) == 0
        lines = (tmp_path / "validation.csv").read_text().splitlines()
        assert lines[1].split(",")[0] == "quantity"
        assert all(row.split(",")[-1] == "true" for row in lines[2:])

    def test_validate_requires_bandpass(self, tmp_path):
        doc = dict(GOOD_PARAMS)
        doc["phase_noise"] = {"kind": "white", "linewidth_over_2pi_hz": 10.0}
        path = write_json(tmp_path, "v.json", doc)
        assert cli.main(["validate", "--config", str(path),
                         "--out-dir", str(tmp_path)]) == 1

    def test_exit_code_mapping_for_partial_failures(self, tmp_path,
                                                    monkeypatch):
        import optomech.sweep as sweep_mod

        monkeypatch.setattr(sweep_mod, "log_negativity_batch",
                            poison_nth(sweep_mod.log_negativity_batch, 2))
        code = cli.main(["sweep", "--recipe", "fig2b", "--grid", "3x2",
                         "--out-dir", str(tmp_path)])
        assert code == 2
