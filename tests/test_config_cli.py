import json
import math
import pathlib
import re

import pytest

from optomech import cli, config, simulate
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


# GOOD_PARAMS resolved, as every result embeds it
INTERNAL_PARAMS = {
    "omega_m": 2 * math.pi * 1.0e7, "quality_factor": 2.0e6,
    "kappa": math.pi * 1.0e7, "detuning": 2 * math.pi * 1.0e7, "g0": 1.0e3,
    "laser_power": 0.02, "laser_wavelength": 810e-9, "bath_temperature": 0.4,
    "phase_noise": {"kind": "bandpass", "gamma_l": 2 * math.pi * 100.0,
                    "omega_band": 2 * math.pi * 5.0e4,
                    "gamma_tilde": math.pi * 5.0e4},
    "cavity_thermal_occupancy": 0.0, "detuning_mode": "effective",
}


SWEEP_DOC = {
    "axis_x": {"name": "power_mw", "min": 1, "max": 10, "count": 2},
    "axis_y": {"name": "kappa_over_omega_m", "min": 0.2, "max": 1.0,
               "count": 2, "scale": "log"},
    "fixed": GOOD_PARAMS,
    "outputs": ["e_n", "n_eff"],
}

# The conversion the README schema states for each spelling: the value in
# the file times a number, or times the named internal quantity.
README_FACTORS = {
    "omega_m": {"omega_m_over_2pi_hz": 2 * math.pi, "omega_m_rad_s": 1.0},
    "quality_factor": {"quality_factor": 1.0},
    "kappa": {"kappa_over_2pi_hz": 2 * math.pi, "kappa_over_omega_m": "omega_m",
              "kappa_rad_s": 1.0},
    "detuning": {"delta_over_omega_m": "omega_m",
                 "delta_over_2pi_hz": 2 * math.pi, "delta_rad_s": 1.0},
    "g0": {"g0_rad_s": 1.0},
    "laser_power": {"laser_power_mw": 1e-3, "laser_power_w": 1.0},
    "laser_wavelength": {"laser_wavelength_nm": 1e-9, "laser_wavelength_m": 1.0},
    "bath_temperature": {"bath_temperature_k": 1.0},
    "cavity_thermal_occupancy": {"cavity_thermal_occupancy": 1.0},
    "gamma_l": {"linewidth_over_2pi_hz": 2 * math.pi, "linewidth_rad_s": 1.0},
    "omega_band": {"band_center_over_2pi_hz": 2 * math.pi,
                   "band_center_rad_s": 1.0},
    "gamma_tilde": {"bandwidth_over_2pi_hz": 2 * math.pi, "bandwidth_rad_s": 1.0,
                    "bandwidth_over_band_center": "omega_band"},
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
        p, rest = extract_params(loaded, src)
        assert p.laser_power == pytest.approx(0.02)
        assert rest.number("n_steps", integer=True) == 1000
        rest.close()
        _, rest = extract_params(loaded, src)
        with pytest.raises(ConfigError, match="n_steps"):
            rest.close()


    @pytest.mark.parametrize("quantity", sorted(README_FACTORS))
    def test_every_spelling_converts_by_the_readme_factor(self, tmp_path,
                                                          quantity):
        x = 0.75
        spellings = README_FACTORS[quantity]
        for spelling, factor in spellings.items():
            doc = json.loads(json.dumps(GOOD_PARAMS))
            noise = doc["phase_noise"]
            target = noise if quantity in ("gamma_l", "omega_band",
                                           "gamma_tilde") else doc
            for key in spellings:
                target.pop(key, None)
            target[spelling] = x
            loaded, src = load_document(write_json(tmp_path, "p.json", doc))
            p = params_from_config(loaded, src)
            holder = p.phase_noise if target is noise else p
            scale = getattr(holder, factor) if isinstance(factor, str) else factor
            assert getattr(holder, quantity) == x * scale, spelling

    def test_factor_table_covers_every_spelling(self):
        table = {name: set(spellings) for name, spellings, _ in
                 config.PARAMETER_SPELLINGS + config.NOISE_SPELLINGS}
        assert table == {name: set(s) for name, s in README_FACTORS.items()}


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

    def test_point_command_on_a_cold_bath(self, tmp_path, capsys):
        path = write_json(tmp_path, "p.json",
                          {**GOOD_PARAMS, "bath_temperature_k": 1e-8})
        assert cli.main(["point", "--config", str(path)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["result"]["stable"] is True
        assert doc["result"]["e_n"] > 0.0

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

    @pytest.mark.parametrize("argv", [["--version"], ["--help"], ["sweep", "--help"]],
                             ids=["version", "help", "sweep-help"])
    def test_help_and_version_exit_0(self, argv, capsys):
        with pytest.raises(SystemExit) as stop:
            cli.main(argv)
        assert stop.value.code == 0 and capsys.readouterr().out

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
        pytest.param(["sweep"], {"outputs": 5}, "outputs", id="sweep-outputs-5"),
        pytest.param(["sweep"], {"outputs": ["e_n", "purity"]}, "outputs",
                     id="sweep-outputs-unknown"),
        pytest.param(["sweep"], {"fixed": 5}, "fixed", id="sweep-fixed-5"),
        pytest.param(["sweep"], {"recipe": 5}, "recipe", id="sweep-recipe-5"),
        pytest.param(["sweep"], {"output": ["e_n"]}, "output",
                     id="sweep-unknown-key"),
        pytest.param(["sweep"], {"recipe": "fig2b", "grid": [2, 2]}, "axis_x",
                     id="sweep-keys-next-to-recipe"),
        pytest.param(["sweep"], {"axis_x": {**SWEEP_DOC["axis_x"], "count": 2.7}},
                     "count", id="axis-count-2.7"),
        pytest.param(["sweep"], {"axis_x": {**SWEEP_DOC["axis_x"], "min": "0.25"}},
                     "min", id="axis-min-string"),
        pytest.param(["spectrum"], {"omega_count": True}, "omega_count",
                     id="omega_count-true"),
        pytest.param(["spectrum"], {"tau_count": 2.9}, "tau_count",
                     id="tau_count-2.9"),
        pytest.param(["validate"], {"n_steps": "40000"}, "n_steps",
                     id="n_steps-numeric-string"),
        pytest.param(["validate"], {"dt_s": 1e-5}, "dt_s", id="dt_s-above-guard"),
        pytest.param(["validate"], {"n_steps": 1000, "segments_per_member": 1000},
                     "segments_per_member", id="segments-too-many"),
        pytest.param(["spectrum", "--config", "absent.json"], None, "absent.json",
                     id="config-unreadable"),
        pytest.param(["spectrum"], b"\xff\xfe\x00", "run.json",
                     id="config-not-utf8"),
        pytest.param(["sweep"], b'{"recipe": ""}', "recipe", id="sweep-recipe-empty"),
        pytest.param(["sweep", "--recipe", ""], None, "unknown recipe ''",
                     id="recipe-empty"),
        pytest.param(["sweep", "--recipe", "fig2b", "--grid", "2x2", "--jobs", "0"],
                     None, "--jobs", id="jobs-0"),
        pytest.param(["sweep", "--recipe", "fig2b", "--grid", "2x2", "--jobs", "-3"],
                     None, "--jobs", id="jobs-neg"),
        # usage errors of the argument parser
        pytest.param(["sweep", "--recipe", "fig2b", "--jobs", "x"], None, "--jobs",
                     id="jobs-x"),
        pytest.param(["point"], None, "--config", id="point-without-config"),
        pytest.param(["sweep", "--config", "sweep.json", "--grid", "3x3"], None,
                     "--grid", id="grid-with-config"),
        pytest.param(["sweep", "--recipe", "fig2b", "--config", "sweep.json"], None,
                     "--config", id="config-with-recipe"),
        pytest.param(["spectrum"], {"laser_power_mw": math.nan}, "laser_power_mw",
                     id="laser_power-nan"),
        pytest.param(["spectrum"], {"phase_noise": {
            **GOOD_PARAMS["phase_noise"], "linewidth_over_2pi_hz": math.nan}},
            "linewidth_over_2pi_hz", id="linewidth-nan"),
        pytest.param(["spectrum"], {"quality_factor": math.inf}, "quality_factor",
                     id="quality_factor-infinity"),
        pytest.param(["sweep"], {"axis_x": {**SWEEP_DOC["axis_x"], "max": -math.inf}},
                     "max", id="axis-max-minus-infinity"),
        pytest.param(["spectrum"], {"internal_params": {**INTERNAL_PARAMS,
                                                        "omega_m": True}},
                     "omega_m", id="internal-omega_m-true"),
        pytest.param(["spectrum"], {"internal_params": {
            **INTERNAL_PARAMS, "cavity_thermal_occupancy": False}},
            "cavity_thermal_occupancy", id="internal-occupancy-false"),
        pytest.param(["spectrum"], {"internal_params": {**INTERNAL_PARAMS,
                                                        "kappa": "1e7"}},
                     "kappa", id="internal-kappa-string"),
        pytest.param(["spectrum"], {"internal_params": {**INTERNAL_PARAMS,
                                                        "extra": 1.0}},
                     "extra", id="internal-unknown-key"),
        pytest.param(["sweep"], {"outputs": ["e_n", "n_eff", "e_n"]}, "outputs",
                     id="sweep-outputs-repeated"),
        pytest.param(["validate"], {"phase_noise": {
            **GOOD_PARAMS["phase_noise"], "bandwidth_over_band_center": 0}},
            "phase_noise", id="validate-undamped-band"),
        pytest.param(["spectrum"], {"phase_noise": {
            **GOOD_PARAMS["phase_noise"], "linewidth_over_2pi_hz": -100.0}},
            "phase_noise", id="linewidth-negative"),
        pytest.param(["spectrum"], {"phase_noise": {"kind": ["bandpass"]}},
                     "kind", id="noise-kind-list"),
        pytest.param(["validate"], {"n_steps": 100}, "n_steps",
                     id="n_steps-below-burn-in"),
        pytest.param(["validate"], {"n_ensemble": 0}, "n_ensemble",
                     id="n_ensemble-0"),
        pytest.param(["validate"], {"n_ensemble": 1}, "n_ensemble",
                     id="n_ensemble-1"),
        pytest.param(["validate"], {"segments_per_member": 0},
                     "segments_per_member", id="segments-0"),
    ])
    def test_bad_run_value_exits_1_naming_it(self, tmp_path, capsys, monkeypatch,
                                             argv, fields, name):
        def propagate(*args, **kwargs):
            pytest.fail("an invalid run was propagated")

        monkeypatch.setattr(simulate, "_propagate", propagate)
        monkeypatch.chdir(tmp_path)
        # ``fields`` is merged into a good document, or bytes are the file
        if isinstance(fields, bytes):
            path = tmp_path / "run.json"
            path.write_bytes(fields)
        elif fields is not None:
            base = SWEEP_DOC if argv[0] == "sweep" else GOOD_PARAMS
            path = write_json(tmp_path, "run.json", {**base, **fields})
        if fields is not None:
            argv = argv + ["--config", str(path)]
        assert cli.main(argv + ["--out-dir", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and name in err
        if fields is not None and name != path.name:
            where = re.search(rf'{re.escape(str(path))}:(\d+): field "{name}"', err)
            line = path.read_text().splitlines()[int(where.group(1)) - 1]
            assert f'"{name}"' in line

    def test_every_accepted_key_is_in_the_readme_schema(self, tmp_path,
                                                        monkeypatch):
        taken = set()
        take = config.Fields.take

        def spy(self, key, default=None):
            taken.add(key)
            return take(self, key, default)

        class Stop(Exception):
            pass

        def stop(*args, **kwargs):
            raise Stop

        monkeypatch.setattr(config.Fields, "take", spy)
        monkeypatch.setattr(cli, "simulate_phase_noise", stop)
        for doc in (GOOD_PARAMS, {"params": GOOD_PARAMS},
                    {"internal_params": INTERNAL_PARAMS}):
            extract_params(*load_document(write_json(tmp_path, "p.json", doc)))
        for doc in (SWEEP_DOC, {"recipe": "fig2b", "grid": [2, 2]}):
            sweep_from_config(*load_document(write_json(tmp_path, "s.json", doc)))
        path = write_json(tmp_path, "sp.json",
                          dict(GOOD_PARAMS, omega_count=2, tau_count=2))
        assert cli.main(["spectrum", "--config", str(path),
                         "--out-dir", str(tmp_path)]) == 0
        path = write_json(tmp_path, "v.json", GOOD_PARAMS)
        with pytest.raises(Stop):
            cli.main(["validate", "--config", str(path),
                      "--out-dir", str(tmp_path)])
        # one key of each reader, so a spy that missed one fails here
        assert {"kappa_rad_s", "bandwidth_over_band_center", "internal_params",
                "gamma_tilde", "params", "count", "grid", "outputs",
                "tau_max_s", "segments_per_member"} <= taken

        readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text()
        schema = readme.split("### Parameter file schema")[1].split("\n## ")[0]
        undocumented = sorted(key for key in taken
                              if f"`{key}`" not in schema
                              and f'"{key}"' not in schema)
        assert not undocumented

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

        monkeypatch.setattr(sweep_mod, "log_negativity",
                            poison_nth(sweep_mod.log_negativity, 2))
        code = cli.main(["sweep", "--recipe", "fig2b", "--grid", "3x2",
                         "--out-dir", str(tmp_path)])
        assert code == 2
