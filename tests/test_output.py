"""The column writers against the row-wise reference they replace.

The reference is the writer path the package used before it wrote whole
columns: one cell formatted per value, one table line per row, and
``json.dumps(indent=1, sort_keys=True)`` for documents. It lives here only,
as the definition of the bytes the column writers must keep.
"""

import json
import math

import numpy as np
import pytest

from optomech import NoiseSpec, SweepAxis, SweepSpec, emit_figure_data, run_sweep
from optomech.output import Columns, format_column, write_document

from conftest import OMEGA_M, make_params, poison_nth


def reference_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, str):
        return value
    return f"{float(value):.16e}"


def reference_table(path, meta, header, rows, sep=",", eol="\r\n"):
    with open(path, "w", newline="") as fh:
        fh.write("# config: " + json.dumps(meta, sort_keys=True) + eol)
        fh.write(header + eol)
        for row in rows:
            fh.write(sep.join(reference_cell(v) for v in row) + eol)


def reference_sweep_files(res, out_dir, stem):
    """The CSV, grid and JSON files of a sweep, written row by row."""
    spec, points = res.spec, res.points
    header = ([spec.axis_x.name, spec.axis_y.name] + list(spec.outputs)
              + ["stable", "branch", "error"])
    xy = [(x, y) for x in res.x_values for y in res.y_values]
    reference_table(out_dir / f"{stem}.csv", res.metadata, ",".join(header),
                    ([x, y, *(getattr(p, n) for n in spec.outputs), p.stable,
                      p.branch, p.error] for (x, y), p in zip(xy, points)))
    output = spec.outputs[0]
    z = np.array([np.nan if getattr(p, output) is None else getattr(p, output)
                  for p in points]).reshape(len(res.x_values), -1)
    rows = []
    for x, column in zip(res.x_values, z):
        rows += [(x, y, v) for y, v in zip(res.y_values, column)]
        rows.append(())
    reference_table(out_dir / f"{stem}.grid.txt", res.metadata,
                    f"# columns: {spec.axis_x.name} {spec.axis_y.name} {output}",
                    rows, sep=" ", eol="\n")
    doc = {"metadata": res.metadata,
           "x_values": [float(v) for v in res.x_values],
           "y_values": [float(v) for v in res.y_values],
           "rows": [vars(p) for p in points]}
    (out_dir / f"{stem}.json").write_text(
        json.dumps(doc, indent=1, sort_keys=True) + "\n")


FLOATS = [0.0, -0.0, 1.0, -1.0, 0.1, 123456789.123456789, 5e-324, -5e-324,
          2.2250738585072014e-308, -1.1125369292536007e-308, 1e308, -1e308,
          1.7976931348623157e308, math.inf, -math.inf, math.nan]
EDGE = [None, True, False, np.True_, np.False_, "", "monostable",
        "stage 'lyapunov' failed: a, b", *FLOATS, np.float64(-0.0),
        np.float64(np.nan), np.float32(0.1), 3, np.int64(-7)]


class TestColumnFormatter:
    def test_sequence_matches_cell_by_cell(self):
        assert format_column(EDGE) == [reference_cell(v) for v in EDGE]
        # a column of one, as a lone cell is written
        assert [format_column([v])[0] for v in EDGE] == \
            [reference_cell(v) for v in EDGE]

    def test_arrays_match_cell_by_cell(self):
        for values in (np.array(FLOATS), np.array([True, False]),
                       np.array([1, -2, 0]), np.array(["lower", "monostable"]),
                       np.array([None, "x", None], dtype=object)):
            assert format_column(values) == [reference_cell(v) for v in values]

    def test_null_mask_blanks_cells(self):
        values = np.array(FLOATS)
        null = np.arange(len(values)) % 3 == 0
        expected = ["" if n else reference_cell(v) for v, n in zip(values, null)]
        assert format_column(values, null) == expected

    def test_json_values_match_the_encoder(self):
        values = [v for v in EDGE if not isinstance(v, (np.bool_, np.floating,
                                                        np.integer))]
        values += ['quote " and \\ and \n and é', " "]
        assert format_column(values, json_values=True) == \
            [json.dumps(v) for v in values]
        floats = np.array(FLOATS)
        null = floats == 1.0
        assert format_column(floats, null, json_values=True) == \
            [json.dumps(None if n else v) for v, n in zip(floats.tolist(), null)]


class TestDocumentLayout:
    def test_nested_document_matches_indented_dumps(self, tmp_path):
        doc = {"b": [1.0, [2.0, {"c": [], "a": {}}], {}, []],
               "a": {"z": None, "y": 'x\n"q"é', "n": math.nan,
                     "i": -math.inf, "t": (1, 2), "k": True},
               "matrix": [[0.0, -0.0], [5e-324, 1e308]], "empty": []}
        write_document(tmp_path / "doc.json", doc)
        assert (tmp_path / "doc.json").read_text() == \
            json.dumps(doc, indent=1, sort_keys=True) + "\n"

    def test_columns_lay_out_as_their_rows(self, tmp_path):
        columns = Columns(
            values={"x": np.array([1.5, math.nan, -0.0]),
                    "tag": np.array(["a", "b%s", "c"]),
                    "ok": np.array([True, False, True]),
                    "note": np.array([None, "n, m", None], dtype=object)},
            null={"x": np.array([False, False, True]),
                  "note": np.array([True, False, True])})
        rows = [{"x": 1.5, "tag": "a", "ok": True, "note": None},
                {"x": math.nan, "tag": "b%s", "ok": False, "note": "n, m"},
                {"x": None, "tag": "c", "ok": True, "note": None}]
        write_document(tmp_path / "cols.json", {"rows": columns, "n": 3})
        assert (tmp_path / "cols.json").read_text() == \
            json.dumps({"rows": rows, "n": 3}, indent=1, sort_keys=True) + "\n"
        empty = Columns(values={"x": np.array([])}, null={})
        write_document(tmp_path / "empty.json", {"rows": empty})
        assert (tmp_path / "empty.json").read_text() == '{\n "rows": []\n}\n'


def mixed_sweep_spec() -> SweepSpec:
    """3x3 bare-detuning white-noise sweep: stable rows (bistable lower
    branch), unstable rows with null measures and margins, and a stable row
    whose closed form fails (null n_eff_approx)."""
    return SweepSpec(
        axis_x=SweepAxis("power_mw", 100.0, 300.0, 3),
        axis_y=SweepAxis("kappa_over_omega_m", 0.12, 1.2, 3, scale="log"),
        fixed=make_params(detuning=2.0 * OMEGA_M, detuning_mode="bare",
                          phase_noise=NoiseSpec.white(2.0 * math.pi * 100.0)))


def test_sweep_files_match_the_row_writers(tmp_path, monkeypatch):
    import optomech.sweep as sweep_mod

    monkeypatch.setattr(sweep_mod, "log_negativity",
                        poison_nth(sweep_mod.log_negativity, 2))
    res = run_sweep(mixed_sweep_spec())
    points = res.points
    assert sum(p.error is not None for p in points) == 1
    assert any(not p.stable and p.error is None for p in points)
    assert any(p.stable and p.n_eff_approx is None for p in points)
    assert any(p.stability_margin is None for p in points)
    emit_figure_data(res, tmp_path, stem="columns")
    res.write_json(tmp_path / "columns.json")
    reference_sweep_files(res, tmp_path, "rows")
    for ext in (".csv", ".grid.txt", ".json"):
        assert (tmp_path / f"columns{ext}").read_bytes() == \
            (tmp_path / f"rows{ext}").read_bytes(), ext


@pytest.mark.parametrize("recipe", ["fig2b", "fig7c"])
def test_recipe_files_match_the_row_writers(tmp_path, recipe):
    from optomech import figure_recipe

    res = run_sweep(figure_recipe(recipe, grid=(6, 5)))
    emit_figure_data(res, tmp_path, stem="columns")
    res.write_json(tmp_path / "columns.json")
    reference_sweep_files(res, tmp_path, "rows")
    for ext in (".csv", ".grid.txt", ".json"):
        assert (tmp_path / f"columns{ext}").read_bytes() == \
            (tmp_path / f"rows{ext}").read_bytes(), ext
