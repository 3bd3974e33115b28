import importlib.util
import os

import pytest

TOOLS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tools")


@pytest.fixture(scope="module")
def pinned_moves():
    spec = importlib.util.spec_from_file_location(
        "pinned_moves", os.path.join(TOOLS, "pinned_moves.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_largest_move_names_its_number(pinned_moves):
    base = "x,e_n\n1.0,2.5e-3\n2.0,0\n"
    head = "x,e_n\n1.0,2.5000001e-3\n2.0,0\n"
    assert pinned_moves.largest_move(base, head) == (
        "4e-08 | line 2, column 1: 0.0025 -> 0.0025000001")
    assert pinned_moves.largest_move(base, base.replace("e_n", "E_N")).startswith(
        "text other than numbers changed")


def test_report_lists_moved_files_only(pinned_moves, tmp_path, capsys):
    for side, value in (("base", "1.5"), ("head", "1.25")):
        for name, text in (("same.csv", "a\n3\n"), ("moved.csv", f"a\n{value}\n")):
            path = tmp_path / side / "sub" / name
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text)
    (tmp_path / "head" / "new.txt").write_text("1\n")
    assert pinned_moves.main([str(tmp_path / "base"), str(tmp_path / "head")]) == 0
    out = capsys.readouterr().out
    assert out.startswith("2 of 3 files moved.")
    assert "| sub/moved.csv | 0.17 | line 2, column 0: 1.5 -> 1.25 |" in out
    assert "| new.txt | only in head | |" in out
    assert "same.csv" not in out
