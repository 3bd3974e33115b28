"""Result files: one column formatter, one table layout, one JSON layout.

Every file the package writes goes through here, so identical results give
byte-identical files whichever command wrote them. Values are formatted a
whole column at a time.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass

import numpy as np

from . import __version__
from .constants import CODATA_VERSION

# encodes a list of scalars with a raw newline between the items; the
# encoder escapes every newline inside a string, so splitting on it gives
# one encoded value per item
_JSON_ITEMS = json.JSONEncoder(separators=("\n", ":"))


def tool_metadata(**fields) -> dict:
    """The tool/version/constants header of every result file, plus ``fields``."""
    return {"tool": "optomech", "version": __version__,
            "constants_codata": CODATA_VERSION, **fields}


def _text_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, str):
        return value
    return "%.16e" % float(value)


def format_column(values, null=None, json_values: bool = False) -> list[str]:
    """The cells of one column of a table or of a JSON list.

    Table cells: null as empty, bools as true/false, strings as-is and
    numbers as %.16e. JSON values are what ``json.dumps`` writes for each
    item. ``values`` is an array or a sequence of scalars; ``null`` is an
    optional boolean mask of the items written as null whatever they hold.
    """
    is_array = isinstance(values, np.ndarray)
    if json_values:
        items = values.tolist() if is_array else list(values)
        if null is not None:
            for i in np.flatnonzero(null).tolist():
                items[i] = None
        if not items:
            return []
        return _JSON_ITEMS.encode(items)[1:-1].split("\n")
    kind = values.dtype.kind if is_array else "O"
    if kind == "b":
        cells = ["true" if v else "false" for v in values.tolist()]
    elif kind in "iuf":
        cells = ["%.16e" % v for v in values.tolist()]
    elif kind == "U":
        cells = values.tolist()
    else:
        cells = [_text_cell(v) for v in values]
    if null is not None:
        for i in np.flatnonzero(null).tolist():
            cells[i] = ""
    return cells


@dataclass(frozen=True)
class Columns:
    """Rows of flat records held column by column.

    ``values`` maps each field to an array with one item per row; ``null``
    maps a nullable field to a boolean mask of the rows where it is None.
    A JSON document lays a Columns out as its list of row objects.
    """

    values: dict
    null: dict

    def __len__(self) -> int:
        return len(next(iter(self.values.values())))

    def cells(self, name: str, json_values: bool = False) -> list[str]:
        """``format_column`` of one field."""
        return format_column(self.values[name], self.null.get(name), json_values)


def write_table(path, meta: dict, header: str, cells, sep: str = ",",
                eol: str = "\r\n", block: int | None = None) -> None:
    """A ``# config:`` line, a header line, then one line per row.

    ``cells`` holds one list of formatted cells per column (see
    ``format_column``). With ``block``, an empty line follows every
    ``block`` rows (the block separator of a gnuplot grid).
    """
    lines = [sep.join(row) + eol for row in zip(*cells)]
    if block:
        lines = ["".join(lines[i:i + block]) + eol
                 for i in range(0, len(lines), block)]
    with open(path, "w", newline="") as fh:
        fh.write("# config: " + json.dumps(meta, sort_keys=True) + eol)
        fh.write(header + eol)
        fh.write("".join(lines))


def _layout(value, depth: int) -> str:
    """``json.dumps(value, indent=1, sort_keys=True)`` of a value at ``depth``.

    Scalars are encoded by the C encoder a whole list or column at a time;
    only the indentation is laid out here.
    """
    inner = "\n" + " " * (depth + 1)
    close = "\n" + " " * depth
    if isinstance(value, Columns):
        if not len(value):
            return "[]"
        names = sorted(value.values)
        row_inner = inner + " "
        template = ("{" + row_inner
                    + ("," + row_inner).join(
                        json.dumps(name).replace("%", "%%") + ": %s"
                        for name in names)
                    + inner + "}")
        rows = zip(*(value.cells(name, json_values=True) for name in names))
        items = [template % row for row in rows]
    elif isinstance(value, dict):
        if not value:
            return "{}"
        items = [json.dumps(key) + ": " + _layout(value[key], depth + 1)
                 for key in sorted(value)]
        return "{" + inner + ("," + inner).join(items) + close + "}"
    elif isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        if any(isinstance(v, (dict, list, tuple, Columns)) for v in value):
            items = [_layout(v, depth + 1) for v in value]
        else:
            items = format_column(value, json_values=True)
    else:
        return format_column([value], json_values=True)[0]
    return "[" + inner + ("," + inner).join(items) + close + "]"


def write_document(path, doc: dict) -> None:
    """Indented, key-sorted JSON with a trailing newline; stdout if path is None.

    The bytes are those of ``json.dumps(doc, indent=1, sort_keys=True)``,
    where a Columns stands for its list of row objects.
    """
    text = _layout(doc, 0) + "\n"
    if path is None:
        sys.stdout.write(text)
        return
    with open(path, "w") as fh:
        fh.write(text)
