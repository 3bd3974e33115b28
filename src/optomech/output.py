"""Result files: one number format, one table layout, one JSON layout.

Every file the package writes goes through here, so identical results give
byte-identical files whichever command wrote them.
"""

from __future__ import annotations

import json
import sys

import numpy as np

from . import __version__
from .constants import CODATA_VERSION


def tool_metadata(**fields) -> dict:
    """The tool/version/constants header of every result file, plus ``fields``."""
    return {"tool": "optomech", "version": __version__,
            "constants_codata": CODATA_VERSION, **fields}


def _cell(value) -> str:
    """Null as empty, bools as true/false, strings as-is, numbers as %.16e."""
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, str):
        return value
    return f"{float(value):.16e}"


def write_table(path, meta: dict, header: str, rows, sep: str = ",",
                eol: str = "\r\n") -> None:
    """A ``# config:`` line, a header line, then one line of cells per row.

    An empty row writes an empty line (the block separator of a gnuplot grid).
    """
    with open(path, "w", newline="") as fh:
        fh.write("# config: " + json.dumps(meta, sort_keys=True) + eol)
        fh.write(header + eol)
        for row in rows:
            fh.write(sep.join(_cell(v) for v in row) + eol)


def write_document(path, doc: dict) -> None:
    """Indented, key-sorted JSON with a trailing newline; stdout if path is None."""
    text = json.dumps(doc, indent=1, sort_keys=True) + "\n"
    if path is None:
        sys.stdout.write(text)
        return
    with open(path, "w") as fh:
        fh.write(text)
