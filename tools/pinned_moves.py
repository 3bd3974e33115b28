"""Report how far the numbers of two pinned output sets moved, file by file.

Usage: python tools/pinned_moves.py BASE_DIR HEAD_DIR

BASE_DIR and HEAD_DIR are two OUT_DIRs of ``tools/pinned_outputs.py``. For
every file whose bytes differ, prints one Markdown table row: the file, the
largest relative move of a number in it, |head - base| / max(|head|,
|base|), and where that number is (line and, in a CSV file, column). The
numbers are the numeric tokens of each text, paired in order; a file whose
token count or non-numeric text changed is reported as such. Files only one
side has are named too. Always exits 0: this is a report, not a check.
"""

from __future__ import annotations

import math
import os
import re
import sys

NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|[-+]?(?:inf|nan)")


def _files(root: str) -> set[str]:
    return {os.path.relpath(os.path.join(top, name), root)
            for top, _, names in os.walk(root) if os.path.relpath(top, root) != "inputs"
            for name in names}


def _tokens(text: str) -> list[tuple[float, int, int]]:
    """Each number of ``text`` with its line (from 1) and its column (from 0)."""
    out = []
    for number, line in enumerate(text.splitlines(), 1):
        for match in NUMBER.finditer(line):
            out.append((float(match.group()), number, line.count(",", 0, match.start())))
    return out


def largest_move(base: str, head: str) -> str:
    """The table cells of one changed text: largest move, and where."""
    if NUMBER.sub("#", base) != NUMBER.sub("#", head):
        return "text other than numbers changed | "
    worst, where = 0.0, ""
    for (b, line, col), (h, _, _) in zip(_tokens(base), _tokens(head)):
        if b == h or (math.isnan(b) and math.isnan(h)):
            continue
        move = abs(h - b) / max(abs(h), abs(b))
        if not move <= worst:  # NaN against a number counts as the largest
            worst, where = move, f"line {line}, column {col}: {b!r} -> {h!r}"
    return f"{worst:.2g} | {where}"


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 0
    base_dir, head_dir = args
    base, head = _files(base_dir), _files(head_dir)
    rows = []
    for path in sorted(base | head):
        if path not in base or path not in head:
            rows.append(f"| {path} | only in {'head' if path in head else 'base'} | |")
            continue
        with open(os.path.join(base_dir, path), "rb") as fh:
            old = fh.read()
        with open(os.path.join(head_dir, path), "rb") as fh:
            new = fh.read()
        if old != new:
            try:
                cells = largest_move(old.decode(), new.decode())
            except UnicodeDecodeError:
                cells = "binary | "
            rows.append(f"| {path} | {cells} |")
    print(f"{len(rows)} of {len(base | head)} files moved.")
    if rows:
        print("\n| file | largest relative move | where |\n| --- | --- | --- |")
        print("\n".join(rows))
    return 0


if __name__ == "__main__":
    sys.exit(main())
