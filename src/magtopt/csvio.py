"""The CSV dialect of every input file (spline law, tracking target and
correction tables). Text from `#` to the end of a line is a comment, blank
lines are skipped and line numbers count every line. The `key=value` tokens
of whole-line comments before the header are the file's metadata, each key
given once. The first other line is the header, exactly the expected names
ignoring case and spaces; every later line holds that many finite numbers.
Files are UTF-8, and a leading byte-order mark is dropped."""
from __future__ import annotations

import math

import numpy as np


def read_csv(path, header: tuple) -> tuple:
    """(metadata dict, float rows (k, len(header))) of the file at `path`,
    whose header is the lower-case names `header`; ValueError naming the
    file and the line that breaks the dialect."""
    meta, lines, rows, width, n = {}, {}, [], None, 0
    expected = f"expected header '{','.join(header)}'"
    with open(path, encoding="utf-8-sig") as f:
        for n, line in enumerate(f, start=1):
            text, _, comment = line.partition("#")
            cells = text.split(",")
            if not text.strip():   # a blank line or a whole-line comment
                tokens = comment.split() if width is None else []
                for key, value in (t.split("=", 1) for t in tokens if "=" in t):
                    if key in lines:
                        raise ValueError(f"{path}: line {n}: key {key!r} "
                                         f"already set on line {lines[key]}")
                    lines[key], meta[key] = n, value
            elif width is None:
                if [c.strip().lower() for c in cells] != list(header):
                    raise ValueError(f"{path}: line {n}: {expected}")
                width = len(header)
            else:
                try:
                    row = list(map(float, cells))   # float() strips spaces
                    if len(row) != width or not all(map(math.isfinite, row)):
                        raise ValueError
                    rows.append(row)
                except ValueError:
                    cells = [c.strip() for c in cells]
                    raise ValueError(f"{path}: line {n}: bad row {cells!r}") from None
    if width is None:
        raise ValueError(f"{path}: line {n + 1}: {expected}")
    return meta, np.array(rows, dtype=float).reshape(-1, width)
