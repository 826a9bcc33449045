"""Deterministic CSV emission shared by the harness runners.

Floats are written with repr(), the shortest round-trip form, so a rerun
with identical seeds produces byte-identical files. Infinities render as
"inf", which float() reads back.
"""

import csv
import os


def fmt_value(value):
    if type(value) is float:  # the common case first
        return repr(value)
    if isinstance(value, bool):
        return "1" if value else "0"
    if hasattr(value, "item"):  # numpy scalar; unwrap before the float
        return fmt_value(value.item())  # branch, np.float64 reprs oddly
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_csv(path, header, rows):
    """Write dict rows under the given header; returns the path."""
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([fmt_value(row[key]) for key in header])
    return path
