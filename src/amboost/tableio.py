"""Deterministic CSV writing for run artifacts.

The one place that opens a CSV file. Floats (numpy's included) are
written with ``repr`` so identical inputs produce byte-identical files;
every other value is written with ``str``.
"""

from __future__ import annotations

import csv

import numpy as np


def _fmt(v):
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


def write_csv(path, header, rows):
    """Write a table; rows are iterables matching the header length."""
    header = list(header)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        count = 0
        for row in rows:
            row = list(row)
            if len(row) != len(header):
                raise ValueError("row length does not match header")
            writer.writerow([_fmt(v) for v in row])
            count += 1
    return count
