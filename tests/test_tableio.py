import csv

import numpy as np

from amboost.design import difference_penalty
from amboost.tableio import write_csv


def test_cell_formats(tmp_path):
    # floats (numpy's included) by repr of the python float, everything
    # else by str; blanks stay blank
    out = tmp_path / "cells.csv"
    row = [np.float64(1.5), np.float32(0.1), 0.1, np.int64(3), 7,
           np.bool_(True), False, "", "mean"]
    assert write_csv(out, [f"c{j}" for j in range(len(row))], [row]) == 1
    lines = out.read_text().splitlines()
    assert lines[1] == "1.5,0.10000000149011612,0.1,3,7,True,False,,mean"


def test_float_matrix_round_trips_exactly(tmp_path):
    rng = np.random.default_rng(0)
    M = rng.standard_normal((5, 4)) * np.logspace(-300, 300, 4)
    M[0] = [1.0 / 3.0, -0.0, 5e-324, np.finfo(float).max]
    for matrix, labels in ((M, [f"c{j + 1}" for j in range(4)]),
                           (difference_penalty(4, 2), [f"b{j}" for j in range(4)])):
        out = tmp_path / "matrix.csv"
        assert write_csv(out, labels, matrix) == matrix.shape[0]
        with open(out) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == labels
        back = np.array([[float(v) for v in row] for row in rows[1:]])
        np.testing.assert_array_equal(back, matrix)
        assert np.array_equal(np.signbit(back), np.signbit(matrix))
