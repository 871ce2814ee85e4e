"""Verified linear algebra tests.

Oracles: numpy float solves/eigenvalues for containment checks.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from conecert.interval import IMatrix, Interval, IVector
from conecert.linalg import is_positive_definite
from oracles import (
    SingularEnclosure,
    solve_interval_linear,
    solve_interval_linear_cols,
    verified_inverse,
)


# -- solve --------------------------------------------------------------------


def test_solve_contains_numpy_solution():
    rng = random.Random(3)
    for _ in range(50):
        a = [[rng.uniform(-2, 2) for _ in range(3)] for _ in range(3)]
        m = np.array(a)
        m += 4.0 * np.eye(3)  # keep well conditioned
        b = [rng.uniform(-1, 1) for _ in range(3)]
        x = np.linalg.solve(m, np.array(b))
        enc = solve_interval_linear(IMatrix.from_floats(m.tolist()), IVector.from_floats(b))
        for i in range(3):
            assert x[i] in Interval(enc[i].lo - 1e-12, enc[i].hi + 1e-12)
        assert enc.max_width() < 1e-10


def test_solve_interval_matrix_covers_all_selections():
    # A has one genuinely interval entry; both corner selections must be covered.
    a = IMatrix(
        [
            [Interval(2.0), Interval(0.4, 0.6)],
            [Interval(0.0), Interval(1.0)],
        ]
    )
    b = IVector.from_floats([1.0, 1.0])
    enc = solve_interval_linear(a, b)
    for sel in (0.4, 0.5, 0.6):
        x = np.linalg.solve(np.array([[2.0, sel], [0.0, 1.0]]), np.array([1.0, 1.0]))
        assert all(xi in e for xi, e in zip(x.tolist(), enc))


def test_solve_singular_raises():
    a = IMatrix.from_floats([[1.0, 1.0], [1.0, 1.0]])
    with pytest.raises(SingularEnclosure):
        solve_interval_linear(a, IVector.from_floats([1.0, 0.0]))


def test_solve_wide_interval_raises():
    # Entry width so large that no inverse is certified.
    a = IMatrix([[Interval(-1.0, 3.0), Interval(0.0)], [Interval(0.0), Interval(1.0)]])
    with pytest.raises(SingularEnclosure):
        solve_interval_linear(a, IVector.from_floats([1.0, 1.0]))


def test_verified_inverse():
    a = IMatrix.from_floats([[4.0, 1.0], [2.0, 3.0]])
    inv = verified_inverse(a)
    true = np.linalg.inv(np.array([[4.0, 1.0], [2.0, 3.0]]))
    for i in range(2):
        for j in range(2):
            assert true[i][j] in Interval(inv[i, j].lo - 1e-13, inv[i, j].hi + 1e-13)
    # A A^{-1} must enclose the identity.
    prod = a.matmul(inv)
    for i in range(2):
        for j in range(2):
            assert (1.0 if i == j else 0.0) in prod[i, j]


def test_solve_cols_matches_column_solves():
    a = IMatrix.from_floats([[3.0, 1.0], [-1.0, 2.0]])
    b = IMatrix.from_floats([[1.0, 0.0], [0.0, 1.0]])
    cols = solve_interval_linear_cols(a, b)
    for j in range(2):
        single = solve_interval_linear(a, IVector(b.col(j)))
        for i in range(2):
            assert single[i].intersects(cols[i, j])


# -- positive definiteness ----------------------------------------------------


def test_pd_identity():
    v = is_positive_definite(IMatrix.identity(3))
    assert v.verified
    assert v.margin > 0.9


def test_pd_simple():
    v = is_positive_definite(IMatrix.from_floats([[2.0, 1.0], [1.0, 2.0]]))
    assert v.verified
    # Smallest eigenvalue is 1; Cholesky margin is a pivot bound, positive.
    assert v.margin > 0.0


def test_pd_indefinite_is_unverified():
    v = is_positive_definite(IMatrix.from_floats([[1.0, 2.0], [2.0, 1.0]]))
    assert not v.verified  # eigenvalues -1 and 3


def test_pd_semidefinite_boundary_unverified():
    v = is_positive_definite(IMatrix.from_floats([[1.0, 1.0], [1.0, 1.0]]))
    assert not v.verified


def test_pd_uses_symmetric_part():
    # Skew part must not matter: [[1, 10], [-10, 1]] has symmetric part I.
    v = is_positive_definite(IMatrix.from_floats([[1.0, 10.0], [-10.0, 1.0]]))
    assert v.verified


def test_pd_wide_intervals_unverified():
    m = IMatrix([[Interval(1.0), Interval(-2.0, 2.0)], [Interval(-2.0, 2.0), Interval(1.0)]])
    assert not is_positive_definite(m).verified


def test_pd_random_psd_oracle():
    rng = random.Random(5)
    for _ in range(40):
        a = np.array([[rng.uniform(-1, 1) for _ in range(3)] for _ in range(3)])
        m = a @ a.T + 0.05 * np.eye(3)
        verdict = is_positive_definite(IMatrix.from_floats(m.tolist()))
        eigs = np.linalg.eigvalsh(m)
        assert verdict.verified == bool(eigs.min() > 0)
