"""Exact rational linear algebra, cross-checked against numpy floats."""

from __future__ import annotations

import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from petctraffic import ratlin
from conftest import to_float_matrix

F = Fraction


def rand_mat(rng, n, m):
    return ratlin.mat([[F(rng.randint(-20, 20), rng.randint(1, 5))
                        for _ in range(m)] for _ in range(n)])


def test_rat_conversions():
    assert ratlin.rat(0.5) == F(1, 2)
    assert ratlin.rat("3/7") == F(3, 7)
    assert ratlin.rat(2) == F(2)
    # floats freeze to their exact binary value, not a decimal reading
    assert ratlin.rat(0.1) == F(0.1) != F(1, 10)
    with pytest.raises(ValueError):
        ratlin.rat(float("nan"))
    with pytest.raises(ValueError):
        ratlin.rat(float("inf"))


def test_mat_rejects_ragged():
    with pytest.raises(ValueError):
        ratlin.mat([[1, 2], [3]])


def test_mat_mul_matches_numpy():
    rng = random.Random(42)
    for _ in range(20):
        n, k, m = rng.randint(1, 4), rng.randint(1, 4), rng.randint(1, 4)
        a, b = rand_mat(rng, n, k), rand_mat(rng, k, m)
        got = to_float_matrix(ratlin.mat_mul(a, b))
        want = to_float_matrix(a) @ to_float_matrix(b)
        assert np.allclose(got, want, rtol=1e-12)


def test_mat_mul_dimension_mismatch():
    a = ratlin.identity(2)
    b = ratlin.mat([[1, 2, 3]])
    with pytest.raises(ValueError):
        ratlin.mat_mul(a, b)
    with pytest.raises(ValueError):
        ratlin.mat_vec(a, (F(1),))


def test_quad_form_and_congruence_consistent():
    rng = random.Random(7)
    for _ in range(20):
        n = rng.randint(1, 4)
        f = rand_mat(rng, n, n)
        a = rand_mat(rng, n, n)
        x = ratlin.vec([F(rng.randint(-5, 5), rng.randint(1, 3))
                        for _ in range(n)])
        # (Ax)' F (Ax) == x' (A'FA) x, exactly
        ax = ratlin.mat_vec(a, x)
        assert ratlin.quad_form(f, ax) == ratlin.quad_form(
            ratlin.congruence(f, a), x)


def test_symmetrize_and_is_symmetric():
    f = ratlin.mat([[1, 3], [1, 2]])
    assert not ratlin.is_symmetric(f)
    s = ratlin.symmetrize(f)
    assert ratlin.is_symmetric(s)
    assert s[0][1] == F(2)
    x = (F(2), F(-1))
    assert ratlin.quad_form(f, x) == ratlin.quad_form(s, x)


def test_identity_transpose_scale():
    i3 = ratlin.identity(3)
    assert ratlin.transpose(i3) == i3
    a = ratlin.mat([[1, 2], [3, 4]])
    assert ratlin.transpose(ratlin.transpose(a)) == a
    assert ratlin.mat_mul(a, ratlin.identity(2)) == a


@given(st.lists(st.fractions(min_value=-9, max_value=9), min_size=4,
                max_size=4))
@settings(max_examples=50, deadline=None)
def test_congruence_preserves_symmetry(entries):
    f = ratlin.symmetrize(ratlin.mat([entries[:2], entries[2:]]))
    a = ratlin.mat([[1, 2], [0, 1]])
    assert ratlin.is_symmetric(ratlin.congruence(f, a))


def test_float_roundtrip():
    m = np.array([[0.125, -1.5], [2.0, 0.75]])
    r = ratlin.mat(m)
    assert r[0][0] == F(1, 8)
    assert np.array_equal(to_float_matrix(r), m)
