"""Exact rational linear algebra on small dense matrices.

Matrices are tuples of tuples of Fraction, vectors are tuples of Fraction.
Everything is immutable and hashable, so values can be shared freely.
These operations are the single source of truth for every exact
membership test in the package; no tolerance is involved anywhere here.
``transpose``, ``mat_mul`` and ``symmetrize`` take any numbers, so the
float stage of ``sysmodel`` uses them on tuples of floats too.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import mul
from typing import Iterable

RatMatrix = tuple[tuple[Fraction, ...], ...]
RatVector = tuple[Fraction, ...]


def rat(x) -> Fraction:
    """Convert x to an exact Fraction (floats map to their exact dyadic value)."""
    if isinstance(x, float):
        if x != x or x in (float("inf"), float("-inf")):
            raise ValueError("non-finite entry")
        return Fraction(x)
    return Fraction(x)


def vec(entries: Iterable) -> RatVector:
    return tuple(rat(e) for e in entries)


def mat(rows: Iterable[Iterable]) -> RatMatrix:
    m = tuple(tuple(rat(e) for e in row) for row in rows)
    if m and any(len(row) != len(m[0]) for row in m):
        raise ValueError("ragged matrix")
    return m


def identity(n: int) -> RatMatrix:
    one, zero = Fraction(1), Fraction(0)
    return tuple(tuple(one if i == j else zero for j in range(n)) for i in range(n))


def transpose(a: RatMatrix) -> RatMatrix:
    return tuple(zip(*a))


def mat_mul(a: RatMatrix, b: RatMatrix) -> RatMatrix:
    if len(a[0]) != len(b):
        raise ValueError("dimension mismatch")
    bt = transpose(b)
    return tuple(tuple(sum(map(mul, row, col)) for col in bt) for row in a)


def mat_vec(a: RatMatrix, x: RatVector) -> RatVector:
    if len(a[0]) != len(x):
        raise ValueError("dimension mismatch")
    return tuple(sum(e * v for e, v in zip(row, x)) for row in a)


def quad_form(f: RatMatrix, x: RatVector) -> Fraction:
    """x' F x, exactly."""
    return sum(x[i] * sum(f[i][j] * x[j] for j in range(len(x))) for i in range(len(x)))


def integer_matrix(m) -> tuple[tuple[tuple[int, ...], ...], int]:
    """(d m, d) for the common denominator d of the entries of m."""
    d = math.lcm(*(e.denominator for row in m for e in row))
    return tuple(tuple(e.numerator * (d // e.denominator) for e in row)
                 for row in m), d


def integer_form(f) -> tuple[int, ...]:
    """A positive integer multiple of the form x'Fx, as coefficients of
    the monomials x_i x_j with i <= j, in that order."""
    g, _ = integer_matrix(f)
    n = len(g)
    return tuple(g[i][j] + g[j][i] if i < j else g[i][i]
                 for i in range(n) for j in range(i, n))


def padded(f):
    """f as a 2 x 2 matrix: a one-variable plant's 1 x 1 matrix with zeros
    around it, so that its binary forms have no y1 term."""
    return f if len(f) == 2 else ((f[0][0], 0), (0, 0))


def congruence(f: RatMatrix, a: RatMatrix) -> RatMatrix:
    """A' F A, exactly."""
    return mat_mul(transpose(a), mat_mul(f, a))


def symmetrize(f: RatMatrix) -> RatMatrix:
    half = Fraction(1, 2)
    return tuple(
        tuple((f[i][j] + f[j][i]) * half for j in range(len(f)))
        for i in range(len(f))
    )


def is_symmetric(f: RatMatrix) -> bool:
    n = len(f)
    return all(f[i][j] == f[j][i] for i in range(n) for j in range(n))
