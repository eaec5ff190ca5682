"""Exact rank computations shared by cohomology and Jacobian analyses.

Rank over the rationals uses fraction-free (Bareiss) elimination on an
integer matrix; Fraction entries are first cleared row by row, which leaves
the rank unchanged. Rank over GF(p) is plain Gaussian elimination on
residues. The same clearing to primitive integers (``primitive_integers``)
also maps rational polynomials to GF(p).
"""

from __future__ import annotations

from math import gcd, lcm

from .fields import GFElement


def rank_int(rows) -> int:
    """Rank of an integer matrix via Bareiss fraction-free elimination."""
    m = [list(r) for r in rows]
    if not m or not m[0]:
        return 0
    nrows, ncols = len(m), len(m[0])
    rank = 0
    prev = 1
    for col in range(ncols):
        pivot = None
        for i in range(rank, nrows):
            if m[i][col] != 0:
                pivot = i
                break
        if pivot is None:
            continue
        if pivot != rank:
            m[rank], m[pivot] = m[pivot], m[rank]
        pv = m[rank][col]
        for i in range(rank + 1, nrows):
            fi = m[i][col]
            for j in range(col + 1, ncols):
                m[i][j] = (m[i][j] * pv - fi * m[rank][j]) // prev
            m[i][col] = 0
        prev = pv
        rank += 1
        if rank == nrows:
            break
    return rank


def rank_mod_p(rows, p: int) -> int:
    """Rank of an integer (or residue) matrix over GF(p)."""
    m = [[int(x) % p for x in r] for r in rows]
    if not m or not m[0]:
        return 0
    nrows, ncols = len(m), len(m[0])
    rank = 0
    for col in range(ncols):
        pivot = None
        for i in range(rank, nrows):
            if m[i][col] != 0:
                pivot = i
                break
        if pivot is None:
            continue
        if pivot != rank:
            m[rank], m[pivot] = m[pivot], m[rank]
        inv = pow(m[rank][col], p - 2, p)
        row = m[rank]
        for i in range(rank + 1, nrows):
            f = m[i][col]
            if f:
                f = f * inv % p
                m[i] = [(a - f * b) % p for a, b in zip(m[i], row)]
        rank += 1
        if rank == nrows:
            break
    return rank


def primitive_integers(values, p: int = 0):
    """Rationals (ints or Fractions) scaled by one common factor to coprime integers.

    With a prime ``p``, a denominator divisible by ``p`` is a bad-prime error:
    the values have no image mod ``p``.
    """
    values = list(values)
    den = lcm(*(c.denominator for c in values))
    if p and den % p == 0:
        bad = next(c for c in values if c.denominator % p == 0)
        raise ValueError(f"bad prime {p}: denominator of coefficient {bad} vanishes")
    ints = [c.numerator * (den // c.denominator) for c in values]
    g = gcd(*ints)
    return [x // g for x in ints] if g > 1 else ints


def rank_exact(rows, field) -> int:
    """Rank of a matrix of field scalars (Fractions over QQ, residues over GF(p))."""
    m = [list(r) for r in rows]
    if not m or not m[0]:
        return 0
    if field.characteristic() == 0:
        return rank_int([primitive_integers(row) for row in m])
    p = field.characteristic()
    ints = [[c.v if isinstance(c, GFElement) else int(c) for c in row] for row in m]
    return rank_mod_p(ints, p)
