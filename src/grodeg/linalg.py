"""Exact rank computations shared by Jacobian and cohomology analyses.

Every rank is taken by one sparse elimination (``_rank``): rows are
``{column: value}`` dicts (dense sequences are read as such), the sparsest row
is inserted first into an echelon form keyed by leading column, and each later
row is reduced by the pivot at its leading column until it is zero or starts a
new pivot. Over the rationals the entries stay integers: a unit pivot is
subtracted as it is, any other pivot cross-multiplies (a nonzero scaling of
the row, so the rank is unchanged) and the row is divided by its content.
Over GF(p) entries are plain residues and pivots are scaled to lead with 1.
The matrices are Jacobians at coordinate points and the boundaries that
survive ``complexes``' coreduction (few ±1 entries a row, unit pivots). The
same clearing to primitive integers (``primitive_integers``) turns rational
rows into integer ones and maps rational polynomials to GF(p).
"""

from __future__ import annotations

from math import gcd, lcm


def _rank(rows, p: int) -> int:
    """Rank over QQ (``p == 0``, integer entries) or GF(p) of rows given as
    ``{column: value}`` dicts or dense sequences, which are left unchanged."""
    sparse = []
    for row in rows:
        items = row.items() if isinstance(row, dict) else enumerate(row)
        sparse.append({j: v for j, x in items if (v := x % p if p else x)})
    sparse.sort(key=len)
    pivots = {}
    for r in sparse:
        while r:
            c = min(r)
            q = pivots.get(c)
            if q is None:
                if p and r[c] != 1:
                    inv = pow(r[c], -1, p)
                    r = {j: x * inv % p for j, x in r.items()}
                pivots[c] = r
                break
            f = r[c]
            if p:
                for j, x in q.items():
                    v = (r.get(j, 0) - f * x) % p
                    if v:
                        r[j] = v
                    else:
                        del r[j]
                continue
            a = q[c]
            unit = a == 1 or a == -1
            if unit:
                f *= a
            else:
                r = {j: a * x for j, x in r.items()}
            for j, x in q.items():
                v = r.get(j, 0) - f * x
                if v:
                    r[j] = v
                else:
                    del r[j]
            if not unit:
                g = gcd(*r.values())
                if g > 1:
                    r = {j: x // g for j, x in r.items()}
    return len(pivots)


def rank_int(rows) -> int:
    """Rank over QQ of an integer matrix (rows as dicts or sequences)."""
    return _rank(rows, 0)


def rank_mod_p(rows, p: int) -> int:
    """Rank over GF(p) of an integer (or residue) matrix (rows as dicts or sequences)."""
    return _rank(rows, p)


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
    """Rank of a matrix of field scalars (ints or Fractions over QQ, integer
    residues over GF(p)), rows as ``{column: scalar}`` dicts or sequences."""
    p = field.characteristic()
    if p:
        return _rank(rows, p)
    return _rank([_cleared(row) for row in rows], 0)


def _cleared(row):
    """A rational row as primitive integers in the same columns."""
    if isinstance(row, dict):
        return dict(zip(row, primitive_integers(row.values())))
    return primitive_integers(row)
