"""Buchberger completion, reduced bases and initial ideals.

Division is one loop on exponent tuples: the live terms sit in a dict keyed
by the order's compiled key, and each step removes the largest and adds the
shifted tail of the first reducer, in table order, whose lead divides it.
A table entry is ``(lead exponents, [(exponents, coefficient), ...])``, its
tail scaled to lead coefficient 1. A completion keeps one table: an element
is made monic once, when it joins; an S-pair writes its shifted tails
straight into the live dict; the lcm and the coprime-lead and chain criteria
read lead tuples; inter-reduction runs on the table, and only the reduced
basis becomes ``Polynomial`` values. Each pair is ranked once, ``normal``
(smallest lcm degree first) or ``fifo``; both give the same reduced basis,
and a degree cap (``DEFAULT_DEGREE_CAP`` unless given) aborts runaway
completions with ``DegreeCapExceeded``.
"""

from __future__ import annotations

import heapq
import itertools
from operator import add, le, mul, sub
from typing import Optional, Tuple

from .errors import ContextMismatchError, DegreeCapExceeded
from .records import Record
from .ring import MAX_EXPONENT, Monomial, MonomialOrder, Polynomial, RingContext

DEFAULT_DEGREE_CAP = 40


def _entry(g: Polynomial, order: MonomialOrder):
    """Table entry of nonzero g under order; a non-monic g has its tail scaled once."""
    key = order.exps_key
    same = g.order is order or g.order == order
    lm, lc = g.terms[0] if same else max(g.terms, key=lambda mc: key(mc[0].exps))
    tail = [(m.exps, c) for m, c in g.terms if m is not lm]
    return lm.exps, tail if lc == g.ctx.field.one else [(e, c / lc) for e, c in tail]


def _divide(live, table, key):
    """Remainder of the live terms ``{key(e): (e, c)}`` under the table's entries,
    as ``(e, c)`` pairs in decreasing order; empties ``live``."""
    remainder = []
    while live:
        e, c = live.pop(max(live))
        for ge, tail in table:
            if all(map(le, ge, e)):
                q = tuple(map(sub, e, ge))
                s = -c
                for te, tc in tail:
                    te = tuple(map(add, te, q))
                    k = key(te)
                    old = live.get(k)
                    v = s * tc if old is None else old[1] + s * tc
                    if v:
                        live[k] = (te, v)
                    else:
                        del live[k]
                break
        else:
            remainder.append((e, c))
    return remainder


def _s_pair(f, g, l, key):
    """Live terms of the S-polynomial of entries f and g whose leads have lcm l:
    the monic leads cancel, and the tails are shifted up to l and subtracted."""
    qf, qg = tuple(map(sub, l, f[0])), tuple(map(sub, l, g[0]))
    live = {}
    for e, c in f[1]:
        e = tuple(map(add, e, qf))
        live[key(e)] = (e, c)
    for e, c in g[1]:
        e = tuple(map(add, e, qg))
        k = key(e)
        old = live.get(k)
        v = -c if old is None else old[1] - c
        if v:
            live[k] = (e, v)
        else:
            del live[k]
    return live


def _polynomial(ctx, order, terms) -> Polynomial:
    """``Polynomial`` of ``(e, c)`` pairs in decreasing order, range-checked by ``Monomial``."""
    return Polynomial._make(ctx, order, [(Monomial(e), c) for e, c in terms])


def normal_form(f: Polynomial, basis, order: Optional[MonomialOrder] = None) -> Polynomial:
    """Remainder of f under multivariate division by the listed polynomials."""
    order = order or f.order
    ctx, key = f.ctx, order.exps_key
    if any(g.ctx is not ctx and g.ctx != ctx for g in basis):
        raise ContextMismatchError("divisor over a different ring context")
    table = [_entry(g, order) for g in basis if g.terms]
    live = {key(m.exps): (m.exps, c) for m, c in f.terms}
    return _polynomial(ctx, order, _divide(live, table, key))


def s_polynomial(f: Polynomial, g: Polynomial) -> Polynomial:
    """S-polynomial with monic normalization of both inputs."""
    if f.ctx != g.ctx:
        raise ContextMismatchError("S-polynomial of polynomials over different contexts")
    order, key = f.order, f.order.exps_key
    ef, eg = _entry(f, order), _entry(g, order)
    live = _s_pair(ef, eg, tuple(map(max, ef[0], eg[0])), key)
    return _polynomial(f.ctx, order, sorted(live.values(), key=lambda ec: key(ec[0]), reverse=True))


class GroebnerBasis(Record):
    """Reduced, monic basis sorted by decreasing leading monomial."""

    def __init__(self, polys: Tuple[Polynomial, ...], order: MonomialOrder, ctx: RingContext):
        self.__dict__.update(polys=polys, order=order, ctx=ctx)

    def leading_monomials(self) -> Tuple[Monomial, ...]:
        return tuple(g.leading_monomial() for g in self.polys)

    def is_proper(self) -> bool:
        return all(not g.leading_monomial().is_one() for g in self.polys)

    def normal_form(self, f: Polynomial) -> Polynomial:
        return normal_form(f, self.polys, self.order)

    def render_polys(self):
        return tuple(g.render() for g in self.polys)


class MonomialIdeal(Record):
    """Minimal monomial generators, canonically sorted by (degree, exponents)."""

    def __init__(self, ctx: RingContext, gens: Tuple[Monomial, ...]):
        self.__dict__.update(ctx=ctx, gens=gens)

    @staticmethod
    def from_monomials(ctx: RingContext, monomials) -> "MonomialIdeal":
        monos = sorted(set(monomials), key=lambda m: (m.graded_degree(ctx.grading), m.exps))
        minimal = []
        for m in monos:
            if not any(k.divides(m) for k in minimal):
                minimal.append(m)
        return MonomialIdeal(ctx, tuple(minimal))

    def contains(self, m: Monomial) -> bool:
        return any(g.divides(m) for g in self.gens)

    def is_squarefree(self) -> bool:
        return all(g.is_squarefree() for g in self.gens)

    def is_zero(self) -> bool:
        return not self.gens

    def render_gens(self):
        return tuple(self.ctx.render_monomial(g) for g in self.gens)


def buchberger(gens, order: MonomialOrder, *, degree_cap: int = DEFAULT_DEGREE_CAP, strategy: str = "normal") -> GroebnerBasis:
    """Complete the generators to the reduced Groebner basis under order.

    Each pair is ranked once, when it is made, and waits in a heap: ``normal``
    ranks by (lcm degree, lcm key), ``fifo`` by creation; ties go by index.
    Exponents stay below ``MAX_EXPONENT``, as in a ``Monomial``; with a positive
    grading an exponent is at most its term's degree, which for an S-pair's
    terms is at most the lcm's plus an element's ``excess`` (tail over lead).
    """
    if strategy not in ("normal", "fifo"):
        raise ValueError(f"unknown strategy {strategy!r}")
    ctx, key = order.ctx, order.exps_key
    one, grading = ctx.field.one, ctx.grading
    degree = lambda e: sum(map(mul, e, grading))
    made = itertools.count()
    table, leads, excess = [], [], []  # entries, their lead tuples, their excess
    pending = []  # heap of (rank, i, j, lcm of the leads), i < j
    processed = set()  # each pair taken from the heap, both ways round

    def add(lead, tail, top):
        t = len(table)
        table.append((lead, tail))
        leads.append(lead)
        excess.append(top - degree(lead))
        for k in range(t):
            l = tuple(map(max, leads[k], lead))
            rank = next(made) if strategy == "fifo" else (degree(l), key(l))
            heapq.heappush(pending, (rank, k, t, l))

    for g in gens:
        if g.ctx != ctx:
            raise ContextMismatchError("generator over a different ring context")
        if g.terms:
            add(*_entry(g, order), max(degree(m.exps) for m, _ in g.terms))
    if not table:
        return GroebnerBasis((), order, ctx)

    while pending:
        _, i, j, l = heapq.heappop(pending)
        processed.update(((i, j), (j, i)))
        if not any(map(mul, leads[i], leads[j])):
            continue
        if any(  # chain criterion; (i, k) and (j, k) processed implies k is neither i nor j
            (i, k) in processed and (j, k) in processed and all(map(le, lk, l))
            for k, lk in enumerate(leads)
        ):
            continue
        d = degree(l)
        if d > degree_cap:
            raise DegreeCapExceeded(f"S-pair lcm degree {d} exceeds cap {degree_cap}")
        live = _s_pair(table[i], table[j], l, key)
        if d + max(excess[i], excess[j]) >= MAX_EXPONENT:
            _polynomial(ctx, order, live.values())  # raises where a Monomial would
        r = _divide(live, table, key)
        if not r:
            continue
        d = max(degree(e) for e, _ in r)
        if d >= MAX_EXPONENT:
            _polynomial(ctx, order, r)  # likewise
        if d > degree_cap:
            raise DegreeCapExceeded(f"new basis element degree {d} exceeds cap {degree_cap}")
        (lead, lc), tail = r[0], r[1:]
        add(lead, tail if lc == one else [(e, c / lc) for e, c in tail], d)

    # inter-reduction: the minimal leads in ascending order, each tail reduced
    # by the others; a lead is never divisible by another minimal lead
    minimal = []
    for entry in sorted(table, key=lambda entry: key(entry[0])):
        if not any(all(map(le, h[0], entry[0])) for h in minimal):
            minimal.append(entry)
    polys = []
    for idx, (lead, tail) in enumerate(minimal):
        live = {key(e): (e, c) for e, c in tail}
        r = _divide(live, minimal[:idx] + minimal[idx + 1 :], key)
        polys.append(_polynomial(ctx, order, [(lead, one)] + r))
    return GroebnerBasis(tuple(reversed(polys)), order, ctx)


def initial_ideal(B: GroebnerBasis) -> MonomialIdeal:
    """The initial ideal of B, built on first use and kept with the basis."""
    if "_initial" not in B.__dict__:
        B.__dict__["_initial"] = MonomialIdeal.from_monomials(B.ctx, B.leading_monomials())
    return B._initial
