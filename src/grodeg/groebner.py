"""Buchberger completion, reduced bases and initial ideals.

Division is deterministic: the reducer is always the first divisor in basis
list order. It runs on exponent tuples: the live terms sit in a dict keyed
by the order's compiled key, each step removes the largest and adds the
shifted divisor tail, and only the remainder is built as a ``Polynomial``.
Buchberger applies the coprime-lead and chain criteria and supports two
pair-selection strategies, ``normal`` (smallest lcm degree first) and
``fifo``; each pair is ranked once, when it is made, and both produce the
same reduced basis, which is the canonical object everything downstream
consumes. A degree cap (``DEFAULT_DEGREE_CAP`` unless given) aborts runaway
completions with ``DegreeCapExceeded``.
"""

from __future__ import annotations

import heapq
import itertools
from operator import add, le, sub
from typing import Optional, Tuple

from .errors import ContextMismatchError, DegreeCapExceeded
from .records import Record
from .ring import Monomial, MonomialOrder, Polynomial, RingContext

DEFAULT_DEGREE_CAP = 40


def _split_lead(g: Polynomial, order: MonomialOrder):
    """``((lead monomial, lead coefficient), other terms)`` of nonzero g under order."""
    terms = g.terms
    k = 0
    if g.order is not order and g.order != order:
        key = order.exps_key
        k = max(range(len(terms)), key=lambda t: key(terms[t][0].exps))
    return terms[k], terms[:k] + terms[k + 1 :]


def normal_form(f: Polynomial, basis, order: Optional[MonomialOrder] = None) -> Polynomial:
    """Remainder of f under multivariate division by the listed polynomials.

    The live terms sit in a dict keyed by their order key, so each step takes
    the largest key and adds the shifted divisor tail term by term; only the
    remainder becomes a ``Polynomial``.
    """
    order = order or f.order
    key = order.exps_key
    ctx = f.ctx
    reducers = []
    for g in basis:
        if g.ctx is not ctx and g.ctx != ctx:
            raise ContextMismatchError("divisor over a different ring context")
        if g.terms:
            (lm, lc), tail = _split_lead(g, order)
            reducers.append((lm.exps, lc, tail))
    live = {key(m.exps): (m.exps, c) for m, c in f.terms}
    remainder = []
    while live:
        e, c = live.pop(max(live))
        for ge, gc, tail in reducers:
            if all(map(le, ge, e)):
                q = tuple(map(sub, e, ge))
                s = -c / gc
                for m, tc in tail:
                    te = tuple(map(add, m.exps, q))
                    k = key(te)
                    old = live.get(k)
                    v = s * tc if old is None else old[1] + s * tc
                    if v:
                        live[k] = (te, v)
                    else:
                        del live[k]
                break
        else:
            remainder.append((Monomial(e), c))
    return Polynomial._make(ctx, order, remainder)


def s_polynomial(f: Polynomial, g: Polynomial) -> Polynomial:
    """S-polynomial with monic normalization of both inputs."""
    if f.ctx != g.ctx:
        raise ContextMismatchError("S-polynomial of polynomials over different contexts")
    order = f.order
    one = f.ctx.field.one
    (lf, cf), tf = _split_lead(f, order)
    (lg, cg), tg = _split_lead(g, order)
    l = tuple(map(max, lf.exps, lg.exps))
    acc = {}
    # the monic leads cancel; the tails are shifted up to the lcm and subtracted
    for lead, c0, tail in ((lf, one / cf, tf), (lg, -one / cg, tg)):
        q = tuple(map(sub, l, lead.exps))
        for m, c in tail:
            e = tuple(map(add, m.exps, q))
            acc[e] = acc[e] + c * c0 if e in acc else c * c0
    key = order.exps_key
    kept = sorted(((e, c) for e, c in acc.items() if c), key=lambda ec: key(ec[0]), reverse=True)
    return Polynomial._make(f.ctx, order, [(Monomial(e), c) for e, c in kept])


class GroebnerBasis(Record):
    """Reduced, monic basis sorted by decreasing leading monomial."""

    def __init__(self, polys: Tuple[Polynomial, ...], order: MonomialOrder, ctx: RingContext):
        self.__dict__.update(polys=polys, order=order, ctx=ctx)

    def leading_monomials(self) -> Tuple[Monomial, ...]:
        return tuple(g.leading_monomial() for g in self.polys)

    def is_zero_ideal(self) -> bool:
        return not self.polys

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

    def same_monomials(self, other: "MonomialIdeal") -> bool:
        return tuple(g.exps for g in self.gens) == tuple(g.exps for g in other.gens)


def _pair_key(a: int, b: int):
    return (a, b) if a < b else (b, a)


def buchberger(gens, order: MonomialOrder, *, degree_cap: int = DEFAULT_DEGREE_CAP, strategy: str = "normal") -> GroebnerBasis:
    """Complete the generators to the reduced Groebner basis under order.

    Each pair is ranked once, when it is made, and waits in a heap: ``normal``
    ranks by (lcm degree, lcm key), ``fifo`` by creation; ties go by index.
    """
    if strategy not in ("normal", "fifo"):
        raise ValueError(f"unknown strategy {strategy!r}")
    ctx = order.ctx
    grading = ctx.grading
    key = order.sort_key
    made = itertools.count()
    basis, leads = [], []
    pending = []  # heap of (rank, i, j, lcm of the leads), i < j
    processed = set()

    def add(g):
        t = len(basis)
        lt = g.leading_monomial()
        basis.append(g)
        leads.append(lt)
        for k in range(t):
            l = leads[k].lcm(lt)
            rank = next(made) if strategy == "fifo" else (l.graded_degree(grading), key(l))
            heapq.heappush(pending, (rank, k, t, l))

    for g in gens:
        if g.ctx != ctx:
            raise ContextMismatchError("generator over a different ring context")
        if not g.is_zero():
            add(g.with_order(order).monic())
    if not basis:
        return GroebnerBasis((), order, ctx)

    while pending:
        _, i, j, l = heapq.heappop(pending)
        processed.add((i, j))
        if leads[i].gcd_is_one(leads[j]):
            continue
        if any(
            k != i and k != j
            and leads[k].divides(l)
            and _pair_key(i, k) in processed
            and _pair_key(j, k) in processed
            for k in range(len(basis))
        ):
            continue
        if l.graded_degree(grading) > degree_cap:
            raise DegreeCapExceeded(
                f"S-pair lcm degree {l.graded_degree(grading)} exceeds cap {degree_cap}"
            )
        r = normal_form(s_polynomial(basis[i], basis[j]), basis, order)
        if r.is_zero():
            continue
        if r.graded_degree() > degree_cap:
            raise DegreeCapExceeded(
                f"new basis element degree {r.graded_degree()} exceeds cap {degree_cap}"
            )
        add(r.monic())

    return GroebnerBasis(_reduce_basis(basis, order), order, ctx)


def _reduce_basis(basis, order: MonomialOrder) -> Tuple[Polynomial, ...]:
    ascending = sorted(basis, key=lambda g: order.sort_key(g.leading_monomial()))
    minimal = []
    for g in ascending:
        lm = g.leading_monomial()
        if not any(h.leading_monomial().divides(lm) for h in minimal):
            minimal.append(g)
    reduced = []
    for idx, g in enumerate(minimal):
        others = minimal[:idx] + minimal[idx + 1 :]
        reduced.append(normal_form(g, others, order).monic())
    reduced.sort(key=lambda g: order.sort_key(g.leading_monomial()), reverse=True)
    return tuple(reduced)


def initial_ideal(B: GroebnerBasis) -> MonomialIdeal:
    return MonomialIdeal.from_monomials(B.ctx, B.leading_monomials())
