"""Buchberger completion, reduced bases, initial ideals, and related tests.

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
from dataclasses import dataclass
from operator import add, le, sub
from typing import Optional, Tuple

from .errors import ContextMismatchError, DegreeCapExceeded
from .fields import QQ, PrimeField
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


@dataclass(frozen=True)
class GroebnerBasis:
    """Reduced, monic basis sorted by decreasing leading monomial."""

    polys: Tuple[Polynomial, ...]
    order: MonomialOrder
    ctx: RingContext

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


@dataclass(frozen=True)
class MonomialIdeal:
    """Minimal monomial generators, canonically sorted by (degree, exponents)."""

    ctx: RingContext
    gens: Tuple[Monomial, ...]

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


def ideal_membership(f: Polynomial, B: GroebnerBasis) -> bool:
    return B.normal_form(f).is_zero()


def _elimination_order(ext_ctx: RingContext) -> MonomialOrder:
    """Matrix order: tag variable (column 0) first, graded revlex on the rest."""
    n = ext_ctx.n - 1
    rows = [tuple(1 if c == 0 else 0 for c in range(n + 1))]
    rows.append((0,) + ext_ctx.grading[1:])
    for col in range(n, 1, -1):
        rows.append(tuple(-1 if c == col else 0 for c in range(n + 1)))
    return MonomialOrder.matrix(ext_ctx, rows)


def _fresh_tag_name(names) -> str:
    tag = "t"
    while tag in names:
        tag = "_" + tag
    return tag


def is_variable_regular(B: GroebnerBasis, i: int, *, degree_cap: int = DEFAULT_DEGREE_CAP) -> bool:
    """Whether x_i is a nonzerodivisor on the quotient ring, via (I : x_i) = I.

    The quotient ideal is computed with a tag variable t: the t-free part of
    a Groebner basis of t*I + (1-t)*(x_i) under an elimination order
    generates I intersect (x_i); dividing by x_i gives (I : x_i).
    """
    ctx = B.ctx
    if not B.is_proper():
        raise ValueError("basis generates the unit ideal")
    if not 0 <= i < ctx.n:
        raise ValueError(f"variable index {i} out of range")
    xi = Polynomial.variable(ctx, B.order, i)
    if ideal_membership(xi, B):
        return False

    tag = _fresh_tag_name(ctx.names)
    ext_ctx = RingContext((tag,) + ctx.names, (1,) + ctx.grading, ctx.field)
    ext_order = _elimination_order(ext_ctx)

    def lift(g: Polynomial, tag_exp: int) -> Polynomial:
        return Polynomial(
            ext_ctx, ext_order, [(Monomial((tag_exp,) + m.exps), c) for m, c in g.terms]
        )

    t = Polynomial.variable(ext_ctx, ext_order, 0)
    one_minus_t = Polynomial.constant(ext_ctx, ext_order, 1) - t
    j_gens = [lift(g, 1) for g in B.polys]
    j_gens.append(one_minus_t * lift(xi, 0))
    basis_j = buchberger(j_gens, ext_order, degree_cap=degree_cap)

    quotient = []
    for g in basis_j.polys:
        if any(m.exps[0] != 0 for m in g.support_monomials()):
            continue
        terms = []
        for m, c in g.terms:
            exps = m.exps[1:]
            if exps[i] == 0:
                raise RuntimeError("eliminated generator not divisible by the variable")
            lowered = list(exps)
            lowered[i] -= 1
            terms.append((Monomial(tuple(lowered)), c))
        quotient.append(Polynomial(ctx, B.order, terms))
    return all(ideal_membership(q, B) for q in quotient)


def cone_point_certificate(B: GroebnerBasis, i: int) -> bool:
    """With a square-free initial ideal: x_i divides no minimal generator."""
    M = initial_ideal(B)
    if not M.is_squarefree():
        raise ValueError("cone point certificate needs a square-free initial ideal")
    if not 0 <= i < B.ctx.n:
        raise ValueError(f"variable index {i} out of range")
    return all(g.exps[i] == 0 for g in M.gens)


@dataclass(frozen=True)
class ModPReduction:
    prime: int
    generators: Tuple[Polynomial, ...]
    basis_mod_p: GroebnerBasis
    initial_ideal_stable: bool


def reduce_mod_p(B: GroebnerBasis, p: int, *, degree_cap: int = DEFAULT_DEGREE_CAP) -> ModPReduction:
    """Reduce rational generators mod p after clearing each to primitive integer form.

    A denominator divisible by p is a bad-prime error. The result also says
    whether the reduced basis mod p has the same initial monomials as the one
    over the rationals.
    """
    if B.ctx.field != QQ:
        raise ValueError("reduce_mod_p expects a basis over QQ")
    gf = PrimeField(p)
    gf_ctx = RingContext(B.ctx.names, B.ctx.grading, gf)
    gf_order = MonomialOrder(B.order.kind, gf_ctx, B.order.perm, B.order.rows)

    images = []
    for g in B.polys:
        images.append(Polynomial(gf_ctx, gf_order, [(Monomial(e), c) for e, c in g.integer_terms(p)]))

    basis_p = buchberger(images, gf_order, degree_cap=degree_cap)
    stable = initial_ideal(B).same_monomials(initial_ideal(basis_p))
    return ModPReduction(p, tuple(images), basis_p, stable)
