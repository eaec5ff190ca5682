"""Experiment pipelines built on the core layers.

Four entry points:

* ``analyze``: one ideal, one order -> full degeneration report (basis,
  initial ideal, complex invariants, obstruction certificates, conjecture
  verdicts).
* ``scan_orders``: the same ideal over every permutation order of a family,
  deduplicated by initial ideal.
* ``lift_search``: enumerate or sample homogeneous lifts of a non-face ideal
  and test each valid one for singularities at the coordinate points.
* ``count_points``: exact point counts of a plane curve over GF(p), with the
  trace and supersingularity flags when the curve is a smooth cubic.

The coordinate-point Jacobians of ``analyze`` and ``lift_search`` come from
one pass over each generator's terms that fills all n points at once
(``_coordinate_points``). Any other point goes to the one evaluator of
``singularity``, which serves ``jacobian_rank_at`` (the reference the tests
hold that pass to) and the singular points of ``count_points``.

Everything is deterministic: sampling is seeded, parallel runs pre-generate
their work lists so worker count never changes the answer.
"""

from __future__ import annotations

import hashlib
import itertools
import random
from dataclasses import dataclass
from functools import cached_property, partial
from typing import Dict, List, Optional, Tuple

from .complexes import (
    ComplexPropertyReport,
    SimplicialComplex,
    complex_from_squarefree_ideal,
    property_report,
    to_ideal,
)
from .errors import ScanBoundExceeded
from .fields import Field, PrimeField, QQ, is_prime
from .groebner import DEFAULT_DEGREE_CAP, GroebnerBasis, MonomialIdeal, buchberger, initial_ideal
from .groebner import normal_form, s_polynomial
from .linalg import rank_int, rank_mod_p
from .ring import Monomial, MonomialOrder, Polynomial, RingContext
from .singularity import (
    JacobianAnalysis,
    ObstructionVerdict,
    ProjPoint,
    SupportViolation,
    _checked_generators,
    _classified,
    _dim1_setting,
    _excluded_tails,
    _exclusion_table,
    _jacobian_at,
    ci_obstruction,
    leafless_obstruction,
    lex_obstruction,
)

SCAN_VARIABLE_BOUND = 8
DEFAULT_BUDGET = 200
DEFAULT_POOL_QQ = (-2, -1, 1, 2)


def ideal_digest(ctx: RingContext, gens) -> str:
    """Order-independent sha256 of ring plus generators.

    Terms are re-sorted by raw exponent vector so the digest identifies the
    ideal presentation regardless of which monomial order the polynomials
    happen to carry.
    """
    entries = []
    for g in gens:
        terms = sorted((m.exps, ctx.field.render_scalar(c)) for m, c in g.terms)
        entries.append(repr(terms))
    entries.sort()
    blob = ctx.render() + "||" + "|".join(entries)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _unit_points(ctx: RingContext) -> Tuple[ProjPoint, ...]:
    """The coordinate points e_1, ..., e_n of the ring's projective space."""
    return tuple(ProjPoint.coordinate(ctx.field, ctx.n, i) for i in range(ctx.n))


def _coordinate_points(gens, units, codim: int) -> Tuple[JacobianAnalysis, ...]:
    """Jacobian verdicts at every coordinate point (``units``, from
    ``_unit_points``) against ``codim``, all from one pass over each generator's terms.

    The generators have positive degree in the standard grading. At e_i a term
    c*x^e of degree d is nonzero only when x^e = x_i^d, and its partials are
    nonzero only when x^e = x_i^d (d*c in column i) or x^e = x_i^(d-1)*x_j (c in
    column j). A linear term c*x_j is both at every point: it puts c in column j
    of every row. Each generator is checked once and its coefficients read as
    integers (``Polynomial.integer_terms``); each point's matrix goes to
    ``rank_int``/``rank_mod_p``. The result is ``jacobian_rank_at`` at each e_i.
    """
    gens, ctx = _checked_generators(gens)
    n, p = ctx.n, ctx.field.characteristic()
    off = [False] * n  # off[i]: some generator does not vanish at e_i
    per_gen = []  # per generator, its Jacobian row at each point
    for g in gens:
        rows = [{} for _ in range(n)]
        terms = g.integer_terms()
        d = sum(terms[0][0]) if terms else 0
        for e, c in terms:
            if max(e) < d - 1:  # nonzero at no e_i, with all its partials
                continue
            if d == 1:
                j = e.index(1)
                off[j] = True
                for row in rows:
                    row[j] = c
            elif d in e:  # a nonzero value at e_i
                i = e.index(d)
                off[i] = True
                rows[i][i] = d * c
            else:
                i = e.index(d - 1)
                j = e.index(1, i + 1) if d == 2 else e.index(1)
                rows[i][j] = c
                if d == 2:  # x_i*x_j is also x_j^(d-1)*x_i
                    rows[j][i] = c
        per_gen.append(rows)
    return tuple(
        _classified(point, not off[i], rank_mod_p(m, p) if p else rank_int(m), codim)
        for i, (point, m) in enumerate(zip(units, zip(*per_gen)))
    )


def _conjecture_summary(props: ComplexPropertyReport, points) -> dict:
    """Three-valued verdicts for the Cohen-Macaulay conjectures.

    ``consistent`` means the conclusion holds, or some hypothesis is provably
    false (a coordinate point of the scheme is singular, or the complex fails
    strong connectedness / Buchsbaumness, which smooth equidimensional
    degenerations cannot do). ``violation_candidate`` means the conclusion
    fails, nothing refutes the hypotheses, and at least one coordinate point
    lies on the scheme to witness the probe; ``hypothesis_unverified`` means
    the conclusion fails but no coordinate point even lies on the scheme, so
    the probe says nothing.
    """
    refuted = []
    if not props.strongly_connected:
        refuted.append("not_strongly_connected")
    if not props.buchsbaum:
        refuted.append("not_buchsbaum")
    for a in points:
        if a.verdict == "singular":
            refuted.append(f"singular_coordinate_point {a.point.render()}")
    probe = any(a.on_scheme for a in points)

    def verdict(conclusion: bool) -> str:
        if conclusion or refuted:
            return "consistent"
        return "violation_candidate" if probe else "hypothesis_unverified"

    cm = props.cohen_macaulay
    return {
        "cm": verdict(cm),
        "cm_negative_a": verdict(cm and props.negative_a_invariant_given_cm),
        "cm_acyclic": verdict(cm and props.acyclic),
        "hypothesis_refuted_by": refuted,
    }


@dataclass(frozen=True)
class DegenerationReport:
    """Everything ``analyze`` learns about one (ideal, order) pair.

    The combinatorial fields are ``None`` when the initial ideal is not
    square-free (or the ideal is the unit ideal): there is no complex to
    analyze, so downstream fields are simply absent from ``as_dict``.
    """

    digest: str
    order: MonomialOrder
    generators: Tuple[Polynomial, ...]
    basis: GroebnerBasis
    initial: MonomialIdeal
    squarefree: bool
    delta: Optional[SimplicialComplex]
    properties: Optional[ComplexPropertyReport]
    coordinate_points: Tuple[JacobianAnalysis, ...]
    obstructions: Tuple[ObstructionVerdict, ...]
    conjectures: Optional[Dict[str, object]]
    producing_orders: Tuple[str, ...]

    @property
    def ctx(self) -> RingContext:
        return self.basis.ctx

    def necessary_conditions(self) -> Optional[dict]:
        """The combinatorial conditions a Groebner smoothing forces."""
        if self.properties is None:
            return None
        return {
            "strongly_connected": self.properties.strongly_connected,
            "normal": self.properties.normal,
            "buchsbaum": self.properties.buchsbaum,
        }

    def as_dict(self) -> dict:
        ctx = self.ctx
        out = {
            "ideal_digest": self.digest,
            "ring": ctx.render(),
            "order": self.order.render(),
            "generators": [g.render() for g in self.generators],
            "reduced_groebner_basis": list(self.basis.render_polys()),
            "initial_ideal": list(self.initial.render_gens()),
            "squarefree": self.squarefree,
            "producing_orders": list(self.producing_orders),
        }
        if not self.squarefree:
            return out
        out["facets"] = self.delta.render()
        out["complex"] = self.properties.as_dict()
        out["cohomology"] = self.properties.cohomology.as_dict()
        out["necessary_conditions"] = self.necessary_conditions()
        out["coordinate_points"] = [a.as_dict() for a in self.coordinate_points]
        out["obstructions"] = [o.as_dict() for o in self.obstructions]
        out["conjectures"] = self.conjectures
        return out


def _check_homogeneous(gens, order: MonomialOrder):
    for g in gens:
        homogeneous, _ = g.is_homogeneous()
        if not homogeneous:
            raise ValueError(f"inhomogeneous generator: {g.with_order(order).render()}")


def analyze(gens, order: MonomialOrder, *, degree_cap: int = DEFAULT_DEGREE_CAP) -> DegenerationReport:
    """Degenerate a homogeneous ideal along one order and report everything."""
    _check_homogeneous(gens, order)
    B = buchberger(gens, order, degree_cap=degree_cap)
    return _degeneration_report(gens, order, B, (order.render(),))


def _degeneration_report(gens, order: MonomialOrder, B: GroebnerBasis, producing_orders) -> DegenerationReport:
    """The report of homogeneous ``gens`` whose reduced basis under ``order`` is ``B``."""
    ctx = order.ctx
    polys = tuple(g.with_order(order) for g in gens)
    digest = ideal_digest(ctx, polys)
    M = initial_ideal(B)
    squarefree = B.is_proper() and M.is_squarefree()
    if not squarefree:
        return DegenerationReport(
            digest, order, polys, B, M, False,
            None, None, (), (), None, producing_orders,
        )

    if all(M.contains(Monomial.variable(i, ctx.n)) for i in range(ctx.n)):
        raise ValueError("initial ideal contains every variable: the projective scheme is empty")
    delta = complex_from_squarefree_ideal(M)
    props = property_report(delta, ctx.field)

    standard = all(g == 1 for g in ctx.grading)
    points: Tuple[JacobianAnalysis, ...] = ()
    obstructions: List[ObstructionVerdict] = []
    if standard and B.polys:
        points = _coordinate_points(B, _unit_points(ctx), (ctx.n - 1) - delta.dim)
        obstructions.append(ci_obstruction(B))
        if _dim1_setting(delta):
            obstructions.append(leafless_obstruction(B, delta))
    obstructions.append(lex_obstruction(delta))
    conjectures = _conjecture_summary(props, points)

    return DegenerationReport(
        digest, order, polys, B, M, True,
        delta, props, points, tuple(obstructions), conjectures, producing_orders,
    )


def _ordered_map(fn, items, workers: int) -> list:
    """``[fn(x) for x in items]``, spread over worker processes when workers > 1.

    Results come back in item order, and the pool uses the platform's default
    start method, so neither the worker count nor the start method can change
    an answer.
    """
    if workers <= 1 or not items:
        return [fn(x) for x in items]
    from concurrent.futures import ProcessPoolExecutor  # only pools pay for the import

    chunk = max(1, len(items) // (workers * 8))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items, chunksize=chunk))


_FAMILIES = {
    "lex": ("lex",),
    "degrevlex": ("degrevlex",),
    "both": ("lex", "degrevlex"),
}


def _keeps_marking(B: GroebnerBasis, order: MonomialOrder) -> bool:
    """Whether every element of ``B`` still has its marked leading monomial under ``order``."""
    key = order.exps_key
    for g in B.polys:
        lead = key(g.terms[0][0].exps)
        if any(key(m.exps) > lead for m, _ in g.terms[1:]):
            return False
    return True


def _scan_slice(gens, degree_cap, orders):
    """The reduced bases of ``gens`` under ``orders``, each distinct one completed once.

    Returns the bases completed, in order of completion, and for each order
    the index of its basis among them. Bases are tried most recently hit
    first; a basis that keeps its marking under an order is that order's
    reduced basis (see ``scan_orders``), so only the misses are completed.
    """
    bases: List[GroebnerBasis] = []
    recent: List[int] = []
    which = []
    for order in orders:
        k = next((k for k in recent if _keeps_marking(bases[k], order)), None)
        if k is None:
            k = len(bases)
            bases.append(buchberger(gens, order, degree_cap=degree_cap))
        else:
            recent.remove(k)
        recent.insert(0, k)
        which.append(k)
    return bases, which


def scan_orders(
    gens,
    *,
    family: str = "both",
    workers: int = 1,
    degree_cap: int = DEFAULT_DEGREE_CAP,
) -> List[DegenerationReport]:
    """Walk every permutation order of the family, dedupe by initial ideal.

    Each distinct initial ideal yields one full report whose
    ``producing_orders`` lists every order that realized it, in scan order.
    The scan refuses to run past ``SCAN_VARIABLE_BOUND`` variables (factorial blowup).

    A reduced basis G is kept once found. If every g in G keeps its leading
    monomial under a new order C, marked division by G sends every element of
    the ideal to 0 whichever order drives it, so G is the reduced basis under
    C as well and in_C(I) = in(G): nothing is completed. Conversely the reduced
    basis is fixed by the initial ideal (its tails are standard monomials), so
    an order with an initial ideal already seen always finds its basis kept.
    The scan therefore completes once per distinct initial ideal, or once per
    ideal and worker when ``workers`` > 1 (each worker scans one contiguous
    slice of the orders), and ``degree_cap`` bounds only those completions.
    Each report is built from the basis of the first order that produced it.
    """
    gens = list(gens)
    if not gens:
        raise ValueError("order scan needs at least one generator")
    ctx = gens[0].ctx
    if ctx.n > SCAN_VARIABLE_BOUND:
        raise ScanBoundExceeded(
            f"scanning {ctx.n} variables means {ctx.n}! permutations; the bound is {SCAN_VARIABLE_BOUND}"
        )
    kinds = _FAMILIES.get(family)
    if kinds is None:
        raise ValueError(f"unknown order family {family!r} (want lex, degrevlex, or both)")

    orders = [
        MonomialOrder(kind, ctx, perm=perm)
        for kind in kinds
        for perm in itertools.permutations(range(ctx.n))
    ]
    _check_homogeneous(gens, orders[0])
    size = -(-len(orders) // max(1, workers))
    slices = [orders[i : i + size] for i in range(0, len(orders), size)]
    scanned = _ordered_map(partial(_scan_slice, gens, degree_cap), slices, workers)

    # initial ideal -> (its first order, the basis that order completed, producing orders)
    groups: Dict[tuple, Tuple[MonomialOrder, GroebnerBasis, List[str]]] = {}
    for chunk, (bases, which) in zip(slices, scanned):
        keys = [tuple(m.exps for m in initial_ideal(B).gens) for B in bases]
        for order, k in zip(chunk, which):
            groups.setdefault(keys[k], (order, bases[k], []))[2].append(order.render())
    return [
        _degeneration_report(gens, order, B, tuple(producers))
        for order, B, producers in groups.values()
    ]


def _monomials_of_degree(n: int, d: int):
    for combo in itertools.combinations_with_replacement(range(n), d):
        exps = [0] * n
        for i in combo:
            exps[i] += 1
        yield Monomial(tuple(exps))


def _build_lift(order, targets, slots, coeffs, assignment):
    """The candidate's polynomials: each target with coefficient 1, then its nonzero tails.

    ``slots`` lists each target's tails in decreasing order, all below it, and
    ``coeffs`` are field elements, so the terms are already in canonical form.
    """
    one = order.ctx.field.one
    terms = [[(t, one)] for t in targets]
    for (ti, m), choice in zip(slots, assignment):
        c = coeffs[choice]
        if c:
            terms[ti].append((m, c))
    return [Polynomial._make(order.ctx, order, ts) for ts in terms]


def _valid_lift(order, targets, slots, coeffs, assignment) -> Optional[List[Polynomial]]:
    """The candidate's polynomials when it is a valid lift, else None."""
    # Buchberger's criterion decides validity exactly because the candidates are
    # reduced by construction: monic, the minimal non-faces as leads, tails outside
    # the non-face ideal. Homogeneous division never raises the degree: no cap needed.
    polys = _build_lift(order, targets, slots, coeffs, assignment)
    valid = all(
        f.leading_monomial().gcd_is_one(g.leading_monomial())
        or normal_form(s_polynomial(f, g), polys, order).is_zero()
        for f, g in itertools.combinations(polys, 2)
    )
    return polys if valid else None


@dataclass(frozen=True)
class ValidLift:
    """One lift whose reduced basis is exactly the candidate set."""

    polys: Tuple[Polynomial, ...]
    coordinate_points: Tuple[JacobianAnalysis, ...]
    support_violations: Tuple[SupportViolation, ...]

    def singular_at_every_scheme_point(self) -> bool:
        on = [a for a in self.coordinate_points if a.on_scheme]
        return bool(on) and all(a.verdict == "singular" for a in on)

    def as_dict(self, points=None) -> dict:
        """``points``, when given, are the coordinate-point entries already rendered."""
        if points is None:
            points = [a.as_dict() for a in self.coordinate_points]
        return {
            "generators": [g.render() for g in self.polys],
            "coordinate_points": points,
            "singular_at_every_scheme_point": self.singular_at_every_scheme_point(),
            "support_violations": [v.as_dict() for v in self.support_violations],
        }


@dataclass
class _LiftCheck:
    """One search's ``assignment -> ValidLift or None`` (None when not valid).

    ``codim`` is the expected codimension. The coordinate points and the
    support-exclusion table serve valid lifts only, so each is built at the
    first valid lift, and never in a search where no candidate is valid. Each
    chunk of work sent to a ``--jobs`` worker carries its own pickled copy,
    which builds them for itself.
    """

    order: MonomialOrder
    delta: SimplicialComplex
    targets: List[Monomial]
    slots: list
    coeffs: list
    codim: int

    @cached_property
    def units(self) -> Tuple[ProjPoint, ...]:
        return _unit_points(self.order.ctx)

    @cached_property
    def table(self):
        """The support-exclusion table, or None outside the one-dimensional setting."""
        if _dim1_setting(self.delta):
            return _exclusion_table(self.order, self.delta, self.targets)
        return None

    def __call__(self, assignment) -> Optional[ValidLift]:
        order = self.order
        polys = _valid_lift(order, self.targets, self.slots, self.coeffs, assignment)
        if polys is None:
            return None
        if not polys:
            return ValidLift((), (), ())
        violations: Tuple[SupportViolation, ...] = ()
        if self.table is not None:
            # valid: the monic candidates, by decreasing lead, are the reduced basis
            basis = sorted(polys, key=lambda g: order.sort_key(g.leading_monomial()), reverse=True)
            violations = tuple(_excluded_tails(basis, self.table))
        return ValidLift(tuple(polys), _coordinate_points(polys, self.units, self.codim), violations)


@dataclass(frozen=True)
class LiftSearchResult:
    delta: SimplicialComplex
    order: MonomialOrder
    pool: Tuple
    budget: int
    seed: int
    exhaustive: bool
    space: int
    tried: int
    targets: Tuple[Monomial, ...]
    empty_tail_targets: Tuple[Monomial, ...]
    lifts: Tuple[ValidLift, ...]

    def top_variable(self) -> int:
        return self.order.greatest_variable()

    def lifts_singular_at_top_point(self) -> int:
        top = self.top_variable()
        return sum(
            1
            for lift in self.lifts
            if lift.coordinate_points and lift.coordinate_points[top].verdict == "singular"
        )

    def as_dict(self) -> dict:
        """The report; each distinct coordinate-point entry is one shared dict.

        A lift's i-th coordinate point is e_i, so an entry is fixed by i and the
        verdict's values, and the entries hardly vary within one search.
        """
        ctx = self.order.ctx
        field = ctx.field
        top = self.top_variable()
        entries = {}

        def entry(i, a: JacobianAnalysis) -> dict:
            key = (i, a.on_scheme, a.rank, a.expected_codim, a.verdict)
            d = entries.get(key)
            if d is None:
                d = entries[key] = a.as_dict()
            return d

        return {
            "facets": self.delta.render(),
            "ring": ctx.render(),
            "order": self.order.render(),
            "pool": [field.render_scalar(c) for c in self.pool],
            "budget": self.budget,
            "seed": self.seed,
            "exhaustive": self.exhaustive,
            "candidate_space": self.space,
            "candidates_tried": self.tried,
            "targets": [ctx.render_monomial(m) for m in self.targets],
            "empty_tail_targets": [ctx.render_monomial(m) for m in self.empty_tail_targets],
            "top_variable": ctx.names[top],
            "valid_lift_count": len(self.lifts),
            "lifts_singular_at_top_point": self.lifts_singular_at_top_point(),
            "valid_lifts": [
                lift.as_dict([entry(i, a) for i, a in enumerate(lift.coordinate_points)])
                for lift in self.lifts
            ],
        }


def lift_search(
    delta: SimplicialComplex,
    order: MonomialOrder,
    *,
    pool=None,
    budget: int = DEFAULT_BUDGET,
    seed: int = 0,
    workers: int = 1,
) -> LiftSearchResult:
    """Search homogeneous lifts of the non-face ideal of ``delta``.

    Every minimal non-face monomial may pick up tail terms: same degree,
    strictly smaller in the order, outside the non-face ideal. Coefficients
    range over ``pool`` ({-2,-1,1,2} over QQ, the whole field over GF(p); 0
    always means "drop the tail"). The whole space is enumerated when its
    size fits the budget, otherwise ``budget`` seeded-random draws, each distinct
    one checked once. A lift is valid when every S-pair with non-coprime leads
    reduces to zero against it (Buchberger's criterion), so it is already the
    reduced basis. Valid lifts get Jacobian verdicts at all coordinate points,
    plus the tail-support exclusion checks in the one-dimensional setting.
    The coordinate points and the exclusion table are built at the first
    valid lift, once per search (once per chunk of work with ``workers`` > 1);
    each worker returns finished ``ValidLift``s, so the Jacobians and the
    support scan are spread with the validity checks.
    """
    ctx = order.ctx
    if ctx.n != delta.n:
        raise ValueError("complex and ring have different vertex counts")
    if any(g != 1 for g in ctx.grading):
        raise ValueError("lift search requires the standard grading")
    if budget < 1:
        raise ValueError("budget must be >= 1")
    field = ctx.field

    if pool is None:
        p = field.characteristic()
        pool = DEFAULT_POOL_QQ if p == 0 else tuple(range(p))
    coeffs = list(dict.fromkeys(field.of(c) for c in pool))
    if not coeffs:
        raise ValueError("empty coefficient pool")

    M = to_ideal(delta, ctx)
    targets = list(M.gens)
    tails_of: List[List[Monomial]] = []
    for t in targets:
        d = t.degree()
        tails = [
            m
            for m in _monomials_of_degree(ctx.n, d)
            if order.compare(m, t) < 0 and not M.contains(m)
        ]
        tails.sort(key=order.sort_key, reverse=True)
        tails_of.append(tails)
    empty = tuple(t for t, tails in zip(targets, tails_of) if not tails)
    slots = [(ti, m) for ti, tails in enumerate(tails_of) for m in tails]

    space = len(coeffs) ** len(slots)
    exhaustive = space <= budget
    if exhaustive:
        draws = list(itertools.product(range(len(coeffs)), repeat=len(slots)))
    else:
        rng = random.Random(seed)
        draws = [tuple(rng.randrange(len(coeffs)) for _ in slots) for _ in range(budget)]
    assignments = list(dict.fromkeys(draws))

    run = _LiftCheck(order, delta, targets, slots, coeffs, (ctx.n - 1) - delta.dim)
    lifts = [lift for lift in _ordered_map(run, assignments, workers) if lift is not None]

    return LiftSearchResult(
        delta, order, tuple(coeffs), budget, seed, exhaustive, space,
        len(draws), tuple(targets), empty, tuple(lifts),
    )


@dataclass(frozen=True)
class PointCountResult:
    curve: str
    prime: int
    count: int
    trace: int
    smooth: bool
    singular_points: Tuple[str, ...]
    supersingular: Optional[bool]
    hasse_ok: Optional[bool]

    def as_dict(self) -> dict:
        return {
            "curve": self.curve,
            "prime": self.prime,
            "projective_points": self.count,
            "trace": self.trace,
            "smooth": self.smooth,
            "singular_points": list(self.singular_points),
            "supersingular": self.supersingular,
            "hasse_bound_ok": self.hasse_ok,
        }


def count_points(f: Polynomial, p: int) -> PointCountResult:
    """Count projective points of a plane curve over GF(p), exactly.

    Works for any nonzero homogeneous ternary form; the trace ``p + 1 - N``
    is always reported, while the supersingularity and Hasse-bound fields are
    filled only when the reduction is a smooth cubic (the elliptic case).
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    ctx = f.ctx
    if ctx.n != 3:
        raise ValueError("point counting is for plane curves in three variables")
    if any(g != 1 for g in ctx.grading):
        raise ValueError("point counting requires the standard grading")
    homogeneous, degree = f.is_homogeneous()
    if not homogeneous or f.is_zero():
        raise ValueError("point counting needs a nonzero homogeneous form")

    char = ctx.field.characteristic()
    if char not in (0, p):
        raise ValueError(f"curve lives over GF({char}), cannot reduce mod {p}")
    terms = [(e, c % p) for e, c in f.integer_terms(p) if c % p]
    if not terms:
        raise ValueError(f"bad prime {p}: the form vanishes identically mod {p}")

    def value(x, y, z):
        total = 0
        for (a, b, c_), co in terms:
            total += co * pow(x, a, p) * pow(y, b, p) * pow(z, c_, p)
        return total % p

    points = []
    for y in range(p):
        for z in range(p):
            points.append((1, y, z))
    for z in range(p):
        points.append((0, 1, z))
    points.append((0, 0, 1))

    on_curve = [pt for pt in points if value(*pt) == 0]
    # singular: every partial vanishes, a Jacobian of rank 0
    singular = [pt for pt in on_curve if _jacobian_at([terms], pt, p)[1] == 0]
    count = len(on_curve)
    trace = p + 1 - count
    smooth = not singular
    elliptic = smooth and degree == 3
    supersingular = (trace % p == 0) if elliptic else None
    hasse_ok = (trace * trace <= 4 * p) if elliptic else None
    gf = PrimeField(p)
    return PointCountResult(
        f.render(), p, count, trace, smooth,
        tuple(ProjPoint.make(gf, pt).render() for pt in singular), supersingular, hasse_ok,
    )


@dataclass(frozen=True)
class ComplexReport:
    """Standalone combinatorial analysis of one complex over one field."""

    delta: SimplicialComplex
    field: Field
    properties: ComplexPropertyReport
    lex: ObstructionVerdict

    def as_dict(self) -> dict:
        return {
            "facets": self.delta.render(),
            "n": self.delta.n,
            "dim": self.delta.dim,
            "f_vector": list(self.delta.f_vector()),
            "properties": self.properties.as_dict(),
            "cohomology": self.properties.cohomology.as_dict(),
            "lex_obstruction": self.lex.as_dict(),
        }


def analyze_complex(delta: SimplicialComplex, field: Field = QQ) -> ComplexReport:
    return ComplexReport(delta, field, property_report(delta, field), lex_obstruction(delta))
