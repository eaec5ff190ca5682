"""Experiment pipelines built on the core layers.

Four entry points:

* ``analyze``: one ideal, one order -> full degeneration report (basis,
  initial ideal, complex invariants, obstruction certificates, conjecture
  verdicts).
* ``scan_orders``: the same ideal over every permutation order of a family,
  deduplicated by initial ideal.
* ``lift_search``: enumerate or sample homogeneous lifts of a non-face ideal
  and test each valid one for singularities at the coordinate points. The
  lift criterion is solved once per search, as equations in the tail
  coefficients (``_stratum_equations``); each candidate is an evaluation.
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
from functools import cached_property, partial
from operator import add, le, sub
from typing import Dict, List, Optional, Tuple

from .complexes import (
    ComplexPropertyReport,
    SimplicialComplex,
    complex_from_squarefree_ideal,
    property_report,
    to_ideal,
)
from .errors import ResourceLimitError, ScanBoundExceeded
from .fields import Field, PrimeField, QQ, is_prime
from .groebner import DEFAULT_DEGREE_CAP, GroebnerBasis, MonomialIdeal, buchberger, initial_ideal
from .linalg import rank_int, rank_mod_p
from .records import Record
from .ring import Monomial, MonomialOrder, Polynomial, RingContext, render_chain
from .singularity import (
    JacobianAnalysis,
    ObstructionVerdict,
    ProjPoint,
    SupportViolation,
    _classified,
    _dim1_setting,
    _excluded_tails,
    _exclusion_table,
    _jacobian_at,
    _require_homogeneous,
    _require_standard_grading,
    ci_obstruction,
    leafless_obstruction,
    lex_obstruction,
)

SCAN_VARIABLE_BOUND = 8
POINT_COUNT_PRIME_BOUND = 1024  # count_points walks all p^2 + p + 1 points
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

    Precondition, which the callers establish: the generators lie in the ring
    of ``units``, of the standard grading, each homogeneous of positive degree
    (``analyze`` and ``scan_orders`` check their input; a lift candidate is
    built from monomials of one degree). At e_i a term c*x^e of degree d is
    nonzero only when x^e = x_i^d, and its partials only when x^e = x_i^d (d*c
    in column i) or x^e = x_i^(d-1)*x_j (c in column j). A linear term c*x_j
    is both at every point: it puts c in column j of every row. Coefficients
    are read by ``Polynomial.integer_terms``; each point's matrix goes to
    ``rank_int``/``rank_mod_p``. The result is ``jacobian_rank_at`` at each e_i.
    """
    n, p = len(units), units[0].field.characteristic()
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


class DegenerationReport(Record):
    """Everything ``analyze`` learns about one (ideal, order) pair.

    The combinatorial fields are ``None`` when the initial ideal is not
    square-free (or the ideal is the unit ideal): there is no complex to
    analyze, so downstream fields are simply absent from ``as_dict``.
    """

    def __init__(
        self, digest: str, order: MonomialOrder, generators: Tuple[Polynomial, ...],
        basis: GroebnerBasis, initial: MonomialIdeal, squarefree: bool,
        delta: Optional[SimplicialComplex], properties: Optional[ComplexPropertyReport],
        coordinate_points: Tuple[JacobianAnalysis, ...], obstructions: Tuple[ObstructionVerdict, ...],
        conjectures: Optional[Dict[str, object]], producing_orders: Tuple[str, ...],
    ):
        self.__dict__.update(
            digest=digest, order=order, generators=generators, basis=basis, initial=initial,
            squarefree=squarefree, delta=delta, properties=properties,
            coordinate_points=coordinate_points, obstructions=obstructions,
            conjectures=conjectures, producing_orders=producing_orders,
        )

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


def analyze(gens, order: MonomialOrder, *, degree_cap: int = DEFAULT_DEGREE_CAP) -> DegenerationReport:
    """Degenerate a homogeneous ideal along one order and report everything."""
    _require_homogeneous(gens)
    B = buchberger(gens, order, degree_cap=degree_cap)
    return _degeneration_report(gens, B, (order.render(),), ideal_digest(order.ctx, gens))


def _degeneration_report(gens, B: GroebnerBasis, producing_orders, digest: str) -> DegenerationReport:
    """The report of homogeneous ``gens``, of ``ideal_digest`` ``digest``, whose reduced basis is ``B``."""
    order = B.order
    ctx = order.ctx
    polys = tuple(g.with_order(order) for g in gens)
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

    points: Tuple[JacobianAnalysis, ...] = ()
    obstructions: List[ObstructionVerdict] = []
    if ctx.standard and B.polys:
        points = _coordinate_points(B.polys, _unit_points(ctx), (ctx.n - 1) - delta.dim)
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


def _differences(B: GroebnerBasis) -> set:
    """Each lead - tail exponent difference of ``B`` as two bitmasks: the
    variables where the lead is larger, and those where the tail is larger."""
    diffs = set()
    for g in B.polys:
        lead = g.terms[0][0].exps
        for m, _ in g.terms[1:]:
            up = down = 0
            for i, (a, b) in enumerate(zip(lead, m.exps)):
                if a > b:
                    up |= 1 << i
                elif a < b:
                    down |= 1 << i
            diffs.add((up, down))
    return diffs


def _cone(B: GroebnerBasis, kinds) -> List[Tuple[str, tuple]]:
    """Every ``(kind, perm)`` of ``kinds`` under which ``B`` keeps its marking.

    One variable decides each difference (see ``scan_orders``), so
    permutations are walked by prefix, by reversed suffix for degrevlex. A
    subtree is dropped at the first difference decided against ``B`` and
    claimed whole once every difference is decided for it.
    """
    cone = []

    def walk(kind, chosen, free, pending):
        if not pending:
            for rest in itertools.permutations(free):
                perm = chosen + rest
                cone.append((kind, perm if kind == "lex" else perm[::-1]))
            return
        for v in free:
            bit = 1 << v
            if not any(against & bit for _, against in pending):
                left = tuple(u for u in free if u != v)
                walk(kind, chosen + (v,), left, [d for d in pending if not d[0] & bit])

    diffs = _differences(B)
    for kind in kinds:
        pending = diffs if kind == "lex" else {(down, up) for up, down in diffs}
        walk(kind, (), tuple(range(B.ctx.n)), list(pending))
    return cone


def _scan_slice(gens, degree_cap, kinds, orders):
    """The reduced bases of ``gens`` under ``orders``, each distinct one completed once.

    ``orders`` are ``(kind, perm)`` pairs of ``kinds``. Returns the bases
    completed, in order of completion, and for each order the index of its
    basis among them. A completed basis claims its cone (see ``scan_orders``),
    so an order is completed only when no kept basis has claimed it.
    """
    ctx = gens[0].ctx
    bases: List[GroebnerBasis] = []
    owner: Dict[Tuple[str, tuple], int] = {}
    which = []
    for kind, perm in orders:
        k = owner.get((kind, perm))
        if k is None:
            k = len(bases)
            B = buchberger(gens, MonomialOrder(kind, ctx, perm=perm), degree_cap=degree_cap)
            bases.append(B)
            owner.update(dict.fromkeys(_cone(B, kinds), k))
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
    The orders under which G keeps its marking form one cone of the Groebner
    fan, and G claims all of its permutation orders when it is completed.
    Each lead - tail difference of G is decided by one variable: under lex
    the first of the permutation in its support, for the side with the larger
    exponent. Under degrevlex the generators are homogeneous (this is
    checked), so every element of G is homogeneous in the ring's grading,
    lead and tail have the same degree, and the last variable of the
    permutation in the support decides, for the side with the smaller
    exponent. Distinct reduced bases have disjoint cones, so each order has
    one owner and the scan is one lookup per order. It completes at the first
    unclaimed order, once per distinct initial ideal, or once per ideal and
    worker when ``workers`` > 1 (each worker scans one contiguous slice of
    the orders), and ``degree_cap`` bounds only those completions. Each
    report is built from the basis of the first order that produced it.
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
    _require_homogeneous(gens)

    orders = [(kind, perm) for kind in kinds for perm in itertools.permutations(range(ctx.n))]
    size = -(-len(orders) // max(1, workers))
    slices = [orders[i : i + size] for i in range(0, len(orders), size)]
    scanned = _ordered_map(partial(_scan_slice, gens, degree_cap, kinds), slices, workers)

    # initial ideal -> (the basis its first order completed, producing orders)
    groups: Dict[tuple, Tuple[GroebnerBasis, List[str]]] = {}
    for chunk, (bases, which) in zip(slices, scanned):
        keys = [tuple(m.exps for m in initial_ideal(B).gens) for B in bases]
        for (kind, perm), k in zip(chunk, which):
            groups.setdefault(keys[k], (bases[k], []))[1].append(render_chain(kind, ctx.names, perm))
    digest = ideal_digest(ctx, gens)
    return [_degeneration_report(gens, B, tuple(producers), digest) for B, producers in groups.values()]


def _exponents_of_degree(n: int, d: int):
    for combo in itertools.combinations_with_replacement(range(n), d):
        exps = [0] * n
        for i in combo:
            exps[i] += 1
        yield tuple(exps)


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


def _stratum_equations(order, targets, slots) -> tuple:
    """The lift criterion of one search: equations in the tail coefficients a_s.

    Candidate i is t_i plus a_s*m_s over its slots s ``(i, m_s)``: monic, with
    lead t_i. Buchberger's criterion decides validity exactly because the
    candidates are reduced by construction (monic, the minimal non-faces as
    leads, tails outside the non-face ideal), and homogeneous division never
    raises the degree, so no cap is needed. Each S-pair of non-coprime leads is
    divided by the candidates, in target order, with the first-divisor rule of
    ``groebner.normal_form``, once for the whole search. The leads are monic,
    so which candidate takes a term depends on its monomial alone: the division
    is linear, and each term's coefficient is -sum(c_k * a_s) over the terms k
    that were reduced onto it through a tail slot s. Together the remainder
    coefficients cut out the Groebner stratum of the non-face ideal, over QQ
    and over every GF(p); one equation is one remainder term.

    The equations are kept in this factored form, as each S-pair's division
    trace: a tuple of steps ``(((k, s), ...), is_remainder)`` in the order the
    terms are taken. Reduced terms are numbered from 2 in that order; 0 and 1
    stand for the lcm of the pair's leads, with coefficients 1 and -1, taken
    by the pair's two candidates, so the trace divides minus the S-polynomial.
    The trace is as long as one division; expanded into monomials in the a_s,
    the equations of a 6-vertex complex with cubic non-faces reach 600000 terms.
    """
    key = order.exps_key
    reducers = [(t.exps, []) for t in targets]
    for s, (ti, m) in enumerate(slots):
        reducers[ti][1].append((m.exps, s))
    live = {}  # order key -> (exponents, the (term, slot) pairs reduced onto it)

    def take(k, e, lead, tail):
        """Term k, at exponents e, is reduced by the candidate of ``lead``."""
        shift = tuple(map(sub, e, lead))
        for m, s in tail:
            te = tuple(map(add, m, shift))
            live.setdefault(key(te), (te, []))[1].append((k, s))

    programs = []
    for f, g in itertools.combinations(reducers, 2):
        if not any(map(min, f[0], g[0])):
            continue  # coprime leads
        lcm = tuple(map(max, f[0], g[0]))
        take(0, lcm, *f)
        take(1, lcm, *g)
        steps, k = [], 2
        while live:
            e, preds = live.pop(max(live))
            for lead, tail in reducers:
                if all(map(le, lead, e)):
                    take(k, e, lead, tail)
                    k += 1
                    steps.append((tuple(preds), False))
                    break
            else:
                steps.append((tuple(preds), True))
        programs.append(tuple(steps))
    return tuple(programs)


def _valid_lift(equations, values, p, assignment) -> bool:
    """Whether the candidate ``assignment`` is a valid lift: every stratum
    equation (``_stratum_equations``) vanishes at its tail coefficients.

    ``values`` holds the pool as Python numbers: residues over GF(p), integers
    or fractions over QQ, where ``p`` is 0. Each S-pair's trace is replayed on
    them, and the check stops at the first remainder term that is not zero.
    """
    vals = [values[a] for a in assignment]
    for steps in equations:
        coeffs = [1, -1]
        for preds, last in steps:
            c = 0
            for k, s in preds:
                c -= coeffs[k] * vals[s]
            if p:
                c %= p
            if not last:
                coeffs.append(c)
            elif c:
                return False
    return True


class ValidLift(Record):
    """One lift whose reduced basis is exactly the candidate set."""

    def __init__(
        self, polys: Tuple[Polynomial, ...], coordinate_points: Tuple[JacobianAnalysis, ...],
        support_violations: Tuple[SupportViolation, ...],
    ):
        self.__dict__.update(
            polys=polys, coordinate_points=coordinate_points, support_violations=support_violations
        )

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


class _LiftCheck(Record):
    """One search's ``assignment -> ValidLift or None`` (None when not valid).

    ``equations`` are the search's stratum equations (``_stratum_equations``),
    built once by ``lift_search``; each chunk of work sent to a ``--jobs``
    worker carries them in its pickled copy. A candidate is checked by
    evaluating them (``_valid_lift``), and its polynomials are built only when
    it is valid. ``codim`` is the expected codimension. The coordinate points
    and the support-exclusion table serve valid lifts only, so each is built
    at the first valid lift, and never in a search where no candidate is
    valid; a worker's copy builds them for itself.
    """

    __hash__ = None

    def __init__(
        self, order: MonomialOrder, delta: SimplicialComplex, targets: List[Monomial], slots: list,
        coeffs: list, codim: int, equations: tuple,
    ):
        self.__dict__.update(
            order=order, delta=delta, targets=targets, slots=slots, coeffs=coeffs, codim=codim,
            equations=equations,
        )

    @cached_property
    def scalars(self) -> Tuple[int, list]:
        """The characteristic p, and the pool as the numbers ``_valid_lift`` evaluates at."""
        p = self.order.ctx.field.characteristic()
        if p:
            return p, [c.v for c in self.coeffs]
        return 0, [c.numerator if c.denominator == 1 else c for c in self.coeffs]

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
        p, values = self.scalars
        if not _valid_lift(self.equations, values, p, assignment):
            return None
        order = self.order
        polys = _build_lift(order, self.targets, self.slots, self.coeffs, assignment)
        violations: Tuple[SupportViolation, ...] = ()
        if self.table is not None:
            # valid: the monic candidates, by decreasing lead, are the reduced basis
            basis = sorted(polys, key=lambda g: order.sort_key(g.leading_monomial()), reverse=True)
            violations = tuple(_excluded_tails(basis, self.table))
        return ValidLift(tuple(polys), _coordinate_points(polys, self.units, self.codim), violations)


class LiftSearchResult(Record):
    def __init__(
        self, delta: SimplicialComplex, order: MonomialOrder, pool: Tuple, budget: int, seed: int,
        exhaustive: bool, space: int, tried: int, targets: Tuple[Monomial, ...],
        empty_tail_targets: Tuple[Monomial, ...], lifts: Tuple[ValidLift, ...],
    ):
        self.__dict__.update(
            delta=delta, order=order, pool=pool, budget=budget, seed=seed, exhaustive=exhaustive,
            space=space, tried=tried, targets=targets, empty_tail_targets=empty_tail_targets,
            lifts=lifts,
        )

    def top_variable(self) -> int:
        return self.order.variables_descending()[0]

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
    reduced basis. The candidates share their leads and tail monomials, so the
    S-pairs are divided once per search, with the tail coefficients as
    unknowns (``_stratum_equations``), and each candidate is checked by
    evaluating the remainder coefficients at its own (``_valid_lift``). Only
    valid candidates are built as polynomials. They get Jacobian verdicts at
    all coordinate points, plus the tail-support exclusion checks in the
    one-dimensional setting. The coordinate points and the exclusion table are
    built at the first valid lift, once per search (once per chunk of work
    with ``workers`` > 1); each worker returns finished ``ValidLift``s, so the
    Jacobians and the support scan are spread with the validity checks.
    """
    ctx = order.ctx
    M = to_ideal(delta, ctx)  # which checks the vertex count
    _require_standard_grading(ctx, "lift search requires")
    if budget < 1:
        raise ValueError("budget must be >= 1")
    field = ctx.field

    if pool is None:
        p = field.characteristic()
        pool = DEFAULT_POOL_QQ if p == 0 else tuple(range(p))
    coeffs = list(dict.fromkeys(field.of(c) for c in pool))
    if not coeffs:
        raise ValueError("empty coefficient pool")

    targets = list(M.gens)
    key = order.exps_key
    leads = [t.exps for t in targets]
    tails_of: List[List[Monomial]] = []
    for t in targets:
        # exponents below t and outside the non-face ideal; a Monomial only for those
        top = key(t.exps)
        tails = [
            e
            for e in _exponents_of_degree(ctx.n, t.degree())
            if key(e) < top and not any(all(map(le, g, e)) for g in leads)
        ]
        tails.sort(key=key, reverse=True)
        tails_of.append([Monomial(e) for e in tails])
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

    equations = _stratum_equations(order, targets, slots)
    run = _LiftCheck(order, delta, targets, slots, coeffs, (ctx.n - 1) - delta.dim, equations)
    lifts = [lift for lift in _ordered_map(run, assignments, workers) if lift is not None]

    return LiftSearchResult(
        delta, order, tuple(coeffs), budget, seed, exhaustive, space,
        len(draws), tuple(targets), empty, tuple(lifts),
    )


class PointCountResult(Record):
    def __init__(
        self, curve: str, prime: int, count: int, trace: int, smooth: bool,
        singular_points: Tuple[str, ...], supersingular: Optional[bool], hasse_ok: Optional[bool],
    ):
        self.__dict__.update(
            curve=curve, prime=prime, count=count, trace=trace, smooth=smooth,
            singular_points=singular_points, supersingular=supersingular, hasse_ok=hasse_ok,
        )

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

    Works for any nonzero homogeneous ternary form and any prime p up to
    ``POINT_COUNT_PRIME_BOUND``; the trace ``p + 1 - N`` is always reported,
    while the supersingularity and Hasse-bound fields are filled only when
    the reduction is a smooth cubic (the elliptic case).
    """
    if p > POINT_COUNT_PRIME_BOUND:
        raise ResourceLimitError(
            f"counting points mod {p} walks p^2 + p + 1 points; the bound is p <= {POINT_COUNT_PRIME_BOUND}"
        )
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    ctx = f.ctx
    if ctx.n != 3:
        raise ValueError("point counting is for plane curves in three variables")
    _require_standard_grading(ctx, "point counting requires")
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


class ComplexReport(Record):
    """Standalone combinatorial analysis of one complex over one field."""

    def __init__(
        self, delta: SimplicialComplex, field: Field, properties: ComplexPropertyReport, lex: ObstructionVerdict
    ):
        self.__dict__.update(delta=delta, field=field, properties=properties, lex=lex)

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
