"""Experiment pipelines built on the core layers.

Four entry points:

* ``analyze``: one ideal, one order -> full degeneration report (basis,
  initial ideal, complex invariants, obstruction certificates, conjecture
  verdicts).
* ``scan_orders``: the same ideal over every permutation order of a family,
  deduplicated by initial ideal, with one completion per orbit of initial
  ideals under the variable permutations that fix the ideal; the report of
  each other member of an orbit is its source's report relabelled.
* ``lift_search``: enumerate or sample homogeneous lifts of a non-face ideal
  and test each valid one for singularities at the coordinate points. A
  search lays out its tail slots once, target by target. The lift criterion
  is solved once per search, as equations in the tail coefficients
  (``_stratum_equations``); each candidate is an evaluation. Whatever a
  valid lift needs that depends only on a tail slot and its pool value is
  tabled once per search, at the first valid lift (``_lift_builder``): its
  terms and their texts, its forbidden tails, and the coordinate-point
  table of ``singularity``, whose verdicts are memoized. Each valid lift is
  then lookups and joins.
* ``count_points``: exact point counts of a plane curve over GF(p), with the
  trace and supersingularity flags when the curve is a smooth cubic.

Each result's ``as_dict`` holds its own fields only, with nested results
left as records; ``reporting`` converts the tree, and writes a record that
several lifts share once.

Everything is deterministic, since sampling is seeded, and everything runs
in one process.
"""

from __future__ import annotations

import hashlib
import itertools
import random
from operator import add, getitem, le, sub
from typing import Dict, List, Optional, Tuple

from .complexes import (
    ComplexPropertyReport,
    SimplicialComplex,
    _relabelled,
    complex_from_squarefree_ideal,
    property_report,
    to_ideal,
)
from .errors import ResourceLimitError, ScanBoundExceeded
from .fields import Field, PrimeField, QQ, is_prime
from .groebner import DEFAULT_DEGREE_CAP, GroebnerBasis, MonomialIdeal, _polynomial, buchberger, initial_ideal
from .linalg import primitive_integers
from .records import Record, replace
from .ring import Monomial, MonomialOrder, Polynomial, RingContext, _picker, _term_text, render_chain
from .singularity import (
    JacobianAnalysis,
    ObstructionVerdict,
    ProjPoint,
    SupportViolation,
    _coordinate_points,
    _dim1_setting,
    _exclusion_table,
    _jacobian_at,
    _point_table,
    _point_verdicts,
    _require_homogeneous,
    _require_standard_grading,
    _unit_points,
    ci_obstruction,
    leafless_obstruction,
    lex_obstruction,
)

SCAN_VARIABLE_BOUND = 8
POINT_COUNT_PRIME_BOUND = 1024  # count_points walks all p^2 + p + 1 points
LIFT_CANDIDATE_BOUND = 10**6  # candidates a lift_search draws; a sampled one holds each distinct draw
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
            "reduced_groebner_basis": self.basis.render_polys(),
            "initial_ideal": self.initial.render_gens(),
            "squarefree": self.squarefree,
            "producing_orders": self.producing_orders,
        }
        if not self.squarefree:
            return out
        out["facets"] = self.delta.render()
        out["complex"] = self.properties
        out["cohomology"] = self.properties.cohomology
        out["necessary_conditions"] = self.necessary_conditions()
        out["coordinate_points"] = self.coordinate_points
        out["obstructions"] = self.obstructions
        out["conjectures"] = self.conjectures
        return out


def analyze(gens, order: MonomialOrder, *, degree_cap: int = DEFAULT_DEGREE_CAP) -> DegenerationReport:
    """Degenerate a homogeneous ideal along one order and report everything."""
    _require_homogeneous(gens)
    B = buchberger(gens, order, degree_cap=degree_cap)
    return _degeneration_report(gens, B, (order.render(),), ideal_digest(order.ctx, gens))


def _degeneration_report(gens, B: GroebnerBasis, producing_orders, digest: str, image_of=None) -> DegenerationReport:
    """The report of homogeneous ``gens``, of ``ideal_digest`` ``digest``, whose reduced basis is ``B``.

    With ``image_of = (R, s)``, R the report of a reduced basis B' of the same
    ideal and B = s(B') (variable i goes to s[i]), the complex, its property
    report and the coordinate points are R's relabelled by s, as
    ``scan_orders`` describes; the rest is computed as for any basis.
    """
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

    if image_of is None:
        if all(M.contains(Monomial.variable(i, ctx.n)) for i in range(ctx.n)):
            raise ValueError("initial ideal contains every variable: the projective scheme is empty")
        delta = complex_from_squarefree_ideal(M)
        props = property_report(delta, ctx.field)
        points: Tuple[JacobianAnalysis, ...] = ()
        if ctx.standard and B.polys:
            points = _coordinate_points(B.polys, _unit_points(ctx), (ctx.n - 1) - delta.dim)
    else:
        source, s = image_of
        delta, props = _relabelled(source.delta, source.properties, s)
        moved = dict(zip(s, source.coordinate_points))  # moved[s[i]]: the verdict at e_i
        points = tuple(replace(moved[j], point=a.point) for j, a in enumerate(source.coordinate_points))

    obstructions: List[ObstructionVerdict] = []
    if ctx.standard and B.polys:
        obstructions.append(ci_obstruction(B))
        if _dim1_setting(delta):
            obstructions.append(leafless_obstruction(B, delta))
    obstructions.append(lex_obstruction(delta))
    conjectures = _conjecture_summary(props, points)

    return DegenerationReport(
        digest, order, polys, B, M, True,
        delta, props, points, tuple(obstructions), conjectures, producing_orders,
    )


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


def _symmetry_generators(gens) -> List[Tuple[int, ...]]:
    """Generators of the group of variable permutations that keep the ring's
    grading and map the nonzero generators onto themselves up to scalars.

    ``s[i]`` is the image of variable i. Such an s maps the ideal into itself,
    one graded piece of finite dimension at a time, so s(I) = I. The search
    (Sims's backtrack) orders the variables v_0, v_1, ..., each next one
    sharing a term with those before it when any does, and takes the levels
    from the last: for each later variable u that the symmetries found so far
    do not carry v_t to, it looks for one symmetry fixing v_0..v_{t-1} with
    v_t -> u. What it finds generates the whole group, with at most n(n-1)/2
    elements, and the search never lists the group itself (n! elements for
    the elementary symmetric polynomials). A branch of a search is dropped as
    soon as some generator's terms whose variables are all placed map onto no
    multiple of a generator's terms. A variable v may go to u only when u has
    v's weight and v's profile: the set, over the generators, of the sorted
    exponents of x_v in each one's terms. s carries each generator's terms
    onto a multiple of a generator's, x_v's exponents onto x_s[v]'s, so it
    carries the profile of v to that of s[v]. The profile prunes only
    branches that fail, so the search finds what it would find without it.
    With no nonzero generator there is none.
    """
    ctx = gens[0].ctx
    n, grading = ctx.n, ctx.grading
    polys = [{m.exps: c for m, c in g.terms} for g in gens if g.terms]
    if not polys:
        return []
    profiles = [(grading[i], frozenset(tuple(sorted(e[i] for e in g)) for g in polys)) for i in range(n)]
    holders: Dict[tuple, list] = {}  # exponents -> the generators with that term
    for g in polys:
        for e in g:
            holders.setdefault(e, []).append(g)
    supports = {e: {i for i, a in enumerate(e) if a} for e in holders}
    walk_order: List[int] = []
    while len(walk_order) < n:
        placed = set(walk_order)
        left = [v for v in range(n) if v not in placed]
        linked = [v for v in left if any(v in s and s & placed for s in supports.values())]
        walk_order.append((linked or left)[0])
    rank = {v: t for t, v in enumerate(walk_order)}
    last = {e: max((rank[i] for i in s), default=-1) for e, s in supports.items()}
    # checks[t]: for each generator with a term whose variables are all placed
    # once v_t is, its size and its terms so placed, exponents padded by a 0
    # that stands for the unplaced variables
    checks: List[list] = [[] for _ in range(n)]
    for g in polys:
        for t in sorted({last[e] for e in g} - {-1}):
            checks[t].append((len(g), [(e + (0,), c) for e, c in g.items() if last[e] <= t]))

    def fits(pick, size, terms):  # the image of ``terms`` lies in a multiple of a generator of ``size`` terms
        e0, c0 = terms[0]
        image0 = pick(e0)
        for h in holders.get(image0, ()):
            if len(h) == size:
                ratio = h[image0] / c0
                if all(h.get(pick(e)) == ratio * c for e, c in terms):
                    return True
        return False

    image = list(range(n))

    def extend(t, free, choices):  # place v_t on one of ``choices``, the rest on ``free``
        if t == n:
            return True
        v = walk_order[t]
        for u in choices:
            if profiles[u] != profiles[v]:
                continue
            image[v], inverse[u] = u, v
            pick = _picker(tuple(inverse))
            rest = [w for w in free if w != u]
            if all(fits(pick, *check) for check in checks[t]) and extend(t + 1, rest, rest):
                return True
            inverse[u] = n
        return False

    found: List[Tuple[int, ...]] = []
    for t in reversed(range(n)):
        v = walk_order[t]
        orbit = [v]
        for u in walk_order[t + 1 :]:
            for w in orbit:  # close the orbit of v_t under what is found so far
                orbit.extend(x for x in {s[w] for s in found} if x not in orbit)
            if u in orbit:
                continue
            inverse = [n] * n  # inverse[u]: the variable placed on u, n (the padding) while none is
            for w in walk_order[:t]:
                image[w] = inverse[w] = w
            if extend(t, walk_order[t:], [u]):
                found.append(tuple(image))
    return found


def _transported(B: GroebnerBasis, s, order: MonomialOrder) -> GroebnerBasis:
    """The basis s(B) under ``order``, an order of its cone: the exponents
    relabelled, then the terms and the elements sorted as ``buchberger`` leaves them."""
    inverse = [0] * len(s)
    for i, j in enumerate(s):
        inverse[j] = i
    pick, key = _picker(tuple(inverse)), order.exps_key
    polys = []
    for g in B.polys:
        terms = [(pick(m.exps), c) for m, c in g.terms]
        polys.append(_polynomial(B.ctx, order, sorted(terms, key=lambda ec: key(ec[0]), reverse=True)))
    polys.sort(key=lambda g: key(g.terms[0][0].exps), reverse=True)
    return GroebnerBasis(tuple(polys), order, B.ctx)


def scan_orders(
    gens,
    *,
    family: str = "both",
    degree_cap: int = DEFAULT_DEGREE_CAP,
) -> List[DegenerationReport]:
    """Walk every permutation order of the family, dedupe by initial ideal.

    Each distinct initial ideal yields one full report whose
    ``producing_orders`` lists every order that realized it, in scan order;
    the reports come in the order of their first producing orders. The scan
    refuses to run past ``SCAN_VARIABLE_BOUND`` variables (factorial blowup).

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
    one owner and the scan is one lookup per order.

    A variable permutation s with s(I) = I maps the reduced basis under
    (kind, perm) to the reduced basis under (kind, s(perm)), and the cone of
    one to the cone of the other, so G also claims the cone of s(G) for each
    s(G) of its orbit not yet claimed. The orbit is walked from G by the
    generators of these symmetries (``_symmetry_generators``), found once
    per scan right after the first completion (so ``buchberger`` refuses
    mixed ring contexts first); an image whose first order is owned is
    reached already, as cones are disjoint. The scan completes at an order
    only when nothing has claimed it, once per orbit of initial ideals under
    these symmetries, and ``degree_cap`` bounds only those completions. The
    walk only decides each order's owner: ``(k, None)`` for the k-th
    completed basis G, ``(k, s)`` for s(G). After it, each report is built
    from its owner's basis under its first producing order, s(G) relabelled
    and sorted, never completed.

    The report of an image s(G) is the report of G relabelled by s. Its
    complex and property report are G's with every vertex renamed (the
    leaves, free faces, cone points and ghost vertices sorted again, the
    verdicts and the cohomology shared), and its verdict at e_s(i) is G's at
    e_i, with the same rank. So ``property_report`` runs and coordinate-point
    ranks are taken once per orbit of square-free initial ideals. What
    depends on the order or on how the labels are ordered is computed for
    every report: the generators under its order, its initial ideal, the
    certificates and the conjecture summary.

    The producing orders are grouped by owner, which is grouping by initial
    ideal: an order is completed only when no cone claims it, and an image
    is claimed only when its first order is unowned, so distinct owners are
    distinct reduced bases, and a reduced basis is fixed by its initial ideal.
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

    bases: List[GroebnerBasis] = []
    owner: Dict[Tuple[str, tuple], tuple] = {}  # order -> (k, None) for bases[k], (k, s) for s(bases[k])
    producers: Dict[tuple, list] = {}  # owner -> its producing (kind, perm), owners by first order
    identity = tuple(range(ctx.n))
    for kind in kinds:
        for perm in itertools.permutations(identity):
            key = owner.get((kind, perm))
            if key is None:
                key = (len(bases), None)
                B = buchberger(gens, MonomialOrder(kind, ctx, perm=perm), degree_cap=degree_cap)
                if not bases:
                    generators = _symmetry_generators(gens)
                bases.append(B)
                cone = _cone(B, kinds)
                owner.update(dict.fromkeys(cone, key))
                (c0, p0), reached = cone[0], [identity]
                for s in reached:  # the cone of each s(B) of the orbit of B not yet claimed
                    for g in generators:
                        gs = tuple(g[i] for i in s)
                        if (c0, tuple(gs[i] for i in p0)) not in owner:
                            owner.update(dict.fromkeys(((c, tuple(gs[i] for i in p)) for c, p in cone), (key[0], gs)))
                            reached.append(gs)
            producers.setdefault(key, []).append((kind, perm))
    digest = ideal_digest(ctx, gens)
    reports: Dict[tuple, DegenerationReport] = {}  # a basis's first order comes before its images'
    for (k, s), orders in producers.items():
        (kind, perm), B, image_of = orders[0], bases[k], None
        if s is not None:
            B, image_of = _transported(B, s, MonomialOrder(kind, ctx, perm=perm)), (reports[k, None], s)
        names = tuple(render_chain(c, ctx.names, p) for c, p in orders)
        reports[k, s] = _degeneration_report(gens, B, names, digest, image_of)
    return list(reports.values())


def _face_exponents(delta: SimplicialComplex, d: int) -> List[Tuple[int, ...]]:
    """The exponent vectors of degree ``d`` outside the non-face ideal of
    ``delta``: those whose support is a face, that is, lies in a facet. The
    support is tested as a bitmask before the vector is built."""
    variables = range(delta.n)
    facets = delta._masks()
    out = []
    for combo in itertools.combinations_with_replacement(variables, d):
        support = 0
        for i in combo:
            support |= 1 << i
        if any(support & f == support for f in facets):
            out.append(tuple(map(combo.count, variables)))
    return out


def _stratum_equations(order, layout) -> tuple:
    """The lift criterion of one search: equations in the tail coefficients a_s.

    Candidate i, entry ``(t_i, [(m_s, s), ...])`` of the search's ``layout``,
    is t_i plus a_s*m_s over its tail slots s: monic, with lead t_i.
    Buchberger's criterion decides validity exactly because the candidates are
    reduced by construction (monic, the minimal non-faces as leads, tails
    outside the non-face ideal), and homogeneous division never raises the
    degree, so no cap is needed. Each S-pair of non-coprime leads is divided by
    the candidates, in target order, with the first-divisor rule of
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
    live = {}  # order key -> (exponents, the (term, slot) pairs reduced onto it)

    def take(k, e, lead, tail):
        """Term k, at exponents e, is reduced by the candidate of ``lead``."""
        shift = tuple(map(sub, e, lead))
        for m, s in tail:
            te = tuple(map(add, m, shift))
            live.setdefault(key(te), (te, []))[1].append((k, s))

    programs = []
    for f, g in itertools.combinations(layout, 2):
        if not any(map(min, f[0], g[0])):
            continue  # coprime leads
        lcm = tuple(map(max, f[0], g[0]))
        take(0, lcm, *f)
        take(1, lcm, *g)
        steps, k = [], 2
        while live:
            e, preds = live.pop(max(live))
            for lead, tail in layout:
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
    """One lift whose reduced basis is exactly the candidate set.

    ``texts`` are the generators as ``Polynomial.render`` writes them, joined
    from the search's term table (``_lift_builder``) rather than rendered.
    """

    def __init__(
        self, polys: Tuple[Polynomial, ...], texts: Tuple[str, ...],
        coordinate_points: Tuple[JacobianAnalysis, ...], support_violations: Tuple[SupportViolation, ...],
    ):
        self.__dict__.update(
            polys=polys, texts=texts, coordinate_points=coordinate_points,
            support_violations=support_violations,
        )

    def singular_at_every_scheme_point(self) -> bool:
        on = [a for a in self.coordinate_points if a.on_scheme]
        return bool(on) and all(a.verdict == "singular" for a in on)

    def as_dict(self) -> dict:
        return {
            "generators": list(self.texts),
            "coordinate_points": self.coordinate_points,
            "singular_at_every_scheme_point": self.singular_at_every_scheme_point(),
            "support_violations": self.support_violations,
        }


def _lift_builder(order, delta, layout, coeffs, p, values):
    """``build(assignment)``, the ``ValidLift`` of a valid candidate of the
    search of ``layout``, by lookups in tables of what only valid lifts need,
    so ``lift_search`` makes the builder at its first valid lift.

    The term table holds each target with coefficient 1 and its text, and
    each tail slot's term at each pool index (None at 0) with its text: ``" +
    3/2*x1*x4"``, ``" - x2^2"``, empty at 0. A generator's text is its head
    text followed by its tails' texts, as ``Polynomial.render`` writes it,
    since both come from ``_term_text``. Each target's tails are in
    decreasing order, all below it, and the pool holds field elements, so the
    terms are already in canonical form.

    The point table of ``_point_verdicts`` covers the tail slots, then one
    slot for every target, and its verdict memo spans the search. Over GF(p)
    the pool is its residues and the target coefficient 1; over QQ the pool
    and 1 are cleared together to primitive integers, which scales each
    candidate's row by one constant. The exclusions are ``_exclusion_table``
    resolved to ``(target, rule, slot, monomial text)`` entries, in
    reduced-basis order (by decreasing lead) and then table order; a
    forbidden tail that is no slot of its target is never a tail. A lift
    contains the entries whose slot has a nonzero value. The leads are the
    targets, so one order serves every valid lift. Outside the
    one-dimensional setting there are no entries.
    """
    ctx = order.ctx
    scalar, monomial, one = ctx.field.render_scalar, ctx.render_monomial, ctx.field.one
    pool = [(c, scalar(c)) for c in coeffs]
    heads = [Monomial(lead) for lead, _ in layout]
    rows, lo = [], 0  # per target: (head term, head text, its slot range, terms, texts)
    for head, (_, tails) in zip(heads, layout):
        ms = [Monomial(e) for e, _ in tails]  # a search with no valid lift builds no tail Monomial
        rows.append((
            (head, one), _term_text(scalar(one), monomial(head))[2:], lo, lo + len(tails),  # monic: no "+ "
            [[(m, c) if c else None for c, _ in pool] for m in ms],
            [[" " + _term_text(text, mono) if c else "" for c, text in pool] for mono in map(monomial, ms)],
        ))
        lo += len(tails)
    table = _point_table([[(lead, lo), *tails] for lead, tails in layout], ctx.n)  # slot lo: the leads
    *ints, lead_value = [*values, 1] if p else primitive_integers([*coeffs, 1])
    exclusions = []
    if _dim1_setting(delta):
        forbidden = _exclusion_table(order, delta, heads)
        for k, (lead, tails) in sorted(enumerate(layout), key=lambda kt: order.exps_key(kt[1][0]), reverse=True):
            slot_of = dict(tails)
            exclusions += [(k, rule, slot_of[e], monomial(Monomial(e))) for rule, e in forbidden[lead] if e in slot_of]
    units, codim, memo, verdicts = _unit_points(ctx), (ctx.n - 1) - delta.dim, {}, {}

    def build(assignment) -> ValidLift:
        polys, texts = [], []
        for head, head_text, lo, hi, terms, tail_texts in rows:
            picked = assignment[lo:hi]
            polys.append(Polynomial._make(ctx, order, (head, *filter(None, map(getitem, terms, picked)))))
            texts.append(head_text + "".join(map(getitem, tail_texts, picked)))
        # valid, so the candidate is its own reduced basis, whose order the entries keep
        violations = tuple(
            SupportViolation(rule, texts[k], mono) for k, rule, s, mono in exclusions if coeffs[assignment[s]]
        )
        points = _point_verdicts(table, [*map(ints.__getitem__, assignment), lead_value], units, codim, memo, verdicts)
        return ValidLift(tuple(polys), tuple(texts), points, violations)

    return build


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
        ctx = self.order.ctx
        field = ctx.field
        top = self.top_variable()
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
            "valid_lifts": self.lifts,
        }


def lift_search(
    delta: SimplicialComplex,
    order: MonomialOrder,
    *,
    pool=None,
    budget: int = DEFAULT_BUDGET,
    seed: int = 0,
) -> LiftSearchResult:
    """Search homogeneous lifts of the non-face ideal of ``delta``.

    Every minimal non-face monomial may pick up tail terms: same degree,
    strictly smaller in the order, outside the non-face ideal. Coefficients
    range over ``pool`` ({-2,-1,1,2} over QQ, the whole field over GF(p); 0
    always means "drop the tail"). The whole space is enumerated when its
    size fits the budget, otherwise ``budget`` seeded-random draws, each
    distinct one checked once. A lift is valid when every S-pair with
    non-coprime leads reduces to zero against it (Buchberger's criterion), so
    it is already the reduced basis. The candidates share their leads and
    tail monomials, so the S-pairs are divided once per search, with the tail
    coefficients as unknowns (``_stratum_equations``), and each candidate is
    checked by evaluating the remainder coefficients at its own
    (``_valid_lift``). Only valid candidates are built as polynomials, with
    their texts. They get Jacobian verdicts at all coordinate points, plus
    the tail-support exclusion checks in the one-dimensional setting. The
    search lays out its tail slots once, target by target, and all the rest
    reads that layout. The term, coordinate-point and resolved exclusion
    tables are built at the first valid lift, with the builder that makes
    each lift (``_lift_builder``), so a search with no valid candidate builds
    none of them. A lift's polynomials and texts are its slots' rows of the
    term table, its violations the forbidden slots it fills, and a point's
    verdict is ranked once per distinct set of values of the slots it reads.
    An exhaustive search streams its candidates; a sampled one holds its
    distinct draws. The search runs in one process.

    A monomial lies outside the non-face ideal exactly when its support is a
    face, so the tails are the exponent vectors whose support bitmask lies in
    a facet (``_face_exponents``). Sampled draws are the values of
    ``rng.randrange(len(pool))``, one per slot per draw, for ``rng =
    random.Random(seed)``, read straight from ``getrandbits``.

    At most ``LIFT_CANDIDATE_BOUND`` candidates are drawn: a search whose
    space and budget both exceed it raises ``ResourceLimitError`` before
    drawing any.
    """
    ctx = order.ctx
    M = to_ideal(delta, ctx)  # which checks the vertex count
    _require_standard_grading(ctx, "lift search requires")
    if budget < 1:
        raise ValueError("budget must be >= 1")
    field = ctx.field
    p = field.characteristic()

    if pool is None:
        pool = DEFAULT_POOL_QQ if p == 0 else tuple(range(p))
    coeffs = list(dict.fromkeys(field.of(c) for c in pool))
    if not coeffs:
        raise ValueError("empty coefficient pool")

    targets = list(M.gens)
    key = order.exps_key
    ranked: Dict[int, list] = {}  # degree -> (order key, exponents) outside the non-face ideal, decreasing
    slot = itertools.count()
    layout = []  # per target: (lead exponents, [(tail exponents, slot), ...]), slots target by target
    for t in targets:
        d = t.degree()
        if d not in ranked:
            ranked[d] = sorted(((key(e), e) for e in _face_exponents(delta, d)), reverse=True)
        top = key(t.exps)
        layout.append((t.exps, [(e, next(slot)) for k, e in ranked[d] if k < top]))
    empty = tuple(t for t, (_, tails) in zip(targets, layout) if not tails)
    slots = next(slot)

    space = len(coeffs) ** slots
    if min(space, budget) > LIFT_CANDIDATE_BOUND:
        raise ResourceLimitError(
            f"a lift search draws at most {LIFT_CANDIDATE_BOUND} candidates; lower the budget"
        )
    exhaustive = space <= budget
    if exhaustive:
        draws = itertools.product(range(len(coeffs)), repeat=slots)  # distinct, and streamed
    else:
        # the values of [tuple(rng.randrange(k) for _ in range(slots)) for _ in range(budget)]:
        # CPython's randrange(k) draws k.bit_length() bits until they are below k
        k = len(coeffs)
        bits = map(random.Random(seed).getrandbits, itertools.repeat(k.bit_length()))
        picks = itertools.islice(filter(k.__gt__, bits), budget * slots)
        draws = dict.fromkeys(zip(*[picks] * slots))  # not exhaustive, so there are slots

    equations = _stratum_equations(order, layout)
    values = [c.v for c in coeffs] if p else [c.numerator if c.denominator == 1 else c for c in coeffs]
    lifts, build = [], None
    for assignment in draws:
        if _valid_lift(equations, values, p, assignment):
            if build is None:
                build = _lift_builder(order, delta, layout, coeffs, p, values)
            lifts.append(build(assignment))

    return LiftSearchResult(
        delta, order, tuple(coeffs), budget, seed, exhaustive, space,
        space if exhaustive else budget, tuple(targets), empty, tuple(lifts),
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
            "singular_points": self.singular_points,
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

    r = range(p)  # the points, streamed: (1, y, z), (0, 1, z), (0, 0, 1)
    points = itertools.chain(itertools.product((1,), r, r), itertools.product((0,), (1,), r), [(0, 0, 1)])
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
            "f_vector": self.delta.f_vector(),
            "properties": self.properties,
            "cohomology": self.properties.cohomology,
            "lex_obstruction": self.lex,
        }


def analyze_complex(delta: SimplicialComplex, field: Field = QQ) -> ComplexReport:
    return ComplexReport(delta, field, property_report(delta, field), lex_obstruction(delta))
