"""Jacobian analysis at rational points and smoothing obstruction certificates.

Each public entry checks its own input: ``jacobian_rank_at`` takes homogeneous
generators over one ring in any grading, the certificates on a basis require
the standard grading, and the leafless ones the setting below. All work with
honest reduced Groebner bases produced upstream. The three certificates:

- ``ci_obstruction``: a square-free complete-intersection initial ideal whose
  generator degrees use every variable forces a singular point at the
  distinguished coordinate point, for every lift.
- ``leafless_obstruction``: for one-dimensional complexes, if the largest
  variable's vertex is not a leaf, the Jacobian at its coordinate point has
  rank at most n-3 < n-2, again for every lift.
- ``lex_obstruction``: purely combinatorial; if every vertex has more link
  vertices than dim of the complex, no lex order admits a smooth lift.

The coordinate-point Jacobians of ``analyze``, ``lift_search`` and the
certificates come from one table of what each point e_i reads: which
coefficients land in which entries of its matrix, and which make a generator
nonzero there (``_point_table``). ``_coordinate_points`` builds it from one
basis; a lift search builds it once, over its tail slots, and memoizes each
verdict on the point and the values of the slots it reads
(``_point_verdicts``), one record per point, on-scheme flag and rank. Any
other point goes to the one integer evaluator ``_jacobian_at``, which serves
``jacobian_rank_at`` (the table's reference in the tests) and the singular
points of ``pipeline.count_points``.

``support_exclusions`` checks the setting (``_check_dim1_setting``) and is
then two parts: a table from each leading monomial to its forbidden tails
(``_exclusion_table``), and a scan of one basis against it by exponent
vectors. The table depends only on the order, the complex and the leading
monomials, so a lift search, whose own non-face generators are the leads,
builds it once for all its lifts, resolves each forbidden tail to its tail
slot, and skips the check.
``leafless_obstruction`` reads its violations from ``support_exclusions``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from .complexes import SimplicialComplex, to_ideal
from .errors import ContextMismatchError
from .fields import Field
from .groebner import GroebnerBasis, initial_ideal
from .linalg import primitive_integers, rank_int, rank_mod_p
from .records import Record, asdict
from .ring import Monomial, RingContext


class ProjPoint(Record):
    """Projective point over ``field``, canonically scaled: first nonzero coordinate is 1."""

    def __init__(self, coords: Tuple, field: Field):
        self.__dict__.update(coords=coords, field=field)

    @staticmethod
    def make(field, coords) -> "ProjPoint":
        vals = [field.of(c) for c in coords]
        pivot = next((v for v in vals if v != field.zero), None)
        if pivot is None:
            raise ValueError("projective point needs a nonzero coordinate")
        return ProjPoint(tuple(v / pivot for v in vals), field)

    @staticmethod
    def coordinate(field, n: int, i: int) -> "ProjPoint":
        if not 0 <= i < n:
            raise ValueError(f"coordinate index {i} out of range")
        one, zero = field.one, field.zero
        return ProjPoint(tuple(one if j == i else zero for j in range(n)), field)

    def render(self) -> str:
        return "[" + ":".join(self.field.render_scalar(c) for c in self.coords) + "]"


class JacobianAnalysis(Record):
    """The Jacobian at a point; ``verdict`` is ``off_scheme``, ``singular`` or ``smooth``."""

    def __init__(self, point: ProjPoint, on_scheme: bool, rank: int, expected_codim: int, verdict: str):
        self.__dict__.update(
            point=point, on_scheme=on_scheme, rank=rank, expected_codim=expected_codim, verdict=verdict
        )

    def as_dict(self) -> dict:
        return {
            "point": self.point.render(),
            "on_scheme": self.on_scheme,
            "rank": self.rank,
            "expected_codim": self.expected_codim,
            "verdict": self.verdict,
            "hypothesis": "equidimensional of the expected codimension",
        }


def jacobian_rank_at(basis_or_gens, point, expected_codim: int) -> JacobianAnalysis:
    """Exact Jacobian rank at a projective point, classified against codimension.

    A point over another field, or a plain coordinate sequence, is taken into
    the generators' field first. A rational point is cleared to primitive
    integers, which scales every value and partial by a nonzero constant.
    """
    gens = list(basis_or_gens.polys if isinstance(basis_or_gens, GroebnerBasis) else basis_or_gens)
    if not gens:
        raise ValueError("no generators")
    ctx = gens[0].ctx
    if any(g.ctx != ctx for g in gens):
        raise ContextMismatchError("generators over different ring contexts")
    _require_homogeneous(gens)
    if not (isinstance(point, ProjPoint) and point.field == ctx.field):
        point = ProjPoint.make(ctx.field, getattr(point, "coords", point))
    if len(point.coords) != ctx.n:
        raise ValueError("point has the wrong number of coordinates")
    p = ctx.field.characteristic()
    x = [c.v for c in point.coords] if p else primitive_integers(point.coords)
    on_scheme, rank = _jacobian_at([g.integer_terms() for g in gens], x, p)
    return _classified(point, on_scheme, rank, expected_codim)


def _require_homogeneous(gens):
    """Raise on the first generator that is not homogeneous (the zero polynomial is)."""
    for g in gens:
        if not g.is_homogeneous()[0]:
            raise ValueError(f"inhomogeneous generator: {g.render()}")


def _require_standard_grading(ctx, what: str):
    """Raise ``<what> the standard grading``, as in ``lift search requires``, unless ``ctx`` has it."""
    if not ctx.standard:
        raise ValueError(f"{what} the standard grading")


def _jacobian_at(gens_terms, x, p: int) -> Tuple[bool, int]:
    """Whether every generator vanishes at the integer point ``x``, and the rank
    of the Jacobian there, over QQ (``p == 0``) or GF(p).

    Each generator is given as its ``Polynomial.integer_terms``. One pass over
    its terms fills its value and its Jacobian row: a term c*x^e adds
    c*e_j*x^(e-unit_j) to column j, an exact integer quotient of its value by
    x_j (over GF(p), a product with the inverse of x_j, every power reduced mod
    p as it is taken). Terms that vanish at the point together with all their
    partials are skipped: two support variables at zero coordinates, or one
    with exponent >= 2.
    """
    on_scheme = True
    matrix = []
    inverse = [pow(v, -1, p) if v else 0 for v in x] if p else None
    for terms in gens_terms:
        value = 0
        row = {}  # column -> partial derivative at the point
        for e, t in terms:
            hole = None  # the one support variable at a zero coordinate, if any
            for k, ek in enumerate(e):
                if not ek:
                    continue
                xk = x[k]
                if xk:
                    if xk != 1:
                        t = t * pow(xk, ek, p) % p if p else t * xk**ek
                elif ek > 1 or hole is not None:
                    break
                else:
                    hole = k
            else:
                if hole is None:
                    value += t
                    for k, ek in enumerate(e):
                        if ek:
                            row[k] = row.get(k, 0) + (ek * t * inverse[k] % p if p else ek * t // x[k])
                else:
                    row[hole] = row.get(hole, 0) + t
        if value % p if p else value:
            on_scheme = False
        matrix.append(row)
    return on_scheme, rank_mod_p(matrix, p) if p else rank_int(matrix)


def _classified(point: ProjPoint, on_scheme: bool, rank: int, expected_codim: int) -> JacobianAnalysis:
    """The verdict at a point from its membership and Jacobian rank."""
    if not on_scheme:
        verdict = "off_scheme"
    elif rank < expected_codim:
        verdict = "singular"
    else:
        verdict = "smooth"
    return JacobianAnalysis(point, on_scheme, rank, expected_codim, verdict)


def _unit_points(ctx: RingContext) -> Tuple[ProjPoint, ...]:
    """The coordinate points e_1, ..., e_n of the ring's projective space."""
    return tuple(ProjPoint.coordinate(ctx.field, ctx.n, i) for i in range(ctx.n))


def _point_table(gens_slots, n: int) -> tuple:
    """What each coordinate point e_1, ..., e_n reads of generators whose terms
    are given as ``(exponents, slot)`` pairs, the coefficient of each term being
    the value at its slot.

    The generators are homogeneous of positive degree in the standard grading.
    At e_i a term c*x^e of degree d is nonzero only when x^e = x_i^d, and its
    partials only when x^e = x_i^d (d*c in column i) or x^e = x_i^(d-1)*x_j (c
    in column j). A linear term c*x_j is both at every point: it puts c in
    column j of every row. Point i gets ``(reads, entries, nonzero)``: the slots
    it reads, sorted; its Jacobian entries ``(generator, column, multiplier,
    slot)``; and the slots of the terms that are nonzero at it. With no
    generators there are no points, as in the one empty lift of a full simplex.
    """
    if not gens_slots:
        return ()
    entries = [[] for _ in range(n)]
    nonzero = [[] for _ in range(n)]
    for k, terms in enumerate(gens_slots):
        for e, s in terms:
            d = sum(e)
            if max(e) < d - 1:  # nonzero at no e_i, with all its partials
                continue
            if d == 1:
                j = e.index(1)
                nonzero[j].append(s)
                for point in entries:
                    point.append((k, j, 1, s))
            elif d in e:  # a nonzero value at e_i
                i = e.index(d)
                nonzero[i].append(s)
                entries[i].append((k, i, d, s))
            else:
                i = e.index(d - 1)
                j = e.index(1, i + 1) if d == 2 else e.index(1)
                entries[i].append((k, j, 1, s))
                if d == 2:  # x_i*x_j is also x_j^(d-1)*x_i
                    entries[j].append((k, i, 1, s))
    return tuple(
        (tuple(sorted({s for *_, s in es}.union(zs))), tuple(es), tuple(zs))
        for es, zs in zip(entries, nonzero)
    )


def _point_verdicts(table, values, units, codim: int, memo: dict, verdicts: dict) -> Tuple[JacobianAnalysis, ...]:
    """The Jacobian verdict at each point of ``table`` (``_point_table``),
    with ``values`` the integers at the slots: residues over GF(p), and over QQ
    any integers proportional generator by generator to the coefficients. A
    verdict depends only on the point and the values it reads, so it is kept
    in ``memo`` under that key; only a miss builds the point's matrix for
    ``rank_int``/``rank_mod_p``. ``verdicts`` holds one record per (point,
    on_scheme, rank), so lifts with equal verdicts share the record and the
    writer renders it once.
    """
    p = units[0].field.characteristic()
    out = []
    for i, (reads, entries, nonzero) in enumerate(table):
        key = (i, *map(values.__getitem__, reads))
        a = memo.get(key)
        if a is None:
            rows = {}  # generator -> its row
            for k, j, mult, s in entries:
                if values[s]:
                    rows.setdefault(k, {})[j] = mult * values[s]
            rows = list(rows.values())
            on_scheme = not any(map(values.__getitem__, nonzero))
            rank = rank_mod_p(rows, p) if p else rank_int(rows)
            shared = (i, on_scheme, rank)
            if shared not in verdicts:
                verdicts[shared] = _classified(units[i], on_scheme, rank, codim)
            a = memo[key] = verdicts[shared]
        out.append(a)
    return tuple(out)


def _coordinate_points(gens, units, codim: int) -> Tuple[JacobianAnalysis, ...]:
    """Jacobian verdicts at every coordinate point (``units``, from
    ``_unit_points``) against ``codim``: ``jacobian_rank_at`` at each e_i.

    Precondition, which the callers establish: the generators lie in the ring
    of ``units``, of the standard grading, each homogeneous of positive degree
    (each caller checks its input). Each term is its own slot of
    ``_point_table``, at its ``Polynomial.integer_terms`` coefficient; a lift
    search builds that table once for all its lifts instead.
    """
    gens_slots, values = [], []
    for g in gens:
        terms = g.integer_terms()
        gens_slots.append([(e, len(values) + s) for s, (e, _) in enumerate(terms)])
        values.extend(c for _, c in terms)
    return _point_verdicts(_point_table(gens_slots, len(units)), values, units, codim, {}, {})


class ObstructionVerdict(Record):
    def __init__(self, kind: str, applicable: bool, certified: bool, reason: Optional[str], witness: Dict):
        self.__dict__.update(
            kind=kind, applicable=applicable, certified=certified, reason=reason, witness=witness
        )

    def as_dict(self) -> dict:
        return asdict(self)


def ci_obstruction(B: GroebnerBasis) -> ObstructionVerdict:
    """Complete-intersection certificate at the distinguished coordinate point."""
    _require_standard_grading(B.ctx, "obstruction certificates require")
    kind = "complete_intersection"
    M = initial_ideal(B)
    n = B.ctx.n
    if M.is_zero():
        return ObstructionVerdict(kind, False, False, "zero ideal", {})
    if not M.is_squarefree():
        return ObstructionVerdict(kind, False, False, "initial ideal is not square-free", {})
    supports = [g.support() for g in M.gens]
    used = [v for s in supports for v in s]
    if len(used) != len(set(used)):
        return ObstructionVerdict(kind, False, False, "generator supports are not disjoint", {})
    if any(len(s) < 2 for s in supports):
        return ObstructionVerdict(kind, False, False, "a generator has degree < 2", {})
    if len(used) != n:
        return ObstructionVerdict(
            kind, False, False, f"generator degrees sum to {len(used)}, not {n}", {}
        )

    desc = B.order.variables_descending()
    pos = {v: k for k, v in enumerate(desc)}
    blocks = [sorted(s, key=lambda v: pos[v]) for s in supports]
    first = min(range(len(blocks)), key=lambda b: pos[blocks[b][0]])
    rest = [b for b in range(len(blocks)) if b != first]
    ordered = [blocks[first]]
    if rest:
        last = min(rest, key=lambda b: -pos[blocks[b][-1]])
        ordered += [blocks[b] for b in rest if b != last] + [blocks[last]]
    top_var = ordered[0][0]

    codim = len(blocks)
    _require_homogeneous(B.polys)
    analysis = _coordinate_points(B.polys, _unit_points(B.ctx), codim)[top_var]
    certified = analysis.verdict == "singular"
    names = B.ctx.names
    witness = {
        "blocks": [[names[v] for v in blk] for blk in ordered],
        "point": analysis.point.render(),
        "distinguished_variable": names[top_var],
        "rank": analysis.rank,
        "codim": codim,
        "on_scheme": analysis.on_scheme,
    }
    reason = None if certified else "distinguished point did not verify as singular"
    return ObstructionVerdict(kind, True, certified, reason, witness)


class SupportViolation(Record):
    def __init__(self, rule: str, generator: str, monomial: str):
        self.__dict__.update(rule=rule, generator=generator, monomial=monomial)

    def as_dict(self) -> dict:
        return asdict(self)


def _dim1_setting(delta: SimplicialComplex) -> bool:
    """Whether ``delta`` is one-dimensional without ghost vertices: the setting
    of ``leafless_obstruction`` and ``support_exclusions``."""
    return delta.dim == 1 and not delta.ghost_vertices()


def _check_dim1_setting(B: GroebnerBasis, delta: SimplicialComplex):
    """Reject anything but a basis ``B`` over a one-dimensional complex
    without ghost vertices whose non-face ideal is B's initial ideal."""
    _require_standard_grading(B.ctx, "obstruction certificates require")
    nonfaces = to_ideal(delta, B.ctx)  # which checks the vertex count
    if not _dim1_setting(delta):
        raise ValueError("this certificate is for one-dimensional complexes" if delta.dim != 1
                         else "ghost vertices present (the ideal contains linear forms)")
    if initial_ideal(B) != nonfaces:
        raise ValueError("initial ideal of the basis is not the non-face ideal of the complex")


def _top_vertex_data(order, delta: SimplicialComplex):
    desc = order.variables_descending()
    v1 = desc[0]  # 0-based variable index of the largest variable
    vertex = v1 + 1
    pos = {v: k for k, v in enumerate(desc)}
    neighbors = sorted(
        (u for u in range(1, delta.n + 1) if u != vertex and delta.has_face((min(u, vertex), max(u, vertex)))),
        key=lambda u: pos[u - 1],
    )
    return v1, vertex, neighbors


def support_exclusions(B: GroebnerBasis, delta: SimplicialComplex) -> List[SupportViolation]:
    """Tail monomials that a valid reduced basis can never contain.

    Checks, with variable 1 relabeled to the largest variable and the two
    largest link vertices as 2 and 3: the pure power x1^d, the products
    x1^(d-1)*xl for non-neighbors l, x1^(d-1)*x{2,3} when 1 is outside the
    non-face, and x1^2*x{2,3} for degree-3 generators containing 1.
    """
    _check_dim1_setting(B, delta)
    table = _exclusion_table(B.order, delta, B.leading_monomials())
    violations = []
    for g in B.polys:
        tails = {m.exps for m, _ in g.terms[1:]}
        for rule, e in table[g.terms[0][0].exps]:
            if e in tails:
                violations.append(SupportViolation(rule, g.render(), g.ctx.render_monomial(Monomial(e))))
    return violations


def _exclusion_table(order, delta: SimplicialComplex, leads):
    """Map the exponents of each of ``leads`` to its forbidden tails as
    ``(rule, exponents)`` pairs, for a setting that ``_check_dim1_setting`` accepts.

    The table depends only on the order, ``delta`` and the leads, so one table
    serves every basis with those leads (every valid lift of one search). Each
    forbidden tail, x_top^d or x_top^(d-1)*x_u for a lead of degree d, is kept
    as its exponents; a caller renders only those a basis or a search holds.
    """
    v1, vertex, neighbors = _top_vertex_data(order, delta)
    link_top = neighbors[: 2]  # the lemma constrains the two largest link vertices
    non_neighbors = [u for u in range(1, delta.n + 1) if u != vertex and u not in neighbors]

    def tail(d, u):  # the exponents of x_top^(d - 1) * x_u, or x_top^d for u = vertex
        e = [0] * delta.n
        e[v1] = d - 1
        e[u - 1] += 1
        return tuple(e)

    table = {}
    for lead in leads:
        face = tuple(v + 1 for v in lead.support())
        d = lead.degree()
        targets = [("pure_power_of_top_variable", tail(d, vertex))]
        for l in non_neighbors:
            targets.append(("top_variable_times_non_neighbor", tail(d, l)))
        if vertex not in face:
            for a in link_top:
                targets.append(("top_variable_times_top_link_vertex", tail(d, a)))
        if vertex in face and d == 3:
            for a in link_top:
                targets.append(("degree3_top_variable_squared", tail(3, a)))
        table[lead.exps] = tuple(targets)
    return table


def leafless_obstruction(B: GroebnerBasis, delta: SimplicialComplex) -> ObstructionVerdict:
    """Rank bound n-3 at the top variable's coordinate point when it is not a leaf."""
    violations = support_exclusions(B, delta)  # checks the setting first
    kind = "leafless_vertex"
    v1, vertex, neighbors = _top_vertex_data(B.order, delta)
    n = delta.n
    names = B.ctx.names
    if len(neighbors) < 2:
        return ObstructionVerdict(
            kind,
            False,
            False,
            f"vertex {vertex} (variable {names[v1]}) is a leaf or isolated",
            {"vertex": vertex, "link_size": len(neighbors)},
        )
    codim = n - 2
    _require_homogeneous(B.polys)
    analysis = _coordinate_points(B.polys, _unit_points(B.ctx), codim)[v1]
    bound = n - 3
    b1_rows = []
    b2_rows = []
    for idx, g in enumerate(B.polys):
        lead = g.leading_monomial()
        face = set(v + 1 for v in lead.support())
        if vertex in face and len(face) == 2:
            b1_rows.append(idx)
        else:
            b2_rows.append(idx)
    certified = analysis.verdict == "singular" and analysis.rank <= bound and not violations
    witness = {
        "vertex": vertex,
        "distinguished_variable": names[v1],
        "link_size": len(neighbors),
        "point": analysis.point.render(),
        "rank": analysis.rank,
        "rank_bound": bound,
        "codim": codim,
        "degree2_rows_through_top_vertex": b1_rows,
        "remaining_rows": b2_rows,
        "support_violations": violations,
    }
    reason = None if certified else "rank bound or support exclusions did not verify"
    return ObstructionVerdict(kind, True, certified, reason, witness)


def lex_obstruction(delta: SimplicialComplex) -> ObstructionVerdict:
    """No lex order admits a smooth lift when every vertex has a big link.

    The largest variable's coordinate point can be smooth only when its link
    has at most dim(delta) vertices; requiring the opposite at every vertex
    covers every permutation, so the certificate quantifies over all lex
    orders at once. When inapplicable, the free faces are reported as the
    escape hatch.
    """
    kind = "lex_link"
    if delta.ghost_vertices():
        return ObstructionVerdict(
            kind, False, False, "ghost vertices present", {"ghost_vertices": list(delta.ghost_vertices())}
        )
    d = delta.dim
    link_sizes = {}
    for v in delta.vertices():
        link_sizes[v] = len(
            {u for f in delta.facets if v in f for u in f if u != v}
        )
    failing = sorted(v for v, s in link_sizes.items() if s <= d)
    if not failing:
        return ObstructionVerdict(
            kind,
            True,
            True,
            None,
            {"dim": d, "link_sizes": {str(v): link_sizes[v] for v in sorted(link_sizes)}},
        )
    return ObstructionVerdict(
        kind,
        False,
        False,
        "some vertex has a link no bigger than the dimension",
        {
            "dim": d,
            "failing_vertices": failing,
            "free_faces": [list(f) for f in delta.free_faces()],
        },
    )
