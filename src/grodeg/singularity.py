"""Jacobian analysis at rational points and smoothing obstruction certificates.

Everything here assumes the standard grading (checked) and works with honest
reduced Groebner bases produced upstream. The three certificates:

- ``ci_obstruction``: a square-free complete-intersection initial ideal whose
  generator degrees use every variable forces a singular point at the
  distinguished coordinate point, for every lift.
- ``leafless_obstruction``: for one-dimensional complexes, if the largest
  variable's vertex is not a leaf, the Jacobian at its coordinate point has
  rank at most n-3 < n-2, again for every lift.
- ``lex_obstruction``: purely combinatorial; if every vertex has more link
  vertices than dim of the complex, no lex order admits a smooth lift.

``jacobian_rank_at`` takes any point; it and ``pipeline.count_points`` share
one integer evaluator (``_jacobian_at``). ``support_exclusions`` checks the
setting (``_check_dim1_setting``) and is then two parts: a table from each
leading monomial to its forbidden tails (``_exclusion_table``), and a scan of
one basis against it (``_excluded_tails``). The table depends only on the
order, the complex and the leading monomials, so a lift search, whose own
non-face generators are the leads, builds it once for all its lifts and
skips the check. ``leafless_obstruction`` reads its violations from
``support_exclusions``.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Dict, List, Optional, Tuple

from .complexes import SimplicialComplex, to_ideal
from .errors import ContextMismatchError
from .fields import Field
from .groebner import GroebnerBasis, MonomialIdeal, initial_ideal
from .linalg import primitive_integers, rank_int, rank_mod_p
from .ring import Monomial, Polynomial


@dataclass(frozen=True)
class ProjPoint:
    """Projective point over ``field``, canonically scaled: first nonzero coordinate is 1."""

    coords: Tuple
    field: Field

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


@dataclass(frozen=True)
class JacobianAnalysis:
    point: ProjPoint
    on_scheme: bool
    rank: int
    expected_codim: int
    verdict: str  # "off_scheme" | "singular" | "smooth"

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
    gens, ctx = _checked_generators(basis_or_gens)
    if not (isinstance(point, ProjPoint) and point.field == ctx.field):
        point = ProjPoint.make(ctx.field, getattr(point, "coords", point))
    if len(point.coords) != ctx.n:
        raise ValueError("point has the wrong number of coordinates")
    p = ctx.field.characteristic()
    x = [c.v for c in point.coords] if p else primitive_integers(point.coords)
    on_scheme, rank = _jacobian_at([g.integer_terms() for g in gens], x, p)
    return _classified(point, on_scheme, rank, expected_codim)


def _checked_generators(basis_or_gens):
    """The generators and their ring, once they pass the checks every Jacobian needs."""
    is_basis = isinstance(basis_or_gens, GroebnerBasis)
    gens: List[Polynomial] = list(basis_or_gens.polys if is_basis else basis_or_gens)
    if not gens:
        raise ValueError("no generators")
    ctx = gens[0].ctx
    for g in gens:
        if g.ctx != ctx:
            raise ContextMismatchError("generators over different ring contexts")
        homogeneous, _ = g.is_homogeneous()
        if not homogeneous:
            raise ValueError(f"inhomogeneous generator: {g.render()}")
    return gens, ctx


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


@dataclass(frozen=True)
class ObstructionVerdict:
    kind: str
    applicable: bool
    certified: bool
    reason: Optional[str]
    witness: Dict

    def as_dict(self) -> dict:
        return asdict(self)


def _require_standard_grading(ctx):
    if any(g != 1 for g in ctx.grading):
        raise ValueError("obstruction certificates require the standard grading")


def _variable_rank_order(order):
    """Variable indices sorted descending under the order."""
    n = order.ctx.n
    key = lambda i: order.sort_key(Monomial.variable(i, n))
    return sorted(range(n), key=key, reverse=True)


def ci_obstruction(B: GroebnerBasis) -> ObstructionVerdict:
    """Complete-intersection certificate at the distinguished coordinate point."""
    _require_standard_grading(B.ctx)
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

    desc = _variable_rank_order(B.order)
    pos = {v: k for k, v in enumerate(desc)}
    blocks = [sorted(s, key=lambda v: pos[v]) for s in supports]
    first = min(range(len(blocks)), key=lambda b: pos[blocks[b][0]])
    rest = [b for b in range(len(blocks)) if b != first]
    ordered = [blocks[first]]
    if rest:
        last = min(rest, key=lambda b: -pos[blocks[b][-1]])
        ordered += [blocks[b] for b in rest if b != last] + [blocks[last]]
    top_var = ordered[0][0]

    point = ProjPoint.coordinate(B.ctx.field, n, top_var)
    codim = len(blocks)
    analysis = jacobian_rank_at(B, point, codim)
    certified = analysis.verdict == "singular"
    names = B.ctx.names
    witness = {
        "blocks": [[names[v] for v in blk] for blk in ordered],
        "point": point.render(),
        "distinguished_variable": names[top_var],
        "rank": analysis.rank,
        "codim": codim,
        "on_scheme": analysis.on_scheme,
    }
    reason = None if certified else "distinguished point did not verify as singular"
    return ObstructionVerdict(kind, True, certified, reason, witness)


@dataclass(frozen=True)
class SupportViolation:
    rule: str
    generator: str
    monomial: str

    def as_dict(self) -> dict:
        return asdict(self)


def _dim1_setting(delta: SimplicialComplex) -> bool:
    """Whether ``delta`` is one-dimensional without ghost vertices: the setting
    of ``leafless_obstruction`` and ``support_exclusions``."""
    return delta.dim == 1 and not delta.ghost_vertices()


def _check_dim1_setting(ctx, delta: SimplicialComplex, leads):
    """Reject anything but bases with leading monomials ``leads`` over a
    one-dimensional complex without ghost vertices whose non-face ideal they
    generate."""
    _require_standard_grading(ctx)
    if ctx.n != delta.n:
        raise ValueError("complex and ring have different vertex counts")
    if not _dim1_setting(delta):
        raise ValueError("this certificate is for one-dimensional complexes" if delta.dim != 1
                         else "ghost vertices present (the ideal contains linear forms)")
    if not MonomialIdeal.from_monomials(ctx, leads).same_monomials(to_ideal(delta, ctx)):
        raise ValueError("initial ideal of the basis is not the non-face ideal of the complex")


def _top_vertex_data(order, delta: SimplicialComplex):
    desc = _variable_rank_order(order)
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
    leads = B.leading_monomials()
    _check_dim1_setting(B.ctx, delta, leads)
    return _excluded_tails(B.polys, _exclusion_table(B.order, delta, leads))


def _exclusion_table(order, delta: SimplicialComplex, leads):
    """Map each of ``leads`` to its forbidden tails as ``(rule, monomial)``
    pairs, for a setting that ``_check_dim1_setting`` accepts.

    The table depends only on the order, ``delta`` and the leads, so one table
    serves every basis with those leads (every valid lift of one search).
    """
    v1, vertex, neighbors = _top_vertex_data(order, delta)
    link_top = neighbors[: 2]  # the lemma constrains the two largest link vertices
    non_neighbors = [u for u in range(1, delta.n + 1) if u != vertex and u not in neighbors]
    x = lambda u: Monomial.variable(u - 1, delta.n)  # the variable of vertex u
    top = x(vertex)
    table = {}
    for lead in leads:
        face = tuple(v + 1 for v in lead.support())
        d = lead.degree()
        targets = [("pure_power_of_top_variable", top.pow(d))]
        for l in non_neighbors:
            targets.append(("top_variable_times_non_neighbor", top.pow(d - 1).mul(x(l))))
        if vertex not in face:
            for a in link_top:
                targets.append(("top_variable_times_top_link_vertex", top.pow(d - 1).mul(x(a))))
        if vertex in face and d == 3:
            for a in link_top:
                targets.append(("degree3_top_variable_squared", top.pow(2).mul(x(a))))
        table[lead] = tuple(targets)
    return table


def _excluded_tails(polys, table) -> List[SupportViolation]:
    """The forbidden tails that ``polys`` contain, in basis order, read from
    ``table`` (``_exclusion_table`` of their leads)."""
    violations = []
    for g in polys:
        tails = {m for m, _ in g.terms[1:]}
        for rule, m in table[g.leading_monomial()]:
            if m in tails:
                violations.append(SupportViolation(rule, g.render(), g.ctx.render_monomial(m)))
    return violations


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
    point = ProjPoint.coordinate(B.ctx.field, n, v1)
    codim = n - 2
    analysis = jacobian_rank_at(B, point, codim)
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
        "point": point.render(),
        "rank": analysis.rank,
        "rank_bound": bound,
        "codim": codim,
        "degree2_rows_through_top_vertex": b1_rows,
        "remaining_rows": b2_rows,
        "support_violations": [v.as_dict() for v in violations],
    }
    reason = None if certified else "rank bound or support exclusions did not verify"
    return ObstructionVerdict(kind, True, certified, reason, witness)


def lex_obstruction(delta: SimplicialComplex, order=None) -> ObstructionVerdict:
    """No lex order admits a smooth lift when every vertex has a big link.

    The largest variable's coordinate point can be smooth only when its link
    has at most dim(delta) vertices; requiring the opposite at every vertex
    covers every permutation, so the certificate quantifies over all lex
    orders at once. When inapplicable, the free faces are reported as the
    escape hatch.
    """
    if order is not None and order.kind != "lex":
        raise ValueError("lex obstruction applies to lex orders")
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
