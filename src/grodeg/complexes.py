"""Simplicial complexes on {1..n}: Stanley-Reisner translation, exact reduced
cohomology, and combinatorial property reports.

Complexes are stored by their facets. Vertices missing from every facet are
ghost vertices: permitted, flagged, excluded from leaf/cone bookkeeping. The
void complex and the empty complex {()} are rejected. Reduced cohomology is
computed from exact ranks of the coboundary matrices of the augmented cochain
complex, faces ordered lexicographically, standard alternating signs; the
matrices are built as sparse rows for ``linalg``'s sparse elimination.
``property_report`` applies Reisner's criterion by recursion on vertex links,
judging each distinct relabelled link once per report.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Dict, List, Optional, Tuple

from .fields import QQ, Field
from .groebner import MonomialIdeal
from .linalg import rank_int, rank_mod_p
from .ring import Monomial, RingContext, standard_context


@dataclass(frozen=True)
class SimplicialComplex:
    """Facets as sorted vertex tuples (1-based), canonically ordered."""

    n: int
    facets: Tuple[Tuple[int, ...], ...]

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("complex needs at least one vertex slot")
        if not self.facets:
            raise ValueError("the void complex is rejected")
        if self.facets == ((),):
            raise ValueError("the empty complex {()} is rejected")
        seen = set()
        for f in self.facets:
            if list(f) != sorted(set(f)):
                raise ValueError(f"facet {f} is not a sorted duplicate-free tuple")
            if f and not (1 <= f[0] and f[-1] <= self.n):
                raise ValueError(f"facet {f} has vertices outside 1..{self.n}")
            seen.add(frozenset(f))
        if len(seen) != len(self.facets):
            raise ValueError("duplicate facets")
        for f in seen:
            for g in seen:
                if f < g:
                    raise ValueError("a facet contains another")
        if list(self.facets) != sorted(self.facets):
            raise ValueError("facets not canonically sorted")

    @classmethod
    def from_facets(cls, n: int, facets) -> "SimplicialComplex":
        """Normalize: dedupe, drop non-maximal faces, sort canonically."""
        sets = {frozenset(f) for f in facets}
        maximal = [f for f in sets if not any(f < g for g in sets)]
        canon = sorted(tuple(sorted(f)) for f in maximal)
        return cls(n, tuple(canon))

    @property
    def dim(self) -> int:
        return max(len(f) for f in self.facets) - 1

    def vertices(self) -> Tuple[int, ...]:
        out = set()
        for f in self.facets:
            out.update(f)
        return tuple(sorted(out))

    def ghost_vertices(self) -> Tuple[int, ...]:
        present = set(self.vertices())
        return tuple(v for v in range(1, self.n + 1) if v not in present)

    def is_pure(self) -> bool:
        sizes = {len(f) for f in self.facets}
        return len(sizes) == 1

    def has_face(self, face) -> bool:
        fs = set(face)
        return any(fs <= set(g) for g in self.facets)

    def faces_by_dim(self) -> List[List[Tuple[int, ...]]]:
        """All faces grouped by dimension, each group sorted lexicographically."""
        groups: List[set] = [set() for _ in range(self.dim + 1)]
        for f in self.facets:
            for size in range(1, len(f) + 1):
                for sub in combinations(f, size):
                    groups[size - 1].add(sub)
        return [sorted(g) for g in groups]

    def all_faces(self) -> List[Tuple[int, ...]]:
        """Nonempty faces, ascending by dimension then lexicographic."""
        out: List[Tuple[int, ...]] = []
        for group in self.faces_by_dim():
            out.extend(group)
        return out

    def f_vector(self) -> Tuple[int, ...]:
        return tuple(len(g) for g in self.faces_by_dim())

    def free_faces(self) -> Tuple[Tuple[int, ...], ...]:
        """Nonempty faces in exactly one facet, that facet one vertex larger.

        Listed in ``all_faces`` order.
        """
        facet_sets = [set(g) for g in self.facets]
        found = set()
        for g in self.facets:
            for k in range(len(g)):
                f = g[:k] + g[k + 1 :]
                if f and sum(1 for s in facet_sets if s.issuperset(f)) == 1:
                    found.add(f)
        return tuple(sorted(found, key=lambda f: (len(f), f)))

    def render(self) -> str:
        return "facets: " + "; ".join(" ".join(str(v) for v in f) for f in self.facets)


@dataclass(frozen=True)
class Link:
    complex: SimplicialComplex
    vertex_map: Tuple[int, ...]  # new label i+1 -> original vertex vertex_map[i]


def link(delta: SimplicialComplex, face) -> Link:
    """Link of a face, vertices relabeled to 1..m with the mapping recorded."""
    face = tuple(sorted(set(face)))
    if not delta.has_face(face):
        raise ValueError(f"{face} is not a face")
    if face in delta.facets:
        raise ValueError("link of a facet is the empty complex {()}")
    return Link(*_relabelled_link(delta, face))


def complex_from_squarefree_ideal(M: MonomialIdeal) -> SimplicialComplex:
    """Faces are the subsets whose monomial avoids the ideal."""
    if not M.is_squarefree():
        raise ValueError("ideal is not square-free")
    n = M.ctx.n
    if any(g.is_one() for g in M.gens):
        raise ValueError("unit ideal corresponds to the void complex")
    supports = [frozenset(v + 1 for v in g.support()) for g in M.gens]
    candidates = {frozenset(range(1, n + 1))}
    for s in supports:
        nxt = set()
        for c in candidates:
            if s <= c:
                for v in s:
                    nxt.add(c - {v})
            else:
                nxt.add(c)
        candidates = nxt
    return SimplicialComplex.from_facets(n, candidates)


def to_ideal(delta: SimplicialComplex, ctx: Optional[RingContext] = None) -> MonomialIdeal:
    """Square-free ideal generated by the minimal non-faces."""
    if ctx is None:
        ctx = standard_context([f"x{i}" for i in range(1, delta.n + 1)], QQ)
    if ctx.n != delta.n:
        raise ValueError("ring has a different number of variables than the complex")
    gens = []
    max_size = min(delta.n, delta.dim + 2)
    for size in range(1, max_size + 1):
        for sub in combinations(range(1, delta.n + 1), size):
            if delta.has_face(sub):
                continue
            if any(set(g) <= set(sub) for g in gens):
                continue
            if all(delta.has_face(sub[:k] + sub[k + 1 :]) for k in range(size)):
                gens.append(sub)
    monos = [
        Monomial(tuple(1 if v + 1 in set(g) else 0 for v in range(delta.n)))
        for g in gens
    ]
    return MonomialIdeal.from_monomials(ctx, monos)


@dataclass(frozen=True)
class CohomologyProfile:
    """dims[i] = dim of reduced cohomology in degree i, for i = 0 .. dim."""

    field: Field
    dims: Tuple[int, ...]
    reduced_euler: int

    def is_acyclic(self) -> bool:
        return all(d == 0 for d in self.dims)

    def as_dict(self) -> dict:
        return {
            "field": self.field.render(),
            "dims": list(self.dims),
            "reduced_euler_characteristic": self.reduced_euler,
            "acyclic": self.is_acyclic(),
        }


def _coboundary_matrix(lower: List[Tuple[int, ...]], upper: List[Tuple[int, ...]]):
    """Sparse rows ``{column: ±1}`` of the coboundary from i-cochains to (i+1)-cochains."""
    col_of: Dict[Tuple[int, ...], int] = {f: j for j, f in enumerate(lower)}
    return [
        {col_of[g[:k] + g[k + 1 :]]: -1 if k % 2 else 1 for k in range(len(g))} for g in upper
    ]


def reduced_cohomology(delta: SimplicialComplex, field: Field = QQ) -> CohomologyProfile:
    groups = delta.faces_by_dim()
    d = delta.dim
    f = [len(g) for g in groups]
    p = field.characteristic()

    # rank of each coboundary; degree -1 is the augmentation (all-ones column)
    ranks = [1 if groups[0] else 0]
    for i in range(d):
        rows = _coboundary_matrix(groups[i], groups[i + 1])
        ranks.append(rank_mod_p(rows, p) if p else rank_int(rows))
    ranks.append(0)  # coboundary out of top degree

    dims = tuple(f[i] - ranks[i + 1] - ranks[i] for i in range(d + 1))
    euler = sum((-1) ** i * dims[i] for i in range(d + 1))
    return CohomologyProfile(field, dims, euler)


@dataclass(frozen=True)
class ComplexPropertyReport:
    pure: bool
    strongly_connected: bool
    normal: bool
    cohen_macaulay: bool
    buchsbaum: bool
    acyclic: bool
    negative_a_invariant_given_cm: bool
    leaves: Tuple[int, ...]
    free_faces: Tuple[Tuple[int, ...], ...]
    cone_points: Tuple[int, ...]
    ghost_vertices: Tuple[int, ...]
    cohomology: CohomologyProfile  # of the complex itself; not part of as_dict

    def as_dict(self) -> dict:
        return {
            "pure": self.pure,
            "strongly_connected": self.strongly_connected,
            "normal": self.normal,
            "cohen_macaulay": self.cohen_macaulay,
            "buchsbaum": self.buchsbaum,
            "acyclic": self.acyclic,
            "negative_a_invariant_given_cm": self.negative_a_invariant_given_cm,
            "leaves": list(self.leaves),
            "free_faces": [list(f) for f in self.free_faces],
            "cone_points": list(self.cone_points),
            "ghost_vertices": list(self.ghost_vertices),
        }


def is_strongly_connected(delta: SimplicialComplex) -> bool:
    """Every two facets joined by a chain with codimension-one intersections."""
    if len(delta.facets) == 1:
        return True
    if not delta.is_pure():
        return False
    facets = [set(f) for f in delta.facets]
    size = len(facets[0])
    seen = {0}
    queue = [0]
    while queue:
        a = queue.pop()
        for b in range(len(facets)):
            if b not in seen and len(facets[a] & facets[b]) == size - 1:
                seen.add(b)
                queue.append(b)
    return len(seen) == len(facets)


def _relabelled_link(delta: SimplicialComplex, face: Tuple[int, ...]):
    """The link of a face of ``delta`` that is not a facet, unchecked, relabelled
    to 1..m, and its vertex map.

    The sets g minus face, over the facets g containing the face, are nonempty,
    distinct and pairwise incomparable, so they are the link's facets as they
    are. They also keep the canonical order of the g: where two facets first
    differ, the smaller one holds a vertex the other lacks, so not a vertex of
    the face. Relabelling is increasing, so nothing needs checking or sorting.
    """
    fs = set(face)
    rests = [[v for v in g if v not in fs] for g in delta.facets if fs.issubset(g)]
    old = sorted(set().union(*rests))
    relabel = {v: i + 1 for i, v in enumerate(old)}
    lk = object.__new__(SimplicialComplex)
    object.__setattr__(lk, "n", len(old))
    object.__setattr__(lk, "facets", tuple(tuple([relabel[v] for v in r]) for r in rests))
    return lk, tuple(old)


def _vertex_link_verdicts(delta: SimplicialComplex, field: Field, memo: dict):
    """Whether every vertex link of ``delta`` is Cohen-Macaulay, and whether every
    one is normal; ``memo`` maps each relabelled link to its own two verdicts."""
    links_cm = links_normal = True
    for v in delta.vertices():
        if (v,) in delta.facets:
            continue  # its link {()} imposes no condition
        lk = _relabelled_link(delta, (v,))[0]
        if lk not in memo:
            cm, normal = _vertex_link_verdicts(lk, field, memo)
            memo[lk] = (
                not any(reduced_cohomology(lk, field).dims[: lk.dim]) and cm,
                normal and is_strongly_connected(lk),
            )
        links_cm &= memo[lk][0]
        links_normal &= memo[lk][1]
    return links_cm, links_normal


def property_report(delta: SimplicialComplex, field: Field = QQ) -> ComplexPropertyReport:
    """Reisner's criterion by vertex links, as lk_{lk v}(G) = lk(G + v): delta is
    Cohen-Macaulay iff H~_i(delta) = 0 for i < dim delta and every vertex link is;
    Buchsbaum iff pure and every vertex link is Cohen-Macaulay; normal iff
    strongly connected and every vertex link is normal."""
    own = reduced_cohomology(delta, field)
    pure = delta.is_pure()
    strongly_connected = is_strongly_connected(delta)
    links_cm, links_normal = _vertex_link_verdicts(delta, field, {})
    facet_sets = [set(f) for f in delta.facets]
    counts = {}
    for v in delta.vertices():
        counts[v] = sum(1 for f in facet_sets if v in f)
    leaves = tuple(v for v in delta.vertices() if counts[v] == 1)
    cone_points = tuple(v for v in delta.vertices() if counts[v] == len(facet_sets))
    return ComplexPropertyReport(
        pure=pure,
        strongly_connected=strongly_connected,
        normal=strongly_connected and links_normal,
        cohen_macaulay=links_cm and not any(own.dims[: delta.dim]),
        buchsbaum=pure and links_cm,
        acyclic=own.is_acyclic(),
        negative_a_invariant_given_cm=own.dims[delta.dim] == 0,
        leaves=leaves,
        free_faces=delta.free_faces(),
        cone_points=cone_points,
        ghost_vertices=delta.ghost_vertices(),
        cohomology=own,
    )
