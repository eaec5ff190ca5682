"""Simplicial complexes on {1..n}: Stanley-Reisner translation, exact reduced
cohomology, and combinatorial property reports.

Both directions of the translation take minimal transversals: the minimal
non-faces are the minimal sets meeting every facet's complement, and the
facets are the complements of those meeting every generator's support.

Complexes are stored by their facets. Vertices missing from every facet are
ghost vertices: permitted, flagged, excluded from leaf/cone bookkeeping. The
void complex and the empty complex {()} are rejected. Faces and ridges are
enumerated once per complex and kept with it, outside its fields. Reduced
cohomology is computed by coreduction (Mrozek & Batko, "Coreduction homology
algorithm", Discrete Comput. Geom. 2009), so ``linalg``'s sparse ranks see
only the cells that survive it. ``property_report`` applies Reisner's
criterion by recursion on vertex links, judging each distinct relabelled link
once per report.
"""

from __future__ import annotations

from itertools import combinations
from typing import Dict, List, Optional, Tuple

from .fields import QQ, Field
from .groebner import MonomialIdeal
from .linalg import rank_int, rank_mod_p
from .records import Record
from .ring import Monomial, RingContext, standard_context


class SimplicialComplex(Record):
    """Facets as sorted vertex tuples (1-based), canonically ordered."""

    def __init__(self, n: int, facets: Tuple[Tuple[int, ...], ...]):
        if n < 1:
            raise ValueError("complex needs at least one vertex slot")
        if not facets:
            raise ValueError("the void complex is rejected")
        if facets == ((),):
            raise ValueError("the empty complex {()} is rejected")
        seen = set()
        for f in facets:
            if list(f) != sorted(set(f)):
                raise ValueError(f"facet {f} is not a sorted duplicate-free tuple")
            if f and not (1 <= f[0] and f[-1] <= n):
                raise ValueError(f"facet {f} has vertices outside 1..{n}")
            seen.add(frozenset(f))
        if len(seen) != len(facets):
            raise ValueError("duplicate facets")
        if any(f < g for f in seen for g in seen):
            raise ValueError("a facet contains another")
        if list(facets) != sorted(facets):
            raise ValueError("facets not canonically sorted")
        self.__dict__.update(n=n, facets=facets)

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
        return tuple(sorted(set().union(*self.facets)))

    def ghost_vertices(self) -> Tuple[int, ...]:
        present = set(self.vertices())
        return tuple(v for v in range(1, self.n + 1) if v not in present)

    def is_pure(self) -> bool:
        return len({len(f) for f in self.facets}) == 1

    def has_face(self, face) -> bool:
        fs = set(face)
        return any(fs <= set(g) for g in self.facets)

    def faces_by_dim(self) -> Tuple[Tuple[Tuple[int, ...], ...], ...]:
        """All faces grouped by dimension, each group sorted lexicographically;
        enumerated on first use and kept with the complex, not as a field."""
        if "_faces" not in self.__dict__:
            groups: List[set] = [set() for _ in range(self.dim + 1)]
            for f in self.facets:
                for size in range(1, len(f) + 1):
                    groups[size - 1].update(combinations(f, size))
            self.__dict__["_faces"] = tuple(tuple(sorted(g)) for g in groups)
        return self._faces

    def f_vector(self) -> Tuple[int, ...]:
        return tuple(len(g) for g in self.faces_by_dim())

    def free_faces(self) -> Tuple[Tuple[int, ...], ...]:
        """Nonempty faces in exactly one facet, that facet one vertex larger: the
        ridges of one facet that no facet two or more vertices larger contains
        ({1,3,4} contains the ridge (1,) of {1,2}). By size, then lexicographically."""
        small = min(len(g) for g in self.facets)
        larger = [set(g) for g in self.facets if len(g) > small]
        found = [
            f for f, held in self._ridges().items()
            if f and len(held) == 1 and not any(len(g) > len(f) + 1 and g.issuperset(f) for g in larger)
        ]
        return tuple(sorted(found, key=lambda f: (len(f), f)))

    def _ridges(self) -> Dict[Tuple[int, ...], List[int]]:
        """Each ridge g - v of a facet g, mapped to the indices of the facets
        holding it; built in one pass on first use and kept."""
        if "_held" not in self.__dict__:
            held: Dict[Tuple[int, ...], List[int]] = {}
            for i, g in enumerate(self.facets):
                for ridge in combinations(g, len(g) - 1):
                    held.setdefault(ridge, []).append(i)
            self.__dict__["_held"] = held
        return self._held

    def render(self) -> str:
        return "facets: " + "; ".join(" ".join(str(v) for v in f) for f in self.facets)


class Link(Record):
    """A link relabelled to 1..m; ``vertex_map[i]`` is the original vertex of label i + 1."""

    def __init__(self, complex: SimplicialComplex, vertex_map: Tuple[int, ...]):
        self.__dict__.update(complex=complex, vertex_map=vertex_map)


def link(delta: SimplicialComplex, face) -> Link:
    """Link of a face, vertices relabeled to 1..m with the mapping recorded."""
    face = tuple(sorted(set(face)))
    if not delta.has_face(face):
        raise ValueError(f"{face} is not a face")
    if face in delta.facets:
        raise ValueError("link of a facet is the empty complex {()}")
    return Link(*_relabelled_link(delta, face))


def _minimal_transversals(blocks) -> List[int]:
    """The inclusion-minimal sets meeting every block, all as bitmasks (Berge,
    "Hypergraphs", 1989). Per block, a set meeting it stays; each other set grows
    by one vertex of it, dropped if a kept set lies inside (the sets before were
    incomparable and missed the block, so nothing else can). An empty block leaves none."""
    found = [0]
    for block in blocks:
        kept = [t for t in found if t & block]
        bits = [1 << i for i in range(block.bit_length()) if block >> i & 1]
        grown = (t | b for t in found if not t & block for b in bits)
        found = kept + [g for g in grown if not any(k & g == k for k in kept)]
    return found


def complex_from_squarefree_ideal(M: MonomialIdeal) -> SimplicialComplex:
    """Faces are the subsets whose monomial avoids the ideal, so the facets are
    the complements of the minimal sets meeting every generator's support."""
    if not M.is_squarefree():
        raise ValueError("ideal is not square-free")
    n = M.ctx.n
    if any(g.is_one() for g in M.gens):
        raise ValueError("unit ideal corresponds to the void complex")
    found = _minimal_transversals(sum(1 << i for i in g.support()) for g in M.gens)
    return SimplicialComplex(n, tuple(sorted(tuple(v + 1 for v in range(n) if not t >> v & 1) for t in found)))


def vertex_context(n: int, field: Field = QQ) -> RingContext:
    """The ring x1..xn of a complex on n vertices, vertex i as variable xi."""
    return standard_context([f"x{i}" for i in range(1, n + 1)], field)


def to_ideal(delta: SimplicialComplex, ctx: Optional[RingContext] = None) -> MonomialIdeal:
    """Square-free ideal generated by the minimal non-faces, the minimal sets meeting
    every facet's complement, in ``ctx`` (``vertex_context`` by default)."""
    if ctx is None:
        ctx = vertex_context(delta.n)
    if ctx.n != delta.n:
        raise ValueError("complex and ring have different vertex counts")
    full = (1 << delta.n) - 1
    found = _minimal_transversals(full ^ sum(1 << (v - 1) for v in f) for f in delta.facets)
    return MonomialIdeal.from_monomials(ctx, [Monomial(tuple(t >> i & 1 for i in range(delta.n))) for t in found])


class CohomologyProfile(Record):
    """dims[i] = dim of reduced cohomology in degree i, for i = 0 .. dim."""

    def __init__(self, field: Field, dims: Tuple[int, ...], reduced_euler: int):
        self.__dict__.update(field=field, dims=dims, reduced_euler=reduced_euler)

    def is_acyclic(self) -> bool:
        return all(d == 0 for d in self.dims)

    def as_dict(self) -> dict:
        return {
            "field": self.field.render(),
            "dims": list(self.dims),
            "reduced_euler_characteristic": self.reduced_euler,
            "acyclic": self.is_acyclic(),
        }


def reduced_cohomology(delta: SimplicialComplex, field: Field = QQ) -> CohomologyProfile:
    """By coreduction: while a live cell of the augmented complex has exactly one
    live cell in its boundary, both are deleted. Their incidence is ±1, a unit
    over every field, so the other boundaries become plain restrictions and the
    homology is kept (Kaczynski, Mrozek & Slusarek, 1998). Ranks are taken only
    of the survivors' boundaries; on a sphere one top cell survives, so none."""
    groups = delta.faces_by_dim()
    cells = [()] + [f for group in groups for f in group]
    index = {f: i for i, f in enumerate(cells)}
    # combinations drop the last vertex first: signs (-1)^k scale rows by ±1
    bd = [[]] + [[index[g] for g in combinations(f, len(f) - 1)] for f in cells[1:]]
    cob: List[List[int]] = [[] for _ in cells]
    for c, faces in enumerate(bd):
        for b in faces:
            cob[b].append(c)
    live = [len(f) for f in cells]  # live boundary cells; below 0 once deleted
    queue = list(range(1, len(groups[0]) + 1))  # the vertices
    for a in queue:
        if live[a] == 1:
            for b in bd[a]:
                if live[b] >= 0:
                    break
            live[a] = live[b] = -1
            for c in cob[a] + cob[b]:
                live[c] -= 1
                if live[c] == 1:
                    queue.append(c)
    d, p = len(groups) - 1, field.characteristic()
    kept, rows = [0] * (d + 2), [[] for _ in range(d + 2)]  # rows[i]: boundaries out of degree i
    for c in range(1, len(cells)):
        if live[c] >= 0:
            i = len(cells[c]) - 1
            kept[i] += 1
            if live[c]:
                rows[i].append({b: -1 if k % 2 else 1 for k, b in enumerate(bd[c]) if live[b] >= 0})
    ranks = [(rank_mod_p(r, p) if p else rank_int(r)) if r else 0 for r in rows]
    dims = tuple(kept[i] - ranks[i] - ranks[i + 1] for i in range(d + 1))
    euler = sum((-1) ** i * dims[i] for i in range(d + 1))
    return CohomologyProfile(field, dims, euler)


class ComplexPropertyReport(Record):
    """Combinatorial verdicts on a complex; ``cohomology``, the complex's own, is not part of ``as_dict``."""

    def __init__(
        self, pure: bool, strongly_connected: bool, normal: bool, cohen_macaulay: bool,
        buchsbaum: bool, acyclic: bool, negative_a_invariant_given_cm: bool,
        leaves: Tuple[int, ...], free_faces: Tuple[Tuple[int, ...], ...],
        cone_points: Tuple[int, ...], ghost_vertices: Tuple[int, ...], cohomology: CohomologyProfile,
    ):
        self.__dict__.update(
            pure=pure, strongly_connected=strongly_connected, normal=normal,
            cohen_macaulay=cohen_macaulay, buchsbaum=buchsbaum, acyclic=acyclic,
            negative_a_invariant_given_cm=negative_a_invariant_given_cm, leaves=leaves,
            free_faces=free_faces, cone_points=cone_points, ghost_vertices=ghost_vertices,
            cohomology=cohomology,
        )

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
    """Every two facets joined by a chain with codimension-one intersections,
    walked through the facets that hold each ridge."""
    if not delta.is_pure():
        return False
    held, facets = delta._ridges(), delta.facets
    seen, stack = {0}, [0]
    while stack:
        g = facets[stack.pop()]
        fresh = {b for ridge in combinations(g, len(g) - 1) for b in held[ridge]} - seen
        seen |= fresh
        stack += fresh
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
    lk.__dict__.update(n=len(old), facets=tuple(tuple([relabel[v] for v in r]) for r in rests))
    return lk, tuple(old)


def _vertex_link_verdicts(delta: SimplicialComplex, field: Field, memo: dict):
    """Whether every vertex link of ``delta`` is Cohen-Macaulay, and whether every
    one is normal; ``memo`` maps each relabelled link's facets to its own two verdicts."""
    links_cm = links_normal = True
    for v in delta.vertices():
        if (v,) in delta.facets:
            continue  # its link {()} imposes no condition
        lk = _relabelled_link(delta, (v,))[0]
        verdicts = memo.get(lk.facets)
        if verdicts is None:
            cm, normal = _vertex_link_verdicts(lk, field, memo)
            verdicts = memo[lk.facets] = (
                not any(reduced_cohomology(lk, field).dims[: lk.dim]) and cm,
                normal and is_strongly_connected(lk),
            )
        links_cm &= verdicts[0]
        links_normal &= verdicts[1]
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
    counts = {v: sum(v in f for f in delta.facets) for v in delta.vertices()}
    leaves = tuple(v for v in counts if counts[v] == 1)
    cone_points = tuple(v for v in counts if counts[v] == len(delta.facets))
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
