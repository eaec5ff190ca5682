"""Simplicial complexes on {1..n}: Stanley-Reisner translation, exact reduced
cohomology, and combinatorial property reports.

Both directions of the translation take minimal transversals: the minimal
non-faces are the minimal sets meeting every facet's complement, and the
facets are the complements of those meeting every generator's support.

Complexes are stored by their facets. Vertices missing from every facet are
ghost vertices: permitted, flagged, excluded from leaf/cone bookkeeping. The
void complex and the empty complex {()} are rejected. Faces are vertex
bitmasks (vertex v is bit v - 1): the submasks of the facet masks, enumerated
once per complex with their incidences and kept with it, outside its fields,
for its f-vector, free faces, strong connectivity and cohomology. Reduced
cohomology is computed by coreduction (Mrozek & Batko, "Coreduction homology
algorithm", Discrete Comput. Geom. 2009), so ``linalg``'s sparse ranks see
only the cells that survive it. ``property_report`` applies Reisner's
criterion by recursion on vertex links, each a sorted tuple of facet masks
compressed to the low bits: the recursion's input and its memo key, so each
distinct relabelled link is judged once per report.
"""

from __future__ import annotations

from functools import reduce
from operator import or_
from typing import List, Optional, Tuple

from .fields import QQ, Field
from .groebner import MonomialIdeal
from .linalg import rank_int, rank_mod_p
from .records import Record, replace
from .ring import Monomial, RingContext, standard_context


def _mask(face) -> int:
    """The bitmask of a set of vertices: vertex v is bit v - 1."""
    return sum(1 << (v - 1) for v in face)


def _bits(mask: int) -> List[int]:
    """The one-bit submasks of a mask, lowest first."""
    return [1 << i for i in range(mask.bit_length()) if mask >> i & 1]


def _members(mask: int) -> Tuple[int, ...]:
    """The vertices of a bitmask, increasing (bit v - 1 has bit length v)."""
    return tuple(b.bit_length() for b in _bits(mask))


def _face_lattice(masks):
    """Every face of the complex with facet masks ``masks``, the empty one
    included, and its incidences: ``(faces, below, above)``, the facets first.
    ``below[i]`` indexes faces[i] ^ b over the bits b of faces[i], lowest first,
    and ``above[i]`` the faces whose ``below`` holds i. Each face is indexed
    when a face one vertex larger first reaches it, and then walked once."""
    faces, below, above = list(masks), [], [[] for _ in masks]
    index = {f: i for i, f in enumerate(faces)}
    for c, f in enumerate(faces):  # grows while it is walked
        row, rest = [], f
        while rest:
            b = rest & -rest
            rest ^= b
            i = index.get(f ^ b)
            if i is None:
                i = index[f ^ b] = len(faces)
                faces.append(f ^ b)
                above.append([])
            row.append(i)
            above[i].append(c)
        below.append(row)
    return faces, below, above


class SimplicialComplex(Record):
    """Facets as sorted vertex tuples (1-based), canonically ordered."""

    def __init__(self, n: int, facets: Tuple[Tuple[int, ...], ...], *, _canonical: bool = False):
        """``_canonical`` (keyword-only, so not a field) vouches that the facets
        are sorted, distinct, maximal and in order, as ``from_facets``,
        ``link`` and ``_relabelled`` build them."""
        if n < 1:
            raise ValueError("complex needs at least one vertex slot")
        if not facets:
            raise ValueError("the void complex is rejected")
        if facets == ((),):
            raise ValueError("the empty complex {()} is rejected")
        for f in facets:
            if not _canonical and list(f) != sorted(set(f)):
                raise ValueError(f"facet {f} is not a sorted duplicate-free tuple")
            if f and not (1 <= f[0] and f[-1] <= n):
                raise ValueError(f"facet {f} has vertices outside 1..{n}")
        if not _canonical:
            seen = {frozenset(f) for f in facets}
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
        canon = tuple(sorted(tuple(sorted(f)) for f in sets if not any(f < g for g in sets)))
        return cls(n, canon, _canonical=True)

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

    def _masks(self) -> Tuple[int, ...]:
        return tuple(map(_mask, self.facets))

    def _lattice(self):
        """``_face_lattice`` of the facet masks, the one face enumeration: built
        on first use and kept with the complex, not as a field."""
        if "_faces" not in self.__dict__:
            self.__dict__["_faces"] = _face_lattice(self._masks())
        return self._faces

    def faces_by_dim(self) -> Tuple[Tuple[Tuple[int, ...], ...], ...]:
        """All faces grouped by dimension, each group sorted lexicographically:
        the nonempty faces of the one enumeration, as vertex tuples."""
        groups: List[List[Tuple[int, ...]]] = [[] for _ in range(self.dim + 2)]
        for f in self._lattice()[0]:
            groups[f.bit_count()].append(_members(f))
        return tuple(tuple(sorted(g)) for g in groups[1:])

    def f_vector(self) -> Tuple[int, ...]:
        sizes = list(map(len, self._lattice()[1]))
        return tuple(map(sizes.count, range(1, self.dim + 2)))

    def free_faces(self) -> Tuple[Tuple[int, ...], ...]:
        """Nonempty faces in exactly one facet, that facet one vertex larger: those
        with exactly one face one vertex larger, and that one a facet (every
        facet holding the face holds such a face). By size, then lexicographically."""
        faces, _, above = self._lattice()
        found = [_members(f) for f, up in zip(faces, above) if f and len(up) == 1 and not above[up[0]]]
        return tuple(sorted(found, key=lambda f: (len(f), f)))

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
    masks, f = delta._masks(), _mask(face)
    old = _members(reduce(or_, (g for g in masks if g & f == f)) ^ f)
    facets = tuple(sorted(map(_members, _link(masks, f))))
    return Link(SimplicialComplex(len(old), facets, _canonical=True), old)


def _minimal_transversals(blocks) -> List[int]:
    """The inclusion-minimal sets meeting every block, all as bitmasks (Berge,
    "Hypergraphs", 1989). Per block, a set meeting it stays; each other set grows
    by one vertex of it, dropped if a kept set lies inside (the sets before were
    incomparable and missed the block, so nothing else can). An empty block leaves none."""
    found = [0]
    for block in blocks:
        kept = [t for t in found if t & block]
        bits = _bits(block)
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
    return SimplicialComplex(n, tuple(sorted(_members((1 << n) - 1 ^ t) for t in found)))


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
    found = _minimal_transversals(full ^ g for g in delta._masks())
    # minimal and distinct already: only MonomialIdeal's canonical order is left to make
    gens = [Monomial(tuple(t >> i & 1 for i in range(delta.n))) for t in found]
    gens.sort(key=lambda m: (m.graded_degree(ctx.grading), m.exps))
    return MonomialIdeal(ctx, tuple(gens))


class CohomologyProfile(Record):
    """dims[i] = dim of reduced cohomology in degree i, for i = 0 .. dim."""

    def __init__(self, field: Field, dims: Tuple[int, ...], reduced_euler: int):
        self.__dict__.update(field=field, dims=dims, reduced_euler=reduced_euler)

    def is_acyclic(self) -> bool:
        return all(d == 0 for d in self.dims)

    def as_dict(self) -> dict:
        return {
            "field": self.field.render(),
            "dims": self.dims,
            "reduced_euler_characteristic": self.reduced_euler,
            "acyclic": self.is_acyclic(),
        }


def reduced_cohomology(delta: SimplicialComplex, field: Field = QQ) -> CohomologyProfile:
    """Reduced cohomology over ``field`` by coreduction, read off the complex's
    one face enumeration, its faces as bitmasks (``_cohomology``)."""
    return _cohomology(delta._lattice(), field)


def _cohomology(lattice, field: Field) -> CohomologyProfile:
    """The reduced cohomology of the complex with face lattice ``lattice``
    (``_face_lattice``), whose faces, the empty one included, are the cells.

    By coreduction: while a live cell of the augmented complex has exactly one
    live cell in its boundary, both are deleted. Their incidence is ±1, a unit
    over every field, so the other boundaries become plain restrictions and the
    homology is kept (Kaczynski, Mrozek & Slusarek, 1998). Ranks are taken only
    of the survivors' boundaries; on a sphere one top cell survives, so none."""
    _, below, above = lattice  # below[c]'s k-th entry drops the k-th lowest vertex: sign (-1)^k
    live = list(map(len, below))  # live boundary cells; below 0 once deleted
    queue = [c for c, n in enumerate(live) if n == 1]  # the vertices
    for a in queue:
        if live[a] == 1:
            for b in below[a]:
                if live[b] >= 0:
                    break
            live[a] = live[b] = -1
            for c in above[a] + above[b]:
                live[c] -= 1
                if live[c] == 1:
                    queue.append(c)
    d, p = max(map(len, below)) - 1, field.characteristic()
    kept, rows = [0] * (d + 2), [[] for _ in range(d + 2)]  # rows[i]: boundaries out of degree i
    for c, row in enumerate(below):
        if row and live[c] >= 0:
            i = len(row) - 1
            kept[i] += 1
            if live[c]:
                rows[i].append({b: -1 if k % 2 else 1 for k, b in enumerate(row) if live[b] >= 0})
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
            "leaves": self.leaves,
            "free_faces": self.free_faces,
            "cone_points": self.cone_points,
            "ghost_vertices": self.ghost_vertices,
        }


def _relabelled(delta: SimplicialComplex, props: ComplexPropertyReport, s):
    """``delta`` and its property report with each vertex v renamed s[v - 1] + 1,
    for a permutation s of range(n).

    The verdicts and the cohomology are kept, as a relabelling changes neither.
    Facets, leaves, free faces, cone points and ghost vertices are renamed and
    sorted again as ``from_facets`` and ``property_report`` sort them.
    """
    name = (0, *(i + 1 for i in s))
    face = lambda f: tuple(sorted(map(name.__getitem__, f)))
    image = SimplicialComplex(delta.n, tuple(sorted(map(face, delta.facets))), _canonical=True)
    return image, replace(
        props, leaves=face(props.leaves), cone_points=face(props.cone_points),
        free_faces=tuple(sorted(map(face, props.free_faces), key=lambda f: (len(f), f))),
        ghost_vertices=face(props.ghost_vertices),
    )


def is_strongly_connected(delta: SimplicialComplex) -> bool:
    """Every two facets joined by a chain with codimension-one intersections."""
    return _strongly_connected(delta._lattice(), len(delta.facets))


def _strongly_connected(lattice, facets: int) -> bool:
    """``is_strongly_connected`` of the complex with face lattice ``lattice``
    and that many facets, the lattice's first faces: pure, and every facet
    reached from the first through the faces above each of its ridges."""
    _, below, above = lattice
    if len({len(below[c]) for c in range(facets)}) > 1:
        return False
    seen, stack = {0}, [0]
    while stack:
        fresh = {g for ridge in below[stack.pop()] for g in above[ridge]} - seen
        seen |= fresh
        stack += fresh
    return len(seen) == facets


def _link(masks, face: int) -> Tuple[int, ...]:
    """The link of the face mask ``face`` in the complex with facet masks
    ``masks``, relabelled: the masks g ^ face of the facets g holding the face,
    with each gap below their top vertex closed, highest first, by moving the
    bits above it one place down, and sorted; () when the face is a facet. Two
    links are equal after relabelling to 1..m exactly when these tuples are."""
    rests = [g ^ face for g in masks if g & face == face]
    union = reduce(or_, rests)
    for gap in reversed(_bits((1 << union.bit_length()) - 1 ^ union)):
        rests = [r & gap - 1 | r >> 1 & -gap for r in rests]
    return tuple(sorted(rests)) if union else ()


def _vertex_link_verdicts(masks, field: Field, memo: dict):
    """Whether every vertex link of the complex with facet masks ``masks`` is
    Cohen-Macaulay, and whether every one is normal; ``memo`` maps each link,
    as ``_link`` gives it, to its own two verdicts."""
    links_cm = links_normal = True
    for b in _bits(reduce(or_, masks)):
        lk = _link(masks, b)
        if not lk:
            continue  # its link {()} imposes no condition
        verdicts = memo.get(lk)
        if verdicts is None:
            cm, normal = _vertex_link_verdicts(lk, field, memo)
            lattice = _face_lattice(lk)
            verdicts = memo[lk] = (
                not any(_cohomology(lattice, field).dims[:-1]) and cm,
                normal and _strongly_connected(lattice, len(lk)),
            )
        links_cm &= verdicts[0]
        links_normal &= verdicts[1]
    return links_cm, links_normal


def property_report(delta: SimplicialComplex, field: Field = QQ) -> ComplexPropertyReport:
    """Reisner's criterion by vertex links, as lk_{lk v}(G) = lk(G + v): delta is
    Cohen-Macaulay iff H~_i(delta) = 0 for i < dim delta and every vertex link is;
    Buchsbaum iff pure and every vertex link is Cohen-Macaulay; normal iff
    strongly connected and every vertex link is normal. Everything is read off
    the facet masks and the complex's one face enumeration; the links recurse
    on ``_link``'s tuples, which key the memo, and no complex is built for them."""
    own = reduced_cohomology(delta, field)
    pure = delta.is_pure()
    strongly_connected = is_strongly_connected(delta)
    links_cm, links_normal = _vertex_link_verdicts(delta._masks(), field, {})
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
