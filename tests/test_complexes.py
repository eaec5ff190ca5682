"""Simplicial complexes: validation, links, cohomology, property reports."""

import itertools
import random

import pytest

import grodeg.complexes as complexes_module
from grodeg import (
    Monomial,
    MonomialIdeal,
    MonomialOrder,
    PrimeField,
    QQ,
    SimplicialComplex,
    complex_from_squarefree_ideal,
    is_strongly_connected,
    link,
    property_report,
    reduced_cohomology,
    standard_context,
    to_ideal,
)

from conftest import (
    ctx_n, ctx_xyz, every_complex, random_complex, ref_faces, ref_free_faces, ref_homology_dims,
    ref_minimal_nonfaces, ref_strongly_connected,
)


TRIANGLE = SimplicialComplex.from_facets(3, [(1, 2), (1, 3), (2, 3)])
PATH = SimplicialComplex.from_facets(3, [(1, 2), (2, 3)])
OCTAHEDRON = SimplicialComplex.from_facets(
    6,
    [
        (1, 2, 3), (1, 2, 6), (1, 3, 5), (1, 5, 6),
        (2, 3, 4), (2, 4, 6), (3, 4, 5), (4, 5, 6),
    ],
)
# minimal 6-vertex triangulation of the real projective plane
RP2 = SimplicialComplex.from_facets(
    6,
    [
        (1, 2, 3), (1, 2, 4), (1, 3, 5), (1, 4, 6), (1, 5, 6),
        (2, 3, 6), (2, 4, 5), (2, 5, 6), (3, 4, 5), (3, 4, 6),
    ],
)
# the 7-vertex torus: triangles {i, i+1, i+3} and {i, i+2, i+3} mod 7
TORUS = SimplicialComplex.from_facets(
    7, [tuple(sorted((i + s) % 7 + 1 for s in t)) for i in range(7) for t in ((0, 1, 3), (0, 2, 3))]
)
BOWTIE = SimplicialComplex.from_facets(5, [(1, 2, 3), (3, 4, 5)])
TWO_EDGES = SimplicialComplex.from_facets(4, [(1, 2), (3, 4)])


def cross_polytope(n):
    """Boundary of the cross-polytope on vertices 1..n (n even), a sphere of
    dimension n/2 - 1: one vertex of each antipodal pair (2i-1, 2i) per facet."""
    return SimplicialComplex.from_facets(n, itertools.product(*[(2 * i + 1, 2 * i + 2) for i in range(n // 2)]))


def relabelled(delta, rng):
    """The same complex with its vertex slots permuted at random."""
    perm = list(range(1, delta.n + 1))
    rng.shuffle(perm)
    return SimplicialComplex.from_facets(delta.n, [[perm[v - 1] for v in f] for f in delta.facets])


def suspension(delta):
    """Join with two new vertices: cohomology moves up one degree."""
    n = delta.n
    return SimplicialComplex.from_facets(n + 2, [f + (v,) for f in delta.facets for v in (n + 1, n + 2)])


class TestValidation:
    def test_rejected_inputs(self):
        with pytest.raises(ValueError, match="at least one vertex slot"):
            SimplicialComplex.from_facets(0, [(1,)])
        with pytest.raises(ValueError, match="void complex is rejected"):
            SimplicialComplex.from_facets(3, [])
        with pytest.raises(ValueError, match=r"empty complex \{\(\)\} is rejected"):
            SimplicialComplex.from_facets(3, [()])
        with pytest.raises(ValueError, match="outside 1..3"):
            SimplicialComplex.from_facets(3, [(1, 4)])
        with pytest.raises(ValueError, match="outside"):
            SimplicialComplex.from_facets(3, [(0, 1)])

    def test_raw_constructor_is_strict(self):
        with pytest.raises(ValueError, match="sorted duplicate-free"):
            SimplicialComplex(3, ((2, 1),))
        with pytest.raises(ValueError, match="sorted duplicate-free"):
            SimplicialComplex(3, ((1, 1, 2),))
        with pytest.raises(ValueError, match="duplicate facets"):
            SimplicialComplex(3, ((1, 2), (1, 2)))
        with pytest.raises(ValueError, match="a facet contains another"):
            SimplicialComplex(3, ((1,), (1, 2)))
        with pytest.raises(ValueError, match="not canonically sorted"):
            SimplicialComplex(3, ((2, 3), (1, 2)))

    def test_from_facets_normalizes(self):
        d = SimplicialComplex.from_facets(4, [(3, 1), (1,), (1, 3), (2, 4)])
        assert d.facets == ((1, 3), (2, 4))


class TestBasics:
    def test_f_vectors(self):
        assert TRIANGLE.f_vector() == (3, 3)
        assert OCTAHEDRON.f_vector() == (6, 12, 8)
        assert RP2.f_vector() == (6, 15, 10)
        assert PATH.f_vector() == (3, 2)

    def test_dim_vertices_ghosts(self):
        assert TRIANGLE.dim == 1
        assert OCTAHEDRON.dim == 2
        d = SimplicialComplex.from_facets(5, [(2, 3)])
        assert d.vertices() == (2, 3)
        assert d.ghost_vertices() == (1, 4, 5)
        assert OCTAHEDRON.ghost_vertices() == ()

    def test_purity(self):
        assert TRIANGLE.is_pure()
        assert BOWTIE.is_pure()
        assert not SimplicialComplex.from_facets(3, [(1, 2), (3,)]).is_pure()

    def test_has_face_and_enumeration(self):
        assert OCTAHEDRON.has_face((1, 2))
        assert OCTAHEDRON.has_face(())
        assert not OCTAHEDRON.has_face((1, 4))  # antipodal pair
        assert TRIANGLE.faces_by_dim() == (((1,), (2,), (3,)), ((1, 2), (1, 3), (2, 3)))
        assert ref_faces(TRIANGLE) == [(1,), (2,), (3,), (1, 2), (1, 3), (2, 3)]

    def test_render(self):
        assert PATH.render() == "facets: 1 2; 2 3"


class TestLink:
    def test_triangle_vertex(self):
        lk = link(TRIANGLE, (1,))
        assert lk.complex.facets == ((1,), (2,))
        assert lk.vertex_map == (2, 3)

    def test_empty_face_is_whole_complex(self):
        lk = link(OCTAHEDRON, ())
        assert lk.complex == OCTAHEDRON
        assert lk.vertex_map == (1, 2, 3, 4, 5, 6)

    def test_octahedron_vertex_is_square(self):
        lk = link(OCTAHEDRON, (1,))
        assert lk.vertex_map == (2, 3, 5, 6)
        assert lk.complex.facets == ((1, 2), (1, 4), (2, 3), (3, 4))
        got = reduced_cohomology(lk.complex, QQ).dims
        assert got == (0, 1)  # a circle

    def test_errors(self):
        with pytest.raises(ValueError, match=r"\(1, 4\) is not a face"):
            link(OCTAHEDRON, (1, 4))
        with pytest.raises(ValueError, match=r"link of a facet is the empty complex"):
            link(TRIANGLE, (1, 2))


    def test_report_links_match_checked_links(self):
        """``link`` builds its complex unchecked; it equals the normalizing
        construction below on every face, ``()`` included, and passes the
        strict constructor."""
        rng = random.Random(2011)
        samples = [TRIANGLE, OCTAHEDRON, RP2, SimplicialComplex(7, RP2.facets)]
        samples += [random_complex(rng, rng.randint(1, 8), max_facets=8) for _ in range(80)]
        kinds = set()
        for d in samples:
            kinds.update(k for k, on in [("non-pure", not d.is_pure()), ("ghosts", d.ghost_vertices())] if on)
            facets = set(d.facets)
            for face in [()] + [f for f in ref_faces(d) if f not in facets]:
                rests = [frozenset(g) - set(face) for g in d.facets if set(face) <= set(g)]
                old = sorted(set().union(*rests))
                relabel = {v: i + 1 for i, v in enumerate(old)}
                want = SimplicialComplex.from_facets(len(old), [[relabel[v] for v in r] for r in rests])
                lk = link(d, face)
                assert (lk.complex, lk.vertex_map) == (want, tuple(old)), (d.render(), face)
                assert SimplicialComplex(lk.complex.n, lk.complex.facets) == lk.complex
        assert kinds == {"non-pure", "ghosts"}


class TestIdealDictionary:
    def test_triangle_to_ideal(self):
        M = to_ideal(TRIANGLE)
        assert M.render_gens() == ("x1*x2*x3",)
        assert M.ctx.names == ("x1", "x2", "x3")

    def test_full_simplex_gives_zero_ideal(self):
        d = SimplicialComplex.from_facets(3, [(1, 2, 3)])
        assert to_ideal(d).is_zero()

    def test_four_cycle(self):
        d = SimplicialComplex.from_facets(4, [(1, 2), (1, 4), (2, 3), (3, 4)])
        assert to_ideal(d).render_gens() == ("x2*x4", "x1*x3")

    def test_ghost_vertex_becomes_linear_generator(self):
        d = SimplicialComplex.from_facets(3, [(2, 3)])
        assert to_ideal(d).render_gens() == ("x1",)

    def test_custom_context(self):
        ctx = ctx_xyz()
        assert to_ideal(TRIANGLE, ctx).render_gens() == ("x*y*z",)
        with pytest.raises(ValueError, match="complex and ring have different vertex counts"):
            to_ideal(TRIANGLE, ctx_n(4))

    def test_from_squarefree_ideal(self):
        ctx = ctx_xyz()
        M = MonomialIdeal.from_monomials(ctx, [Monomial((1, 1, 1))])
        assert complex_from_squarefree_ideal(M) == TRIANGLE
        zero = MonomialIdeal.from_monomials(ctx, [])
        full = complex_from_squarefree_ideal(zero)
        assert full.facets == ((1, 2, 3),)

    def test_from_squarefree_errors(self):
        ctx = ctx_xyz()
        with pytest.raises(ValueError, match="not square-free"):
            complex_from_squarefree_ideal(
                MonomialIdeal.from_monomials(ctx, [Monomial((2, 0, 0))])
            )
        with pytest.raises(ValueError, match="void complex"):
            complex_from_squarefree_ideal(
                MonomialIdeal.from_monomials(ctx, [Monomial((0, 0, 0))])
            )

    def test_octahedron_ideal_round_trip(self):
        M = to_ideal(OCTAHEDRON)
        # the three pairs of antipodal vertices
        assert M.render_gens() == ("x3*x6", "x2*x5", "x1*x4")
        assert complex_from_squarefree_ideal(M) == OCTAHEDRON

    def test_round_trip_random(self):
        rng = random.Random(67)
        for _ in range(40):
            d = random_complex(rng, rng.randint(1, 6))
            assert complex_from_squarefree_ideal(to_ideal(d)) == d

    def test_every_complex_on_at_most_five_vertices(self):
        """Both translations against the definition of a minimal non-face, on
        every complex on 1..n for n <= 5 (ghost vertices included)."""
        for n, count in zip(range(1, 6), (1, 4, 18, 166, 7579)):
            ctx, seen = ctx_n(n), 0
            for d in every_complex(n):
                M = to_ideal(d, ctx)
                supports = sorted(tuple(i + 1 for i in g.support()) for g in M.gens)
                assert supports == ref_minimal_nonfaces(d), d
                assert complex_from_squarefree_ideal(M) == d
                seen += 1
            assert seen == count

    def test_round_trip_with_ghosts(self):
        d = SimplicialComplex.from_facets(4, [(2, 3), (3, 4)])
        back = complex_from_squarefree_ideal(to_ideal(d))
        # the ghost vertex 1 is the linear generator x1, and comes back a ghost
        assert back.n == 4
        assert back.facets == d.facets

    def test_ideal_round_trip_random(self):
        rng = random.Random(71)
        ctx = ctx_n(5)
        for _ in range(40):
            monos = set()
            for _ in range(rng.randint(1, 4)):
                picks = rng.sample(range(5), rng.randint(1, 3))
                e = [0] * 5
                for i in picks:
                    e[i] = 1
                monos.add(Monomial(tuple(e)))
            M = MonomialIdeal.from_monomials(ctx, monos)
            if any(len(m.support()) == 5 for m in M.gens):
                pass  # fine: complex just loses the top face
            try:
                d = complex_from_squarefree_ideal(M)
            except ValueError:
                assert any(m.is_one() for m in M.gens)
                continue
            assert to_ideal(d, ctx).same_monomials(M)


class TestCohomology:
    def test_frozen_profiles(self):
        assert reduced_cohomology(TRIANGLE, QQ).dims == (0, 1)
        assert reduced_cohomology(PATH, QQ).dims == (0, 0)
        assert reduced_cohomology(OCTAHEDRON, QQ).dims == (0, 0, 1)
        assert reduced_cohomology(TWO_EDGES, QQ).dims == (1, 0)
        simplex = SimplicialComplex.from_facets(4, [(1, 2, 3, 4)])
        assert reduced_cohomology(simplex, QQ).dims == (0, 0, 0, 0)
        for field in (QQ, PrimeField(2), PrimeField(3)):
            assert reduced_cohomology(TORUS, field).dims == (0, 2, 1)

    def test_rp2_sees_the_field(self):
        assert reduced_cohomology(RP2, QQ).dims == (0, 0, 0)
        assert reduced_cohomology(RP2, PrimeField(2)).dims == (0, 1, 1)
        assert reduced_cohomology(RP2, PrimeField(3)).dims == (0, 0, 0)
        assert reduced_cohomology(suspension(RP2), QQ).dims == (0, 0, 0, 0)
        assert reduced_cohomology(suspension(RP2), PrimeField(2)).dims == (0, 0, 1, 1)

    def test_acyclicity_and_euler(self):
        prof = reduced_cohomology(PATH, QQ)
        assert prof.is_acyclic()
        assert prof.reduced_euler == 0
        octa = reduced_cohomology(OCTAHEDRON, QQ)
        assert not octa.is_acyclic()
        assert octa.reduced_euler == 1
        assert reduced_cohomology(TWO_EDGES, QQ).reduced_euler == 1

    def test_matches_brute_force_homology(self):
        rng = random.Random(73)
        for _ in range(30):
            d = random_complex(rng, rng.randint(1, 6))
            assert reduced_cohomology(d, QQ).dims == ref_homology_dims(d, 0), d.render()
            assert reduced_cohomology(d, PrimeField(2)).dims == ref_homology_dims(
                d, 2
            ), d.render()

    def test_euler_identity_random(self):
        """Alternating sum of cohomology dims equals the reduced Euler
        characteristic from the f-vector, on 100 random complexes."""
        rng = random.Random(79)
        for _ in range(100):
            d = random_complex(rng, rng.randint(1, 8))
            prof = reduced_cohomology(d, QQ)
            from_f = sum((-1) ** j * fj for j, fj in enumerate(d.f_vector())) - 1
            from_dims = sum((-1) ** j * hj for j, hj in enumerate(prof.dims))
            assert prof.reduced_euler == from_f == from_dims, d.render()


class TestCoreduction:
    """Reduced cohomology by coreduction on spheres and relabelled complexes;
    ``TestCohomologyOracle`` checks it against brute-force homology."""

    @pytest.mark.parametrize("p", [0, 2, 3])
    def test_cross_polytopes_are_spheres(self, p):
        field = PrimeField(p) if p else QQ
        for n in range(4, 14, 2):
            sphere = (0,) * (n // 2 - 1) + (1,)
            assert reduced_cohomology(cross_polytope(n), field).dims == sphere
            if p or n <= 8:  # the brute-force rank over QQ takes seconds beyond
                assert ref_homology_dims(cross_polytope(n), p) == sphere

    def test_relabelling_keeps_the_dims(self):
        """The coreduction visits cells in label order; the answer must not
        depend on it."""
        rng = random.Random(2031)
        for d in TestCohomologyOracle.complexes() + [cross_polytope(8)]:
            for field in (QQ, PrimeField(2)):
                want = reduced_cohomology(d, field)
                for _ in range(3):
                    assert reduced_cohomology(relabelled(d, rng), field) == want, d.render()

    def test_spheres_take_no_rank(self, monkeypatch):
        """On a cross-polytope one top cell survives the coreduction, so no rank
        is taken; RP2's torsion needs one."""
        ranked = []
        real_int, real_mod_p = complexes_module.rank_int, complexes_module.rank_mod_p
        monkeypatch.setattr(complexes_module, "rank_int", lambda rows: ranked.append(rows) or real_int(rows))
        monkeypatch.setattr(
            complexes_module, "rank_mod_p", lambda rows, p: ranked.append(rows) or real_mod_p(rows, p)
        )
        for field in (QQ, PrimeField(2), PrimeField(3)):
            assert reduced_cohomology(cross_polytope(8), field).dims == (0, 0, 0, 1)
        assert ranked == []
        assert reduced_cohomology(RP2, PrimeField(2)).dims == (0, 1, 1)
        assert ranked


class TestStrongConnectivity:
    def test_frozen(self):
        assert is_strongly_connected(TRIANGLE)
        assert is_strongly_connected(OCTAHEDRON)
        assert not is_strongly_connected(BOWTIE)
        assert not is_strongly_connected(TWO_EDGES)
        assert is_strongly_connected(SimplicialComplex.from_facets(2, [(1, 2)]))
        assert not is_strongly_connected(
            SimplicialComplex.from_facets(3, [(1, 2), (3,)])
        )  # not pure


class TestPropertyReport:
    def test_triangle(self):
        rep = property_report(TRIANGLE, QQ)
        assert rep.pure and rep.strongly_connected and rep.normal
        assert rep.cohen_macaulay
        assert not rep.acyclic
        assert not rep.negative_a_invariant_given_cm
        assert rep.leaves == ()
        assert rep.free_faces == ()
        assert rep.cone_points == ()
        assert rep.ghost_vertices == ()

    def test_path_has_leaves_and_free_faces(self):
        rep = property_report(PATH, QQ)
        assert rep.cohen_macaulay and rep.acyclic
        assert rep.negative_a_invariant_given_cm
        assert rep.leaves == (1, 3)
        assert rep.free_faces == ((1,), (3,))
        assert rep.cone_points == (2,)  # the middle vertex is an apex

    def test_octahedron(self):
        rep = property_report(OCTAHEDRON, QQ)
        assert rep.cohen_macaulay and rep.normal and not rep.acyclic
        assert rep.leaves == () and rep.free_faces == ()

    def test_rp2_depends_on_field(self):
        assert property_report(RP2, QQ).cohen_macaulay
        assert not property_report(RP2, PrimeField(2)).cohen_macaulay

    def test_bowtie_buchsbaum_gap(self):
        rep = property_report(BOWTIE, QQ)
        assert rep.pure and not rep.strongly_connected
        assert not rep.cohen_macaulay
        assert not rep.normal

    def test_two_disjoint_edges(self):
        rep = property_report(TWO_EDGES, QQ)
        assert not rep.cohen_macaulay  # disconnected
        assert rep.buchsbaum  # all proper links are fine

    def test_cone_point_and_ghosts(self):
        cone = SimplicialComplex.from_facets(4, [(1, 2, 4), (2, 3, 4)])
        rep = property_report(cone, QQ)
        assert rep.cone_points == (2, 4)
        assert rep.acyclic
        ghosty = SimplicialComplex.from_facets(4, [(2, 3)])
        assert property_report(ghosty, QQ).ghost_vertices == (1, 4)

    def test_as_dict_uses_lists(self):
        d = property_report(PATH, QQ).as_dict()
        assert d["leaves"] == [1, 3]
        assert d["free_faces"] == [[1], [3]]
        assert d["cohen_macaulay"] is True

    def test_non_pure_vertex_and_edge(self):
        rep = property_report(SimplicialComplex.from_facets(3, [(1,), (2, 3)]), QQ)
        assert not rep.pure
        assert not rep.buchsbaum  # Buchsbaum complexes are pure
        assert rep.free_faces == ((2,), (3,))  # the facet (1,) is not free
        # (1,) is a ridge of the edge alone, yet it lies in the triangle too
        rep = property_report(SimplicialComplex.from_facets(4, [(1, 2), (1, 3, 4)]), QQ)
        assert not rep.pure and not rep.buchsbaum
        assert rep.free_faces == ((2,), (1, 3), (1, 4), (3, 4))

    def test_non_pure_triangle_with_tail(self):
        delta = SimplicialComplex.from_facets(4, [(1, 2, 3), (3, 4)])
        rep = property_report(delta, QQ)
        assert not rep.buchsbaum and not rep.cohen_macaulay
        assert rep.free_faces == ((4,), (1, 2), (1, 3), (2, 3))
        assert delta.free_faces() == rep.free_faces

    def test_report_keeps_the_complex_cohomology(self):
        for field in (QQ, PrimeField(2)):
            rep = property_report(RP2, field)
            assert rep.cohomology == reduced_cohomology(RP2, field)
            assert "cohomology" not in rep.as_dict()

    def test_implications_random(self):
        """CM implies Buchsbaum; Buchsbaum and strong connectivity imply
        pure; a cone is acyclic; one-dimensional CM equals connected; free
        faces match their definition; all on random input."""
        rng = random.Random(83)
        for _ in range(60):
            d = random_complex(rng, rng.randint(1, 6))
            rep = property_report(d, QQ)
            if rep.cohen_macaulay:
                assert rep.buchsbaum
            if rep.buchsbaum:
                assert rep.pure
            if rep.strongly_connected:
                assert rep.pure
            assert rep.free_faces == ref_free_faces(d) == d.free_faces(), d.render()
            if rep.cone_points:
                assert rep.acyclic
            if d.dim == 1 and not d.ghost_vertices():
                connected = reduced_cohomology(d, QQ).dims[0] == 0
                assert rep.cohen_macaulay == connected
            assert rep.strongly_connected == is_strongly_connected(d) == ref_strongly_connected(d), d.render()

    def test_ridge_pass_matches_definitions(self):
        """One ridge pass gives free faces and strong connectivity as their
        brute-force definitions do, on 200 more random complexes and on
        chains of facets."""
        rng = random.Random(2029)
        samples = [random_complex(rng, rng.randint(1, 8), max_facets=8) for _ in range(200)]
        # walks that swap one vertex of a facet at a time: long chains of facets
        for _ in range(40):
            n, k = rng.randint(3, 9), rng.randint(1, 3)
            walk = [rng.sample(range(1, n + 1), k)]
            for _ in range(rng.randint(1, 12)):
                g = list(walk[-1])
                g[rng.randrange(k)] = rng.choice([v for v in range(1, n + 1) if v not in g])
                walk.append(g)
            samples.append(SimplicialComplex.from_facets(n, walk))
        samples += [TORUS, RP2, BOWTIE] + [cross_polytope(n) for n in (4, 6, 8)]
        kinds = set()
        for d in samples:
            kinds.add(("pure" if d.is_pure() else "non-pure", ref_strongly_connected(d)))
            assert d.free_faces() == ref_free_faces(d), d.render()
            assert is_strongly_connected(d) == ref_strongly_connected(d), d.render()
        assert kinds == {("pure", True), ("pure", False), ("non-pure", False)}


def ref_verdicts(delta, p):
    """property_report's link verdicts from every link, none skipped, each
    profile from ref_homology_dims."""
    dims = ref_homology_dims(delta, p)
    pure = delta.is_pure()
    cm = not any(dims[: delta.dim])
    buchsbaum = pure
    normal = is_strongly_connected(delta)
    facets = set(delta.facets)
    for face in ref_faces(delta):
        if face in facets:
            continue
        lk = link(delta, face).complex
        if any(ref_homology_dims(lk, p)[: lk.dim]):
            cm = buchsbaum = False
        if not is_strongly_connected(lk):
            normal = False
    return dims, {
        "pure": pure,
        "normal": normal,
        "cohen_macaulay": cm,
        "buchsbaum": buchsbaum,
        "acyclic": not any(dims),
        "negative_a_invariant_given_cm": dims[delta.dim] == 0,
    }


class TestCohomologyOracle:
    """Coreduction, its sparse ranks and the per-report link memo against
    brute-force homology on non-pure, ghost-vertex, torsion and torus complexes."""

    @staticmethod
    def complexes():
        rng = random.Random(2003)
        out = [RP2, suspension(RP2), SimplicialComplex(7, RP2.facets)]
        while len(out) < 33:
            d = random_complex(rng, rng.randint(2, 7), max_facets=8)
            if not d.is_pure() or d.ghost_vertices() or len(out) % 3 == 0:
                out.append(d)
        return out + [TORUS, SimplicialComplex(8, TORUS.facets)]

    @pytest.mark.parametrize("p", [0, 2, 3])
    def test_cohomology_and_reports(self, p):
        field = PrimeField(p) if p else QQ
        kinds = set()
        for d in self.complexes():
            kinds.update(k for k, on in [("non-pure", not d.is_pure()), ("ghosts", d.ghost_vertices())] if on)
            dims, verdicts = ref_verdicts(d, p)
            assert reduced_cohomology(d, field).dims == dims, d.render()
            rep = property_report(d, field)
            assert rep.cohomology.dims == dims, d.render()
            assert rep.as_dict() == dict(rep.as_dict(), **verdicts), d.render()
        assert kinds == {"non-pure", "ghosts"}
