"""Acceptance gate: nine end-to-end criteria, each with a wall-clock bound.

Every criterion prints one PASS or FAIL line directly on the terminal
(bypassing pytest capture), so a full run reads as a nine-line scorecard.
"""

import random
import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

from grodeg import (
    MonomialOrder,
    PrimeField,
    QQ,
    SimplicialComplex,
    analyze,
    buchberger,
    count_points,
    lex_obstruction,
    lift_search,
    parse_polynomial,
    reduced_cohomology,
    scan_orders,
    standard_context,
    to_jsonable,
)

from conftest import (
    brute_projective_count,
    ctx_n,
    ctx_xyz,
    random_complex,
    ref_homology_dims,
    ref_s_polynomial,
)

OCTAHEDRON_FACETS = [
    (1, 2, 3), (1, 3, 4), (1, 4, 5), (1, 2, 5),
    (2, 3, 6), (3, 4, 6), (4, 5, 6), (2, 5, 6),
]

RP2_FACETS = [
    (1, 2, 3), (1, 2, 4), (1, 3, 5), (1, 4, 6), (1, 5, 6),
    (2, 3, 6), (2, 4, 5), (2, 5, 6), (3, 4, 5), (3, 4, 6),
]


@pytest.fixture()
def criterion(capsys):
    @contextmanager
    def gate(code, title, bound):
        start = time.perf_counter()
        try:
            yield
        except BaseException:
            with capsys.disabled():
                print(f"{code} FAIL  {title}")
            raise
        elapsed = time.perf_counter() - start
        ok = elapsed < bound
        verdict = "PASS" if ok else "FAIL"
        with capsys.disabled():
            print(f"{code} {verdict}  {title}  ({elapsed:.2f}s, bound {bound}s)")
        assert ok, f"{code} took {elapsed:.2f}s, bound is {bound}s"

    return gate


def P(text, ctx, order):
    return parse_polynomial(text, ctx, order)


class TestAcceptance:
    def test_c1_nodal_cubic(self, criterion):
        with criterion("C1", "nodal cubic: every obstruction certifies", 1.0):
            ctx = ctx_xyz()
            lex = MonomialOrder.lex(ctx)
            d = to_jsonable(analyze([P("x*y*z + y^3 + z^3", ctx, lex)], lex).as_dict())
            assert d["initial_ideal"] == ["x*y*z"]
            assert d["squarefree"] is True
            assert d["facets"] == "facets: 1 2; 1 3; 2 3"
            kinds = [o["kind"] for o in d["obstructions"]]
            assert kinds == ["complete_intersection", "leafless_vertex", "lex_link"]
            assert all(o["certified"] for o in d["obstructions"])
            assert d["conjectures"]["cm"] == "consistent"
            assert d["conjectures"]["hypothesis_refuted_by"] == [
                "singular_coordinate_point [1:0:0]"
            ]

    def test_c2_determinantal_ball(self, criterion):
        with criterion("C2", "determinantal ideal: shellable ball, cone points 1 and 6", 1.0):
            ctx = ctx_n(6)
            drl = MonomialOrder.degrevlex(ctx)
            gens = [
                P("x1*x5 - x2*x4", ctx, drl),
                P("x1*x6 - x3*x4", ctx, drl),
                P("x2*x6 - x3*x5", ctx, drl),
            ]
            d = to_jsonable(analyze(gens, drl).as_dict())
            assert d["squarefree"] is True
            assert d["complex"]["cone_points"] == [1, 6]
            assert d["complex"]["cohen_macaulay"] is True
            assert d["complex"]["acyclic"] is True
            assert all(p["verdict"] == "smooth" for p in d["coordinate_points"])

    def test_c3_octahedron_lift_search(self, criterion):
        with criterion("C3", "octahedron lifts: all sampled lifts singular on top", 60.0):
            delta = SimplicialComplex.from_facets(6, OCTAHEDRON_FACETS)
            ctx = ctx_n(6)
            drl = MonomialOrder.degrevlex(ctx)
            d = to_jsonable(lift_search(delta, drl, pool=(-1, 1), budget=200).as_dict())
            assert d["targets"] == ["x3*x5", "x2*x4", "x1*x6"]
            assert d["valid_lift_count"] >= 1
            assert d["lifts_singular_at_top_point"] == d["valid_lift_count"]

    def test_c4_cycle_lift_searches(self, criterion):
        with criterion("C4", "cycle lifts: singular on top, no support violations", 120.0):
            pool = (-2, -1, 1, 2)
            tri = SimplicialComplex.from_facets(3, [(1, 2), (1, 3), (2, 3)])
            d3 = to_jsonable(
                lift_search(tri, MonomialOrder.degrevlex(ctx_n(3)), pool=pool, budget=500).as_dict()
            )
            assert d3["exhaustive"] is True
            assert d3["candidates_tried"] == 256
            assert d3["valid_lift_count"] == 256
            assert d3["lifts_singular_at_top_point"] == 256
            square = SimplicialComplex.from_facets(4, [(1, 2), (2, 3), (3, 4), (1, 4)])
            d4 = to_jsonable(
                lift_search(
                    square, MonomialOrder.degrevlex(ctx_n(4)), pool=pool, budget=500, seed=11
                ).as_dict()
            )
            assert d4["valid_lift_count"] == 487
            assert d4["lifts_singular_at_top_point"] == 487
            for report in (d3, d4):
                assert all(l["support_violations"] == [] for l in report["valid_lifts"])

    def test_c5_lex_link_obstruction(self, criterion):
        with criterion("C5", "lex-link: certifies cycles, declines the free edge", 1.0):
            tri = SimplicialComplex.from_facets(3, [(1, 2), (1, 3), (2, 3)])
            octa = SimplicialComplex.from_facets(6, OCTAHEDRON_FACETS)
            assert lex_obstruction(tri).certified
            assert lex_obstruction(octa).certified
            edge = to_jsonable(lex_obstruction(SimplicialComplex.from_facets(2, [(1, 2)])).as_dict())
            assert edge["applicable"] is False
            assert edge["witness"]["free_faces"] == [[1], [2]]

    def test_c6_cohomology_suite(self, criterion):
        with criterion("C6", "cohomology: zoo values, field sensitivity, Euler identity", 30.0):
            tri = SimplicialComplex.from_facets(3, [(1, 2), (1, 3), (2, 3)])
            octa = SimplicialComplex.from_facets(6, OCTAHEDRON_FACETS)
            rp2 = SimplicialComplex.from_facets(6, RP2_FACETS)
            simplex = SimplicialComplex.from_facets(5, [(1, 2, 3, 4, 5)])
            assert reduced_cohomology(tri).dims == (0, 1)
            assert reduced_cohomology(octa).dims == (0, 0, 1)
            assert reduced_cohomology(simplex).dims == (0, 0, 0, 0, 0)
            assert reduced_cohomology(rp2).dims == (0, 0, 0)
            assert reduced_cohomology(rp2, PrimeField(2)).dims == (0, 1, 1)
            rng = random.Random(2026)
            for trial in range(100):
                delta = random_complex(rng, rng.randrange(3, 7))
                profile = reduced_cohomology(delta)
                alternating = sum((-1) ** i * d for i, d in enumerate(profile.dims))
                assert alternating == profile.reduced_euler
                if trial % 5 == 0:
                    assert tuple(profile.dims) == tuple(ref_homology_dims(delta))

    def test_c7_supersingular_primes(self, criterion):
        with criterion("C7", "Fermat cubic: supersingular at 5 and 11, ordinary at 7", 10.0):
            ctx = ctx_xyz()
            f = P("x^3 + y^3 + z^3", ctx, MonomialOrder.degrevlex(ctx))
            results = {p: count_points(f, p) for p in (5, 7, 11, 13, 17)}
            assert results[5].supersingular is True
            assert results[11].supersingular is True
            assert results[17].supersingular is True
            assert results[7].supersingular is False
            assert results[13].supersingular is False
            assert all(r.hasse_ok for r in results.values())
            for p in (5, 7, 11, 13):
                assert results[p].count == brute_projective_count(f, p)

    def test_c8_canonical_bases(self, criterion):
        with criterion("C8", "reduced bases: strategy, scaling, and order invariant", 60.0):
            ctx3 = ctx_xyz()
            lex = MonomialOrder.lex(ctx3)
            ctx6 = ctx_n(6)
            drl = MonomialOrder.degrevlex(ctx6)
            cases = [
                ([P("x^2 - y*z", ctx3, lex), P("x*y - z^2", ctx3, lex)], lex),
                (
                    [
                        P("x1*x5 - x2*x4", ctx6, drl),
                        P("x1*x6 - x3*x4", ctx6, drl),
                        P("x2*x6 - x3*x5", ctx6, drl),
                    ],
                    drl,
                ),
            ]
            rng = random.Random(7)
            for gens, order in cases:
                reference = buchberger(gens, order)
                assert buchberger(gens, order, strategy="fifo").render_polys() == (
                    reference.render_polys()
                )
                for _ in range(10):
                    shuffled = list(gens)
                    rng.shuffle(shuffled)
                    scaled = [
                        g * Fraction(rng.choice((1, 2, 3, 5)), rng.choice((1, 2, 7)))
                        for g in shuffled
                    ]
                    assert buchberger(scaled, order).render_polys() == reference.render_polys()
                polys = reference.polys
                for i in range(len(polys)):
                    for j in range(i):
                        assert reference.normal_form(ref_s_polynomial(polys[i], polys[j])).is_zero()

    def test_c9_order_scan(self, criterion):
        with criterion("C9", "Fermat scan: 12 orders collapse to 3 initial ideals", 5.0):
            ctx = ctx_xyz()
            f = P("x^3 + y^3 + z^3", ctx, MonomialOrder.degrevlex(ctx))
            reports = [to_jsonable(r.as_dict()) for r in scan_orders([f], family="both")]
            assert len(reports) == 3
            assert sum(len(r["producing_orders"]) for r in reports) == 12
            assert sorted(r["initial_ideal"] for r in reports) == [["x^3"], ["y^3"], ["z^3"]]
            assert not any(r["squarefree"] for r in reports)
