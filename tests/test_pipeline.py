"""End-to-end pipeline tests: analyze, order scans, lift search, point counts."""

import itertools
import json
import math
import os
import pickle
import random
import subprocess
import sys
import textwrap
from fractions import Fraction

import pytest

import grodeg
from grodeg import cli, pipeline
from grodeg.groebner import DEFAULT_DEGREE_CAP
from grodeg.records import replace

from grodeg import (
    DegreeCapExceeded,
    Monomial,
    MonomialOrder,
    Polynomial,
    PrimeField,
    ProjPoint,
    QQ,
    ScanBoundExceeded,
    SimplicialComplex,
    analyze,
    analyze_complex,
    buchberger,
    count_points,
    ideal_digest,
    initial_ideal,
    jacobian_rank_at,
    lift_search,
    link,
    parse_polynomial,
    property_report,
    scan_orders,
    standard_context,
    support_exclusions,
    to_ideal,
    to_jsonable,
)

from conftest import (
    brute_projective_count,
    ctx_n,
    ctx_xyz,
    random_complex,
    random_homogeneous_poly,
    ref_evaluate,
    ref_faces,
    ref_initial_monomials,
    ref_is_variable_regular,
    ref_keeps_marking,
    ref_partial_derivative,
    ref_terms,
    ref_valid_lift,
)


def P(text, ctx, order):
    return parse_polynomial(text, ctx, order)


def as_json(report):
    return json.dumps(to_jsonable(report.as_dict()), sort_keys=True)


CUBIC = "x*y*z + y^3 + z^3"
FERMAT = "x^3 + y^3 + z^3"

OCTAHEDRON = SimplicialComplex.from_facets(
    6,
    [
        (1, 2, 3), (1, 3, 4), (1, 4, 5), (1, 2, 5),
        (2, 3, 6), (3, 4, 6), (4, 5, 6), (2, 5, 6),
    ],
)

RP2 = SimplicialComplex.from_facets(
    6,
    [
        (1, 2, 3), (1, 2, 4), (1, 3, 5), (1, 4, 6), (1, 5, 6),
        (2, 3, 6), (2, 4, 5), (2, 5, 6), (3, 4, 5), (3, 4, 6),
    ],
)


@pytest.fixture(scope="module")
def cubic_lex_report():
    ctx = ctx_xyz()
    lex = MonomialOrder.lex(ctx)
    return analyze([P(CUBIC, ctx, lex)], lex)


@pytest.fixture(scope="module")
def minors_report():
    ctx = ctx_n(6)
    drl = MonomialOrder.degrevlex(ctx)
    gens = [
        P("x1*x5 - x2*x4", ctx, drl),
        P("x1*x6 - x3*x4", ctx, drl),
        P("x2*x6 - x3*x5", ctx, drl),
    ]
    return analyze(gens, drl)


@pytest.fixture(scope="module")
def fermat_curve():
    ctx = ctx_xyz()
    return P(FERMAT, ctx, MonomialOrder.degrevlex(ctx))


class TestIdealDigest:
    def test_generator_order_is_irrelevant(self):
        ctx = ctx_xyz()
        lex = MonomialOrder.lex(ctx)
        f = P("x^2 - y*z", ctx, lex)
        g = P("x*y - z^2", ctx, lex)
        assert ideal_digest(ctx, [f, g]) == ideal_digest(ctx, [g, f])

    def test_carrier_order_is_irrelevant(self):
        ctx = ctx_xyz()
        lex = MonomialOrder.lex(ctx)
        drl = MonomialOrder.degrevlex(ctx)
        f = P(CUBIC, ctx, lex)
        assert ideal_digest(ctx, [f]) == ideal_digest(ctx, [f.with_order(drl)])

    def test_distinct_ideals_get_distinct_digests(self):
        ctx = ctx_xyz()
        lex = MonomialOrder.lex(ctx)
        assert ideal_digest(ctx, [P(CUBIC, ctx, lex)]) != ideal_digest(
            ctx, [P(FERMAT, ctx, lex)]
        )

    def test_field_is_part_of_the_digest(self):
        ctx = ctx_xyz()
        ctx5 = ctx_xyz(PrimeField(5))
        lex = MonomialOrder.lex(ctx)
        lex5 = MonomialOrder.lex(ctx5)
        assert ideal_digest(ctx, [P(FERMAT, ctx, lex)]) != ideal_digest(
            ctx5, [P(FERMAT, ctx5, lex5)]
        )

    def test_digest_is_hex_sha256(self):
        ctx = ctx_xyz()
        d = ideal_digest(ctx, [])
        assert len(d) == 64 and set(d) <= set("0123456789abcdef")


class TestAnalyzeCubicLex:
    """The nodal cubic under lex degenerates to the triangle complex."""

    def test_headline_fields(self, cubic_lex_report):
        d = to_jsonable(cubic_lex_report.as_dict())
        assert d["ring"] == "QQ x,y,z"
        assert d["order"] == "lex x>y>z"
        assert d["generators"] == [CUBIC]
        assert d["reduced_groebner_basis"] == [CUBIC]
        assert d["initial_ideal"] == ["x*y*z"]
        assert d["squarefree"] is True
        assert d["producing_orders"] == ["lex x>y>z"]
        assert (
            d["ideal_digest"]
            == "c9ac0cf74da906e6f758400492651a46fb6ab83612cdff11de031ce73b691447"
        )

    def test_complex_block(self, cubic_lex_report):
        d = to_jsonable(cubic_lex_report.as_dict())
        assert d["facets"] == "facets: 1 2; 1 3; 2 3"
        assert d["complex"] == {
            "pure": True,
            "strongly_connected": True,
            "normal": True,
            "cohen_macaulay": True,
            "buchsbaum": True,
            "acyclic": False,
            "negative_a_invariant_given_cm": False,
            "leaves": [],
            "free_faces": [],
            "cone_points": [],
            "ghost_vertices": [],
        }
        assert d["cohomology"] == {
            "field": "QQ",
            "dims": [0, 1],
            "reduced_euler_characteristic": -1,
            "acyclic": False,
        }
        assert d["necessary_conditions"] == {
            "strongly_connected": True,
            "normal": True,
            "buchsbaum": True,
        }

    def test_coordinate_points(self, cubic_lex_report):
        d = to_jsonable(cubic_lex_report.as_dict())
        assert d["coordinate_points"] == [
            {
                "point": "[1:0:0]",
                "on_scheme": True,
                "rank": 0,
                "expected_codim": 1,
                "verdict": "singular",
                "hypothesis": "equidimensional of the expected codimension",
            },
            {
                "point": "[0:1:0]",
                "on_scheme": False,
                "rank": 1,
                "expected_codim": 1,
                "verdict": "off_scheme",
                "hypothesis": "equidimensional of the expected codimension",
            },
            {
                "point": "[0:0:1]",
                "on_scheme": False,
                "rank": 1,
                "expected_codim": 1,
                "verdict": "off_scheme",
                "hypothesis": "equidimensional of the expected codimension",
            },
        ]

    def test_all_three_obstructions_certify(self, cubic_lex_report):
        d = to_jsonable(cubic_lex_report.as_dict())
        kinds = [o["kind"] for o in d["obstructions"]]
        assert kinds == ["complete_intersection", "leafless_vertex", "lex_link"]
        assert all(o["applicable"] and o["certified"] for o in d["obstructions"])
        assert all(o["reason"] is None for o in d["obstructions"])

    def test_ci_witness(self, cubic_lex_report):
        ci = to_jsonable(cubic_lex_report.as_dict())["obstructions"][0]
        assert ci["witness"] == {
            "blocks": [["x", "y", "z"]],
            "point": "[1:0:0]",
            "distinguished_variable": "x",
            "rank": 0,
            "codim": 1,
            "on_scheme": True,
        }

    def test_leafless_witness(self, cubic_lex_report):
        leafless = to_jsonable(cubic_lex_report.as_dict())["obstructions"][1]
        assert leafless["witness"] == {
            "vertex": 1,
            "distinguished_variable": "x",
            "link_size": 2,
            "point": "[1:0:0]",
            "rank": 0,
            "rank_bound": 0,
            "codim": 1,
            "degree2_rows_through_top_vertex": [],
            "remaining_rows": [0],
            "support_violations": [],
        }

    def test_lex_witness(self, cubic_lex_report):
        lexo = to_jsonable(cubic_lex_report.as_dict())["obstructions"][2]
        assert lexo["witness"] == {
            "dim": 1,
            "link_sizes": {"1": 2, "2": 2, "3": 2},
        }

    def test_conjecture_scorecard(self, cubic_lex_report):
        d = to_jsonable(cubic_lex_report.as_dict())
        assert d["conjectures"] == {
            "cm": "consistent",
            "cm_negative_a": "consistent",
            "cm_acyclic": "consistent",
            "hypothesis_refuted_by": ["singular_coordinate_point [1:0:0]"],
        }

    def test_as_dict_is_json_stable(self, cubic_lex_report):
        assert as_json(cubic_lex_report) == as_json(cubic_lex_report)


class TestAnalyzeCubicDegrevlex:
    def test_non_squarefree_report_has_only_base_keys(self):
        ctx = ctx_xyz()
        drl = MonomialOrder.degrevlex(ctx)
        rep = analyze([P(CUBIC, ctx, drl)], drl)
        d = to_jsonable(rep.as_dict())
        assert d["initial_ideal"] == ["y^3"]
        assert d["squarefree"] is False
        assert sorted(d) == [
            "generators",
            "ideal_digest",
            "initial_ideal",
            "order",
            "producing_orders",
            "reduced_groebner_basis",
            "ring",
            "squarefree",
        ]


class TestAnalyzeDeterminantal:
    """2x3 generic matrix minors: smooth degeneration, no obstruction applies."""

    def test_basis_and_initial_ideal(self, minors_report):
        d = to_jsonable(minors_report.as_dict())
        assert d["reduced_groebner_basis"] == [
            "x2*x4 - x1*x5",
            "x3*x4 - x1*x6",
            "x3*x5 - x2*x6",
        ]
        assert d["initial_ideal"] == ["x3*x5", "x3*x4", "x2*x4"]
        assert d["squarefree"] is True
        assert d["facets"] == "facets: 1 2 3 6; 1 2 5 6; 1 4 5 6"

    def test_shelling_ball_properties(self, minors_report):
        d = to_jsonable(minors_report.as_dict())
        comp = d["complex"]
        assert comp["cohen_macaulay"] is True
        assert comp["acyclic"] is True
        assert comp["normal"] is True
        assert comp["cone_points"] == [1, 6]
        assert d["cohomology"]["dims"] == [0, 0, 0, 0]
        assert d["cohomology"]["reduced_euler_characteristic"] == 0

    def test_every_coordinate_point_is_smooth(self, minors_report):
        pts = to_jsonable(minors_report.as_dict())["coordinate_points"]
        assert len(pts) == 6
        assert all(p["verdict"] == "smooth" for p in pts)
        assert all(p["rank"] == 2 and p["expected_codim"] == 2 for p in pts)

    def test_no_obstruction_applies(self, minors_report):
        obs = to_jsonable(minors_report.as_dict())["obstructions"]
        assert [o["kind"] for o in obs] == ["complete_intersection", "lex_link"]
        ci, lexo = obs
        assert ci["applicable"] is False
        assert ci["reason"] == "generator supports are not disjoint"
        assert lexo["applicable"] is False
        assert lexo["witness"] == {
            "dim": 3,
            "failing_vertices": [3, 4],
            "free_faces": [
                [1, 2, 3], [1, 2, 5], [1, 3, 6], [1, 4, 5],
                [1, 4, 6], [2, 3, 6], [2, 5, 6], [4, 5, 6],
            ],
        }

    def test_conjectures_consistent_and_unrefuted(self, minors_report):
        d = to_jsonable(minors_report.as_dict())
        assert d["conjectures"] == {
            "cm": "consistent",
            "cm_negative_a": "consistent",
            "cm_acyclic": "consistent",
            "hypothesis_refuted_by": [],
        }


class TestAnalyzeEdgeCases:
    def test_zero_ideal_gives_the_full_simplex(self):
        ctx = ctx_xyz()
        lex = MonomialOrder.lex(ctx)
        d = to_jsonable(analyze([], lex).as_dict())
        assert d["initial_ideal"] == []
        assert d["reduced_groebner_basis"] == []
        assert d["squarefree"] is True
        assert d["facets"] == "facets: 1 2 3"
        assert d["complex"]["cone_points"] == [1, 2, 3]
        assert d["complex"]["leaves"] == [1, 2, 3]
        assert d["coordinate_points"] == []
        assert [o["kind"] for o in d["obstructions"]] == ["lex_link"]
        assert d["obstructions"][0]["applicable"] is False
        assert d["conjectures"]["hypothesis_refuted_by"] == []

    def test_weighted_grading_has_no_coordinate_points(self):
        ctx = standard_context(("x", "y", "z"), grading=(1, 1, 2))
        drl = MonomialOrder.degrevlex(ctx)
        d = to_jsonable(analyze([P("x*y - z", ctx, drl)], drl).as_dict())
        assert d["ring"] == "QQ x,y,z grading 1,1,2"
        assert d["initial_ideal"] == ["x*y"]
        assert d["squarefree"] is True
        assert d["facets"] == "facets: 1 3; 2 3"
        assert d["coordinate_points"] == []
        assert [o["kind"] for o in d["obstructions"]] == ["lex_link"]

    def test_inhomogeneous_generator_is_rejected(self):
        ctx = ctx_xyz()
        lex = MonomialOrder.lex(ctx)
        with pytest.raises(ValueError, match=r"inhomogeneous generator: x\^2 \+ y"):
            analyze([P("x^2 + y", ctx, lex)], lex)

    def test_irrelevant_ideal_is_rejected(self):
        ctx = ctx_xyz()
        lex = MonomialOrder.lex(ctx)
        gens = [P(t, ctx, lex) for t in ("x", "y", "z")]
        with pytest.raises(
            ValueError,
            match="initial ideal contains every variable: the projective scheme is empty",
        ):
            analyze(gens, lex)


class TestScanOrders:
    def test_fermat_has_three_initial_ideals_none_squarefree(self):
        ctx = ctx_xyz()
        f = P(FERMAT, ctx, MonomialOrder.degrevlex(ctx))
        reps = scan_orders([f], family="both")
        dicts = [to_jsonable(r.as_dict()) for r in reps]
        assert [d["initial_ideal"] for d in dicts] == [["x^3"], ["y^3"], ["z^3"]]
        assert [d["squarefree"] for d in dicts] == [False, False, False]
        assert dicts[0]["producing_orders"] == [
            "lex x>y>z",
            "lex x>z>y",
            "degrevlex x>y>z",
            "degrevlex x>z>y",
        ]
        assert all(len(d["producing_orders"]) == 4 for d in dicts)

    def test_cubic_lex_family(self):
        ctx = ctx_xyz()
        f = P(CUBIC, ctx, MonomialOrder.lex(ctx))
        reps = scan_orders([f], family="lex")
        dicts = [to_jsonable(r.as_dict()) for r in reps]
        assert [d["initial_ideal"] for d in dicts] == [["x*y*z"], ["y^3"], ["z^3"]]
        assert [d["squarefree"] for d in dicts] == [True, False, False]
        assert dicts[0]["producing_orders"] == ["lex x>y>z", "lex x>z>y"]

    def test_principal_linear_ideal_sees_a_ghost_vertex(self):
        ctx = ctx_n(3)
        f = P("x1", ctx, MonomialOrder.lex(ctx))
        reps = scan_orders([f])
        assert len(reps) == 1
        d = to_jsonable(reps[0].as_dict())
        assert len(d["producing_orders"]) == 12
        assert d["facets"] == "facets: 2 3"
        assert d["complex"]["ghost_vertices"] == [1]
        assert [p["verdict"] for p in d["coordinate_points"]] == [
            "off_scheme",
            "smooth",
            "smooth",
        ]
        assert [o["kind"] for o in d["obstructions"]] == [
            "complete_intersection",
            "lex_link",
        ]

    def test_workers_do_not_change_the_result(self):
        ctx = ctx_xyz()
        f = P(FERMAT, ctx, MonomialOrder.degrevlex(ctx))
        one = scan_orders([f], family="both", workers=1)
        three = scan_orders([f], family="both", workers=3)
        assert [as_json(r) for r in one] == [as_json(r) for r in three]

    def test_workers_do_not_change_a_many_cone_scan(self):
        # twisted cubic: 2x2 minors of the 2x3 Hankel matrix, 48 orders
        ctx = ctx_n(4)
        drl = MonomialOrder.degrevlex(ctx)
        gens = [P(t, ctx, drl) for t in ("x1*x3 - x2^2", "x1*x4 - x2*x3", "x2*x4 - x3^2")]
        runs = [scan_orders(gens, family="both", workers=w) for w in (1, 2, 3)]
        assert len(runs[0]) > 3
        assert sum(len(r.producing_orders) for r in runs[0]) == 48
        one = [as_json(r) for r in runs[0]]
        assert [as_json(r) for r in runs[1]] == one
        assert [as_json(r) for r in runs[2]] == one

    def test_inhomogeneous_generator_is_rejected_before_scanning(self, monkeypatch):
        calls = count_calls(monkeypatch, "buchberger", module="groebner")
        ctx = ctx_xyz()
        f = P("x^2 + y", ctx, MonomialOrder.degrevlex(ctx))
        with pytest.raises(ValueError, match=r"inhomogeneous generator: x\^2 \+ y"):
            scan_orders([f])
        assert calls == []

    def test_empty_generator_list_is_rejected(self):
        with pytest.raises(ValueError, match="order scan needs at least one generator"):
            scan_orders([])

    def test_factorial_bound(self):
        ctx = ctx_n(9)
        f = P("x1*x2", ctx, MonomialOrder.lex(ctx))
        with pytest.raises(
            ScanBoundExceeded,
            match=r"scanning 9 variables means 9! permutations; the bound is 8",
        ):
            scan_orders([f])

    def test_unknown_family(self):
        ctx = ctx_xyz()
        f = P(FERMAT, ctx, MonomialOrder.lex(ctx))
        with pytest.raises(
            ValueError, match=r"unknown order family 'grlex' \(want lex, degrevlex, or both\)"
        ):
            scan_orders([f], family="grlex")


def _plain_scan(gens):
    """(initial ideal, producing orders, rendered basis) per ideal over both order
    families, one completion per order."""
    ctx = gens[0].ctx
    groups = {}
    for kind in ("lex", "degrevlex"):
        for perm in itertools.permutations(range(ctx.n)):
            order = MonomialOrder(kind, ctx, perm=perm)
            B = buchberger(gens, order)
            M = initial_ideal(B)
            if M.gens not in groups:
                groups[M.gens] = (list(M.render_gens()), [], list(B.render_polys()))
            groups[M.gens][1].append(order.render())
    return list(groups.values())


class TestScanOracle:
    """``scan_orders`` against a plain completion for every order, on random ideals."""

    @pytest.mark.parametrize("field", [QQ, PrimeField(2), PrimeField(3)], ids=str)
    def test_matches_one_completion_per_order(self, field):
        rng = random.Random(f"scan-oracle-{field.render()}")
        for _ in range(6):
            ctx = ctx_n(rng.choice((3, 4)), field)
            order = MonomialOrder.degrevlex(ctx)
            gens = [
                random_homogeneous_poly(rng, ctx, order, rng.randint(1, 3))
                for _ in range(rng.randint(1, 3))
            ]
            reports = scan_orders(gens, family="both")
            assert [
                (list(r.initial.render_gens()), list(r.producing_orders), list(r.basis.render_polys()))
                for r in reports
            ] == _plain_scan(gens)
            for r in reports:
                alone = analyze(gens, r.order)
                assert as_json(r) == as_json(
                    replace(alone, producing_orders=r.producing_orders)
                )
            by_order = {o: r for r in reports for o in r.producing_orders}
            for kind in ("lex", "degrevlex", rng.choice(("lex", "degrevlex"))):
                perm = tuple(rng.sample(range(ctx.n), ctx.n))
                o = MonomialOrder(kind, ctx, perm=perm)
                leads = sorted(m.exps for m in by_order[o.render()].initial.gens)
                assert leads == ref_initial_monomials(gens, o)


class TestLiftSearch:
    def triangle(self):
        return SimplicialComplex.from_facets(3, [(1, 2), (1, 3), (2, 3)])

    def four_cycle(self):
        return SimplicialComplex.from_facets(4, [(1, 2), (2, 3), (3, 4), (1, 4)])

    def test_three_cycle_default_budget_is_sampled(self):
        ctx = ctx_n(3)
        drl = MonomialOrder.degrevlex(ctx)
        res = lift_search(self.triangle(), drl, pool=(-2, -1, 1, 2))
        d = to_jsonable(res.as_dict())
        assert d["pool"] == ["-2", "-1", "1", "2"]
        assert d["candidate_space"] == 256
        assert d["exhaustive"] is False
        assert d["candidates_tried"] == 200
        assert d["targets"] == ["x1*x2*x3"]
        assert d["empty_tail_targets"] == []
        assert d["top_variable"] == "x1"
        assert d["valid_lift_count"] == 133
        assert d["lifts_singular_at_top_point"] == 133
        assert all(
            lift["support_violations"] == [] for lift in d["valid_lifts"]
        )

    def test_three_cycle_exhaustive_when_budget_covers_the_space(self):
        ctx = ctx_n(3)
        drl = MonomialOrder.degrevlex(ctx)
        res = lift_search(self.triangle(), drl, pool=(-2, -1, 1, 2), budget=300)
        d = to_jsonable(res.as_dict())
        assert d["exhaustive"] is True
        assert d["candidates_tried"] == 256
        assert d["valid_lift_count"] == 256
        assert d["lifts_singular_at_top_point"] == 256

    def test_four_cycle_budget_500(self):
        ctx = ctx_n(4)
        drl = MonomialOrder.degrevlex(ctx)
        res = lift_search(
            self.four_cycle(), drl, pool=(-2, -1, 1, 2), budget=500, seed=11
        )
        d = to_jsonable(res.as_dict())
        assert d["candidate_space"] == 16384
        assert d["candidates_tried"] == 500
        assert d["targets"] == ["x2*x4", "x1*x3"]
        assert d["valid_lift_count"] == 487
        assert d["lifts_singular_at_top_point"] == 487

    def test_workers_do_not_change_the_result(self):
        ctx = ctx_n(4)
        drl = MonomialOrder.degrevlex(ctx)
        one = lift_search(
            self.four_cycle(), drl, pool=(-2, -1, 1, 2), budget=500, seed=11
        )
        three = lift_search(
            self.four_cycle(), drl, pool=(-2, -1, 1, 2), budget=500, seed=11, workers=3
        )
        assert as_json(one) == as_json(three)

    def test_lone_vertex_has_an_empty_tail_target(self):
        delta = SimplicialComplex.from_facets(2, [(1,)])
        ctx = ctx_n(2)
        drl = MonomialOrder.degrevlex(ctx)
        d = to_jsonable(lift_search(delta, drl).as_dict())
        assert d["candidate_space"] == 1
        assert d["exhaustive"] is True
        assert d["targets"] == ["x2"]
        assert d["empty_tail_targets"] == ["x2"]
        assert d["valid_lift_count"] == 1
        points = d["valid_lifts"][0]["coordinate_points"]
        assert [p["verdict"] for p in points] == ["smooth", "off_scheme"]

    def test_prime_field_pool(self):
        ctx = ctx_n(3, PrimeField(3))
        drl = MonomialOrder.degrevlex(ctx)
        res = lift_search(self.triangle(), drl, pool=range(3), budget=100)
        d = to_jsonable(res.as_dict())
        assert d["pool"] == ["0", "1", "2"]
        assert d["candidate_space"] == 81
        assert d["exhaustive"] is True
        assert d["valid_lift_count"] == 81
        assert d["lifts_singular_at_top_point"] == 81

    def test_pool_deduplication(self):
        ctx = ctx_n(3)
        drl = MonomialOrder.degrevlex(ctx)
        res = lift_search(self.triangle(), drl, pool=(2, 2, -2), budget=300)
        d = to_jsonable(res.as_dict())
        assert d["pool"] == ["2", "-2"]
        assert d["candidate_space"] == 16

    @pytest.mark.parametrize("facet", [(1,), (1, 2), (1, 2, 3)])
    def test_a_full_simplex_has_one_empty_lift(self, facet):
        drl = MonomialOrder.degrevlex(ctx_n(len(facet)))
        res = lift_search(SimplicialComplex.from_facets(len(facet), [facet]), drl)
        assert (res.space, res.tried, res.targets) == (1, 1, ())
        assert [lift.as_dict() for lift in res.lifts] == [{
            "generators": [],
            "coordinate_points": [],
            "singular_at_every_scheme_point": False,
            "support_violations": [],
        }]

    def test_vertex_count_mismatch(self):
        ctx = ctx_n(4)
        drl = MonomialOrder.degrevlex(ctx)
        with pytest.raises(
            ValueError, match="complex and ring have different vertex counts"
        ):
            lift_search(self.triangle(), drl)

    def test_nonstandard_grading_is_rejected(self):
        ctx = standard_context(("x1", "x2", "x3"), grading=(1, 2, 1))
        drl = MonomialOrder.degrevlex(ctx)
        with pytest.raises(ValueError, match="lift search requires the standard grading"):
            lift_search(self.triangle(), drl)

    def test_empty_pool_is_rejected(self):
        ctx = ctx_n(3)
        drl = MonomialOrder.degrevlex(ctx)
        with pytest.raises(ValueError, match="empty coefficient pool"):
            lift_search(self.triangle(), drl, pool=())

    @pytest.mark.parametrize("budget", [0, -3])
    def test_budget_below_one_is_rejected(self, budget):
        drl = MonomialOrder.degrevlex(ctx_n(3))
        with pytest.raises(ValueError, match="budget must be >= 1"):
            lift_search(self.triangle(), drl, budget=budget)


def lift_candidates(delta, order, coeffs):
    """Every lift candidate of the non-face ideal, built from the definition."""
    ctx = order.ctx
    targets = to_ideal(delta, ctx).gens
    tails = []
    for t in targets:
        d = t.degree()
        tails.append([
            Monomial(e)
            for e in itertools.product(range(d + 1), repeat=ctx.n)
            if sum(e) == d
            and order.exps_key(e) < order.sort_key(t)
            and not any(g.divides(Monomial(e)) for g in targets)
        ])
    slots = [(ti, m) for ti, ms in enumerate(tails) for m in ms]
    for choice in itertools.product(coeffs, repeat=len(slots)):
        terms = [[(t, 1)] for t in targets]
        for (ti, m), c in zip(slots, choice):
            if c:
                terms[ti].append((m, c))
        yield tuple(Polynomial(ctx, order, ts) for ts in terms)


@pytest.fixture
def checked(monkeypatch):
    """The ``(check, distinct assignments)`` of each lift search the test runs."""
    seen = []
    original = pipeline._ordered_map

    def recording(fn, items, workers):
        if isinstance(fn, pipeline._LiftCheck):
            seen.append((fn, items))
        return original(fn, items, workers)

    monkeypatch.setattr(pipeline, "_ordered_map", recording)
    return seen


def candidates(run, assignments):
    """The polynomials of each candidate a search checked, in checking order."""
    return [tuple(pipeline._build_lift(run.order, run.targets, run.slots, run.coeffs, a)) for a in assignments]


class TestLiftOracle:
    """Lift verdicts against the criterion-free completion in conftest."""

    PATH = SimplicialComplex.from_facets(4, [(1, 2), (2, 3), (3, 4)])
    STAR = SimplicialComplex.from_facets(4, [(1, 2), (1, 3), (1, 4)])

    @pytest.mark.parametrize(
        "delta,field,pool,space,valid",
        [
            (PATH, PrimeField(2), (0, 1), 256, 32),
            (STAR, PrimeField(3), (0, 1, 2), 243, 27),
            (STAR, QQ, (-1, 0, 1), 243, 23),
        ],
    )
    def test_exhaustive_spaces(self, delta, field, pool, space, valid):
        drl = MonomialOrder.degrevlex(ctx_n(4, field))
        res = lift_search(delta, drl, pool=pool, budget=space)
        assert res.exhaustive and res.tried == space
        targets = sorted(t.exps for t in res.targets)
        expected = [
            c for c in lift_candidates(delta, drl, pool)
            if ref_initial_monomials(c, drl) == targets
        ]
        assert len(expected) == valid
        assert len(res.lifts) == valid
        assert {lift.polys for lift in res.lifts} == set(expected)

    @pytest.mark.parametrize(
        "field,pool", [(PrimeField(3), (0, 1, 2)), (QQ, (2, 0, -1))], ids=["GF(3)", "QQ"]
    )
    def test_candidates_are_built_in_canonical_form(self, field, pool, checked):
        """The trusted construction gives exactly the terms ``Polynomial`` would."""
        drl = MonomialOrder.degrevlex(ctx_n(4, field))
        res = lift_search(self.STAR, drl, pool=pool, budget=243)
        assert res.exhaustive
        built = candidates(*checked[0])
        assert len(built) == 243
        assert all(g.order is drl and g.ctx is drl.ctx for polys in built for g in polys)
        got = {tuple(g.terms for g in polys) for polys in built}
        want = {tuple(g.terms for g in polys) for polys in lift_candidates(self.STAR, drl, pool)}
        assert len(got) == 243 and got == want

    def test_sampled_five_cycle_has_no_valid_lift(self, monkeypatch, checked):
        built = count_calls(monkeypatch, "_build_lift", module="pipeline")
        cycle = SimplicialComplex.from_facets(5, [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)])
        drl = MonomialOrder.degrevlex(ctx_n(5, PrimeField(2)))
        res = lift_search(cycle, drl, budget=30, seed=4)
        assert not res.exhaustive and res.tried == 30 and res.lifts == ()
        assert built == []  # no candidate is valid, so none is built
        drawn = candidates(*checked[0])
        assert drawn
        targets = sorted(t.exps for t in res.targets)
        assert not any(ref_valid_lift(c, drl) for c in drawn)
        assert all(ref_initial_monomials(c, drl) != targets for c in drawn)

    def test_degree_cap_does_not_change_lift_verdicts(self, tmp_path, capsys):
        job = tmp_path / "path.job"
        job.write_text("facets: 1 2; 2 3; 3 4\nfield GF(2)\nbudget 256\n")
        assert cli.main(["lift-search", str(job), "--degree-cap", "2"]) == 0
        assert json.loads(capsys.readouterr().out)["valid_lift_count"] == 32


BOWTIE = SimplicialComplex.from_facets(5, [(1, 2, 3), (3, 4, 5)])


class TestStratumEquationsOracle:
    """The stratum equations against dividing every S-pair of each candidate
    (``ref_valid_lift``), candidate by candidate, in checking order."""

    @staticmethod
    def agree(res, checked, order):
        drawn = candidates(*checked[-1])
        want = [c for c in drawn if ref_valid_lift(c, order)]
        assert [lift.polys for lift in res.lifts] == want
        return len(drawn), len(want)

    @pytest.mark.parametrize(
        "delta,field,pool,space,valid",
        [
            (TestLiftOracle.PATH, PrimeField(2), (0, 1), 256, 32),
            (TestLiftOracle.STAR, PrimeField(3), (0, 1, 2), 243, 27),
            (TestLiftOracle.STAR, QQ, (-1, 0, 1), 243, 23),
            (TestLiftOracle.STAR, QQ, (0, Fraction(1, 2), -1), 243, None),
            (BOWTIE, PrimeField(2), (0, 1), 65536, 64),
        ],
        ids=["path-GF(2)", "star-GF(3)", "star-QQ", "star-QQ-half", "bowtie-GF(2)"],
    )
    def test_every_candidate_of_an_exhaustive_space(self, checked, delta, field, pool, space, valid):
        drl = MonomialOrder.degrevlex(ctx_n(delta.n, field))
        res = lift_search(delta, drl, pool=pool, budget=space)
        assert res.exhaustive
        tried, found = self.agree(res, checked, drl)
        assert tried == space
        assert 0 < found < space if valid is None else found == valid

    def test_seeded_random_complexes(self, checked):
        """Non-pure and ghost-vertex complexes, both orders, three fields, and a
        QQ pool with 0 and 1/2."""
        rng = random.Random(29)
        tried = found = ghosts = non_pure = 0
        for k in range(15):
            n = rng.randint(4, 6)
            delta = random_complex(rng, n, max_facets=5)
            perm = tuple(rng.sample(range(n), n))
            ghosts += len({v for f in delta.facets for v in f}) < n
            non_pure += len({len(f) for f in delta.facets}) > 1
            for field, pool in [(QQ, None), (QQ, (0, Fraction(1, 2), -1)), (PrimeField(2), None), (PrimeField(3), None)]:
                for kind in ("lex", "degrevlex"):
                    order = MonomialOrder(kind, ctx_n(n, field), perm=perm)
                    res = lift_search(delta, order, pool=pool, budget=24, seed=k)
                    t, f = self.agree(res, checked, order)
                    tried, found = tried + t, found + f
        assert ghosts and non_pure and 0 < found < tried


class TestCoordinatePointsOracle:
    """The one-pass coordinate-point Jacobians against ``jacobian_rank_at``."""

    N = 4

    def random_gen(self, rng, ctx, order):
        """A nonzero form of degree 1-4 (or p), mostly x_i^d and x_i^(d-1)*x_j terms."""
        p = ctx.field.characteristic()
        # degree p puts exponents divisible by p (x^2 over GF(2), x^5 over GF(5)) into the rows
        d = rng.choice((1, 2, 3, 4, p) if p else (1, 2, 3, 4))
        while True:
            terms = []
            for _ in range(rng.randint(1, 4)):
                i, j = rng.sample(range(self.N), 2)
                exps = [0] * self.N
                shape = rng.randrange(5)
                if shape == 0:
                    exps[i] = d
                elif shape < 3:
                    exps[i], exps[j] = d - 1, 1
                else:
                    for _ in range(d):
                        exps[rng.randrange(self.N)] += 1
                if p:
                    c = rng.randrange(1, p)
                else:
                    c = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.choice([1, 2, 3, 4]))
                terms.append((Monomial(tuple(exps)), c))
            g = Polynomial(ctx, order, terms)
            if not g.is_zero():
                return g

    @pytest.mark.parametrize("field", [QQ, PrimeField(2), PrimeField(3), PrimeField(5)], ids=str)
    def test_matches_jacobian_rank_at(self, field):
        rng = random.Random(f"coordinate-points-{field.render()}")
        ctx = ctx_n(self.N, field)
        order = MonomialOrder.degrevlex(ctx)
        units = pipeline._unit_points(ctx)
        verdicts = set()
        for _ in range(150):
            gens = [self.random_gen(rng, ctx, order) for _ in range(rng.randint(2, 4))]
            codim = rng.randint(1, len(gens))
            got = pipeline._coordinate_points(gens, units, codim)
            want = tuple(
                jacobian_rank_at(gens, ProjPoint.coordinate(field, self.N, i), codim)
                for i in range(self.N)
            )
            assert got == want, [g.render() for g in gens]
            verdicts.update(a.verdict for a in got)
        assert verdicts == {"off_scheme", "singular", "smooth"}


class TestBayerStillman:
    """Under degrevlex, the last variable is regular on S/I iff it is on S/in(I)
    (Bayer & Stillman, Invent. Math. 1987). A valid lift's in(I) is the
    non-face ideal, so the elimination oracle on the lift must agree with the
    cone-point test on the complex."""

    COMPLEXES = [
        (4, [(1, 2), (2, 3), (3, 4), (1, 4)]),  # the 4-cycle: no cone point
        (4, [(1, 2, 4), (2, 3, 4)]),  # cone points 2 and 4
        (3, [(1, 2), (1, 3), (2, 3)]),  # the triangle boundary: none
        (3, [(1, 3), (2, 3)]),  # cone point 3
    ]

    def test_last_variable_regular_iff_cone_point(self):
        verdicts = []
        for n, facets in self.COMPLEXES:
            delta = SimplicialComplex.from_facets(n, facets)
            drl = MonomialOrder.degrevlex(ctx_n(n))
            cone = n in property_report(delta).cone_points
            lifts = lift_search(delta, drl, pool=(-1, 1), budget=12, seed=3).lifts[:4]
            assert lifts, facets
            for lift in lifts:
                assert ref_is_variable_regular(buchberger(lift.polys, drl), n - 1) == cone, (
                    [g.render() for g in lift.polys]
                )
                verdicts.append(cone)
        assert len(verdicts) >= 12 and True in verdicts and False in verdicts


class TestCountPoints:
    # (p, count, trace, smooth, supersingular, hasse_ok)
    FERMAT_TABLE = [
        (2, 3, 0, True, True, True),
        (3, 4, 0, False, None, None),
        (5, 6, 0, True, True, True),
        (7, 9, -1, True, False, True),
        (11, 12, 0, True, True, True),
        (13, 9, 5, True, False, True),
        (17, 18, 0, True, True, True),
    ]

    @pytest.mark.parametrize("p,count,trace,smooth,ss,hasse", FERMAT_TABLE)
    def test_fermat_frozen_counts(self, fermat_curve, p, count, trace, smooth, ss, hasse):
        r = count_points(fermat_curve, p)
        assert r.count == count
        assert r.trace == trace
        assert r.smooth is smooth
        assert r.supersingular is ss
        assert r.hasse_ok is hasse

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
    def test_fermat_matches_the_brute_force_count(self, fermat_curve, p):
        assert count_points(fermat_curve, p).count == brute_projective_count(fermat_curve, p)

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_random_cubics_match_the_brute_force_count(self, p):
        import random

        rng = random.Random(p)
        ctx = ctx_xyz()
        drl = MonomialOrder.degrevlex(ctx)
        cubes = ["x^3", "y^3", "z^3", "x*y*z", "x^2*y", "x*z^2", "y^2*z"]
        for _ in range(5):
            picks = rng.sample(cubes, 3)
            text = picks[0] + " + " + " + ".join(
                f"{rng.randrange(1, 5)}*{m}" for m in picks[1:]
            )
            f = P(text, ctx, drl)
            r = count_points(f, p)
            assert r.count == brute_projective_count(f, p)
            assert r.trace == p + 1 - r.count

    def test_singular_cubic_reports_its_singular_points(self):
        ctx = ctx_xyz()
        f = P(CUBIC, ctx, MonomialOrder.degrevlex(ctx))
        r = count_points(f, 7)
        assert r.count == 7
        assert r.trace == 1
        assert r.smooth is False
        assert r.singular_points == ("[1:0:0]",)
        assert r.supersingular is None
        assert r.hasse_ok is None

    def test_smooth_conic_gets_no_elliptic_verdicts(self):
        ctx = ctx_xyz()
        r = count_points(P("x^2 + y*z", ctx, MonomialOrder.degrevlex(ctx)), 5)
        assert r.count == 6
        assert r.smooth is True
        assert r.supersingular is None
        assert r.hasse_ok is None
        assert r.curve == "x^2 + y*z"

    def test_integer_content_does_not_break_reduction(self):
        ctx = ctx_xyz()
        f = P("2*x^3 + 2*y^3 + 2*z^3", ctx, MonomialOrder.degrevlex(ctx))
        r = count_points(f, 2)
        assert r.count == 3
        assert r.smooth is True

    def test_prime_field_curve_counts_over_its_own_field(self):
        ctx = ctx_xyz(PrimeField(3))
        f = P(FERMAT, ctx, MonomialOrder.degrevlex(ctx))
        r = count_points(f, 3)
        assert r.count == 4
        assert r.smooth is False
        assert r.singular_points == ("[1:0:2]", "[1:1:1]", "[1:2:0]", "[0:1:2]")

    def test_prime_field_curve_cannot_change_characteristic(self):
        ctx = ctx_xyz(PrimeField(3))
        f = P(FERMAT, ctx, MonomialOrder.degrevlex(ctx))
        with pytest.raises(ValueError, match=r"curve lives over GF\(3\), cannot reduce mod 5"):
            count_points(f, 5)

    def test_bad_prime_for_a_denominator(self):
        ctx = ctx_xyz()
        f = P("x^3 + y^3/5 + z^3", ctx, MonomialOrder.degrevlex(ctx))
        with pytest.raises(
            ValueError, match="bad prime 5: denominator of coefficient 1/5 vanishes"
        ):
            count_points(f, 5)

    def test_composite_modulus_is_rejected(self, fermat_curve):
        with pytest.raises(ValueError, match="4 is not prime"):
            count_points(fermat_curve, 4)

    def test_needs_three_variables(self):
        ctx = standard_context(("x", "y"))
        f = P("x^2 + y^2", ctx, MonomialOrder.degrevlex(ctx))
        with pytest.raises(
            ValueError, match="point counting is for plane curves in three variables"
        ):
            count_points(f, 5)

    def test_needs_a_homogeneous_form(self):
        ctx = ctx_xyz()
        f = P("x^2 + y", ctx, MonomialOrder.degrevlex(ctx))
        with pytest.raises(ValueError, match="point counting needs a nonzero homogeneous form"):
            count_points(f, 5)

    def test_rejects_the_zero_polynomial(self):
        ctx = ctx_xyz()
        with pytest.raises(ValueError, match="point counting needs a nonzero homogeneous form"):
            count_points(Polynomial.zero(ctx, MonomialOrder.degrevlex(ctx)), 5)

    def test_requires_the_standard_grading(self):
        ctx = standard_context(("x", "y", "z"), grading=(1, 1, 2))
        f = P("x^2*z", ctx, MonomialOrder.degrevlex(ctx))
        with pytest.raises(ValueError, match="point counting requires the standard grading"):
            count_points(f, 5)


def textbook_point_count(f, p):
    """(count, singular points) of the plane curve f over GF(p), or None when
    f vanishes mod p: the textbook partial derivatives, evaluated mod p at
    every point of P^2(F_p). A rational f is reduced from its primitive
    integral form."""
    terms = ref_terms(f)
    if not f.ctx.field.characteristic():
        scale = math.lcm(*(c.denominator for _, c in terms))
        content = math.gcd(*(int(c * scale) for _, c in terms))
        terms = [(e, int(c * scale) // content) for e, c in terms]
    if all(ref_evaluate([t], (1, 1, 1), p) == 0 for t in terms):  # every coefficient is 0 mod p
        return None
    partials = [ref_partial_derivative(terms, j) for j in range(3)]
    points = [(1, y, z) for y in range(p) for z in range(p)] + [(0, 1, z) for z in range(p)] + [(0, 0, 1)]
    on_curve = [pt for pt in points if ref_evaluate(terms, pt, p) == 0]
    singular = [pt for pt in on_curve if all(ref_evaluate(d, pt, p) == 0 for d in partials)]
    return len(on_curve), tuple("[" + ":".join(map(str, pt)) + "]" for pt in singular)


class TestCountPointsOracle:
    """``count_points`` (count and singular points) against the textbook route."""

    PRIMES = (2, 3, 5, 7)

    def random_curve(self, rng, ctx, order):
        """A random plane curve of degree 1-4, or a product of random lines."""
        field = ctx.field

        def scalar():
            c = rng.choice([-3, -2, -1, 1, 2, 3, 0])
            # denominators 11 and 13 are units mod every prime tried
            return Fraction(c, rng.choice([1, 1, 11, 13])) if not field.characteristic() else c

        if rng.random() < 0.3:
            f = Polynomial.constant(ctx, order, 1)
            for _ in range(rng.randint(2, 4)):
                f = f * Polynomial(ctx, order, [(Monomial.variable(i, 3), scalar()) for i in range(3)])
            return f
        d = rng.randint(1, 4)
        monos = [Monomial((a, b, d - a - b)) for a in range(d + 1) for b in range(d + 1 - a)]
        return Polynomial(ctx, order, [(m, scalar()) for m in rng.sample(monos, rng.randint(1, len(monos)))])

    def curves(self):
        rng = random.Random(29)
        for field in (QQ,) + tuple(PrimeField(p) for p in self.PRIMES):
            ctx = ctx_xyz(field)
            order = MonomialOrder.degrevlex(ctx)
            fixed = ["y^2*z - x^3", "x*y*(x - y)*(x + y - z)", "x^3 + y^3 + z^3", "x^2 - y^2"]
            yield from (P(t, ctx, order) for t in fixed)
            for _ in range(25):
                yield self.random_curve(rng, ctx, order)

    def test_matches_the_textbook_route(self):
        checked = singular = 0
        for f in self.curves():
            char = f.ctx.field.characteristic()
            for p in (char,) if char else self.PRIMES:
                want = None if f.is_zero() else textbook_point_count(f, p)
                if want is None:
                    with pytest.raises(ValueError, match="needs a nonzero|vanishes identically"):
                        count_points(f, p)
                    continue
                r = count_points(f, p)
                assert (r.count, r.singular_points) == want, (f.render(), p)
                assert r.smooth == (not r.singular_points)
                checked += 1
                singular += bool(r.singular_points)
        assert checked > 200 and singular > 50

    def test_every_point_is_singular_when_every_partial_vanishes(self):
        ctx = ctx_xyz(PrimeField(3))
        r = count_points(P("x^3 + y^3 + z^3", ctx, MonomialOrder.degrevlex(ctx)), 3)
        assert (r.count, r.singular_points) == (4, ("[1:0:2]", "[1:1:1]", "[1:2:0]", "[0:1:2]"))


class TestAnalyzeComplex:
    def test_octahedron_report(self):
        d = to_jsonable(analyze_complex(OCTAHEDRON).as_dict())
        assert sorted(d) == [
            "cohomology",
            "dim",
            "f_vector",
            "facets",
            "lex_obstruction",
            "n",
            "properties",
        ]
        assert d["n"] == 6
        assert d["dim"] == 2
        assert d["f_vector"] == [6, 12, 8]
        assert d["cohomology"]["dims"] == [0, 0, 1]
        assert d["properties"]["cohen_macaulay"] is True
        assert d["lex_obstruction"]["certified"] is True
        assert d["lex_obstruction"]["witness"] == {
            "dim": 2,
            "link_sizes": {str(v): 4 for v in range(1, 7)},
        }

    def test_projective_plane_sees_the_field(self):
        over_q = to_jsonable(analyze_complex(RP2).as_dict())
        over_f2 = to_jsonable(analyze_complex(RP2, field=PrimeField(2)).as_dict())
        assert over_q["cohomology"] == {
            "field": "QQ",
            "dims": [0, 0, 0],
            "reduced_euler_characteristic": 0,
            "acyclic": True,
        }
        assert over_f2["cohomology"] == {
            "field": "GF(2)",
            "dims": [0, 1, 1],
            "reduced_euler_characteristic": 0,
            "acyclic": False,
        }
        assert over_q["properties"]["cohen_macaulay"] is True
        assert over_q["properties"]["negative_a_invariant_given_cm"] is True
        assert over_f2["properties"]["cohen_macaulay"] is False
        assert over_f2["properties"]["buchsbaum"] is True
        assert over_f2["properties"]["negative_a_invariant_given_cm"] is False


def distinct_links(delta):
    """The relabelled links of the non-facet nonempty faces, each once."""
    facets = set(delta.facets)
    return {link(delta, f).complex for f in ref_faces(delta) if f not in facets}


def count_calls(monkeypatch, name, module="complexes"):
    """Wrap the function ``grodeg.<module>.<name>`` in every grodeg module that
    holds it; the returned list gains one entry per call."""
    original = getattr(sys.modules[f"grodeg.{module}"], name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "grodeg" or mod_name.startswith("grodeg."):
            for attr, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, attr, counted)
    return calls


class TestNoWorkTwice:
    def test_analyze_complex_computes_each_cohomology_once(self, monkeypatch):
        calls = count_calls(monkeypatch, "reduced_cohomology")
        report = analyze_complex(OCTAHEDRON)
        assert len(calls) == 1 + len(distinct_links(OCTAHEDRON))
        assert len(calls) == 4  # the octahedron, two labellings of the 4-cycle, S^0
        assert [a[0] for a in calls].count(OCTAHEDRON) == 1
        assert report.as_dict()["cohomology"]["dims"] == [0, 0, 1]

    def test_analyze_computes_each_cohomology_once(self, monkeypatch):
        calls = count_calls(monkeypatch, "reduced_cohomology")
        ctx = ctx_xyz()
        report = analyze([P(CUBIC, ctx, MonomialOrder.lex(ctx))], MonomialOrder.lex(ctx))
        delta = report.delta
        assert len(calls) == 1 + len(distinct_links(delta))

    def test_scan_hashes_the_ideal_once(self, monkeypatch):
        calls = count_calls(monkeypatch, "ideal_digest", module="pipeline")
        ctx = ctx_n(4)
        drl = MonomialOrder.degrevlex(ctx)
        gens = [P(t, ctx, drl) for t in ("x1*x3 - x2^2", "x1*x4 - x2*x3", "x2*x4 - x3^2")]
        reports = scan_orders(gens)
        assert len(reports) > 3 and len(calls) == 1
        assert {r.digest for r in reports} == {ideal_digest(ctx, gens)}
        analyze(gens, drl)
        assert len(calls) == 2

    def test_lex_obstruction_runs_no_property_report(self, monkeypatch):
        calls = count_calls(monkeypatch, "property_report")
        path = SimplicialComplex.from_facets(3, [(1, 2), (2, 3)])
        report = analyze_complex(path)
        assert len(calls) == 1
        assert report.lex.witness["free_faces"] == [[1], [3]]

    def test_lift_search_completes_no_candidate(self, monkeypatch):
        calls = count_calls(monkeypatch, "buchberger", module="groebner")
        four_cycle = SimplicialComplex.from_facets(4, [(1, 2), (2, 3), (3, 4), (1, 4)])
        for field in (QQ, PrimeField(3)):
            drl = MonomialOrder.degrevlex(ctx_n(4, field))
            res = lift_search(four_cycle, drl, budget=60, seed=3)
            assert res.tried == 60 and len(res.lifts) > 0
            assert calls == []
            # the search's one exclusion table reads the candidate as its own reduced basis
            for lift in res.lifts:
                B = buchberger(lift.polys, drl)  # this module's name is not wrapped
                assert tuple(support_exclusions(B, four_cycle)) == lift.support_violations

    def test_lift_search_builds_the_non_face_ideal_once(self, monkeypatch):
        calls = count_calls(monkeypatch, "to_ideal")
        four_cycle = SimplicialComplex.from_facets(4, [(1, 2), (2, 3), (3, 4), (1, 4)])
        res = lift_search(four_cycle, MonomialOrder.degrevlex(ctx_n(4)), budget=60, seed=3)
        assert len(res.lifts) > 1
        assert len(calls) == 1

    def test_lift_search_builds_points_and_table_at_the_first_valid_lift(self, monkeypatch):
        units = count_calls(monkeypatch, "_unit_points", module="pipeline")
        tables = count_calls(monkeypatch, "_exclusion_table", module="pipeline")
        five_cycle = SimplicialComplex.from_facets(5, [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)])
        res = lift_search(five_cycle, MonomialOrder.degrevlex(ctx_n(5)), budget=10, seed=4)
        assert res.tried == 10 and res.lifts == ()
        assert units == [] and tables == []
        four_cycle = SimplicialComplex.from_facets(4, [(1, 2), (2, 3), (3, 4), (1, 4)])
        res = lift_search(four_cycle, MonomialOrder.degrevlex(ctx_n(4)), budget=60, seed=3)
        assert len(res.lifts) > 1
        assert len(units) == len(tables) == 1

    def test_lift_search_checks_each_distinct_draw_once(self, monkeypatch):
        calls = count_calls(monkeypatch, "_valid_lift", module="pipeline")
        built = count_calls(monkeypatch, "_build_lift", module="pipeline")
        triangle = SimplicialComplex.from_facets(3, [(1, 2), (1, 3), (2, 3)])
        drl = MonomialOrder.degrevlex(ctx_n(3))
        res = lift_search(triangle, drl, pool=(-2, -1, 1, 2), budget=200)
        assert res.tried == 200
        assignments = [args[-1] for args in calls]
        assert len(assignments) == len(set(assignments)) == len(res.lifts) == 133
        # where some draws are not valid, only the valid ones are built
        calls.clear()
        built.clear()
        drl = MonomialOrder.degrevlex(ctx_n(4, PrimeField(2)))
        res = lift_search(TestLiftOracle.PATH, drl, pool=(0, 1), budget=256)
        assignments = [args[-1] for args in calls]
        assert res.tried == len(assignments) == len(set(assignments)) == 256
        assert len({args[-1] for args in built}) == len(built) == len(res.lifts) == 32

    def test_lift_search_builds_its_equations_once(self, monkeypatch, checked):
        calls = count_calls(monkeypatch, "_stratum_equations", module="pipeline")
        five_cycle = SimplicialComplex.from_facets(5, [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)])
        for workers in (1, 2):
            calls.clear()
            res = lift_search(five_cycle, MonomialOrder.degrevlex(ctx_n(5)), budget=40, seed=4, workers=workers)
            assert res.tried == 40 and res.lifts == ()
            assert len(calls) == 1
        # a worker's pickled copy carries the equations; it does not build them
        run = checked[-1][0]
        assert run.equations and pickle.loads(pickle.dumps(run)).equations == run.equations

    def test_lift_search_builds_each_valid_lift_once(self, monkeypatch):
        built = count_calls(monkeypatch, "_build_lift", module="pipeline")
        triangle = SimplicialComplex.from_facets(3, [(1, 2), (1, 3), (2, 3)])
        drl = MonomialOrder.degrevlex(ctx_n(3))
        res = lift_search(triangle, drl, pool=(-2, -1, 1, 2), budget=200)
        assert len(res.lifts) == 133
        assert len(built) == 133  # every distinct draw is valid here

    def test_scan_completes_each_initial_ideal_once(self, monkeypatch):
        calls = count_calls(monkeypatch, "buchberger", module="groebner")
        ctx = ctx_xyz()
        fermat = P(FERMAT, ctx, MonomialOrder.degrevlex(ctx))
        reports = scan_orders([fermat], family="both")
        assert sum(len(r.producing_orders) for r in reports) == 12
        assert len(reports) == len(calls) == 3
        # the report of each ideal reads the basis its first order completed
        assert [a[1] for a in calls] == [r.order for r in reports]

    def test_scan_of_the_rational_normal_quartic_completes_each_ideal_once(self, monkeypatch):
        calls = count_calls(monkeypatch, "buchberger", module="groebner")
        ctx = ctx_n(5)
        drl = MonomialOrder.degrevlex(ctx)
        hankel = [("x1", "x2", "x3", "x4"), ("x2", "x3", "x4", "x5")]
        gens = [
            P(f"{hankel[0][i]}*{hankel[1][j]} - {hankel[0][j]}*{hankel[1][i]}", ctx, drl)
            for i, j in itertools.combinations(range(4), 2)
        ]
        reports = scan_orders(gens, family="both")
        assert sum(len(r.producing_orders) for r in reports) == 240
        assert len(reports) > 10
        assert len(calls) == len(reports)

    def test_scan_of_the_2x3_minors_completes_at_each_first_producing_order(self, monkeypatch):
        calls = count_calls(monkeypatch, "buchberger", module="groebner")
        ctx = ctx_n(6)
        drl = MonomialOrder.degrevlex(ctx)
        gens = [P(t, ctx, drl) for t in ("x1*x5 - x2*x4", "x1*x6 - x3*x4", "x2*x6 - x3*x5")]
        reports = scan_orders(gens, family="both", workers=1)
        assert sum(len(r.producing_orders) for r in reports) == 1440
        assert len(calls) == len(reports) == 6
        assert [a[1].render() for a in calls] == [r.producing_orders[0] for r in reports]
        two = scan_orders(gens, family="both", workers=2)
        assert [as_json(r) for r in two] == [as_json(r) for r in reports]

    def test_lift_search_checks_no_homogeneity(self, monkeypatch):
        calls = []
        original = Polynomial.is_homogeneous

        def counted(self):
            calls.append(self)
            return original(self)

        monkeypatch.setattr(Polynomial, "is_homogeneous", counted)
        drl = MonomialOrder.degrevlex(ctx_n(6))
        res = lift_search(OCTAHEDRON, drl, pool=(-1, 1), budget=20, seed=1)
        assert res.lifts and all(len(lift.coordinate_points) == 6 for lift in res.lifts)
        assert calls == []


def cross_polytope(k):
    """Boundary of the k-fold cross-polytope; vertices i and i + k are antipodal."""
    signs = itertools.product((0, 1), repeat=k)
    return SimplicialComplex.from_facets(2 * k, [[i + 1 + c * k for i, c in enumerate(s)] for s in signs])


class TestCrossPolytopeBoundary:
    @pytest.mark.parametrize("k", range(2, 8))
    def test_report_recurses_over_vertex_links(self, monkeypatch, k):
        """One of the paper's proven cases; the report walks the k nested
        cross-polytope links, not the 3^k - 1 - 2^k non-facet faces."""
        built = count_calls(monkeypatch, "_relabelled_link")
        cross = cross_polytope(k)
        for field in (QQ, PrimeField(2)):
            built.clear()
            rep = property_report(cross, field)
            assert rep.cohen_macaulay and rep.buchsbaum and rep.normal
            assert not rep.acyclic
            assert len(built) <= k * (k + 1)


_SPAWN_SCRIPT = textwrap.dedent(
    """
    import json, multiprocessing
    multiprocessing.set_start_method("spawn")
    from grodeg import (QQ, MonomialOrder, PrimeField, SimplicialComplex, lift_search,
                        parse_polynomial, scan_orders, standard_context, to_jsonable)

    ctx = standard_context(("x", "y", "z"))
    f = parse_polynomial("x^3 + y^3 + z^3", ctx, MonomialOrder.degrevlex(ctx))
    cycle = SimplicialComplex.from_facets(4, [(1, 2), (2, 3), (3, 4), (1, 4)])
    drl = MonomialOrder.degrevlex(standard_context(("x1", "x2", "x3", "x4")))
    octahedron = SimplicialComplex.from_facets(6, [
        (1, 2, 3), (1, 3, 4), (1, 4, 5), (1, 2, 5), (2, 3, 6), (3, 4, 6), (4, 5, 6), (2, 5, 6),
    ])
    drl6 = MonomialOrder.degrevlex(standard_context(tuple(f"x{i}" for i in range(1, 7))))
    five = SimplicialComplex.from_facets(5, [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)])
    names5 = tuple(f"x{i}" for i in range(1, 6))
    drl5 = [MonomialOrder.degrevlex(standard_context(names5, field=k)) for k in (QQ, PrimeField(3))]
    out = {}
    for workers in (1, 2):
        scan = scan_orders([f], family="both", workers=workers)
        lifts = lift_search(cycle, drl, budget=40, seed=5, workers=workers)
        octa = lift_search(octahedron, drl6, pool=(-1, 1), budget=20, seed=1, workers=workers)
        fives = [lift_search(five, o, budget=40, seed=2, workers=workers) for o in drl5]
        out[workers] = json.dumps(to_jsonable([scan, lifts, octa, fives]), sort_keys=True)
    print(json.dumps([multiprocessing.get_start_method(), out[1], out[2]]))
    """
)


def test_worker_pool_answers_do_not_depend_on_the_start_method():
    src = os.path.dirname(os.path.dirname(os.path.abspath(grodeg.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _SPAWN_SCRIPT],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    method, one, two = json.loads(proc.stdout)
    assert method == "spawn"
    assert one == two


def test_importing_the_cli_loads_no_process_pool():
    src = os.path.dirname(os.path.dirname(os.path.abspath(grodeg.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    script = (
        "import sys, grodeg.cli; "
        "print([m for m in ('concurrent.futures.process', 'multiprocessing') if m in sys.modules])"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def random_graded_poly(rng, ctx, order, deg, nterms=4):
    """Nonzero polynomial homogeneous of degree ``deg`` in the ring's grading."""
    w = ctx.grading
    monos = [
        e for e in itertools.product(*(range(deg // g + 1) for g in w))
        if sum(a * g for a, g in zip(e, w)) == deg
    ]
    while True:
        picked = rng.sample(monos, min(nterms, len(monos)))
        terms = [(Monomial(e), rng.choice((-3, -2, -1, 1, 2, 3))) for e in picked]
        p = Polynomial(ctx, order, terms)
        if not p.is_zero():
            return p


class TestConeCover:
    """The permutation orders each completed basis claims in a scan, against
    the term-by-term marking check of ``conftest``."""

    @pytest.mark.parametrize("field", [QQ, PrimeField(2), PrimeField(3)], ids=str)
    def test_each_order_is_owned_by_the_one_basis_that_keeps_its_marking(self, field):
        rng = random.Random(f"cone-cover-{field.render()}")
        kinds = ("lex", "degrevlex")
        for n, grading in ((3, None), (4, None), (5, None), (4, (1, 2, 1, 3)), (3, (2, 1, 1))):
            ctx = standard_context(tuple(f"x{i}" for i in range(1, n + 1)), field, grading)
            drl = MonomialOrder.degrevlex(ctx)
            degree = 2 if n == 5 else rng.randint(2, 3)  # keeps the completions over QQ small
            gens = [random_graded_poly(rng, ctx, drl, degree) for _ in range(rng.randint(2, 3))]
            orders = [(kind, perm) for kind in kinds for perm in itertools.permutations(range(n))]
            bases, which = pipeline._scan_slice(gens, DEFAULT_DEGREE_CAP, kinds, orders)
            cones = [pipeline._cone(B, kinds) for B in bases]
            # the claims are disjoint and cover every order the scan reaches
            assert sorted(o for cone in cones for o in cone) == sorted(orders)
            for order, k in zip(orders, which):
                assert [j for j, B in enumerate(bases) if ref_keeps_marking(B, *order)] == [k]
                assert order in cones[k]
