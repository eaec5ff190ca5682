"""End-to-end pipeline tests: analyze, order scans, lift search, point counts."""

import itertools
import json
import math
import operator
import os
import pickle
import random
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import pytest

import grodeg
from grodeg import cli, pipeline, singularity
from grodeg.records import replace

from grodeg import (
    ContextMismatchError,
    DegreeCapExceeded,
    Monomial,
    MonomialOrder,
    Polynomial,
    PrimeField,
    ProjPoint,
    QQ,
    ResourceLimitError,
    ScanBoundExceeded,
    SimplicialComplex,
    analyze,
    analyze_complex,
    buchberger,
    ci_obstruction,
    count_points,
    ideal_digest,
    initial_ideal,
    jacobian_rank_at,
    leafless_obstruction,
    lex_obstruction,
    lift_search,
    link,
    parse_polynomial,
    property_report,
    render_report,
    scan_orders,
    standard_context,
    support_exclusions,
    to_ideal,
    to_jsonable,
)

from conftest import (
    _ref_reduce,
    brute_projective_count,
    ctx_n,
    ctx_xyz,
    every_complex,
    random_complex,
    random_homogeneous_poly,
    ref_evaluate,
    ref_faces,
    ref_first_failing_pair,
    ref_hasse_invariant,
    ref_initial_monomials,
    ref_is_variable_regular,
    ref_keeps_marking,
    ref_local_cohomology_table,
    ref_partial_derivative,
    ref_reduced_basis,
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

    def test_the_scan_takes_no_worker_count(self):
        ctx = ctx_xyz()
        with pytest.raises(TypeError):
            scan_orders([P(FERMAT, ctx, MonomialOrder.degrevlex(ctx))], workers=2)

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

    def test_generators_over_two_contexts_are_refused_before_any_symmetry_search(self, monkeypatch):
        found = count_calls(monkeypatch, "_symmetry_generators", module="pipeline")
        qq, gf3 = ctx_n(3), ctx_n(3, PrimeField(3))
        gens = [P("x1*x2 - x3^2", qq, MonomialOrder.degrevlex(qq)), P("x1^2 - x2*x3", gf3, MonomialOrder.lex(gf3))]
        with pytest.raises(ContextMismatchError, match="^generator over a different ring context$"):
            scan_orders(gens)
        assert found == []

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


def _plain_scan(gens, kinds=("lex", "degrevlex")):
    """(initial ideal, producing orders, rendered basis) per ideal over the order
    families ``kinds``, one completion per order."""
    ctx = gens[0].ctx
    groups = {}
    for kind in kinds:
        for perm in itertools.permutations(range(ctx.n)):
            order = MonomialOrder(kind, ctx, perm=perm)
            B = buchberger(gens, order)
            M = initial_ideal(B)
            if M.gens not in groups:
                groups[M.gens] = (list(M.render_gens()), [], list(B.render_polys()))
            groups[M.gens][1].append(order.render())
    return list(groups.values())


# Ideals with a known symmetry group: (variable count, field, grading, generators).
SYMMETRIC_IDEALS = {
    "minors_2x3": (6, QQ, None, ("x1*x5 - x2*x4", "x1*x6 - x3*x4", "x2*x6 - x3*x5")),
    "rnc_4": (4, QQ, None, ("x1*x3 - x2^2", "x1*x4 - x2*x3", "x2*x4 - x3^2")),
    "fermat_qq": (3, QQ, None, ("x1^3 + x2^3 + x3^3",)),
    "fermat_gf5": (3, PrimeField(5), None, ("x1^3 + x2^3 + x3^3",)),
    # x1 <-> x2 fixes x1*x2*x3 but not the grading; only x1 <-> x3 is kept
    "weighted_121": (3, QQ, (1, 2, 1), ("x1*x2*x3", "x1^4 + x2^2 + x3^4", "x1^4 - x3^4")),
    "rescaled": (6, QQ, None, (
        "x1*x5 - x2*x4", "0", "3*x2*x4 - 3*x1*x5", "-1/2*x1*x6 + 1/2*x3*x4", "x2*x6 - x3*x5", "x1*x5 - x2*x4",
    )),
}
# |Sym(I)| - 1 for each, the identity left out: the minors' row swap times
# the column permutations, the reversal of rnc_4, all of S_3 for Fermat
SYMMETRY_COUNTS = {"minors_2x3": 11, "rnc_4": 1, "fermat_qq": 5, "fermat_gf5": 5, "weighted_121": 1, "rescaled": 11}
# (distinct initial ideals, completions) of each scan, by order family; the
# lex and degrevlex scans of rnc_4 share four initial ideals in two orbits
ORBIT_COUNTS = {
    "minors_2x3": {"lex": (6, 1), "degrevlex": (6, 1), "both": (6, 1)},
    "rnc_4": {"lex": (7, 4), "degrevlex": (5, 3), "both": (8, 5)},
    "fermat_qq": {"lex": (3, 1), "degrevlex": (3, 1), "both": (3, 1)},
    "fermat_gf5": {"lex": (3, 1), "degrevlex": (3, 1), "both": (3, 1)},
    "weighted_121": {"lex": (3, 2), "degrevlex": (3, 2), "both": (3, 2)},
    "rescaled": {"lex": (6, 1), "degrevlex": (6, 1), "both": (6, 1)},
}
FAMILY_KINDS = {"lex": ("lex",), "degrevlex": ("degrevlex",), "both": ("lex", "degrevlex")}


def symmetric_gens(name):
    n, field, grading, texts = SYMMETRIC_IDEALS[name]
    ctx = standard_context(tuple(f"x{i}" for i in range(1, n + 1)), field, grading)
    drl = MonomialOrder.degrevlex(ctx)
    return [P(t, ctx, drl) for t in texts]


def ref_relabel_exps(e, s):
    """The exponents e after x_i -> x_s[i]."""
    out = [0] * len(s)
    for i, a in enumerate(e):
        out[s[i]] = a
    return tuple(out)


def ref_relabel(f, s):
    """The polynomial f after x_i -> x_s[i]."""
    return Polynomial(f.ctx, f.order, [(Monomial(ref_relabel_exps(m.exps, s)), c) for m, c in f.terms])


def ref_proportional(f, g):
    """Whether the nonzero f is a scalar multiple of the nonzero g."""
    tf, tg = dict(f.terms), dict(g.terms)
    if tf.keys() != tg.keys():
        return False
    m0 = next(iter(tf))
    return all(tf[m] * tg[m0] == tg[m] * tf[m0] for m in tf)


def ref_symmetries(gens, keep_grading=True):
    """Every permutation but the identity, over all n! of them, that maps each
    nonzero generator to a multiple of a nonzero generator (and keeps the grading)."""
    ctx = gens[0].ctx
    nonzero = [g for g in gens if not g.is_zero()]
    found = []
    for s in itertools.permutations(range(ctx.n)):
        if s == tuple(range(ctx.n)) or not nonzero:
            continue
        if keep_grading and any(ctx.grading[s[i]] != ctx.grading[i] for i in range(ctx.n)):
            continue
        if all(any(ref_proportional(ref_relabel(g, s), h) for h in nonzero) for g in nonzero):
            found.append(s)
    return found


def generated(generators, n):
    """Every permutation of ``range(n)`` but the identity that ``generators`` generate."""
    identity = tuple(range(n))
    group, reached = {identity}, [identity]
    for s in reached:
        for g in generators:
            gs = tuple(g[i] for i in s)
            if gs not in group:
                group.add(gs)
                reached.append(gs)
    return sorted(group - {identity})


def orbit_firsts(reports, symmetries):
    """The order of the first report of each orbit of initial ideals, in report order."""
    seen, firsts = set(), []
    for r in reports:
        leads = frozenset(m.exps for m in r.initial.gens)
        if leads in seen:
            continue
        firsts.append(r.order)
        seen.update(frozenset(ref_relabel_exps(e, s) for e in leads) for s in [tuple(range(r.ctx.n))] + symmetries)
    return firsts


def graded_monomials(grading, d):
    """Exponent tuples of degree d in the grading."""
    if not grading:
        if d == 0:
            yield ()
        return
    for a in range(d // grading[0] + 1):
        for rest in graded_monomials(grading[1:], d - a * grading[0]):
            yield (a,) + rest


def macaulay_check(reports, top=4):
    """Macaulay: S/I and S/in(I) share a Hilbert function, so every report of one
    scan counts the same standard monomials in degrees 0..top. Where in(I) is
    square-free and the grading standard, the count in degree d >= 1 is
    sum_i f_(i-1) C(d-1, i-1) from the complex's f-vector."""
    ctx = reports[0].ctx
    values = set()
    for r in reports:
        hilbert = tuple(
            sum(1 for e in graded_monomials(ctx.grading, d) if not r.initial.contains(Monomial(e)))
            for d in range(top + 1)
        )
        values.add(hilbert)
        if r.squarefree and ctx.standard:
            f = r.delta.f_vector()
            assert hilbert == (1,) + tuple(
                sum(f[i - 1] * math.comb(d - 1, i - 1) for i in range(1, len(f) + 1)) for d in range(1, top + 1)
            )
    assert len(values) == 1


def conca_varbaro_check(reports):
    """Conca & Varbaro (Invent. Math. 2020): when in(I) is square-free, S/I and
    S/in(I) have the same Hilbert functions of local cohomology, so under the
    standard grading every square-free report of one scan, transported images
    included, has one Hochster table (``ref_local_cohomology_table``). Each
    report's complex and verdicts must also read as the table says: its
    cohomology is the k = 0 row, its dimension is one less than the top
    degree i, it is CM when nothing lies below the top (depth), and Buchsbaum
    when nothing with k >= 1 does (finite length; Schenzel, Math. Z. 1981).
    Returns the number of square-free reports."""
    ctx = reports[0].ctx
    assert ctx.standard
    tables = []
    for r in filter(operator.attrgetter("squarefree"), reports):
        table = ref_local_cohomology_table(r.delta, ctx.field)
        tables.append(table)
        top = max(i for i, _ in table)
        below = [k for i, k in table if i < top]
        props = r.properties
        assert top == r.delta.dim + 1
        assert props.cohomology.dims == tuple(table.get((j + 1, 0), 0) for j in range(top))
        assert props.cohen_macaulay == (not below)
        assert props.buchsbaum == (not any(below))
    assert all(table == tables[0] for table in tables)
    return len(tables)


class TestSymmetries:
    """The group ``pipeline._symmetry_generators`` generates, against brute
    force over all n! permutations."""

    @pytest.mark.parametrize("name", sorted(SYMMETRIC_IDEALS))
    def test_matches_brute_force_and_fixes_the_ideal(self, name):
        gens = symmetric_gens(name)
        n = gens[0].ctx.n
        found = pipeline._symmetry_generators(gens)
        assert len(generated(found, n)) == SYMMETRY_COUNTS[name]
        assert generated(found, n) == ref_symmetries(gens)
        assert len(found) <= n * (n - 1) // 2
        order = gens[0].order
        basis = ref_reduced_basis(gens, order)
        for s in found:
            assert all(_ref_reduce(ref_relabel(g, s), basis).is_zero() for g in gens)

    def test_a_grading_refuses_an_algebraic_swap(self):
        ctx = standard_context(("x1", "x2", "x3"), QQ, (1, 2, 1))
        gens = [P("x1*x2*x3", ctx, MonomialOrder.degrevlex(ctx))]
        assert len(ref_symmetries(gens, keep_grading=False)) == 5
        assert pipeline._symmetry_generators(gens) == ref_symmetries(gens) == [(2, 1, 0)]

    @pytest.mark.parametrize("text,symmetries", [
        ("x^2 + y^2 + 2*z^2", [(1, 0, 2)]),  # only a coefficient sets z apart
        ("x*y - x*z", [(0, 2, 1)]),  # y <-> z negates it; its coefficients sum to 0
    ])
    def test_coefficients_decide_where_exponents_cannot(self, text, symmetries):
        ctx = ctx_xyz()
        gens = [P(text, ctx, MonomialOrder.degrevlex(ctx))]
        assert pipeline._symmetry_generators(gens) == ref_symmetries(gens) == symmetries

    def test_the_zero_ideal_has_none(self):
        ctx = ctx_n(3)
        zero = P("0", ctx, MonomialOrder.degrevlex(ctx))
        assert pipeline._symmetry_generators([zero]) == pipeline._symmetry_generators([zero, zero]) == []

    @pytest.mark.parametrize("monomial", [False, True])
    def test_the_full_symmetric_group_has_few_generators(self, monomial):
        # e_2, or its 15 monomials as generators: every permutation of 6 variables
        ctx = ctx_n(6)
        drl = MonomialOrder.degrevlex(ctx)
        quadrics = [f"x{i}*x{j}" for i, j in itertools.combinations(range(1, 7), 2)]
        gens = [P(t, ctx, drl) for t in quadrics] if monomial else [P(" + ".join(quadrics), ctx, drl)]
        found = pipeline._symmetry_generators(gens)
        assert len(found) <= 5  # one per level of the search
        everything = ref_symmetries(gens)
        assert generated(found, 6) == everything and len(everything) == math.factorial(6) - 1

    def test_random_ideals_match_brute_force(self):
        rng = random.Random("symmetries")
        for _ in range(40):
            n = rng.choice((2, 3, 4))
            field = rng.choice((QQ, PrimeField(3)))
            grading = rng.choice((None, (1,) + tuple(rng.choice((1, 2)) for _ in range(n - 1))))
            ctx = standard_context(tuple(f"x{i}" for i in range(1, n + 1)), field, grading)
            drl = MonomialOrder.degrevlex(ctx)
            gens = [random_graded_poly(rng, ctx, drl, rng.randint(2, 3), nterms=rng.randint(1, 3))]
            for _ in range(rng.randint(0, 2)):  # images of the first: some symmetry is likely
                s = rng.sample(range(n), n)
                if all(ctx.grading[s[i]] == ctx.grading[i] for i in range(n)):
                    gens.append(ref_relabel(gens[0], s) * rng.choice((1, 2, -1)))
            assert generated(pipeline._symmetry_generators(gens), n) == ref_symmetries(gens)


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
            self.agree(gens, reports)
            macaulay_check(reports)
            conca_varbaro_check(reports)
            by_order = {o: r for r in reports for o in r.producing_orders}
            for kind in ("lex", "degrevlex", rng.choice(("lex", "degrevlex"))):
                perm = tuple(rng.sample(range(ctx.n), ctx.n))
                o = MonomialOrder(kind, ctx, perm=perm)
                leads = sorted(m.exps for m in by_order[o.render()].initial.gens)
                assert leads == ref_initial_monomials(gens, o)

    @staticmethod
    def agree(gens, reports, kinds=("lex", "degrevlex")):
        assert [
            (list(r.initial.render_gens()), list(r.producing_orders), list(r.basis.render_polys()))
            for r in reports
        ] == _plain_scan(gens, kinds)
        for r in reports:
            alone = analyze(gens, r.order)
            assert as_json(r) == as_json(replace(alone, producing_orders=r.producing_orders))

    @pytest.mark.parametrize("field", [QQ, PrimeField(3)], ids=str)
    def test_square_free_quadric_scans_share_one_local_cohomology_table(self, field):
        """A seeded family of two or three generators, each a sum
        of two or three square-free quadrics in five variables, where many
        orders give square-free initial ideals."""
        rng = random.Random(f"conca-varbaro-{field.render()}")
        ctx = ctx_n(5, field)
        drl = MonomialOrder.degrevlex(ctx)
        pairs = list(itertools.combinations(range(5), 2))
        counts, non_cm = [], 0
        for _ in range(12):
            gens = [
                Polynomial(ctx, drl, [
                    (Monomial(tuple(int(i in pair) for i in range(5))), rng.choice((1, -1, 2)))
                    for pair in rng.sample(pairs, rng.randint(2, 3))
                ])
                for _ in range(rng.randint(2, 3))
            ]
            reports = scan_orders(gens, family="both")
            macaulay_check(reports)
            counts.append(conca_varbaro_check(reports))
            non_cm += any(r.squarefree and not r.properties.cohen_macaulay for r in reports)
        assert sum(c >= 4 for c in counts) >= 4 and non_cm

    @pytest.mark.parametrize("family", sorted(FAMILY_KINDS))
    @pytest.mark.parametrize("name", sorted(SYMMETRIC_IDEALS))
    def test_symmetric_ideals_match_one_completion_per_order(self, monkeypatch, name, family):
        calls = count_calls(monkeypatch, "buchberger", module="groebner")
        gens = symmetric_gens(name)
        reports = scan_orders(gens, family=family)
        # once per orbit of initial ideals, at the orbit's first order
        assert (len(reports), len(calls)) == ORBIT_COUNTS[name][family]
        assert [a[1] for a in calls] == orbit_firsts(reports, ref_symmetries(gens))
        self.agree(gens, reports, FAMILY_KINDS[family])
        macaulay_check(reports)
        if gens[0].ctx.standard:
            conca_varbaro_check(reports)


class TestImageReports:
    """The report of s(B) built from the report of B, as the order scan builds
    an orbit image's, against ``analyze`` of s(I) at the permuted order, for
    random ideals I and random permutations s. No symmetry is needed here, so
    the coordinate points differ from one another, off the scheme too, and a
    point carried the wrong way shows."""

    @pytest.mark.parametrize("field", [QQ, PrimeField(2), PrimeField(3)], ids=str)
    def test_relabelled_report_is_the_report_of_the_relabelled_ideal(self, field):
        rng = random.Random(f"image-reports-{field.render()}")
        off_scheme = 0  # square-free sources with a point off the scheme
        for _ in range(40):
            ctx = ctx_n(rng.choice((3, 4)), field)
            drl = MonomialOrder.degrevlex(ctx)
            gens = [
                random_homogeneous_poly(rng, ctx, drl, rng.randint(1, 3)) for _ in range(rng.randint(1, 3))
            ]
            kind, perm = rng.choice(("lex", "degrevlex")), tuple(rng.sample(range(ctx.n), ctx.n))
            order = MonomialOrder(kind, ctx, perm=perm)
            s = tuple(rng.sample(range(ctx.n), ctx.n))
            moved = [ref_relabel(g, s) for g in gens]
            image_order = MonomialOrder(kind, ctx, perm=tuple(s[i] for i in perm))
            try:
                source = analyze(gens, order)
            except ValueError:  # every variable in the initial ideal
                continue
            image = pipeline._degeneration_report(
                moved, pipeline._transported(source.basis, s, image_order), ("scan",),
                ideal_digest(ctx, moved), (source, s),
            )
            alone = analyze(moved, image_order)
            assert as_json(image) == as_json(replace(alone, producing_orders=("scan",)))
            off_scheme += source.squarefree and any(a.verdict == "off_scheme" for a in source.coordinate_points)
        assert off_scheme >= 5


def sympy_reduced_basis(sympy, gens, order):
    """The reduced basis of ``gens`` under the permutation order, from
    ``sympy.groebner``, as one term dict per element, monic, in our exponents."""
    ctx = order.ctx
    p = ctx.field.characteristic()
    symbols = sympy.symbols(ctx.names)
    scalar = (lambda c: c.v) if p else (lambda c: sympy.Rational(c.numerator, c.denominator))
    exprs = [
        sum(scalar(c) * sympy.prod(s**a for s, a in zip(symbols, m.exps)) for m, c in g.terms)
        for g in gens if g.terms
    ]
    name = "lex" if order.kind == "lex" else "grevlex"
    G = sympy.groebner(exprs, *[symbols[i] for i in order.perm], order=name, **({"modulus": p} if p else {}))
    of = lambda c: ctx.field.of(int(c) if p else Fraction(int(c.p), int(c.q)))
    out = []
    for poly in G.polys:
        terms = poly.terms(order=name)  # leading term first
        lead = of(terms[0][1])
        exps = [[0] * ctx.n for _ in terms]
        for e, (monom, _) in zip(exps, terms):
            for i, a in zip(order.perm, monom):
                e[i] = a
        out.append({tuple(e): of(c) / lead for e, (_, c) in zip(exps, terms)})
    return out


class TestSympyOracle:
    """Every report of a scan against ``sympy.groebner``, an independent
    implementation, under the report's own order."""

    @pytest.mark.parametrize("name", ["minors_2x3", "rnc_4", "fermat_qq", "fermat_gf5"])
    def test_every_report_is_sympys_reduced_basis(self, name):
        sympy = pytest.importorskip("sympy")
        gens = symmetric_gens(name)
        for r in scan_orders(gens, family="both"):
            ours = [{m.exps: c for m, c in g.terms} for g in r.basis.polys]
            theirs = sympy_reduced_basis(sympy, gens, r.order)
            # (lead, terms) of each element: both list the leading term first
            pairs = lambda basis: sorted((next(iter(t)), sorted(t.items())) for t in basis)
            assert pairs(ours) == pairs(theirs)


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

    def test_the_search_takes_no_worker_count(self):
        drl = MonomialOrder.degrevlex(ctx_n(4))
        with pytest.raises(TypeError):
            lift_search(self.four_cycle(), drl, budget=5, workers=2)

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
        assert [to_jsonable(lift) for lift in res.lifts] == [{
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

    @pytest.mark.parametrize("budget", [pipeline.LIFT_CANDIDATE_BOUND + 1, 10**20], ids=["sampled", "exhaustive"])
    def test_a_search_past_the_candidate_bound_draws_nothing(self, no_lift_draws, budget):
        five_cycle = SimplicialComplex.from_facets(5, [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)])
        with pytest.raises(ResourceLimitError, match="at most 1000000 candidates"):
            lift_search(five_cycle, MonomialOrder.degrevlex(ctx_n(5)), budget=budget)

    def test_the_candidate_bound_counts_the_smaller_of_space_and_budget(self, monkeypatch):
        drl = MonomialOrder.degrevlex(ctx_n(3))
        res = lift_search(self.triangle(), drl, budget=10**20)  # a space of 256
        assert res.exhaustive and res.tried == 256
        monkeypatch.setattr(pipeline, "LIFT_CANDIDATE_BOUND", 256)
        assert lift_search(self.triangle(), drl, budget=10**20).tried == 256
        assert lift_search(self.triangle(), drl, budget=300, seed=1).tried == 256
        monkeypatch.setattr(pipeline, "LIFT_CANDIDATE_BOUND", 255)
        with pytest.raises(ResourceLimitError):
            lift_search(self.triangle(), drl, budget=256)
        assert lift_search(self.triangle(), drl, budget=255, seed=1).tried == 255

    def test_an_exhaustive_search_streams_its_candidates(self):
        """16384 candidates, every one checked, with 64 lifts: the search holds
        the lifts, not the candidates."""
        star = SimplicialComplex.from_facets(5, [(1, 2), (1, 3), (1, 4), (1, 5)])
        drl = MonomialOrder.degrevlex(ctx_n(5, PrimeField(2)))
        tracemalloc.start()
        try:
            res = lift_search(star, drl, budget=10**6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.exhaustive and res.tried == res.space == 16384 and len(res.lifts) == 64
        assert peak < 2**20


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
    """The ``(layout, assignments, divided)`` of each lift search the test
    runs: the slot layout it gave ``_stratum_equations``, each assignment it
    gave ``_valid_lift``, in checking order, and each S-pair ``(f, g)`` of
    layout entries it gave ``_divide_pair``, in dividing order."""
    seen = []
    equations, valid, divide = pipeline._stratum_equations, pipeline._valid_lift, pipeline._divide_pair

    def recording_equations(order, layout):
        seen.append((layout, [], []))
        return equations(order, layout)

    def recording_valid(eqs, values, p, assignment):
        seen[-1][1].append(assignment)
        return valid(eqs, values, p, assignment)

    def recording_divide(key, layout, f, g):
        seen[-1][2].append((f, g))
        return divide(key, layout, f, g)

    monkeypatch.setattr(pipeline, "_stratum_equations", recording_equations)
    monkeypatch.setattr(pipeline, "_valid_lift", recording_valid)
    monkeypatch.setattr(pipeline, "_divide_pair", recording_divide)
    return seen


def stratum_pairs(layout):
    """The S-pairs of non-coprime leads of ``layout``, in ``itertools.combinations`` order."""
    return [(f, g) for f, g in itertools.combinations(layout, 2) if any(map(min, f[0], g[0]))]


def assert_divided_as_reached(drawn, search, order):
    """The search ``search`` (an entry of ``checked``) divided its S-pairs in
    order, each once, and exactly as far as some candidate of ``drawn`` got:
    pair k is divided when some candidate passes pairs 0..k-1
    (``ref_first_failing_pair``). Returns each candidate's failing pair."""
    layout, _, divided = search
    failing = [ref_first_failing_pair(c, order) for c in drawn]
    pairs = stratum_pairs(layout)
    reached = len(pairs) if None in failing else max(failing, default=-1) + 1
    assert divided == pairs[:reached]
    return failing


def candidates(res, search):
    """The polynomials of each candidate that the search ``res`` checked, in
    checking order, built by the ``Polynomial`` constructor from the layout;
    ``search`` is its entry in ``checked``."""
    layout, assignments, _ = search
    order, pool = res.order, res.pool
    terms = [((Monomial(lead), 1), [(Monomial(e), s) for e, s in tails]) for lead, tails in layout]
    made = {}  # (target, its tails' pool indices) -> its polynomial; a generator recurs across candidates

    def generator(k, a):
        head, tails = terms[k]
        picked = tuple(a[s] for _, s in tails)
        if (k, picked) not in made:
            made[k, picked] = Polynomial(order.ctx, order, [head, *((m, pool[i]) for (m, _), i in zip(tails, picked))])
        return made[k, picked]

    return [tuple(generator(k, a) for k in range(len(layout))) for a in assignments]


def count_builds(monkeypatch):
    """Wrap ``pipeline._lift_builder`` and each build it returns: the first
    list gains one entry per builder made, the second one assignment per lift
    built."""
    original = pipeline._lift_builder
    builders, built = [], []

    def counted(*args):
        builders.append(args)
        build = original(*args)

        def counted_build(assignment):
            built.append(assignment)
            return build(assignment)

        return counted_build

    monkeypatch.setattr(pipeline, "_lift_builder", counted)
    return builders, built


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
    def test_candidates_are_built_in_canonical_form(self, monkeypatch, field, pool):
        """The trusted construction gives exactly the terms ``Polynomial`` would:
        with the lift criterion forced true, every candidate is built."""
        monkeypatch.setattr(pipeline, "_valid_lift", lambda *args: True)
        drl = MonomialOrder.degrevlex(ctx_n(4, field))
        res = lift_search(self.STAR, drl, pool=pool, budget=243)
        assert res.exhaustive
        built = [lift.polys for lift in res.lifts]
        assert len(built) == 243
        assert all(g.order is drl and g.ctx is drl.ctx for polys in built for g in polys)
        got = {tuple(g.terms for g in polys) for polys in built}
        want = {tuple(g.terms for g in polys) for polys in lift_candidates(self.STAR, drl, pool)}
        assert len(got) == 243 and got == want

    def test_sampled_five_cycle_has_no_valid_lift(self, monkeypatch, checked):
        builders, built = count_builds(monkeypatch)
        cycle = SimplicialComplex.from_facets(5, [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)])
        drl = MonomialOrder.degrevlex(ctx_n(5, PrimeField(2)))
        res = lift_search(cycle, drl, budget=30, seed=4)
        assert not res.exhaustive and res.tried == 30 and res.lifts == ()
        assert builders == built == []  # no candidate is valid, so none is built
        drawn = candidates(res, checked[0])
        assert drawn
        targets = sorted(t.exps for t in res.targets)
        assert not any(ref_valid_lift(c, drl) for c in drawn)
        assert all(ref_initial_monomials(c, drl) != targets for c in drawn)

    def test_lift_search_takes_no_degree_cap(self, tmp_path, capsys):
        job = tmp_path / "path.job"
        job.write_text("facets: 1 2; 2 3; 3 4\nfield GF(2)\nbudget 256\n")
        assert cli.main(["lift-search", str(job), "--degree-cap", "2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unrecognized arguments: --degree-cap 2" in captured.err


BOWTIE = SimplicialComplex.from_facets(5, [(1, 2, 3), (3, 4, 5)])


class TestStratumEquationsOracle:
    """The stratum equations against dividing every S-pair of each candidate
    (``ref_valid_lift``), candidate by candidate, in checking order."""

    @staticmethod
    def agree(res, checked, order):
        """The search's lifts are the oracle's valid candidates, and each lift's
        coordinate points are ``jacobian_rank_at`` at every e_i, whatever the
        search memoized."""
        drawn = candidates(res, checked[-1])
        failing = assert_divided_as_reached(drawn, checked[-1], order)
        want = [c for c, k in zip(drawn, failing) if k is None]
        assert [lift.polys for lift in res.lifts] == want
        ctx = order.ctx
        codim = (ctx.n - 1) - res.delta.dim
        units = [ProjPoint.coordinate(ctx.field, ctx.n, i) for i in range(ctx.n)]
        for lift in res.lifts:
            if lift.polys:
                assert lift.coordinate_points == tuple(jacobian_rank_at(lift.polys, e, codim) for e in units)
            else:  # a full simplex: no generators, no points
                assert lift.coordinate_points == ()
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
        layout, _, divided = checked[-1]
        assert divided == stratum_pairs(layout) != []  # a valid lift passes every pair, each divided once

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


FOUR_CYCLE = SimplicialComplex.from_facets(4, [(1, 2), (2, 3), (3, 4), (1, 4)])
FIVE_CYCLE = SimplicialComplex.from_facets(5, [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)])
GHOST_PATH = SimplicialComplex.from_facets(4, [(2, 3), (3, 4)])  # vertex 1 is a ghost


class TestLiftTexts:
    """Each lift's texts, joined from the search's term table, against
    ``Polynomial.render`` and ``support_exclusions`` of its polynomials."""

    SPACES = [
        (FOUR_CYCLE, QQ, "degrevlex", None, 3),
        (FOUR_CYCLE, QQ, "lex", (Fraction(1, 2), Fraction(-3, 2), 1), 5),
        (FOUR_CYCLE, QQ, "degrevlex", (0, 1, Fraction(-3, 2)), 7),
        (FOUR_CYCLE, QQ, "lex", (1, -1, 1, Fraction(2, 2), 0), 11),  # repeated values
        (FOUR_CYCLE, PrimeField(2), "lex", None, 1),
        (FOUR_CYCLE, PrimeField(3), "degrevlex", (0, 4, 2, 1), 2),  # 4 is 1 in GF(3)
        (FOUR_CYCLE, PrimeField(5), "lex", None, 4),
        (FIVE_CYCLE, QQ, "degrevlex", (0, 1), 0),
        (FIVE_CYCLE, PrimeField(2), "degrevlex", None, 1),
        (FIVE_CYCLE, PrimeField(3), "degrevlex", (1, 3, 2), 5),  # 0, as 3, is not the first value
        (FIVE_CYCLE, PrimeField(5), "lex", (0, 2, -1), 6),
        (GHOST_PATH, QQ, "degrevlex", (0, Fraction(1, 2), Fraction(-3, 2)), 8),
        (GHOST_PATH, PrimeField(5), "lex", None, 9),
    ]
    IDS = [
        "C4-QQ-drl", "C4-QQ-lex-halves", "C4-QQ-drl-zero", "C4-QQ-lex-repeated", "C4-GF(2)-lex",
        "C4-GF(3)-drl", "C4-GF(5)-lex", "C5-QQ-drl", "C5-GF(2)-drl", "C5-GF(3)-drl", "C5-GF(5)-lex",
        "ghost-QQ-drl", "ghost-GF(5)-lex",
    ]

    @staticmethod
    def agree(res):
        """Every lift's texts are its polynomials' renders, and its violations
        are those of its polynomials as a basis; the count of violations."""
        delta, order = res.delta, res.order
        key = order.sort_key
        for lift in res.lifts:
            assert lift.as_dict()["generators"] == [g.render() for g in lift.polys]
            assert lift.texts == tuple(g.render() for g in lift.polys)
            if singularity._dim1_setting(delta):
                basis = grodeg.GroebnerBasis(
                    tuple(sorted(lift.polys, key=lambda g: key(g.leading_monomial()), reverse=True)),
                    order, order.ctx,
                )
                assert lift.support_violations == tuple(support_exclusions(basis, delta))
            else:
                assert lift.support_violations == ()
            for v in lift.support_violations:
                assert v.generator in lift.texts
        return sum(len(lift.support_violations) for lift in res.lifts)

    @pytest.mark.parametrize("delta,field,kind,pool,seed", SPACES, ids=IDS)
    def test_valid_lifts(self, delta, field, kind, pool, seed):
        order = getattr(MonomialOrder, kind)(ctx_n(delta.n, field))
        res = lift_search(delta, order, pool=pool, budget=300 if delta is FIVE_CYCLE else 60, seed=seed)
        # valid lifts of the 5-cycle are rare; the test below reaches the texts of its candidates
        assert res.lifts or delta is FIVE_CYCLE
        self.agree(res)

    @pytest.mark.parametrize("delta,field,kind,pool,seed", SPACES, ids=IDS)
    def test_every_candidate_taken_as_a_lift(self, monkeypatch, delta, field, kind, pool, seed):
        """With the lift criterion forced true, every drawn candidate is built,
        rendered and scanned as a lift, so the texts of invalid candidates and
        the forbidden tails they hold are checked too."""
        monkeypatch.setattr(pipeline, "_valid_lift", lambda *args: True)
        order = getattr(MonomialOrder, kind)(ctx_n(delta.n, field))
        res = lift_search(delta, order, pool=pool, budget=40, seed=seed)
        assert len(res.lifts) == len(set(res.lifts)) > 1
        violations = self.agree(res)
        # under degrevlex x1 > ... > x5, x1*x5 lies below x2*x4 and is a slot of
        # it, but forbidden (x5 is a top link vertex of 1); no other space here
        # has a forbidden tail that is a slot
        assert (violations > 0) == (delta is FIVE_CYCLE and kind == "degrevlex")


class TestLiftPolysOnRead:
    """A valid lift's ``polys`` are built the first time they are read, from
    the search's tables, and nothing else about the lift depends on when."""

    SPACES = [
        (TestLiftOracle.PATH, PrimeField(2), (0, 1), 256),
        (TestLiftOracle.STAR, PrimeField(3), (0, 1, 2), 243),
        (TestLiftOracle.STAR, QQ, (-1, 0, 1), 243),
        (TestLiftOracle.STAR, QQ, (0, Fraction(1, 2), -1), 243),
        (FOUR_CYCLE, QQ, (-1, 1), 256),
    ]
    IDS = ["path-GF(2)", "star-GF(3)", "star-QQ", "star-QQ-half", "C4-QQ"]

    @staticmethod
    def search(delta, field, pool, space):
        return lift_search(delta, MonomialOrder.degrevlex(ctx_n(delta.n, field)), pool=pool, budget=space)

    def test_a_search_builds_no_polynomial_until_read(self, monkeypatch):
        made = []
        make = Polynomial._make.__func__

        def counted(cls, ctx, order, terms):
            made.append(terms)
            return make(cls, ctx, order, terms)

        monkeypatch.setattr(Polynomial, "_make", classmethod(counted))
        res = lift_search(FOUR_CYCLE, MonomialOrder.degrevlex(ctx_n(4)), pool=(-1, 1), budget=200)
        render_report(res, "json")
        render_report(res, "text")
        assert len(res.lifts) == 128 and made == []
        polys = res.lifts[5].polys
        assert len(made) == len(polys) == 2
        assert res.lifts[5].polys is polys and len(made) == 2  # kept, not built again

    @pytest.mark.parametrize("delta,field,pool,space", SPACES, ids=IDS)
    def test_read_polys_are_the_candidates(self, checked, delta, field, pool, space):
        """Read on every lift of an exhaustive space, ``polys`` are the
        candidates as the ``Polynomial`` constructor builds them, term for term."""
        res = self.search(delta, field, pool, space)
        assert res.exhaustive and res.lifts
        built = {tuple(g.render() for g in c): c for c in candidates(res, checked[-1])}
        order = res.order
        for lift in res.lifts:
            want = built[lift.texts]
            got = lift.polys
            assert got == want and [g.terms for g in got] == [g.terms for g in want]
            assert all(g.order is order and g.ctx is order.ctx for g in got)

    @pytest.mark.parametrize("delta,field,pool,space", SPACES, ids=IDS)
    def test_the_result_is_the_same_read_or_not(self, delta, field, pool, space):
        unread, read = self.search(delta, field, pool, space), self.search(delta, field, pool, space)
        for lift in read.lifts:
            lift.polys
        for fmt in ("json", "text"):
            assert render_report(unread, fmt) == render_report(read, fmt)
        assert not any("polys" in lift.__dict__ for lift in unread.lifts)  # rendering reads none
        assert repr(unread) == repr(read)
        assert hash(unread) == hash(read) and unread == read
        assert all("polys" in lift.__dict__ for lift in unread.lifts)  # equality and hashing read them

    def test_a_lift_pickles_before_and_after_the_read(self):
        res = self.search(FOUR_CYCLE, QQ, (-1, 1), 256)
        lift = res.lifts[7]
        back = pickle.loads(pickle.dumps(lift))
        assert "polys" not in back.__dict__
        assert render_report(back) == render_report(lift)
        assert back.polys == lift.polys and back == lift
        again = pickle.loads(pickle.dumps(lift))
        assert set(vars(again)) == set(again._fields)  # read: only the fields remain
        assert again == lift and hash(again) == hash(lift) and repr(again) == repr(lift)
        whole = pickle.loads(pickle.dumps(res))
        assert whole == res and render_report(whole, "text") == render_report(res, "text")

    def test_a_read_lift_is_the_lift_built_whole(self):
        lift = self.search(FOUR_CYCLE, QQ, (-1, 1), 256).lifts[0]
        with pytest.raises(AttributeError):
            lift.polys = ()
        assert "polys" not in lift.__dict__
        whole = pipeline.ValidLift(lift.polys, lift.texts, lift.coordinate_points, lift.support_violations)
        assert whole == lift and hash(whole) == hash(lift) and repr(whole) == repr(lift)
        assert vars(whole) == vars(lift)


class TestLiftDraws:
    """The sampled candidates against ``rng.randrange`` itself."""

    @pytest.mark.parametrize("k", range(1, 10))
    def test_draws_are_the_randrange_sequence(self, checked, k):
        pool = (0, 1, -1, 2, -2, 3, Fraction(1, 2), Fraction(-3, 2), 5)[:k]
        drl = MonomialOrder.degrevlex(ctx_n(4))
        budget = 20
        for seed in range(20):
            res = lift_search(TestLiftOracle.PATH, drl, pool=pool, budget=budget, seed=seed)
            layout, assignments, _ = checked[-1]
            slots = sum(len(tails) for _, tails in layout)
            rng = random.Random(seed)
            want = list(dict.fromkeys(tuple(rng.randrange(k) for _ in range(slots)) for _ in range(budget)))
            assert assignments == want
            if k == 1:  # one candidate in all, so the space is enumerated
                assert res.exhaustive and res.tried == res.space == 1
            else:
                assert not res.exhaustive and res.tried == budget


class TestLiftTails:
    def test_faces_are_the_monomials_outside_the_non_face_ideal(self):
        """Tails by support bitmask against the lead-divisibility rule, on every
        complex on at most five vertices (ghost vertices included)."""
        for n in range(1, 6):
            ctx = ctx_n(n)
            by_degree = {
                d: [e for e in itertools.product(range(d + 1), repeat=n) if sum(e) == d] for d in (2, 3)
            }
            for delta in every_complex(n):
                leads = [g.exps for g in to_ideal(delta, ctx).gens]
                for d, exponents in by_degree.items():
                    want = sorted(e for e in exponents if not any(all(map(operator.le, g, e)) for g in leads))
                    assert sorted(pipeline._face_exponents(delta, d)) == want, (delta, d)


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
        units = singularity._unit_points(ctx)
        verdicts = set()
        for _ in range(150):
            gens = [self.random_gen(rng, ctx, order) for _ in range(rng.randint(2, 4))]
            codim = rng.randint(1, len(gens))
            got = singularity._coordinate_points(gens, units, codim)
            want = tuple(
                jacobian_rank_at(gens, ProjPoint.coordinate(field, self.N, i), codim)
                for i in range(self.N)
            )
            assert got == want, [g.render() for g in gens]
            verdicts.update(a.verdict for a in got)
        assert verdicts == {"off_scheme", "singular", "smooth"}


    @pytest.mark.parametrize("field", [QQ, PrimeField(3)], ids=str)
    def test_points_that_read_zero_or_one_slot(self, monkeypatch, field):
        """At e_1 and e_2 nothing of x1*x2*x3 + c*x3^3 is read, at e_3 its second
        term; the triangle lifts of ``corpus/lift_cycle3.job`` read one slot at
        e_2. A point's ``pick`` gives ``()`` for no slot and a bare value for one."""
        ctx = ctx_n(3, field)
        order = MonomialOrder.degrevlex(ctx)
        units = singularity._unit_points(ctx)
        cases = [("x1*x2*x3", [(), (), ()]), ("x1*x2*x3 + 2*x3^3", [(), (), 1]), ("x1*x2*x3 - x3^3", [(), (), 1])]
        for text, picked in cases:
            gens = [P(text, ctx, order)]
            table = singularity._point_table([[(m.exps, s) for s, (m, _) in enumerate(gens[0].terms)]], 3)
            assert [pick(range(2)) for pick, _, _ in table] == picked
            for codim in (1, 2):
                want = tuple(jacobian_rank_at(gens, e, codim) for e in units)
                assert singularity._coordinate_points(gens, units, codim) == want
        tables = count_calls(monkeypatch, "_point_table", module="singularity")
        triangle = SimplicialComplex.from_facets(3, [(1, 2), (1, 3), (2, 3)])
        res = lift_search(triangle, order, pool=(-1, 1), budget=20)
        assert res.exhaustive and res.lifts and len(tables) == 1
        gens_slots, n = tables[0]
        slots = range(1 + max(s for terms in gens_slots for _, s in terms))
        assert type(singularity._point_table(gens_slots, n)[1][0](slots)) is int
        for lift in res.lifts:
            assert lift.coordinate_points == tuple(jacobian_rank_at(lift.polys, e, 1) for e in units)


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


class TestLiftCertificates:
    """The paper's proven cases, as metamorphic checks of the lift verdicts:
    each valid lift is its own reduced basis, and the certificates computed
    from that basis agree with the verdicts the search tabled."""

    @pytest.mark.parametrize("field", [QQ, PrimeField(3)], ids=str)
    @pytest.mark.parametrize("kind", ["lex", "degrevlex"])
    @pytest.mark.parametrize("perm", [(0, 1, 2, 3), (2, 0, 3, 1)], ids=["id", "shuffled"])
    def test_four_cycle_lifts_are_singular_at_the_top_point(self, field, kind, perm):
        """A leafless graph: rank at most n-3 at the top coordinate point."""
        order = MonomialOrder(kind, ctx_n(4, field), perm=perm)
        res = lift_search(FOUR_CYCLE, order, budget=40, seed=7)
        assert res.lifts
        top = res.top_variable()
        for lift in res.lifts:
            B = buchberger(lift.polys, order)
            assert set(B.polys) == set(lift.polys)
            a = lift.coordinate_points[top]
            assert a.verdict == "singular" and a.rank <= 4 - 3
            cert = leafless_obstruction(B, FOUR_CYCLE)
            assert cert.certified and cert.witness["rank"] == a.rank
            assert cert.witness["point"] == a.point.render()

    @pytest.mark.parametrize("field", [QQ, PrimeField(3)], ids=str)
    @pytest.mark.parametrize("name", ["triangle", "four_cycle", "octahedron"])
    @pytest.mark.parametrize("reverse", [False, True], ids=["id", "reversed"])
    def test_lex_certified_complexes_have_no_lift_smooth_at_the_top_point(self, field, name, reverse):
        """When ``lex_obstruction`` certifies delta, no valid lex lift is smooth
        at the largest variable's coordinate point, under any lex order. The
        pool is -1, 1 over QQ and the whole field over GF(3). The triangle and
        the 4-cycle are searched exhaustively; the octahedron's spaces (2^31
        and 3^31 candidates) only by 2000 seeded draws."""
        delta = {
            "triangle": SimplicialComplex.from_facets(3, [(1, 2), (1, 3), (2, 3)]),
            "four_cycle": FOUR_CYCLE, "octahedron": OCTAHEDRON,
        }[name]
        ctx = ctx_n(delta.n, field)
        order = MonomialOrder("lex", ctx, perm=tuple(range(ctx.n))[::-1 if reverse else 1])
        res = lift_search(delta, order, pool=(-1, 1) if field == QQ else None, budget=20000 if delta.n < 6 else 2000)
        assert res.exhaustive == (delta.n < 6) and res.lifts
        assert lex_obstruction(delta).certified  # every vertex link is larger than the dimension
        top = res.top_variable()
        assert [lift.texts for lift in res.lifts if lift.coordinate_points[top].verdict == "smooth"] == []

    @pytest.mark.parametrize("field", [QQ, PrimeField(3)], ids=str)
    @pytest.mark.parametrize("kind", ["lex", "degrevlex"])
    def test_octahedron_lifts_are_singular_at_the_distinguished_point(self, field, kind):
        """A cross-polytope boundary: the complete-intersection certificate."""
        order = getattr(MonomialOrder, kind)(ctx_n(6, field))
        res = lift_search(OCTAHEDRON, order, budget=40, seed=7)
        assert res.lifts
        names = order.ctx.names
        for lift in res.lifts:
            B = buchberger(lift.polys, order)
            assert set(B.polys) == set(lift.polys)
            cert = ci_obstruction(B)
            assert cert.certified
            a = lift.coordinate_points[names.index(cert.witness["distinguished_variable"])]
            assert a.verdict == "singular" and a.rank == cert.witness["rank"]
            assert cert.witness["point"] == a.point.render()


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

    def test_trace_is_the_hasse_invariant(self):
        """Seeded cubic forms over GF(p), p <= 13: the trace is H_p mod p
        (``ref_hasse_invariant``), and a smooth cubic is supersingular exactly
        when H_p is 0. Two supersingular curves of trace -2 and -3, y^2 + y =
        x^3 + x over GF(2) and y^2 = x^3 - x + 1 over GF(3), join them: there
        "trace divisible by p" is not "trace 0"."""
        rng = random.Random(37)
        monomials = [e for e in itertools.product(range(4), repeat=3) if sum(e) == 3]
        forms = [
            (2, [((0, 2, 1), 1), ((0, 1, 2), 1), ((3, 0, 0), 1), ((1, 0, 2), 1)]),
            (3, [((0, 2, 1), 1), ((3, 0, 0), 2), ((1, 0, 2), 1), ((0, 0, 3), 2)]),
        ]
        for p in (2, 3, 5, 7, 11, 13):
            forms += [(p, [(e, rng.randrange(1, p)) for e in rng.sample(monomials, rng.randint(1, 10))]) for _ in range(25)]
        traces, smooth = [], {True: 0, False: 0}  # smooth cubics by supersingularity
        for p, terms in forms:
            ctx = ctx_xyz(PrimeField(p))
            r = count_points(Polynomial(ctx, MonomialOrder.degrevlex(ctx), [(Monomial(e), c) for e, c in terms]), p)
            h = ref_hasse_invariant(terms, p)
            assert r.trace % p == h
            if r.smooth:
                assert r.supersingular == (h == 0)
                smooth[r.supersingular] += 1
            traces.append(r.trace)
        assert traces[:2] == [-2, -3]
        assert smooth[True] > 2 and smooth[False] > 0

    def test_the_points_are_streamed(self, fermat_curve):
        """p^2 + p + 1 = 2863 points at p = 53, of which 54 lie on the curve:
        the count holds those, not the points (a list of all of them traces 0.2 MiB)."""
        tracemalloc.start()
        try:
            count = count_points(fermat_curve, 53).count
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert count == brute_projective_count(fermat_curve, 53) == 54
        assert peak < 2**15

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

    def test_a_smoothness_completion_past_its_cap_raises(self, monkeypatch, fermat_curve):
        """No rational point of the Fermat cubic mod 5 is singular, so smoothness
        takes a completion; past its degree cap it raises, never reads smooth."""
        monkeypatch.setattr(pipeline, "buchberger", lambda gens, order: buchberger(gens, order, degree_cap=2))
        with pytest.raises(DegreeCapExceeded):
            count_points(fermat_curve, 5)
        assert count_points(fermat_curve, 3).smooth is False  # a rational singular point: no completion

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


def integral_terms(f):
    """The terms of f, a rational f cleared to its primitive integral form."""
    terms = ref_terms(f)
    if not f.ctx.field.characteristic():
        scale = math.lcm(*(c.denominator for _, c in terms))
        content = math.gcd(*(int(c * scale) for _, c in terms))
        terms = [(e, int(c * scale) // content) for e, c in terms]
    return terms


def sympy_smooth(sympy, f, p):
    """Whether the plane curve f mod p is smooth over the algebraic closure of
    GF(p), by ``sympy.groebner``: the grevlex basis mod p of f and its partials
    holds a pure power of every variable."""
    symbols = sympy.symbols("x y z")
    F = sympy.Poly.from_dict({e: int(getattr(c, "v", c)) % p for e, c in integral_terms(f)}, *symbols, modulus=p)
    G = sympy.groebner([F] + [F.diff(s) for s in symbols], *symbols, modulus=p, order="grevlex")
    leads = [g.monoms(order="grevlex")[0] for g in G.polys]
    return all(any(m[j] == sum(m) for m in leads) for j in range(3))


def textbook_point_count(f, p):
    """(count, singular points) of the plane curve f over GF(p), or None when
    f vanishes mod p: the textbook partial derivatives, evaluated mod p at
    every point of P^2(F_p). A rational f is reduced from its primitive
    integral form."""
    terms = integral_terms(f)
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
        """The count and the rational singular points against the textbook
        route. ``smooth`` is over the algebraic closure: false when a rational
        singular point is listed, and otherwise ``sympy_smooth``, since a curve
        with no rational singular point may be singular over an extension."""
        sympy = pytest.importorskip("sympy")
        checked = singular = hidden = 0
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
                if r.singular_points:  # a textbook singular point: not smooth, with no oracle needed
                    assert not r.smooth
                else:
                    assert r.smooth == sympy_smooth(sympy, f, p), (f.render(), p)
                checked += 1
                singular += bool(r.singular_points)
                hidden += not r.smooth and not r.singular_points
        assert checked > 200 and singular > 50 and hidden > 0

    def test_singular_only_over_an_extension(self):
        """Over GF(2) this cubic has no singular rational point, yet it is
        singular over GF(4): it would break the Hasse bound, |-3| > 2*sqrt(2),
        were it smooth, so it gets no elliptic verdicts."""
        ctx = ctx_xyz()
        f = P("x^2*y + x^2*z + x*y*z + y^2*z + x*z^2 + y*z^2", ctx, MonomialOrder.degrevlex(ctx))
        r = count_points(f, 2)
        assert (r.count, r.trace, r.singular_points) == (6, -3, ())
        assert r.smooth is False
        assert r.supersingular is None and r.hasse_ok is None

    def test_smooth_cubics_keep_the_hasse_bound(self):
        """Seeded cubic forms over GF(2), GF(3), GF(5) and GF(7): every one
        reported smooth is an elliptic curve, so |trace| <= 2*sqrt(p)."""
        rng = random.Random(41)
        monomials = [e for e in itertools.product(range(4), repeat=3) if sum(e) == 3]
        smooth = 0
        for p in (2, 3, 5, 7):
            ctx = ctx_xyz(PrimeField(p))
            order = MonomialOrder.degrevlex(ctx)
            for _ in range(150):
                terms = [(Monomial(e), rng.randrange(1, p)) for e in rng.sample(monomials, rng.randint(1, 10))]
                r = count_points(Polynomial(ctx, order, terms), p)
                if r.smooth:
                    assert r.trace * r.trace <= 4 * p and r.hasse_ok is True, (r.curve, p)
                    smooth += 1
        assert smooth > 100

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
        """Counted at the kernel that every cohomology, the complex's own and
        each vertex link's, passes through."""
        calls = count_calls(monkeypatch, "_cohomology")
        report = analyze_complex(OCTAHEDRON)
        assert len(calls) == 1 + len(distinct_links(OCTAHEDRON))
        assert len(calls) == 4  # the octahedron, two labellings of the 4-cycle, S^0
        assert [a[0] for a in calls].count(OCTAHEDRON._lattice()) == 1
        assert to_jsonable(report)["cohomology"]["dims"] == [0, 0, 1]

    def test_analyze_computes_each_cohomology_once(self, monkeypatch):
        calls = count_calls(monkeypatch, "_cohomology")
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
        builders, built = count_builds(monkeypatch)
        five_cycle = SimplicialComplex.from_facets(5, [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)])
        res = lift_search(five_cycle, MonomialOrder.degrevlex(ctx_n(5)), budget=10, seed=4)
        assert res.tried == 10 and res.lifts == ()
        assert units == [] and tables == [] and builders == [] and built == []
        four_cycle = SimplicialComplex.from_facets(4, [(1, 2), (2, 3), (3, 4), (1, 4)])
        res = lift_search(four_cycle, MonomialOrder.degrevlex(ctx_n(4)), budget=60, seed=3)
        assert len(res.lifts) > 1
        assert len(units) == len(tables) == len(builders) == 1
        assert len(built) == len(res.lifts)

    def test_lift_search_checks_each_distinct_draw_once(self, monkeypatch):
        calls = count_calls(monkeypatch, "_valid_lift", module="pipeline")
        builders, built = count_builds(monkeypatch)
        triangle = SimplicialComplex.from_facets(3, [(1, 2), (1, 3), (2, 3)])
        drl = MonomialOrder.degrevlex(ctx_n(3))
        res = lift_search(triangle, drl, pool=(-2, -1, 1, 2), budget=200)
        assert res.tried == 200
        assignments = [args[-1] for args in calls]
        assert len(assignments) == len(set(assignments)) == len(res.lifts) == 133
        assert built == assignments and len(builders) == 1
        # where some draws are not valid, only the valid ones are built
        calls.clear()
        builders.clear()
        built.clear()
        drl = MonomialOrder.degrevlex(ctx_n(4, PrimeField(2)))
        res = lift_search(TestLiftOracle.PATH, drl, pool=(0, 1), budget=256)
        assignments = [args[-1] for args in calls]
        assert res.tried == len(assignments) == len(set(assignments)) == 256
        assert len(set(built)) == len(built) == len(res.lifts) == 32 and len(builders) == 1

    def test_lift_search_divides_only_the_pairs_a_candidate_reaches(self, checked):
        """No draw of this 5-cycle search is valid, and none gets past its first
        two S-pairs, so fewer than its 5 are divided; none is divided twice."""
        five_cycle = SimplicialComplex.from_facets(5, [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)])
        drl = MonomialOrder.degrevlex(ctx_n(5))
        res = lift_search(five_cycle, drl, budget=10, seed=4)
        assert res.tried == 10 and res.lifts == ()
        (search,) = checked
        failing = assert_divided_as_reached(candidates(res, search), search, drl)
        layout, _, divided = search
        assert None not in failing
        assert 0 < len(divided) < len(stratum_pairs(layout)) == 5

    def test_lift_search_builds_its_equations_once(self, monkeypatch):
        calls = count_calls(monkeypatch, "_stratum_equations", module="pipeline")
        five_cycle = SimplicialComplex.from_facets(5, [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)])
        res = lift_search(five_cycle, MonomialOrder.degrevlex(ctx_n(5)), budget=40, seed=4)
        assert res.tried == 40 and res.lifts == ()
        assert len(calls) == 1

    def test_lift_search_ranks_each_point_key_once(self, monkeypatch):
        """The corpus 4-cycle (``corpus/lift_cycle4.job``): 128 valid lifts, 512
        point verdicts. A verdict at e_i is ranked once per key: i and the
        coefficients of the monomials its Jacobian reads there (x_i^d,
        x_i^(d-1)*x_j, and every linear one)."""
        ranks = count_calls(monkeypatch, "rank_int", module="linalg")
        four_cycle = SimplicialComplex.from_facets(4, [(1, 2), (2, 3), (3, 4), (1, 4)])
        res = lift_search(four_cycle, MonomialOrder.degrevlex(ctx_n(4)), pool=(-1, 1), budget=200)
        golden = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "corpus", "golden", "lift_cycle4.json")
        with open(golden) as f:
            assert to_jsonable(res.as_dict()) == json.load(f)
        keys = {
            (i, tuple((k, m.exps, c) for k, g in enumerate(lift.polys) for m, c in g.terms if m.exps[i] >= m.degree() - 1))
            for lift in res.lifts
            for i in range(4)
        }
        assert len(res.lifts) * 4 == 512
        assert len(ranks) == len(keys) < 512

    def test_analyze_reaches_no_point_outside_the_table(self, monkeypatch, tmp_path):
        """The certificates read their top point from the coordinate-point
        table, so ``analyze`` never calls the evaluator of arbitrary points."""
        evaluations = count_calls(monkeypatch, "_jacobian_at", module="singularity")
        job = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "corpus", "analyze_cubic.job")
        out = tmp_path / "report.json"
        assert cli.main(["analyze", job, "--out", str(out)]) == 0
        ci = json.loads(out.read_text())["obstructions"][0]
        assert ci["kind"] == "complete_intersection" and ci["certified"]
        assert evaluations == []

    def test_lift_search_builds_each_valid_lift_once(self, monkeypatch):
        builders, built = count_builds(monkeypatch)
        triangle = SimplicialComplex.from_facets(3, [(1, 2), (1, 3), (2, 3)])
        drl = MonomialOrder.degrevlex(ctx_n(3))
        res = lift_search(triangle, drl, pool=(-2, -1, 1, 2), budget=200)
        assert len(res.lifts) == 133
        assert len(built) == len(set(built)) == 133  # every distinct draw is valid here
        assert len(builders) == 1

    def test_scan_completes_each_orbit_once(self, monkeypatch):
        calls = count_calls(monkeypatch, "buchberger", module="groebner")
        ctx = ctx_xyz()
        fermat = P(FERMAT, ctx, MonomialOrder.degrevlex(ctx))
        reports = scan_orders([fermat], family="both")
        assert sum(len(r.producing_orders) for r in reports) == 12
        # the six permutations of x, y, z carry x^3 to y^3 and z^3: one orbit
        assert len(reports) == 3 and len(calls) == 1
        # the orbit is completed at its first order, the others are transported
        assert [a[1] for a in calls] == [reports[0].order]

    def test_rational_normal_quartic_scan_completes_each_orbit_once(self, monkeypatch):
        calls = count_calls(monkeypatch, "buchberger", module="groebner")
        ctx = ctx_n(5)
        drl = MonomialOrder.degrevlex(ctx)
        hankel = [("x1", "x2", "x3", "x4"), ("x2", "x3", "x4", "x5")]
        gens = [
            P(f"{hankel[0][i]}*{hankel[1][j]} - {hankel[0][j]}*{hankel[1][i]}", ctx, drl)
            for i, j in itertools.combinations(range(4), 2)
        ]
        symmetries = ref_symmetries(gens)
        assert symmetries == [(4, 3, 2, 1, 0)]  # the reversal
        reports = scan_orders(gens, family="both")
        assert sum(len(r.producing_orders) for r in reports) == 240
        assert (len(reports), len(calls)) == (34, 19)
        assert [a[1] for a in calls] == orbit_firsts(reports, symmetries)

    def test_scan_of_the_2x3_minors_completes_at_each_first_producing_order(self, monkeypatch):
        calls = count_calls(monkeypatch, "buchberger", module="groebner")
        ctx = ctx_n(6)
        drl = MonomialOrder.degrevlex(ctx)
        gens = [P(t, ctx, drl) for t in ("x1*x5 - x2*x4", "x1*x6 - x3*x4", "x2*x6 - x3*x5")]
        reports = scan_orders(gens, family="both")
        assert sum(len(r.producing_orders) for r in reports) == 1440
        assert (len(reports), len(calls)) == (6, 1)
        assert [a[1] for a in calls] == orbit_firsts(reports, ref_symmetries(gens)) == [reports[0].order]
        assert calls[0][1].render() == reports[0].producing_orders[0]

    @pytest.mark.parametrize("family", sorted(FAMILY_KINDS))
    @pytest.mark.parametrize("name", ["minors_2x3", "rescaled"])
    def test_scan_judges_each_orbit_of_complexes_once(self, monkeypatch, name, family):
        """The six square-free initial ideals form one orbit. Only the first
        report runs ``property_report`` and ranks its coordinate points; the
        other five are relabelled, and take no rank at all."""
        gens = symmetric_gens(name)
        judged = count_calls(monkeypatch, "property_report")
        ranked = count_calls(monkeypatch, "_coordinate_points", module="singularity")
        ranks = count_calls(monkeypatch, "rank_int", module="linalg")
        reports = scan_orders(gens, family=family)
        assert len(reports) == 6 and all(r.squarefree for r in reports)
        assert [a[0] for a in judged] == [reports[0].delta]
        assert len(ranked) == 1 and ranked[0][0] == reports[0].basis.polys
        scan_ranks = len(ranks)
        ranks.clear()
        analyze(gens, reports[0].order)  # the first report alone
        assert scan_ranks == len(ranks) > 0

    def test_scan_looks_for_symmetries_once_right_after_its_first_completion(self, monkeypatch):
        completed = count_calls(monkeypatch, "buchberger", module="groebner")
        found, search = [], pipeline._symmetry_generators

        def counted(gens):  # found: the completions made when each search starts
            found.append(len(completed))
            return search(gens)

        monkeypatch.setattr(pipeline, "_symmetry_generators", counted)
        ctx = ctx_n(4)
        drl = MonomialOrder.degrevlex(ctx)
        # a monomial ideal has one reduced basis, whose cone is every order: one search all the same
        assert len(scan_orders([P("x1*x2", ctx, drl), P("x3^2*x4", ctx, drl)], family="both")) == 1
        assert found == [1] and len(completed) == 1
        completed.clear()
        found.clear()
        assert len(scan_orders(symmetric_gens("rnc_4"), family="both")) == 8
        assert found == [1] and len(completed) == 5

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
        cross-polytope links, not the 3^k - 1 - 2^k non-facet faces: it builds
        the 2j vertex links of the j-fold one, for j = k down to 1."""
        built = count_calls(monkeypatch, "_link")
        cross = cross_polytope(k)
        for field in (QQ, PrimeField(2)):
            built.clear()
            rep = property_report(cross, field)
            assert rep.cohen_macaulay and rep.buchsbaum and rep.normal
            assert not rep.acyclic
            assert 0 < len(built) <= k * (k + 1)


def test_importing_the_cli_loads_no_process_pool():
    """Neither importing the command line tool nor running a lift search
    loads a process pool: every command runs in one process."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(grodeg.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    job = os.path.join(src, "..", "corpus", "lift_cycle4.job")
    script = (
        "import contextlib, io, sys, grodeg.cli\n"
        "pools = ('concurrent.futures.process', 'multiprocessing')\n"
        "loaded = [m for m in pools if m in sys.modules]\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert grodeg.cli.main(['lift-search', {job!r}]) == 0\n"
        "print(loaded, [m for m in pools if m in sys.modules])"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[] []"


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
    """The orders of each report of a scan against its basis's cone and the
    term-by-term marking check of ``conftest``."""

    @pytest.mark.parametrize("field", [QQ, PrimeField(2), PrimeField(3)], ids=str)
    def test_each_order_is_produced_by_the_one_basis_that_keeps_its_marking(self, field):
        rng = random.Random(f"cone-cover-{field.render()}")
        for n, grading in ((3, None), (4, None), (5, None), (4, (1, 2, 1, 3)), (3, (2, 1, 1))):
            ctx = standard_context(tuple(f"x{i}" for i in range(1, n + 1)), field, grading)
            drl = MonomialOrder.degrevlex(ctx)
            degree = 2 if n == 5 else rng.randint(2, 3)  # keeps the completions over QQ small
            gens = [random_graded_poly(rng, ctx, drl, degree) for _ in range(rng.randint(2, 3))]
            self.check(scan_orders(gens, family="both"), FAMILY_KINDS["both"])

    @pytest.mark.parametrize("family", sorted(FAMILY_KINDS))
    @pytest.mark.parametrize("name", sorted(SYMMETRIC_IDEALS))
    def test_symmetric_ideals_transport_to_the_one_basis_that_keeps_its_marking(self, name, family):
        gens = symmetric_gens(name)
        reports = scan_orders(gens, family=family)
        self.check(reports, FAMILY_KINDS[family])
        for r in reports:  # completed or transported, each basis is the reduced one
            assert [ref_terms(g) for g in r.basis.polys] == [ref_terms(g) for g in ref_reduced_basis(gens, r.order)]

    @staticmethod
    def check(reports, kinds):
        ctx = reports[0].ctx
        orders = [(kind, perm) for kind in kinds for perm in itertools.permutations(range(ctx.n))]
        named = {MonomialOrder(kind, ctx, perm=perm).render(): (kind, perm) for kind, perm in orders}
        produced = [[named[o] for o in r.producing_orders] for r in reports]
        owner = {order: k for k, own in enumerate(produced) for order in own}
        assert sorted(owner) == sorted(orders) and sum(map(len, produced)) == len(orders)
        for r, own in zip(reports, produced):
            assert sorted(own) == sorted(pipeline._cone(r.basis, kinds))
            # each basis is built under its report's first producing order
            assert (r.basis.order.kind, r.basis.order.perm) == own[0]
        for order in orders:
            assert [k for k, r in enumerate(reports) if ref_keeps_marking(r.basis, *order)] == [owner[order]]
        # reports come in the order of their first producing orders
        firsts = [orders.index(own[0]) for own in produced]
        assert firsts == sorted(firsts)
