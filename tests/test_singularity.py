"""Jacobian criterion and the three smoothing obstructions."""

import random
from fractions import Fraction

import pytest

from grodeg import (
    GroebnerBasis,
    Monomial,
    MonomialOrder,
    Polynomial,
    PrimeField,
    ProjPoint,
    QQ,
    SimplicialComplex,
    buchberger,
    ci_obstruction,
    jacobian_rank_at,
    leafless_obstruction,
    lex_obstruction,
    lift_search,
    parse_polynomial,
    standard_context,
    support_exclusions,
)

from conftest import (
    ctx_n,
    ctx_xyz,
    random_homogeneous_poly,
    ref_rank_fraction,
    ref_rank_mod_p,
)


def P(text, ctx, order):
    return parse_polynomial(text, ctx, order)


def gb(texts, ctx, order, **kw):
    return buchberger([P(t, ctx, order) for t in texts], order, **kw)


class TestProjPoint:
    def test_scaling(self):
        p = ProjPoint.make(QQ, (0, 2, 4))
        assert p.render() == "[0:1:2]"
        assert p.field == QQ
        assert p == ProjPoint.make(QQ, (0, 1, 2))
        assert ProjPoint.make(QQ, (3, 0, 0)) == ProjPoint.coordinate(QQ, 3, 0)

    def test_zero_rejected(self):
        with pytest.raises(ValueError, match="nonzero coordinate"):
            ProjPoint.make(QQ, (0, 0, 0))
        with pytest.raises(ValueError, match="out of range"):
            ProjPoint.coordinate(QQ, 3, 3)

    def test_gf_points(self):
        F = PrimeField(5)
        p = ProjPoint.make(F, (2, 3, 0))
        assert p.render() == "[1:4:0]"  # scaled by 2^-1 = 3
        assert p.field == F and p != ProjPoint.make(QQ, (1, 4, 0))


class TestJacobian:
    def test_fermat_smooth_point(self):
        ctx = ctx_xyz()
        lex = MonomialOrder.lex(ctx)
        B = gb(["x^3 + y^3 + z^3"], ctx, lex)
        a = jacobian_rank_at(B, ProjPoint.make(QQ, (1, -1, 0)), 1)
        assert a.verdict == "smooth"
        assert a.on_scheme and a.rank == 1

    def test_cubic_singular_at_coordinate_point(self):
        ctx = ctx_xyz()
        lex = MonomialOrder.lex(ctx)
        B = gb(["x*y*z + y^3 + z^3"], ctx, lex)
        a = jacobian_rank_at(B, ProjPoint.coordinate(QQ, 3, 0), 1)
        assert a.verdict == "singular"
        assert a.on_scheme and a.rank == 0

    def test_off_scheme(self):
        ctx = ctx_xyz()
        lex = MonomialOrder.lex(ctx)
        B = gb(["x*y*z + y^3 + z^3"], ctx, lex)
        a = jacobian_rank_at(B, ProjPoint.coordinate(QQ, 3, 1), 1)
        assert a.verdict == "off_scheme"
        assert not a.on_scheme

    def test_characteristic_matters(self):
        # the Fermat cubic degenerates to a triple line in characteristic 3
        F = PrimeField(3)
        ctx = ctx_xyz(F)
        lex = MonomialOrder.lex(ctx)
        B = gb(["x^3 + y^3 + z^3"], ctx, lex)
        a = jacobian_rank_at(B, ProjPoint.make(F, (1, -1, 0)), 1)
        assert a.on_scheme and a.rank == 0
        assert a.verdict == "singular"
        F7 = PrimeField(7)
        ctx7 = ctx_xyz(F7)
        B7 = gb(["x^3 + y^3 + z^3"], ctx7, MonomialOrder.lex(ctx7))
        assert jacobian_rank_at(B7, ProjPoint.make(F7, (1, -1, 0)), 1).verdict == "smooth"

    def test_matches_hand_gradient_on_all_of_p2_f5(self):
        """Every point of P^2(F_5): on-scheme flag, rank, verdict vs hand math."""
        F = PrimeField(5)
        ctx = ctx_xyz(F)
        lex = MonomialOrder.lex(ctx)
        f = P("x*y*z + y^3 + z^3", ctx, lex)
        B = buchberger([f], lex)
        grads = [f.partial_derivative(i) for i in range(3)]
        pts = [(1, y, z) for y in range(5) for z in range(5)]
        pts += [(0, 1, z) for z in range(5)] + [(0, 0, 1)]
        smooth_seen = singular_seen = 0
        for cs in pts:
            a = jacobian_rank_at(B, ProjPoint.make(F, cs), 1)
            on = f.evaluate(cs) == 0
            assert a.on_scheme == on
            if not on:
                assert a.verdict == "off_scheme"
                continue
            rank = ref_rank_mod_p([[g.evaluate(cs).v for g in grads]], 5)
            assert a.rank == rank
            assert a.verdict == ("smooth" if rank == 1 else "singular")
            smooth_seen += a.verdict == "smooth"
            singular_seen += a.verdict == "singular"
        assert smooth_seen and singular_seen

    def test_accepts_raw_generator_list(self):
        ctx = ctx_xyz()
        lex = MonomialOrder.lex(ctx)
        f = P("x^3 + y^3 + z^3", ctx, lex)
        a = jacobian_rank_at([f], ProjPoint.make(QQ, (1, -1, 0)), 1)
        assert a.verdict == "smooth"

    def test_input_validation(self):
        ctx = ctx_xyz()
        lex = MonomialOrder.lex(ctx)
        with pytest.raises(ValueError, match="no generators"):
            jacobian_rank_at([], ProjPoint.coordinate(QQ, 3, 0), 1)
        with pytest.raises(ValueError, match="inhomogeneous generator: x \\+ y\\^2"):
            jacobian_rank_at([P("x + y^2", ctx, lex)], ProjPoint.coordinate(QQ, 3, 0), 1)
        with pytest.raises(ValueError, match="wrong number of coordinates"):
            jacobian_rank_at(
                [P("x^2", ctx, lex)], ProjPoint.coordinate(QQ, 2, 0), 1
            )

    def test_as_dict(self):
        ctx = ctx_xyz()
        lex = MonomialOrder.lex(ctx)
        B = gb(["x*y*z + y^3 + z^3"], ctx, lex)
        d = jacobian_rank_at(B, ProjPoint.coordinate(QQ, 3, 0), 1).as_dict()
        assert d == {
            "point": "[1:0:0]",
            "on_scheme": True,
            "rank": 0,
            "expected_codim": 1,
            "verdict": "singular",
            "hypothesis": "equidimensional of the expected codimension",
        }


def slow_jacobian(gens, point, expected_codim):
    """(on_scheme, rank, verdict) from built partial derivatives, evaluated one by one."""
    ctx = gens[0].ctx
    field = ctx.field
    coords = list(point.coords)
    on_scheme = all(g.evaluate(coords) == field.zero for g in gens)
    rows = [[g.partial_derivative(j).evaluate(coords) for j in range(ctx.n)] for g in gens]
    p = field.characteristic()
    if p:
        rank = ref_rank_mod_p([[c.v for c in row] for row in rows], p)
    else:
        rank = ref_rank_fraction(rows)
    if not on_scheme:
        return on_scheme, rank, "off_scheme"
    return on_scheme, rank, "singular" if rank < expected_codim else "smooth"


class TestJacobianOracle:
    """``jacobian_rank_at`` against the slow route on random generator sets."""

    N = 4

    def random_points(self, rng, field):
        p = field.characteristic()

        def scalar():
            if p:
                return rng.randrange(1, p)
            return Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.choice([1, 2, 3]))

        points = [ProjPoint.coordinate(field, self.N, i) for i in range(self.N)]
        for zeros in (0, 1, 2):
            for _ in range(3):
                coords = [scalar() for _ in range(self.N)]
                for k in rng.sample(range(self.N), zeros):
                    coords[k] = 0
                points.append(ProjPoint.make(field, coords))
        return points

    def random_gens(self, rng, ctx, order, point, through_point):
        p = ctx.field.characteristic()
        # degree p puts exponents divisible by p (x^3 over GF(3)) into the rows
        degrees = (2, 3, p) if p else (2, 3, 4)
        pivot = next(k for k, c in enumerate(point.coords) if c != ctx.field.zero)
        gens = []
        for _ in range(rng.randint(1, 3)):
            d = rng.choice(degrees)
            power = Polynomial(ctx, order, [(Monomial.variable(rng.randrange(ctx.n), ctx.n).pow(d), 1)])
            g = random_homogeneous_poly(rng, ctx, order, d) + power
            if through_point:
                # the pivot coordinate is 1, so this moves g onto the point
                pivot_power = Monomial.variable(pivot, ctx.n).pow(d)
                g = g - Polynomial(ctx, order, [(pivot_power, g.evaluate(point.coords))])
            gens.append(g)
        return gens

    @pytest.mark.parametrize("field", [QQ, PrimeField(2), PrimeField(3), PrimeField(5)], ids=str)
    def test_matches_slow_route(self, field):
        rng = random.Random(f"jacobian-oracle-{field.render()}")
        ctx = ctx_n(self.N, field)
        order = MonomialOrder.degrevlex(ctx)
        verdicts = set()
        for _ in range(8):
            for point in self.random_points(rng, field):
                for through_point in (False, True):
                    gens = self.random_gens(rng, ctx, order, point, through_point)
                    codim = rng.randint(1, len(gens))
                    a = jacobian_rank_at(gens, point, codim)
                    assert (a.on_scheme, a.rank, a.verdict) == slow_jacobian(gens, point, codim)
                    verdicts.add(a.verdict)
        assert verdicts == {"off_scheme", "singular", "smooth"}


class TestCIObstruction:
    def test_hypersurface_cubic(self):
        ctx = ctx_xyz()
        lex = MonomialOrder.lex(ctx)
        v = ci_obstruction(gb(["x*y*z + y^3 + z^3"], ctx, lex))
        assert v.kind == "complete_intersection"
        assert v.applicable and v.certified and v.reason is None
        assert v.witness["blocks"] == [["x", "y", "z"]]
        assert v.witness["point"] == "[1:0:0]"
        assert v.witness["distinguished_variable"] == "x"
        assert v.witness["rank"] == 0
        assert v.witness["codim"] == 1
        assert v.witness["on_scheme"] is True

    def test_four_cycle_lift(self):
        ctx = ctx_n(4)
        drl = MonomialOrder.degrevlex(ctx)
        B = gb(["x1*x3 + x4^2", "x2*x4 + x3*x4"], ctx, drl)
        v = ci_obstruction(B)
        assert v.applicable and v.certified
        assert v.witness == {
            "blocks": [["x1", "x3"], ["x2", "x4"]],
            "point": "[1:0:0:0]",
            "distinguished_variable": "x1",
            "rank": 1,
            "codim": 2,
            "on_scheme": True,
        }

    def test_two_quadric_monomial_ci(self):
        ctx = ctx_n(4)
        drl = MonomialOrder.degrevlex(ctx)
        v = ci_obstruction(gb(["x1*x2", "x3*x4"], ctx, drl))
        assert v.certified
        assert v.witness["rank"] == 1 and v.witness["codim"] == 2

    def test_inapplicable_reasons(self):
        ctx = ctx_xyz()
        lex = MonomialOrder.lex(ctx)
        v = ci_obstruction(buchberger([], lex))
        assert not v.applicable and v.reason == "zero ideal"

        v = ci_obstruction(gb(["x^2 - y*z", "x*y - z^2"], ctx, lex))
        assert not v.applicable
        assert v.reason == "initial ideal is not square-free"

        ctx6 = ctx_n(6)
        drl6 = MonomialOrder.degrevlex(ctx6)
        minors = gb(
            ["x1*x5 - x2*x4", "x1*x6 - x3*x4", "x2*x6 - x3*x5"], ctx6, drl6
        )
        v = ci_obstruction(minors)
        assert not v.applicable
        assert v.reason == "generator supports are not disjoint"

        ctx3 = ctx_n(3)
        v = ci_obstruction(gb(["x1", "x2*x3"], ctx3, MonomialOrder.degrevlex(ctx3)))
        assert not v.applicable and v.reason == "a generator has degree < 2"

        ctx5 = ctx_n(5)
        drl5 = MonomialOrder.degrevlex(ctx5)
        v = ci_obstruction(gb(["x1*x2", "x3*x4"], ctx5, drl5))
        assert not v.applicable
        assert v.reason == "generator degrees sum to 4, not 5"

    def test_requires_standard_grading(self):
        ctx = standard_context(("x", "y"), grading=(1, 2))
        drl = MonomialOrder.degrevlex(ctx)
        with pytest.raises(ValueError, match="require the standard grading"):
            ci_obstruction(gb(["x*y"], ctx, drl))


def delta_of(n, facets):
    return SimplicialComplex.from_facets(n, facets)


class TestSupportExclusions:
    def test_clean_monomial_basis(self):
        ctx = ctx_xyz()
        lex = MonomialOrder.lex(ctx)
        B = gb(["x*y*z"], ctx, lex)
        delta = delta_of(3, [(1, 2), (1, 3), (2, 3)])
        assert support_exclusions(B, delta) == []

    def test_rule_two_fires(self):
        # tail monomial x1*x4 couples the top vertex to a non-neighbor
        ctx = ctx_n(4)
        drl = MonomialOrder.degrevlex(ctx)
        delta = delta_of(4, [(1, 2), (1, 3), (2, 4)])
        B = GroebnerBasis(
            tuple(
                P(t, ctx, drl)
                for t in ("x1*x4", "x2*x3 + x1*x4", "x3*x4")
            ),
            drl,
            ctx,
        )
        out = support_exclusions(B, delta)
        assert [(v.rule, v.generator, v.monomial) for v in out] == [
            (
                "top_variable_times_non_neighbor",
                "x2*x3 + x1*x4",
                "x1*x4",
            )
        ]

    def test_rule_three_fires(self):
        ctx = ctx_n(4)
        drl = MonomialOrder.degrevlex(ctx)
        delta = delta_of(4, [(1, 3), (1, 4), (2, 4), (3, 4)])
        B = GroebnerBasis(
            tuple(P(t, ctx, drl) for t in ("x1*x2", "x2*x3 + x1*x4", "x1*x3*x4")),
            drl,
            ctx,
        )
        out = support_exclusions(B, delta)
        assert [(v.rule, v.generator, v.monomial) for v in out] == [
            (
                "top_variable_times_top_link_vertex",
                "x2*x3 + x1*x4",
                "x1*x4",
            )
        ]

    def test_clean_lift_with_tails(self):
        ctx = ctx_n(4)
        drl = MonomialOrder.degrevlex(ctx)
        delta = delta_of(4, [(1, 2), (2, 3), (2, 4)])
        B = GroebnerBasis(
            tuple(
                P(t, ctx, drl)
                for t in ("x1*x4 + x2*x4", "x1*x3 + x2*x3", "x3*x4")
            ),
            drl,
            ctx,
        )
        assert support_exclusions(B, delta) == []

    def test_degree_three_injected_tail(self):
        ctx = ctx_n(6)
        drl = MonomialOrder.degrevlex(ctx)
        delta = delta_of(6, [(1, 5), (1, 6), (2, 3), (2, 4), (3, 4), (5, 6)])
        quads = [
            "x1*x2", "x1*x3", "x1*x4", "x2*x5", "x2*x6",
            "x3*x5", "x3*x6", "x4*x5", "x4*x6",
        ]
        B = GroebnerBasis(
            tuple(
                P(t, ctx, drl)
                for t in quads + ["x2*x3*x4 + x1^2*x5", "x1*x5*x6"]
            ),
            drl,
            ctx,
        )
        out = support_exclusions(B, delta)
        assert [(v.rule, v.generator, v.monomial) for v in out] == [
            (
                "top_variable_times_top_link_vertex",
                "x2*x3*x4 + x1^2*x5",
                "x1^2*x5",
            )
        ]
        assert out[0].as_dict() == {
            "rule": "top_variable_times_top_link_vertex",
            "generator": "x2*x3*x4 + x1^2*x5",
            "monomial": "x1^2*x5",
        }

    def test_setting_validation(self):
        ctx = ctx_n(4)
        drl = MonomialOrder.degrevlex(ctx)
        square = delta_of(4, [(1, 2), (1, 4), (2, 3), (3, 4)])
        B = gb(["x1*x3 + x4^2", "x2*x4 + x3*x4"], ctx, drl)

        with pytest.raises(ValueError, match="different vertex counts"):
            support_exclusions(B, delta_of(5, [(1, 2)]))

        solid = delta_of(4, [(1, 2, 3), (1, 3, 4)])
        solid_gb = gb(["x2*x4"], ctx, drl)
        with pytest.raises(ValueError, match="one-dimensional complexes"):
            support_exclusions(solid_gb, solid)

        ghosty = delta_of(4, [(2, 3), (3, 4)])
        ghost_gb = gb(["x1", "x2*x4"], ctx, drl)
        with pytest.raises(ValueError, match="ghost vertices present"):
            support_exclusions(ghost_gb, ghosty)

        with pytest.raises(ValueError, match="not the non-face ideal"):
            support_exclusions(gb(["x1*x2"], ctx, drl), square)

        wctx = standard_context(("x1", "x2", "x3", "x4"), grading=(1, 1, 1, 2))
        wdrl = MonomialOrder.degrevlex(wctx)
        with pytest.raises(ValueError, match="standard grading"):
            support_exclusions(gb(["x1*x3", "x2*x4"], wctx, wdrl), square)


class TestLeaflessObstruction:
    def test_four_cycle_certified(self):
        ctx = ctx_n(4)
        drl = MonomialOrder.degrevlex(ctx)
        B = gb(["x1*x3 + x4^2", "x2*x4 + x3*x4"], ctx, drl)
        square = delta_of(4, [(1, 2), (1, 4), (2, 3), (3, 4)])
        v = leafless_obstruction(B, square)
        assert v.kind == "leafless_vertex"
        assert v.applicable and v.certified and v.reason is None
        assert v.witness == {
            "vertex": 1,
            "distinguished_variable": "x1",
            "link_size": 2,
            "point": "[1:0:0:0]",
            "rank": 1,
            "rank_bound": 1,
            "codim": 2,
            "degree2_rows_through_top_vertex": [0],
            "remaining_rows": [1],
            "support_violations": [],
        }

    def test_triangle_certified(self):
        ctx = ctx_n(3)
        drl = MonomialOrder.degrevlex(ctx)
        B = gb(["x1*x2*x3"], ctx, drl)
        v = leafless_obstruction(B, delta_of(3, [(1, 2), (1, 3), (2, 3)]))
        assert v.applicable and v.certified
        assert v.witness["rank"] == 0
        assert v.witness["rank_bound"] == 0
        assert v.witness["degree2_rows_through_top_vertex"] == []
        assert v.witness["remaining_rows"] == [0]

    def test_leaf_inapplicable(self):
        ctx = ctx_n(3)
        drl = MonomialOrder.degrevlex(ctx)
        B = gb(["x1*x3"], ctx, drl)
        v = leafless_obstruction(B, delta_of(3, [(1, 2), (2, 3)]))
        assert not v.applicable and not v.certified
        assert v.reason == "vertex 1 (variable x1) is a leaf or isolated"
        assert v.witness == {"vertex": 1, "link_size": 1}

    def test_violations_block_certification(self):
        ctx = ctx_n(4)
        drl = MonomialOrder.degrevlex(ctx)
        delta = delta_of(4, [(1, 2), (1, 3), (2, 4)])
        B = GroebnerBasis(
            tuple(P(t, ctx, drl) for t in ("x1*x4", "x2*x3 + x1*x4", "x3*x4")),
            drl,
            ctx,
        )
        v = leafless_obstruction(B, delta)
        assert v.applicable and not v.certified
        assert v.reason == "rank bound or support exclusions did not verify"
        assert len(v.witness["support_violations"]) == 1

    def test_respects_order_permutation(self):
        # under lex with x3 largest, the top vertex becomes 3
        ctx = ctx_n(3)
        order = MonomialOrder.lex(ctx, perm=(2, 0, 1))
        B = gb(["x1*x2*x3"], ctx, order)
        v = leafless_obstruction(B, delta_of(3, [(1, 2), (1, 3), (2, 3)]))
        assert v.witness["vertex"] == 3
        assert v.witness["distinguished_variable"] == "x3"
        assert v.witness["point"] == "[0:0:1]"
        assert v.certified

    def one_dimensional_cases(self):
        """The fixed one-dimensional bases of this file, then seeded lifts of
        cycles (the lifts' reduced bases) over QQ and GF(3)."""
        ctx4 = ctx_n(4)
        drl4 = MonomialOrder.degrevlex(ctx4)

        def basis(texts, ctx, order):
            return GroebnerBasis(tuple(P(t, ctx, order) for t in texts), order, ctx)

        cases = [
            (gb(["x1*x3 + x4^2", "x2*x4 + x3*x4"], ctx4, drl4), delta_of(4, [(1, 2), (1, 4), (2, 3), (3, 4)])),
            (gb(["x1*x2*x3"], ctx_n(3), MonomialOrder.degrevlex(ctx_n(3))), delta_of(3, [(1, 2), (1, 3), (2, 3)])),
            (basis(("x1*x4", "x2*x3 + x1*x4", "x3*x4"), ctx4, drl4), delta_of(4, [(1, 2), (1, 3), (2, 4)])),
            (basis(("x1*x2", "x2*x3 + x1*x4", "x1*x3*x4"), ctx4, drl4), delta_of(4, [(1, 3), (1, 4), (2, 4), (3, 4)])),
            (
                gb(["x1*x2*x3"], ctx_n(3), MonomialOrder.lex(ctx_n(3), perm=(2, 0, 1))),
                delta_of(3, [(1, 2), (1, 3), (2, 3)]),
            ),
        ]
        ctx6 = ctx_n(6)
        drl6 = MonomialOrder.degrevlex(ctx6)
        quads = ["x1*x2", "x1*x3", "x1*x4", "x2*x5", "x2*x6", "x3*x5", "x3*x6", "x4*x5", "x4*x6"]
        cases.append((
            basis(quads + ["x2*x3*x4 + x1^2*x5", "x1*x5*x6"], ctx6, drl6),
            delta_of(6, [(1, 5), (1, 6), (2, 3), (2, 4), (3, 4), (5, 6)]),
        ))
        for n, seed in ((3, 5), (4, 3), (6, 11)):
            cycle = delta_of(n, [(i, i % n + 1) for i in range(1, n + 1)])
            for field in (QQ, PrimeField(3)):
                drl = MonomialOrder.degrevlex(ctx_n(n, field))
                for lift in lift_search(cycle, drl, budget=40, seed=seed).lifts[:5]:
                    cases.append((buchberger(list(lift.polys), drl), cycle))
        return cases

    def test_witness_violations_are_the_support_exclusions(self):
        applicable = violated = 0
        for B, delta in self.one_dimensional_cases():
            v = leafless_obstruction(B, delta)
            if not v.applicable:
                continue
            applicable += 1
            expected = [x.as_dict() for x in support_exclusions(B, delta)]
            violated += bool(expected)
            assert v.witness["support_violations"] == expected, B.render_polys()
        assert applicable > 10 and violated >= 2


class TestLexObstruction:
    def test_triangle_certified(self):
        v = lex_obstruction(delta_of(3, [(1, 2), (1, 3), (2, 3)]))
        assert v.kind == "lex_link"
        assert v.applicable and v.certified and v.reason is None
        assert v.witness == {"dim": 1, "link_sizes": {"1": 2, "2": 2, "3": 2}}

    def test_octahedron_certified(self):
        octa = delta_of(
            6,
            [
                (1, 2, 3), (1, 2, 6), (1, 3, 5), (1, 5, 6),
                (2, 3, 4), (2, 4, 6), (3, 4, 5), (4, 5, 6),
            ],
        )
        v = lex_obstruction(octa)
        assert v.certified
        assert v.witness["dim"] == 2
        assert v.witness["link_sizes"] == {str(i): 4 for i in range(1, 7)}

    def test_single_edge_inapplicable(self):
        v = lex_obstruction(delta_of(2, [(1, 2)]))
        assert not v.applicable
        assert v.reason == "some vertex has a link no bigger than the dimension"
        assert v.witness["failing_vertices"] == [1, 2]
        assert v.witness["free_faces"] == [[1], [2]]

    def test_path_inapplicable(self):
        v = lex_obstruction(delta_of(3, [(1, 2), (2, 3)]))
        assert not v.applicable
        assert v.witness["failing_vertices"] == [1, 3]

    def test_ghost_vertices_inapplicable(self):
        v = lex_obstruction(delta_of(3, [(2, 3)]))
        assert not v.applicable
        assert v.reason == "ghost vertices present"
        assert v.witness == {"ghost_vertices": [1]}

    def test_order_argument(self):
        tri = delta_of(3, [(1, 2), (1, 3), (2, 3)])
        ctx = ctx_n(3)
        assert lex_obstruction(tri, MonomialOrder.lex(ctx)).certified
        with pytest.raises(ValueError, match="applies to lex orders"):
            lex_obstruction(tri, MonomialOrder.degrevlex(ctx))

    def test_as_dict(self):
        v = lex_obstruction(delta_of(3, [(1, 2), (1, 3), (2, 3)]))
        d = v.as_dict()
        assert d["kind"] == "lex_link"
        assert d["applicable"] is True
        assert d["certified"] is True
        assert d["reason"] is None
        assert d["witness"]["dim"] == 1
