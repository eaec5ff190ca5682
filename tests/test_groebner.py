"""Buchberger, reduced bases, cone points and the regular-variable oracle."""

import itertools
import pickle
import random
from fractions import Fraction

import pytest

from grodeg import (
    ContextMismatchError,
    DegreeCapExceeded,
    Monomial,
    MonomialIdeal,
    MonomialOrder,
    Polynomial,
    PrimeField,
    QQ,
    buchberger,
    complex_from_squarefree_ideal,
    initial_ideal,
    normal_form,
    parse_polynomial,
    property_report,
    s_polynomial,
    standard_context,
    to_ideal,
)

import grodeg.groebner as groebner_module

from conftest import (
    _ref_reduce,
    ctx_n,
    ctx_xyz,
    random_complex,
    random_path_reduce,
    random_monomial,
    random_poly,
    ref_initial_monomials,
    ref_is_variable_regular,
    ref_monic_poly,
    ref_s_polynomial,
    ref_times_term,
)


def P(text, ctx, order):
    return parse_polynomial(text, ctx, order)


@pytest.fixture
def twisted(request):
    """The lex basis of (x^2 - y*z, x*y - z^2), a small but non-trivial run."""
    ctx = ctx_xyz()
    lex = MonomialOrder.lex(ctx)
    gens = [P("x^2 - y*z", ctx, lex), P("x*y - z^2", ctx, lex)]
    return ctx, lex, gens, buchberger(gens, lex)


@pytest.fixture
def minors():
    ctx = ctx_n(6)
    drl = MonomialOrder.degrevlex(ctx)
    gens = [
        P("x1*x5 - x2*x4", ctx, drl),
        P("x1*x6 - x3*x4", ctx, drl),
        P("x2*x6 - x3*x5", ctx, drl),
    ]
    return ctx, drl, gens, buchberger(gens, drl)


class TestNormalForm:
    def test_frozen(self):
        ctx = ctx_xyz()
        lex = MonomialOrder.lex(ctx)
        f = P("x^2*y", ctx, lex)
        assert normal_form(f, [P("x*y - z", ctx, lex)]) == P("x*z", ctx, lex)
        assert normal_form(P("x*y - z", ctx, lex), [P("x*y - z", ctx, lex)]).is_zero()
        assert normal_form(P("z^5 + 1", ctx, lex), [P("x*y - z", ctx, lex)]) == P(
            "z^5 + 1", ctx, lex
        )

    def test_reduces_tail_terms(self):
        ctx = ctx_xyz()
        lex = MonomialOrder.lex(ctx)
        # lead z^3 is irreducible but the tail term x*y is not
        f = P("z^3 + x*y", ctx, lex)
        assert normal_form(f, [P("x*y - z", ctx, lex)]) == P("z^3 + z", ctx, lex)

    def test_divisor_context_mismatch(self):
        ctx = ctx_xyz()
        lex = MonomialOrder.lex(ctx)
        other = ctx_n(3)
        with pytest.raises(ContextMismatchError, match="different ring context"):
            normal_form(P("x", ctx, lex), [P("x1", other, MonomialOrder.lex(other))])

    def test_remainder_is_irreducible(self):
        rng = random.Random(37)
        ctx = ctx_xyz()
        drl = MonomialOrder.degrevlex(ctx)
        for _ in range(60):
            divisors = [random_poly(rng, ctx, drl) for _ in range(2)]
            divisors = [d for d in divisors if not d.is_zero()]
            f = random_poly(rng, ctx, drl, 5, 5)
            r = normal_form(f, divisors)
            for m, _ in r.terms:
                assert not any(d.leading_monomial().divides(m) for d in divisors)


def division_orders(ctx):
    """Every order kind on three variables, some with shuffled permutations."""
    return [
        MonomialOrder.lex(ctx),
        MonomialOrder.lex(ctx, perm=(2, 0, 1)),
        MonomialOrder.degrevlex(ctx),
        MonomialOrder.degrevlex(ctx, perm=(1, 2, 0)),
        MonomialOrder.weighted(ctx, [(1, 2, 1)]),
        MonomialOrder.matrix(ctx, [(1, 1, 1), (0, 0, -1), (0, -1, 0)]),
    ]


def ref_normal_form(f, divisors, order):
    """The first-divisor division of ``conftest``, on inputs converted to ``order``."""
    nonzero = [g.with_order(order) for g in divisors if not g.is_zero()]
    return _ref_reduce(f.with_order(order), nonzero)


class TestDivisionOracle:
    @pytest.mark.parametrize("field", [QQ, PrimeField(2), PrimeField(3)], ids=str)
    def test_matches_first_divisor_reference(self, field):
        """Divisor lists that are not Groebner bases, so the remainder depends on
        which divisor acts first; inputs often carry an order other than the one
        dividing, and some divisors are zero."""
        rng = random.Random(59 + field.characteristic())
        ctx = ctx_xyz(field)
        orders = division_orders(ctx)
        list_order_matters = cancelled = 0
        for trial in range(200):
            order = orders[trial % len(orders)]
            divisors = [
                random_poly(rng, ctx, rng.choice(orders), 3, 2) for _ in range(rng.randint(2, 3))
            ]
            if trial % 4 == 0:
                divisors.insert(rng.randrange(len(divisors) + 1), Polynomial.zero(ctx, order))
            f = random_poly(rng, ctx, rng.choice(orders), 6, 4)
            first = divisors[0]
            if trial % 5 == 0 and not first.is_zero():
                # a multiple of the first divisor cancels completely in one step
                f = ref_times_term(first, random_monomial(rng, ctx.n, 2), rng.choice([1, 2]))
            got = normal_form(f, divisors, order)
            want = ref_normal_form(f, divisors, order)
            assert got.order == order and got.terms == want.terms, (f, divisors, order)
            if trial % 5 == 0 and not first.is_zero():
                assert got.is_zero()
                cancelled += 1
            if got != normal_form(f, divisors[::-1], order):
                list_order_matters += 1
        assert cancelled >= 20
        assert list_order_matters >= 10

    def test_s_polynomial_matches_generic_arithmetic(self):
        rng = random.Random(67)
        for field in (QQ, PrimeField(2), PrimeField(3)):
            ctx = ctx_xyz(field)
            orders = division_orders(ctx)
            for trial in range(60):
                f = random_poly(rng, ctx, orders[trial % len(orders)], 4, 3)
                g = random_poly(rng, ctx, rng.choice(orders), 4, 3)
                if f.is_zero() or g.is_zero():
                    continue
                want = ref_s_polynomial(ref_monic_poly(f), ref_monic_poly(g.with_order(f.order)))
                got = s_polynomial(f, g)
                assert got.order == f.order and got.terms == want.terms


class TestSPolynomial:
    def test_frozen_minor_pair(self, minors):
        ctx, drl, gens, _ = minors
        s = s_polynomial(gens[0], gens[1])
        assert s.render() == "-x1*x3*x5 + x1*x2*x6"
        assert normal_form(s, [gens[2]]).is_zero()

    def test_self_pair_vanishes(self, twisted):
        ctx, lex, gens, _ = twisted
        assert s_polynomial(gens[0], gens[0]).is_zero()

    def test_coprime_leads_reduce_to_zero(self):
        ctx = ctx_xyz()
        lex = MonomialOrder.lex(ctx)
        f, g = P("x*y - 1", ctx, lex), P("z^2 - 1", ctx, lex)
        s = s_polynomial(f, g)
        assert normal_form(s, [f, g]).is_zero()

    def test_ignores_input_scaling(self, twisted):
        ctx, lex, gens, _ = twisted
        assert s_polynomial(3 * gens[0], gens[1] * Fraction(-1, 2)) == s_polynomial(
            gens[0], gens[1]
        )

    def test_context_mismatch(self):
        ctx, other = ctx_xyz(), ctx_n(3)
        with pytest.raises(ContextMismatchError):
            s_polynomial(
                P("x", ctx, MonomialOrder.lex(ctx)),
                P("x1", other, MonomialOrder.lex(other)),
            )


class TestBuchbergerFrozen:
    def test_principal_ideal(self):
        ctx = ctx_xyz()
        lex = MonomialOrder.lex(ctx)
        B = buchberger([P("x*y*z + y^3 + z^3", ctx, lex)], lex)
        assert B.render_polys() == ("x*y*z + y^3 + z^3",)

    def test_twisted_cubic_lex(self, twisted):
        ctx, lex, gens, B = twisted
        assert B.render_polys() == (
            "x^2 - y*z",
            "x*y - z^2",
            "x*z^2 - y^2*z",
            "y^3*z - z^4",
        )

    def test_minors_already_a_basis(self, minors):
        ctx, drl, gens, B = minors
        assert set(B.polys) == set(ref_monic_poly(g) for g in gens)
        assert initial_ideal(B).render_gens() == ("x3*x5", "x3*x4", "x2*x4")

    def test_linear_pair(self):
        ctx = standard_context(("x", "y"))
        lex = MonomialOrder.lex(ctx)
        B = buchberger([P("x", ctx, lex), P("x + y", ctx, lex)], lex)
        assert B.render_polys() == ("x", "y")

    def test_zero_ideal(self):
        ctx = ctx_xyz()
        lex = MonomialOrder.lex(ctx)
        for gens in ([], [Polynomial.zero(ctx, lex)]):
            B = buchberger(gens, lex)
            assert B.is_proper()
            assert B.polys == ()
        assert initial_ideal(buchberger([], lex)).is_zero()

    def test_unit_ideal(self):
        ctx = ctx_xyz()
        lex = MonomialOrder.lex(ctx)
        B = buchberger([P("x + 1", ctx, lex), P("x", ctx, lex)], lex)
        assert not B.is_proper()
        assert B.render_polys() == ("1",)

    def test_initial_ideal_frozen(self, twisted):
        ctx, lex, gens, B = twisted
        M = initial_ideal(B)
        assert M.render_gens() == ("x*y", "x^2", "x*z^2", "y^3*z")
        assert not M.is_squarefree()

    def test_membership_frozen(self, twisted):
        ctx, lex, gens, B = twisted
        assert B.normal_form(P("y^3*z - z^4", ctx, lex)).is_zero()
        assert B.normal_form(P("(x^2 - y*z)*(x + y) - (x*y - z^2)*z", ctx, lex)).is_zero()
        assert not B.normal_form(P("x", ctx, lex)).is_zero()
        assert not B.normal_form(P("1", ctx, lex)).is_zero()


class TestBuchbergerProperties:
    def test_matches_criterion_free_reference(self):
        rng = random.Random(41)
        ctx = ctx_xyz()
        checked = 0
        for _ in range(40):
            order = rng.choice(
                [MonomialOrder.lex(ctx), MonomialOrder.degrevlex(ctx)]
            )
            gens = [random_poly(rng, ctx, order, 3, 3) for _ in range(2)]
            try:
                B = buchberger(gens, order, degree_cap=12)
            except DegreeCapExceeded:
                continue
            got = sorted(m.exps for m in initial_ideal(B).gens)
            assert got == ref_initial_monomials(gens, order)
            checked += 1
        assert checked >= 25

    def test_output_is_a_groebner_basis(self, twisted, minors):
        for fixture in (twisted, minors):
            _, order, _, B = fixture
            polys = list(B.polys)
            for i in range(len(polys)):
                for j in range(i):
                    s = s_polynomial(polys[i], polys[j])
                    assert normal_form(s, polys).is_zero()

    def test_reduced_basis_shape(self):
        """Monic, pairwise irreducible, sorted descending by leading monomial."""
        rng = random.Random(43)
        ctx = ctx_xyz()
        seen = 0
        for _ in range(30):
            order = rng.choice([MonomialOrder.lex(ctx), MonomialOrder.degrevlex(ctx)])
            gens = [random_poly(rng, ctx, order, 3, 3) for _ in range(2)]
            try:
                B = buchberger(gens, order, degree_cap=12)
            except DegreeCapExceeded:
                continue
            polys = list(B.polys)
            leads = [g.leading_monomial() for g in polys]
            for k, g in enumerate(polys):
                assert g.leading_coefficient() == ctx.field.one
                others = [h for h in polys if h is not g]
                for m, _ in g.terms:
                    assert not any(h.leading_monomial().divides(m) for h in others)
                if k:
                    assert order.sort_key(leads[k - 1]) > order.sort_key(leads[k])
            seen += 1
        assert seen >= 20

    def test_canonical_under_presentation_changes(self, twisted):
        ctx, lex, gens, B = twisted
        rng = random.Random(47)
        for _ in range(10):
            shuffled = list(gens)
            rng.shuffle(shuffled)
            scaled = [g * Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.choice([1, 2, 5])) for g in shuffled]
            assert buchberger(scaled, lex).polys == B.polys
        assert buchberger(gens, lex, strategy="fifo").polys == B.polys

    def test_same_ideal_same_basis(self, twisted):
        ctx, lex, gens, B = twisted
        f, g = gens
        assert buchberger([f + g, f - g], lex).polys == B.polys

    def test_confluence_against_random_paths(self, twisted):
        ctx, lex, gens, B = twisted
        rng = random.Random(53)
        for _ in range(80):
            f = random_poly(rng, ctx, lex, 5, 5)
            assert random_path_reduce(rng, f, list(B.polys)) == normal_form(
                f, list(B.polys)
            )

    def test_gf_coefficients(self):
        ctx = ctx_xyz(PrimeField(7))
        lex = MonomialOrder.lex(ctx)
        gens = [P("x^2 - y*z", ctx, lex), P("x*y - z^2", ctx, lex)]
        B = buchberger(gens, lex)
        assert B.render_polys() == (
            "x^2 + 6*y*z",
            "x*y + 6*z^2",
            "x*z^2 + 6*y^2*z",
            "y^3*z + 6*z^4",
        )

    def test_degree_cap(self, twisted):
        ctx, lex, gens, _ = twisted
        with pytest.raises(DegreeCapExceeded):
            buchberger(gens, lex, degree_cap=3)
        # the run must consider one degree-5 S-pair lcm, so 5 is the threshold
        with pytest.raises(DegreeCapExceeded):
            buchberger(gens, lex, degree_cap=4)
        assert buchberger(gens, lex, degree_cap=5).polys == buchberger(gens, lex).polys

    def test_exponent_overflow_is_an_error(self):
        """The S-pair of x^2 - y^(2^31-1) and x*y - 1 holds y^(2^31): past the
        range of a ``Monomial``, under either strategy, whatever the cap."""
        ctx = standard_context(("x", "y"))
        lex = MonomialOrder.lex(ctx)
        f = Polynomial(ctx, lex, [(Monomial((2, 0)), 1), (Monomial((0, 2**31 - 1)), -1)])
        g = P("x*y - 1", ctx, lex)
        for strategy in ("normal", "fifo"):
            with pytest.raises(OverflowError, match="out of 32-bit range"):
                buchberger([f, g], lex, strategy=strategy)

    def test_each_pair_is_ranked_once(self, minors, twisted, monkeypatch):
        """One rank per pair made, not one per pending pair at every selection.

        Three spies: the heap sees each pair ``(rank, i, j, lcm)`` pushed; the
        order's key sees each tuple it ranks; and a division of an S-pair's
        terms with a nonzero remainder counts one element added to the basis.
        With t = generators + those remainders, a run pushes exactly the
        t(t-1)/2 pairs i < j < t, once each, and ranks each of their lcms
        once: by the key under ``normal``, by creation under ``fifo``.
        """
        pushed, keyed, s_pairs, grown = [], [], [], []
        real_push, real_s_pair, real_divide = (
            groebner_module.heapq.heappush, groebner_module._s_pair, groebner_module._divide
        )

        def s_pair_spy(*args):
            s_pairs.append(real_s_pair(*args))
            return s_pairs[-1]

        def divide_spy(live, table, key):
            r = real_divide(live, table, key)
            if r and any(live is s for s in s_pairs):
                grown.append(r)
            return r

        monkeypatch.setattr(groebner_module.heapq, "heappush", lambda h, item: pushed.append(item) or real_push(h, item))
        monkeypatch.setattr(groebner_module, "_s_pair", s_pair_spy)
        monkeypatch.setattr(groebner_module, "_divide", divide_spy)
        rng = random.Random(71)
        most_grown = 0
        for ctx, _, gens, _ in (minors, twisted):
            for _ in range(12):
                perm = list(range(ctx.n))
                rng.shuffle(perm)
                kind = rng.choice(["lex", "degrevlex"])
                for strategy in ("normal", "fifo"):
                    for spied in (pushed, keyed, s_pairs, grown):
                        spied.clear()
                    order = MonomialOrder(kind, ctx, perm=tuple(perm))
                    real_key = order.exps_key
                    object.__setattr__(order, "exps_key", lambda e: keyed.append(e) or real_key(e))
                    buchberger(gens, order, strategy=strategy)
                    t = len(gens) + len(grown)
                    assert sorted(item[1:3] for item in pushed) == list(itertools.combinations(range(t), 2))
                    lcms = {id(item[3]) for item in pushed}  # pushed and keyed hold them, so ids stay unique
                    ranked = sum(id(e) in lcms for e in keyed)
                    if strategy == "normal":
                        assert ranked == len(pushed)
                    else:
                        assert ranked == 0
                        assert [item[0] for item in pushed] == list(range(len(pushed)))
                    most_grown = max(most_grown, len(grown))
        assert most_grown >= 2  # some runs add S-remainders to the basis

    def test_unknown_strategy(self, twisted):
        ctx, lex, gens, _ = twisted
        with pytest.raises(ValueError, match="unknown strategy 'sugar'"):
            buchberger(gens, lex, strategy="sugar")


class TestMonomialIdeal:
    def test_minimalization_and_sorting(self):
        ctx = ctx_xyz()
        M = MonomialIdeal.from_monomials(
            ctx, [Monomial((2, 1, 0)), Monomial((1, 1, 0)), Monomial((0, 0, 3))]
        )
        assert M.render_gens() == ("x*y", "z^3")

    def test_contains(self):
        ctx = ctx_xyz()
        M = MonomialIdeal.from_monomials(ctx, [Monomial((1, 1, 0))])
        assert M.contains(Monomial((2, 1, 1)))
        assert not M.contains(Monomial((1, 0, 5)))

    def test_squarefree_zero_same(self):
        ctx = ctx_xyz()
        sq = MonomialIdeal.from_monomials(ctx, [Monomial((1, 1, 0))])
        assert sq.is_squarefree() and not sq.is_zero()
        nsq = MonomialIdeal.from_monomials(ctx, [Monomial((2, 0, 0))])
        assert not nsq.is_squarefree()
        zero = MonomialIdeal.from_monomials(ctx, [])
        assert zero.is_zero() and zero.is_squarefree()
        assert sq == MonomialIdeal.from_monomials(ctx, [Monomial((1, 1, 0)), Monomial((1, 2, 0))])
        assert sq != nsq


class TestGroebnerBasisContainer:
    def test_accessors(self, twisted):
        ctx, lex, gens, B = twisted
        assert B.leading_monomials() == tuple(g.leading_monomial() for g in B.polys)
        assert B.normal_form(P("x^2", ctx, lex)) == P("y*z", ctx, lex)
        assert B.polys
        assert B.is_proper()

    def test_pickle(self, minors):
        _, _, _, B = minors
        back = pickle.loads(pickle.dumps(B))
        assert back == B
        assert back.render_polys() == B.render_polys()


def cone_points(B):
    """``property_report(Δ).cone_points`` for B's square-free initial ideal,
    checked against the generators: vertex i+1 is a cone point exactly when
    x_i divides no minimal generator of in(I)."""
    M = initial_ideal(B)
    points = property_report(complex_from_squarefree_ideal(M)).cone_points
    assert points == tuple(i + 1 for i in range(B.ctx.n) if all(g.exps[i] == 0 for g in M.gens))
    return points


class TestVariableRegular:
    """The elimination oracle ``ref_is_variable_regular``."""

    def test_minors_quotient_is_a_domain(self, minors):
        # every variable is regular mod the minors ideal, but only the two
        # vertices lying in all facets of the degeneration are cone points
        _, _, _, B = minors
        for i in range(6):
            assert ref_is_variable_regular(B, i)
        assert cone_points(B) == (1, 6)

    def test_small_monomial_cases(self):
        ctx = standard_context(("x", "y"))
        lex = MonomialOrder.lex(ctx)
        assert not ref_is_variable_regular(buchberger([P("x*y", ctx, lex)], lex), 0)
        assert ref_is_variable_regular(buchberger([P("y", ctx, lex)], lex), 0)
        assert ref_is_variable_regular(buchberger([], lex), 0)

    def test_variable_in_ideal_not_regular(self):
        ctx = standard_context(("x", "y"))
        lex = MonomialOrder.lex(ctx)
        assert not ref_is_variable_regular(buchberger([P("x", ctx, lex)], lex), 0)

    def test_matches_cone_points_on_stanley_reisner_ideals(self):
        """For a face ideal, x_v is regular exactly when v lies in every facet."""
        rng = random.Random(59)
        for _ in range(25):
            n = rng.randint(2, 5)
            delta = random_complex(rng, n)
            ideal = to_ideal(delta)
            ctx = ideal.ctx
            drl = MonomialOrder.degrevlex(ctx)
            gens = [
                Polynomial(ctx, drl, [(m, 1)]) for m in ideal.gens
            ]
            B = buchberger(gens, drl)
            points = cone_points(B)
            for v in range(1, n + 1):
                expected = all(v in f for f in delta.facets)
                assert ref_is_variable_regular(B, v - 1) == expected, (
                    delta.render(),
                    v,
                )
                assert (v in points) == expected


class TestConePointCertificate:
    """The cone-point certificate, as ``property_report(Δ).cone_points``."""

    def test_frozen(self, minors):
        _, _, _, B = minors
        assert cone_points(B) == (1, 6)

    def test_triangle_has_no_cone_point(self):
        ctx = ctx_xyz()
        lex = MonomialOrder.lex(ctx)
        B = buchberger([P("x*y*z", ctx, lex)], lex)
        assert cone_points(B) == ()

    def test_zero_ideal_every_variable(self):
        ctx = ctx_xyz()
        B = buchberger([], MonomialOrder.lex(ctx))
        assert cone_points(B) == (1, 2, 3)
