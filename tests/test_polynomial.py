"""Polynomial core: parsing, rendering, arithmetic, structural queries."""

import pickle
import random
from fractions import Fraction
from math import comb

import pytest

from grodeg import (
    ContextMismatchError,
    Monomial,
    MonomialOrder,
    ParseError,
    Polynomial,
    PrimeField,
    RingContext,
    parse_polynomial,
    standard_context,
)

from grodeg.ring import MAX_TERM_PAIRS

from conftest import ctx_n, ctx_xyz, random_poly


def P(text, ctx, order):
    return parse_polynomial(text, ctx, order)


@pytest.fixture
def xyz():
    ctx = ctx_xyz()
    return ctx, MonomialOrder.lex(ctx)


class TestRingContext:
    def test_validation(self):
        with pytest.raises(ValueError, match="at least one variable"):
            standard_context(())
        with pytest.raises(ValueError, match="duplicate variable names"):
            standard_context(("x", "x"))
        with pytest.raises(ValueError, match="bad variable name '2x'"):
            standard_context(("2x",))
        with pytest.raises(ValueError, match="grading length"):
            RingContext(("x", "y"), (1,), ctx_xyz().field)
        with pytest.raises(ValueError, match="grading must be positive"):
            standard_context(("x",), grading=(0,))

    def test_render(self):
        assert ctx_xyz().render() == "QQ x,y,z"
        g = standard_context(("x", "y"), field=PrimeField(5), grading=(1, 2))
        assert g.render() == "GF(5) x,y grading 1,2"

    def test_index_of(self):
        ctx = ctx_xyz()
        assert ctx.index_of("y") == 1
        with pytest.raises(KeyError, match="unknown variable 'w'"):
            ctx.index_of("w")

    def test_render_monomial(self):
        ctx = ctx_xyz()
        assert ctx.render_monomial(Monomial((2, 0, 1))) == "x^2*z"
        assert ctx.render_monomial(Monomial((0, 0, 0))) == "1"


class TestMonomial:
    def test_basic_ops(self):
        a, b = Monomial((2, 1, 0)), Monomial((0, 1, 3))
        assert a.mul(b) == Monomial((2, 2, 3))
        assert a.lcm(b) == Monomial((2, 1, 3))
        assert not a.divides(b)
        assert a.divides(a.mul(b))
        assert a.mul(b).divide(b) == a
        assert a.pow(3) == Monomial((6, 3, 0))
        assert a.degree() == 3
        assert a.graded_degree((1, 2, 5)) == 4
        assert Monomial((1, 0, 1)).gcd_is_one(Monomial((0, 2, 0)))
        assert not a.gcd_is_one(b)
        assert a.support() == (0, 1)
        assert Monomial((1, 1, 0)).is_squarefree()
        assert not a.is_squarefree()
        assert Monomial.one(3).is_one()

    def test_overflow(self):
        with pytest.raises(OverflowError, match="out of 32-bit range"):
            Monomial((2**31,))
        big = Monomial((2**30,))
        with pytest.raises(OverflowError, match="overflow in monomial product"):
            big.mul(big)
        with pytest.raises(OverflowError, match="overflow in monomial power"):
            big.pow(2)
        with pytest.raises(OverflowError):
            Monomial((-1,))


class TestParsing:
    def test_frozen_parse_and_render(self, xyz):
        ctx, lex = xyz
        f = P("x*y*z + y^3 + z^3", ctx, lex)
        assert f.render() == "x*y*z + y^3 + z^3"
        g = P("x^2 - y*z", ctx, lex)
        assert g.render() == "x^2 - y*z"
        assert P("-x + 2*y - 3", ctx, lex).render() == "-x + 2*y - 3"
        assert P("x/2 - y/3", ctx, lex).render() == "1/2*x - 1/3*y"
        assert P("(x + y)^2", ctx, lex).render() == "x^2 + 2*x*y + y^2"
        assert P("x - x", ctx, lex).render() == "0"

    def test_round_trip_random(self, xyz):
        ctx, lex = xyz
        drl = MonomialOrder.degrevlex(ctx)
        rng = random.Random(3)
        for order in (lex, drl):
            for _ in range(150):
                f = random_poly(rng, ctx, order, 5, 5)
                assert P(f.render(), ctx, order) == f

    def test_gf_parse(self):
        ctx = ctx_xyz(PrimeField(5))
        drl = MonomialOrder.degrevlex(ctx)
        f = P("3*x + 7*y", ctx, drl)
        assert f.render() == "3*x + 2*y"
        assert P("x/2", ctx, drl).render() == "3*x"  # 2^-1 = 3 mod 5

    def test_errors_carry_position(self, xyz):
        ctx, lex = xyz
        with pytest.raises(ParseError, match=r"unknown variable 'q' \(line 1, column 5\)"):
            P("x + q", ctx, lex)
        with pytest.raises(ParseError, match=r"unexpected character '%'"):
            P("x % y", ctx, lex)
        with pytest.raises(ParseError, match="empty polynomial"):
            P("   ", ctx, lex)
        with pytest.raises(ParseError, match="division by zero"):
            P("x/0", ctx, lex)
        with pytest.raises(ParseError, match="only allowed by a nonzero constant"):
            P("x/y", ctx, lex)
        with pytest.raises(ParseError, match="exponent must be a nonnegative integer"):
            P("x^y", ctx, lex)
        with pytest.raises(ParseError, match=r"expected '\)'"):
            P("(x + y", ctx, lex)
        with pytest.raises(ParseError, match="unexpected end of input"):
            P("x +", ctx, lex)
        with pytest.raises(ParseError, match=r"unexpected '\)'"):
            P("x y", ctx, lex) if False else P(")", ctx, lex)

    @pytest.mark.parametrize(
        "text,column",
        [("3^4000000*x", 3), ("x + (3*y)^5000", 11), ("2^8193", 3), ("(1/2)^8193*x", 7), ("(2^64)^200", 8)],
    )
    def test_powers_with_huge_coefficients_are_refused_at_the_exponent(self, xyz, text, column):
        ctx, lex = xyz
        with pytest.raises(ParseError, match="power too large: a coefficient would pass 8192 bits") as exc:
            P(text, ctx, lex)
        assert exc.value.column == column

    def test_moderate_powers_still_parse(self, xyz):
        ctx, lex = xyz
        assert P("2^64*x", ctx, lex).terms[0][1] == 2**64
        assert P("2^8192", ctx, lex).terms[0][1] == 2**8192
        assert P("(1/2)^8192*x", ctx, lex).terms[0][1] == Fraction(1, 2**8192)
        assert P("x^100000", ctx, lex).render() == "x^100000"
        assert P("(-1)^100001*y", ctx, lex).render() == "-y"

    @pytest.mark.parametrize(
        "text,column,what",
        [
            ("(x+y+z)^300", 9, "power"),
            ("(x+y+z)^40", 9, "power"),
            ("x + (y+z)^2*(x+y+z)^60", 21, "power"),
            ("(x+y+z)^20*(x+y+z)^20", 11, "product"),
            ("(x+y+z)^10*(x+y+z)^10*(x+y+z)^10*(x+y+z)^10", 33, "product"),
        ],
    )
    def test_term_pair_work_is_bounded(self, xyz, text, column, what):
        ctx, lex = xyz
        with pytest.raises(ParseError, match=f"{what} too large: .* more than {MAX_TERM_PAIRS} pairs") as exc:
            P(text, ctx, lex)
        assert exc.value.column == column

    def test_large_powers_within_the_term_pair_bound_parse(self, xyz):
        ctx, lex = xyz
        f = P("(x+y)^200", ctx, lex)
        assert len(f.terms) == 201 and f.terms[100][1] == comb(200, 100)
        assert len(P("(x+y+z)^16*(x+y+z)^16", ctx, lex).terms) == comb(34, 2)

    def test_powers_over_gf_p_have_no_coefficient_bound(self):
        ctx = standard_context(("x", "y"), PrimeField(5))
        assert P("3^4000000*x", ctx, MonomialOrder.lex(ctx)).render() == "x"

    def test_no_implicit_multiplication(self, xyz):
        ctx, lex = xyz
        with pytest.raises(ParseError):
            P("2x", ctx, lex)
        with pytest.raises(ParseError):
            P("x y", ctx, lex)

    def test_line_and_column_offsets(self, xyz):
        ctx, lex = xyz
        with pytest.raises(ParseError) as exc:
            parse_polynomial("x + q", ctx, lex, line=2, col_offset=9)
        assert exc.value.line == 2
        assert exc.value.column == 14
        assert "line 2, column 14" in str(exc.value)


class TestArithmetic:
    def test_identities_random(self):
        rng = random.Random(29)
        for field in (None, PrimeField(5)):
            ctx = ctx_n(3, field)
            order = MonomialOrder.degrevlex(ctx)
            zero = Polynomial.zero(ctx, order)
            one = Polynomial.constant(ctx, order, 1)
            for _ in range(80):
                f = random_poly(rng, ctx, order)
                g = random_poly(rng, ctx, order)
                h = random_poly(rng, ctx, order)
                assert f + g == g + f
                assert f - f == zero
                assert f * one == f
                assert f * zero == zero
                assert (f + g) * h == f * h + g * h
                assert (f * g) * h == f * (g * h)
                assert f ** 2 == f * f
                assert -(-f) == f

    def test_scalar_mixing(self, xyz):
        ctx, lex = xyz
        f = P("x + y", ctx, lex)
        assert 2 * f == P("2*x + 2*y", ctx, lex)
        assert f * Fraction(1, 2) == P("x/2 + y/2", ctx, lex)
        assert f + 1 == P("x + y + 1", ctx, lex)
        assert 1 - f == P("1 - x - y", ctx, lex)

    def test_leading_terms_multiplicative(self):
        rng = random.Random(31)
        ctx = ctx_n(3)
        for order in (MonomialOrder.lex(ctx), MonomialOrder.degrevlex(ctx)):
            for _ in range(100):
                f = random_poly(rng, ctx, order)
                g = random_poly(rng, ctx, order)
                if f.is_zero() or g.is_zero():
                    continue
                lm, lc = (f * g).leading_term()
                assert lm == f.leading_monomial().mul(g.leading_monomial())
                assert lc == f.leading_coefficient() * g.leading_coefficient()

    @pytest.mark.parametrize("field", [None, PrimeField(3)])
    def test_power_equals_repeated_product(self, field):
        ctx = ctx_xyz(field)
        order = MonomialOrder.degrevlex(ctx)
        f = P("x + 2*y - z", ctx, order)
        product = Polynomial.constant(ctx, order, 1)
        for k in range(10):
            assert f ** k == product
            product = product * f

    def test_negative_power_rejected(self, xyz):
        ctx, lex = xyz
        with pytest.raises(ValueError, match="negative polynomial power"):
            P("x", ctx, lex) ** -1

    def test_context_mismatch(self, xyz):
        ctx, lex = xyz
        other = ctx_n(3)
        with pytest.raises(ContextMismatchError):
            P("x", ctx, lex) + P("x1", other, MonomialOrder.lex(other))
        with pytest.raises(ContextMismatchError, match="order belongs to a different"):
            Polynomial(ctx, MonomialOrder.lex(other), [])


class TestStructure:
    def test_leading_term_frozen(self, xyz):
        ctx, lex = xyz
        f = P("x*y*z + y^3 + z^3", ctx, lex)
        assert f.leading_term() == (Monomial((1, 1, 1)), Fraction(1))
        drl = MonomialOrder.degrevlex(ctx)
        assert f.with_order(drl).leading_monomial() == Monomial((0, 3, 0))
        ctx6 = ctx_n(6)
        drl6 = MonomialOrder.degrevlex(ctx6)
        minor = P("x1*x5 - x2*x4", ctx6, drl6)
        assert minor.leading_term() == (Monomial((0, 1, 0, 1, 0, 0)), Fraction(-1))

    def test_zero_polynomial(self, xyz):
        ctx, lex = xyz
        z = Polynomial.zero(ctx, lex)
        assert z.is_zero()
        assert z.graded_degree() is None
        assert z.is_homogeneous() == (True, None)
        assert z.render() == "0"
        with pytest.raises(ValueError, match="zero polynomial has no leading term"):
            z.leading_term()

    def test_monic_and_drop_leading(self, xyz):
        ctx, lex = xyz
        f = P("3*x^2 + 6*y", ctx, lex)
        g = f.monic()
        assert g == P("x^2 + 2*y", ctx, lex)
        assert g.monic() is g  # already monic: no copy
        assert f.drop_leading() == P("6*y", ctx, lex)

    def test_is_homogeneous(self, xyz):
        ctx, lex = xyz
        assert P("x^3 + y^3 + z^3", ctx, lex).is_homogeneous() == (True, 3)
        assert P("x + y^2", ctx, lex).is_homogeneous() == (False, None)
        wctx = standard_context(("x", "y"), grading=(2, 1))
        worder = MonomialOrder.degrevlex(wctx)
        assert P("x + y^2", wctx, worder).is_homogeneous() == (True, 2)

    def test_partial_derivative(self, xyz):
        ctx, lex = xyz
        f = P("x^3 + x*y*z", ctx, lex)
        assert f.partial_derivative(0) == P("3*x^2 + y*z", ctx, lex)
        assert f.partial_derivative(1) == P("x*z", ctx, lex)
        assert P("y^2", ctx, lex).partial_derivative(0).is_zero()
        gf3 = ctx_xyz(PrimeField(3))
        drl = MonomialOrder.degrevlex(gf3)
        assert P("x^3", gf3, drl).partial_derivative(0).is_zero()

    def test_evaluate(self, xyz):
        ctx, lex = xyz
        f = P("x*y*z + y^3 + z^3", ctx, lex)
        assert f.evaluate((1, 0, 0)) == 0
        assert f.evaluate((1, 1, 1)) == 3
        assert P("x^3 + y^3 + z^3", ctx, lex).evaluate((1, -1, 0)) == 0
        assert P("5", ctx, lex).evaluate((0, 0, 0)) == 5
        with pytest.raises(ValueError, match="point has 2 coordinates, ring has 3"):
            f.evaluate((1, 2))

    def test_with_order_preserves_terms(self, xyz):
        ctx, lex = xyz
        drl = MonomialOrder.degrevlex(ctx)
        f = P("x*y*z + y^3 + z^3", ctx, lex)
        g = f.with_order(drl)
        assert g == f  # equality ignores term order
        assert g.order == drl
        assert g.terms[0][0] == Monomial((0, 3, 0))
        assert f.with_order(lex) is f

    def test_graded_degree(self, xyz):
        ctx, lex = xyz
        assert P("x*y + z", ctx, lex).graded_degree() == 2
        wctx = standard_context(("x", "y"), grading=(3, 1))
        assert P("x + y^2", wctx, MonomialOrder.lex(wctx)).graded_degree() == 3

    def test_support_monomials(self, xyz):
        ctx, lex = xyz
        f = P("x*y*z + z^3", ctx, lex)
        assert f.support_monomials() == (Monomial((1, 1, 1)), Monomial((0, 0, 3)))

    def test_immutable_and_picklable(self, xyz):
        ctx, lex = xyz
        f = P("x^2 - y*z", ctx, lex)
        with pytest.raises(AttributeError):
            f.terms = ()
        g = pickle.loads(pickle.dumps(f))
        assert g == f and g.order == lex and g.render() == f.render()

    def test_hash_consistency(self, xyz):
        ctx, lex = xyz
        drl = MonomialOrder.degrevlex(ctx)
        f = P("x + y", ctx, lex)
        g = P("y + x", ctx, drl)
        assert f == g
        assert hash(f) == hash(g)
        assert len({f, g}) == 1
