"""Field layer: GF(p) arithmetic, coercion rules, primality, parsing."""

import pickle
import random
from fractions import Fraction

import pytest

from grodeg import (
    FieldMismatchError,
    GFElement,
    ParseError,
    PrimeField,
    QQ,
    RationalField,
    field_from_string,
    is_prime,
)


def test_is_prime_spot_checks():
    primes = [2, 3, 5, 7, 11, 13, 101, 7919, 2147483647]
    composites = [0, 1, 4, 9, 15, 91, 561, 1105, 2147483647 * 3]
    for n in primes:
        assert is_prime(n)
    for n in composites:
        assert not is_prime(n)
    assert not is_prime(-7)


@pytest.mark.parametrize("n", [
    341550071728321,  # 10670053 * 32010157, a strong pseudoprime to the bases 2..17
    3825123056546413051,  # 149491 * 747451 * 34233211, a strong pseudoprime to the bases 2..23
])
def test_is_prime_refuses_strong_pseudoprimes(n):
    assert not is_prime(n)
    with pytest.raises(ParseError, match="GF modulus must be prime"):
        field_from_string(f"GF({n})")


def test_is_prime_agrees_with_trial_division():
    def trial(n):
        if n < 2:
            return False
        d = 2
        while d * d <= n:
            if n % d == 0:
                return False
            d += 1
        return True

    for n in range(-5, 2000):
        assert is_prime(n) == trial(n), n


class TestGFElement:
    def test_constructor_reduces(self):
        assert GFElement(7, 10).v == 3
        assert GFElement(7, -1).v == 6

    def test_field_axioms_exhaustive_small_prime(self):
        p = 7
        els = [GFElement(p, v) for v in range(p)]
        zero, one = GFElement(p, 0), GFElement(p, 1)
        for a in els:
            assert a + zero == a
            assert a * one == a
            assert a + (-a) == zero
            if a != zero:
                assert a * (one / a) == one
            for b in els:
                assert a + b == b + a
                assert a * b == b * a
                for c in els:
                    assert (a + b) * c == a * c + b * c

    def test_arithmetic_matches_integers(self):
        rng = random.Random(5)
        for _ in range(200):
            p = rng.choice([2, 3, 5, 11, 101])
            x, y = rng.randrange(100), rng.randrange(100)
            assert (GFElement(p, x) + GFElement(p, y)).v == (x + y) % p
            assert (GFElement(p, x) - GFElement(p, y)).v == (x - y) % p
            assert (GFElement(p, x) * GFElement(p, y)).v == (x * y) % p

    def test_int_mixing(self):
        a = GFElement(5, 3)
        assert a + 4 == GFElement(5, 2)
        assert 4 + a == GFElement(5, 2)
        assert a * 2 == GFElement(5, 1)
        assert 2 - a == GFElement(5, 4)
        assert a == 3
        assert a == 8
        assert a != 4

    def test_division(self):
        a, b = GFElement(11, 7), GFElement(11, 3)
        assert (a / b) * b == a
        assert (1 / b) * b == GFElement(11, 1)
        with pytest.raises(ZeroDivisionError, match=r"division by zero in GF\(11\)"):
            a / GFElement(11, 0)
        with pytest.raises(ZeroDivisionError):
            3 / GFElement(11, 0)

    def test_negative_power_is_inverse_power(self):
        a = GFElement(13, 5)
        assert a ** -1 * a == GFElement(13, 1)
        assert a ** -3 == (a ** 3) ** -1
        assert a ** 0 == GFElement(13, 1)

    def test_mismatched_primes_refused(self):
        with pytest.raises(FieldMismatchError, match=r"GF\(5\) vs GF\(7\)"):
            GFElement(5, 1) + GFElement(7, 1)
        with pytest.raises(FieldMismatchError):
            GFElement(5, 1) * GFElement(7, 1)

    def test_fraction_operand_refused(self):
        with pytest.raises(FieldMismatchError):
            GFElement(5, 1) + Fraction(1, 2)

    def test_bool_hash_repr(self):
        assert not GFElement(5, 0)
        assert GFElement(5, 2)
        assert hash(GFElement(5, 7)) == hash(GFElement(5, 2))
        assert repr(GFElement(5, 2)) == "GF(5)[2]"

    def test_immutable(self):
        a = GFElement(5, 2)
        with pytest.raises(AttributeError):
            a.v = 3

    def test_pickle_round_trip(self):
        a = GFElement(101, 42)
        b = pickle.loads(pickle.dumps(a))
        assert b == a and b.p == 101 and b.v == 42


class TestFields:
    def test_qq_of(self):
        assert QQ.of(3) == Fraction(3)
        assert QQ.of(Fraction(2, 4)) == Fraction(1, 2)
        assert QQ.zero == 0 and QQ.one == 1
        assert QQ.characteristic() == 0
        assert QQ.render() == "QQ"
        assert QQ.render_scalar(Fraction(-3, 7)) == "-3/7"
        assert QQ.render_scalar(Fraction(4)) == "4"

    def test_qq_rejects_gf(self):
        with pytest.raises(FieldMismatchError):
            QQ.of(GFElement(5, 1))
        with pytest.raises(FieldMismatchError):
            QQ.of(1.5)

    def test_prime_field_of(self):
        F = PrimeField(7)
        assert F.of(10) == GFElement(7, 3)
        assert F.of(Fraction(1, 2)) == GFElement(7, 4)
        assert F.of(GFElement(7, 3)) == GFElement(7, 3)
        assert F.characteristic() == 7
        assert F.render() == "GF(7)"
        assert F.render_scalar(F.of(-1)) == "6"

    def test_prime_field_bad_modulus(self):
        with pytest.raises(ValueError, match="GF modulus must be prime, got 6"):
            PrimeField(6)
        with pytest.raises(ValueError, match="must be prime"):
            PrimeField(1)
        with pytest.raises(ValueError, match="< 2\\^31"):
            PrimeField(2147483659)  # prime, but too large

    def test_prime_field_bad_denominator(self):
        F = PrimeField(7)
        with pytest.raises(FieldMismatchError, match="denominator of 1/7 vanishes"):
            F.of(Fraction(1, 7))
        assert F.of(Fraction(7, 2)) == GFElement(7, 0)

    def test_prime_field_rejects_other_prime(self):
        with pytest.raises(FieldMismatchError, match=r"GF\(5\) element given to GF\(7\)"):
            PrimeField(7).of(GFElement(5, 1))

    def test_field_equality_and_singleton(self):
        assert PrimeField(7) == PrimeField(7)
        assert PrimeField(7) != PrimeField(11)
        assert QQ == RationalField()
        assert QQ != PrimeField(7)


class TestFieldFromString:
    def test_accepts(self):
        assert field_from_string("QQ") == QQ
        assert field_from_string("GF(7)") == PrimeField(7)
        assert field_from_string(" GF( 101 ) ") == PrimeField(101)

    def test_rejects(self):
        with pytest.raises(ParseError, match="must be prime"):
            field_from_string("GF(4)")
        with pytest.raises(ParseError, match="bad GF modulus 'x'"):
            field_from_string("GF(x)")
        with pytest.raises(ParseError, match="unknown field spec 'RR'"):
            field_from_string("RR")
        with pytest.raises(ParseError):
            field_from_string("GF(2147483659)")
