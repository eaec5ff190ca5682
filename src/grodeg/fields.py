"""Exact coefficient fields: the rationals and prime fields GF(p).

Scalars are ordinary ``fractions.Fraction`` values over QQ (lowest terms,
positive denominator, both maintained by the stdlib) and ``GFElement``
residues over GF(p). Plain Python ints embed canonically into either field
and may be mixed freely; mixing the two fields, or two different primes,
raises ``FieldMismatchError``.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import FieldMismatchError, ParseError, clipped

MAX_PRIME = 2**31
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin with the primes 2..37 as witnesses, exact
    for every n < 3.18e23 (Sorenson & Webster 2015), so for every modulus of
    up to 20 digits."""
    if n < 2:
        return False
    for q in _WITNESSES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class GFElement:
    """A residue in GF(p). Immutable; arithmetic stays inside one prime."""

    __slots__ = ("p", "v")

    def __init__(self, p: int, v: int):
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "v", v % p)

    def __setattr__(self, *a):
        raise AttributeError("GFElement is immutable")

    def __getstate__(self):
        return (self.p, self.v)

    def __setstate__(self, state):
        object.__setattr__(self, "p", state[0])
        object.__setattr__(self, "v", state[1])

    def _coerce(self, other):
        if isinstance(other, GFElement):
            if other.p != self.p:
                raise FieldMismatchError(f"GF({self.p}) vs GF({other.p})")
            return other.v
        if isinstance(other, int):
            return other % self.p
        raise FieldMismatchError(
            f"cannot combine GF({self.p}) element with {type(other).__name__}"
        )

    def __add__(self, other):
        return GFElement(self.p, self.v + self._coerce(other))

    __radd__ = __add__

    def __sub__(self, other):
        return GFElement(self.p, self.v - self._coerce(other))

    def __rsub__(self, other):
        return GFElement(self.p, self._coerce(other) - self.v)

    def __mul__(self, other):
        return GFElement(self.p, self.v * self._coerce(other))

    __rmul__ = __mul__

    def __truediv__(self, other):
        w = self._coerce(other)
        if w == 0:
            raise ZeroDivisionError(f"division by zero in GF({self.p})")
        return GFElement(self.p, self.v * pow(w, self.p - 2, self.p))

    def __rtruediv__(self, other):
        if self.v == 0:
            raise ZeroDivisionError(f"division by zero in GF({self.p})")
        return GFElement(self.p, self._coerce(other) * pow(self.v, self.p - 2, self.p))

    def __pow__(self, e: int):
        if e < 0:
            return GFElement(self.p, 1) / self ** (-e)
        return GFElement(self.p, pow(self.v, e, self.p))

    def __neg__(self):
        return GFElement(self.p, -self.v)

    def __eq__(self, other):
        if isinstance(other, GFElement):
            return self.p == other.p and self.v == other.v
        if isinstance(other, int):
            return self.v == other % self.p
        return NotImplemented

    def __hash__(self):
        return hash((self.p, self.v))

    def __bool__(self):
        return self.v != 0

    def __repr__(self):
        return f"GF({self.p})[{self.v}]"


class Field:
    """Field descriptor: constructs, renders, and parses scalars."""

    def of(self, x):
        raise NotImplementedError

    @property
    def zero(self):
        return self.of(0)

    @property
    def one(self):
        return self.of(1)

    def characteristic(self) -> int:
        raise NotImplementedError

    def render(self) -> str:
        raise NotImplementedError

    def render_scalar(self, c) -> str:
        raise NotImplementedError

    def __repr__(self):
        return self.render()


class RationalField(Field):
    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def of(self, x):
        if isinstance(x, Fraction):
            return x
        if isinstance(x, int):
            return Fraction(x)
        if isinstance(x, GFElement):
            raise FieldMismatchError("GF element given where a rational was expected")
        raise FieldMismatchError(f"cannot coerce {type(x).__name__} into QQ")

    def characteristic(self) -> int:
        return 0

    def render(self) -> str:
        return "QQ"

    def render_scalar(self, c) -> str:
        return str(c)

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("QQ")


class PrimeField(Field):
    def __init__(self, p: int):
        if not isinstance(p, int) or not is_prime(p):
            raise ValueError(f"GF modulus must be prime, got {p!r}")
        if p >= MAX_PRIME:
            raise ValueError(f"GF modulus must be < 2^31, got {p}")
        self.p = p

    def of(self, x):
        if isinstance(x, GFElement):
            if x.p != self.p:
                raise FieldMismatchError(f"GF({x.p}) element given to GF({self.p})")
            return x
        if isinstance(x, int):
            return GFElement(self.p, x)
        if isinstance(x, Fraction):
            if x.denominator % self.p == 0:
                raise FieldMismatchError(
                    f"denominator of {x} vanishes in GF({self.p})"
                )
            return GFElement(self.p, x.numerator) / GFElement(self.p, x.denominator)
        raise FieldMismatchError(f"cannot coerce {type(x).__name__} into GF({self.p})")

    def characteristic(self) -> int:
        return self.p

    def render(self) -> str:
        return f"GF({self.p})"

    def render_scalar(self, c) -> str:
        return str(c.v if isinstance(c, GFElement) else c % self.p)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("GF", self.p))


QQ = RationalField()


def field_from_string(text: str) -> Field:
    """Parse a field spec: ``QQ`` or ``GF(p)``."""
    s = text.strip()
    if s == "QQ":
        return QQ
    if s.startswith("GF(") and s.endswith(")"):
        body = s[3:-1].strip()
        if not body.lstrip("-").isdigit() or len(body) > 20:  # int() refuses 4300 digits
            raise ParseError(f"bad GF modulus {clipped(body)!r}")
        try:
            return PrimeField(int(body))
        except ValueError as e:
            raise ParseError(str(e)) from None
    raise ParseError(f"unknown field spec {text!r} (expected QQ or GF(p))")
