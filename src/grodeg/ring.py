"""Polynomial ring core: contexts, monomials, monomial orders, polynomials.

A ``RingContext`` fixes variable names, a positive grading, and a coefficient
field. Monomials are bare exponent vectors; orders are first-class values
(permutation lex / degrevlex, weighted, matrix) validated at construction to
be total, multiplicative, and global. Each order compiles its sort key once,
at construction, into one function on exponent tuples (``exps_key``), so a
comparison costs one call with no dispatch on the kind. Polynomials keep
their term lists sorted strictly descending under an attached order;
changing the order is an explicit conversion.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from operator import itemgetter, le, mul, neg
from typing import Iterable, Optional, Tuple

from .errors import ContextMismatchError, ParseError
from .fields import Field, QQ
from .linalg import primitive_integers, rank_int

MAX_EXPONENT = 2**31
# A power over QQ whose leading coefficient would need more bits than this is
# refused by the parser; the bound keeps every such coefficient well inside the
# 4300 decimal digits Python prints by default.
MAX_COEFFICIENT_BITS = 2**13
# The parser multiplies out at most this many pairs of terms for one
# polynomial, so every line it accepts parses in well under a second.
MAX_TERM_PAIRS = 2**15


@dataclass(frozen=True)
class RingContext:
    """Variable names, positive integer grading, coefficient field.

    Each context keeps the text of every monomial it has rendered, keyed by
    exponent vector; the cache takes no part in equality or hashing.
    """

    names: Tuple[str, ...]
    grading: Tuple[int, ...]
    field: Field

    def __post_init__(self):
        if not self.names:
            raise ValueError("ring needs at least one variable")
        if len(set(self.names)) != len(self.names):
            raise ValueError("duplicate variable names")
        for name in self.names:
            if not re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", name):
                raise ValueError(f"bad variable name {name!r}")
        if len(self.grading) != len(self.names):
            raise ValueError("grading length must match variable count")
        if any(g < 1 for g in self.grading):
            raise ValueError("grading must be positive")
        object.__setattr__(self, "_monomial_text", {})

    @property
    def n(self) -> int:
        return len(self.names)

    def index_of(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise KeyError(f"unknown variable {name!r}") from None

    def render_monomial(self, m: "Monomial") -> str:
        text = self._monomial_text.get(m.exps)
        if text is None:
            parts = []
            for name, e in zip(self.names, m.exps):
                if e == 1:
                    parts.append(name)
                elif e > 1:
                    parts.append(f"{name}^{e}")
            text = self._monomial_text[m.exps] = "*".join(parts) if parts else "1"
        return text

    def render(self) -> str:
        base = f"{self.field.render()} {','.join(self.names)}"
        if any(g != 1 for g in self.grading):
            base += f" grading {','.join(str(g) for g in self.grading)}"
        return base


def standard_context(names, field=QQ, grading=None) -> RingContext:
    names = tuple(names)
    grading = tuple(grading) if grading is not None else (1,) * len(names)
    return RingContext(names, grading, field)


@dataclass(frozen=True)
class Monomial:
    """Exponent vector. Exponents are kept below 2^31; overflow is an error."""

    exps: Tuple[int, ...]

    def __post_init__(self):
        if any(e < 0 or e >= MAX_EXPONENT for e in self.exps):
            raise OverflowError("exponent out of 32-bit range")

    @staticmethod
    def one(n: int) -> "Monomial":
        return Monomial((0,) * n)

    @staticmethod
    def variable(i: int, n: int) -> "Monomial":
        return Monomial(tuple(1 if j == i else 0 for j in range(n)))

    def degree(self) -> int:
        return sum(self.exps)

    def graded_degree(self, grading) -> int:
        return sum(e * g for e, g in zip(self.exps, grading))

    def mul(self, other: "Monomial") -> "Monomial":
        out = tuple(a + b for a, b in zip(self.exps, other.exps))
        if any(e >= MAX_EXPONENT for e in out):
            raise OverflowError("exponent overflow in monomial product")
        return Monomial(out)

    def pow(self, k: int) -> "Monomial":
        if k < 0:
            raise ValueError("negative monomial power")
        out = tuple(e * k for e in self.exps)
        if any(e >= MAX_EXPONENT for e in out):
            raise OverflowError("exponent overflow in monomial power")
        return Monomial(out)

    def divides(self, other: "Monomial") -> bool:
        return all(map(le, self.exps, other.exps))

    def divide(self, other: "Monomial") -> "Monomial":
        """Quotient self / other; other must divide self."""
        if not other.divides(self):
            raise ValueError("inexact monomial division")
        return Monomial(tuple(a - b for a, b in zip(self.exps, other.exps)))

    def lcm(self, other: "Monomial") -> "Monomial":
        return Monomial(tuple(map(max, self.exps, other.exps)))

    def gcd_is_one(self, other: "Monomial") -> bool:
        return not any(map(mul, self.exps, other.exps))

    def support(self) -> Tuple[int, ...]:
        return tuple(i for i, e in enumerate(self.exps) if e > 0)

    def is_squarefree(self) -> bool:
        return all(e <= 1 for e in self.exps)

    def is_one(self) -> bool:
        return all(e == 0 for e in self.exps)


def _picker(idx):
    """``e -> tuple(e[i] for i in idx)`` as one C call (the identity needs no copy)."""
    if idx == tuple(range(len(idx))):
        return tuple
    return itemgetter(*idx)


class MonomialOrder:
    """A total, multiplicative, global monomial order over a fixed context.

    Kinds: ``lex`` and ``degrevlex`` (permutation based), ``weighted``
    (nonnegative weight rows, lex tiebreak), ``matrix`` (integer rows,
    validated injective and global). Bigger sort key means bigger monomial.

    The key is compiled once, when the order is built: ``exps_key`` maps a
    bare exponent tuple to its key with no branching on the kind, and
    ``sort_key`` applies it to a ``Monomial``. Pickling rebuilds the order
    from its kind, context, permutation and rows.
    """

    __slots__ = ("kind", "ctx", "perm", "rows", "exps_key")

    def __init__(self, kind, ctx, perm=None, rows=None):
        self.kind = kind
        self.ctx = ctx
        self.perm = perm
        self.rows = rows
        self._validate()
        self.exps_key = self._compile()

    def __reduce__(self):
        return (MonomialOrder, (self.kind, self.ctx, self.perm, self.rows))

    @classmethod
    def lex(cls, ctx: RingContext, perm=None) -> "MonomialOrder":
        return cls("lex", ctx, perm=tuple(perm) if perm else tuple(range(ctx.n)))

    @classmethod
    def degrevlex(cls, ctx: RingContext, perm=None) -> "MonomialOrder":
        return cls("degrevlex", ctx, perm=tuple(perm) if perm else tuple(range(ctx.n)))

    @classmethod
    def weighted(cls, ctx: RingContext, rows) -> "MonomialOrder":
        return cls("weighted", ctx, rows=tuple(tuple(r) for r in rows))

    @classmethod
    def matrix(cls, ctx: RingContext, rows) -> "MonomialOrder":
        return cls("matrix", ctx, rows=tuple(tuple(r) for r in rows))

    def _validate(self):
        n = self.ctx.n
        if self.kind in ("lex", "degrevlex"):
            if self.perm is None or sorted(self.perm) != list(range(n)):
                raise ValueError(f"{self.kind} order needs a permutation of all {n} variables")
        elif self.kind == "weighted":
            self._validate_rows(n)
            for row in self.rows:
                if any(w < 0 for w in row):
                    raise ValueError("weighted order rows must be nonnegative")
        elif self.kind == "matrix":
            self._validate_rows(n)
            if rank_int(self.rows) != n:
                raise ValueError("matrix order is not total: rows do not have full column rank")
            for i in range(n):
                col = [row[i] for row in self.rows]
                lead = next((x for x in col if x != 0), 0)
                if lead <= 0:
                    raise ValueError(
                        f"matrix order is not global: variable {self.ctx.names[i]} does not exceed 1"
                    )
        else:
            raise ValueError(f"unknown order kind {self.kind!r}")

    def _validate_rows(self, n):
        if not self.rows:
            raise ValueError(f"{self.kind} order needs at least one weight row")
        if any(len(row) != n for row in self.rows):
            raise ValueError("weight row length must match variable count")

    def _compile(self):
        """The key on exponent tuples: one closure per kind, chosen here and not per call."""
        if self.kind == "lex":
            return _picker(self.perm)
        if self.kind == "degrevlex":
            backwards = _picker(self.perm[::-1])
            g = self.ctx.grading
            if all(w == 1 for w in g):
                return lambda e: (sum(e), *map(neg, backwards(e)))
            return lambda e: (sum(map(mul, g, e)), *map(neg, backwards(e)))
        rows = self.rows
        if self.kind == "weighted":
            return lambda e: (*[sum(map(mul, r, e)) for r in rows], *e)
        return lambda e: tuple([sum(map(mul, r, e)) for r in rows])

    def sort_key(self, m: Monomial):
        return self.exps_key(m.exps)

    def compare(self, a: Monomial, b: Monomial) -> int:
        ka, kb = self.sort_key(a), self.sort_key(b)
        if ka < kb:
            return -1
        if ka > kb:
            return 1
        return 0

    def greatest_variable(self) -> int:
        """Index of the largest variable under this order."""
        n = self.ctx.n
        return max(range(n), key=lambda i: self.sort_key(Monomial.variable(i, n)))

    def smallest_variable(self) -> int:
        n = self.ctx.n
        return min(range(n), key=lambda i: self.sort_key(Monomial.variable(i, n)))

    def render(self) -> str:
        if self.kind in ("lex", "degrevlex"):
            chain = ">".join(self.ctx.names[i] for i in self.perm)
            return f"{self.kind} {chain}"
        rows = " ; ".join(",".join(str(w) for w in row) for row in self.rows)
        return f"{self.kind} {rows}"

    def __eq__(self, other):
        return (
            isinstance(other, MonomialOrder)
            and self.kind == other.kind
            and self.ctx == other.ctx
            and self.perm == other.perm
            and self.rows == other.rows
        )

    def __hash__(self):
        return hash((self.kind, self.ctx.names, self.perm, self.rows))

    def __repr__(self):
        return f"MonomialOrder({self.render()})"


class Polynomial:
    """Terms sorted strictly descending under the attached order."""

    __slots__ = ("ctx", "order", "terms")

    def __init__(self, ctx: RingContext, order: MonomialOrder, terms: Iterable):
        if order.ctx != ctx:
            raise ContextMismatchError("order belongs to a different ring context")
        combined = {}
        zero = ctx.field.zero
        for mono, coeff in terms:
            coeff = ctx.field.of(coeff)
            if mono in combined:
                combined[mono] = combined[mono] + coeff
            else:
                combined[mono] = coeff
        key = order.exps_key
        kept = [(m, c) for m, c in combined.items() if c != zero]
        kept.sort(key=lambda mc: key(mc[0].exps), reverse=True)
        object.__setattr__(self, "ctx", ctx)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "terms", tuple(kept))

    def __setattr__(self, *a):
        raise AttributeError("Polynomial is immutable")

    def __getstate__(self):
        return (self.ctx, self.order, self.terms)

    def __setstate__(self, state):
        object.__setattr__(self, "ctx", state[0])
        object.__setattr__(self, "order", state[1])
        object.__setattr__(self, "terms", state[2])

    @classmethod
    def _make(cls, ctx, order, sorted_terms) -> "Polynomial":
        """Trusted constructor: terms already combined, nonzero, sorted."""
        p = object.__new__(cls)
        object.__setattr__(p, "ctx", ctx)
        object.__setattr__(p, "order", order)
        object.__setattr__(p, "terms", tuple(sorted_terms))
        return p

    @classmethod
    def zero(cls, ctx, order) -> "Polynomial":
        return cls._make(ctx, order, ())

    @classmethod
    def constant(cls, ctx, order, c) -> "Polynomial":
        return cls(ctx, order, [(Monomial.one(ctx.n), c)])

    @classmethod
    def variable(cls, ctx, order, i) -> "Polynomial":
        return cls(ctx, order, [(Monomial.variable(i, ctx.n), 1)])

    def is_zero(self) -> bool:
        return not self.terms

    def leading_term(self):
        """(monomial, coefficient) of the order-largest term."""
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        return self.terms[0]

    def leading_monomial(self) -> Monomial:
        return self.leading_term()[0]

    def leading_coefficient(self):
        return self.leading_term()[1]

    def monic(self) -> "Polynomial":
        lm, lc = self.leading_term()
        if lc == self.ctx.field.one:
            return self
        return self._make(self.ctx, self.order, [(m, c / lc) for m, c in self.terms])

    def drop_leading(self) -> "Polynomial":
        return self._make(self.ctx, self.order, self.terms[1:])

    def _check(self, other):
        if self.ctx != other.ctx:
            raise ContextMismatchError("polynomials over different ring contexts")

    def __add__(self, other):
        if not isinstance(other, Polynomial):
            other = Polynomial.constant(self.ctx, self.order, other)
        self._check(other)
        return Polynomial(self.ctx, self.order, list(self.terms) + list(other.terms))

    __radd__ = __add__

    def __neg__(self):
        return self._make(self.ctx, self.order, [(m, -c) for m, c in self.terms])

    def __sub__(self, other):
        if not isinstance(other, Polynomial):
            other = Polynomial.constant(self.ctx, self.order, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, Polynomial):
            c = self.ctx.field.of(other)
            if c == self.ctx.field.zero:
                return Polynomial.zero(self.ctx, self.order)
            return self._make(self.ctx, self.order, [(m, k * c) for m, k in self.terms])
        self._check(other)
        acc = {}
        zero = self.ctx.field.zero
        for m1, c1 in self.terms:
            for m2, c2 in other.terms:
                m = m1.mul(m2)
                c = c1 * c2
                if m in acc:
                    acc[m] = acc[m] + c
                else:
                    acc[m] = c
        key = self.order.exps_key
        kept = [(m, c) for m, c in acc.items() if c != zero]
        kept.sort(key=lambda mc: key(mc[0].exps), reverse=True)
        return self._make(self.ctx, self.order, kept)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative polynomial power")
        return _power(self, k, mul)

    def times_term(self, mono: Monomial, coeff) -> "Polynomial":
        """Multiply by coeff * mono. Sort order is preserved (multiplicativity)."""
        coeff = self.ctx.field.of(coeff)
        if coeff == self.ctx.field.zero:
            return Polynomial.zero(self.ctx, self.order)
        return self._make(
            self.ctx, self.order, [(m.mul(mono), c * coeff) for m, c in self.terms]
        )

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.ctx == other.ctx and dict(self.terms) == dict(other.terms)

    def __hash__(self):
        return hash((self.ctx.names, frozenset(self.terms)))

    def graded_degree(self) -> Optional[int]:
        if not self.terms:
            return None
        g = self.ctx.grading
        return max(m.graded_degree(g) for m, _ in self.terms)

    def is_homogeneous(self):
        """(True, degree) when all terms share one graded degree; (True, None) for 0."""
        if not self.terms:
            return True, None
        g = self.ctx.grading
        degs = {m.graded_degree(g) for m, _ in self.terms}
        if len(degs) == 1:
            return True, degs.pop()
        return False, None

    def partial_derivative(self, i: int) -> "Polynomial":
        out = []
        for m, c in self.terms:
            e = m.exps[i]
            if e > 0:
                lowered = list(m.exps)
                lowered[i] = e - 1
                out.append((Monomial(tuple(lowered)), c * self.ctx.field.of(e)))
        return Polynomial(self.ctx, self.order, out)

    def evaluate(self, point):
        if len(point) != self.ctx.n:
            raise ValueError(f"point has {len(point)} coordinates, ring has {self.ctx.n}")
        coords = [self.ctx.field.of(x) for x in point]
        total = self.ctx.field.zero
        for m, c in self.terms:
            val = c
            for x, e in zip(coords, m.exps):
                if e:
                    val = val * x**e
            total = total + val
        return total

    def with_order(self, order: MonomialOrder) -> "Polynomial":
        if order is self.order or order == self.order:
            return self
        return Polynomial(self.ctx, order, self.terms)

    def support_monomials(self):
        return tuple(m for m, _ in self.terms)

    def integer_terms(self, p: int = 0):
        """The terms as ``(exponents, integer)`` pairs: residues over GF(p), and
        over QQ the coefficients cleared by ``primitive_integers``. With a prime
        ``p`` to reduce them by, a denominator that ``p`` divides raises."""
        if self.ctx.field.characteristic():
            return [(m.exps, c.v) for m, c in self.terms]
        ints = primitive_integers([c for _, c in self.terms], p)
        return [(m.exps, c) for (m, _), c in zip(self.terms, ints)]

    def render(self) -> str:
        if not self.terms:
            return "0"
        scalar, monomial = self.ctx.field.render_scalar, self.ctx.render_monomial
        out = []
        for m, c in self.terms:
            text = scalar(c)
            negative = text[0] == "-"
            mag = text[1:] if negative else text
            mono = monomial(m)  # "1" only for the constant monomial
            if mono == "1":
                body = mag
            elif mag == "1":
                body = mono
            else:
                body = mag + "*" + mono
            out.append(("- " if negative else "+ ") + body)
        first = out[0]
        out[0] = "-" + first[2:] if first[0] == "-" else first[2:]
        return " ".join(out)

    def __repr__(self):
        return f"Polynomial({self.render()})"


_TOKEN_RE = re.compile(r"\s*(?:(?P<int>\d+)|(?P<name>[A-Za-z_][A-Za-z0-9_]*)|(?P<op>[-+*/^()]))")


class _Tokenizer:
    def __init__(self, text: str, line: int = 1, col_offset: int = 0):
        self.text = text
        self.line = line
        self.col_offset = col_offset
        self.tokens = []
        self._scan()
        self.i = 0

    def _scan(self):
        pos = 0
        while pos < len(self.text):
            m = _TOKEN_RE.match(self.text, pos)
            if not m or m.end() == pos:
                stripped = self.text[pos:].lstrip()
                if not stripped:
                    break
                col = self.col_offset + len(self.text[:pos]) + len(self.text[pos:]) - len(stripped) + 1
                raise ParseError(f"unexpected character {stripped[0]!r}", self.line, col)
            kind = m.lastgroup
            value = m.group(kind)
            col = self.col_offset + m.start(kind) + 1
            self.tokens.append((kind, value, col))
            pos = m.end()
        self.tokens.append(("end", "", self.col_offset + len(self.text) + 1))

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok


class _PolyParser:
    """Recursive descent over + - * / ^ ( ); no implicit multiplication."""

    def __init__(self, tokens: _Tokenizer, ctx: RingContext, order: MonomialOrder):
        self.toks = tokens
        self.ctx = ctx
        self.order = order
        self.pairs = 0  # term pairs multiplied out so far

    def times(self, p: Polynomial, q: Polynomial, what: str, col: int) -> Polynomial:
        """p*q, counting its term pairs; past ``MAX_TERM_PAIRS`` it is a ParseError at ``col``."""
        self.pairs += len(p.terms) * len(q.terms)
        if self.pairs > MAX_TERM_PAIRS:
            message = f"{what} too large: the polynomial would multiply out more than {MAX_TERM_PAIRS} pairs of terms"
            raise ParseError(message, self.toks.line, col)
        return p * q

    def parse(self) -> Polynomial:
        p = self.expr()
        kind, value, col = self.toks.peek()
        if kind != "end":
            raise ParseError(f"unexpected {value!r}", self.toks.line, col)
        return p

    def expr(self) -> Polynomial:
        p = self.term()
        while True:
            kind, value, _ = self.toks.peek()
            if kind == "op" and value in "+-":
                self.toks.next()
                q = self.term()
                p = p + q if value == "+" else p - q
            else:
                return p

    def term(self) -> Polynomial:
        p = self.unary()
        while True:
            kind, value, col = self.toks.peek()
            if kind == "op" and value in "*/":
                self.toks.next()
                q = self.unary()
                if value == "*":
                    p = self.times(p, q, "product", col)
                else:
                    if q.terms and len(q.terms) == 1 and q.terms[0][0].is_one():
                        p = p * (self.ctx.field.one / q.terms[0][1])
                    elif q.is_zero():
                        raise ParseError("division by zero", self.toks.line, col)
                    else:
                        raise ParseError(
                            "division is only allowed by a nonzero constant",
                            self.toks.line,
                            col,
                        )
            else:
                return p

    def unary(self) -> Polynomial:
        kind, value, _ = self.toks.peek()
        if kind == "op" and value == "-":
            self.toks.next()
            return -self.unary()
        return self.power()

    def power(self) -> Polynomial:
        base = self.atom()
        kind, value, col = self.toks.peek()
        if kind == "op" and value == "^":
            self.toks.next()
            ekind, evalue, ecol = self.toks.next()
            if ekind != "int":
                raise ParseError("exponent must be a nonnegative integer", self.toks.line, ecol)
            k = int(evalue)
            if k >= MAX_EXPONENT:
                raise ParseError(f"exponent must be below {MAX_EXPONENT}", self.toks.line, ecol)
            if base.terms and not self.ctx.field.characteristic():
                # lc^k is the leading coefficient of base^k: its height is at most H^k
                c = base.terms[0][1]
                height = max(abs(c.numerator), c.denominator)
                if k * (height - 1).bit_length() > MAX_COEFFICIENT_BITS:
                    raise ParseError(
                        f"power too large: a coefficient would pass {MAX_COEFFICIENT_BITS} bits",
                        self.toks.line,
                        ecol,
                    )
            return _power(base, k, lambda a, b: self.times(a, b, "power", ecol))
        return base

    def atom(self) -> Polynomial:
        kind, value, col = self.toks.next()
        if kind == "int":
            return Polynomial.constant(self.ctx, self.order, int(value))
        if kind == "name":
            try:
                i = self.ctx.index_of(value)
            except KeyError:
                raise ParseError(f"unknown variable {value!r}", self.toks.line, col) from None
            return Polynomial.variable(self.ctx, self.order, i)
        if kind == "op" and value == "(":
            p = self.expr()
            ckind, cvalue, ccol = self.toks.next()
            if not (ckind == "op" and cvalue == ")"):
                raise ParseError("expected ')'", self.toks.line, ccol)
            return p
        if kind == "end":
            raise ParseError("unexpected end of input", self.toks.line, col)
        raise ParseError(f"unexpected {value!r}", self.toks.line, col)


def _power(base: Polynomial, k: int, times) -> Polynomial:
    """base^k by square and multiply, each product taken by ``times``."""
    result, square = Polynomial.constant(base.ctx, base.order, 1), base
    while k:
        if k & 1:
            result = times(result, square)
        k >>= 1
        if k:
            square = times(square, square)
    return result


def parse_polynomial(text: str, ctx: RingContext, order: MonomialOrder, *, line: int = 1, col_offset: int = 0) -> Polynomial:
    """Parse ``x*y*z + y^3 + z^3`` style text. Operators: + - * / ^ and parentheses.

    No implicit multiplication; ``/`` only with a nonzero constant divisor.
    An exponent of ``MAX_EXPONENT`` or more, or one that would take a rational
    coefficient past ``MAX_COEFFICIENT_BITS`` (height H to the k-th power
    counts k*ceil(log2 H) bits), is a ParseError at the exponent. So is a power
    or product that would take the term pairs multiplied out for the whole
    polynomial past ``MAX_TERM_PAIRS``, at the exponent or the ``*``. A product
    of exponents that overflows is a ParseError at the first character.
    """
    if not text.strip():
        raise ParseError("empty polynomial", line, col_offset + 1)
    try:
        return _PolyParser(_Tokenizer(text, line, col_offset), ctx, order).parse()
    except OverflowError as e:
        raise ParseError(str(e), line, col_offset + len(text) - len(text.lstrip()) + 1) from None
