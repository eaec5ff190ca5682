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

import math
import re
from operator import itemgetter, le, mul, neg
from typing import Iterable, Tuple

from .errors import ContextMismatchError, ParseError
from .fields import Field, QQ
from .linalg import primitive_integers, rank_int
from .records import Record

MAX_EXPONENT = 2**31
# A product, quotient or power over QQ with a coefficient of height above
# 2^MAX_COEFFICIENT_BITS is refused by the parser; the bound keeps every such
# coefficient well inside the 4300 decimal digits Python prints by default.
MAX_COEFFICIENT_BITS = 2**13
_LOG2_10 = math.log2(10)
# The parser multiplies out at most this many pairs of terms for one
# polynomial, so every line it accepts parses in well under a second.
MAX_TERM_PAIRS = 2**15


class RingContext(Record):
    """Variable names, positive integer grading, coefficient field.

    Each context keeps the text of every monomial it has rendered, keyed by
    exponent vector; the cache takes no part in equality or hashing.
    """

    def __init__(self, names: Tuple[str, ...], grading: Tuple[int, ...], field: Field):
        if not names:
            raise ValueError("ring needs at least one variable")
        if len(set(names)) != len(names):
            raise ValueError("duplicate variable names")
        for name in names:
            if not re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", name):
                raise ValueError(f"bad variable name {name!r}")
        if len(grading) != len(names):
            raise ValueError("grading length must match variable count")
        if any(g < 1 for g in grading):
            raise ValueError("grading must be positive")
        self.__dict__.update(names=names, grading=grading, field=field, _monomial_text={})

    @property
    def n(self) -> int:
        return len(self.names)

    @property
    def standard(self) -> bool:
        """Whether the grading is the standard one: every variable has degree 1."""
        return all(g == 1 for g in self.grading)

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
        if not self.standard:
            base += f" grading {','.join(str(g) for g in self.grading)}"
        return base


def standard_context(names, field=QQ, grading=None) -> RingContext:
    names = tuple(names)
    grading = tuple(grading) if grading is not None else (1,) * len(names)
    return RingContext(names, grading, field)


class Monomial(Record):
    """Exponent vector. Exponents are kept below 2^31; overflow is an error."""

    __slots__ = ("exps",)

    def __init__(self, exps: Tuple[int, ...]):
        if exps and (min(exps) < 0 or max(exps) >= MAX_EXPONENT):
            raise OverflowError("exponent out of 32-bit range")
        _set_exps(self, exps)

    def __eq__(self, other):
        if other.__class__ is not Monomial:
            return NotImplemented
        return self.exps == other.exps

    def __hash__(self):
        return hash((self.exps,))

    def __reduce__(self):
        return Monomial, (self.exps,)

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

    def support(self) -> Tuple[int, ...]:
        return tuple(i for i, e in enumerate(self.exps) if e > 0)

    def is_squarefree(self) -> bool:
        return all(e <= 1 for e in self.exps)

    def is_one(self) -> bool:
        return all(e == 0 for e in self.exps)


_set_exps = Monomial.exps.__set__  # the slot's own setter, past the refusing __setattr__

def _picker(idx):
    """``e -> tuple(e[i] for i in idx)`` as one C call (the identity needs no copy)."""
    if idx == tuple(range(len(idx))):
        return tuple
    return itemgetter(*idx)


def render_chain(kind: str, names, perm) -> str:
    """A permutation order as the job grammar writes it: ``lex x>z>y``."""
    # itemgetter of one index returns the name itself, not a 1-tuple
    return kind + " " + ">".join(itemgetter(*perm)(names) if perm[1:] else names)


def _term_text(scalar: str, monomial: str) -> str:
    """One term as ``Polynomial.render`` writes it after the first, from the
    texts of its coefficient and monomial: ``+ 3/2*x1*x4``, ``- x2^2``, ``+ 5``."""
    negative = scalar[0] == "-"
    mag = scalar[1:] if negative else scalar
    if monomial == "1":  # the constant monomial, and only it, renders as "1"
        body = mag
    elif mag == "1":
        body = monomial
    else:
        body = mag + "*" + monomial
    return ("- " if negative else "+ ") + body


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
            if self.ctx.standard:
                return lambda e: (sum(e), *map(neg, backwards(e)))
            g = self.ctx.grading
            return lambda e: (sum(map(mul, g, e)), *map(neg, backwards(e)))
        rows = self.rows
        if self.kind == "weighted":
            return lambda e: (*[sum(map(mul, r, e)) for r in rows], *e)
        return lambda e: tuple([sum(map(mul, r, e)) for r in rows])

    def sort_key(self, m: Monomial):
        return self.exps_key(m.exps)

    def variables_descending(self) -> Tuple[int, ...]:
        """The variable indices, largest first under this order."""
        n = self.ctx.n
        units = [tuple(int(i == j) for j in range(n)) for i in range(n)]
        return tuple(sorted(range(n), key=lambda i: self.exps_key(units[i]), reverse=True))

    def render(self) -> str:
        if self.kind in ("lex", "degrevlex"):
            return render_chain(self.kind, self.ctx.names, self.perm)
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

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.ctx == other.ctx and dict(self.terms) == dict(other.terms)

    def __hash__(self):
        return hash((self.ctx.names, frozenset(self.terms)))

    def is_homogeneous(self):
        """(True, degree) when all terms share one graded degree; (True, None) for 0."""
        if not self.terms:
            return True, None
        g = self.ctx.grading
        degs = {m.graded_degree(g) for m, _ in self.terms}
        if len(degs) == 1:
            return True, degs.pop()
        return False, None

    def with_order(self, order: MonomialOrder) -> "Polynomial":
        """The same terms under order: already combined field elements, only re-sorted."""
        if order is self.order or order == self.order:
            return self
        if order.ctx != self.ctx:
            raise ContextMismatchError("order belongs to a different ring context")
        key = order.exps_key
        terms = sorted(self.terms, key=lambda mc: key(mc[0].exps), reverse=True)
        return self._make(self.ctx, order, terms)

    def integer_terms(self, p: int = 0):
        """The terms as ``(exponents, integer)`` pairs: residues over GF(p), and
        over QQ the coefficients cleared by ``primitive_integers``. With a prime
        ``p`` to reduce them by, a denominator that ``p`` divides raises."""
        if self.ctx.field.characteristic():
            return [(m.exps, c.v) for m, c in self.terms]
        ints = primitive_integers([c for _, c in self.terms], p)
        return [(m.exps, c) for (m, _), c in zip(self.terms, ints)]

    def render(self) -> str:
        """The terms in order, each written by ``_term_text``, the first without
        its sign's space or a ``+``: ``x1^2 - 3/2*x1*x2 + x3^2``. ``lift_search``
        writes its lifts' texts from the same helper (``pipeline._lift_builder``)."""
        if not self.terms:
            return "0"
        scalar, monomial = self.ctx.field.render_scalar, self.ctx.render_monomial
        out = [_term_text(scalar(c), monomial(m)) for m, c in self.terms]
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
        self.rational = not ctx.field.characteristic()  # coefficients are bounded over QQ only

    def times(self, p: Polynomial, q, what: str, col: int) -> Polynomial:
        """p*q; a ParseError at ``col`` past ``MAX_TERM_PAIRS`` (a polynomial ``q``
        is charged its term pairs) or, over QQ, past ``MAX_COEFFICIENT_BITS``."""
        if isinstance(q, Polynomial):
            self.pairs += len(p.terms) * len(q.terms)
            if self.pairs > MAX_TERM_PAIRS:
                self.too_large(what, f"the polynomial would multiply out more than {MAX_TERM_PAIRS} pairs of terms", col)
        r = p * q
        if self.rational and any(_height_bits(c) > MAX_COEFFICIENT_BITS for _, c in r.terms):
            self.too_large(what, f"a coefficient would pass {MAX_COEFFICIENT_BITS} bits", col)
        return r

    def too_large(self, what: str, why: str, col: int):
        raise ParseError(f"{what} too large: {why}", self.toks.line, col)

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
                elif len(q.terms) == 1 and q.terms[0][0].is_one():
                    p = self.times(p, self.ctx.field.one / q.terms[0][1], "quotient", col)
                else:
                    why = "division by zero" if q.is_zero() else "division is only allowed by a nonzero constant"
                    raise ParseError(why, self.toks.line, col)
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
            evalue = _digits(evalue)
            k = MAX_EXPONENT if len(evalue) > 10 else int(evalue)  # 2^31 has 10 digits
            if k >= MAX_EXPONENT:
                raise ParseError(f"exponent must be below {MAX_EXPONENT}", self.toks.line, ecol)
            # over QQ, lc^k is the leading coefficient of base^k: its height is at most H^k
            if self.rational and base.terms and k * _height_bits(base.terms[0][1]) > MAX_COEFFICIENT_BITS:
                self.too_large("power", f"a coefficient would pass {MAX_COEFFICIENT_BITS} bits", ecol)
            return _power(base, k, lambda a, b: self.times(a, b, "power", ecol))
        return base

    def atom(self) -> Polynomial:
        kind, value, col = self.toks.next()
        if kind == "int":
            value = _digits(value)
            if (len(value) - 1) * _LOG2_10 > MAX_COEFFICIENT_BITS:  # k digits make at least 10^(k-1)
                self.too_large("literal", f"a coefficient would pass {MAX_COEFFICIENT_BITS} bits", col)
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


def _digits(token: str) -> str:
    """An integer token without leading zeros, so that its length bounds its
    value before ``int()`` reads it (which refuses 4300 digits or more)."""
    return token.lstrip("0") or "0"


def _height_bits(c) -> int:
    """ceil(log2 H) for the height H = max(|numerator|, denominator) of a rational."""
    return (max(abs(c.numerator), c.denominator) - 1).bit_length()


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
    An exponent of ``MAX_EXPONENT`` or more, or one whose power's leading
    coefficient would pass ``MAX_COEFFICIENT_BITS`` (height H to the k-th
    power counts k*ceil(log2 H) bits), is a ParseError at the exponent. So is
    a power, product or quotient over QQ with any coefficient of height past
    ``2^MAX_COEFFICIENT_BITS``, or that would take the term pairs multiplied
    out for the whole polynomial past ``MAX_TERM_PAIRS``, at the exponent, the
    ``*`` or the ``/``. So is an integer literal of k digits, over any field,
    when (k-1)*log2(10) passes ``MAX_COEFFICIENT_BITS``, at the literal. A
    product of exponents that overflows is a ParseError at the first character.
    """
    if not text.strip():
        raise ParseError("empty polynomial", line, col_offset + 1)
    try:
        return _PolyParser(_Tokenizer(text, line, col_offset), ctx, order).parse()
    except OverflowError as e:
        raise ParseError(str(e), line, col_offset + len(text) - len(text.lstrip()) + 1) from None
