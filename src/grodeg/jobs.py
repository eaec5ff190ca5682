"""Job files: one experiment described as a handful of directive lines.

Grammar (one directive per line, ``#`` starts a comment, blank lines skipped):

    ring QQ x,y,z
    ring GF(7) x1,x2,x3 grading 1,1,2
    order degrevlex z>y>x
    order weighted 1,1,1 ; 2,0,1
    order matrix 1,1,1 ; 0,0,-1 ; 0,-1,0
    ideal: x*y - z^2 ; x^2 - y*z
    vertices 6
    facets: 1 2; 2 3; 1 3
    field GF(2)
    family both
    pool -2,-1,1,2
    budget 500
    seed 7
    prime 11
    workers 4
    format json

Directives may appear in any order in the file; each may appear once.
``ring``, ``order``, ``ideal``, ``vertices`` and ``facets`` depend on each
other and are read one by one. Every other directive is a one-value setting
described once in ``SETTINGS``: how its payload is parsed and checked, and
how its value is written back. The command line parses and checks its flags
with the same entries. ``render_job`` writes the canonical form, and
parse(render(parse(text))) equals parse(text).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Tuple

from .complexes import SimplicialComplex
from .errors import ParseError, clipped
from .fields import Field, field_from_string
from .pipeline import _FAMILIES
from .records import Record, replace
from .ring import MonomialOrder, Polynomial, RingContext, parse_polynomial, standard_context


def _integer(minimum=None):
    """Parse rule for an integer setting held to ``minimum``, if any."""

    def parse(text: str, name: str) -> int:
        if len(text) > 20:  # no setting needs more, and int() refuses 4300 digits
            raise ParseError(f"{name} wants at most 20 digits, got {clipped(text)!r}")
        try:
            value = int(text)
        except ValueError:
            raise ParseError(f"{name} wants an integer, got {text!r}") from None
        if minimum is not None and value < minimum:
            raise ParseError(f"{name} must be >= {minimum}")
        return value

    return parse


def _one_of(choices):
    """Parse rule for a setting that takes one of ``choices``."""

    def parse(text: str, name: str) -> str:
        if text not in choices:
            raise ParseError(f"{name} must be one of {', '.join(choices)}")
        return text

    return parse


def parse_pool(text: str) -> Tuple[Fraction, ...]:
    """Comma-separated rationals of at most 20 characters, with no exponent
    part: ``Fraction('1e10000000')`` alone builds a 33-million-bit integer."""
    values = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        try:
            if len(chunk) > 20 or "e" in chunk.lower():
                raise ValueError
            values.append(Fraction(chunk))
        except (ValueError, ZeroDivisionError):
            raise ParseError(f"bad pool entry {clipped(chunk)!r}") from None
    return tuple(values)


# The one-value settings in canonical order, each as (parse, render).
# ``parse(text, name)`` returns the value or raises a ParseError without a
# position that calls the setting ``name`` (a flag passes its own spelling);
# ``render(value)`` is the directive's payload.
SETTINGS = {
    "field": (lambda text, name: field_from_string(text), lambda field: field.render()),
    "family": (_one_of(tuple(_FAMILIES)), str),
    "pool": (lambda text, name: parse_pool(text), lambda pool: ",".join(map(str, pool))),
    "prime": (_integer(2), str),
    "budget": (_integer(1), str),
    "seed": (_integer(), str),
    "workers": (_integer(1), str),
    "format": (_one_of(("json", "text")), str),
}
_STRUCTURE = ("ring", "order", "ideal", "vertices", "facets")
VERTEX_BOUND = 1000  # a complex's ring has one variable per vertex, ghosts included


class JobSpec(Record):
    """Parsed job file. Only the directives that appeared are non-None."""

    def __init__(
        self, ctx: Optional[RingContext] = None, order: Optional[MonomialOrder] = None,
        ideal: Optional[Tuple[Polynomial, ...]] = None, delta: Optional[SimplicialComplex] = None,
        field: Optional[Field] = None, family: Optional[str] = None,
        pool: Optional[Tuple[Fraction, ...]] = None, budget: Optional[int] = None,
        seed: Optional[int] = None, prime: Optional[int] = None, workers: Optional[int] = None,
        format: Optional[str] = None,
    ):
        self.__dict__.update(
            ctx=ctx, order=order, ideal=ideal, delta=delta, field=field, family=family,
            pool=pool, budget=budget, seed=seed, prime=prime, workers=workers, format=format,
        )

    def carrier_order(self) -> Optional[MonomialOrder]:
        """The explicit order, or a degrevlex placeholder when none was given."""
        if self.order is not None:
            return self.order
        if self.ctx is not None:
            return MonomialOrder.degrevlex(self.ctx)
        return None


def _parse_ring(payload: str) -> RingContext:
    tokens = payload.split()
    if len(tokens) not in (2, 4):
        raise ParseError("ring wants: ring <field> <names> [grading <weights>]")
    field = field_from_string(tokens[0])
    names = tuple(s.strip() for s in tokens[1].split(","))
    grading = None  # the standard grading
    if len(tokens) == 4:
        if tokens[2] != "grading":
            raise ParseError(f"expected 'grading', got {tokens[2]!r}")
        try:  # RingContext refuses a weight below 1
            grading = tuple(_integer()(w, "grading") for w in tokens[3].split(","))
        except ParseError:
            raise ParseError(f"bad grading {clipped(tokens[3])!r}") from None
    return standard_context(names, field, grading)


def _weight(text: str) -> int:
    """One weight of a ``weighted`` or ``matrix`` order row."""
    try:
        return _integer()(text, "weight")
    except ParseError:
        raise ParseError(f"bad weight {clipped(text)!r}") from None


def _parse_order(payload: str, ctx: RingContext) -> MonomialOrder:
    head, _, rest = payload.partition(" ")
    kind = head.strip()
    rest = rest.strip()
    if not rest:
        raise ParseError("order wants a kind and a specification")
    if kind in ("lex", "degrevlex"):
        try:
            perm = tuple(ctx.index_of(s.strip()) for s in rest.split(">"))
        except KeyError as e:
            raise ParseError(e.args[0]) from None
        return MonomialOrder(kind, ctx, perm=perm)
    if kind in ("weighted", "matrix"):
        rows = tuple(tuple(_weight(w.strip()) for w in row.split(",")) for row in rest.split(";"))
        return MonomialOrder(kind, ctx, rows=rows)
    raise ParseError(f"unknown order kind {kind!r}")


def _parse_facets(payload: str, n_hint: Optional[int]) -> SimplicialComplex:
    groups = []
    for chunk in payload.split(";"):
        if not chunk.strip():
            continue
        try:
            if any(len(v) > 20 for v in chunk.split()):  # as in ``_integer``
                raise ValueError
            groups.append(tuple(int(v) for v in chunk.split()))
        except ValueError:
            raise ParseError(f"bad facet {clipped(chunk.strip())!r}") from None
    if not groups:
        raise ParseError("no facets given")
    biggest = max((max(f) for f in groups if f), default=0)
    if any(v < 1 for f in groups for v in f):
        raise ParseError("facet vertices must be >= 1")
    n = n_hint if n_hint is not None else biggest
    if biggest > n:
        raise ParseError(f"facet vertex {biggest} exceeds vertices {n}")
    if n > VERTEX_BOUND:
        raise ParseError(f"{n} vertices exceed the bound of {VERTEX_BOUND}")
    return SimplicialComplex.from_facets(n, groups)


def parse_job(text: str) -> JobSpec:
    """Parse a job file into a ``JobSpec``; errors carry line and column."""
    entries = {}  # keyword -> (line, 0-based column of the payload, payload)
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        stripped = line.lstrip()
        if not stripped:
            continue
        sep = ":" if stripped.startswith(("ideal:", "facets:")) else " "
        keyword, _, payload = stripped.partition(sep)
        if keyword in entries:
            raise ParseError(f"duplicate {keyword} line", lineno, 1)
        if keyword not in SETTINGS and keyword not in _STRUCTURE:
            raise ParseError(f"unknown directive {keyword!r}", lineno, 1)
        entries[keyword] = (lineno, len(line) - len(stripped) + len(keyword) + 1, payload)

    def located(keyword, parse, *args):
        """``parse(payload, *args)`` for the keyword's line, None without one;
        a ValueError becomes a ParseError at the payload's first column."""
        if keyword not in entries:
            return None
        lineno, col, payload = entries[keyword]
        try:
            return parse(payload.strip(), *args)
        except ValueError as e:
            raise ParseError(str(e), lineno, col + 1) from None

    settings = {name: located(name, parse, name) for name, (parse, _) in SETTINGS.items()}
    ctx = located("ring", _parse_ring)
    for keyword in ("order", "ideal"):
        if keyword in entries and ctx is None:
            raise ParseError(f"{keyword} line needs a ring line", entries[keyword][0], 1)
    spec = JobSpec(ctx=ctx, order=located("order", _parse_order, ctx), **settings)

    ideal = None
    if "ideal" in entries:
        lineno, col, payload = entries["ideal"]
        carrier = spec.carrier_order()
        polys, offset = [], col
        for chunk in payload.split(";"):
            if chunk.strip():
                polys.append(parse_polynomial(chunk, ctx, carrier, line=lineno, col_offset=offset))
            offset += len(chunk) + 1
        if not polys:
            raise ParseError("ideal line has no polynomials", lineno, col + 1)
        ideal = tuple(polys)

    n = located("vertices", _integer(1), "vertices")
    if n is not None and "facets" not in entries:
        raise ParseError("vertices without a facets line", entries["vertices"][0], 1)
    return replace(spec, ideal=ideal, delta=located("facets", _parse_facets, n))


def render_job(spec: JobSpec) -> str:
    """Canonical text for a job; parsing it back reproduces this JobSpec."""
    lines = []
    if spec.ctx is not None:
        lines.append(f"ring {spec.ctx.render()}")
    if spec.order is not None:
        lines.append(f"order {spec.order.render()}")
    if spec.ideal is not None:
        lines.append("ideal: " + " ; ".join(g.render() for g in spec.ideal))
    if spec.delta is not None:
        lines.append(f"vertices {spec.delta.n}")
        lines.append(spec.delta.render())
    for name, (_, render) in SETTINGS.items():
        value = getattr(spec, name)
        if value is not None:
            lines.append(f"{name} {render(value)}")
    return "\n".join(lines) + "\n"
