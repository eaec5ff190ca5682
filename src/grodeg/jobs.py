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
``render_job`` writes the canonical form, and parse(render(parse(text)))
equals parse(text).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Tuple

from .complexes import SimplicialComplex
from .errors import ParseError
from .fields import Field, field_from_string
from .pipeline import _FAMILIES
from .ring import MonomialOrder, Polynomial, RingContext, parse_polynomial

_INT_PARAMS = {
    "vertices": 1,
    "budget": 1,
    "prime": 2,
    "workers": 1,
    "seed": None,  # any integer
}
_FORMATS = ("json", "text")


@dataclass(frozen=True)
class JobSpec:
    """Parsed job file. Only the directives that appeared are non-None."""

    ctx: Optional[RingContext] = None
    order: Optional[MonomialOrder] = None
    ideal: Optional[Tuple[Polynomial, ...]] = None
    delta: Optional[SimplicialComplex] = None
    field: Optional[Field] = None
    family: Optional[str] = None
    pool: Optional[Tuple[Fraction, ...]] = None
    budget: Optional[int] = None
    seed: Optional[int] = None
    prime: Optional[int] = None
    workers: Optional[int] = None
    format: Optional[str] = None

    def carrier_order(self) -> Optional[MonomialOrder]:
        """The explicit order, or a degrevlex placeholder when none was given."""
        if self.order is not None:
            return self.order
        if self.ctx is not None:
            return MonomialOrder.degrevlex(self.ctx)
        return None


def _split_tracking(payload: str, sep: str):
    """Chunks of payload split on sep, with each chunk's 0-based start offset."""
    pos = 0
    for chunk in payload.split(sep):
        yield pos, chunk
        pos += len(chunk) + len(sep)


def _parse_ring(payload: str, lineno: int, col: int) -> RingContext:
    tokens = payload.split()
    if len(tokens) not in (2, 4):
        raise ParseError("ring wants: ring <field> <names> [grading <weights>]", lineno, col)
    try:
        field = field_from_string(tokens[0])
    except ParseError as e:
        raise ParseError(str(e), lineno, col) from None
    names = tuple(s.strip() for s in tokens[1].split(","))
    grading = None
    if len(tokens) == 4:
        if tokens[2] != "grading":
            raise ParseError(f"expected 'grading', got {tokens[2]!r}", lineno, col)
        try:
            grading = tuple(int(w) for w in tokens[3].split(","))
        except ValueError:
            raise ParseError(f"bad grading {tokens[3]!r}", lineno, col) from None
    try:
        return RingContext(names, grading if grading is not None else (1,) * len(names), field)
    except ValueError as e:
        raise ParseError(str(e), lineno, col) from None


def _parse_order(payload: str, ctx: RingContext, lineno: int, col: int) -> MonomialOrder:
    head, _, rest = payload.partition(" ")
    kind = head.strip()
    rest = rest.strip()
    if not rest:
        raise ParseError("order wants a kind and a specification", lineno, col)
    try:
        if kind in ("lex", "degrevlex"):
            names = [s.strip() for s in rest.split(">")]
            perm = tuple(ctx.index_of(nm) for nm in names)
            return MonomialOrder(kind, ctx, perm=perm)
        if kind in ("weighted", "matrix"):
            rows = tuple(tuple(int(w) for w in row.split(",")) for row in rest.split(";"))
            return MonomialOrder(kind, ctx, rows=rows)
    except KeyError as e:
        raise ParseError(e.args[0], lineno, col) from None
    except ValueError as e:
        raise ParseError(str(e), lineno, col) from None
    raise ParseError(f"unknown order kind {kind!r}", lineno, col)


def _parse_facets(payload: str, n_hint: Optional[int], lineno: int, col: int) -> SimplicialComplex:
    groups = []
    for chunk in payload.split(";"):
        if not chunk.strip():
            continue
        try:
            verts = tuple(int(v) for v in chunk.split())
        except ValueError:
            raise ParseError(f"bad facet {chunk.strip()!r}", lineno, col) from None
        groups.append(verts)
    if not groups:
        raise ParseError("no facets given", lineno, col)
    biggest = max((max(f) for f in groups if f), default=0)
    if any(v < 1 for f in groups for v in f):
        raise ParseError("facet vertices must be >= 1", lineno, col)
    n = n_hint if n_hint is not None else biggest
    if biggest > n:
        raise ParseError(f"facet vertex {biggest} exceeds vertices {n}", lineno, col)
    try:
        return SimplicialComplex.from_facets(n, groups)
    except ValueError as e:
        raise ParseError(str(e), lineno, col) from None


def parse_pool(text: str, lineno: Optional[int] = None, col: Optional[int] = None):
    """Comma-separated rationals; errors carry the given position, if any."""
    values = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        try:
            values.append(Fraction(chunk))
        except (ValueError, ZeroDivisionError):
            raise ParseError(f"bad pool entry {chunk!r}", lineno, col) from None
    return tuple(values)


def parse_job(text: str) -> JobSpec:
    """Parse a job file into a ``JobSpec``; errors carry line and column."""
    entries = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        stripped = line.lstrip()
        indent = len(line) - len(stripped)
        if stripped.startswith("ideal:"):
            keyword, payload = "ideal", stripped[len("ideal:") :]
            payload_col = indent + len("ideal:")
        elif stripped.startswith("facets:"):
            keyword, payload = "facets", stripped[len("facets:") :]
            payload_col = indent + len("facets:")
        else:
            head, _, payload = stripped.partition(" ")
            keyword = head
            payload_col = indent + len(head) + 1
        if keyword in entries:
            raise ParseError(f"duplicate {keyword} line", lineno, 1)
        entries[keyword] = (lineno, payload_col, payload.strip(), payload)

    known = {
        "ring", "order", "ideal", "facets", "field", "family", "pool", "format",
    } | set(_INT_PARAMS)
    for keyword, (lineno, col, _, _) in entries.items():
        if keyword not in known:
            raise ParseError(f"unknown directive {keyword!r}", lineno, 1)

    ctx = None
    if "ring" in entries:
        lineno, col, payload, _ = entries["ring"]
        ctx = _parse_ring(payload, lineno, col + 1)

    ints = {}
    for name, minimum in _INT_PARAMS.items():
        if name not in entries:
            continue
        lineno, col, payload, _ = entries[name]
        try:
            value = int(payload)
        except ValueError:
            raise ParseError(f"{name} wants an integer, got {payload!r}", lineno, col + 1) from None
        if minimum is not None and value < minimum:
            raise ParseError(f"{name} must be >= {minimum}", lineno, col + 1)
        ints[name] = value

    order = None
    if "order" in entries:
        lineno, col, payload, _ = entries["order"]
        if ctx is None:
            raise ParseError("order line needs a ring line", lineno, 1)
        order = _parse_order(payload, ctx, lineno, col + 1)

    ideal = None
    if "ideal" in entries:
        lineno, col, _, payload_raw = entries["ideal"]
        if ctx is None:
            raise ParseError("ideal line needs a ring line", lineno, 1)
        carrier = order if order is not None else MonomialOrder.degrevlex(ctx)
        polys = []
        for off, chunk in _split_tracking(payload_raw, ";"):
            if not chunk.strip():
                continue
            polys.append(
                parse_polynomial(chunk, ctx, carrier, line=lineno, col_offset=col + off)
            )
        if not polys:
            raise ParseError("ideal line has no polynomials", lineno, col + 1)
        ideal = tuple(polys)

    delta = None
    if "facets" in entries:
        lineno, col, _, payload_raw = entries["facets"]
        delta = _parse_facets(payload_raw, ints.get("vertices"), lineno, col + 1)
    elif "vertices" in entries:
        lineno, col, _, _ = entries["vertices"]
        raise ParseError("vertices without a facets line", lineno, 1)

    field = None
    if "field" in entries:
        lineno, col, payload, _ = entries["field"]
        try:
            field = field_from_string(payload)
        except ParseError as e:
            raise ParseError(str(e), lineno, col + 1) from None

    family = None
    if "family" in entries:
        lineno, col, payload, _ = entries["family"]
        if payload not in _FAMILIES:
            raise ParseError(f"family must be one of {', '.join(_FAMILIES)}", lineno, col + 1)
        family = payload

    fmt = None
    if "format" in entries:
        lineno, col, payload, _ = entries["format"]
        if payload not in _FORMATS:
            raise ParseError(f"format must be one of {', '.join(_FORMATS)}", lineno, col + 1)
        fmt = payload

    pool = None
    if "pool" in entries:
        lineno, col, payload, _ = entries["pool"]
        pool = parse_pool(payload, lineno, col + 1)

    return JobSpec(
        ctx=ctx,
        order=order,
        ideal=ideal,
        delta=delta,
        field=field,
        family=family,
        pool=pool,
        budget=ints.get("budget"),
        seed=ints.get("seed"),
        prime=ints.get("prime"),
        workers=ints.get("workers"),
        format=fmt,
    )


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
    if spec.field is not None:
        lines.append(f"field {spec.field.render()}")
    if spec.family is not None:
        lines.append(f"family {spec.family}")
    if spec.pool is not None:
        lines.append("pool " + ",".join(str(c) for c in spec.pool))
    for name in ("prime", "budget", "seed", "workers"):
        value = getattr(spec, name)
        if value is not None:
            lines.append(f"{name} {value}")
    if spec.format is not None:
        lines.append(f"format {spec.format}")
    return "\n".join(lines) + "\n"
