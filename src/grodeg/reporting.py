"""Render result objects to bytes: canonical JSON or plain text.

JSON output is byte-stable and equals the ``json`` module's ``dumps`` of the
``to_jsonable`` data (``indent=2``, ``sort_keys=True``) plus a trailing
newline, UTF-8 (in fact ASCII). Each result's ``as_dict`` gives its own
fields only, one level deep: nested results stay result objects and tuples
stay tuples, and the two walks below are the only code that converts them.
The JSON text is written in one recursive pass straight from that data, with
no intermediate copy: keys are sorted, strings quoted by the ``json``
module's own ASCII escaper, and a result object that occurs more than once
in one report (the lifts of a search share their coordinate-point verdicts)
is encoded once. Floats are refused, since no result carries one. The text
format is a plain indented key/value listing with the same key ordering,
read back from that JSON text (``to_jsonable`` is its oracle); neither
format ever emits color codes.
"""

from __future__ import annotations

import json
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote


def to_jsonable(obj):
    """Recursively convert result objects to plain JSON-ready data."""
    if hasattr(obj, "as_dict"):
        obj = obj.as_dict()
    if isinstance(obj, dict):
        return dict(zip(map(str, obj), map(to_jsonable, obj.values())))
    if isinstance(obj, (list, tuple)):
        return list(map(to_jsonable, obj))
    if isinstance(obj, Fraction):
        return str(obj)
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    return str(obj)


def _plain(obj):
    """One step of ``to_jsonable`` for what ``_json`` has no fast path for."""
    if isinstance(obj, dict):
        return {str(k): v for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return list(obj)
    if isinstance(obj, float):
        raise TypeError(f"cannot render the float {obj!r}: results hold exact values only")
    return str(obj)


def _json(obj, pad: str, memo: dict) -> str:
    """The JSON text of ``obj`` whose line starts with ``pad``.

    ``memo`` maps the ``id`` of each result object encoded so far to the
    object, its pad and its text. Holding the object keeps its id from being
    reused by a later object during the call.
    """
    t = type(obj)
    if t is str:
        return _quote(obj)
    if t is int:
        return repr(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    inner = pad + "  "
    if t is dict:
        if not obj:
            return "{}"
        if all(type(k) is str for k in obj):
            items = sorted(obj.items())
        else:
            items = sorted({str(k): v for k, v in obj.items()}.items())
        sep = ",\n" + inner
        return "{\n" + inner + sep.join(
            [_quote(k) + ": " + (_quote(v) if type(v) is str else _json(v, inner, memo)) for k, v in items]
        ) + "\n" + pad + "}"
    if t is list or t is tuple:
        if not obj:
            return "[]"
        sep = ",\n" + inner
        return "[\n" + inner + sep.join(
            [_quote(v) if type(v) is str else _json(v, inner, memo) for v in obj]
        ) + "\n" + pad + "]"
    if hasattr(obj, "as_dict"):
        seen = memo.get(id(obj))
        if seen is None or seen[1] != pad:
            seen = memo[id(obj)] = (obj, pad, _json(obj.as_dict(), pad, memo))
        return seen[2]
    return _json(_plain(obj), pad, memo)


def _scalar(v) -> str:
    if v is True:
        return "true"
    if v is False:
        return "false"
    if v is None:
        return "none"
    return str(v)


def _is_scalar(v) -> bool:
    return v is None or isinstance(v, (bool, int, str))


def _text_lines(data, indent: int):
    pad = "  " * indent
    lines = []
    if isinstance(data, dict):
        if not data:
            return [f"{pad}(none)"]
        for k in sorted(data):
            v = data[k]
            if _is_scalar(v):
                lines.append(f"{pad}{k}: {_scalar(v)}")
            elif isinstance(v, (list, tuple)) and all(_is_scalar(x) for x in v):
                inner = ", ".join(_scalar(x) for x in v)
                lines.append(f"{pad}{k}: [{inner}]")
            else:
                lines.append(f"{pad}{k}:")
                lines.extend(_text_lines(v, indent + 1))
        return lines
    if isinstance(data, (list, tuple)):
        if not data:
            return [f"{pad}(none)"]
        for i, v in enumerate(data):
            if _is_scalar(v):
                lines.append(f"{pad}- {_scalar(v)}")
            else:
                lines.append(f"{pad}- [{i}]")
                lines.extend(_text_lines(v, indent + 1))
        return lines
    return [f"{pad}{_scalar(data)}"]


def render_report(obj, fmt: str = "json") -> bytes:
    """Bytes of the report in the requested format."""
    if fmt == "json":
        return (_json(obj, "", {}) + "\n").encode("ascii")
    if fmt == "text":
        return ("\n".join(_text_lines(json.loads(_json(obj, "", {})), 0)) + "\n").encode("utf-8")
    raise ValueError(f"unknown format {fmt!r} (want json or text)")
