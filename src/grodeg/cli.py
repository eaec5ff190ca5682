"""The ``grodeg`` command line tool.

Five subcommands, each driven by a job file:

* ``analyze JOB``      one ideal, one order, full degeneration report
* ``scan-orders JOB``  all permutation orders of a family, deduplicated
* ``complex JOB``      property report and cohomology of a facet list
* ``lift-search JOB``  search lifts of a non-face ideal for singularities
* ``point-count JOB``  count points of a plane curve over GF(p)

Common flags (after the subcommand): ``--format json|text``, ``--out FILE``,
``--jobs N`` for worker processes, ``--seed N``, ``--degree-cap N``. A flag
that names a job setting (``--jobs`` names ``workers``) is parsed and
checked by that setting's entry in ``jobs.SETTINGS`` and beats the job's
line. A setting given by neither is not passed on, so each default lives
once, in the library function's signature. Exit codes: 0 after a completed
run, 2 for any parse or usage error (an ``--out`` file that cannot be written
included), 3 when a resource cap stops the computation, 1 for other input
errors. Output is plain text or JSON with no color codes, so NO_COLOR needs
no handling.
"""

from __future__ import annotations

import argparse
import sys

from . import pipeline
from .complexes import vertex_context
from .errors import ParseError, ResourceLimitError
from .fields import QQ
from .groebner import DEFAULT_DEGREE_CAP
from .jobs import SETTINGS, JobSpec, parse_job
from .records import replace
from .reporting import render_report
from .ring import MonomialOrder


def _common_flags(sub: argparse.ArgumentParser):
    sub.add_argument("jobfile", help="path to the job file")
    sub.add_argument("--format", default=None, help="output format: json or text")
    sub.add_argument("--out", metavar="FILE", default=None,
                     help="write the report here instead of stdout")
    sub.add_argument("--jobs", default=None, metavar="N",
                     help="worker processes for scans and searches")
    sub.add_argument("--seed", default=None,
                     help="seed for sampled searches")
    sub.add_argument("--degree-cap", type=int, default=None, metavar="D",
                     help="abort basis completion beyond this degree in analyze "
                     f"and scan-orders (default {DEFAULT_DEGREE_CAP})")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="grodeg",
        description="Groebner degenerations, Stanley-Reisner analysis, "
        "singularity obstructions, and point counts, all in exact arithmetic.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="degenerate one ideal along one order")
    _common_flags(p)

    p = sub.add_parser("scan-orders", help="walk all permutation orders of a family")
    _common_flags(p)
    p.add_argument("--family", default=None, help=", ".join(pipeline._FAMILIES))

    p = sub.add_parser("complex", help="analyze a simplicial complex directly")
    _common_flags(p)
    p.add_argument("--field", default=None, metavar="F",
                   help="cohomology coefficients: QQ or GF(p)")

    p = sub.add_parser("lift-search", help="search lifts of a non-face ideal")
    _common_flags(p)
    p.add_argument("--budget", default=None)
    p.add_argument("--pool", default=None, metavar="CSV",
                   help="tail coefficient pool, e.g. -2,-1,1,2")

    p = sub.add_parser("point-count", help="count plane-curve points over GF(p)")
    _common_flags(p)
    p.add_argument("--prime", default=None)

    return parser


def _read_job(path: str) -> JobSpec:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        raise ParseError(f"cannot read job file {path}: {e.strerror or e}") from None
    return parse_job(text)


def _flag_settings(args) -> dict:
    """The job settings given as flags, parsed and checked by ``SETTINGS``."""
    given = {}
    for name, (parse, _) in SETTINGS.items():
        flag = "jobs" if name == "workers" else name
        text = getattr(args, flag, None)
        if text is not None:
            given[name] = parse(text, f"--{flag}")
    return given


def _given(**settings) -> dict:
    """The settings that are set, as keyword arguments for the library."""
    return {name: value for name, value in settings.items() if value is not None}


def _require_ideal(spec: JobSpec, command: str):
    if spec.ideal is None:
        raise ParseError(f"{command} needs an ideal line in the job file")


def _cmd_analyze(args, spec: JobSpec):
    _require_ideal(spec, "analyze")
    return pipeline.analyze(spec.ideal, spec.carrier_order(), **_given(degree_cap=args.degree_cap))


def _cmd_scan_orders(args, spec: JobSpec):
    _require_ideal(spec, "scan-orders")
    return pipeline.scan_orders(
        spec.ideal,
        **_given(family=spec.family, workers=spec.workers, degree_cap=args.degree_cap),
    )


def _cmd_complex(args, spec: JobSpec):
    if spec.delta is None:
        raise ParseError("complex needs a facets line in the job file")
    return pipeline.analyze_complex(spec.delta, **_given(field=spec.field))


def _cmd_lift_search(args, spec: JobSpec):
    if spec.delta is None:
        raise ParseError("lift-search needs a facets line in the job file")
    if spec.ctx is not None:
        if spec.ctx.n != spec.delta.n:
            raise ParseError("ring and facets disagree about the number of vertices")
        order = spec.carrier_order()
    else:
        ctx = vertex_context(spec.delta.n, spec.field if spec.field is not None else QQ)
        order = MonomialOrder.degrevlex(ctx)
    return pipeline.lift_search(
        spec.delta,
        order,
        **_given(pool=spec.pool, budget=spec.budget, seed=spec.seed, workers=spec.workers),
    )


def _cmd_point_count(args, spec: JobSpec):
    _require_ideal(spec, "point-count")
    if len(spec.ideal) != 1:
        raise ParseError("point-count wants exactly one form on the ideal line")
    if spec.prime is None:
        raise ParseError("point-count needs a prime (job line 'prime p' or --prime)")
    return pipeline.count_points(spec.ideal[0], spec.prime)


_HANDLERS = {
    "analyze": _cmd_analyze,
    "scan-orders": _cmd_scan_orders,
    "complex": _cmd_complex,
    "lift-search": _cmd_lift_search,
    "point-count": _cmd_point_count,
}


def _glue_pool(argv) -> list:
    """``--pool -1,1`` as ``--pool=-1,1``.

    argparse takes a word that starts with ``-`` and is not a plain number for
    an option, and a pool often starts with a negative entry.
    """
    words, rest = [], iter(argv)
    for word in rest:
        if word == "--":
            words.append(word)
            words.extend(rest)
        elif word == "--pool":
            value = next(rest, None)
            words.append(word if value is None else f"{word}={value}")
        else:
            words.append(word)
    return words


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(_glue_pool(sys.argv[1:] if argv is None else argv))
    except SystemExit as e:
        return int(e.code or 0)
    try:
        flags = _flag_settings(args)
        spec = replace(_read_job(args.jobfile), **flags)
        result = _HANDLERS[args.command](args, spec)
        payload = render_report(result, **_given(fmt=spec.format))
        if args.out:
            try:
                with open(args.out, "wb") as fh:
                    fh.write(payload)
            except OSError as e:
                raise ParseError(f"cannot write {args.out}: {e.strerror or e}") from None
    except ParseError as e:
        print(f"grodeg: {e}", file=sys.stderr)
        return 2
    except ResourceLimitError as e:
        print(f"grodeg: {e}", file=sys.stderr)
        return 3
    except ValueError as e:
        print(f"grodeg: {e}", file=sys.stderr)
        return 1
    if not args.out:
        sys.stdout.write(payload.decode("utf-8"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
