"""The ``grodeg`` command line tool.

Five subcommands, each driven by a job file:

* ``analyze JOB``      one ideal, one order, full degeneration report
* ``scan-orders JOB``  all permutation orders of a family, deduplicated
* ``complex JOB``      property report and cohomology of a facet list
* ``lift-search JOB``  search lifts of a non-face ideal for singularities
* ``point-count JOB``  count points of a plane curve over GF(p)

Common flags (after the subcommand): ``--format json|text``, ``--out FILE``,
``--jobs N`` for worker processes, ``--seed N``, ``--degree-cap N``. Flags
override job-file parameters, which override the built-in defaults. Exit
codes: 0 after a completed run, 2 for any parse or usage error, 3 when a
resource cap stops the computation, 1 for other input errors. Output is
plain text or JSON with no color codes, so NO_COLOR needs no handling.
"""

from __future__ import annotations

import argparse
import sys

from . import pipeline
from .errors import ParseError, ResourceLimitError
from .fields import QQ, field_from_string
from .jobs import _INT_PARAMS, JobSpec, parse_job, parse_pool
from .reporting import render_report
from .ring import MonomialOrder, standard_context


def _common_flags(sub: argparse.ArgumentParser):
    sub.add_argument("jobfile", help="path to the job file")
    sub.add_argument("--format", choices=("json", "text"), default=None,
                     help="output format (default: job file setting, then json)")
    sub.add_argument("--out", metavar="FILE", default=None,
                     help="write the report here instead of stdout")
    sub.add_argument("--jobs", type=int, default=None, metavar="N",
                     help="worker processes for scans and searches")
    sub.add_argument("--seed", type=int, default=None,
                     help="seed for sampled searches")
    sub.add_argument("--degree-cap", type=int, default=None, metavar="D",
                     help="abort basis completion beyond this degree in analyze "
                     "and scan-orders (default 40)")


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
    p.add_argument("--family", choices=tuple(pipeline._FAMILIES), default=None)

    p = sub.add_parser("complex", help="analyze a simplicial complex directly")
    _common_flags(p)
    p.add_argument("--field", default=None, metavar="F",
                   help="cohomology coefficients: QQ or GF(p)")

    p = sub.add_parser("lift-search", help="search lifts of a non-face ideal")
    _common_flags(p)
    p.add_argument("--budget", type=int, default=None)
    p.add_argument("--pool", default=None, metavar="CSV",
                   help="tail coefficient pool, e.g. -2,-1,1,2")

    p = sub.add_parser("point-count", help="count plane-curve points over GF(p)")
    _common_flags(p)
    p.add_argument("--prime", type=int, default=None)

    return parser


def _first(*values):
    for v in values:
        if v is not None:
            return v
    return None


def _read_job(path: str) -> JobSpec:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        raise ParseError(f"cannot read job file {path}: {e.strerror or e}") from None
    return parse_job(text)


def _check_flag_minimums(args):
    """Hold ``--jobs``, ``--budget`` and ``--prime`` to the minimums of their job directives."""
    for flag, directive in (("jobs", "workers"), ("budget", "budget"), ("prime", "prime")):
        value = getattr(args, flag, None)
        minimum = _INT_PARAMS[directive]
        if value is not None and value < minimum:
            raise ParseError(f"--{flag} must be >= {minimum}")


def _require_ideal(spec: JobSpec, command: str):
    if spec.ideal is None:
        raise ParseError(f"{command} needs an ideal line in the job file")


def _cap(args) -> int:
    return _first(args.degree_cap, pipeline.DEFAULT_DEGREE_CAP)


def _cmd_analyze(args, spec: JobSpec):
    _require_ideal(spec, "analyze")
    return pipeline.analyze(spec.ideal, spec.carrier_order(), degree_cap=_cap(args))


def _cmd_scan_orders(args, spec: JobSpec):
    _require_ideal(spec, "scan-orders")
    family = _first(args.family, spec.family, "both")
    workers = _first(args.jobs, spec.workers, 1)
    return pipeline.scan_orders(
        spec.ideal, family=family, workers=workers, degree_cap=_cap(args)
    )


def _cmd_complex(args, spec: JobSpec):
    if spec.delta is None:
        raise ParseError("complex needs a facets line in the job file")
    field = field_from_string(args.field) if args.field else _first(spec.field, QQ)
    return pipeline.analyze_complex(spec.delta, field)


def _cmd_lift_search(args, spec: JobSpec):
    if spec.delta is None:
        raise ParseError("lift-search needs a facets line in the job file")
    if spec.ctx is not None:
        if spec.ctx.n != spec.delta.n:
            raise ParseError("ring and facets disagree about the number of vertices")
        order = spec.carrier_order()
    else:
        field = _first(spec.field, QQ)
        ctx = standard_context([f"x{i}" for i in range(1, spec.delta.n + 1)], field)
        order = MonomialOrder.degrevlex(ctx)
    pool = parse_pool(args.pool) if args.pool else spec.pool
    return pipeline.lift_search(
        spec.delta,
        order,
        pool=pool,
        budget=_first(args.budget, spec.budget, pipeline.DEFAULT_BUDGET),
        seed=_first(args.seed, spec.seed, 0),
        workers=_first(args.jobs, spec.workers, 1),
    )


def _cmd_point_count(args, spec: JobSpec):
    _require_ideal(spec, "point-count")
    if len(spec.ideal) != 1:
        raise ParseError("point-count wants exactly one form on the ideal line")
    prime = _first(args.prime, spec.prime)
    if prime is None:
        raise ParseError("point-count needs a prime (job line 'prime p' or --prime)")
    return pipeline.count_points(spec.ideal[0], prime)


_HANDLERS = {
    "analyze": _cmd_analyze,
    "scan-orders": _cmd_scan_orders,
    "complex": _cmd_complex,
    "lift-search": _cmd_lift_search,
    "point-count": _cmd_point_count,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        _check_flag_minimums(args)
        spec = _read_job(args.jobfile)
        result = _HANDLERS[args.command](args, spec)
        fmt = _first(args.format, spec.format, "json")
        payload = render_report(result, fmt)
    except ParseError as e:
        print(f"grodeg: {e}", file=sys.stderr)
        return 2
    except ResourceLimitError as e:
        print(f"grodeg: {e}", file=sys.stderr)
        return 3
    except ValueError as e:
        print(f"grodeg: {e}", file=sys.stderr)
        return 1
    if args.out:
        with open(args.out, "wb") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload.decode("utf-8"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
