"""The ``grodeg`` command line tool.

Five subcommands, each driven by a job file:

* ``analyze JOB``      one ideal, one order, full degeneration report
* ``scan-orders JOB``  all permutation orders of a family, deduplicated
* ``complex JOB``      property report and cohomology of a facet list
* ``lift-search JOB``  search lifts of a non-face ideal for singularities
* ``point-count JOB``  count points of a plane curve over GF(p)

Common flags (after the subcommand): ``--format json|text``, ``--out FILE``.
Each subcommand parses only the flags it reads, so a flag it would ignore is
a usage error: ``--degree-cap N`` belongs to analyze and scan-orders, and
``--seed N`` to lift-search. A flag that names a job setting is parsed and
checked by that setting's entry in ``jobs.SETTINGS`` and beats the job's
line; ``--degree-cap``, which names none, takes the same integer rule with a
minimum of 1. A setting given by neither is not passed on, so each default
lives once, in the library function's signature. Every command runs in one
process. Exit codes: 0 after a completed run, 2 for any parse or usage error
(an ``--out`` file that cannot be written included), 3 when a resource cap
stops the computation, 1 for other input errors. Output is plain text or JSON
with no color codes, so NO_COLOR needs no handling.

Each call builds one parser, the invoked subcommand's, from ``_COMMANDS``.
The full tree, built from the same table, is only for root help and usage
errors, so every help text, message and exit code is that of the full tree.
"""

from __future__ import annotations

import argparse
import sys

from . import pipeline
from .complexes import vertex_context
from .errors import ParseError, ResourceLimitError
from .fields import QQ
from .groebner import DEFAULT_DEGREE_CAP
from .jobs import SETTINGS, JobSpec, _integer, parse_job
from .records import replace
from .reporting import render_report
from .ring import MonomialOrder


def _add_flags(parser: argparse.ArgumentParser, command: str):
    """The common flags, then ``command``'s own from ``_COMMANDS``."""
    parser.add_argument("jobfile", help="path to the job file")
    parser.add_argument("--format", default=None, help="output format: json or text")
    parser.add_argument("--out", metavar="FILE", default=None,
                        help="write the report here instead of stdout")
    for flag, metavar, text in _COMMANDS[command][2]:
        parser.add_argument(flag, default=None, metavar=metavar, help=text)


def build_parser() -> argparse.ArgumentParser:
    """The root parser with every subcommand: for root help and usage errors."""
    parser = argparse.ArgumentParser(
        prog="grodeg",
        description="Groebner degenerations, Stanley-Reisner analysis, "
        "singularity obstructions, and point counts, all in exact arithmetic.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (text, _, _) in _COMMANDS.items():
        _add_flags(sub.add_parser(command, help=text), command)
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
        text = getattr(args, name, None)
        if text is not None:
            given[name] = parse(text, f"--{name}")
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
        **_given(family=spec.family, degree_cap=args.degree_cap),
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
        **_given(pool=spec.pool, budget=spec.budget, seed=spec.seed),
    )


def _cmd_point_count(args, spec: JobSpec):
    _require_ideal(spec, "point-count")
    if len(spec.ideal) != 1:
        raise ParseError("point-count wants exactly one form on the ideal line")
    if spec.prime is None:
        raise ParseError("point-count needs a prime (job line 'prime p' or --prime)")
    return pipeline.count_points(spec.ideal[0], spec.prime)


_DEGREE_CAP = ("--degree-cap", "D", f"abort basis completion beyond this degree (default {DEFAULT_DEGREE_CAP})")

# Each subcommand's help line, handler and own flags as (flag, metavar, help).
_COMMANDS = {
    "analyze": ("degenerate one ideal along one order", _cmd_analyze, (_DEGREE_CAP,)),
    "scan-orders": ("walk all permutation orders of a family", _cmd_scan_orders,
                    (_DEGREE_CAP, ("--family", None, ", ".join(pipeline._FAMILIES)))),
    "complex": ("analyze a simplicial complex directly", _cmd_complex,
                (("--field", "F", "cohomology coefficients: QQ or GF(p)"),)),
    "lift-search": ("search lifts of a non-face ideal", _cmd_lift_search,
                    (("--seed", None, "seed for sampled searches"), ("--budget", None, None),
                     ("--pool", "CSV", "tail coefficient pool, e.g. -2,-1,1,2"))),
    "point-count": ("count plane-curve points over GF(p)", _cmd_point_count,
                    (("--prime", None, None),)),
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


def _parse_args(words: list) -> argparse.Namespace:
    """Parse with the named subcommand's parser alone; the root parser is built
    only when no subcommand is named or words are left over, for root errors."""
    command = words[0] if words else None
    if command in _COMMANDS:
        parser = argparse.ArgumentParser(prog=f"grodeg {command}")
        _add_flags(parser, command)
        args, rest = parser.parse_known_args(words[1:], argparse.Namespace(command=command))
        if not rest:
            return args
    return build_parser().parse_args(words)


def main(argv=None) -> int:
    try:
        args = _parse_args(_glue_pool(sys.argv[1:] if argv is None else argv))
    except SystemExit as e:
        return int(e.code or 0)
    try:
        flags = _flag_settings(args)
        cap = getattr(args, "degree_cap", None)
        if cap is not None:
            args.degree_cap = _integer(1)(cap, "--degree-cap")
        spec = replace(_read_job(args.jobfile), **flags)
        result = _COMMANDS[args.command][1](args, spec)
        payload = render_report(result, **_given(fmt=spec.format))
        if args.out:
            try:
                with open(args.out, "wb") as fh:
                    fh.write(payload)
            except OSError as e:
                raise ParseError(f"cannot write {args.out}: {e.strerror or e}") from None
    except (ResourceLimitError, ValueError) as e:
        print(f"grodeg: {e}", file=sys.stderr)
        return 2 if isinstance(e, ParseError) else 3 if isinstance(e, ResourceLimitError) else 1
    if not args.out:
        sys.stdout.write(payload.decode("utf-8"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
