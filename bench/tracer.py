"""Outside-in tracer: spans around calls into grodeg's public functions.

``Tracer.installed()`` replaces each function in ``TRACED`` by a wrapper, in
every grodeg module that holds it: the defining module (for calls inside it,
such as ``buchberger`` calling ``normal_form``) and every module that
imported the name directly (``pipeline`` imports ``buchberger``,
``complexes`` imports ``rank_int``, and so on). Nothing in the library is
edited; leaving the block restores the originals.

A span is ``[name, start, end, parent, job, note]``. ``parent`` is the index
of the enclosing span (-1 at top level) and ``note`` is a per-function
observation (zero remainder, matrix entries, bytes rendered, the exception
raised). Spans stay in memory until the run ends. ``fields`` is not wrapped:
its calls are per scalar, and a wrapper would swamp them.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

NAME, START, END, PARENT, JOB, NOTE = range(6)


def _entries(args, result):
    rows = args[0]
    return len(rows) * len(rows[0]) if rows else 0


# module, function, note taken from (args, result) after the call
TRACED = (
    ("cli", "main", None),
    ("jobs", "parse_job", None),
    ("ring", "parse_polynomial", None),
    ("reporting", "render_report", lambda a, r: len(r)),
    ("pipeline", "analyze", None),
    ("pipeline", "scan_orders", lambda a, r: (sum(len(x.producing_orders) for x in r), len(r))),
    ("pipeline", "lift_search", lambda a, r: (r.tried, len(r.lifts))),
    ("pipeline", "analyze_complex", None),
    ("pipeline", "count_points", None),
    ("groebner", "buchberger", None),
    ("groebner", "normal_form", lambda a, r: r.is_zero()),
    ("groebner", "s_polynomial", None),
    ("singularity", "jacobian_rank_at", None),
    ("singularity", "ci_obstruction", None),
    ("singularity", "leafless_obstruction", None),
    ("singularity", "lex_obstruction", None),
    ("singularity", "support_exclusions", None),
    ("complexes", "reduced_cohomology", None),
    ("complexes", "property_report", None),
    ("complexes", "is_strongly_connected", None),
    ("linalg", "rank_int", _entries),
    ("linalg", "rank_mod_p", _entries),
    ("linalg", "rank_exact", _entries),
)
SPAN_NAMES = tuple(f"{m}.{f}" for m, f, _ in TRACED)


class Tracer:
    """Spans of each traced pass, one list per pass, kept until the run ends."""

    def __init__(self):
        self.passes = []
        self.spans = []
        self._stack = []
        self.job = None

    def start_pass(self):
        self.spans = []
        self.passes.append(self.spans)

    def _wrap(self, name, fn, note):
        stack, clock = self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            spans = self.spans
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.job, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as e:
                rec[END] = clock()
                stack.pop()
                rec[NOTE] = type(e).__name__
                raise
            rec[END] = clock()
            stack.pop()
            if note is not None:
                rec[NOTE] = note(args, result)
            return result

        return traced

    @contextmanager
    def installed(self):
        modules = [m for k, m in list(sys.modules.items()) if k == "grodeg" or k.startswith("grodeg.")]
        patched = []
        try:
            for module, func, note in TRACED:
                original = getattr(sys.modules[f"grodeg.{module}"], func)
                wrapper = self._wrap(f"{module}.{func}", original, note)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, attr, wrapper)
                            patched.append((m, attr, original))
            yield self
        finally:
            for m, attr, original in reversed(patched):
                setattr(m, attr, original)


def self_times(spans):
    """Each span's duration minus the durations of its direct children."""
    out = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            out[s[PARENT]] -= s[END] - s[START]
    return out


def _under(spans, i, name):
    """Whether span i has an ancestor called name."""
    p = spans[i][PARENT]
    while p >= 0:
        if spans[p][NAME] == name:
            return True
        p = spans[p][PARENT]
    return False


def layer_metrics(spans):
    """Per-layer metrics of the spans of one pass."""
    own = self_times(spans)
    calls = defaultdict(int)
    self_s = defaultdict(float)
    for s, t in zip(spans, own):
        calls[s[NAME]] += 1
        self_s[s[NAME]] += t

    def total(*names):
        return sum(self_s[n] for n in names)

    def ratio(a, b):
        return a / b if b else 0.0

    nf = [s for s in spans if s[NAME] == "groebner.normal_form"]
    outer_rank = [
        s for s in spans
        if s[NAME].startswith("linalg.") and not (s[PARENT] >= 0 and spans[s[PARENT]][NAME].startswith("linalg."))
    ]
    lifts = [s[NOTE] for s in spans if s[NAME] == "pipeline.lift_search" and s[NOTE]]
    scans = [s[NOTE] for s in spans if s[NAME] == "pipeline.scan_orders" and s[NOTE]]
    completions = [i for i, s in enumerate(spans) if s[NAME] == "groebner.buchberger"]
    candidates = sum(t for t, _ in lifts)
    valid = sum(v for _, v in lifts)
    orders = sum(o for o, _ in scans)
    return {
        "groebner.buchberger.calls": calls["groebner.buchberger"],
        "groebner.buchberger.self_s": self_s["groebner.buchberger"],
        "groebner.buchberger.cap_hits": sum(
            1 for s in spans if s[NAME] == "groebner.buchberger" and s[NOTE] == "DegreeCapExceeded"
        ),
        "groebner.normal_form.calls": calls["groebner.normal_form"],
        "groebner.normal_form.self_s": self_s["groebner.normal_form"],
        "groebner.normal_form.zero_frac": ratio(sum(1 for s in nf if s[NOTE] is True), len(nf)),
        "groebner.s_polynomial.self_s": self_s["groebner.s_polynomial"],
        "singularity.jacobian_rank_at.calls": calls["singularity.jacobian_rank_at"],
        "singularity.jacobian_rank_at.self_s": self_s["singularity.jacobian_rank_at"],
        "singularity.obstructions.self_s": total(
            "singularity.ci_obstruction", "singularity.leafless_obstruction",
            "singularity.lex_obstruction", "singularity.support_exclusions",
        ),
        "complexes.reduced_cohomology.calls": calls["complexes.reduced_cohomology"],
        "complexes.reduced_cohomology.self_s": self_s["complexes.reduced_cohomology"],
        "complexes.property_report.calls": calls["complexes.property_report"],
        "complexes.property_report.self_s": self_s["complexes.property_report"],
        "complexes.is_strongly_connected.calls": calls["complexes.is_strongly_connected"],
        "linalg.rank.calls": len(outer_rank),
        "linalg.rank.self_s": total("linalg.rank_int", "linalg.rank_mod_p", "linalg.rank_exact"),
        "linalg.rank.entries": sum(s[NOTE] for s in outer_rank),
        "pipeline.self_s": total(*(n for n in SPAN_NAMES if n.startswith("pipeline."))),
        "pipeline.lift.candidates": candidates,
        "pipeline.lift.valid": valid,
        "pipeline.lift.valid_frac": ratio(valid, candidates),
        "pipeline.lift.completions_per_candidate": ratio(
            sum(1 for i in completions if _under(spans, i, "pipeline.lift_search")), candidates
        ),
        "pipeline.scan.orders": orders,
        "pipeline.scan.distinct": sum(d for _, d in scans),
        "pipeline.scan.completions_per_order": ratio(
            sum(1 for i in completions if _under(spans, i, "pipeline.scan_orders")), orders
        ),
        "jobs.parse_job.self_s": self_s["jobs.parse_job"],
        "ring.parse_polynomial.calls": calls["ring.parse_polynomial"],
        "ring.parse_polynomial.self_s": self_s["ring.parse_polynomial"],
        "reporting.render_report.self_s": self_s["reporting.render_report"],
        "reporting.bytes": sum(s[NOTE] for s in spans if s[NAME] == "reporting.render_report" and s[NOTE]),
        "cli.self_s": self_s["cli.main"],
    }
