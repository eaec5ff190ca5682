"""Benchmark for grodeg: seeded workloads run through the command line path.

    python3 bench/run.py --workload lift_valid --seed 1 --seconds 25 --trace 0

Run from anywhere inside a source checkout (the script finds ``src/`` and
``corpus/`` next to its own directory). It generates the workload's job files
from the seed, then runs every job in order, in this one process, as
``grodeg.cli.main([command, job, "--out", file])`` with the default single
worker. One such sweep is a pass; passes repeat until ``--seconds`` have
passed. The first pass warms up and is not timed. Timings are the mean over
the other passes, scaled to reference seconds by reference_loop(), which runs
between the jobs (README.md, "Host speed", says why).
After the timed section every output is checked (checks.py) and every later
pass must repeat the first pass's bytes. A job run fails when it exits
non-zero, raises, or its output fails a check.

With ``--trace 1`` untraced and traced passes alternate. The traced ones run
with tracer.py's wrappers installed, and the fastest of them gives the
per-layer metrics; their outputs must be byte-identical to the untraced ones.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. Exit code 0 after a
completed run (even with failed jobs, which the JSON reports), 2 when the
checkout lacks the program or the arguments are bad.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

import checks
import tracer as tracing
from workloads import ROOT, WORKLOADS, generate

SETUP_REPEATS = 9
MIN_PASSES = 3  # timed passes per kind (untraced, traced), after one warm-up pass each

# Timings are reported in reference seconds: measured seconds times
# REFERENCE_LOOP_S over the mean time of reference_loop() sampled between the
# jobs of the same run. The loop never calls grodeg, so only the host's speed
# moves it (README.md, "Host speed").
REFERENCE_LOOP_S = 0.0025

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "job_p50_s": "s",
    "items_per_s": "1/s",
    "peak_rss_mib": "MiB",
}


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_frac") or name.endswith("_per_candidate") or name.endswith("_per_order"):
        return "ratio"
    if name == "reporting.bytes":
        return "bytes"
    return "count"


def _fresh_import():
    """Import grodeg from this checkout, dropping any copy already loaded."""
    for name in [k for k in sys.modules if k == "grodeg" or k.startswith("grodeg.")]:
        del sys.modules[name]
    import grodeg.cli

    return grodeg.cli


def _items(workload: str, jobs, outputs) -> int:
    """Units of work in one pass: lift candidates tried, orders scanned, or jobs."""
    if workload == "complex_zoo":
        return len(jobs)
    total = 0
    for job in jobs:
        data = json.loads(outputs[job.name]) if outputs.get(job.name) else None
        if data is None:
            continue
        if job.command == "lift-search":
            total += data["candidates_tried"]
        elif job.command == "scan-orders":
            total += sum(len(r["producing_orders"]) for r in data)
    return total


def reference_loop() -> float:
    """Seconds taken by fixed pure-Python work that never calls grodeg.

    Integer arithmetic, a sparse product with Fraction coefficients and
    tuple exponents, and dict, list and sort work: the kinds of work grodeg
    does, so that the host slows this loop about as much as the jobs.
    """
    t = time.perf_counter()
    s = 0
    for i in range(16000):
        s += i * i
    a = {(i, 3 - i % 4, i % 3): Fraction(i + 1, 7 - i % 5) for i in range(9)}
    b = {(i % 2, i, 5 - i % 6): Fraction(2 * i - 5, i + 2) for i in range(8)}
    prod = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = (ea[0] + eb[0], ea[1] + eb[1], ea[2] + eb[2])
            prod[e] = prod.get(e, 0) + ca * cb
    d, keys = {}, []
    for i in range(1, 600):
        d[(i, i % 7)] = i * 2654435761 % 1000003
        keys.append((i % 5, i % 3, i % 11))
    keys.sort()
    return time.perf_counter() - t


def run_pass(cli, jobs, outdir: Path, tracer=None, probes=None):
    """Run every job once; return (wall seconds, per-job seconds, exit codes).

    With a ``probes`` list, reference_loop() runs before each job and after
    the last one, outside the job times, and its times are appended there.
    """
    clock = time.perf_counter
    times, codes = [], []
    for job in jobs:
        if tracer is not None:
            tracer.job = job.name
        if probes is not None:
            probes.append(reference_loop())
        t = clock()
        try:
            rc = cli.main([job.command, str(job.path), "--out", str(outdir / f"{job.name}.out")])
        except Exception as e:  # an uncaught exception is a failed job
            rc = f"{type(e).__name__}: {e}"
        times.append(clock() - t)
        codes.append(rc)
    if probes is not None:
        probes.append(reference_loop())
    return sum(times), times, codes


def read_outputs(jobs, codes, outdir: Path):
    out = {}
    for job, rc in zip(jobs, codes):
        path = outdir / f"{job.name}.out"
        out[job.name] = path.read_bytes() if rc == 0 and path.is_file() else None
        if path.exists():
            path.unlink()
    return out


def tally(jobs, first, later):
    """Check the first pass's outputs, then count failed job runs.

    ``first`` is (exit codes, outputs by job name) of the first pass, and
    ``later`` holds (exit codes, whether each job's output equals the first
    pass's) for every other pass. A run fails when it exits non-zero, when its
    job's output fails the check, or when its output differs from the first
    pass's. Returns (failed runs, problems by job).
    """
    codes0, outputs0 = first
    bad = {}
    for job, rc in zip(jobs, codes0):
        problems = [f"exit {rc}"] if outputs0[job.name] is None else checks.check(job, outputs0[job.name])
        if problems:
            bad[job.name] = problems
    failed = len(bad)
    for codes, same in later:
        for job, rc in zip(jobs, codes):
            if rc != 0 or job.name in bad or not same[job.name]:
                failed += 1
    return failed, bad


def measure(workload: str, seed: int, seconds: float, trace: bool, workdir: Path) -> dict:
    setup, setup_probes = [], []
    for _ in range(SETUP_REPEATS):
        if workdir.exists():
            shutil.rmtree(workdir)
        setup_probes.append(reference_loop())
        t = time.perf_counter()
        cli = _fresh_import()
        jobs = generate(workload, seed, workdir / "jobs")
        setup.append(time.perf_counter() - t)
    setup_probes.append(reference_loop())
    outdir = workdir / "out"
    outdir.mkdir()

    tr = tracing.Tracer() if trace else None
    first = None  # (codes, outputs) of the first pass; later passes keep only a comparison
    # (traced, wall, job times, codes, output equals the first pass's,
    #  reference_loop() times around the jobs of an untraced pass)
    passes = []
    deadline = time.perf_counter() + seconds
    while True:
        traced = trace and len(passes) % 2 == 1
        gc.collect()
        probes = []
        if traced:
            tr.start_pass()
            with tr.installed():
                wall, times, codes = run_pass(cli, jobs, outdir, tr)
        else:
            wall, times, codes = run_pass(cli, jobs, outdir, probes=probes)
        outputs = read_outputs(jobs, codes, outdir)
        if first is None:
            first = (codes, outputs)
        passes.append((traced, wall, times, codes, {k: v == first[1][k] for k, v in outputs.items()}, probes))
        kinds = 2 if trace else 1
        if time.perf_counter() >= deadline and len(passes) >= (MIN_PASSES + 1) * kinds:
            break
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    failed, bad = tally(jobs, first, [(p[3], p[4]) for p in passes[1:]])
    attempted = len(jobs) * len(passes)
    for name, problems in bad.items():
        print(f"FAILED {workload}/{name}: {'; '.join(map(str, problems[:3]))}", file=sys.stderr)

    # The first pass of each kind warms caches and is not timed. Measured
    # seconds are scaled to the reference speed: the host's speed drifts by up
    # to 2x over seconds and between runs, and reference_loop() slows with it
    # (README.md, "Host speed"). A ratio of means, so that the share of time
    # the host spends slow cancels out.
    plain = [p for p in passes if not p[0]][1:]
    probes = [t for p in plain for t in p[5]]
    scale = REFERENCE_LOOP_S / statistics.fmean(probes)
    per_job = [statistics.fmean(p[2][k] for p in plain) * scale for k in range(len(jobs))]
    wall = sum(per_job)
    if trace:
        traced_passes = [p for p in passes if p[0]]
        k = min(range(1, len(traced_passes)), key=lambda i: traced_passes[i][1])
        values = tracing.layer_metrics(tr.passes[k])
        traced_wall = statistics.fmean(p[1] for p in traced_passes[1:])
        values["trace.overhead_frac"] = traced_wall / statistics.fmean(p[1] for p in plain) - 1.0
    else:
        values = {
            "setup_s": statistics.median(setup) * REFERENCE_LOOP_S / statistics.fmean(setup_probes),
            "wall_s": wall,
            "job_p50_s": statistics.median(per_job),
            "items_per_s": _items(workload, jobs, first[1]) / wall,
            "peak_rss_mib": peak_rss_mib,
        }
    print(
        f"workload={workload} seed={seed} jobs={len(jobs)} passes={len(passes)}"
        f" ({len(plain)} timed untraced{f', {len(traced_passes) - 1} timed traced' if trace else ''})"
        f" wall_s={wall:.4f} median pass={statistics.median(p[1] for p in plain):.4f} s measured"
        f" reference_loop={statistics.fmean(probes) * 1e3:.3f} ms (reference {REFERENCE_LOOP_S * 1e3:.3f})"
        f" failed={failed}/{attempted}"
    )
    for name, value in values.items():
        unit = END_TO_END_UNITS.get(name) or _unit(name)
        print(f"  {name:45s} {value:14.6g} {unit}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": END_TO_END_UNITS.get(name) or _unit(name)}
            for name, value in values.items()
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    needed = [ROOT / "src" / "grodeg" / "cli.py", ROOT / "corpus" / "MANIFEST", ROOT / "tests" / "conftest.py"]
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if missing:
        print(f"bench: not a grodeg checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run still uses it
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
