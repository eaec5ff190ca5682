"""Self-tests of the benchmark: run with ``python3 -m pytest bench/tests``."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracer as tracing  # noqa: E402
from workloads import WORKLOADS, generate  # noqa: E402

# Which wrapped functions each workload must reach. Together they name every
# traced function, so a wrapper the tracer failed to install shows up as a
# zero call count here.
EXPECTED_SPANS = {
    "lift_valid": {
        "cli.main", "jobs.parse_job", "reporting.render_report", "pipeline.lift_search",
        "groebner.buchberger", "groebner.normal_form", "singularity.jacobian_rank_at",
        "singularity.support_exclusions", "linalg.rank_exact", "linalg.rank_int",
    },
    "lift_invalid": {
        "pipeline.lift_search", "groebner.buchberger", "groebner.normal_form",
        "groebner.s_polynomial",
    },
    "scan_minors": {
        "pipeline.scan_orders", "pipeline.analyze", "ring.parse_polynomial",
        "groebner.buchberger", "groebner.s_polynomial", "singularity.ci_obstruction",
        "singularity.lex_obstruction", "complexes.property_report",
    },
    "complex_zoo": {
        "pipeline.analyze_complex", "pipeline.count_points", "pipeline.analyze",
        "singularity.leafless_obstruction", "complexes.reduced_cohomology",
        "complexes.property_report", "complexes.is_strongly_connected",
        "linalg.rank_int", "linalg.rank_mod_p",
    },
}
# Functions a workload must never reach: the split it was chosen for.
ABSENT_SPANS = {
    "lift_valid": {"pipeline.scan_orders"},
    "lift_invalid": {"singularity.jacobian_rank_at", "linalg.rank_exact"},
}


def _span(name, start, end, parent, note=None):
    return [name, start, end, parent, "job", note]


def test_self_time_arithmetic():
    spans = [
        _span("pipeline.analyze", 0.0, 10.0, -1),
        _span("groebner.buchberger", 1.0, 4.0, 0),
        _span("groebner.normal_form", 2.0, 3.0, 1, True),
        _span("singularity.jacobian_rank_at", 5.0, 9.0, 0),
        _span("linalg.rank_exact", 6.0, 8.5, 3, 6),
        _span("linalg.rank_int", 7.0, 8.0, 4, 6),
    ]
    assert tracing.self_times(spans) == [3.0, 2.0, 1.0, 1.5, 1.5, 1.0]
    m = tracing.layer_metrics(spans)
    assert m["pipeline.self_s"] == 3.0
    assert m["groebner.buchberger.self_s"] == 2.0
    assert m["groebner.normal_form.zero_frac"] == 1.0
    assert m["singularity.jacobian_rank_at.self_s"] == 1.5
    # nested rank calls: one outermost call and one matrix, all time counted
    assert m["linalg.rank.calls"] == 1
    assert m["linalg.rank.entries"] == 6
    assert m["linalg.rank.self_s"] == 2.5


def test_layer_ratios():
    spans = [
        _span("pipeline.lift_search", 0.0, 4.0, -1, (2, 1)),
        _span("groebner.buchberger", 0.5, 1.0, 0),
        _span("groebner.buchberger", 1.0, 2.0, 0),
        _span("groebner.buchberger", 2.0, 3.0, 0, "DegreeCapExceeded"),
        _span("pipeline.scan_orders", 4.0, 6.0, -1, (4, 2)),
        _span("pipeline.analyze", 5.0, 6.0, 4),
        _span("groebner.buchberger", 5.0, 5.5, 5),
    ]
    m = tracing.layer_metrics(spans)
    assert m["groebner.buchberger.cap_hits"] == 1
    assert m["pipeline.lift.valid_frac"] == 0.5
    assert m["pipeline.lift.completions_per_candidate"] == 1.5
    assert m["pipeline.scan.completions_per_order"] == 0.25
    assert m["pipeline.scan.distinct"] == 2


@pytest.mark.parametrize("workload", WORKLOADS)
def test_generator_is_deterministic(workload, tmp_path):
    def files(seed, where):
        jobs = generate(workload, seed, tmp_path / where)
        return [(j.name, j.command, j.path.read_bytes(), repr(j.params).replace(str(tmp_path), "")) for j in jobs]

    a, b = files(5, "a"), files(5, "b")
    assert [x[:3] for x in a] == [x[:3] for x in b]
    if workload != "complex_zoo":  # its fixed jobs carry no seed
        assert [x[2] for x in files(6, "c")] != [x[2] for x in a]
    else:
        assert files(6, "c") != a


def test_host_speed_probes_bracket_every_job(tmp_path):
    class Cli:
        @staticmethod
        def main(argv):
            time.sleep(0.002)
            return 0

    jobs = generate("lift_invalid", 1, tmp_path / "jobs")
    probes = []
    wall, times, codes = run.run_pass(Cli, jobs, tmp_path, probes=probes)
    assert len(probes) == len(jobs) + 1 and all(t > 0 for t in probes)
    assert codes == [0] * len(jobs) and wall == sum(times)  # probes are not job time
    assert all(t >= 0.002 for t in times)


@pytest.fixture(scope="module")
def traced_passes(tmp_path_factory):
    """One untraced and one traced pass of every workload, seed 3."""
    cli = run._fresh_import()
    out = {}
    for workload in WORKLOADS:
        work = tmp_path_factory.mktemp(workload)
        jobs = generate(workload, 3, work / "jobs")
        (work / "out").mkdir()
        _, _, codes = run.run_pass(cli, jobs, work / "out")
        plain = run.read_outputs(jobs, codes, work / "out")
        tr = tracing.Tracer()
        tr.start_pass()
        with tr.installed():
            _, _, tcodes = run.run_pass(cli, jobs, work / "out", tr)
        traced = run.read_outputs(jobs, tcodes, work / "out")
        out[workload] = (jobs, codes, plain, tcodes, traced, tr.spans)
    return out


def test_every_traced_function_is_expected_somewhere():
    assert set().union(*EXPECTED_SPANS.values()) == set(tracing.SPAN_NAMES)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_coverage_guard(workload, traced_passes):
    jobs, codes, plain, tcodes, traced, spans = traced_passes[workload]
    hit = {s[tracing.NAME] for s in spans}
    assert EXPECTED_SPANS[workload] <= hit, EXPECTED_SPANS[workload] - hit
    assert not (ABSENT_SPANS.get(workload, set()) & hit)
    assert codes == tcodes == [0] * len(jobs)
    assert plain == traced  # tracing never changes an output byte


@pytest.mark.parametrize("workload", WORKLOADS)
def test_outputs_pass_their_checks(workload, traced_passes):
    jobs, codes, plain, tcodes, traced, _ = traced_passes[workload]
    same = {k: traced[k] == v for k, v in plain.items()}
    failed, bad = run.tally(jobs, (codes, plain), [(tcodes, same)])
    assert (failed, bad) == (0, {})


@pytest.mark.parametrize("workload", WORKLOADS)
def test_corrupted_output_counts_as_failed(workload, traced_passes):
    jobs, codes, plain, _, _, _ = traced_passes[workload]
    for job in jobs:
        data = json.loads(plain[job.name])
        if job.check == "lift":
            data["candidates_tried"] += 1
        elif job.check == "scan":
            data[0]["producing_orders"].pop()
        elif job.check == "complex":
            data["cohomology"]["dims"][0] += 1
        elif job.check == "point":
            data["projective_points"] += 1
        else:
            data = {"corrupt": data}
        corrupt = dict(plain, **{job.name: json.dumps(data).encode()})
        same = {k: True for k in plain}
        failed, bad = run.tally(jobs, (codes, corrupt), [(codes, same)])
        assert failed == 2 and list(bad) == [job.name], job.name
    # a later pass that differs from the first, or exits non-zero, fails on its own
    same = {k: True for k in plain}
    assert run.tally(jobs, (codes, plain), [(codes, dict(same, **{jobs[0].name: False}))])[0] == 1
    assert run.tally(jobs, (codes, plain), [([1] + codes[1:], same)])[0] == 1


def test_metric_names_and_units_match_benchmark_json(traced_passes):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    produced = set(tracing.layer_metrics(traced_passes["lift_valid"][5])) | {"trace.overhead_frac"}
    assert {m["name"] for m in spec["per_layer"]} == produced
    for m in spec["per_layer"]:
        assert m["unit"] == run._unit(m["name"]), m["name"]
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "complex_zoo", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
