"""Write bench/refs/: the stored outputs of the benchmark's fixed jobs.

    python3 bench/make_refs.py

Each output is checked with the oracles before it is stored: every
permutation order of a scan (criterion-free Buchberger), the complex
properties and cohomology of each fixed complex, and the initial ideal and
cohomology of each fixed ``analyze``. Rerun only when an output is meant to
change, and say why in CHANGES.md.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

from workloads import ANALYZE_IDEALS, FIXED_COMPLEXES, REFS, ROOT, SCAN_IDEALS, fixed_jobs

sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import grodeg  # noqa: E402
from grodeg.cli import main as cli_main  # noqa: E402


def _facets_of(rendered: str):
    return [tuple(int(v) for v in f.split()) for f in rendered[len("facets: "):].split("; ")]


def verify(name: str, data) -> list:
    scans = {s[0]: s for s in SCAN_IDEALS}
    analyzes = {a[0]: a for a in ANALYZE_IDEALS}
    complexes = {c[0]: c for c in FIXED_COMPLEXES}
    o = checks.oracles()
    if name in scans:
        _, names, gens = scans[name]
        ctx = grodeg.standard_context(tuple(names))
        problems = []
        for report in data:
            want = sorted(
                grodeg.parse_polynomial(m, ctx, grodeg.MonomialOrder.degrevlex(ctx)).leading_monomial().exps
                for m in report["initial_ideal"]
            )
            for text in report["producing_orders"]:
                kind, spec = text.split()
                order = grodeg.MonomialOrder(kind, ctx, perm=tuple(names.index(v) for v in spec.split(">")))
                polys = [grodeg.parse_polynomial(g, ctx, order) for g in gens]
                if o.ref_initial_monomials(polys, order) != want:
                    problems.append(f"initial ideal under {text}")
        return problems
    if name in complexes:
        _, n, facets, fld = complexes[name]
        prime = 0 if fld == "QQ" else int(fld[3:-1])
        return checks.complex_problems(n, facets, prime, data)
    _, names, gens = analyzes[name]
    ctx = grodeg.standard_context(tuple(names))
    order = grodeg.MonomialOrder.degrevlex(ctx)
    polys = [grodeg.parse_polynomial(g, ctx, order) for g in gens]
    got = sorted(grodeg.parse_polynomial(m, ctx, order).leading_monomial().exps for m in data["initial_ideal"])
    problems = [] if got == o.ref_initial_monomials(polys, order) else ["initial ideal"]
    dims = checks.homology(_facets_of(data["facets"]), 0)
    if data["cohomology"]["dims"] != list(dims):
        problems.append("cohomology")
    return problems


def main() -> int:
    REFS.mkdir(exist_ok=True)
    tmp = ROOT / ".bench_work" / f"refs-{os.getpid()}"
    tmp.mkdir(parents=True)
    try:
        for name, command, text in fixed_jobs():
            job, out = tmp / f"{name}.job", tmp / f"{name}.json"
            job.write_text(text)
            if cli_main([command, str(job), "--out", str(out)]) != 0:
                print(f"{name}: the job failed", file=sys.stderr)
                return 1
            problems = verify(name, json.loads(out.read_bytes()))
            if problems:
                print(f"{name}: {problems[:3]}", file=sys.stderr)
                return 1
            shutil.copyfile(out, REFS / f"{name}.json")
            print(f"{name}: checked, stored")
    finally:
        shutil.rmtree(tmp)
        try:
            tmp.parent.rmdir()
        except OSError:
            pass  # a benchmark run still uses it
    return 0


if __name__ == "__main__":
    sys.exit(main())
