"""Seeded job files for the four benchmark workloads.

``generate(workload, seed, workdir)`` writes one job file per job and returns
the job list. The program only ever sees these files, run through
``grodeg.cli.main``. Everything random comes from ``random.Random(seed)``:
lift-search sample seeds, the random complexes and plane cubics, and the
scaling and ordering of the scan generators. Nothing here imports grodeg, so
the set-up time measures the import and the file writing, not library work.

Why each workload exists (see README.md for the full layer map):

* ``lift_valid``: lift searches where almost every candidate is valid, so the
  Jacobian at the coordinate points dominates; the order scan never runs.
* ``lift_invalid``: 5-cycle lift searches where no candidate is valid, so
  Buchberger rejection is nearly all the work and the Jacobian never runs.
* ``scan_minors``: permutation-order scans whose many completions collapse to
  a few initial ideals, the case Groebner-fan reuse would speed up.
* ``complex_zoo``: many small complex, analyze and point-count jobs, where
  cohomology, Reisner links, parsing and rendering carry the time.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import List, Tuple

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
CORPUS = ROOT / "corpus"
REFS = BENCH / "refs"

WORKLOADS = ("lift_valid", "lift_invalid", "scan_minors", "complex_zoo")


@dataclass(frozen=True)
class Job:
    """One CLI invocation: ``grodeg <command> <path> --out ...``.

    ``check`` names the output check (see checks.py) and ``params`` holds the
    generator's own description of the input, which the check uses instead of
    re-reading anything the program produced.
    """

    name: str
    command: str
    path: Path
    check: str
    params: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# fixed inputs


OCTAHEDRON = ((1, 2, 3), (1, 3, 4), (1, 4, 5), (1, 2, 5), (2, 3, 6), (3, 4, 6), (4, 5, 6), (2, 5, 6))
RP2 = ((1, 2, 3), (1, 2, 4), (1, 3, 5), (1, 4, 6), (1, 5, 6), (2, 3, 6), (2, 4, 5), (2, 5, 6), (3, 4, 5), (3, 4, 6))


def cycle(n: int) -> Tuple[Tuple[int, ...], ...]:
    return tuple(sorted(tuple(sorted((i, i % n + 1))) for i in range(1, n + 1)))


def cross_polytope(k: int) -> Tuple[Tuple[int, ...], ...]:
    """Boundary of the k-dimensional cross-polytope on vertices 1..2k."""
    return tuple(
        sorted(
            tuple(sorted(i + 1 + c * k for i, c in enumerate(choice)))
            for choice in itertools.product((0, 1), repeat=k)
        )
    )


def minors_2x2(rows: List[List[str]]) -> List[str]:
    """The 2x2 minors of a matrix of variable names, row-major order."""
    out = []
    for r1, r2 in itertools.combinations(range(len(rows)), 2):
        for c1, c2 in itertools.combinations(range(len(rows[0])), 2):
            out.append(f"{rows[r1][c1]}*{rows[r2][c2]} - {rows[r1][c2]}*{rows[r2][c1]}")
    return out


def _generic(nrows: int, ncols: int) -> List[List[str]]:
    names = [f"x{i}" for i in range(1, nrows * ncols + 1)]
    return [names[r * ncols : (r + 1) * ncols] for r in range(nrows)]


def _hankel(ncols: int) -> List[List[str]]:
    """2 x ncols Hankel matrix: its minors cut out the rational normal curve."""
    return [[f"x{c}" for c in range(ncols)], [f"x{c + 1}" for c in range(ncols)]]


# Scan ideals: (job name, variable names, generators). The 2x3 minors live in
# x1..x6 as in the corpus job analyze_determinantal.
SCAN_IDEALS = (
    ("minors_2x3", [f"x{i}" for i in range(1, 7)], minors_2x2(_generic(2, 3))),
    ("rnc_4", [f"x{i}" for i in range(4)], minors_2x2(_hankel(3))),
    ("rnc_5", [f"x{i}" for i in range(5)], minors_2x2(_hankel(4))),
)

ANALYZE_IDEALS = (
    ("minors_2x4", [f"x{i}" for i in range(1, 9)], minors_2x2(_generic(2, 4))),
    ("minors_3x3", [f"x{i}" for i in range(1, 10)], minors_2x2(_generic(3, 3))),
)

# Fixed complex jobs: (name, vertex count, facets, field).
FIXED_COMPLEXES = tuple(
    (f"cross_{2 * k}_{tag}", 2 * k, cross_polytope(k), fld)
    for k in range(2, 7)
    for tag, fld in (("qq", "QQ"), ("gf2", "GF(2)"))
) + (("rp2_qq", 6, RP2, "QQ"),) + tuple(
    (f"cycle_{n}", n, cycle(n), "QQ") for n in range(5, 9)
)

CORPUS_JOBS = {
    "lift_valid": ("lift_cycle3", "lift_cycle4"),
    "scan_minors": ("scan_fermat",),
    "complex_zoo": (
        "analyze_cubic", "analyze_determinantal", "complex_octahedron",
        "complex_rp2", "complex_path", "point_fermat",
    ),
}


def fixed_jobs() -> List[Tuple[str, str, str]]:
    """(name, command, job text) of every fixed input with a stored reference.

    Scan references are made from the unscaled generators; seeded runs
    compare everything in them except the generator list and its digest.
    """
    out = []
    for name, names, gens in SCAN_IDEALS:
        out.append((name, "scan-orders", _ideal_job(names, gens) + "family both\n"))
    for name, names, gens in ANALYZE_IDEALS:
        out.append((name, "analyze", _ideal_job(names, gens)))
    for name, n, facets, fld in FIXED_COMPLEXES:
        out.append((name, "complex", _complex_job(n, facets, fld)))
    return out


# ---------------------------------------------------------------------------
# job text


def render_facets(facets) -> str:
    return "facets: " + "; ".join(" ".join(str(v) for v in f) for f in facets)


def _ideal_job(names, gens) -> str:
    return f"ring QQ {','.join(names)}\nideal: {' ; '.join(gens)}\n"


def _complex_job(n, facets, fld) -> str:
    return f"vertices {n}\n{render_facets(facets)}\nfield {fld}\n"


def _lift_job(facets, *, budget, seed, pool=None, prime=0) -> str:
    text = render_facets(facets) + "\n"
    if prime:
        text += f"field GF({prime})\n"
    if pool is not None:
        text += "pool " + ",".join(str(c) for c in pool) + "\n"
    return text + f"budget {budget}\nseed {seed}\n"


def _scaled(gen: str, c: Fraction) -> str:
    return f"{c}*({gen})"


def random_complex(rng: random.Random, n: int, sizes) -> Tuple[Tuple[int, ...], ...]:
    """Facets of the given sizes on seeded vertices of 1..n. Mixed sizes give
    non-pure complexes, and vertices that no facet uses are ghosts."""
    cands = {frozenset(rng.sample(range(1, n + 1), size)) for size in sizes}
    maximal = [f for f in cands if not any(f < g for g in cands)]
    return tuple(sorted(tuple(sorted(f)) for f in maximal))


_CUBIC_MONOMIALS = [e for e in itertools.product(range(4), repeat=3) if sum(e) == 3]


def random_cubic(rng: random.Random, nterms: int) -> List[Tuple[Tuple[int, int, int], int]]:
    """Nonzero ternary cubic with coefficients in -3..3 (never 0 mod p > 3)."""
    monos = rng.sample(_CUBIC_MONOMIALS, nterms)
    return [(e, rng.choice((-3, -2, -1, 1, 2, 3))) for e in sorted(monos, reverse=True)]


def render_cubic(terms) -> str:
    out = ""
    for k, (e, c) in enumerate(terms):
        mono = "*".join(
            v if d == 1 else f"{v}^{d}" for v, d in zip(("x", "y", "z"), e) if d
        )
        sign = "-" if c < 0 else "+"
        if k == 0:
            out = ("-" if c < 0 else "") + f"{abs(c)}*{mono}"
        else:
            out += f" {sign} {abs(c)}*{mono}"
    return out


# ---------------------------------------------------------------------------
# workloads


def _corpus(workload: str, out: List[Job], workdir: Path):
    commands = {}
    for line in (CORPUS / "MANIFEST").read_text().splitlines():
        if line.strip():
            command, job, golden = line.split()
            commands[Path(job).stem] = (command, job, golden)
    for stem in CORPUS_JOBS.get(workload, ()):
        command, job, golden = commands[stem]
        path = workdir / f"corpus_{stem}.job"
        path.write_bytes((CORPUS / job).read_bytes())
        out.append(Job(f"corpus_{stem}", command, path, "golden", {"golden": str(CORPUS / golden)}))


def generate(workload: str, seed: int, workdir: Path) -> List[Job]:
    """Write the workload's job files for this seed into workdir."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    workdir.mkdir(parents=True, exist_ok=True)
    jobs: List[Job] = []

    def add(name, command, text, check, **params):
        path = workdir / f"{name}.job"
        path.write_text(text, encoding="utf-8")
        jobs.append(Job(name, command, path, check, params))

    # Sampled searches are split into several short jobs with their own
    # sample seeds, so that the host-speed probes between jobs (run.py) come
    # often enough to follow the host's speed.
    def lifts(name, facets, parts, budget, pool=None, prime=0):
        for k in range(parts):
            s = rng.randrange(10**6)
            add(f"{name}_{k}", "lift-search", _lift_job(facets, budget=budget, seed=s, pool=pool, prime=prime),
                "lift", facets=facets, n=max(max(f) for f in facets), prime=prime, pool=pool, budget=budget)

    if workload == "lift_valid":
        lifts("octahedron", OCTAHEDRON, 4, 25, pool=(-1, 1))
        lifts("cycle_4", cycle(4), 5, 50)
        _corpus(workload, jobs, workdir)

    elif workload == "lift_invalid":
        lifts("cycle_5_qq", cycle(5), 4, 10)
        lifts("cycle_5_gf3", cycle(5), 4, 15, prime=3)

    elif workload == "scan_minors":
        for name, names, gens in SCAN_IDEALS:
            gens = list(gens)
            rng.shuffle(gens)
            scaled = [
                _scaled(g, Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.choice((1, 2, 3))))
                for g in gens
            ]
            add(name, "scan-orders", _ideal_job(names, scaled) + "family both\n", "scan",
                names=names, gens=scaled, ref=str(REFS / f"{name}.json"), seed=rng.randrange(10**6))
        _corpus(workload, jobs, workdir)

    else:  # complex_zoo
        for name, n, facets, fld in FIXED_COMPLEXES:
            add(name, "complex", _complex_job(n, facets, fld), "ref", ref=str(REFS / f"{name}.json"))
        for name, names, gens in ANALYZE_IDEALS:
            add(name, "analyze", _ideal_job(names, gens), "ref", ref=str(REFS / f"{name}.json"))
        # Sizes are fixed per k and only the vertices are seeded, so the cost
        # of a pass barely depends on the seed. Every third complex is pure.
        for k in range(12):
            n = 5 + k % 4
            sizes = [3] * (3 + k % 3) if k % 3 == 0 else [(j + k) % 4 + 1 for j in range(3 + k % 3)]
            facets = random_complex(rng, n, sizes)
            prime = (0, 2, 0, 3)[k % 4]
            add(f"random_complex_{k}", "complex", _complex_job(n, facets, f"GF({prime})" if prime else "QQ"),
                "complex", n=n, facets=facets, prime=prime)
        for k in range(4):
            terms = random_cubic(rng, 3 + k)
            prime = (5, 7, 11, 13)[k]
            add(f"plane_cubic_{k}", "point-count",
                f"ring QQ x,y,z\nideal: {render_cubic(terms)}\nprime {prime}\n", "point",
                terms=terms, prime=prime)
        _corpus(workload, jobs, workdir)
    return jobs
