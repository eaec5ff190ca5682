"""Output checks, run after the timed section.

Fixed inputs are compared byte for byte: corpus jobs with the corpus
goldens, the other fixed jobs with ``refs/`` (written by make_refs.py, which
checks each one with the oracles below before storing it). Seeded inputs are
checked against the independent oracles in ``tests/conftest.py``: the
criterion-free Buchberger for initial ideals, ``ref_homology_dims`` for
cohomology, plain Gaussian elimination for ranks, and brute-force point
counts. The library's own parser and ``Polynomial`` type carry polynomials
into those oracles, as they do in the test suite.

``buchsbaum`` and ``free_faces`` are wrong today on non-pure complexes, so
they are checked only on pure ones; no wrong value is encoded as expected.
``normal`` and the lift ``support_violations`` are not checked.

Each check returns a list of problems; an empty list means the output passed.
"""

from __future__ import annotations

import importlib.util
import itertools
import json
import random
from fractions import Fraction
from pathlib import Path

from workloads import ROOT, Job, render_facets

_ORACLES = None


def oracles():
    """tests/conftest.py, loaded by path so the benchmark shares its oracles."""
    global _ORACLES
    if _ORACLES is None:
        path = ROOT / "tests" / "conftest.py"
        spec = importlib.util.spec_from_file_location("grodeg_test_oracles", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        _ORACLES = module
    return _ORACLES


def check(job: Job, output: bytes) -> list:
    try:
        return _CHECKS[job.check](job, output)
    except Exception as e:  # a malformed output is a failed check, not a crash
        return [f"check raised {type(e).__name__}: {e}"]


def _expect(problems, what, got, want):
    if got != want:
        problems.append(f"{what}: got {got!r}, want {want!r}")


# ---------------------------------------------------------------------------
# byte-for-byte


def _golden(job: Job, output: bytes) -> list:
    return [] if output == Path(job.params["golden"]).read_bytes() else ["differs from golden"]


def _ref(job: Job, output: bytes) -> list:
    return [] if output == Path(job.params["ref"]).read_bytes() else ["differs from stored reference"]


# ---------------------------------------------------------------------------
# complexes


class Complex:
    """Just enough of a complex for ``ref_homology_dims``: faces by dimension."""

    def __init__(self, facets):
        self.facets = [tuple(sorted(f)) for f in facets]
        self.dim = max(len(f) for f in self.facets) - 1

    def faces_by_dim(self):
        groups = [set() for _ in range(self.dim + 1)]
        for f in self.facets:
            for size in range(1, len(f) + 1):
                groups[size - 1].update(itertools.combinations(f, size))
        return [sorted(g) for g in groups]

    def link(self, face):
        """Facets of the link, or None when face is a facet (empty link)."""
        fs = set(face)
        rest = [tuple(v for v in f if v not in fs) for f in self.facets if fs <= set(f)]
        maximal = {r for r in rest if not any(set(r) < set(o) for o in rest)}
        return None if maximal == {()} else sorted(maximal)


def homology(facets, prime):
    """Reduced homology dimensions of the complex with these facets (oracle)."""
    return oracles().ref_homology_dims(Complex(facets), prime)


def _vanishes_below_top(facets, prime):
    dims = homology(facets, prime)
    return all(d == 0 for d in dims[:-1])


def _strongly_connected(facets):
    if len(facets) == 1:
        return True
    if len({len(f) for f in facets}) != 1:
        return False
    size = len(facets[0])
    seen, queue = {0}, [0]
    while queue:
        a = queue.pop()
        for b, g in enumerate(facets):
            if b not in seen and len(set(facets[a]) & set(g)) == size - 1:
                seen.add(b)
                queue.append(b)
    return len(seen) == len(facets)


def complex_problems(n, facets, prime, data) -> list:
    """Check a ``complex`` report against the textbook definitions."""
    problems = []
    cx = Complex(facets)
    d = cx.dim
    faces = cx.faces_by_dim()
    dims = homology(facets, prime)
    field = f"GF({prime})" if prime else "QQ"
    _expect(problems, "facets", data["facets"], render_facets(cx.facets))
    _expect(problems, "n", data["n"], n)
    _expect(problems, "dim", data["dim"], d)
    _expect(problems, "f_vector", data["f_vector"], [len(g) for g in faces])
    coh = data["cohomology"]
    _expect(problems, "cohomology.dims", coh["dims"], list(dims))
    _expect(problems, "cohomology.field", coh["field"], field)
    _expect(problems, "euler", coh["reduced_euler_characteristic"], sum((-1) ** i * x for i, x in enumerate(dims)))
    _expect(problems, "cohomology.acyclic", coh["acyclic"], not any(dims))

    vertices = sorted({v for f in facets for v in f})
    ghosts = [v for v in range(1, n + 1) if v not in vertices]
    pure = len({len(f) for f in facets}) == 1
    counts = {v: sum(1 for f in facets if v in f) for v in vertices}
    cm = _vanishes_below_top(facets, prime)
    buchsbaum = True
    for face in itertools.chain.from_iterable(faces):
        lk = cx.link(face)
        if lk is not None and not _vanishes_below_top(lk, prime):
            cm = buchsbaum = False
    props = data["properties"]
    expected = {
        "pure": pure,
        "strongly_connected": _strongly_connected(cx.facets),
        "cohen_macaulay": cm,
        "acyclic": not any(dims),
        "negative_a_invariant_given_cm": dims[d] == 0,
        "leaves": [v for v in vertices if counts[v] == 1],
        "cone_points": [v for v in vertices if counts[v] == len(facets)],
        "ghost_vertices": ghosts,
    }
    if pure:
        expected["buchsbaum"] = buchsbaum
        expected["free_faces"] = [
            list(f) for f in (faces[d - 1] if d >= 1 else [])
            if sum(1 for g in facets if set(f) <= set(g)) == 1
        ]
    for key, want in expected.items():
        _expect(problems, f"properties.{key}", props[key], want)

    lex = data["lex_obstruction"]
    link_sizes = {v: len({u for f in facets if v in f for u in f if u != v}) for v in vertices}
    certified = not ghosts and all(s > d for s in link_sizes.values())
    _expect(problems, "lex_obstruction.kind", lex["kind"], "lex_link")
    _expect(problems, "lex_obstruction.certified", lex["certified"], certified)
    _expect(problems, "lex_obstruction.applicable", lex["applicable"], certified)
    return problems


def _complex(job: Job, output: bytes) -> list:
    p = job.params
    return complex_problems(p["n"], p["facets"], p["prime"], json.loads(output))


# ---------------------------------------------------------------------------
# point counts


def _point(job: Job, output: bytes) -> list:
    import grodeg

    p = job.params["prime"]
    ctx = grodeg.standard_context(("x", "y", "z"))
    order = grodeg.MonomialOrder.degrevlex(ctx)
    poly = grodeg.Polynomial(ctx, order, [(grodeg.Monomial(e), c) for e, c in job.params["terms"]])
    count = oracles().brute_projective_count(poly, p)
    data = json.loads(output)
    problems = []
    _expect(problems, "prime", data["prime"], p)
    _expect(problems, "projective_points", data["projective_points"], count)
    _expect(problems, "trace", data["trace"], p + 1 - count)
    return problems


# ---------------------------------------------------------------------------
# lift searches


def _coeff(c, prime):
    if prime:
        return int(getattr(c, "v", c)) % prime
    return Fraction(c)


def lift_problems(params, data) -> list:
    """Check a lift-search report over degrevlex x1 > ... > xn.

    Each listed lift must be a Groebner basis whose initial ideal is the
    non-face ideal (criterion-free Buchberger), with tails outside that ideal,
    and its Jacobian verdicts must match an exact rank computed here. The
    counts must agree with the candidate space computed from the facets.
    """
    import grodeg

    o = oracles()
    n, prime, facets = params["n"], params["prime"], params["facets"]
    field = grodeg.field_from_string(f"GF({prime})" if prime else "QQ")
    names = tuple(f"x{i}" for i in range(1, n + 1))
    ctx = grodeg.standard_context(names, field=field)
    order = grodeg.MonomialOrder.degrevlex(ctx)
    problems = []

    faceset = [set(f) for f in facets]
    is_face = lambda s: any(set(s) <= f for f in faceset)
    nonfaces = [
        s for size in range(1, n + 1) for s in itertools.combinations(range(1, n + 1), size)
        if not is_face(s) and all(is_face(s[:k] + s[k + 1:]) for k in range(size))
    ]
    targets = sorted(tuple(1 if v in s else 0 for v in range(1, n + 1)) for s in nonfaces)
    in_ideal = lambda e: any(all(a >= b for a, b in zip(e, t)) for t in targets)
    perm = list(range(n))
    slots = 0
    for t in targets:
        deg = sum(t)
        for e in itertools.product(range(deg + 1), repeat=n):
            if sum(e) == deg and o.ref_degrevlex_cmp(e, t, perm) < 0 and not in_ideal(e):
                slots += 1
    pool = params["pool"]
    npool = len({Fraction(c) for c in pool}) if pool is not None else (prime or 4)
    space = npool ** slots
    budget = params["budget"]
    exhaustive = space <= budget
    _expect(problems, "candidate_space", data["candidate_space"], space)
    _expect(problems, "exhaustive", data["exhaustive"], exhaustive)
    _expect(problems, "candidates_tried", data["candidates_tried"], space if exhaustive else budget)
    _expect(problems, "facets", data["facets"], render_facets(sorted(facets)))
    _expect(problems, "top_variable", data["top_variable"], "x1")
    got_targets = sorted(
        grodeg.parse_polynomial(t, ctx, order).leading_monomial().exps for t in data["targets"]
    )
    _expect(problems, "targets", got_targets, targets)
    lifts = data["valid_lifts"]
    _expect(problems, "valid_lift_count", data["valid_lift_count"], len(lifts))
    if len({tuple(lift["generators"]) for lift in lifts}) != len(lifts):
        problems.append("duplicate valid lifts")

    dim = max(len(f) for f in facets) - 1
    codim = n - 1 - dim
    singular_at_top = 0
    for k, lift in enumerate(lifts):
        polys = [grodeg.parse_polynomial(g, ctx, order) for g in lift["generators"]]
        where = f"lift {k}"
        if sorted(g.leading_monomial().exps for g in polys) != targets:
            problems.append(f"{where}: leading monomials are not the minimal non-faces")
            continue
        if any(g.leading_coefficient() != field.one for g in polys):
            problems.append(f"{where}: not monic")
        if any(in_ideal(m.exps) for g in polys for m, _ in g.terms[1:]):
            problems.append(f"{where}: a tail lies in the non-face ideal")
        if o.ref_initial_monomials(polys, order) != targets:
            problems.append(f"{where}: not a Groebner basis of the non-face ideal")
        points = lift["coordinate_points"]
        coeffs = [{m.exps: _coeff(c, prime) for m, c in g.terms} for g in polys]
        verdicts = []
        for i in range(n):
            values = []
            rows = []
            for g, cf in zip(polys, coeffs):
                deg = g.leading_monomial().degree()
                top = tuple(deg if v == i else 0 for v in range(n))
                values.append(cf.get(top, 0))
                row = []
                for j in range(n):
                    e = list(top)
                    e[i] -= 1
                    e[j] += 1
                    c = cf.get(tuple(e), 0)
                    row.append(c * deg if j == i else c)
                rows.append(row)
            on = not any(values)
            rank = o.ref_rank_mod_p(rows, prime) if prime else o.ref_rank_fraction(rows)
            verdict = "off_scheme" if not on else ("singular" if rank < codim else "smooth")
            verdicts.append((on, verdict))
            want = {
                "point": "[" + ":".join("1" if v == i else "0" for v in range(n)) + "]",
                "on_scheme": on, "rank": rank, "expected_codim": codim, "verdict": verdict,
            }
            got = {key: points[i][key] for key in want}
            _expect(problems, f"{where} point {i}", got, want)
        on_pts = [v for on, v in verdicts if on]
        every = bool(on_pts) and all(v == "singular" for v in on_pts)
        _expect(problems, f"{where} singular_at_every_scheme_point", lift["singular_at_every_scheme_point"], every)
        singular_at_top += verdicts[0][1] == "singular"
    _expect(problems, "lifts_singular_at_top_point", data["lifts_singular_at_top_point"], singular_at_top)
    return problems


def _lift(job: Job, output: bytes) -> list:
    return lift_problems(job.params, json.loads(output))


# ---------------------------------------------------------------------------
# order scans


SCAN_ORACLE_ORDERS = 3


def _without_presentation(reports):
    return [{k: v for k, v in r.items() if k not in ("generators", "ideal_digest")} for r in reports]


def scan_problems(params, data) -> list:
    """Compare with the reference scan of the unscaled generators, then
    recompute the initial ideal of a few seeded orders with the oracle."""
    import grodeg

    problems = []
    ref = json.loads(Path(params["ref"]).read_text())
    if _without_presentation(data) != _without_presentation(ref):
        problems.append("reduced bases, initial ideals or groupings differ from the reference")
    names = params["names"]
    n = len(names)
    orders = [r for report in data for r in report["producing_orders"]]
    want = [f"{kind} {'>'.join(names[i] for i in perm)}"
            for kind in ("lex", "degrevlex") for perm in itertools.permutations(range(n))]
    if sorted(orders) != sorted(want):
        problems.append("producing orders do not cover each permutation order exactly once")
    ctx = grodeg.standard_context(tuple(names))
    initial_of = {r: report["initial_ideal"] for report in data for r in report["producing_orders"]}
    for text in random.Random(params["seed"]).sample(want, SCAN_ORACLE_ORDERS):
        kind, spec = text.split()
        perm = tuple(names.index(v) for v in spec.split(">"))
        order = grodeg.MonomialOrder(kind, ctx, perm=perm)
        gens = [grodeg.parse_polynomial(g, ctx, order) for g in params["gens"]]
        got = sorted(grodeg.parse_polynomial(m, ctx, order).leading_monomial().exps
                     for m in initial_of.get(text, []))
        _expect(problems, f"initial ideal under {text}", got, oracles().ref_initial_monomials(gens, order))
    return problems


def _scan(job: Job, output: bytes) -> list:
    return scan_problems(job.params, json.loads(output))


_CHECKS = {
    "golden": _golden,
    "ref": _ref,
    "complex": _complex,
    "point": _point,
    "lift": _lift,
    "scan": _scan,
}
