"""Shared helpers: independent reference implementations used as oracles.

Everything here is deliberately written from scratch against the textbook
definitions (plain Gaussian elimination, first-difference comparators,
criterion-free completion, quotient ideals by elimination, brute-force
counting) so that agreement with the library is a real check and not a
tautology.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

from grodeg import (
    Monomial,
    MonomialOrder,
    Polynomial,
    RingContext,
    SimplicialComplex,
    buchberger,
    normal_form,
    s_polynomial,
    standard_context,
)
from grodeg.groebner import DEFAULT_DEGREE_CAP
from hypothesis import settings

# One bound for every fuzz suite: the same examples on every run, none stored
# between runs, and no per-example deadline on a loaded machine.
settings.register_profile("fuzz", derandomize=True, database=None, deadline=None, max_examples=150)
FUZZ = settings.get_profile("fuzz")


# ---------------------------------------------------------------------------
# reference linear algebra


def ref_rank_fraction(rows):
    """Rank over QQ by plain fraction Gaussian elimination."""
    m = [[Fraction(x) for x in row] for row in rows]
    if not m or not m[0]:
        return 0
    nrows, ncols = len(m), len(m[0])
    rank = 0
    for col in range(ncols):
        pivot = next((i for i in range(rank, nrows) if m[i][col]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        pv = m[rank][col]
        m[rank] = [x / pv for x in m[rank]]
        for i in range(nrows):
            if i != rank and m[i][col]:
                f = m[i][col]
                m[i] = [a - f * b for a, b in zip(m[i], m[rank])]
        rank += 1
    return rank


def ref_rank_mod_p(rows, p):
    """Rank over GF(p), reducing entries first."""
    m = [[int(x) % p for x in row] for row in rows]
    if not m or not m[0]:
        return 0
    nrows, ncols = len(m), len(m[0])
    rank = 0
    for col in range(ncols):
        pivot = next((i for i in range(rank, nrows) if m[i][col]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        inv = pow(m[rank][col], p - 2, p)
        m[rank] = [x * inv % p for x in m[rank]]
        for i in range(nrows):
            if i != rank and m[i][col]:
                f = m[i][col]
                m[i] = [(a - f * b) % p for a, b in zip(m[i], m[rank])]
        rank += 1
    return rank


# ---------------------------------------------------------------------------
# reference monomial comparators
#
# Both return -1 / 0 / +1 for a <order b / equal / a >order b, taking raw
# exponent tuples plus the permutation listing variables from largest to
# smallest.


def ref_lex_cmp(a, b, perm):
    for i in perm:
        if a[i] != b[i]:
            return 1 if a[i] > b[i] else -1
    return 0


def ref_degrevlex_cmp(a, b, perm, grading=None):
    if grading is None:
        da, db = sum(a), sum(b)
    else:
        da = sum(e * w for e, w in zip(a, grading))
        db = sum(e * w for e, w in zip(b, grading))
    if da != db:
        return 1 if da > db else -1
    # same degree: the monomial whose last difference (scanning the
    # permutation from the smallest variable back) is negative is larger
    for i in reversed(perm):
        if a[i] != b[i]:
            return -1 if a[i] > b[i] else 1
    return 0


def ref_keeps_marking(B, kind, perm):
    """Whether every element of the basis ``B`` still has its marked leading
    monomial under the permutation order ``(kind, perm)``, term by term."""
    if kind == "lex":
        cmp = lambda a, b: ref_lex_cmp(a, b, perm)
    else:
        cmp = lambda a, b: ref_degrevlex_cmp(a, b, perm, B.ctx.grading)
    for g in B.polys:
        lead = g.terms[0][0].exps
        if any(cmp(m.exps, lead) > 0 for m, _ in g.terms[1:]):
            return False
    return True


# ---------------------------------------------------------------------------
# textbook evaluation, differentiation and scaling
#
# Each takes a polynomial as a list of (exponents, coefficient) terms, and
# reads a coefficient or coordinate that is an int, a Fraction or a GF(p)
# element as a plain number: an exact Fraction, or a residue mod p.


def ref_terms(f):
    """The terms of the polynomial ``f`` as (exponents, coefficient) pairs."""
    return [(m.exps, c) for m, c in f.terms]


def _ref_scalar(c, p=0):
    """``c`` as a Fraction (p = 0) or as its residue mod the prime p."""
    c = Fraction(getattr(c, "v", c))
    return c.numerator * pow(c.denominator, -1, p) % p if p else c


def ref_evaluate(terms, point, p=0):
    """The sum of c * x^e over the terms at ``point``: over QQ, or mod p."""
    xs = [_ref_scalar(x, p) for x in point]
    total = 0
    for exps, c in terms:
        value = _ref_scalar(c, p)
        for x, e in zip(xs, exps):
            value *= pow(x, e, p) if p else x**e
        total += value
    return total % p if p else total


def ref_partial_derivative(terms, i):
    """d/dx_i term by term: e * c * x^(exps - unit_i) for each term whose
    exponent e of x_i is positive. A coefficient e * c may be 0 mod p."""
    return [(exps[:i] + (exps[i] - 1,) + exps[i + 1 :], c * exps[i]) for exps, c in terms if exps[i]]


def ref_monic(terms):
    """The terms, leading term first, divided by the leading coefficient."""
    lc = terms[0][1]
    return [(key, c / lc) for key, c in terms]


# ---------------------------------------------------------------------------
# seeded random generators


def random_monomial(rng: random.Random, n, maxdeg=4):
    exps = [0] * n
    for _ in range(rng.randint(0, maxdeg)):
        exps[rng.randrange(n)] += 1
    return Monomial(tuple(exps))


def random_poly(rng: random.Random, ctx, order, nterms=4, maxdeg=4):
    terms = []
    for _ in range(rng.randint(1, nterms)):
        c = rng.choice([-3, -2, -1, 1, 2, 3])
        terms.append((random_monomial(rng, ctx.n, maxdeg), c))
    return Polynomial(ctx, order, terms)


def random_homogeneous_poly(rng: random.Random, ctx, order, deg, nterms=4):
    """Nonzero homogeneous polynomial of the given degree (standard grading)."""
    while True:
        terms = []
        for _ in range(rng.randint(1, nterms)):
            exps = [0] * ctx.n
            for _ in range(deg):
                exps[rng.randrange(ctx.n)] += 1
            c = rng.choice([-3, -2, -1, 1, 2, 3])
            terms.append((Monomial(tuple(exps)), c))
        p = Polynomial(ctx, order, terms)
        if not p.is_zero():
            return p


def random_complex(rng: random.Random, n, max_facets=6):
    """Random simplicial complex on vertex slots 1..n (ghosts allowed)."""
    while True:
        cands = []
        for _ in range(rng.randint(1, max_facets)):
            k = rng.randint(1, min(n, 4))
            cands.append(tuple(sorted(rng.sample(range(1, n + 1), k))))
        try:
            return SimplicialComplex.from_facets(n, cands)
        except ValueError:
            continue


# ---------------------------------------------------------------------------
# criterion-free Buchberger (initial ideal and reduced basis oracles)


def _ref_quotient(a, b):
    """The monomial a / b, for b dividing a."""
    return Monomial(tuple(x - y for x, y in zip(a.exps, b.exps)))


def ref_times_term(f, mono, coeff):
    """coeff * mono * f, term by term through the constructor, which sorts and
    drops zeros itself."""
    coeff = f.ctx.field.of(coeff)
    terms = [(Monomial(tuple(a + b for a, b in zip(m.exps, mono.exps))), c * coeff) for m, c in f.terms]
    return Polynomial(f.ctx, f.order, terms)


def ref_monic_poly(f):
    """f divided by its leading coefficient, through ``ref_monic``."""
    return Polynomial(f.ctx, f.order, ref_monic(f.terms))


def ref_s_polynomial(f, g):
    """x^(l - lead f) * f - x^(l - lead g) * g, l the lcm of the leads."""
    lf, lg = f.leading_monomial(), g.leading_monomial()
    l = Monomial(tuple(max(x, y) for x, y in zip(lf.exps, lg.exps)))
    return ref_times_term(f, _ref_quotient(l, lf), 1) - ref_times_term(g, _ref_quotient(l, lg), 1)


def _ref_reduce(p, basis):
    """Full normal form, always taking the first divisor in list order."""
    remainder = []
    while not p.is_zero():
        lm, lc = p.leading_term()
        for g in basis:
            glm, glc = g.leading_term()
            if glm.divides(lm):
                p = p - ref_times_term(g, _ref_quotient(lm, glm), lc / glc)
                break
        else:
            remainder.append((lm, lc))
            p = Polynomial(p.ctx, p.order, p.terms[1:])
    return Polynomial(p.ctx, p.order, remainder)


def _ref_complete(gens, order):
    """A Groebner basis by pair-exhaustive completion: no product or chain
    criterion, no degree cap, so only suitable for the small inputs the tests
    feed it."""
    basis = [ref_monic_poly(g.with_order(order)) for g in gens if not g.is_zero()]
    pairs = [(i, j) for i in range(len(basis)) for j in range(i)]
    while pairs:
        i, j = pairs.pop()
        r = _ref_reduce(ref_s_polynomial(basis[i], basis[j]), basis)
        if not r.is_zero():
            basis.append(ref_monic_poly(r))
            pairs.extend((len(basis) - 1, k) for k in range(len(basis) - 1))
    return basis


def _ref_minimal(basis):
    """The elements whose lead no other lead divides; of equal leads, the first."""
    leads = [g.leading_monomial() for g in basis]
    return [
        g
        for k, g in enumerate(basis)
        if not any(h.divides(leads[k]) and (h != leads[k] or m < k) for m, h in enumerate(leads) if m != k)
    ]


def ref_initial_monomials(gens, order):
    """Minimal generators of the initial ideal, via pair-exhaustive completion."""
    return sorted(g.leading_monomial().exps for g in _ref_minimal(_ref_complete(gens, order)))


def ref_reduced_basis(gens, order):
    """The reduced Groebner basis: each minimal element of the pair-exhaustive
    completion reduced by the others and made monic, sorted by decreasing lead.
    It is unique, so any correct completion must give it term for term."""
    minimal = _ref_minimal(_ref_complete(gens, order))
    reduced = [ref_monic_poly(_ref_reduce(g, [h for h in minimal if h is not g])) for g in minimal]
    return sorted(reduced, key=lambda g: order.sort_key(g.leading_monomial()), reverse=True)


def random_path_reduce(rng: random.Random, p, basis):
    """Normal form via random reduction choices (any reducible term, any divisor)."""
    while True:
        options = []
        for t_idx, (m, c) in enumerate(p.terms):
            for g in basis:
                if g.leading_monomial().divides(m):
                    options.append((t_idx, g))
        if not options:
            return p
        t_idx, g = rng.choice(options)
        m, c = p.terms[t_idx]
        glm, glc = g.leading_term()
        p = p - ref_times_term(g, _ref_quotient(m, glm), c / glc)


# ---------------------------------------------------------------------------
# regular variables by elimination (the quotient ideal I : x_i)


def _elimination_order(ext_ctx: RingContext) -> MonomialOrder:
    """Matrix order: tag variable (column 0) first, graded revlex on the rest."""
    n = ext_ctx.n - 1
    rows = [tuple(1 if c == 0 else 0 for c in range(n + 1))]
    rows.append((0,) + ext_ctx.grading[1:])
    for col in range(n, 1, -1):
        rows.append(tuple(-1 if c == col else 0 for c in range(n + 1)))
    return MonomialOrder.matrix(ext_ctx, rows)


def _fresh_tag_name(names) -> str:
    tag = "t"
    while tag in names:
        tag = "_" + tag
    return tag


def ref_is_variable_regular(B, i: int, *, degree_cap: int = DEFAULT_DEGREE_CAP) -> bool:
    """Whether x_i is a nonzerodivisor on the quotient ring, via (I : x_i) = I.

    The quotient ideal is computed with a tag variable t: the t-free part of
    a Groebner basis of t*I + (1-t)*(x_i) under an elimination order
    generates I intersect (x_i); dividing by x_i gives (I : x_i).
    """
    ctx = B.ctx
    if not B.is_proper():
        raise ValueError("basis generates the unit ideal")
    if not 0 <= i < ctx.n:
        raise ValueError(f"variable index {i} out of range")
    xi = Polynomial.variable(ctx, B.order, i)
    if B.normal_form(xi).is_zero():
        return False

    tag = _fresh_tag_name(ctx.names)
    ext_ctx = RingContext((tag,) + ctx.names, (1,) + ctx.grading, ctx.field)
    ext_order = _elimination_order(ext_ctx)

    def lift(g: Polynomial, tag_exp: int) -> Polynomial:
        return Polynomial(
            ext_ctx, ext_order, [(Monomial((tag_exp,) + m.exps), c) for m, c in g.terms]
        )

    t = Polynomial.variable(ext_ctx, ext_order, 0)
    one_minus_t = Polynomial.constant(ext_ctx, ext_order, 1) - t
    j_gens = [lift(g, 1) for g in B.polys]
    j_gens.append(one_minus_t * lift(xi, 0))
    basis_j = buchberger(j_gens, ext_order, degree_cap=degree_cap)

    quotient = []
    for g in basis_j.polys:
        if any(m.exps[0] != 0 for m, _ in g.terms):
            continue
        terms = []
        for m, c in g.terms:
            exps = m.exps[1:]
            if exps[i] == 0:
                raise RuntimeError("eliminated generator not divisible by the variable")
            lowered = list(exps)
            lowered[i] -= 1
            terms.append((Monomial(tuple(lowered)), c))
        quotient.append(Polynomial(ctx, B.order, terms))
    return all(B.normal_form(q).is_zero() for q in quotient)


# ---------------------------------------------------------------------------
# brute-force reduced homology (field coefficients)


def _boundary_matrix(faces_lo, faces_hi):
    """Matrix of the simplicial boundary map C_hi -> C_lo over ZZ."""
    index = {f: i for i, f in enumerate(faces_lo)}
    rows = []
    for face in faces_hi:
        row = [0] * len(faces_lo)
        for j in range(len(face)):
            sub = face[:j] + face[j + 1 :]
            row[index[sub]] = (-1) ** j
        rows.append(row)
    return rows


def ref_homology_dims(delta: SimplicialComplex, p=0):
    """Reduced homology dimensions over QQ (p=0) or GF(p), indices 0..dim.

    Over a field these agree with reduced cohomology, which is what the
    library reports.
    """
    chains = [[()]] + [sorted(group) for group in delta.faces_by_dim()]
    rank = (lambda m: ref_rank_mod_p(m, p)) if p else ref_rank_fraction
    ranks = []
    for i in range(1, len(chains)):
        ranks.append(rank(_boundary_matrix(chains[i - 1], chains[i])))
    ranks.append(0)
    dims = []
    for i in range(delta.dim + 1):
        dims.append(len(chains[i + 1]) - ranks[i] - ranks[i + 1])
    return tuple(dims)


def ref_faces(delta: SimplicialComplex):
    """Nonempty faces, from every subset of every facet, by size then lexicographic."""
    faces = {s for g in delta.facets for k in range(1, len(g) + 1) for s in itertools.combinations(g, k)}
    return sorted(faces, key=lambda f: (len(f), f))


def ref_minimal_nonfaces(delta: SimplicialComplex):
    """The minimal non-faces by their definition, over every vertex subset S as
    a bitmask: S is not a face, and S - v is a face for every v in S. Sorted."""
    faces = set()
    for g in delta.facets:
        mask = sum(1 << (v - 1) for v in g)
        sub = mask
        while True:  # every submask of the facet
            faces.add(sub)
            if not sub:
                break
            sub = (sub - 1) & mask
    found = []
    for s in range(1 << delta.n):
        if s not in faces:
            members = [i for i in range(delta.n) if s >> i & 1]
            if all(s ^ 1 << i in faces for i in members):
                found.append(tuple(i + 1 for i in members))
    return sorted(found)


def every_complex(n):
    """Every simplicial complex on the vertex slots 1..n, ghosts allowed: each
    antichain of subsets, as sorted facet lists, but the void complex and {()}."""
    subsets = sorted((s for k in range(n + 1) for s in itertools.combinations(range(1, n + 1), k)))
    masks = [sum(1 << (v - 1) for v in s) for s in subsets]

    def extend(chosen, start):
        if chosen and chosen != [0]:  # subsets[0] is ()
            yield SimplicialComplex(n, tuple(subsets[i] for i in chosen))
        for i in range(start, len(masks)):
            m = masks[i]
            if all(m & masks[c] not in (m, masks[c]) for c in chosen):
                yield from extend(chosen + [i], i + 1)

    yield from extend([], 0)


def ref_free_faces(delta: SimplicialComplex):
    """Faces lying in exactly one facet, that facet one vertex larger, by testing
    every face against every facet."""
    facets = [set(g) for g in delta.facets]
    free = []
    for face in ref_faces(delta):
        containing = [g for g in facets if set(face) <= g]
        if len(containing) == 1 and len(containing[0]) == len(face) + 1:
            free.append(face)
    return tuple(free)


def ref_strongly_connected(delta: SimplicialComplex):
    """Pure, and every two facets joined by a chain of facets in which
    neighbours share all but one vertex, by testing every pair of facets."""
    facets = [set(g) for g in delta.facets]
    if len({len(g) for g in facets}) > 1:
        return False
    reached = [facets[0]]
    for g in reached:  # grows while it is walked
        reached += [h for h in facets if h not in reached and len(g & h) == len(g) - 1]
    return len(reached) == len(facets)


# ---------------------------------------------------------------------------
# lift criterion by division, candidate by candidate


def ref_valid_lift(polys, order):
    """Buchberger's criterion for one lift candidate, with numbers.

    A candidate is monic, its leads are the minimal non-faces and its tails lie
    outside the non-face ideal, so it is the reduced basis exactly when every
    S-pair of non-coprime leads divides to zero by the candidate itself.
    """
    return all(
        not any(map(min, f.leading_monomial().exps, g.leading_monomial().exps))
        or normal_form(s_polynomial(f, g), polys, order).is_zero()
        for f, g in itertools.combinations(polys, 2)
    )


# ---------------------------------------------------------------------------
# brute-force plane curve point count


def brute_projective_count(poly, p):
    """Points of V(f) in P^2(F_p) by affine enumeration over F_p^3 minus 0."""
    terms = [(m.exps, _ref_scalar(c, p)) for m, c in poly.terms]
    affine = 0
    for x in range(p):
        for y in range(p):
            for z in range(p):
                if x == y == z == 0:
                    continue
                total = 0
                for exps, c in terms:
                    total += c * pow(x, exps[0], p) * pow(y, exps[1], p) * pow(z, exps[2], p)
                if total % p == 0:
                    affine += 1
    assert affine % (p - 1) == 0
    return affine // (p - 1)


# ---------------------------------------------------------------------------
# tiny conveniences used all over the tests


def ctx_xyz(field=None):
    if field is None:
        return standard_context(("x", "y", "z"))
    return standard_context(("x", "y", "z"), field=field)


def ctx_n(n, field=None):
    names = tuple(f"x{i}" for i in range(1, n + 1))
    if field is None:
        return standard_context(names)
    return standard_context(names, field=field)
