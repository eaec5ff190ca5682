"""Differential fuzzing of the Groebner kernel against the conftest oracles.

Random ideals in 3-4 variables, homogeneous or not, over QQ, GF(2) and
GF(3), under lex, degrevlex, weighted and matrix orders: the reduced basis
of either pair strategy must equal the criterion-free ``ref_reduced_basis``
term for term, and division by the generators (rarely a Groebner basis, so
the first-divisor rule shows) must equal ``_ref_reduce``. Examples come from
the shared derandomized ``fuzz`` profile.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from grodeg import DegreeCapExceeded, Monomial, MonomialOrder, Polynomial, PrimeField, QQ, buchberger, normal_form

from conftest import FUZZ, _ref_reduce, ctx_n, ref_reduced_basis

FIELDS = (QQ, PrimeField(2), PrimeField(3))
COEFFS = (-2, -1, 1, 2, 3)


@st.composite
def orders(draw, ctx):
    n = ctx.n
    perm = draw(st.permutations(range(n)))
    kind = draw(st.sampled_from(["lex", "degrevlex", "weighted", "matrix"]))
    if kind in ("lex", "degrevlex"):
        return MonomialOrder(kind, ctx, perm=tuple(perm))
    weights = tuple(1 + (i % 3) for i in perm)
    if kind == "weighted":
        return MonomialOrder.weighted(ctx, [weights])
    # a positive weight row, then reversed unit rows: full rank and global
    units = [tuple(-1 if c == perm[k] else 0 for c in range(n)) for k in range(n - 1)]
    return MonomialOrder.matrix(ctx, [weights] + units)


@st.composite
def polynomials(draw, ctx, order, homogeneous):
    """Two or three terms of degree at most 2 or 3 (exactly that degree when
    homogeneous); like terms may cancel, down to zero."""
    deg = draw(st.integers(2, 3))
    terms = []
    for _ in range(draw(st.integers(2, 3))):
        size = deg if homogeneous else draw(st.integers(0, deg))
        exps = [0] * ctx.n
        for i in draw(st.lists(st.integers(0, ctx.n - 1), min_size=size, max_size=size)):
            exps[i] += 1
        terms.append((Monomial(tuple(exps)), draw(st.sampled_from(COEFFS))))
    return Polynomial(ctx, order, terms)


@st.composite
def ideals(draw):
    ctx = ctx_n(draw(st.integers(3, 4)), draw(st.sampled_from(FIELDS)))
    order = draw(orders(ctx))
    homogeneous = draw(st.booleans())
    gens = draw(st.lists(polynomials(ctx, order, homogeneous), min_size=2, max_size=3))
    return order, gens


def _terms(polys):
    return [[(m.exps, c) for m, c in g.terms] for g in polys]


class TestKernelOracle:
    @settings(FUZZ)
    @given(ideals())
    def test_reduced_basis_matches_reference(self, case):
        order, gens = case
        want = None
        for strategy in ("normal", "fifo"):
            try:
                B = buchberger(gens, order, degree_cap=8, strategy=strategy)
            except DegreeCapExceeded:
                continue
            if want is None:
                want = _terms(ref_reduced_basis(gens, order))
            assert B.order == order and all(g.order == order for g in B.polys)
            assert _terms(B.polys) == want, (strategy, gens, order)

    @settings(FUZZ)
    @given(ideals(), st.data())
    def test_division_matches_first_divisor_reference(self, case, data):
        order, gens = case
        f = data.draw(polynomials(order.ctx, order, data.draw(st.booleans())))
        divisors = [g for g in gens if not g.is_zero()]
        assert _terms([normal_form(f, gens, order)]) == _terms([_ref_reduce(f, divisors)])
