"""Cone points of a degeneration, as ``analyze`` reports them.

The 2x2 minors of a generic 2x3 matrix degenerate (under degrevlex) to the
Stanley-Reisner ideal of a shellable 3-ball. Two of its six vertices are
apexes: the complex is a cone over the rest of it at those vertices. A
vertex is a cone point exactly when its variable divides no generator of
the initial ideal, and a cone point always gives a regular variable on the
original quotient. Here the quotient is a domain, so in fact every variable
is regular and the certificate is sufficient but not necessary.
"""

from grodeg import MonomialOrder, analyze, parse_polynomial, standard_context, to_jsonable


def main():
    ctx = standard_context(tuple(f"x{i}" for i in range(1, 7)))
    drl = MonomialOrder.degrevlex(ctx)
    gens = [
        parse_polynomial(t, ctx, drl)
        for t in ("x1*x5 - x2*x4", "x1*x6 - x3*x4", "x2*x6 - x3*x5")
    ]

    d = to_jsonable(analyze(gens, drl))
    print("reduced basis :", d["reduced_groebner_basis"])
    print("initial ideal :", d["initial_ideal"])
    print(d["facets"])
    print("cone points   :", d["complex"]["cone_points"])
    print()

    print("vertex   in every facet (cone point)")
    for v in range(1, 7):
        print(f"  x{v}     {v in d['complex']['cone_points']}")
    print()
    print("the certificate flags only the two apexes, while the quotient is a")
    print("domain and every variable is regular: sufficiency, not necessity.")


if __name__ == "__main__":
    main()
