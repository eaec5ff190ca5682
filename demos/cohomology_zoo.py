"""Reduced simplicial cohomology of a small zoo of complexes.

Everything is exact: coreduction deletes cells paired by a ±1 incidence, and
exact row reduction ranks the boundaries of the cells that survive, so the
dimensions are certificates rather than floating-point estimates. The
projective plane is the classic field-sensitive example: acyclic over the
rationals, but not over GF(2).
"""

from grodeg import PrimeField, QQ, SimplicialComplex, property_report, reduced_cohomology

ZOO = [
    ("hollow triangle", 3, [(1, 2), (1, 3), (2, 3)]),
    ("path of two edges", 3, [(1, 2), (2, 3)]),
    ("two disjoint edges", 4, [(1, 2), (3, 4)]),
    ("octahedron boundary", 6, [(1, 2, 3), (1, 3, 4), (1, 4, 5), (1, 2, 5),
                               (2, 3, 6), (3, 4, 6), (4, 5, 6), (2, 5, 6)]),
    ("projective plane", 6, [(1, 2, 3), (1, 2, 4), (1, 3, 5), (1, 4, 6), (1, 5, 6),
                             (2, 3, 6), (2, 4, 5), (2, 5, 6), (3, 4, 5), (3, 4, 6)]),
    ("solid 4-simplex", 5, [(1, 2, 3, 4, 5)]),
]


def main():
    for name, n, facets in ZOO:
        delta = SimplicialComplex.from_facets(n, facets)
        over_q = reduced_cohomology(delta)
        over_2 = reduced_cohomology(delta, PrimeField(2))
        props = property_report(delta).as_dict()
        tags = [k for k in ("cohen_macaulay", "normal", "acyclic") if props[k]]
        print(f"{name:20s} dims/QQ {tuple(over_q.dims)}  dims/GF(2) {tuple(over_2.dims)}"
              f"  euler {over_q.reduced_euler:+d}  [{', '.join(tags) or '-'}]")

    print()
    print("the projective plane is the one row where the two columns disagree:")
    print("its 2-torsion is invisible over QQ and reappears over GF(2).")


if __name__ == "__main__":
    main()
