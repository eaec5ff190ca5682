"""Lifting a monomial ideal back to polynomials, hunting for singularities.

Start from the non-face ideal of a cycle, add trailing terms to each
generator in every way a small coefficient pool allows, keep the candidates
whose generators already form a Groebner basis, and test each survivor at
the coordinate points. For cycles every valid lift stays singular at the
top point, which is exactly what a smoothing would have to avoid.
"""

from grodeg import MonomialOrder, lift_search, standard_context, SimplicialComplex, to_jsonable


def show(delta, ctx, caption, budget):
    order = MonomialOrder.degrevlex(ctx)
    result = lift_search(delta, order, pool=(-1, 1), budget=budget)
    d = to_jsonable(result)
    print(caption)
    print(f"  targets           : {d['targets']} (top variable {d['top_variable']})")
    print(f"  candidate space   : {d['candidate_space']} (exhaustive: {d['exhaustive']})")
    print(f"  valid lifts       : {d['valid_lift_count']}")
    print(f"  singular on top   : {d['lifts_singular_at_top_point']}")
    sample = d["valid_lifts"][0]
    print(f"  one lift          : {sample['generators']}")
    for pt in sample["coordinate_points"]:
        print(f"      {pt['point']}: {pt['verdict']}")
    print()


def main():
    triangle = SimplicialComplex.from_facets(3, [(1, 2), (1, 3), (2, 3)])
    show(triangle, standard_context(("x1", "x2", "x3")), "triangle (one cubic target):", 20)

    square = SimplicialComplex.from_facets(4, [(1, 2), (2, 3), (3, 4), (1, 4)])
    show(square, standard_context(("x1", "x2", "x3", "x4")), "4-cycle (two quadric targets):", 200)

    print("every valid lift of either cycle is singular at the top coordinate")
    print("point, so no candidate in these pools smooths the degeneration.")


if __name__ == "__main__":
    main()
