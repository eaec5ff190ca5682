"""Tour of one ideal degenerating along different monomial orders.

The nodal plane cubic x*y*z + y^3 + z^3 has three distinct initial ideals
as the order varies. Only one of them is square-free; that one opens the
door to the whole Stanley-Reisner toolbox, and every smoothing obstruction
certifies on it.
"""

from grodeg import MonomialOrder, analyze, parse_polynomial, scan_orders, standard_context, to_jsonable


def main():
    ctx = standard_context(("x", "y", "z"))
    lex = MonomialOrder.lex(ctx)
    cubic = parse_polynomial("x*y*z + y^3 + z^3", ctx, lex)

    print("ideal: (" + cubic.render() + ")")
    print()
    print("initial ideals over all permutation orders, both families:")
    for report in scan_orders([cubic], family="both"):
        d = to_jsonable(report)
        flag = "square-free" if d["squarefree"] else "not square-free"
        orders = ", ".join(d["producing_orders"])
        print(f"  ({', '.join(d['initial_ideal'])})  [{flag}]  from {orders}")

    print()
    print("full analysis along lex x>y>z:")
    d = to_jsonable(analyze([cubic], lex))
    print(f"  reduced basis : {d['reduced_groebner_basis']}")
    print(f"  initial ideal : {d['initial_ideal']}")
    print(f"  {d['facets']}")
    print(f"  cohomology    : {d['cohomology']['dims']} over {d['cohomology']['field']}")
    for obs in d["obstructions"]:
        status = "certified" if obs["certified"] else f"declined ({obs['reason']})"
        print(f"  obstruction {obs['kind']:22s}: {status}")
    print(f"  conjecture scorecard: {d['conjectures']}")


if __name__ == "__main__":
    main()
