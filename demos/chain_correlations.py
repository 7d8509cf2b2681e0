"""Chain states: exact quadrature rows and the correlations that vanish.

Builds linearly coupled chains on the symbolic engine, prints the
Heisenberg-picture rows, and shows which combinations decay as e^{-r}
(and how fast, numerically) versus which blow up.
"""

import math

from cvcluster import graphs, ledger, protocols
from cvcluster.gates import X, Y, Rotate


def show_rows(n):
    reg = protocols.build_graph_state(graphs.chain(n))
    print(f"-- chain of {n}: rows after squeezing + pairwise coupling --")
    for m in range(1, n + 1):
        print(f"  X_{m} = {ledger.render_expr(reg.quad_expr(m, X))}")
        print(f"  Y_{m} = {ledger.render_expr(reg.quad_expr(m, Y))}")
    return reg


def main():
    reg = show_rows(4)

    print("\nEach vertex momentum minus its neighbours' positions is pure e^-r:")
    for m in range(1, 5):
        parts = [(1.0, m, Y)]
        for b in (m - 1, m + 1):
            if 1 <= b <= 4:
                parts.append((-1.0, b, X))
        expr = reg.combine(parts)
        print(f"  mode {m}: {ledger.render_expr(expr)}   nullifier={ledger.is_nullifier(expr)}")

    print("\nQuarter turns on modes 2 and 4 turn those into plain sums/differences:")
    reg = protocols.build_graph_state(graphs.chain(4))
    reg.apply(Rotate(2, -math.pi / 2))
    reg.apply(Rotate(4, -math.pi / 2))
    combos = [
        ("X1+X2+X3", [(1, 1, X), (1, 2, X), (1, 3, X)]),
        ("X3+X4", [(1, 3, X), (1, 4, X)]),
        ("Y1-Y2", [(1, 1, Y), (-1, 2, Y)]),
        ("Y2-Y3+Y4", [(1, 2, Y), (-1, 3, Y), (1, 4, Y)]),
    ]
    for label, parts in combos:
        expr = reg.combine(parts)
        print(f"  {label:10s} -> {ledger.render_expr(expr)}")

    print("\nVariance of X1+X2+X3 versus squeezing (0.5*e^-2r per initial mode):")
    expr = reg.combine(combos[0][1])
    anti = reg.combine([(1, 1, X), (-1, 2, X), (1, 3, X)])
    print(f"  {'r':>4s} {'decaying':>12s} {'mixed-sign':>12s}")
    for r in (0.0, 0.5, 1.0, 2.0):
        print(f"  {r:4.1f} {ledger.variance_formula(expr, r):12.6f} "
              f"{ledger.variance_formula(anti, r):12.6f}")
    print("\nThe mixed-sign combination keeps e^+r content, so it grows instead.")


if __name__ == "__main__":
    main()
