"""Measurement-based graph surgery: cut, separate, and shrink to a path.

Position measurements delete vertices and disconnect their surroundings;
momentum measurements on a cut's surroundings need feed-forward to restore
the pieces.  The sharpest version: any connected graph collapses onto a
chain along a shortest path once every off-path boundary vertex is
measured in position and the path's momenta are corrected.
"""

import numpy as np

from cvcluster import graphs, protocols


def cut_chain():
    rep = protocols.disconnect(graphs.chain(6), 3)
    blocks = " | ".join("{" + ",".join(map(str, b)) + "}" for b in rep.partition)
    print(f"cut chain(6) at 3: success={rep.success}, pieces {blocks}")


def fully_separate():
    for n in (5, 6, 7):
        rep = protocols.disentangle_even(graphs.chain(n))
        print(f"chain({n}): {len(rep.measurements)} position measurements "
              f"leave {len(rep.partition)} singletons (success={rep.success})")
    print("floor(n/2) is also minimal — exhaustive search over smaller")
    print(f"patterns finds none for n=4: "
          f"{protocols.minimal_disentangling_measurements(4)} needed")


def shrink_grid():
    rep = protocols.reduce_graph_to_path(graphs.grid(3, 3), 1, 9)
    print(f"\n3x3 grid, corner to corner: success={rep.success}")
    print(f"  {rep.details}")


def shrink_random():
    rng = np.random.default_rng(11)
    g = graphs.random_connected_graph(12, 0.25, rng)
    rep = protocols.reduce_graph_to_path(g, 1, 12)
    print(f"random connected graph on 12 vertices: success={rep.success}")
    print(f"  {rep.details}")


def main():
    cut_chain()
    print()
    fully_separate()
    shrink_grid()
    shrink_random()


if __name__ == "__main__":
    main()
