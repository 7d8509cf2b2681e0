"""Concentrating a chain onto two chosen positions as an EPR-type pair.

Outer measurements detach everything beyond the pair; each position left
between the pair is then absorbed by a measure/displace/rotate step that
shortens the chain by one.  The same outer job can be done from further
away: helpers at even distance from the pair are measured in momentum,
odd-distance helpers in position, and a least-squares solve over the
records finds the feed-forward weights.
"""

from cvcluster import graphs, protocols


def concentrate(n, j, k, **outer):
    rep = protocols.extract_pair(graphs.chain(n), j, k, **outer)
    kinds = " ".join(f"{kind}{mode}" for mode, kind in rep.measurements)
    print(f"chain {n}, pair ({j},{k}): success={rep.success}  measured: {kinds}")
    return rep


def main():
    print("next-neighbour outers, growing separation:")
    for j, k in ((3, 4), (3, 5), (2, 7), (1, 8)):
        concentrate(8, j, k)

    print("\nthe same pair served by remote helpers:")
    concentrate(7, 4, 5, left=(2, 1), right=(7,))
    concentrate(9, 6, 7, left=(4, 2, 1), right=(9,))

    print("\nwhat failure looks like (right side left attached):")
    rep = concentrate(6, 4, 5, left=(2, 1))
    print(f"  -> success={rep.success}: position 6 still couples to the pair")

    print("\nEvery successful run ends on the two-mode correlations")
    print("Y_j - X_k and Y_k - X_j, i.e. an EPR pair up to a quarter turn.")


if __name__ == "__main__":
    main()
