"""Plain undirected graphs: topologies, BFS paths, and an edge-list file format.

A graph on n vertices numbers them 1..n, and vertex v is register mode v
when the graph is turned into a register (see
:func:`cvcluster.protocols.build_graph_state`).  Every generator below keeps
to that numbering; ``star`` and ``ring_star`` put their hub at 1.

The on-disk format is line oriented::

    # comment
    vertices 5
    1 2
    2 3

with a mandatory ``vertices N`` header and one ``a b`` edge per line, labels
in 1..N, no loops, no duplicate edges.  Lines end at LF, CRLF or CR only.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations

from .errors import InvalidGraphError, InvalidSizeError, read_text, split_lines
from .gates import MAX_MODES


def _norm_edge(a: int, b: int) -> tuple[int, int]:
    return (a, b) if a < b else (b, a)


@dataclass(frozen=True)
class Graph:
    """Immutable undirected simple graph on vertices 1..n_vertices.  Its vertex
    tuple and neighbour table are built once, on first use, and are not part
    of equality, hash or repr."""

    n_vertices: int
    edges: frozenset  # of (a, b) tuples with 1 <= a < b <= n_vertices

    @cached_property
    def vertices(self) -> tuple[int, ...]:
        return tuple(range(1, self.n_vertices + 1))

    @cached_property
    def _neighbors(self) -> dict[int, tuple[int, ...]]:
        out = {v: [] for v in self.vertices}
        for u, v in self.edges:
            out[u].append(v)
            out[v].append(u)
        return {v: tuple(sorted(vs)) for v, vs in out.items()}

    def neighborhood(self, a: int) -> tuple[int, ...]:
        try:
            return self._neighbors[a]
        except KeyError:
            raise InvalidGraphError(f"vertex {a} not in graph") from None

    def degree(self, a: int) -> int:
        return len(self.neighborhood(a))

    def shortest_path(self, a: int, b: int):
        """Lexicographically smallest shortest path from a to b, or None.

        Among all shortest paths, the vertex sequence that compares smallest
        is returned (greedy choice of the smallest next vertex that still
        lies on some shortest path).  ``None`` means not connected.
        """
        if a not in self.vertices or b not in self.vertices:
            raise InvalidGraphError("path endpoints must be vertices")
        dist = self._bfs_dist(b)
        if a not in dist:
            return None
        path = [a]
        cur = a
        while cur != b:
            cur = min(v for v in self.neighborhood(cur) if dist.get(v, -1) == dist[cur] - 1)
            path.append(cur)
        return path

    def _bfs_dist(self, src: int) -> dict[int, int]:
        dist = {src: 0}
        queue = deque([src])
        while queue:
            u = queue.popleft()
            for v in self.neighborhood(u):
                if v not in dist:
                    dist[v] = dist[u] + 1
                    queue.append(v)
        return dist


# ---------------------------------------------------------------------------
# Construction
# ---------------------------------------------------------------------------


def _add_edge(seen: set, n: int, a: int, b: int, where: str = "") -> None:
    """Add edge a-b to ``seen``, rejecting endpoints outside 1..n, loops and
    duplicates; ``where`` prefixes the message."""
    if not (1 <= a <= n and 1 <= b <= n):
        raise InvalidGraphError(f"{where}edge {a}-{b} outside 1..{n}")
    if a == b:
        raise InvalidGraphError(f"{where}loop edge {a}-{b}")
    e = _norm_edge(a, b)
    if e in seen:
        raise InvalidGraphError(f"{where}duplicate edge {a}-{b}")
    seen.add(e)


def from_edges(n: int, edges) -> Graph:
    """Graph on vertices 1..n from an edge iterable (see :func:`_add_edge`)."""
    if n < 1:
        raise InvalidSizeError("graph needs at least one vertex")
    seen = set()
    for a, b in edges:
        _add_edge(seen, n, a, b)
    return Graph(n, frozenset(seen))


def chain(n: int) -> Graph:
    """Path graph on vertices 1..n."""
    if n < 1:
        raise InvalidSizeError(f"chain needs n >= 1, got {n}")
    return from_edges(n, [(i, i + 1) for i in range(1, n)])


def star(leaves: int) -> Graph:
    """Hub-and-leaves graph: hub 1 adjacent to leaves 2..m+1."""
    if leaves < 1:
        raise InvalidSizeError(f"star needs at least one leaf, got {leaves}")
    return from_edges(leaves + 1, [(1, j) for j in range(2, leaves + 2)])


def ring(n: int) -> Graph:
    """Cycle 1, 2, ..., n, 1."""
    if n < 3:
        raise InvalidSizeError(f"ring needs at least 3 vertices, got {n}")
    return from_edges(n, [(i, i + 1) for i in range(1, n)] + [(1, n)])


def ring_star(ring_size: int) -> Graph:
    """Ring 2..ring_size+1 with hub 1 joined to 3, 5, ..., ring_size+1.

    That alternating pattern keeps the feed-forward recipe solvable and needs
    an even ring; other spoke patterns go through :func:`from_edges`.
    """
    shifted = [(a + 1, b + 1) for a, b in ring(ring_size).edges]
    if ring_size % 2:
        raise InvalidGraphError("alternating spokes need an even ring size")
    return from_edges(ring_size + 1, shifted + [(1, s) for s in range(3, ring_size + 2, 2)])


def grid(rows: int, cols: int) -> Graph:
    """Row-major lattice, vertices 1..rows*cols."""
    if rows < 1 or cols < 1:
        raise InvalidSizeError("grid needs positive dimensions")
    edges = []
    for i in range(rows):
        for j in range(cols):
            v = i * cols + j + 1
            if j + 1 < cols:
                edges.append((v, v + 1))
            if i + 1 < rows:
                edges.append((v, v + cols))
    return from_edges(rows * cols, edges)


def _random_pairs(n: int, p: float, rng) -> list[tuple[int, int]]:
    """Pairs a < b of 1..n in lexicographic order whose uniform draw is below p,
    one ``rng.random(k)`` call for all k pairs (the scalar draws' stream)."""
    pairs = list(combinations(range(1, n + 1), 2))
    return [e for e, u in zip(pairs, rng.random(len(pairs))) if u < p]


def random_graph(n: int, p: float, rng) -> Graph:
    """Erdos-Renyi style simple graph on 1..n (``rng``: numpy Generator)."""
    return from_edges(n, _random_pairs(n, p, rng))


def random_connected_graph(n: int, p: float, rng) -> Graph:
    """Random graph made connected by threading a random spanning path first."""
    order = [int(v) for v in rng.permutation(range(1, n + 1))]
    edges = {_norm_edge(order[i], order[i + 1]) for i in range(n - 1)}
    edges.update(_random_pairs(n, p, rng))
    return from_edges(n, edges)


# ---------------------------------------------------------------------------
# Edge-list files
# ---------------------------------------------------------------------------


def parse_edge_list(text: str, source: str = "<string>") -> Graph:
    """Parse the ``vertices N`` + ``a b`` line format; see module docstring."""
    n = None
    seen = set()
    for lineno, raw in enumerate(split_lines(text), start=1):
        parts = raw.split("#", 1)[0].split()
        if not parts:
            continue
        if n is None:
            if parts[0] != "vertices" or len(parts) != 2:
                raise InvalidGraphError(f"{source}:{lineno}: expected 'vertices N' header")
            try:
                n = int(parts[1])
            except ValueError:
                raise InvalidGraphError(f"{source}:{lineno}: vertex count must be an integer") from None
            if n < 1:
                raise InvalidGraphError(f"{source}:{lineno}: vertex count must be positive")
            if n > MAX_MODES:
                raise InvalidGraphError(f"{source}:{lineno}: vertex count must be at most {MAX_MODES}")
            continue
        if len(parts) != 2:
            raise InvalidGraphError(f"{source}:{lineno}: expected edge 'a b'")
        try:
            a, b = int(parts[0]), int(parts[1])
        except ValueError:
            raise InvalidGraphError(f"{source}:{lineno}: edge endpoints must be integers") from None
        _add_edge(seen, n, a, b, f"{source}:{lineno}: ")
    if n is None:
        raise InvalidGraphError(f"{source}: missing 'vertices N' header")
    return Graph(n, frozenset(seen))


def load_edge_list(path) -> Graph:
    return parse_edge_list(read_text(path), source=str(path))
