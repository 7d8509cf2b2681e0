"""Graph topologies, numbering, traversal, and the edge-list file format."""

import numpy as np
import pytest

from cvcluster import graphs
from cvcluster.errors import InvalidGraphError, InvalidSizeError
from cvcluster.gates import MAX_MODES


def test_chain_shape():
    g = graphs.chain(5)
    assert g.vertices == (1, 2, 3, 4, 5)
    assert g.neighborhood(1) == (2,)
    assert g.neighborhood(3) == (2, 4)
    assert g.degree(5) == 1
    assert graphs.chain(1).n_vertices == 1
    with pytest.raises(InvalidSizeError):
        graphs.chain(0)


def test_star_hub_and_leaves():
    g = graphs.star(4)
    assert g.n_vertices == 5
    assert g.neighborhood(1) == (2, 3, 4, 5)
    assert all(g.degree(v) == 1 for v in (2, 3, 4, 5))


def test_ring_closes():
    g = graphs.ring(6)
    assert g.degree(1) == 2
    assert g.neighborhood(1) == (2, 6)
    with pytest.raises(InvalidSizeError):
        graphs.ring(2)


def test_ring_star_alternation():
    g = graphs.ring_star(8)
    assert g.neighborhood(1) == (3, 5, 7, 9)
    assert g.neighborhood(2) == (3, 9)  # the ring 2..9 closes
    assert g.degree(3) == 3  # two ring bonds plus the spoke


def test_ring_star_needs_an_even_ring():
    with pytest.raises(InvalidGraphError, match="even ring"):
        graphs.ring_star(7)
    with pytest.raises(InvalidSizeError, match="^ring needs at least 3 vertices, got 2$"):
        graphs.ring_star(2)


def test_grid_adjacency():
    g = graphs.grid(3, 3)
    assert g.n_vertices == 9
    assert g.neighborhood(5) == (2, 4, 6, 8)
    assert g.neighborhood(1) == (2, 4)
    assert len(g.edges) == 12


def test_from_edges_rejects_loops():
    with pytest.raises(InvalidGraphError):
        graphs.from_edges(2, [(1, 1)])


@pytest.mark.parametrize(
    "n, edges, message",
    [
        (3, [(0, 1)], "edge 0-1 outside 1..3"),
        (3, [(2, 4)], "edge 2-4 outside 1..3"),
        (3, [(1, 2), (2, 1)], "duplicate edge 2-1"),
    ],
)
def test_from_edges_rejects_endpoints_outside_and_duplicates(n, edges, message):
    with pytest.raises(InvalidGraphError, match=f"^{message}$"):
        graphs.from_edges(n, edges)


def test_from_edges_needs_a_vertex():
    with pytest.raises(InvalidSizeError):
        graphs.from_edges(0, [])
    assert graphs.from_edges(1, []).vertices == (1,)


def test_shortest_path_and_connectivity():
    g = graphs.grid(3, 3)
    path = g.shortest_path(1, 9)
    assert len(path) == 5
    assert path[0] == 1 and path[-1] == 9
    assert all(g.shortest_path(g.vertices[0], v) is not None for v in g.vertices)
    disconnected = graphs.from_edges(4, [(1, 2), (3, 4)])
    assert not all(disconnected.shortest_path(disconnected.vertices[0], v) is not None
                   for v in disconnected.vertices)
    assert disconnected.shortest_path(1, 4) is None


def test_random_connected_graph_is_connected():
    rng = np.random.default_rng(31)
    for _ in range(20):
        n = int(rng.integers(2, 25))
        g = graphs.random_connected_graph(n, float(rng.uniform(0.0, 0.3)), rng)
        assert g.n_vertices == n
        assert all(g.shortest_path(g.vertices[0], v) is not None for v in g.vertices)
        assert all(isinstance(v, int) for v in g.vertices)


def test_random_graph_density_extremes():
    rng = np.random.default_rng(1)
    empty = graphs.random_graph(6, 0.0, rng)
    full = graphs.random_graph(6, 1.0, rng)
    assert len(empty.edges) == 0
    assert len(full.edges) == 15


def _scalar_draw_edges(n, p, rng, connected):
    """Edge sets from one scalar ``rng.random()`` per pair, in pair order."""
    edges = set()
    if connected:
        order = [int(v) for v in rng.permutation(range(1, n + 1))]
        edges = {tuple(sorted(order[i:i + 2])) for i in range(n - 1)}
    for a in range(1, n + 1):
        for b in range(a + 1, n + 1):
            if rng.random() < p:
                edges.add((a, b))
    return frozenset(edges)


@pytest.mark.parametrize("connected", [False, True])
def test_random_graphs_draw_the_stream_of_per_pair_scalar_draws(connected):
    build = graphs.random_connected_graph if connected else graphs.random_graph
    for seed in range(25):
        n = 1 + seed % 13 if not connected else 2 + seed % 12
        p = (0.05, 0.3, 0.5, 1.0)[seed % 4]
        rng, reference = np.random.default_rng(seed), np.random.default_rng(seed)
        g = build(n, p, rng)
        assert g.edges == _scalar_draw_edges(n, p, reference, connected)
        assert g.vertices == tuple(range(1, n + 1))
        assert rng.random() == reference.random()  # both streams end in the same place


# ---------------------------------------------------------------------------
# edge-list files
# ---------------------------------------------------------------------------

GOOD = """\
# a comment line
vertices 4
1 2
2 3   # trailing comment
3 4
"""


def test_parse_edge_list_accepts_comments_and_blanks():
    g = graphs.parse_edge_list(GOOD, source="good.txt")
    assert g.vertices == (1, 2, 3, 4)
    assert len(g.edges) == 3


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("1 2\n", "expected 'vertices N' header"),
        ("vertices x\n", "vertex count must be an integer"),
        ("vertices 0\n", "vertex count must be positive"),
        (f"vertices {MAX_MODES + 1}\n1 2\n", f"vertex count must be at most {MAX_MODES}"),
        ("vertices 3\n1 2 3\n", "expected edge 'a b'"),
        ("vertices 3\n1 b\n", "edge endpoints must be integers"),
        ("vertices 3\n1 4\n", "outside 1..3"),
        ("vertices 3\n2 2\n", "loop edge"),
        ("vertices 3\n1 2\n2 1\n", "duplicate edge"),
        ("# only comments\n", "missing 'vertices N' header"),
    ],
)
def test_parse_edge_list_rejects(text, fragment):
    with pytest.raises(InvalidGraphError) as err:
        graphs.parse_edge_list(text, source="bad.txt")
    assert fragment in str(err.value)
    assert "bad.txt" in str(err.value)


def test_load_edge_list_round_trip(tmp_path):
    p = tmp_path / "g.txt"
    p.write_text("vertices 3\n1 2\n2 3\n")
    g = graphs.load_edge_list(p)
    assert g.neighborhood(2) == (1, 3)
