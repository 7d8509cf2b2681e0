"""Property tests: a closed-form graph-state oracle, weighted or not, before
and after an X-measurement, the edge-list round trip and the graph lookup
tables over random simple graphs, vertex v on mode v for every graph
generator, canonical commutators on random ledger tapes with feed-forward,
the covariance tape replay against its per-gate rule, overflow included,
a combination's light cone against the whole tape's replay,
the ledger's accumulate step, Kerr books included, against its general loop,
its lazy quarter-turn frame against turns settled one at a time, the
resolution of relayed feed-forward records against a newest-first heap, graph
tapes' shared gate values against fresh ones, the graph state written in closed form
against its tape run on the ledger, bit for bit, and random ``.cvq`` scripts
run through the command line on both engines.

The oracle is the Gaussian graphical calculus (Menicucci, Flammia & van Loock,
PRA 83, 042335 (2011)): the graph state of adjacency matrix A at squeezing r
is the pure state Z = V + iU = A + i e^{-2r} I, whose covariance in
(X..., Y...) order is 1/2 [[U^-1, U^-1 V], [V U^-1, U + V U^-1 V]].  Measuring
X of a vertex deletes it from Z (Gu et al., PRA 79, 062318 (2009)).  The
oracle shares no code with either engine.

Runs are derandomized and keep no example database, so the suite stays
deterministic.
"""

import contextlib
import heapq
import io
import math
import os
import pickle
import re
import tempfile

import numpy as np
import pytest
from hypothesis import configuration, example, given, settings
from hypothesis import strategies as st

from cvcluster import claims, cli, covariance, gates, graphs, ledger, protocols
from cvcluster.errors import DomainError, InvalidGraphError, UnsupportedOperationError
from cvcluster.gates import (
    MOMENTUM_SQUEEZED,
    POSITION_SQUEEZED,
    PRUNE_TOL,
    Beamsplit,
    Kerr,
    Rotate,
    Squeeze,
    X,
    Y,
    symplectic_form,
)

PROPERTY_SETTINGS = settings(derandomize=True, database=None, deadline=None, max_examples=200)

# Hypothesis caches the constants it finds in local source files under its
# home directory while pytest collects, database or not.  Keep that cache out
# of the working tree, in a directory removed when the run ends.
_HYPOTHESIS_HOME = tempfile.TemporaryDirectory(prefix="hypothesis-")
configuration.set_hypothesis_home_dir(_HYPOTHESIS_HOME.name)


@st.composite
def simple_graphs(draw, min_vertices=1, max_vertices=12):
    """A simple graph on vertices 1..n with any subset of the possible edges."""
    n = draw(st.integers(min_vertices, max_vertices))
    pairs = [(a, b) for a in range(1, n + 1) for b in range(a + 1, n + 1)]
    keep = draw(st.binary(min_size=len(pairs), max_size=len(pairs)))  # one byte per pair
    edges = [e for e, byte in zip(pairs, keep) if byte & 1]
    return graphs.from_edges(n, edges)


def z_oracle_covariance(g: graphs.Graph, r: float, weights=None) -> np.ndarray:
    """Graph-state covariance from Z = A + i e^{-2r} I, in (X_1, Y_1, ...) order.

    A holds ``weights[(a, b)]`` for each edge (a, b) of g, or 1 when no
    weights are given.
    """
    n = g.n_vertices
    v = np.zeros((n, n))
    for a, b in g.edges:
        w = 1.0 if weights is None else weights[(a, b)]
        v[a - 1, b - 1] = v[b - 1, a - 1] = w
    u = np.exp(-2.0 * r) * np.eye(n)
    u_inv = np.linalg.inv(u)
    blocks = 0.5 * np.block([[u_inv, u_inv @ v], [v @ u_inv, u + v @ u_inv @ v]])
    interleaved = [i for m in range(n) for i in (m, n + m)]
    return blocks[np.ix_(interleaved, interleaved)]


@PROPERTY_SETTINGS
@given(g=simple_graphs(), r=st.floats(0.0, 2.0))
def test_graph_state_matches_the_z_oracle(g, r):
    want = z_oracle_covariance(g, r)
    got = next(covariance.replay(g.n_vertices, protocols.graph_tape(g), [r])).cov
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
    assert protocols.graph_row_deviation(protocols.build_graph_state(g), g) == 0


@st.composite
def weighted_graph_tapes(draw):
    """A simple graph, a weight in +-[0.1, 2] per edge, and its tape: momentum
    squeezes, then one weighted Kerr per edge in a drawn order and orientation."""
    g = draw(simple_graphs())
    weights = {}
    tape = [Squeeze(m, MOMENTUM_SQUEEZED) for m in range(1, g.n_vertices + 1)]
    for a, b in draw(st.permutations(sorted(g.edges))):
        weights[(a, b)] = w = draw(st.floats(0.1, 2.0)) * draw(st.sampled_from((1.0, -1.0)))
        tape.append(Kerr(b, a, w) if draw(st.booleans()) else Kerr(a, b, w))
    return g, weights, tape


@PROPERTY_SETTINGS
@given(drawn=weighted_graph_tapes(), r=st.floats(0.0, 2.0))
def test_weighted_graph_state_matches_the_z_oracle(drawn, r):
    """Kerr weights w_ab are the entries of A on the covariance engine, and on
    the ledger every vertex law Y_a - sum_b w_ab X_b is a nullifier of
    variance 0.5 e^{-2r}."""
    g, weights, tape = drawn
    want = z_oracle_covariance(g, r, weights)
    got = covariance.apply_tape(covariance.vacuum_state(g.n_vertices), tape, r).cov
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
    reg = ledger.Register(g.n_vertices)
    for gate in tape:
        reg.apply(gate)
    for a in g.vertices:
        parts = [(1.0, a, Y)]
        parts += [(-weights[tuple(sorted((a, b)))], b, X) for b in g.neighborhood(a)]
        law = reg.combine(parts)
        assert ledger.is_nullifier(law)
        assert ledger.variance_formula(law, r) == pytest.approx(0.5 * np.exp(-2.0 * r), rel=1e-14)


@PROPERTY_SETTINGS
@given(data=st.data(), g=simple_graphs(min_vertices=2), r=st.floats(0.0, 2.0))
def test_x_measurement_deletes_the_vertex_in_the_z_oracle(data, g, r):
    """Homodyning X of vertex v leaves the other modes in the graph state of g
    with v deleted (vertices above v move down one), whatever the outcome,
    and puts mode v back in vacuum."""
    v = data.draw(st.sampled_from(g.vertices))
    state = next(covariance.replay(g.n_vertices, protocols.graph_tape(g), [r]))
    covariance.homodyne(state, v, X, outcome=0.0)
    cov = state.cov
    rest = graphs.from_edges(g.n_vertices - 1, [(a - (a > v), b - (b > v))
                                                for a, b in g.edges if v not in (a, b)])
    want = z_oracle_covariance(rest, r)
    q = 2 * (v - 1)
    others = [i for i in range(2 * g.n_vertices) if i not in (q, q + 1)]
    got = cov[np.ix_(others, others)]
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
    vacuum_rows = np.zeros((2, 2 * g.n_vertices))
    vacuum_rows[:, q:q + 2] = 0.5 * np.eye(2)
    assert np.array_equal(cov[q:q + 2, :], vacuum_rows)
    assert np.array_equal(cov[:, q:q + 2], vacuum_rows.T)


@PROPERTY_SETTINGS
@given(data=st.data(), g=simple_graphs())
def test_edge_list_round_trip(data, g):
    """Any simple graph on 1..n, written in any edge order and orientation,
    parses back equal."""
    edges = data.draw(st.permutations(sorted(g.edges)))
    flips = data.draw(st.binary(min_size=len(edges), max_size=len(edges)))
    lines = [f"vertices {g.n_vertices}"]
    lines += [f"{b} {a}" if flip & 1 else f"{a} {b}" for (a, b), flip in zip(edges, flips)]
    assert graphs.parse_edge_list("\n".join(lines) + "\n") == g


@st.composite
def edge_orders(draw, max_vertices=12):
    """A vertex count n and the edges of a simple graph on 1..n in two
    independently drawn orders and orientations."""
    n = draw(st.integers(1, max_vertices))
    edges = sorted(draw(simple_graphs(min_vertices=n, max_vertices=n)).edges)
    orders = []
    for _ in range(2):
        order = draw(st.permutations(edges))
        flips = draw(st.binary(min_size=len(order), max_size=len(order)))
        orders.append([(b, a) if flip & 1 else (a, b) for (a, b), flip in zip(order, flips)])
    return n, orders


@PROPERTY_SETTINGS
@given(drawn=edge_orders())
def test_graph_tables_match_an_edge_scan(drawn):
    """The neighbour table agrees with a scan of the edges, rejects vertices
    outside 1..n, and leaves equality, hash and repr alone."""
    n, (first, second) = drawn
    g = graphs.from_edges(n, first)
    for v in range(1, n + 1):
        scan = tuple(sorted([b for a, b in g.edges if a == v] + [a for a, b in g.edges if b == v]))
        assert g.neighborhood(v) == scan
        assert g.degree(v) == len(scan)
    for unknown in (0, n + 1):
        for query in (g.neighborhood, g.degree):
            with pytest.raises(InvalidGraphError, match=f"^vertex {unknown} not in graph$"):
                query(unknown)
    h = graphs.from_edges(n, second)
    h.neighborhood(1)  # build both graphs' tables before comparing
    assert g == h and hash(g) == hash(h)
    # A frozenset's repr follows its insertion history, so repr is compared
    # with an unqueried graph built from the same edge order.
    assert repr(g) == repr(graphs.from_edges(n, first))
    assert repr(h) == repr(graphs.from_edges(n, second))


_SEEDED_RNG = st.integers(0, 2**32 - 1).map(np.random.default_rng)
# Each generator's name and a strategy for its arguments.
GENERATORS = {
    "chain": st.tuples(st.integers(1, 12)),
    "star": st.tuples(st.integers(1, 11)),
    "ring": st.tuples(st.integers(3, 12)),
    "ring_star": st.tuples(st.integers(2, 6).map(lambda m: 2 * m)),
    "grid": st.tuples(st.integers(1, 4), st.integers(1, 4)),
    "random_graph": st.tuples(st.integers(1, 12), st.floats(0.0, 1.0), _SEEDED_RNG),
    "random_connected_graph": st.tuples(st.integers(1, 12), st.floats(0.0, 1.0), _SEEDED_RNG),
}


@PROPERTY_SETTINGS
@given(data=st.data(), name=st.sampled_from(sorted(GENERATORS)))
def test_every_generator_puts_vertex_v_on_mode_v(data, name):
    """Vertices are 1..n; the graph state squeezes modes 1..n and then couples
    exactly the sorted edges; star and ring_star put their hub on mode 1, its
    momentum row reading the spokes' positions: the leaves 2..m+1 of star(m),
    and 3, 5, ..., 2m+1 of ring_star(2m)."""
    g = getattr(graphs, name)(*data.draw(GENERATORS[name]))
    n = g.n_vertices
    assert g.vertices == tuple(range(1, n + 1))
    reg = protocols.build_graph_state(g)
    assert reg.history == ([Squeeze(m, MOMENTUM_SQUEEZED) for m in range(1, n + 1)]
                           + [Kerr(a, b, 1.0) for a, b in sorted(g.edges)])
    if name in ("star", "ring_star"):
        spokes = tuple(range(2, n + 1) if name == "star" else range(3, n + 1, 2))
        assert g.neighborhood(1) == spokes
        assert reg.quad_expr(1, Y) == {(1, Y, -1): 1.0, **{(s, X, 1): 1.0 for s in spokes}}


# A tape step names modes by position among the active ones (taken modulo
# their number), so every drawn step applies to the register as it stands.
_PICK = st.integers(0, 5)
_KIND = st.sampled_from([X, Y])
# (gate, mode, other mode, parameter in [-1.5, 1.5])
GATE_STEPS = st.tuples(st.sampled_from(["squeeze", "kerr", "rotate", "beamsplit"]), _PICK, _PICK,
                       st.floats(-1.5, 1.5))
# (measured mode and kind, displaced mode and kind, coefficient, record)
FEEDFORWARD_STEPS = st.tuples(_PICK, _KIND, _PICK, _KIND, st.floats(-2.0, 2.0), _PICK)


def apply_gate_step(reg, step):
    """Apply one drawn gate; a squeeze of a mode that carries feed-forward
    content is refused by the ledger and skipped."""
    name, a, b, x = step
    active = reg.active_modes()
    m, other = active[a % len(active)], active[(a + 1 + b % (len(active) - 1)) % len(active)]
    if name == "squeeze":
        try:
            reg.apply(Squeeze(m, MOMENTUM_SQUEEZED if x >= 0 else POSITION_SQUEEZED))
        except UnsupportedOperationError:
            pass
    elif name == "kerr":
        reg.apply(Kerr(m, other, x))
    elif name == "rotate":
        reg.apply(Rotate(m, 2.0 * x))
    else:
        reg.apply(Beamsplit(m, other, abs(x) / 1.5))


def apply_feedforward_step(reg, step):
    """Measure a mode while more than two are active, then displace an active
    mode by any record so far."""
    a, kind, b, target_kind, coeff, pick = step
    active = reg.active_modes()
    if len(active) > 2:
        reg.measure(active[a % len(active)], kind)
        active = reg.active_modes()
    if reg.records:
        target = active[b % len(active)]
        reg.displace_with(target, target_kind, coeff, reg.records[pick % len(reg.records)])


# A displacement coefficient that no prune removes.
_NONZERO = st.floats(0.1, 2.0) | st.floats(-2.0, -0.1)
# (kind measured on mode 1, on mode 2, displaced on mode 3 by record 0, three coefficients)
RELAYS = st.tuples(_KIND, _KIND, _KIND, _NONZERO, _NONZERO, _NONZERO)


def apply_relay(reg, relay):
    """Mode 2 is displaced by mode 1's record and then measured; mode 3 is
    displaced by both records, so it reaches the first one twice when mode 2's
    record is its Y, which carries the first (needs n >= 4)."""
    kind, relayed, direct, c1, c2, c3 = relay
    first = reg.measure(1, kind)
    reg.displace_with(2, Y, c1, first)
    reg.displace_with(3, Y, c2, reg.measure(2, relayed))
    reg.displace_with(3, direct, c3, first)


@PROPERTY_SETTINGS
@given(
    n=st.integers(2, 6),
    before=st.lists(GATE_STEPS, max_size=6),
    relay=st.none() | RELAYS,
    feedforward=st.lists(FEEDFORWARD_STEPS, min_size=1, max_size=4),
    after=st.lists(GATE_STEPS, min_size=1, max_size=6),
)
def test_random_tapes_keep_canonical_commutators(n, before, relay, feedforward, after):
    """[X_a, Y_b] = delta_ab and [X_a, X_b] = [Y_a, Y_b] = 0 over every ordered
    pair of active rows (the identity's s = 0 sum is Omega and no other sum
    raises), through measurements, displacements by earlier records (from n = 4
    on, some after a record relayed through another) and the gates that follow
    them."""
    reg = ledger.Register(n)
    for step in before:
        apply_gate_step(reg, step)
    if relay is not None and n >= 4:
        apply_relay(reg, relay)
    for step in feedforward:
        apply_feedforward_step(reg, step)
    for step in after:
        apply_gate_step(reg, step)
    gap = np.abs(claims._commutator_matrix(reg) - symplectic_form(len(reg.active_modes())))
    assert gap.max() <= 1e-9, np.unravel_index(gap.argmax(), gap.shape)


@st.composite
def overflowing_tapes(draw):
    """A state size, a tape of any of the four gate kinds and an r in [0, 400]:
    squeezes past about r = 355 and couplings past about 1e154 leave float range."""
    n = draw(st.integers(2, 5))
    modes = st.integers(1, n)
    gates_drawn = []
    for _ in range(draw(st.integers(1, 12))):
        kind = draw(st.sampled_from(["squeeze", "kerr", "rotate", "beamsplit"]))
        l, k = draw(modes), draw(modes)
        k = k if k != l else l % n + 1
        if kind == "squeeze":
            gates_drawn.append(Squeeze(l, draw(st.sampled_from([MOMENTUM_SQUEEZED, POSITION_SQUEEZED]))))
        elif kind == "kerr":
            g = draw(st.one_of(st.just(1.0), st.floats(-2.0, 2.0), st.floats(-1e160, 1e160),
                               st.sampled_from([1e150, -1e155, 1e160])))
            gates_drawn.append(Kerr(l, k, g))
        elif kind == "rotate":
            gates_drawn.append(Rotate(l, draw(st.floats(-4.0, 4.0))))
        else:
            gates_drawn.append(Beamsplit(l, k, draw(st.floats(0.0, 1.0))))
    r = draw(st.one_of(st.floats(0.0, 2.0), st.floats(0.0, 400.0), st.floats(340.0, 400.0)))
    return n, gates_drawn, r


@settings(PROPERTY_SETTINGS, max_examples=80)
@given(drawn=overflowing_tapes())
def test_apply_tape_is_the_per_gate_rule_overflow_included(drawn):
    """``apply_tape`` under its one guard and bare ``apply_gate`` calls, each
    under its own, give the same bits and sign bits, or the same DomainError
    naming the same gate."""
    n, tape, r = drawn
    bare, failed = covariance.vacuum_state(n), None
    for gate in tape:
        try:
            covariance.apply_gate(bare, gate, r)
        except DomainError as error:
            failed = (gate, str(error))
            break
    if failed is None:
        got = covariance.apply_tape(covariance.vacuum_state(n), tape, r)
        for a, b in ((got.mean, bare.mean), (got.cov, bare.cov)):
            assert np.array_equal(a, b)
            assert np.array_equal(np.signbit(a), np.signbit(b))
    else:
        gate, message = failed
        assert message.startswith(f"{gate!r} at r={r!r} leaves float range")
        with pytest.raises(DomainError) as raised:
            covariance.apply_tape(covariance.vacuum_state(n), tape, r)
        assert str(raised.value) == message


@st.composite
def cone_cases(draw):
    """A state size, a tape of squeezes, g = 1 and other couplings, quarter and
    other turns and beamsplitters, a final-frame combo and r values in [0, 3]."""
    n = draw(st.integers(1, 6))
    modes = st.integers(1, n)
    kinds = ["squeeze", "rotate"] + (["kerr", "beamsplit"] if n > 1 else [])
    tape = []
    for _ in range(draw(st.integers(0, 14))):
        kind = draw(st.sampled_from(kinds))
        l, k = draw(modes), draw(modes)
        k = k if k != l else l % n + 1
        if kind == "squeeze":
            tape.append(Squeeze(l, draw(st.sampled_from([MOMENTUM_SQUEEZED, POSITION_SQUEEZED]))))
        elif kind == "kerr":
            tape.append(Kerr(l, k, draw(st.one_of(st.just(1.0), st.floats(-2.0, 2.0)))))
        elif kind == "rotate":
            quarter = st.sampled_from([math.pi / 2.0, -math.pi / 2.0, math.pi])
            tape.append(Rotate(l, draw(st.one_of(quarter, st.floats(-4.0, 4.0)))))
        else:
            tape.append(Beamsplit(l, k, draw(st.floats(0.0, 1.0))))
    term = st.tuples(st.floats(-2.0, 2.0), modes, st.sampled_from([X, Y]))
    combo = draw(st.lists(term, min_size=1, max_size=4))
    return n, tape, combo, draw(st.lists(st.floats(0.0, 3.0), min_size=1, max_size=3))


@PROPERTY_SETTINGS
@given(drawn=cone_cases())
def test_a_combos_light_cone_replays_its_sub_block_bit_for_bit(drawn):
    """Replaying only the cone gives the sub-block the combo reads, and so its
    variance and bridge allowance, with the bits of the whole tape's replay."""
    n, tape, combo, rs = drawn
    m, cone, local, kept = covariance.light_cone(n, tape, combo)
    assert m <= n and len(cone) == len(kept) <= len(tape)
    whole, mine = covariance.combo_weights(combo), covariance.combo_weights(local)
    replays = zip(covariance.replay(n, tape, rs), covariance.replay(m, cone, rs),
                  covariance.replay(n, kept, rs), strict=True)
    for full, part, unmoved in replays:
        a, b, c = full.cov[whole[1]], part.cov[mine[1]], unmoved.cov[whole[1]]
        assert np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))
        assert np.array_equal(a, c) and np.array_equal(np.signbit(a), np.signbit(c))
        assert covariance.variance_of(full, whole) == covariance.variance_of(part, mine)
        assert covariance.bridge_allowance(full, whole) == covariance.bridge_allowance(part, mine)


@PROPERTY_SETTINGS
@given(data=st.data(), g=simple_graphs())
def test_a_vertex_laws_cone_is_its_squeezes_and_its_edges(data, g):
    """On a graph tape, Y_v - sum X_b over v's neighbours reads v's squeeze,
    each neighbour's squeeze and each of v's couplings: 1 + 2 deg(v) gates."""
    v = data.draw(st.sampled_from(g.vertices))
    law = [(1.0, v, Y)] + [(-1.0, b, X) for b in g.neighborhood(v)]
    m, cone, _, kept = covariance.light_cone(g.n_vertices, protocols.graph_tape(g), law)
    assert len(cone) == 1 + 2 * g.degree(v)
    assert {q for gate in kept for q in gates.modes(gate)} == {v, *g.neighborhood(v)}
    assert m == 1 + g.degree(v)


def accumulate_reference(dst, c, src):
    """``dst += c * src`` by the general loop alone: every sum made with
    ``dst.get`` and pruned as it is made, whether ``dst`` is empty or not."""
    if c != 0.0:
        for key, v in src.items():
            val = dst.get(key, 0.0) + c * v
            if abs(val) <= PRUNE_TOL:
                dst.pop(key, None)
            else:
                dst[key] = val
    return dst


_TERM_KEYS = st.tuples(st.integers(1, 4), st.sampled_from([X, Y]), st.integers(-2, 2))
# Coefficients on both sides of PRUNE_TOL, as sums and scaled copies meet them.
_COEFFS = st.one_of(
    st.floats(-1e3, 1e3),
    st.floats(PRUNE_TOL / 10, PRUNE_TOL * 10),
    st.sampled_from([PRUNE_TOL, -PRUNE_TOL, 1.0, -1.0]),
)
_SCALES = st.one_of(st.sampled_from([0.0, 1.0, -1.0, 1e-300, -1e-300]), st.floats(-1e6, 1e6))


@PROPERTY_SETTINGS
@given(
    dst=st.one_of(st.just({}), st.dictionaries(_TERM_KEYS, _COEFFS, min_size=1, max_size=8)),
    c=_SCALES,
    src=st.dictionaries(_TERM_KEYS, _COEFFS, max_size=8),
)
def test_accumulate_is_the_general_loop_value_for_value_and_in_order(dst, c, src):
    """The scaled copy into an empty dict keeps what the general loop makes,
    underflow to zero (c = 1e-300) and pruning included."""
    want = accumulate_reference(dict(dst), c, src)
    got = dict(dst)
    assert ledger._accumulate(got, c, src) is got
    assert list(got.items()) == list(want.items())


_EXPR_LISTS = st.lists(st.dictionaries(_TERM_KEYS, _COEFFS | st.just(math.nan), max_size=8), max_size=6)


@PROPERTY_SETTINGS
@given(exprs=_EXPR_LISTS)
def test_coefficient_matrix_holds_each_coefficient_at_its_key_and_zeros_elsewhere(exprs):
    """``coords`` are exactly the keys used, sorted; ``mat[pos[key], j]`` is
    ``exprs[j][key]`` with its bits (NaN and -0.0 too), and every other entry is +0.0."""
    coords, mat = ledger.coefficient_matrix(exprs)
    assert coords == sorted({key for expr in exprs for key in expr})
    pos = {key: i for i, key in enumerate(coords)}
    want = np.zeros((len(coords), len(exprs)))
    for j, expr in enumerate(exprs):
        for key, c in expr.items():
            want[pos[key], j] = c
    assert mat.shape == want.shape and mat.tobytes() == want.tobytes()


@PROPERTY_SETTINGS
@given(exprs=_EXPR_LISTS)
def test_growing_part_has_the_bits_of_its_own_loop(exprs):
    """The growing part is the k >= 0 rows of the coefficient matrix, and it has,
    bit for bit and C-contiguous, what the growing part's own fill loop made."""
    coords = sorted({key for col in exprs for key in col if key[2] >= 0})
    pos = {c: idx for idx, c in enumerate(coords)}
    want = np.zeros((max(len(coords), 1), len(exprs)))
    for j, col in enumerate(exprs):
        for key, c in col.items():
            if key[2] >= 0:
                want[pos[key], j] = c
    got = protocols._growing_part(exprs)
    assert got.flags.c_contiguous
    assert got.shape == want.shape and got.tobytes() == want.tobytes()
    keys, full = ledger.coefficient_matrix(exprs)
    if coords:
        assert got.tobytes() == full[[i for i, key in enumerate(keys) if key[2] >= 0]].tobytes()


@settings(PROPERTY_SETTINGS, max_examples=100)
@given(data=st.data(), g=st.floats(-3.0, 3.0))
def test_kerr_with_feed_forward_books_is_the_general_step(data, g):
    """A Kerr between modes whose books hold records, or not, leaves every row
    and book as the general accumulate step does, in the same key order."""
    reg = ledger.Register(5)
    for gate in protocols.build_graph_state(graphs.chain(5)).history:
        reg.apply(gate)
    for measured in (1, 5):
        rec = reg.measure(measured, X)
        for mode, kind in data.draw(st.lists(st.tuples(st.integers(2, 4), st.sampled_from([X, Y])), max_size=4)):
            reg.displace_with(mode, kind, data.draw(st.floats(-2.0, 2.0)), rec)
    l, k = data.draw(st.permutations([2, 3, 4]))[:2]
    want = reg.copy()
    ml, mk = want._modes[l - 1], want._modes[k - 1]
    for dst, src in ((ml, mk), (mk, ml)):
        accumulate_reference(dst.row[Y], g, src.row[X])
        accumulate_reference(dst.book[Y], g, src.book[X])
    reg.apply(Kerr(l, k, g))
    for got_mode, want_mode in zip(reg._modes, want._modes):
        for table in ("row", "book"):
            for kind in (X, Y):
                got_d, want_d = getattr(got_mode, table)[kind], getattr(want_mode, table)[kind]
                assert list(got_d.items()) == list(want_d.items())


# ---------------------------------------------------------------------------
# quarter turns: a lazy per-mode frame against turns settled one at a time
# ---------------------------------------------------------------------------

# (step, mode, other mode or turn count, parameter in [-1.5, 1.5], kind); turns
# and displacements come thrice as often, so displacements meet turned modes.
FRAME_STEPS = st.tuples(
    st.sampled_from(["turn"] * 3 + ["displace"] * 3 + ["rotate", "kerr", "beamsplit", "squeeze", "measure"]),
    _PICK, _PICK, st.floats(-1.5, 1.5), _KIND)


def settle_all(reg):
    """Read every active mode: a read writes its pending quarter turns through."""
    for m in reg.active_modes():
        reg.quad_expr(m, X)


def run_frame_steps(n, steps, split, eager):
    """Apply the drawn steps, continuing on a ``copy()`` from step ``split``;
    pickle every quadrature, frame combination and record observable of the
    original and the copy.  ``eager`` turns a quarter-turn count q into q mod 4
    single +90 turns and reads every mode after each step, so no frame ever
    holds more than one turn."""
    reg = ledger.Register(n)
    regs, fed = [reg], False
    for i, (name, a, b, x, kind) in enumerate(steps):
        if i == split:
            reg = reg.copy()
            regs.append(reg)
        active = reg.active_modes()
        m = active[a % len(active)]
        others = [o for o in active if o != m]
        other = others[b % len(others)] if others else None
        if name == "turn":
            q = b % 5 - 1  # -90, 0, 90, 180 or 270 degrees
            for theta in [math.pi / 2.0] * (q % 4) if eager else [q * math.pi / 2.0]:
                reg.apply(Rotate(m, theta))
                if eager:
                    settle_all(reg)
        elif name == "rotate":
            reg.apply(Rotate(m, x))
        elif name == "kerr" and other:
            reg.apply(Kerr(m, other, x))
        elif name == "beamsplit" and other:
            reg.apply(Beamsplit(m, other, abs(x) / 1.5))
        elif name == "squeeze" and not fed:
            reg.apply(Squeeze(m, MOMENTUM_SQUEEZED if x >= 0 else POSITION_SQUEEZED))
        elif name == "measure" and other:
            reg.measure(m, kind)
        elif name == "displace" and (reg.records or other):
            if not reg.records:  # the first displacement measures another mode
                reg.measure(other, kind)
            reg.displace_with(m, kind, x, reg.records[b % len(reg.records)])
            fed = True
        if eager:
            settle_all(reg)
    seen = []
    for r in regs:
        quads = [(m, kd) for m in r.active_modes() for kd in (X, Y)]
        seen.append(([r.quad_expr(m, kd) for m, kd in quads],
                     [r.frame_combo([(1.0, m, kd)]) for m, kd in quads],
                     r.frame_combo([(0.5, m, kd) for m, kd in quads]),
                     [rec.observable for rec in r.records]))
    return pickle.dumps(seen)


@PROPERTY_SETTINGS
@given(n=st.integers(1, 4), steps=st.lists(FRAME_STEPS, max_size=24), split=st.integers(0, 24))
def test_quarter_turn_frames_settle_as_single_turns(n, steps, split):
    """Quarter turns counted on a mode, displaced through and settled only when
    the mode is read, leave the same bits and key orders as single turns
    settled at once, with generic rotations, Kerr, beamsplitters, squeezes,
    measurements and a copy in between."""
    assert run_frame_steps(n, steps, split, eager=False) == run_frame_steps(n, steps, split, eager=True)


# ---------------------------------------------------------------------------
# feed-forward records: the walk down the indices against a newest-first heap
# ---------------------------------------------------------------------------


def heap_frame_combo(reg, parts):
    """``Register.frame_combo`` with the owed record indices on a heap, popped
    newest first: the reference rule for the walk down the indices."""
    acc, due, latest = {}, {}, []

    def fold(c, book):
        for i, w in book.items():
            if i not in due:
                heapq.heappush(latest, -i)
            due[i] = due.get(i, 0.0) + c * w

    for c, mode, kind in parts:
        fold(c, reg._mode(mode).book[kind])
        acc[(mode, kind)] = acc.get((mode, kind), 0.0) + c
    while latest:
        i = -heapq.heappop(latest)
        c, rec = due.pop(i), reg.records[i]
        acc[(rec.mode, rec.kind)] = c
        fold(c, reg._modes[rec.mode - 1].book[rec.kind])
    return [(c, m, kd) for (m, kd), c in sorted(acc.items()) if abs(c) > PRUNE_TOL]


@settings(PROPERTY_SETTINGS, max_examples=100)
@given(
    n=st.integers(4, 7),
    before=st.lists(GATE_STEPS, max_size=6),
    relay=RELAYS,
    after=st.lists(st.one_of(GATE_STEPS, FEEDFORWARD_STEPS), max_size=10),
    weights=st.lists(st.floats(-2.0, 2.0), min_size=14, max_size=14),
)
def test_frame_combo_is_the_newest_first_rule_bit_for_bit(n, before, relay, after, weights):
    """After the relay (:func:`apply_relay`), gates and further feed-forward
    follow.  Every active quadrature, and a weighted sum of all of them,
    resolves to the weights the heap rule gives, float bits included."""
    reg = ledger.Register(n)
    for step in before:
        apply_gate_step(reg, step)
    apply_relay(reg, relay)
    for step in after:
        (apply_gate_step if len(step) == 4 else apply_feedforward_step)(reg, step)
    quads = [(m, kd) for m in reg.active_modes() for kd in (X, Y)]
    combos = [[(1.0, m, kd)] for m, kd in quads] + [[(w, m, kd) for w, (m, kd) in zip(weights, quads)]]
    for parts in combos:
        got, want = reg.frame_combo(parts), heap_frame_combo(reg, parts)
        assert [(c.hex(), m, kd) for c, m, kd in got] == [(c.hex(), m, kd) for c, m, kd in want]


# ---------------------------------------------------------------------------
# shared gate values: graph tapes against freshly built gates
# ---------------------------------------------------------------------------


def register_state(reg):
    """Rows and books with their key orders, records and history, by value."""
    tables = [(md.record_index, md.turns, [[(kd, list(d.items())) for kd, d in t.items()]
                                           for t in (md.row, md.book)])
              for md in reg._modes]
    records = [(rec.index, rec.mode, rec.kind, list(rec.observable.items())) for rec in reg.records]
    return tables, records, list(reg.history)


@PROPERTY_SETTINGS
@given(data=st.data(), g=simple_graphs())
def test_graph_tapes_share_values_equal_to_fresh_gates(data, g):
    """A graph tape holds the values its fresh gates would, type and repr
    included; equal graphs share them; and a ledger run on the shared tape,
    measured, displaced and copied, is the run on fresh gates."""
    fresh = [Squeeze(m, MOMENTUM_SQUEEZED) for m in range(1, g.n_vertices + 1)]
    fresh += [Kerr(l, k, 1.0) for l, k in sorted(g.edges)]
    tape = protocols.graph_tape(g)
    assert [(type(a), repr(a)) for a in tape] == [(type(b), repr(b)) for b in fresh]
    assert tape == fresh
    twin = protocols.graph_tape(graphs.from_edges(g.n_vertices, list(g.edges)))
    assert all(a is b for a, b in zip(tape, twin, strict=True))
    m = data.draw(st.integers(1, g.n_vertices), label="measured")
    kind = data.draw(st.sampled_from([X, Y]), label="kind")
    runs = []
    for gates_in in (tape, fresh):
        reg = protocols.build(g.n_vertices, gates_in)
        if g.n_vertices > 1:
            rec = reg.measure(m, kind)
            for v in reg.active_modes():
                reg.displace_with(v, Y, -1.0, rec)
        runs.append(reg.copy())
        runs.append(reg)
    assert [register_state(r) for r in runs[:2]] == [register_state(r) for r in runs[2:]]
    assert register_state(runs[0]) == register_state(runs[1])


# ---------------------------------------------------------------------------
# graph states: the closed form written against the gates replayed
# ---------------------------------------------------------------------------


def exact_state(reg):
    """Rows and books as ``(key, float.hex)`` in key order, so a sign of zero
    counts; record and turns per mode; records; and history by identity."""
    tables = [(md.record_index, md.turns, [[(kd, [(key, v.hex()) for key, v in d.items()])
                                            for kd, d in t.items()] for t in (md.row, md.book)])
              for md in reg._modes]
    return reg.n, tables, reg.records, [id(gate) for gate in reg.history]


def assert_written_is_replayed(g):
    written = protocols.build_graph_state(g)
    replayed = protocols.build(g.n_vertices, protocols.graph_tape(g))
    assert exact_state(written) == exact_state(replayed)
    assert all(not md.book[X] and not md.book[Y] and md.turns == 0 for md in written._modes)
    assert written.records == [] and written.active_modes() == list(g.vertices)


@PROPERTY_SETTINGS
@given(g=simple_graphs())
@example(g=graphs.from_edges(1, []))
def test_a_written_graph_state_is_the_replayed_tape_bit_for_bit(g):
    assert_written_is_replayed(g)


@pytest.mark.parametrize("g", [graphs.chain(200), graphs.grid(10, 15), graphs.star(12),
                               graphs.ring_star(10), graphs.ring(7)],
                         ids=["chain(200)", "grid(10,15)", "star(12)", "ring_star(10)", "ring(7)"])
def test_a_written_named_graph_state_is_the_replayed_tape_bit_for_bit(g):
    for _ in range(3):  # the first build, the one cached, then a copy of it
        assert_written_is_replayed(g)


def test_the_row_claims_run_the_gates_and_the_protocols_do_not(monkeypatch):
    """With every Kerr gain off by 1e-6 on the ledger, the two claims about the
    gate algebra fail, while a protocol's graph state is still the closed form."""
    apply = ledger.Register.apply

    def skewed(reg, gate):
        if isinstance(gate, Kerr):
            gate = Kerr(gate.l, gate.k, gate.g * (1.0 + 1e-6))
        return apply(reg, gate)

    monkeypatch.setattr(ledger.Register, "apply", skewed)
    assert not claims._claim_chain_rows(claims.Battery()).passed
    assert not claims._claim_graph_law(claims.Battery()).passed
    g = graphs.chain(6)
    assert protocols.graph_row_deviation(protocols.build_graph_state(g), g) == 0
    assert protocols.disentangle_even(g).success


# ---------------------------------------------------------------------------
# random .cvq scripts: both engines through the command line
# ---------------------------------------------------------------------------

_R_VALUES = st.floats(0.0, 3.0).map(lambda r: f"{r:g}")
_COEFF = st.one_of(st.sampled_from(["1", "-1", "sqrt2", "-sqrt2"]),
                   st.floats(-3.0, 3.0).map(lambda c: f"{c:g}"))


@st.composite
def cvq_scripts(draw):
    """Script text with every statement kind on up to five modes: couplings
    with |g| <= 1e3, turns by quarter or any angle, and no statement that
    names a mode once it is measured."""
    n = draw(st.integers(1, 5), label="modes")
    lines, active, names = [f"register {n}"], list(range(1, n + 1)), []

    def combo():
        terms = draw(st.lists(st.tuples(_COEFF, st.sampled_from(active), st.sampled_from("xy")),
                              min_size=1, max_size=3))
        return " + ".join(f"{c}*{kind}{m}" for c, m, kind in terms)

    for _ in range(draw(st.integers(0, 12), label="statements")):
        if not active:
            break
        m = draw(st.sampled_from(active))
        others = [o for o in active if o != m]
        step = draw(st.sampled_from(["squeeze", "squeeze", "kerr", "kerr", "bs", "rotate", "measure",
                                     "displace", "nullifier", "product", "print"]))
        if step == "squeeze":
            lines.append(f"squeeze {m} {draw(st.sampled_from(['momentum', 'position']))}")
        elif step in ("kerr", "bs") and others:
            k = draw(st.sampled_from(others))
            if step == "kerr":
                lines.append(f"kerr {m} {k} g={draw(st.floats(-1e3, 1e3)):g}")
            else:
                lines.append(f"bs {m} {k} t={draw(st.floats(0.0, 1.0)):g}")
        elif step == "rotate":
            angle = draw(st.one_of(st.sampled_from(["90", "-90", "180"]),
                                   st.integers(-4, 4).map(lambda q: f"{q * math.pi / 2.0!r}rad"),
                                   st.floats(-7.0, 7.0).map(lambda t: f"{t!r}rad")))
            lines.append(f"rotate {m} {angle}")
        elif step == "measure" and others:
            names.append(f"t{len(names) + 1}")
            lines.append(f"measure {draw(st.sampled_from('xy'))} {m} -> {names[-1]}")
            active.remove(m)
        elif step == "displace" and names:
            lines.append(f"displace {draw(st.sampled_from('xy'))} {m} += "
                         f"{draw(_COEFF)}*{draw(st.sampled_from(names))}")
        elif step == "nullifier":
            lines.append(f"assert nullifier {combo()}")
        elif step == "product":
            lines.append("assert product")
        elif step == "print":
            rs = draw(st.lists(_R_VALUES, min_size=1, max_size=3))
            lines.append(f"print variance {combo()} at r={','.join(rs)}")
    return "\n".join(lines) + "\n"


def run_script(path, *options):
    """``cvcluster run path options``: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["run", path, *options])
    return code, out.getvalue(), err.getvalue()


@settings(PROPERTY_SETTINGS, max_examples=100)
@given(text=cvq_scripts(), r=_R_VALUES)
def test_random_scripts_end_alike_on_both_engines(text, r):
    """Every script ends in a report (exit 0 or 1) or one positioned line
    (exit 2) on each engine, and the two engines agree on the exit code and
    on every assert's verdict."""
    with tempfile.TemporaryDirectory(prefix="cvq-") as tmp:
        path = os.path.join(tmp, "fuzz.cvq")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        runs = [run_script(path, "--r", r), run_script(path, "--engine", "covariance", "--r", r)]
    verdicts = []
    for code, out, err in runs:
        assert code in (0, 1, 2), err
        if code == 2:
            assert re.fullmatch(re.escape(path) + r":\d+:\d+: [^\n]*\n", err), err
        verdicts.append(re.findall(r"^line (\d+): assert .* \.\. (\w+)$", out, re.MULTILINE))
    assert runs[0][0] == runs[1][0]
    assert verdicts[0] == verdicts[1]
