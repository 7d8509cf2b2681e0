"""Entanglement protocols on graph registers: build, measure, feed forward.

Builders turn a :class:`~cvcluster.graphs.Graph` into either a symbolic
:class:`~cvcluster.ledger.Register` or a numeric
:class:`~cvcluster.covariance.GaussianState`.  Protocols take a graph, build
its graph state themselves, consume parts of it by homodyne-style quadrature
measurements and repair the survivors with displacements proportional to the
measured results.  The :class:`ProtocolReport` says which target combinations
ended up as nullifiers and carries the final register as ``register``.

Vertex labels and register modes are linked by sorted order: the i-th
smallest vertex is mode i.  For chains built by ``graphs.chain`` the two
coincide, so protocol arguments that name chain positions are plain mode
indices there.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass, field

import numpy as np

from . import covariance, graphs, ledger
from .errors import ProtocolPreconditionError, SelfInteractionError
from .gates import (
    MOMENTUM_SQUEEZED,
    POSITION_SQUEEZED,
    PRUNE_TOL,
    SOLVER_TOL,
    X,
    Y,
    Beamsplit,
    Kerr,
    Rotate,
    Squeeze,
)


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


@dataclass
class ProtocolReport:
    """What a protocol did and whether its targets became nullifiers.

    ``register`` is the graph state the protocol built, as measurement and
    feed-forward left it.  ``combos`` lists the verified target combinations
    as final-frame ``(coeff, mode, kind)`` weights (consumed modes stand for
    their measured quadrature), ready for replay on the covariance engine.
    """

    protocol: str
    success: bool
    register: ledger.Register
    measurements: list = field(default_factory=list)  # (mode, kind)
    displacements: list = field(default_factory=list)  # (mode, kind, coeff, record_index)
    nullifiers: list = field(default_factory=list)  # QuadExpr
    combos: list = field(default_factory=list)  # [(coeff, mode, kind)]
    rank_info: tuple | None = None
    flavor: str | None = None
    partition: list | None = None
    details: str = ""


@dataclass(frozen=True)
class Infeasible:
    """A feed-forward system with no exact solution.

    ``equations`` counts the measurement records offered to the solver,
    ``rank`` the independent ones; a deficiency of ``equations - rank``
    pinpoints degenerate measurement patterns.
    """

    equations: int
    rank: int

    @property
    def deficiency(self) -> int:
        return self.equations - self.rank


@dataclass(frozen=True)
class FeedforwardSolution:
    coeffs: list  # one dict {record_index: coeff} per target
    rank_info: tuple  # (equations, rank)


# ---------------------------------------------------------------------------
# Builders
# ---------------------------------------------------------------------------


# Ledger graph states per Graph, kept while the graph lives: None once its
# first build was handed out, then a build that later requests copy.
_BUILDS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def build_graph_state(graph: graphs.Graph, engine: str = "ledger", r: float | None = None):
    """Momentum-squeeze every vertex mode, then couple every edge with g=1.

    Ledger rows come out as ``X_a = e^{+r} x0_a`` and
    ``Y_a = e^{-r} y0_a + e^{+r} sum of neighbour x0``.  A graph's first
    ledger build is returned as is; the second is also kept, as a copy, and
    every later request gets an independent ``Register.copy()`` of it.
    """
    if engine == "ledger" and _BUILDS.get(graph) is not None:
        return _BUILDS[graph].copy()
    n = graph.n_vertices
    tape = [Squeeze(m, MOMENTUM_SQUEEZED) for m in range(1, n + 1)]
    tape += [Kerr(l, k, 1.0)
             for l, k in sorted((graph.mode_of(a), graph.mode_of(b)) for a, b in graph.edges)]
    built = _on_engine(n, tape, engine, r)
    if engine == "ledger":
        _BUILDS[graph] = built.copy() if graph in _BUILDS else None
    return built


def build_bs_chain(n: int, engine: str = "ledger", r: float | None = None):
    """Passive-optics chain: squeezed inputs through a beamsplitter cascade.

    Layout (found by exhaustive search for the weighted four-mode
    correlation set, then frozen): mode 1 is
    momentum-squeezed, modes 2..n position-squeezed; then for each
    i = 1..n-1 a balanced beamsplitter on (i, i+1) followed by a -90 degree
    rotation of mode i+1, i.e. the arm carried on to the next beamsplitter.

    At n=2 this gives standard EPR correlations (after a -90 turn on mode
    2); at n=4 it reproduces the sqrt(2)-weighted correlation set exactly.
    """
    if n < 2:
        raise ProtocolPreconditionError("beamsplitter chain needs n >= 2")
    tape = [Squeeze(1, MOMENTUM_SQUEEZED)]
    tape += [Squeeze(m, POSITION_SQUEEZED) for m in range(2, n + 1)]
    for i in range(1, n):
        tape += [Beamsplit(i, i + 1, 0.5), Rotate(i + 1, -math.pi / 2.0)]
    return _on_engine(n, tape, engine, r)


def build_ghz_optics(n: int, engine: str = "ledger", r: float | None = None):
    """GHZ-type state from passive optics: splitter cascade on squeezed inputs.

    Mode 1 is position-squeezed, modes 2..n momentum-squeezed; beamsplitter
    (i, i+1) with t = 1/(n-i+1) spreads mode 1 evenly over all outputs.
    The result satisfies the unweighted GHZ-type nullifiers — the total
    position sum and every pairwise momentum difference — exactly, and at
    r = 0 it is the vacuum (passive optics preserve it), which puts every
    traced pair exactly on the separability threshold.
    """
    if n < 2:
        raise ProtocolPreconditionError("GHZ optics needs n >= 2")
    tape = [Squeeze(1, POSITION_SQUEEZED)]
    tape += [Squeeze(m, MOMENTUM_SQUEEZED) for m in range(2, n + 1)]
    tape += [Beamsplit(i, i + 1, 1.0 / (n - i + 1)) for i in range(1, n)]
    return _on_engine(n, tape, engine, r)


def _on_engine(n: int, tape, engine: str, r: float | None):
    """The gate tape applied to a fresh ``Register(n)``, or replayed from
    vacuum at ``r`` on the covariance engine (no ledger algebra runs)."""
    if engine == "ledger":
        reg = ledger.Register(n)
        for gate in tape:
            reg.apply(gate)
        return reg
    if engine == "covariance":
        if r is None:
            raise ProtocolPreconditionError("covariance build needs numeric r")
        return covariance.apply_tape(covariance.vacuum_state(n), tape, r)
    raise ProtocolPreconditionError(f"unknown engine {engine!r}")


# ---------------------------------------------------------------------------
# Graph checks
# ---------------------------------------------------------------------------


def graph_row_deviation(reg: ledger.Register, graph: graphs.Graph) -> float:
    """Largest coefficient gap between ``reg``'s rows and the graph-state closed form.

    The closed form is ``X_a = e^{+r} x0_a`` and ``Y_a = e^{-r} y0_a`` plus
    ``e^{+r}`` times the neighbours' ``x0``; every vertex mode must be active.
    A gap at or below ``PRUNE_TOL`` counts as none, as the ledger prunes it.
    """
    worst = 0.0
    for v in graph.vertices:
        m = graph.mode_of(v)
        closed_y = {(graph.mode_of(b), X, 1): 1.0 for b in graph.neighborhood(v)}
        closed_y[(m, Y, -1)] = 1.0
        for kind, closed in ((X, {(m, X, 1): 1.0}), (Y, closed_y)):
            row = reg.quad_expr(m, kind).as_dict()
            for key in row.keys() | closed.keys():
                gap = abs(row.get(key, 0.0) - closed.get(key, 0.0))
                if gap > PRUNE_TOL:
                    worst = max(worst, gap)
    return worst


def _require_chain(graph: graphs.Graph, protocol: str) -> int:
    """Check the graph is a path in sorted-vertex order; return its length."""
    n = graph.n_vertices
    want = {tuple(sorted((graph.vertices[i], graph.vertices[i + 1]))) for i in range(n - 1)}
    if set(graph.edges) != want:
        raise ProtocolPreconditionError(f"{protocol}: graph is not a chain")
    return n


# ---------------------------------------------------------------------------
# Recording protocol steps
# ---------------------------------------------------------------------------


def _measure(reg: ledger.Register, report: ProtocolReport, mode: int, kind: str):
    rec = reg.measure(mode, kind)
    report.measurements.append((mode, kind))
    return rec


def _displace(reg: ledger.Register, report: ProtocolReport, mode: int, kind: str,
              coeff: float, rec):
    reg.displace_with(mode, kind, coeff, rec)
    report.displacements.append((mode, kind, coeff, rec.index))


def _certify(reg: ledger.Register, report: ProtocolReport, parts):
    """Record a target combination as a nullifier candidate and its final-frame weights."""
    report.nullifiers.append(reg.combine(parts))
    report.combos.append(reg.frame_combo(parts))


# ---------------------------------------------------------------------------
# Feed-forward solver
# ---------------------------------------------------------------------------


def solve_feedforward(reg: ledger.Register, targets, records=None):
    """Choose record coefficients cancelling all e^{k>=0} content of targets.

    Each target is ``(parts, allowance)`` where ``parts`` is a
    ``(coeff, mode, kind)`` list over active modes and ``allowance`` an
    optional :class:`~cvcluster.ledger.QuadExpr` of non-negative-exponent
    terms permitted to remain (used to keep one bond alive while severing
    the rest).  Returns a :class:`FeedforwardSolution` with one coefficient
    dict per target, or :class:`Infeasible` with the equation/rank count.  The
    rank is read off the singular values ``lstsq`` returns, counted above
    ``SOLVER_TOL`` as ``matrix_rank`` would; with no target it is 0.
    """
    if records is None:
        records = list(reg.records)
    bases = []
    for parts, allowance in targets:
        base = reg.combine(parts)
        if allowance is not None:
            base.add_scaled(allowance, -1.0)
        bases.append(base)
    growing = _growing_part([rec.observable for rec in records] + bases)
    a_mat = growing[:, : len(records)]
    rank, coeff_dicts = 0, []
    for b in growing[:, len(records):].T:
        if not records:
            if np.max(np.abs(b), initial=0.0) > SOLVER_TOL:
                return Infeasible(0, 0)
            coeff_dicts.append({})
            continue
        alpha, _, _, singular = np.linalg.lstsq(a_mat, -b, rcond=None)
        rank = int(np.count_nonzero(singular > SOLVER_TOL))
        if np.max(np.abs(a_mat @ alpha + b)) > SOLVER_TOL:
            return Infeasible(len(records), rank)
        coeff_dicts.append(
            {records[j].index: float(c) for j, c in enumerate(alpha) if abs(c) > SOLVER_TOL}
        )
    return FeedforwardSolution(coeff_dicts, (len(records), rank))


def _growing_part(exprs) -> np.ndarray:
    """Coordinate x expression matrix of the growing (exponent >= 0) coefficients.

    Rows are the sorted (mode, kind, exponent) coordinates with exponent >= 0
    that any expression uses, with one all-zero row when none does; column j
    holds expression j's coefficients.
    """
    columns = [e.as_dict() for e in exprs]
    coords = sorted({key for col in columns for key in col if key[2] >= 0})
    pos = {c: idx for idx, c in enumerate(coords)}
    mat = np.zeros((max(len(coords), 1), len(exprs)))
    for j, col in enumerate(columns):
        for key, c in col.items():
            if key[2] >= 0:
                mat[pos[key], j] = c
    return mat


# ---------------------------------------------------------------------------
# Chain protocols
# ---------------------------------------------------------------------------


def disentangle_even(graph: graphs.Graph) -> ProtocolReport:
    """Fully separate a chain with floor(n/2) position measurements.

    Measures X of every even position and subtracts each record from the
    momenta of its neighbours; every surviving mode drops to a single
    squeezed line and the partition becomes all singletons.
    """
    n = _require_chain(graph, "disentangle_even")
    reg = build_graph_state(graph)
    report = ProtocolReport("disentangle_even", False, reg)
    recs = {}
    for j in range(2, n + 1, 2):
        recs[j] = _measure(reg, report, j, X)
    for j, rec in recs.items():
        for nb in (j - 1, j + 1):
            if 1 <= nb <= n and nb not in recs:
                _displace(reg, report, nb, Y, -1.0, rec)
    report.partition = reg.product_partition()
    for m in reg.active_modes():
        _certify(reg, report, [(1.0, m, Y)])
    report.success = all(len(block) == 1 for block in report.partition) and all(
        ledger.is_nullifier(e) for e in report.nullifiers
    )
    report.details = f"{len(recs)} measurements on a {n}-chain"
    return report


def disconnect(graph: graphs.Graph, j: int) -> ProtocolReport:
    """Split a chain into two independent chains by measuring X at position j."""
    n = _require_chain(graph, "disconnect")
    if not 1 < j < n:
        raise ProtocolPreconditionError("disconnect needs an interior position")
    reg = build_graph_state(graph)
    report = ProtocolReport("disconnect", False, reg)
    rec = _measure(reg, report, j, X)
    for nb in (j - 1, j + 1):
        _displace(reg, report, nb, Y, -1.0, rec)
    report.partition = reg.product_partition()
    # Graph-law nullifiers of the two sub-chains certify the cut.
    for m in reg.active_modes():
        nbrs = [b for b in (m - 1, m + 1) if 1 <= b <= n and b != j]
        _certify(reg, report, [(1.0, m, Y)] + [(-1.0, b, X) for b in nbrs])
    report.success = len(report.partition) == 2 and all(
        ledger.is_nullifier(e) for e in report.nullifiers
    )
    report.details = f"cut {n}-chain at position {j}: blocks {report.partition}"
    return report


@dataclass(frozen=True)
class NextNeighbor:
    """Outer strategy: measure X of positions j-1 and k+1 (where present)."""


@dataclass(frozen=True)
class CustomOuter:
    """Outer strategy using helper positions away from the pair.

    Helpers at even distance from the protected end are measured in Y,
    odd-distance helpers in X; the feed-forward solver then picks the
    coefficients.  The canonical examples are left={j-2, j-3} and
    left={j-2, j-4, j-5}.
    """

    left: tuple = ()
    right: tuple = ()


def extract_pair(graph: graphs.Graph, j: int, k: int, outer=NextNeighbor()) -> ProtocolReport:
    """Concentrate a chain onto positions (j, k) as an EPR pair.

    Outer measurements detach the pair's far sides, then each inner
    position is removed by the measure/displace/rotate teleportation step.
    Success means the final two modes satisfy the two-chain nullifiers
    ``Y_j - X_k`` and ``Y_k - X_j`` (EPR up to a local quarter turn).
    """
    n = _require_chain(graph, "extract_pair")
    if j == k:
        raise SelfInteractionError("pair positions must differ")
    j, k = min(j, k), max(j, k)
    if not (1 <= j and k <= n):
        raise ProtocolPreconditionError("pair positions outside the chain")
    if isinstance(outer, NextNeighbor):
        left = [j - 1] if j > 1 else []
        right = [k + 1] if k < n else []
    elif isinstance(outer, CustomOuter):
        left, right = list(outer.left), list(outer.right)
        for h in left + right:
            if not 1 <= h <= n or j <= h <= k:
                raise ProtocolPreconditionError(f"outer helper {h} overlaps the pair segment")
    else:
        raise ProtocolPreconditionError(f"unknown outer strategy {outer!r}")
    reg = build_graph_state(graph)
    report = ProtocolReport("extract_pair", False, reg)

    inner = list(range(j + 1, k))
    sides = (("left", left, j, inner[0] if inner else k),
             ("right", right, k, inner[-1] if inner else j))
    for side, helpers, end, inner_neighbor in sides:
        if not helpers:
            continue
        # Measure the helpers, then solve to clean the chain end while
        # keeping its bond to the inner neighbour.
        recs = [_measure(reg, report, h, Y if abs(end - h) % 2 == 0 else X) for h in helpers]
        allowance = ledger.QuadExpr({(inner_neighbor, X, 1): 1.0})
        sol = solve_feedforward(reg, [([(1.0, end, Y)], allowance)], recs)
        if isinstance(sol, Infeasible):
            report.rank_info = (sol.equations, sol.rank)
            report.details = f"outer-{side} feed-forward infeasible"
            return report
        for idx, c in sol.coeffs[0].items():
            _displace(reg, report, end, Y, c, reg.records[idx])

    # Teleport the inner positions away one by one: measure Y, fold the
    # record into X_j, then quarter-turn j so the rows stay in chain form.
    for p in inner:
        _displace(reg, report, j, X, -1.0, _measure(reg, report, p, Y))
        reg.rotate(j, math.pi / 2.0)

    for a, b in ((j, k), (k, j)):
        _certify(reg, report, [(1.0, a, Y), (-1.0, b, X)])
    report.success = all(ledger.is_nullifier(e) for e in report.nullifiers)
    report.flavor = "two-chain EPR (X_j + X_k and Y_j - Y_k after a -90 turn on k)"
    report.details = f"pair ({j}, {k}) of a {n}-chain, {len(inner)} inner teleport steps"
    return report


# ---------------------------------------------------------------------------
# Path reduction on arbitrary graphs
# ---------------------------------------------------------------------------


def reduce_graph_to_path(graph: graphs.Graph, a: int, b: int) -> ProtocolReport:
    """Carve the lexicographically smallest shortest a-b path out of a graph.

    X-measures every off-path neighbour of the path and lets the solver pick
    momentum displacements; the path modes then satisfy the nullifier set of
    an equal-length chain (shortest paths are chordless, so no on-path
    contamination can survive).
    """
    if a == b:
        raise SelfInteractionError("path endpoints must differ")
    reg = build_graph_state(graph)
    report = ProtocolReport("reduce_graph_to_path", False, reg)
    path = graph.shortest_path(a, b)
    if path is None:
        report.details = "endpoints are not connected"
        return report
    on_path = set(path)
    boundary = sorted(
        {v for p in path for v in graph.neighborhood(p) if v not in on_path}
    )
    recs = [_measure(reg, report, graph.mode_of(v), X) for v in boundary]
    targets = []
    for i, p in enumerate(path):
        parts = [(1.0, graph.mode_of(p), Y)]
        for q in (path[i - 1] if i else None, path[i + 1] if i + 1 < len(path) else None):
            if q is not None:
                parts.append((-1.0, graph.mode_of(q), X))
        targets.append((parts, None))
    sol = solve_feedforward(reg, targets, recs)
    if isinstance(sol, Infeasible):
        report.rank_info = (sol.equations, sol.rank)
        report.details = "path repair infeasible"
        return report
    report.rank_info = sol.rank_info
    for (parts, _), coeffs in zip(targets, sol.coeffs):
        mode = parts[0][1]
        for idx, c in coeffs.items():
            _displace(reg, report, mode, Y, c, reg.records[idx])
    for parts, _ in targets:
        _certify(reg, report, parts)
    report.success = all(ledger.is_nullifier(e) for e in report.nullifiers)
    report.details = f"path {path} ({len(boundary)} boundary measurements)"
    return report


# ---------------------------------------------------------------------------
# GHZ extraction
# ---------------------------------------------------------------------------


def star_to_ghz(graph: graphs.Graph) -> ProtocolReport:
    """Project the leaves of a star onto a GHZ-type state.

    Measures Y of the hub and folds the record into X of one leaf; the
    leaves then satisfy the total-position nullifier together with all
    pairwise momentum differences.
    """
    center = _find_center(graph)
    leaves = sorted(v for v in graph.vertices if v != center)
    if len(leaves) < 2:
        raise ProtocolPreconditionError("GHZ projection needs at least two leaves")
    reg = build_graph_state(graph)
    report = ProtocolReport("star_to_ghz", False, reg, flavor="total-position")
    cm = graph.mode_of(center)
    rec = _measure(reg, report, cm, Y)
    _displace(reg, report, graph.mode_of(leaves[0]), X, -1.0, rec)
    modes = [graph.mode_of(v) for v in leaves]
    target_sets = [[(1.0, m, X) for m in modes]]
    for m1, m2 in zip(modes, modes[1:]):
        target_sets.append([(1.0, m1, Y), (-1.0, m2, Y)])
    for parts in target_sets:
        _certify(reg, report, parts)
    report.success = all(ledger.is_nullifier(e) for e in report.nullifiers)
    report.details = f"hub vertex {center}, {len(leaves)} leaves"
    return report


def _find_center(graph: graphs.Graph) -> int:
    n = graph.n_vertices
    centers = [v for v in graph.vertices if graph.degree(v) == n - 1]
    if len(centers) != 1:
        raise ProtocolPreconditionError("graph has no unique hub vertex")
    return centers[0]


def ring_star_to_ghz(
    graph: graphs.Graph,
    measured=None,
    flavor: str = "total-momentum",
) -> ProtocolReport:
    """GHZ projection on the unmeasured ring vertices of a hub-spoked ring.

    Measures Y of the hub and of the given ring vertices (default: the
    hub's spoke targets), then asks the solver for displacements making the
    total momentum of the survivors plus all pairwise position differences
    vanish.  Whether that system is solvable follows a parity rule: an odd
    number of measured ring vertices succeeds, an even number leaves the
    record equations rank-deficient by exactly one.
    """
    hub, ring_order = _ring_and_hub(graph)
    if measured is None:
        measured = graph.neighborhood(hub)
    measured = sorted(set(measured))
    for v in measured:
        if v not in ring_order:
            raise ProtocolPreconditionError(f"measured vertex {v} is not on the ring")
    remaining = [v for v in ring_order if v not in set(measured)]
    if len(remaining) < 2:
        raise ProtocolPreconditionError("GHZ projection needs at least two survivors")
    reg = build_graph_state(graph)
    report = ProtocolReport("ring_star_to_ghz", False, reg, flavor=flavor)
    recs = [_measure(reg, report, graph.mode_of(v), Y) for v in [hub] + sorted(measured)]
    modes = [graph.mode_of(v) for v in remaining]
    if flavor == "total-momentum":
        sum_kind, diff_kind = Y, X
    elif flavor == "total-position":
        sum_kind, diff_kind = X, Y
    else:
        raise ProtocolPreconditionError(f"unknown flavor {flavor!r}")
    targets = [([(1.0, m, sum_kind) for m in modes], None)]
    for m in modes[1:]:
        targets.append(([(1.0, modes[0], diff_kind), (-1.0, m, diff_kind)], None))
    sol = solve_feedforward(reg, targets, recs)
    if isinstance(sol, Infeasible):
        report.rank_info = (sol.equations, sol.rank)
        report.details = (
            f"{len(measured)} measured ring vertices: system degenerate "
            f"(deficiency {sol.deficiency})"
        )
        return report
    report.rank_info = sol.rank_info
    # Each target needs its own carrier quadrature (one no other target
    # reads), otherwise corrections would cross-contaminate: the sum rides
    # on the first survivor, each difference on its non-reference mode.
    for t_idx, ((parts, _), coeffs) in enumerate(zip(targets, sol.coeffs)):
        weight, mode, kind = parts[0] if t_idx == 0 else parts[-1]
        for idx, c in coeffs.items():
            _displace(reg, report, mode, kind, c / weight, reg.records[idx])
    for parts, _ in targets:
        _certify(reg, report, parts)
    report.success = all(ledger.is_nullifier(e) for e in report.nullifiers)
    report.details = (
        f"alternating-spoke ring (reconstructed topology): ring {len(ring_order)}, "
        f"{len(measured)} measured ring vertices + hub"
    )
    return report


def _ring_and_hub(graph: graphs.Graph) -> tuple[int, list[int]]:
    """Identify the hub and the ring cycle order of a ring+spokes graph.

    The hub is the vertex whose removal leaves a single cycle through every
    other vertex.  Degree alone cannot identify it (with alternating spokes
    half the ring shares the hub's degree for small rings), so the cycle
    test is structural; ties are broken by higher degree, then lower label.
    """
    candidates = []
    for hub in graph.vertices:
        order = _cycle_without(graph, hub)
        if order is not None:
            candidates.append((hub, order))
    if not candidates:
        raise ProtocolPreconditionError("graph is not a hub-spoked ring")
    hub, order = min(candidates, key=lambda c: (-graph.degree(c[0]), c[0]))
    return hub, order


def _cycle_without(graph: graphs.Graph, hub: int) -> list[int] | None:
    """Cycle order of the graph minus ``hub``, or None if it is not a cycle."""
    ring = [v for v in graph.vertices if v != hub]
    if len(ring) < 3:
        return None
    nbrs = {v: [u for u in graph.neighborhood(v) if u != hub] for v in ring}
    if any(len(ns) != 2 for ns in nbrs.values()):
        return None
    start = min(ring)
    order = [start]
    prev = None
    while True:
        step = [u for u in nbrs[order[-1]] if u != prev]
        if not step:
            return None
        prev, nxt = order[-1], min(step)
        if nxt == start:
            break
        order.append(nxt)
        if len(order) > len(ring):
            return None
    return order if len(order) == len(ring) else None


# ---------------------------------------------------------------------------
# Weighted nullifier extraction (beamsplitter chains and friends)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WeightedNullifier:
    combo: tuple  # ((coeff, mode, kind), ...)
    expr: ledger.QuadExpr


def nullifier_basis(reg: ledger.Register) -> list[WeightedNullifier]:
    """Basis of all weighted quadrature combinations that are nullifiers.

    Solves for the left null space of the active rows restricted to
    non-negative squeezing exponents; for a fully squeezed pure register
    the basis has one element per active mode.
    """
    layout = [(m, kind) for m in reg.active_modes() for kind in (X, Y)]
    exprs = [reg.quad_expr(m, kind) for m, kind in layout]
    u, s, _ = np.linalg.svd(_growing_part(exprs).T, full_matrices=True)
    rank = int(np.sum(s > SOLVER_TOL))
    out = []
    for col in range(rank, len(exprs)):
        weights = u[:, col]
        scale = weights[np.argmax(np.abs(weights))]
        weights = weights / scale
        combo = tuple(
            (float(w), m, kind)
            for w, (m, kind) in zip(weights, layout)
            if abs(w) > SOLVER_TOL
        )
        out.append(WeightedNullifier(combo, reg.combine(combo)))
    return out


# ---------------------------------------------------------------------------
# Oracles used by the claims/tests (independent of the ledger path)
# ---------------------------------------------------------------------------


def conditional_cov_block_diagonal(n: int, pattern, r: float) -> bool:
    """Covariance-engine oracle: does measuring ``pattern`` fully separate a chain?

    ``pattern`` is a list of (position, kind).  The conditional covariance
    after homodyning is outcome independent, and displacements only move
    means, so the chain is completely disentangled for every outcome iff the
    conditional covariance is block diagonal per mode.
    """
    return _separates(build_graph_state(graphs.chain(n), "covariance", r), pattern)


def _separates(state: covariance.GaussianState, pattern) -> bool:
    """Is ``state`` a mode product after homodyning ``pattern`` at outcome 0?"""
    for pos, kind in pattern:
        state = covariance.homodyne(state, pos, kind, outcome=0.0).state
    return covariance.is_mode_product(state)


def minimal_disentangling_measurements(n: int) -> int:
    """Brute-force oracle: smallest {X,Y} pattern that fully separates chain(n).

    Exhausts all measured subsets in increasing size and both bases per
    measured position; a pattern counts as a success when the conditional
    covariance factorizes at both probe squeezings, r = 1 and r = 0.7.
    Exponential in n — meant for n <= 6.
    """
    from itertools import combinations, product

    probes = [build_graph_state(graphs.chain(n), "covariance", r) for r in (1.0, 0.7)]
    for size in range(0, n):
        for subset in combinations(range(1, n + 1), size):
            for kinds in product((X, Y), repeat=size):
                pattern = list(zip(subset, kinds))
                if all(_separates(state, pattern) for state in probes):
                    return size
    return n


def admits_ghz_under_quarter_turns(n: int) -> bool:
    """Exhaustive search: can per-mode quarter turns send chain(n) to GHZ form?

    Checks all 4^n assignments of 0/90/180/270 degree local rotations for
    one making {sum of X, all consecutive Y differences} nullifiers.
    """
    from itertools import product

    base = build_graph_state(graphs.chain(n))
    for turns in product(range(4), repeat=n):
        reg = base.copy()
        for m, t in zip(range(1, n + 1), turns):
            if t:
                reg.rotate(m, t * math.pi / 2.0)
        targets = [[(1.0, m, X) for m in range(1, n + 1)]]
        for m in range(1, n):
            targets.append([(1.0, m, Y), (-1.0, m + 1, Y)])
        if all(ledger.is_nullifier(reg.combine(t)) for t in targets):
            return True
    return False


# ---------------------------------------------------------------------------
# Tracing robustness (losing one party)
# ---------------------------------------------------------------------------


def chain_pair_after_discard(n: int, d: int) -> ProtocolReport:
    """Recover a conjugate nullifier pair from chain(n) after losing party d.

    Constructive strategy: work at the chain end far from the lost party,
    measuring one or two helpers to clean the pair's outward bond.  The
    report carries two independent two-party nullifiers — an EPR witness —
    which is impossible for a GHZ state after any single loss.
    """
    if n < 4 or not 1 <= d <= n:
        raise ProtocolPreconditionError("needs a chain of length >= 4 and a valid loss")
    mirrored = d < 3
    pos = (lambda p: n + 1 - p) if mirrored else (lambda p: p)
    dd = pos(d)  # in working coordinates the loss sits at position >= 3
    reg = build_graph_state(graphs.chain(n))
    report = ProtocolReport("chain_pair_after_discard", False, reg)
    p1, p2 = pos(1), pos(2)  # the protected pair (in real positions)

    if dd > 3:
        _displace(reg, report, p2, Y, -1.0, _measure(reg, report, pos(3), X))
    else:  # the loss is the pair's second neighbour: recapture via its far side
        _displace(reg, report, p2, Y, -1.0, _measure(reg, report, pos(4), Y))
        if n >= 5:
            _displace(reg, report, p2, Y, 1.0, _measure(reg, report, pos(5), X))
    for a, b in ((p1, p2), (p2, p1)):
        _certify(reg, report, [(1.0, a, Y), (-1.0, b, X)])
    # The witness must not lean on the lost party's operators, and the
    # recovered plane must be genuinely conjugate, not two one-mode squeezes.
    untouched = all(d not in e.support() for e in report.nullifiers)
    report.success = (
        untouched
        and all(ledger.is_nullifier(e) for e in report.nullifiers)
        and pair_epr_projection(reg, (p1, p2))
    )
    report.details = f"pair ({p1}, {p2}) of a {n}-chain after losing {d}"
    return report


def ghz_admits_conjugate_pair(m: int, d: int) -> bool:
    """Can any measurement pattern rescue an EPR pair from GHZ minus one leaf?

    Builds the star-projected GHZ on ``m`` leaves, discards leaf ``d``, and
    searches every remaining pair with every {X, Y} measurement assignment
    on the other leaves, allowing arbitrary feed-forward with all classical
    records.  Returns True iff some pattern leaves the pair with a
    conjugate (EPR-type) nullifier plane; for GHZ states the answer is No —
    the surviving correlations are single-quadrature only.
    """
    from itertools import combinations, product

    base = star_to_ghz(graphs.star(m)).register
    leaves = list(range(2, m + 2))  # modes of leaves 1..m
    lost = leaves[d - 1]
    rest = [x for x in leaves if x != lost]
    for pair in combinations(rest, 2):
        others = [x for x in rest if x not in pair]
        for kinds in product((X, Y), repeat=len(others)):
            reg = base.copy()
            for mode, kind in zip(others, kinds):
                reg.measure(mode, kind)
            if pair_epr_projection(reg, pair):
                return True
    return False


def pair_epr_projection(reg: ledger.Register, pair) -> bool:
    """Is the pair-supported nullifier span an entangling (EPR-type) plane?

    Collects every combination of the pair's quadratures and all classical
    records with no surviving e^{k>=0} content, projects onto the pair's
    four weight coordinates, and checks the resulting plane: it must be
    two-dimensional and must not contain a vector supported on one mode
    alone (such a plane splits into two single-mode squeezing conditions
    and certifies nothing about entanglement).
    """
    i, j = pair
    gens = [
        reg.quad_expr(i, X),
        reg.quad_expr(i, Y),
        reg.quad_expr(j, X),
        reg.quad_expr(j, Y),
    ] + [r.observable for r in reg.records]
    _, s, vh = np.linalg.svd(_growing_part(gens), full_matrices=True)
    rank = int(np.sum(s > SOLVER_TOL))
    null_basis = vh[rank:, :]
    if null_basis.size == 0:
        return False
    proj = null_basis[:, :4]  # weights on (X_i, Y_i, X_j, Y_j)
    if np.linalg.matrix_rank(proj, tol=SOLVER_TOL) != 2:
        return False
    span = _row_space(proj)
    # A vector vanishing on one mode's coordinates exists iff the span
    # loses rank when restricted to the other mode's pair of columns.
    own_i = np.linalg.matrix_rank(span[:, 2:], tol=SOLVER_TOL)
    own_j = np.linalg.matrix_rank(span[:, :2], tol=SOLVER_TOL)
    return bool(own_i == 2 and own_j == 2)


def _row_space(mat: np.ndarray) -> np.ndarray:
    _, s, vh = np.linalg.svd(mat, full_matrices=False)
    return vh[: int(np.sum(s > SOLVER_TOL)), :]
