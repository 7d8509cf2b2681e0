"""Entanglement protocols on graph registers: build, measure, feed forward.

Every state is a gate tape (:func:`graph_tape`, :func:`bs_chain_tape`,
:func:`ghz_optics_tape`) that the caller runs from vacuum with
``covariance.replay`` or on the ledger with :func:`build`, except that
:func:`build_graph_state` writes a graph tape's ledger state from its closed
form (:func:`graph_rows`) and caches it.  Every protocol follows one recipe:
build its graph's state, consume some vertices by homodyne-style quadrature
measurements, repair the survivors with displacements proportional to the
records, and certify its target combinations (``_finish``).  Fixed +-1 steps
serve cuts, teleports, the star GHZ and :func:`extract_pair`'s default outers;
its named helpers, path reduction and the ring-star GHZ (in each of its
:data:`FLAVORS`) take :func:`solve_feedforward`'s coefficients.  The
:class:`ProtocolReport` says which targets ended up as nullifiers and carries
the final register as ``register``.

Graph vertex v is register mode v, so every vertex a protocol names is a mode.
"""

from __future__ import annotations

import functools
import math
import weakref
from collections import Counter
from dataclasses import dataclass, field
from itertools import combinations, groupby, product

import numpy as np

from . import covariance, gates, graphs, ledger
from .errors import InternalConsistencyError, ProtocolPreconditionError, SelfInteractionError
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
    displacements: list = field(default_factory=list)  # (mode, kind, coeff, record_index)
    nullifiers: list = field(default_factory=list)  # dict (mode, kind, exponent) -> coeff
    combos: list = field(default_factory=list)  # [(coeff, mode, kind)]
    rank_info: tuple | None = None
    flavor: str | None = None
    partition: list | None = None
    details: str = ""

    @property
    def measurements(self) -> list:  # (mode, kind) of each register record, in order
        return [(rec.mode, rec.kind) for rec in self.register.records]


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


@functools.lru_cache(maxsize=gates.BLOCK_CACHE_SIZE, typed=True)
def _gate(kind, *args) -> gates.Gate:
    """One shared value per distinct gate: gates are frozen, so a tape may hold it often."""
    return kind(*args)


def graph_tape(graph: graphs.Graph) -> list:
    """Momentum-squeeze every vertex mode, then couple every edge with g=1."""
    tape = [_gate(Squeeze, m, MOMENTUM_SQUEEZED) for m in range(1, graph.n_vertices + 1)]
    return tape + [_gate(Kerr, l, k, 1.0) for l, k in sorted(graph.edges)]


def bs_chain_tape(n: int) -> list:
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
    return tape


def ghz_optics_tape(n: int) -> list:
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
    return tape + [Beamsplit(i, i + 1, 1.0 / (n - i + 1)) for i in range(1, n)]


def build(n: int, tape) -> ledger.Register:
    """A fresh ``Register(n)`` after ``tape``."""
    reg = ledger.Register(n)
    for gate in tape:
        reg.apply(gate)
    return reg


def graph_rows(graph: graphs.Graph) -> list:
    """Per vertex a, the closed-form rows ``(X_a, Y_a)`` that ``build(n, graph_tape(graph))``
    leaves, key order and bits included: ``X_a = e^{+r} x0_a``; ``Y_a = e^{-r} y0_a``,
    then ``e^{+r} x0_b`` for each neighbour b in ascending order; every coefficient 1.0."""
    rows = [({(a, X, 1): 1.0}, {(a, Y, -1): 1.0}) for a in graph.vertices]
    for a, (_, y_row) in enumerate(rows, 1):
        for b in graph.neighborhood(a):
            y_row[b, X, 1] = 1.0
    return rows


# Ledger graph states per Graph, kept while the graph lives: None once its
# first build was handed out, then a build that later requests copy.
_BUILDS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def build_graph_state(graph: graphs.Graph) -> ledger.Register:
    """The ledger state :func:`graph_tape` makes, written from :func:`graph_rows`, not
    replayed gate by gate; ``history`` is the tape.  A graph's first build is returned
    as is; the second is also kept, as a copy, and every later request gets an
    independent ``Register.copy()`` of it."""
    if _BUILDS.get(graph) is not None:
        return _BUILDS[graph].copy()
    built = ledger.Register.from_rows(graph_rows(graph), graph_tape(graph))
    _BUILDS[graph] = built.copy() if graph in _BUILDS else None
    return built


# ---------------------------------------------------------------------------
# Graph checks
# ---------------------------------------------------------------------------


def graph_row_deviation(reg: ledger.Register, graph: graphs.Graph) -> float:
    """Largest coefficient gap between ``reg``'s rows and the graph-state closed form.

    The closed form is :func:`graph_rows`; every vertex mode must be active.
    A gap at or below ``PRUNE_TOL`` counts as none, as the ledger prunes it; a NaN counts.
    """
    rows = [reg.quad_expr(m, kind) for m in graph.vertices for kind in (X, Y)]
    _, mat = ledger.coefficient_matrix(rows + [row for pair in graph_rows(graph) for row in pair])
    gaps = np.abs(mat[:, :len(rows)] - mat[:, len(rows):])
    return float(np.max(gaps[~(gaps <= PRUNE_TOL)], initial=0.0))


def _require_chain(graph: graphs.Graph, protocol: str) -> int:
    """Check the graph is the path 1, 2, ..., n; return its length n."""
    n = graph.n_vertices
    if graph.edges != {(i, i + 1) for i in range(1, n)}:
        raise ProtocolPreconditionError(f"{protocol}: graph is not a chain")
    return n


# ---------------------------------------------------------------------------
# Recording protocol steps
# ---------------------------------------------------------------------------


def _displace(report: ProtocolReport, mode: int, kind: str, coeff: float, rec):
    report.register.displace_with(mode, kind, coeff, rec)
    report.displacements.append((mode, kind, coeff, rec.index))


def _repair(report: ProtocolReport, targets, records):
    """Solve ``targets`` over ``records``; each record coefficient ``c`` displaces the
    target's carrier by ``c / weight``: its first term ``(weight, mode, kind)`` on a
    quadrature no other target reads, so no correction leaks into another target, and
    on a mode no earlier carrier took.  A bond to keep is written as a term of its
    target, as :func:`solve_feedforward` says.  An :class:`Infeasible` result sets
    ``rank_info``."""
    sol = solve_feedforward(report.register, targets, records)
    if isinstance(sol, Infeasible):
        report.rank_info = (sol.equations, sol.rank)
        return sol
    readers = Counter(q for parts in targets for q in {(m, k) for _, m, k in parts})
    taken = set()
    for parts, coeffs in zip(targets, sol.coeffs):
        weight, mode, kind = next(t for t in parts if readers[t[1:]] == 1 and t[1] not in taken)
        taken.add(mode)
        for idx, c in coeffs.items():
            _displace(report, mode, kind, c / weight, report.register.records[idx])
    return sol


def _finish(report: ProtocolReport, targets, ok: bool = True) -> ProtocolReport:
    """Certify each target combination; succeed when ``ok`` and all are nullifiers."""
    reg = report.register
    for parts in targets:
        report.nullifiers.append(reg.combine(parts))
        report.combos.append(reg.frame_combo(parts))
    report.success = ok and all(ledger.is_nullifier(e) for e in report.nullifiers)
    return report


# ---------------------------------------------------------------------------
# Feed-forward solver
# ---------------------------------------------------------------------------


def solve_feedforward(reg: ledger.Register, targets, records):
    """Choose coefficients of ``records`` cancelling all e^{k>=0} content of targets.

    Each target is a ``(coeff, mode, kind)`` list over active modes.  A bond
    to keep is a term of the target: ``Y_end - X_b`` keeps ``e^{+r} x0_b`` in
    ``Y_end`` while ``X_b`` is still that alone.  Returns a
    :class:`FeedforwardSolution` with one coefficient dict per target, or
    :class:`Infeasible` with the equation/rank count.  The rank is read off
    the singular values ``lstsq`` returns, counted above ``SOLVER_TOL`` as
    ``matrix_rank`` would; with no target it is 0.  A non-finite record
    coefficient is an :class:`InternalConsistencyError`, one in a target :class:`Infeasible`.
    """
    bases = [reg.combine(parts) for parts in targets]
    growing = _growing_part([rec.observable for rec in records] + bases)
    a_mat = growing[:, : len(records)]
    if not np.isfinite(a_mat).all():  # LAPACK would print to stderr and raise on it
        raise InternalConsistencyError("a measurement record holds a non-finite coefficient")
    rank, coeff_dicts = 0, []
    for b in growing[:, len(records):].T:
        alpha, _, _, singular = np.linalg.lstsq(a_mat, -b, rcond=None)
        rank = int(np.count_nonzero(singular > SOLVER_TOL))
        if not np.max(np.abs(a_mat @ alpha + b)) <= SOLVER_TOL:
            return Infeasible(len(records), rank)
        coeff_dicts.append(
            {records[j].index: float(c) for j, c in enumerate(alpha) if abs(c) > SOLVER_TOL}
        )
    return FeedforwardSolution(coeff_dicts, (len(records), rank))


def _growing_part(exprs) -> np.ndarray:
    """The growing (exponent >= 0) rows of ``ledger.coefficient_matrix(exprs)``, in
    order, built from the growing terms alone, or one all-zero row when there are none."""
    _, mat = ledger.coefficient_matrix([{t: c for t, c in e.items() if t[2] >= 0} for e in exprs])
    return mat if len(mat) else np.zeros((1, len(exprs)))


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
    report = _cut_chain(graph, range(2, n + 1, 2), "disentangle_even")
    report.details = f"{len(report.measurements)} measurements on a {n}-chain"
    return report


def disconnect(graph: graphs.Graph, j: int) -> ProtocolReport:
    """Split a chain into two independent chains by measuring X at position j."""
    n = _require_chain(graph, "disconnect")
    if not 1 < j < n:
        raise ProtocolPreconditionError("disconnect needs an interior position")
    report = _cut_chain(graph, [j], "disconnect")
    report.details = f"cut {n}-chain at position {j}: blocks {report.partition}"
    return report


def _listed_once(vertices, allowed, name: str, where: str) -> list:
    """``vertices`` as a list, once each and all in ``allowed``; else the error naming ``name``."""
    vertices = list(vertices)
    for i, v in enumerate(vertices):
        if v not in allowed:
            raise ProtocolPreconditionError(f"{name} {v} is not {where}")
        if v in vertices[:i]:
            raise ProtocolPreconditionError(f"{name} {v} is listed twice")
    return vertices


def _cut_chain(graph: graphs.Graph, cuts, protocol: str) -> ProtocolReport:
    """Measure X at each cut, subtract each record from the momenta of its
    surviving chain neighbours, and certify the sub-chains between the cuts."""
    n = graph.n_vertices
    report = ProtocolReport(protocol, False, build_graph_state(graph))
    recs = {c: report.register.measure(c, X) for c in cuts}
    for c, rec in recs.items():
        for nb in (c - 1, c + 1):
            if 1 <= nb <= n and nb not in recs:
                _displace(report, nb, Y, -1.0, rec)
    report.partition = report.register.product_partition()
    sub_chains = [tuple(run) for cut, run in groupby(range(1, n + 1), recs.__contains__)
                  if not cut]
    laws = [law for block in sub_chains for law in _chain_laws(block)]
    return _finish(report, laws, ok=report.partition == sub_chains)


def _chain_laws(modes) -> list:
    """Graph laws of the chain through ``modes``: each Y minus its neighbours' X."""
    return [[(1.0, m, Y)] + [(-1.0, b, X) for b in modes[max(i - 1, 0):i] + modes[i + 1:i + 2]]
            for i, m in enumerate(modes)]


def extract_pair(graph: graphs.Graph, j: int, k: int, left=None, right=None) -> ProtocolReport:
    """Concentrate a chain onto positions (j, k) as an EPR pair.

    Outer measurements detach the pair's far sides: by default X of the next
    neighbours j-1 and k+1 (where present), each record a fixed -1 displacement
    of the end's Y.  Given ``left`` (helpers left of j, e.g. (j-2, j-3)) or
    ``right`` (right of k), only the named helpers are measured, Y at even and
    X at odd distance from the pair, and :func:`solve_feedforward` picks the
    coefficients.  Then each inner position is removed by the
    measure/displace/rotate teleportation step.  Success means the final two
    modes satisfy the two-chain nullifiers ``Y_j - X_k`` and ``Y_k - X_j``
    (EPR up to a local quarter turn).
    """
    n = _require_chain(graph, "extract_pair")
    if j == k:
        raise SelfInteractionError("pair positions must differ")
    j, k = min(j, k), max(j, k)
    if not (1 <= j and k <= n):
        raise ProtocolPreconditionError("pair positions outside the chain")
    solved = (left, right) != (None, None)
    if solved:
        where = f"of the pair ({j}, {k}) on the {n}-chain"
        left = _listed_once(left or (), range(1, j), "outer-left helper", f"left {where}")
        right = _listed_once(right or (), range(k + 1, n + 1), "outer-right helper",
                             f"right {where}")
    else:
        left = [j - 1] if j > 1 else []
        right = [k + 1] if k < n else []
    report = ProtocolReport("extract_pair", False, build_graph_state(graph))

    inner = list(range(j + 1, k))
    sides = (("left", left, j, inner[0] if inner else k),
             ("right", right, k, inner[-1] if inner else j))
    for side, helpers, end, inner_neighbor in sides:
        if not helpers:
            continue
        # Measure the helpers, then clean the chain end while keeping its bond
        # to the inner neighbour (a next neighbour's X record takes the -1 step).
        recs = [report.register.measure(h, Y if abs(end - h) % 2 == 0 else X) for h in helpers]
        if not solved:
            _displace(report, end, Y, -1.0, recs[0])
            continue
        keep_bond = [(1.0, end, Y), (-1.0, inner_neighbor, X)]
        if isinstance(_repair(report, [keep_bond], recs), Infeasible):
            report.details = f"outer-{side} feed-forward infeasible"
            return report

    # Teleport the inner positions away one by one: measure Y, fold the
    # record into X_j, then quarter-turn j so the rows stay in chain form.
    for p in inner:
        _displace(report, j, X, -1.0, report.register.measure(p, Y))
        report.register.apply(_gate(Rotate, j, math.pi / 2.0))

    _finish(report, _chain_laws((j, k)))
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
    report = ProtocolReport("reduce_graph_to_path", False, build_graph_state(graph))
    path = graph.shortest_path(a, b)
    if path is None:
        report.details = "endpoints are not connected"
        return report
    on_path = set(path)
    boundary = sorted(
        {v for p in path for v in graph.neighborhood(p) if v not in on_path}
    )
    recs = [report.register.measure(v, X) for v in boundary]
    laws = _chain_laws(path)
    # Each vertex law's correction rides on its own Y.
    sol = _repair(report, laws, recs)
    if isinstance(sol, Infeasible):
        report.details = "path repair infeasible"
        return report
    report.rank_info = sol.rank_info
    _finish(report, laws)
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
    report = ProtocolReport("star_to_ghz", False, build_graph_state(graph),
                            flavor="total-position")
    rec = report.register.measure(center, Y)
    _displace(report, leaves[0], X, -1.0, rec)
    _finish(report, _ghz_laws(leaves))
    report.details = f"hub vertex {center}, {len(leaves)} leaves"
    return report


def _ghz_laws(modes) -> list:
    """Total position and consecutive momentum differences of ``modes``."""
    return [[(1.0, m, X) for m in modes]] + [[(1.0, a, Y), (-1.0, b, Y)]
                                             for a, b in zip(modes, modes[1:])]


def _find_center(graph: graphs.Graph) -> int:
    n = graph.n_vertices
    centers = [v for v in graph.vertices if graph.degree(v) == n - 1]
    if len(centers) != 1:
        raise ProtocolPreconditionError("graph has no unique hub vertex")
    if len(graph.edges) != n - 1:
        raise ProtocolPreconditionError("star_to_ghz: graph is not a star")
    return centers[0]


# Ring-star GHZ flavor -> (the kind the survivors sum, the kind they difference pairwise).
FLAVORS = {"total-momentum": (Y, X), "total-position": (X, Y)}


def ring_star_to_ghz(graph: graphs.Graph, measured=None,
                     flavor: str = "total-momentum") -> ProtocolReport:
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
    measured = _listed_once(sorted(measured), ring_order, "measured vertex", "on the ring")
    gone = set(measured)
    remaining = [v for v in ring_order if v not in gone]
    if len(remaining) < 2:
        raise ProtocolPreconditionError("GHZ projection needs at least two survivors")
    if flavor not in FLAVORS:
        raise ProtocolPreconditionError(f"unknown flavor {flavor!r}")
    sum_kind, diff_kind = FLAVORS[flavor]
    report = ProtocolReport("ring_star_to_ghz", False, build_graph_state(graph), flavor=flavor)
    recs = [report.register.measure(v, Y) for v in [hub] + measured]
    laws = [[(1.0, m, sum_kind) for m in remaining]]
    laws += [[(1.0, remaining[0], diff_kind), (-1.0, m, diff_kind)] for m in remaining[1:]]
    # The sum rides on the first survivor, each difference on its non-reference mode.
    sol = _repair(report, laws, recs)
    if isinstance(sol, Infeasible):
        why = (f"system degenerate (deficiency {sol.deficiency})" if sol.deficiency
               else "no feed-forward solution exists")
        report.details = f"{len(measured)} measured ring vertices: {why}"
        return report
    report.rank_info = sol.rank_info
    _finish(report, laws)
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
    nbrs = {v: [u for u in graph.neighborhood(v) if u != hub] for v in ring}
    if len(ring) < 3 or any(len(ns) != 2 for ns in nbrs.values()):
        return None
    # Every degree is 2: step from the smallest vertex to its smaller
    # neighbour, then always to the neighbour that is not the previous vertex.
    order, prev = [min(ring)], None
    while True:
        a, b = nbrs[order[-1]]
        prev, nxt = order[-1], (b if a == prev else a)
        if nxt == order[0]:
            return order if len(order) == len(ring) else None
        order.append(nxt)


# ---------------------------------------------------------------------------
# Weighted nullifier extraction (beamsplitter chains and friends)
# ---------------------------------------------------------------------------


def _null_space(exprs) -> np.ndarray:
    """Rows spanning the weights ``w`` whose ``sum_j w_j exprs[j]`` has no growing
    (exponent >= 0) content, with the rank counted above ``SOLVER_TOL``."""
    mat = _growing_part(exprs).T
    if not np.isfinite(mat).all():  # LAPACK would print to stderr and raise on it
        raise InternalConsistencyError("a nullifier-space row holds a non-finite coefficient")
    u, s, _ = np.linalg.svd(mat, full_matrices=True)
    rank = int(np.sum(s > SOLVER_TOL))
    return u[:, rank:].T


def nullifier_basis(reg: ledger.Register) -> list[tuple]:
    """Basis of all weighted quadrature combinations that are nullifiers.

    One ``((coeff, mode, kind), ...)`` combo per :func:`_null_space` row of the
    active quadratures, scaled by its largest-magnitude weight, without weights
    at or below ``SOLVER_TOL``: one per active mode of a fully squeezed pure state.
    """
    layout = [(m, kind) for m in reg.active_modes() for kind in (X, Y)]
    out = []
    for weights in _null_space([reg.quad_expr(m, kind) for m, kind in layout]):
        weights = weights / weights[np.argmax(np.abs(weights))]
        out.append(tuple((float(w), m, kind) for w, (m, kind) in zip(weights, layout)
                         if abs(w) > SOLVER_TOL))
    return out


# ---------------------------------------------------------------------------
# Oracles used by the claims/tests (independent of the ledger path)
# ---------------------------------------------------------------------------


def _separates(state: covariance.GaussianState, pattern) -> bool:
    """Is ``state`` a mode product after homodyning ``pattern`` at outcome 0?

    ``pattern`` is a list of (position, kind), measured on one copy of ``state``.
    The conditional covariance is outcome independent and displacements only
    move means, so this holds for every outcome iff it holds at 0.
    """
    state = covariance.GaussianState(state.n, state.mean.copy(), state.cov.copy())
    for pos, kind in pattern:
        covariance.homodyne(state, pos, kind, outcome=0.0)
    return covariance.is_mode_product(state)


def minimal_disentangling_measurements(n: int) -> int:
    """Brute-force oracle: smallest {X,Y} pattern that fully separates chain(n).

    Exhausts all measured subsets in increasing size and both bases per
    measured position; a pattern counts as a success when the conditional
    covariance factorizes at both probe squeezings, r = 1 and r = 0.7.
    Exponential in n — meant for n <= 6.
    """
    probes = list(covariance.replay(n, graph_tape(graphs.chain(n)), (1.0, 0.7)))
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
    base = build_graph_state(graphs.chain(n))
    for turns in product(range(4), repeat=n):
        reg = base.copy()
        for m, t in zip(range(1, n + 1), turns):
            if t:
                reg.apply(Rotate(m, t * math.pi / 2.0))
        if all(ledger.is_nullifier(reg.combine(t)) for t in _ghz_laws(range(1, n + 1))):
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
    report = ProtocolReport("chain_pair_after_discard", False, build_graph_state(graphs.chain(n)))
    p1, p2 = pos(1), pos(2)  # the protected pair (in real positions)

    if dd > 3:
        _displace(report, p2, Y, -1.0, report.register.measure(pos(3), X))
    else:  # the loss is the pair's second neighbour: recapture via its far side
        _displace(report, p2, Y, -1.0, report.register.measure(pos(4), Y))
        if n >= 5:
            _displace(report, p2, Y, 1.0, report.register.measure(pos(5), X))
    # The recovered plane must be genuinely conjugate, not two one-mode
    # squeezes, and the witness must not lean on the lost party's operators.
    _finish(report, _chain_laws((p1, p2)), ok=pair_epr_projection(report.register, (p1, p2)))
    report.success = report.success and all(key[0] != d for e in report.nullifiers for key in e)
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
    base = star_to_ghz(graphs.star(m)).register
    leaves = list(range(2, m + 2))  # the leaves of star(m)
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

    Spans (:func:`_null_space`) every combination of the pair's quadratures
    and all classical records with no surviving e^{k>=0} content, projects
    onto the pair's four weight coordinates, and checks the plane by rank
    alone: it must be two-dimensional and must not contain a vector
    supported on one mode alone (such a plane splits into two single-mode
    squeezing conditions and certifies nothing about entanglement).
    """
    i, j = pair
    gens = [reg.quad_expr(m, kind) for m in (i, j) for kind in (X, Y)]
    gens += [r.observable for r in reg.records]
    null_basis = _null_space(gens)
    if null_basis.size == 0:
        return False
    proj = null_basis[:, :4]  # weights on (X_i, Y_i, X_j, Y_j)
    if np.linalg.matrix_rank(proj, tol=SOLVER_TOL) != 2:
        return False
    # A vector vanishing on one mode's coordinates exists iff the span
    # loses rank when restricted to the other mode's pair of columns.
    own_i = np.linalg.matrix_rank(proj[:, 2:], tol=SOLVER_TOL)
    own_j = np.linalg.matrix_rank(proj[:, :2], tol=SOLVER_TOL)
    return bool(own_i == 2 and own_j == 2)
