"""Test-side references for the feed-forward solver and the ring-star hub: one
``lstsq`` per target, and every vertex tried as the hub with the best kept by
``min``.  ``protocols.solve_feedforward`` (one ``lstsq`` for every target) and
``protocols._ring_and_hub`` (the first hub in tie order) are checked against them.
A protocol report's certified targets are checked against the other engine by
:func:`bridge_targets`."""

import itertools

import numpy as np

from cvcluster import claims, covariance, ledger, protocols
from cvcluster.errors import InternalConsistencyError, ProtocolPreconditionError
from cvcluster.gates import SOLVER_TOL


def per_target_solve(reg, targets, records):
    """``solve_feedforward`` as one least-squares solve per target on the same
    record matrix, stopping at the first target whose residual is not at or
    below ``SOLVER_TOL``; the rank is the last solve's."""
    bases = [reg.combine(parts) for parts in targets]
    growing = protocols._growing_part([rec.observable for rec in records] + bases)
    a_mat = growing[:, : len(records)]
    if not np.isfinite(a_mat).all():
        raise InternalConsistencyError("a measurement record holds a non-finite coefficient")
    rank, coeff_dicts = 0, []
    for b in growing[:, len(records):].T:
        alpha, _, _, singular = np.linalg.lstsq(a_mat, -b, rcond=None)
        rank = int(np.count_nonzero(singular > SOLVER_TOL))
        if not np.max(np.abs(a_mat @ alpha + b)) <= SOLVER_TOL:
            return protocols.Infeasible(len(records), rank)
        coeff_dicts.append(
            {records[j].index: float(c) for j, c in enumerate(alpha) if abs(c) > SOLVER_TOL}
        )
    return protocols.FeedforwardSolution(coeff_dicts, (len(records), rank))


def pairing(solve, pairs):
    """A stand-in for ``solve`` that appends ``(its result, per_target_solve's)``
    on the same system to ``pairs`` and returns its own result."""
    def paired(reg, targets, records):
        pairs.append((solve(reg, targets, records), per_target_solve(reg, targets, records)))
        return pairs[-1][0]
    return paired


def same_solution(got, want, atol=1e-12) -> bool:
    """The same verdict and rank, and per target the same record keys with
    values within ``atol``."""
    if type(got) is not type(want):
        return False
    if isinstance(want, protocols.Infeasible):
        return got == want
    return got.rank_info == want.rank_info and len(got.coeffs) == len(want.coeffs) and all(
        g.keys() == w.keys() and all(abs(g[k] - w[k]) <= atol for k in w)
        for g, w in zip(got.coeffs, want.coeffs))


def _cycle_order(graph, hub):
    """Cycle order of the graph minus ``hub`` (from the smallest vertex towards its
    smaller neighbour), or None if it is not one cycle through every other vertex."""
    ring = [v for v in graph.vertices if v != hub]
    nbrs = {v: [u for u in graph.neighborhood(v) if u != hub] for v in ring}
    if len(ring) < 3 or any(len(ns) != 2 for ns in nbrs.values()):
        return None
    order, prev = [min(ring)], None
    while True:
        a, b = nbrs[order[-1]]
        prev, nxt = order[-1], (b if a == prev else a)
        if nxt == order[0]:
            return order if len(order) == len(ring) else None
        order.append(nxt)


def hub_candidates(graph):
    """Every ``(vertex, cycle order)`` whose removal leaves one cycle."""
    return [(v, order) for v in graph.vertices if (order := _cycle_order(graph, v)) is not None]


def exhaustive_ring_and_hub(graph):
    """Of every hub candidate, the one of highest degree, then lowest label."""
    candidates = hub_candidates(graph)
    if not candidates:
        raise ProtocolPreconditionError("graph is not a hub-spoked ring")
    return min(candidates, key=lambda c: (-graph.degree(c[0]), c[0]))


def bridge_targets(rep) -> int:
    """Check that each target a successful report certified has a covariance
    variance that ``bridge_agrees`` with the ledger's closed form at every
    ``claims.BRIDGE_RS``: one light cone of the report's history over the union
    of its targets' final-frame combos, replayed once.  Returns the number of checks."""
    reg = rep.register
    combos = [reg.frame_combo(p) for p in rep.targets]
    exprs = [reg.combine(p) for p in rep.targets]
    m, cone, local, _ = covariance.light_cone(reg.n, reg.history, [t for c in combos for t in c])
    ends = list(itertools.accumulate(len(c) for c in combos))
    weights = [covariance.combo_weights(local[end - len(c):end]) for c, end in zip(combos, ends)]
    checks = 0
    for r, state in zip(claims.BRIDGE_RS, covariance.replay(m, cone, claims.BRIDGE_RS)):
        for w, expr in zip(weights, exprs):
            numeric, symbolic = covariance.variance_of(state, w), ledger.variance_formula(expr, r)
            assert covariance.bridge_agrees(state, w, numeric, symbolic), (r, numeric, symbolic)
            checks += 1
    return checks
