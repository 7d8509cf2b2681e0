"""Builders, the feed-forward solver, and the measurement protocols."""

import gc
import itertools
import math
import random
import re
import weakref

import numpy as np
import pytest

from cvcluster import claims, covariance, graphs, ledger, protocols, scenario
from cvcluster.errors import InternalConsistencyError, ProtocolPreconditionError, SelfInteractionError
from cvcluster.gates import MOMENTUM_SQUEEZED, SOLVER_TOL, Kerr, Rotate, Squeeze, X, Y
from reference_rules import (bridge_targets, exhaustive_ring_and_hub, hub_candidates, pairing,
                             same_solution)


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------


def test_chain_rows_closed_form():
    reg = protocols.build_graph_state(graphs.chain(4))
    assert reg.quad_expr(2, X) == {(2, X, 1): 1.0}
    assert reg.quad_expr(2, Y) == {
        (2, Y, -1): 1.0,
        (1, X, 1): 1.0,
        (3, X, 1): 1.0,
    }
    # chain ends have one neighbour only
    assert reg.quad_expr(1, Y) == {(1, Y, -1): 1.0, (2, X, 1): 1.0}
    # a small turn of one mode moves its rows off the closed form by sin(theta)
    g = graphs.chain(3)
    reg = protocols.build_graph_state(g)
    reg.apply(Rotate(2, 0.1))
    assert protocols.graph_row_deviation(reg, g) == pytest.approx(math.sin(0.1))


def test_a_nan_row_coefficient_is_a_graph_row_deviation():
    """A NaN is no gap at or below PRUNE_TOL, and the fold over rows keeps it."""
    g = graphs.chain(3)
    reg = protocols.build_graph_state(g)
    reg._modes[0].row[X][(1, X, 1)] = math.nan
    assert math.isnan(protocols.graph_row_deviation(reg, g))


def test_star_rows_follow_the_graph():
    g = graphs.star(3)
    reg = protocols.build_graph_state(g)
    d = reg.quad_expr(1, Y)
    assert d[(1, Y, -1)] == 1.0
    for leaf in (2, 3, 4):
        assert d[(leaf, X, 1)] == 1.0


def test_graph_law_holds_on_a_grid():
    g = graphs.grid(2, 3)
    reg = protocols.build_graph_state(g)
    for v in g.vertices:
        parts = [(1.0, v, Y)] + [(-1.0, b, X) for b in g.neighborhood(v)]
        assert ledger.is_nullifier(reg.combine(parts))


def test_covariance_builder_matches_ledger():
    g = graphs.chain(3)
    reg = protocols.build_graph_state(g)
    for r, state in zip((0.3, 1.0), covariance.replay(3, protocols.graph_tape(g), (0.3, 1.0))):
        parts = [(1.0, 2, Y), (-1.0, 1, X), (-1.0, 3, X)]
        assert covariance.variance_of(state, covariance.combo_weights(parts)) == pytest.approx(
            ledger.variance_formula(reg.combine(parts), r), abs=1e-12
        )


NAMED_TAPES = [
    ("grid(3, 4)", 12, protocols.graph_tape(graphs.grid(3, 4))),
    ("ring_star(6)", 7, protocols.graph_tape(graphs.ring_star(6))),
    ("bs_chain(4)", 4, protocols.bs_chain_tape(4)),
    ("ghz_optics(3)", 3, protocols.ghz_optics_tape(3)),
]


def test_covariance_builds_run_no_ledger_algebra(monkeypatch):
    """A tape goes straight to the covariance engine."""
    def refuse(self, gate):
        raise AssertionError(f"ledger applied {gate!r} during a covariance build")

    monkeypatch.setattr(ledger.Register, "apply", refuse)
    for label, n, tape in NAMED_TAPES:
        (state,) = covariance.replay(n, tape, [0.5])
        assert state.n == n, label


@pytest.mark.parametrize("label, n, tape", NAMED_TAPES)
def test_a_named_tape_is_what_both_engines_run(label, n, tape):
    """The ledger build's history is the tape, and a one-r replay has the bits
    of the per-gate rule from vacuum."""
    assert protocols.build(n, tape).history == tape
    (state,) = covariance.replay(n, tape, [0.8])
    assert np.array_equal(state.cov, covariance.apply_tape(covariance.vacuum_state(n), tape, 0.8).cov)


@pytest.mark.parametrize("tape_of", [protocols.bs_chain_tape, protocols.ghz_optics_tape])
def test_an_optics_tape_needs_two_modes(tape_of):
    with pytest.raises(ProtocolPreconditionError, match="needs n >= 2"):
        tape_of(1)


def test_bs_chain_quarter_turned_weights():
    """The four-mode cascade carries the sqrt(2)-weighted correlation set."""
    s2 = math.sqrt(2.0)
    reg = protocols.build(4, protocols.bs_chain_tape(4))
    reg.apply(Rotate(2, -math.pi / 2))
    reg.apply(Rotate(4, -math.pi / 2))
    for parts in (
        [(s2, 1, X), (1.0, 2, X), (s2, 3, X)],
        [(1.0, 3, X), (1.0, 4, X)],
        [(1.0, 1, Y), (-s2, 2, Y)],
        [(s2, 2, Y), (-1.0, 3, Y), (1.0, 4, Y)],
    ):
        expr = reg.combine(parts)
        assert all(abs(c) <= 1e-12 for (_, _, k), c in expr.items() if k >= 0)
        assert ledger.is_nullifier(expr)


def test_bs_chain_two_modes_is_epr():
    reg = protocols.build(2, protocols.bs_chain_tape(2))
    reg.apply(Rotate(2, -math.pi / 2))
    assert ledger.is_nullifier(reg.combine([(1.0, 1, X), (1.0, 2, X)]))
    assert ledger.is_nullifier(reg.combine([(1.0, 1, Y), (-1.0, 2, Y)]))


def test_nullifier_basis_spans_n_dimensions():
    for n in (2, 3, 6, 10):
        reg = protocols.build(n, protocols.bs_chain_tape(n))
        basis = protocols.nullifier_basis(reg)
        assert len(basis) == n
        for combo in basis:
            assert ledger.is_nullifier(reg.combine(combo))
            assert max(abs(c) for c, _, _ in combo) == pytest.approx(1.0)


def test_ghz_optics_unweighted_set():
    for n in (2, 3, 5):
        reg = protocols.build(n, protocols.ghz_optics_tape(n))
        assert ledger.is_nullifier(reg.combine([(1.0, m, X) for m in range(1, n + 1)]))
        for a, b in itertools.combinations(range(1, n + 1), 2):
            assert ledger.is_nullifier(reg.combine([(1.0, a, Y), (-1.0, b, Y)]))


def _fresh_graph_state(g):
    """The graph state applied gate by gate to a new register, no reuse."""
    reg = ledger.Register(g.n_vertices)
    for m in range(1, g.n_vertices + 1):
        reg.apply(Squeeze(m, MOMENTUM_SQUEEZED))
    for l, k in sorted(g.edges):
        reg.apply(Kerr(l, k, 1.0))
    return reg


def _snapshot(reg):
    """Rows, books, consuming records, records and history of a register."""
    modes = [(md.row, md.book, md.record_index) for md in reg._modes]
    records = [(r.index, r.mode, r.kind, dict(r.observable), reg.records[r.index] is r)
               for r in reg.records]
    return modes, records, list(reg.history)


def test_repeated_builds_of_a_graph_are_independent_fresh_states():
    g = graphs.ring_star(6)
    want = _snapshot(_fresh_graph_state(g))
    handed_out = []
    for _ in range(4):
        reg = protocols.build_graph_state(g)
        assert all(reg is not other for other in handed_out)
        assert _snapshot(reg) == want
        rec = reg.measure(2, X)
        reg.displace_with(3, Y, -1.0, rec)
        reg.apply(Rotate(1, 0.4))
        reg.measure(1, Y)
        handed_out.append(reg)
    # The mutations stayed with the registers they were made on.
    assert all(len(reg.records) == 2 and len(reg.history) == len(want[2]) + 1
               for reg in handed_out)


def test_a_dropped_graph_takes_its_stored_build_with_it():
    g = graphs.chain(7)
    protocols.build_graph_state(g)
    protocols.build_graph_state(g)
    graph_ref = weakref.ref(g)
    build_ref = weakref.ref(protocols._BUILDS[g])
    del g
    gc.collect()
    assert graph_ref() is None
    assert build_ref() is None


FED_FORWARD_SCRIPT = """register 3
squeeze 1 momentum
squeeze 2 momentum
squeeze 3 momentum
kerr 1 2 g=1
kerr 2 3 g=1
measure x 2 -> a
displace y 1 += -1*a
displace y 3 += -1*a
print variance 1*y1 at r=0,1
"""


def test_protocols_registers_and_scripts_leave_no_cyclic_garbage():
    """Registers with records, protocols and fed-forward script runs are all
    freed by reference counting: the cyclic collector finds nothing."""
    enabled, flags = gc.isenabled(), gc.get_debug()
    gc.disable()
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        protocols.extract_pair(graphs.chain(9), 3, 6)
        protocols.reduce_graph_to_path(graphs.grid(3, 3), 1, 9)
        reg = protocols.build_graph_state(graphs.chain(5))
        rec = reg.measure(3, X)
        reg.displace_with(2, Y, -1.0, rec)
        reg.copy().frame_combo([(1.0, 2, Y)])
        scn = scenario.parse(FED_FORWARD_SCRIPT)
        rows = [scenario.execute(scn).csv(),
                scenario.execute(scn, scenario.COVARIANCE, r=1.0, seed=7).csv()]
        del reg, rec, scn
        found = gc.collect()
        garbage = sorted({type(obj).__name__ for obj in gc.garbage})
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()
        if enabled:
            gc.enable()
    assert all("1*y1,1," in csv for csv in rows)
    assert found == 0, garbage


class _NoReuse(dict):
    """A build store that never remembers a graph."""

    def __contains__(self, graph):
        return False

    def __setitem__(self, graph, build):
        pass


def _pair_reports(n):
    g = graphs.chain(n)
    return [protocols.extract_pair(g, j, k)
            for j in range(1, n + 1) for k in range(j + 1, n + 1)]


def _report_facts(rep):
    reg = rep.register
    return (rep.success, rep.measurements, rep.displacements,
            [reg.frame_combo(p) for p in rep.targets], [reg.combine(p) for p in rep.targets],
            rep.rank_info, rep.details)


def test_pair_extraction_reports_do_not_depend_on_build_reuse(monkeypatch):
    reused = [_report_facts(rep) for n in range(2, 12) for rep in _pair_reports(n)]
    monkeypatch.setattr(protocols, "_BUILDS", _NoReuse())
    fresh = [_report_facts(rep) for n in range(2, 12) for rep in _pair_reports(n)]
    assert len(reused) == 220
    assert reused == fresh


# ---------------------------------------------------------------------------
# feed-forward solver
# ---------------------------------------------------------------------------


def test_solver_finds_the_neighbour_correction():
    g = graphs.chain(3)
    reg = protocols.build_graph_state(g)
    reg.measure(2, X)
    sol = protocols.solve_feedforward(reg, [[(1.0, 1, Y)]], reg.records)
    assert isinstance(sol, protocols.FeedforwardSolution)
    (coeffs,) = sol.coeffs
    assert coeffs == {0: pytest.approx(-1.0)}


def test_solver_reports_infeasibility():
    g = graphs.chain(3)
    reg = protocols.build_graph_state(g)
    reg.measure(2, Y)  # wrong basis: the record cannot cancel an X bond
    sol = protocols.solve_feedforward(reg, [[(1.0, 1, Y)]], reg.records)
    assert isinstance(sol, protocols.Infeasible)
    assert sol.deficiency == sol.equations - sol.rank
    # with no records at all, a target with growing content cannot be cleaned
    reg = protocols.build_graph_state(graphs.chain(2))
    assert protocols.solve_feedforward(reg, [[(1.0, 1, Y)]], []) == protocols.Infeasible(0, 0)


def test_solver_rejects_a_small_uncancellable_residue():
    """Y_1 + 1e-5 X_3 on chain(3) after measuring X_2: the X_2 record cancels
    the bond e^{+r} x0_2, but no record holds x0_3, so the 1e-5 e^{+r} x0_3
    left over makes the system infeasible, however small the weight."""
    reg = protocols.build_graph_state(graphs.chain(3))
    reg.measure(2, X)
    sol = protocols.solve_feedforward(reg, [[(1.0, 1, Y), (1e-5, 3, X)]], reg.records)
    assert sol == protocols.Infeasible(1, 1)


def test_a_nan_in_the_target_row_alone_is_infeasible():
    """The X_2 record cancels Y_1's bond on chain(3), but a NaN planted in Y_1
    (the record keeps its own copy) leaves a NaN residual: not at or below SOLVER_TOL."""
    reg = protocols.build_graph_state(graphs.chain(3))
    reg.measure(2, X)
    reg._modes[0].row[Y][(2, X, 1)] = math.nan
    sol = protocols.solve_feedforward(reg, [[(1.0, 1, Y)]], reg.records)
    assert isinstance(sol, protocols.Infeasible)


def test_a_nan_in_a_record_is_an_internal_error_that_prints_nothing(capfd):
    """LAPACK's least squares would print to stderr and raise LinAlgError on it."""
    reg = protocols.build_graph_state(graphs.chain(3))
    reg.measure(2, X).observable[(2, X, 1)] = math.nan
    with pytest.raises(InternalConsistencyError, match="record holds a non-finite"):
        protocols.solve_feedforward(reg, [[(1.0, 1, Y)]], reg.records)
    assert capfd.readouterr().err == ""


def test_a_nan_row_in_the_null_space_is_an_internal_error_that_prints_nothing(capfd):
    """LAPACK's SVD would print to stderr and raise LinAlgError on it."""
    reg = protocols.build(4, protocols.bs_chain_tape(4))
    reg._modes[0].row[X][(1, X, 1)] = math.nan
    with pytest.raises(InternalConsistencyError, match="row holds a non-finite"):
        protocols.nullifier_basis(reg)
    assert capfd.readouterr().err == ""


def test_solver_allowance_keeps_a_bond():
    g = graphs.chain(3)
    reg = protocols.build_graph_state(g)
    reg.measure(1, X)
    # Y_2 - X_3 keeps the bond to 3: the X_1 record cancels the bond to 1 alone.
    sol = protocols.solve_feedforward(reg, [[(1.0, 2, Y), (-1.0, 3, X)]], reg.records)
    assert isinstance(sol, protocols.FeedforwardSolution)
    assert sol.coeffs == [{0: pytest.approx(-1.0)}]
    assert isinstance(protocols.solve_feedforward(reg, [[(1.0, 2, Y)]], reg.records),
                      protocols.Infeasible)


@pytest.mark.parametrize("weight", [1.0, 2.0, -0.5])
def test_repair_displaces_a_scaled_target_by_its_law_not_its_scale(weight):
    """On chain(3) after measuring X_2, Y_1 = e^{-r} y0_1 + X_2 needs -1 times
    the record, whatever weight the target gives Y_1: the solver's record
    coefficient is -weight, and the carrier is displaced by it over weight.
    (Every protocol's carriers weigh +-1, where a product would do the same.)"""
    report = protocols.ProtocolReport("repair", False, protocols.build_graph_state(graphs.chain(3)))
    rec = report.register.measure(2, X)
    protocols._repair(report, [[(weight, 1, Y)]], [rec])
    assert report.displacements == [(1, Y, pytest.approx(-1.0), 0)]
    assert report.register.quad_expr(1, Y) == {(1, Y, -1): 1.0}


def test_solver_with_no_records_and_clean_target():
    reg = protocols.build_graph_state(graphs.chain(2))
    sol = protocols.solve_feedforward(reg, [[(1.0, 1, Y), (-1.0, 2, X)]], records=[])
    assert sol == protocols.FeedforwardSolution([{}], (0, 0))


def test_solver_rank_is_matrix_rank(monkeypatch):
    """The rank read off lstsq's singular values is ``matrix_rank`` at
    ``SOLVER_TOL`` on ring-star families (odd ones solvable, even ones
    deficient by one) and on path reductions of random graphs."""
    solved = []
    lstsq = np.linalg.lstsq
    monkeypatch.setattr(np.linalg, "lstsq",
                        lambda a, b, rcond: solved.append(a) or lstsq(a, b, rcond=rcond))

    def check(rep):
        equations, rank = rep.rank_info
        # With no records there is nothing to factor and the rank is 0.
        assert rank == (np.linalg.matrix_rank(solved[-1], tol=SOLVER_TOL) if equations else 0)
        solved.clear()
        return equations - rank

    deficiencies = [check(protocols.ring_star_to_ghz(graphs.ring_star(2 * m)))
                    for m in range(3, 15)]
    assert deficiencies == [0, 1] * 6
    rng, checked = np.random.default_rng(777), 0
    for _ in range(50):
        n = int(rng.integers(4, 21))
        g = graphs.random_connected_graph(n, float(rng.uniform(0.1, 0.4)), rng)
        a, b = (int(v) for v in rng.choice(g.vertices, size=2, replace=False))
        checked += check(protocols.reduce_graph_to_path(g, a, b)) == 0
    assert checked == 50


@pytest.mark.parametrize("nan_target", range(3))
def test_a_nan_in_any_target_of_three_is_infeasible_and_prints_nothing(nan_target, capfd):
    """On chain(5) the X_2 and X_4 records cancel the bonds of Y_1, Y_3 and Y_5,
    solved as one system; a NaN planted in any one target's growing row leaves a
    NaN in its column's residual, and one NaN column makes the system Infeasible."""
    reg = protocols.build_graph_state(graphs.chain(5))
    reg.measure(2, X)
    reg.measure(4, X)
    targets = [[(1.0, m, Y)] for m in (1, 3, 5)]
    assert isinstance(protocols.solve_feedforward(reg, targets, reg.records),
                      protocols.FeedforwardSolution)
    mode = targets[nan_target][0][1]
    reg._modes[mode - 1].row[Y][(4 if mode > 1 else 2, X, 1)] = math.nan
    assert protocols.solve_feedforward(reg, targets, reg.records) == protocols.Infeasible(2, 2)
    assert capfd.readouterr().err == ""


def test_a_solve_with_no_target_has_rank_0():
    reg = protocols.build_graph_state(graphs.chain(3))
    reg.measure(2, X)
    assert protocols.solve_feedforward(reg, [], reg.records) == protocols.FeedforwardSolution([], (1, 0))


def test_one_solve_for_every_target_matches_one_per_target_on_ring_stars(monkeypatch):
    """Reference: ``per_target_solve`` (one ``lstsq`` per target).  Ring-star
    families 3-19 in both flavors, with the default measured set and random odd
    and even ones, give the same verdict and rank, the same record keys and
    values within 1e-12."""
    pairs, rng = [], random.Random(41)
    monkeypatch.setattr(protocols, "solve_feedforward", pairing(protocols.solve_feedforward, pairs))
    for m in range(3, 20):
        g, ring = graphs.ring_star(2 * m), range(2, 2 * m + 2)
        odd, even = rng.randrange(1, 2 * m - 1, 2), rng.randrange(2, 2 * m - 1, 2)
        for measured in (None, rng.sample(ring, odd), rng.sample(ring, even)):
            for flavor in protocols.FLAVORS:
                protocols.ring_star_to_ghz(g, measured, flavor)
    assert len(pairs) == 17 * 3 * 2
    assert {type(got) for got, _ in pairs} == {protocols.FeedforwardSolution, protocols.Infeasible}
    assert all(same_solution(got, want) for got, want in pairs)


def test_one_solve_for_every_target_matches_one_per_target_on_path_reductions(monkeypatch):
    """Reference: ``per_target_solve``, on path reductions of 50 seeded random
    connected graphs and of 10x10 and 20x20 grids corner to corner."""
    pairs, rng = [], np.random.default_rng(41)
    monkeypatch.setattr(protocols, "solve_feedforward", pairing(protocols.solve_feedforward, pairs))
    for _ in range(50):
        n = int(rng.integers(4, 31))
        g = graphs.random_connected_graph(n, float(rng.uniform(0.1, 0.4)), rng)
        a, b = (int(v) for v in rng.choice(g.vertices, size=2, replace=False))
        protocols.reduce_graph_to_path(g, a, b)
    for side in (10, 20):
        assert protocols.reduce_graph_to_path(graphs.grid(side, side), 1, side * side).success
    assert len(pairs) == 52
    assert all(same_solution(got, want) for got, want in pairs)


def test_one_solve_for_every_target_matches_one_per_target_in_the_claims(claims_run):
    """Reference: ``per_target_solve``, on every solve of the test run's one ``run_claims()``."""
    assert len(claims_run.solves) == 64
    assert all(same_solution(got, want) for got, want in claims_run.solves)


def test_growing_part_is_the_coefficient_matrix_rows_with_exponent_at_least_zero():
    """The k >= 0 rows of ``ledger.coefficient_matrix``, in key order and
    C-contiguous; one zero row, as wide as the expressions, when none grows."""
    exprs = [{(2, Y, -1): 4.0, (1, X, 1): 1.5, (2, X, 0): -2.0}, {}, {(1, X, 1): -0.25, (1, Y, 2): 3.0}]
    got = protocols._growing_part(exprs)
    assert got.flags.c_contiguous
    assert np.array_equal(got, [[1.5, 0.0, -0.25], [0.0, 0.0, 3.0], [-2.0, 0.0, 0.0]])
    assert ledger.coefficient_matrix(exprs)[0] == [(1, X, 1), (1, Y, 2), (2, X, 0), (2, Y, -1)]
    for shrinking in ([{(1, X, -1): 2.0}, {}], [{}], []):
        empty = protocols._growing_part(shrinking)
        assert empty.shape == (1, len(shrinking)) and not empty.any()


# ---------------------------------------------------------------------------
# separation protocols
# ---------------------------------------------------------------------------


def assert_certifies(rep, laws):
    """The report certified exactly ``laws``, in order."""
    reg = rep.register
    assert [reg.combine(p) for p in rep.targets] == [reg.combine(p) for p in laws]
    assert [reg.frame_combo(p) for p in rep.targets] == [reg.frame_combo(p) for p in laws]


@pytest.mark.parametrize("n", range(2, 21))
def test_disentangle_even_gives_singletons(n):
    rep = protocols.disentangle_even(graphs.chain(n))
    assert rep.success
    assert rep.measurements == [(m, X) for m in range(2, n + 1, 2)]
    odd = range(1, n + 1, 2)
    assert rep.partition == [(m,) for m in odd]
    assert_certifies(rep, [[(1.0, m, Y)] for m in odd])


def test_disentangle_matches_covariance_oracle():
    def separated(pattern):
        (state,) = covariance.replay(5, protocols.graph_tape(graphs.chain(5)), [1.0])
        for pos, kind in pattern:
            covariance.homodyne(state, pos, kind, outcome=0.0)
        return covariance.is_mode_product(state)

    assert separated([(2, X), (4, X)])
    assert not separated([(2, X)])


def test_separates_leaves_its_probe_state_as_it_was():
    """The oracle measures a copy: the probe, shared by every pattern, keeps its bits."""
    (state,) = covariance.replay(5, protocols.graph_tape(graphs.chain(5)), [1.0])
    mean, cov = state.mean.copy(), state.cov.copy()
    assert protocols._separates(state, [(2, X), (4, X)])
    assert not protocols._separates(state, [(3, Y)])
    assert state.mean.tobytes() == mean.tobytes()
    assert state.cov.tobytes() == cov.tobytes()


def test_minimal_pattern_is_floor_n_over_2():
    assert protocols.minimal_disentangling_measurements(2) == 1
    assert protocols.minimal_disentangling_measurements(4) == 2
    assert protocols.minimal_disentangling_measurements(5) == 2


def test_disconnect_splits_in_two():
    rep = protocols.disconnect(graphs.chain(6), 4)
    assert rep.success
    assert rep.partition == [(1, 2, 3), (5, 6)]


@pytest.mark.parametrize("n", range(3, 13))
def test_disconnect_certifies_the_two_sub_chains(n):
    for j in range(2, n):
        rep = protocols.disconnect(graphs.chain(n), j)
        left, right = tuple(range(1, j)), tuple(range(j + 1, n + 1))
        assert rep.success
        assert rep.measurements == [(j, X)]
        assert rep.partition == [left, right]
        assert_certifies(rep, [[(1.0, m, Y)] + [(-1.0, b, X) for b in (m - 1, m + 1) if b in block]
                               for block in (left, right) for m in block])


def test_a_cut_fails_unless_the_survivors_split_into_the_sub_chains(monkeypatch):
    """Certified laws alone do not make a cut: the partition must match too."""
    monkeypatch.setattr(ledger.Register, "product_partition",
                        lambda self: [tuple(self.active_modes())])
    assert not protocols.disconnect(graphs.chain(6), 4).success
    assert not protocols.disentangle_even(graphs.chain(5)).success


def test_disconnect_requires_interior_position():
    with pytest.raises(ProtocolPreconditionError):
        protocols.disconnect(graphs.chain(4), 1)


def test_chain_protocols_reject_other_graphs():
    with pytest.raises(ProtocolPreconditionError):
        protocols.disentangle_even(graphs.star(3))


# ---------------------------------------------------------------------------
# pair extraction
# ---------------------------------------------------------------------------


def two_chain_relations_hold(reg, j, k):
    return ledger.is_nullifier(reg.combine([(1.0, j, Y), (-1.0, k, X)])) and \
        ledger.is_nullifier(reg.combine([(1.0, k, Y), (-1.0, j, X)]))


@pytest.mark.parametrize("n,j,k", [(4, 2, 3), (6, 2, 5), (9, 1, 9), (9, 4, 5)])
def test_extract_pair_next_neighbor(n, j, k):
    rep = protocols.extract_pair(graphs.chain(n), j, k)
    assert rep.success
    assert two_chain_relations_hold(rep.register, j, k)
    assert protocols.pair_epr_projection(rep.register, (j, k))


def test_next_neighbour_outers_take_the_step_the_solver_finds(monkeypatch):
    """The default outers' fixed -1 steps are bit for bit what the solver picks
    for the same helpers named explicitly, and they never call the solver."""
    calls, solve = [], protocols.solve_feedforward
    monkeypatch.setattr(protocols, "solve_feedforward",
                        lambda *args: calls.append(args) or solve(*args))
    cases = [(n, j, k) for n in range(2, 13) for j in range(1, n + 1) for k in range(j + 1, n + 1)]
    cases += [(20, 1, 2), (20, 1, 20), (20, 19, 20), (20, 7, 14)]
    for n, j, k in cases:
        g = graphs.chain(n)
        fixed = protocols.extract_pair(g, j, k)
        assert not calls
        solved = protocols.extract_pair(g, j, k, left=(j - 1,) if j > 1 else (),
                                        right=(k + 1,) if k < n else ())
        assert len(calls) == (j > 1) + (k < n)
        calls.clear()
        assert fixed.success
        assert _report_facts(fixed) == _report_facts(solved), (n, j, k)


def test_extract_pair_inner_teleports_count():
    rep = protocols.extract_pair(graphs.chain(8), 2, 7)
    assert rep.success
    assert "4 inner teleport steps" in rep.details


def test_extract_pair_turns_with_one_shared_quarter_turn():
    """Every inner teleport step turns j by the same +90 degree value."""
    turns = [g for g in protocols.extract_pair(graphs.chain(8), 2, 7).register.history
             if isinstance(g, Rotate)]
    assert turns == [Rotate(2, math.pi / 2.0)] * 4
    assert len({id(g) for g in turns}) == 1


def test_shared_gate_values_keep_an_int_apart_from_a_float():
    """Equal arguments of another type make another value: ``g=1`` is not ``g=1.0``."""
    assert repr(protocols._gate(Kerr, 1, 2, 1)) == "Kerr(l=1, k=2, g=1)"
    assert repr(protocols._gate(Kerr, 1, 2, 1.0)) == "Kerr(l=1, k=2, g=1.0)"
    assert protocols._gate(Kerr, 1, 2, 1.0) is protocols._gate(Kerr, 1, 2, 1.0)


def test_extract_pair_custom_outer_patterns():
    for n, j, k, outer in (
        (7, 4, 5, dict(left=(2, 1), right=(7,))),
        (9, 6, 7, dict(left=(4, 2, 1), right=(9,))),
    ):
        rep = protocols.extract_pair(graphs.chain(n), j, k, **outer)
        assert rep.success
        assert two_chain_relations_hold(rep.register, j, k)


def test_extract_pair_incomplete_outer_fails_honestly():
    rep = protocols.extract_pair(graphs.chain(6), 4, 5, left=(2, 1))
    assert not rep.success


@pytest.mark.parametrize("outer, message", [
    (dict(left=(7,)), "outer-left helper 7 is not left of the pair (4, 5)"),
    (dict(left=(2, 4)), "outer-left helper 4 is not left of the pair (4, 5)"),
    (dict(left=(0,)), "outer-left helper 0 is not left of the pair (4, 5)"),
    (dict(right=(3,)), "outer-right helper 3 is not right of the pair (4, 5)"),
    (dict(right=(8,)), "outer-right helper 8 is not right of the pair (4, 5)"),
    (dict(left=(2, 2)), "outer-left helper 2 is listed twice"),
    (dict(left=(2, 1), right=(7, 6, 7)), "outer-right helper 7 is listed twice"),
])
def test_extract_pair_rejects_misplaced_or_repeated_helpers(outer, message):
    with pytest.raises(ProtocolPreconditionError, match=re.escape(message)):
        protocols.extract_pair(graphs.chain(7), 4, 5, **outer)


def test_extract_pair_validates_positions():
    g = graphs.chain(5)
    with pytest.raises(SelfInteractionError):
        protocols.extract_pair(g, 3, 3)
    with pytest.raises(ProtocolPreconditionError):
        protocols.extract_pair(g, 0, 4)


def test_teleport_step_removes_the_second_position():
    """Measuring the next position teleports the head's correlations past it."""
    rep = protocols.extract_pair(graphs.chain(3), 1, 3)
    assert rep.measurements == [(2, Y)]
    assert rep.register.active_modes() == [1, 3]
    assert two_chain_relations_hold(rep.register, 1, 3)


# ---------------------------------------------------------------------------
# path reduction
# ---------------------------------------------------------------------------


def test_reduce_grid_to_corner_path():
    rep = protocols.reduce_graph_to_path(graphs.grid(3, 3), 1, 9)
    assert rep.success
    assert len(rep.targets) == 5


def test_reduce_ring_to_path():
    rep = protocols.reduce_graph_to_path(graphs.ring(7), 1, 4)
    assert rep.success


def test_reduce_random_graphs(seed=99):
    rng = np.random.default_rng(seed)
    for _ in range(10):
        n = int(rng.integers(5, 16))
        g = graphs.random_connected_graph(n, 0.3, rng)
        a, b = (int(v) for v in rng.choice(g.vertices, size=2, replace=False))
        rep = protocols.reduce_graph_to_path(g, a, b)
        assert rep.success, rep.details


# ---------------------------------------------------------------------------
# GHZ projections
# ---------------------------------------------------------------------------


def test_star_to_ghz_flavors():
    rep = protocols.star_to_ghz(graphs.star(5))
    assert rep.success
    assert rep.flavor == "total-position"
    assert len(rep.targets) == 5


def test_star_to_ghz_rejects_a_hub_with_a_leaf_edge():
    g = graphs.from_edges(4, [(1, 2), (1, 3), (1, 4), (2, 3)])
    with pytest.raises(ProtocolPreconditionError, match="not a star"):
        protocols.star_to_ghz(g)


def test_ring_star_parity_rule():
    for m in (3, 4, 5, 6):
        rep = protocols.ring_star_to_ghz(graphs.ring_star(2 * m))
        if m % 2:
            assert rep.success
            assert len(rep.targets) == m
        else:
            assert not rep.success
            equations, rank = rep.rank_info
            assert equations - rank == 1


def test_ring_star_explicit_measured_set():
    rep = protocols.ring_star_to_ghz(graphs.ring_star(10), measured=[3, 5, 7, 9, 11])
    assert rep.success


def test_ring_star_refuses_an_unknown_flavor_before_it_builds(monkeypatch):
    """The flavor is checked after the survivor count and before any build or measurement."""
    def no_build(graph):
        raise AssertionError("built a graph state for an unknown flavor")

    monkeypatch.setattr(protocols, "build_graph_state", no_build)
    with pytest.raises(ProtocolPreconditionError, match="^unknown flavor 'nope'$"):
        protocols.ring_star_to_ghz(graphs.ring_star(6), flavor="nope")
    with pytest.raises(ProtocolPreconditionError, match="at least two survivors"):
        protocols.ring_star_to_ghz(graphs.ring_star(6), measured=[2, 3, 4, 5, 6], flavor="nope")


def test_alternating_attachment_is_the_only_working_five_spoke():
    """Of all 252 ways to hub five spokes on a ten-ring, only the two
    alternating patterns admit the GHZ projection (hub 1, ring 2..11)."""
    ring = [(a + 1, b + 1) for a, b in graphs.ring(10).edges]
    winners = []
    for spokes in itertools.combinations(range(2, 12), 5):
        g = graphs.from_edges(11, ring + [(1, s) for s in spokes])
        if protocols.ring_star_to_ghz(g).success:
            winners.append(spokes)
    assert winners == [(2, 4, 6, 8, 10), (3, 5, 7, 9, 11)]


def _shuffled_ring_star(rng, m):
    """A ring of 2m with a hub on every second ring vertex and its labels shuffled,
    the shape of the ``graph`` benchmark's ring-star inputs; the hub is label[0]."""
    label = list(range(1, 2 * m + 2))
    rng.shuffle(label)
    ring = [(i, i % (2 * m) + 1) for i in range(1, 2 * m + 1)]
    spokes = [(0, i) for i in range(2, 2 * m + 1, 2)]
    return graphs.from_edges(2 * m + 1, [(label[a], label[b]) for a, b in ring + spokes]), label[0]


def _hub_or_refusal(find, g):
    try:
        return find(g)
    except ProtocolPreconditionError as err:
        return str(err)


def test_the_first_hub_in_tie_order_is_the_best_of_every_candidate():
    """Reference: ``exhaustive_ring_and_hub`` (every vertex tried, the best kept
    by ``min``).  Shuffled ring-stars of families 3-20, every spoke pattern on
    rings of 3-8 under shuffled labels (small rings tie on degree), and graphs
    that are not ring-stars, refused with the same message."""
    rng = random.Random(41)
    for m in range(3, 21):
        g, hub = _shuffled_ring_star(rng, m)
        assert protocols._ring_and_hub(g) == exhaustive_ring_and_hub(g)
        assert protocols._ring_and_hub(g)[0] == hub
    ties = 0
    for size in range(3, 9):
        ring = [(a + 1, b + 1) for a, b in graphs.ring(size).edges]
        for k in range(size + 1):
            for spokes in itertools.combinations(range(2, size + 2), k):
                label = [0, *rng.sample(range(1, size + 2), size + 1)]
                g = graphs.from_edges(size + 1, [(label[a], label[b])
                                                 for a, b in ring + [(1, s) for s in spokes]])
                want = exhaustive_ring_and_hub(g)
                assert protocols._ring_and_hub(g) == want
                ties += sum(g.degree(v) == g.degree(want[0]) for v, _ in hub_candidates(g)) > 1
    assert ties, "no spoke pattern tied two hub candidates on degree"
    others = [graphs.chain(n) for n in range(1, 30)] + [graphs.star(n) for n in range(1, 30)]
    others += [graphs.grid(r, c) for r in range(2, 7) for c in range(2, 7)]
    np_rng = np.random.default_rng(41)
    others += [graphs.random_connected_graph(n, 0.3, np_rng) for n in range(4, 30)]
    refused = 0
    for g in others:
        want = _hub_or_refusal(exhaustive_ring_and_hub, g)
        assert _hub_or_refusal(protocols._ring_and_hub, g) == want
        refused += want == "graph is not a hub-spoked ring"
    # grid(3, 3) is a ring of 8 around hub 5, and two of the random graphs are ring-stars.
    assert refused == len(others) - 3


@pytest.mark.parametrize("make, hub", [(lambda: graphs.chain(2048), None),
                                       (lambda: graphs.star(2047), None),
                                       (lambda: graphs.grid(45, 45), None),
                                       (lambda: graphs.ring_star(2046), 1)],
                         ids=["chain-2048", "star-2047", "grid-45x45", "ring-star-2046"])
def test_the_hub_search_reads_each_neighbourhood_a_bounded_number_of_times(make, hub, monkeypatch):
    """A graph that is not a ring-star is refused, and ring_star(2046)'s hub found,
    with at most 3n ``Graph.neighborhood`` calls: linear in n, not a cycle test
    per vertex."""
    g, calls = make(), []
    neighborhood = graphs.Graph.neighborhood
    monkeypatch.setattr(graphs.Graph, "neighborhood",
                        lambda graph, a: calls.append(a) or neighborhood(graph, a))
    if hub is None:
        with pytest.raises(ProtocolPreconditionError, match="^graph is not a hub-spoked ring$"):
            protocols.ring_star_to_ghz(g)
    else:
        assert protocols._ring_and_hub(g)[0] == hub
    assert 0 < len(calls) <= 3 * g.n_vertices


def test_quarter_turns_reach_ghz_only_up_to_three():
    assert protocols.admits_ghz_under_quarter_turns(2)
    assert protocols.admits_ghz_under_quarter_turns(3)
    assert not protocols.admits_ghz_under_quarter_turns(4)


# ---------------------------------------------------------------------------
# robustness to losing a party
# ---------------------------------------------------------------------------


def test_chain_survives_any_single_discard():
    for n, d in ((4, 1), (4, 4), (5, 3), (6, 3), (6, 6)):
        rep = protocols.chain_pair_after_discard(n, d)
        assert rep.success is True
        assert all(key[0] != d for p in rep.targets for key in rep.register.combine(p))


def test_a_discard_pair_needs_a_conjugate_plane(monkeypatch):
    monkeypatch.setattr(protocols, "pair_epr_projection", lambda reg, pair: False)
    assert not protocols.chain_pair_after_discard(6, 3).success


def test_ghz_cannot_rescue_a_conjugate_pair():
    for m in (3, 4):
        for d in range(1, m + 1):
            assert protocols.ghz_admits_conjugate_pair(m, d) is False


def test_epr_projection_rejects_product_planes():
    """Two single-mode squeezing conditions are not an EPR plane."""
    reg = ledger.Register(2)
    reg.apply(Squeeze(1, "momentum"))
    reg.apply(Squeeze(2, "momentum"))
    assert protocols.pair_epr_projection(reg, (1, 2)) is False
    reg.apply(Kerr(1, 2, 1.0))
    assert protocols.pair_epr_projection(reg, (1, 2)) is True


def test_persistency_oracle_builds_each_probe_once(monkeypatch):
    built = []
    replay = covariance.replay
    monkeypatch.setattr(covariance, "replay",
                        lambda n, tape, rs: built.append((n, tape, rs)) or replay(n, tape, rs))
    assert protocols.minimal_disentangling_measurements(4) == 2
    assert built == [(4, protocols.graph_tape(graphs.chain(4)), (1.0, 0.7))]


# ---------------------------------------------------------------------------
# the cross-engine bridge at the sizes the graph workload runs
# ---------------------------------------------------------------------------


def _far_pair(g, rng):
    """A random vertex and the vertex farthest from it (smallest label on a tie)."""
    a = int(rng.choice(g.vertices))
    return a, max(g.vertices, key=lambda v: (len(g.shortest_path(a, v)), -v))


WORKLOAD_SIZED = {
    "disconnect-chain-200": lambda: protocols.disconnect(graphs.chain(200), 100),
    "disentangle-chain-200": lambda: protocols.disentangle_even(graphs.chain(200)),
    "extract-pair-chain-200": lambda: protocols.extract_pair(graphs.chain(200), 37, 137),
    **{f"reduce-random-200-p{p}": (lambda p=p: protocols.reduce_graph_to_path(
        g := graphs.random_connected_graph(200, p, np.random.default_rng(27)),
        *_far_pair(g, np.random.default_rng(28)))) for p in (0.0015, 0.004)},
    "star-ghz-90": lambda: protocols.star_to_ghz(graphs.star(90)),
    **{f"ring-star-family-{m}": (lambda m=m: protocols.ring_star_to_ghz(graphs.ring_star(2 * m)))
       for m in range(5, 15)},
}


@pytest.mark.parametrize("case", WORKLOAD_SIZED)
def test_every_certified_target_bridges_at_workload_sizes(case):
    """Each report has its known verdict: success, except that an even ring-star
    family is rank-deficient by exactly one.  Each target a successful report
    certified bridges to the covariance engine (``bridge_targets``)."""
    rep = WORKLOAD_SIZED[case]()
    if case.startswith("ring-star") and int(case.rsplit("-", 1)[1]) % 2 == 0:
        assert not rep.success and rep.rank_info[0] - rep.rank_info[1] == 1
        return
    assert rep.success, rep.details
    assert bridge_targets(rep) == len(claims.BRIDGE_RS) * len(rep.targets) > 0
