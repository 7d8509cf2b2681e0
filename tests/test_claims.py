"""Claims suite plumbing: one covariance replay per battery entry, per-claim times.

The session's one suite run (``claims_run`` in ``tests/conftest.py``) records
the covariance replays, which claim is running, and the battery each claim
saw.  The three-mode GHZ optics state enters the battery after the
cross-engine claim, so only the hygiene claim can replay it; a one-entry
battery with an ``is_physical`` that rejects that state checks that hygiene
still judges it, and its combinations are bridged here instead.  The
finite-squeezing claim must fail on a state with no entanglement, and its
threshold check reads its own bound.  Every number a claim prints as its
tolerance is the constant it decides by.  Hygiene reads the commutators off
one matrix identity: a pairwise loop gives its count and worst defect, every
ordered pair of the battery is canonical, and a planted defect fails it by the
commutator bound alone, a planted NaN too.
"""

import math
import re

import numpy as np
import pytest

from commutators import reference_commutator
from cvcluster import claims, covariance, graphs, ledger, protocols
from cvcluster.errors import InternalConsistencyError
from cvcluster.gates import (
    BRIDGE_TOL,
    COEFF_TOL,
    COMMUTATOR_TOL,
    MOMENTUM_SQUEEZED,
    NULLIFIER_TOL,
    PPT_THRESHOLD_TOL,
    PRUNE_TOL,
    SOLVER_TOL,
    Beamsplit,
    Kerr,
    Rotate,
    Squeeze,
    X,
    Y,
    symplectic_form,
)


def result(outcome, cid):
    return next(res for res in outcome.results if res.claim_id == cid)


def test_the_closing_claims_replay_each_battery_entry_once(claims_run):
    outcome, calls, batteries = claims_run[:3]
    battery, before = batteries["cross-engine"]
    late = len(battery.entries) - before
    assert before == 124 and late == 1
    cross = [c for c in calls if c[0] == "cross-engine"]
    hygiene = [c for c in calls if c[0] == "hygiene"]
    assert cross == [("cross-engine", "replay", len(claims.BRIDGE_RS) + 1)] * before
    assert hygiene == [("hygiene", "replay", 1)] * late
    assert outcome.ok
    assert result(outcome, "hygiene").value.endswith("; 125 states replayed, 0 unphysical")


def test_each_entry_keeps_the_verdict_of_its_own_fold(claims_run):
    outcome, calls, batteries = claims_run[:3]
    battery, before = batteries["cross-engine"]
    assert claims.HYGIENE_R == 0.7
    assert len(battery.entries) == 125
    for entry in battery.entries:
        state = covariance.apply_tape(covariance.vacuum_state(entry.reg.n), entry.reg.history, 0.7)
        assert entry.physical is covariance.is_physical(state), entry.label
    assert [entry.label for entry in battery.entries[before:]] == ["GHZ optics (3)"]


def test_hygiene_still_checks_an_entry_added_after_cross_engine(claims_run, monkeypatch):
    battery, before = claims_run[2]["cross-engine"]
    (late,) = battery.entries[before:]
    ghz_cov = covariance.apply_tape(
        covariance.vacuum_state(3), late.reg.history, claims.HYGIENE_R
    ).cov
    is_physical = covariance.is_physical

    def rejects_ghz(state):
        ghz = state.n == 3 and np.array_equal(state.cov, ghz_cov)
        return not ghz and is_physical(state)

    monkeypatch.setattr(covariance, "is_physical", rejects_ghz)
    alone = claims.Battery()
    alone.entries.append(claims.BatteryEntry(late.label, late.reg, late.pairs))
    assert alone.entries[0].physical is None
    hygiene = claims._claim_hygiene(alone)
    assert not hygiene.passed
    assert hygiene.value.endswith("; 1 states replayed, 1 unphysical")
    assert alone.entries[0].physical is False


def test_the_entry_cross_engine_never_sees_bridges_at_every_squeezing(claims_run):
    """The cross-engine claim's comparison, made for the one entry it misses."""
    battery, before = claims_run[2]["cross-engine"]
    (late,) = battery.entries[before:]
    assert late.label == "GHZ optics (3)" and len(late.pairs) == 3
    states = covariance.replay(late.reg.n, late.reg.history, claims.BRIDGE_RS)
    checks = 0
    for r, state in zip(claims.BRIDGE_RS, states):
        for combo, expr in late.pairs:
            weights = covariance.combo_weights(combo)
            numeric = covariance.variance_of(state, weights)
            symbolic = ledger.variance_formula(expr, r)
            assert covariance.bridge_agrees(state, weights, numeric, symbolic), (r, combo)
            checks += 1
    assert checks == 3 * len(claims.BRIDGE_RS)


def test_finite_squeezing_fails_when_the_entangled_state_is_vacuum(monkeypatch):
    """The vacuum is a product state: every traced pair reads nu = 0.5
    exactly, on the PPT threshold, so the r = 0.3 half of the claim (nu below
    0.5) must fail on it."""
    vacuum = covariance.vacuum_state(3)
    assert all(covariance.ppt_min_symplectic_eig(vacuum, pair) == 0.5
               for pair in ((1, 2), (1, 3), (2, 3)))
    replay = covariance.replay

    def vacuum_at_r_03(n, tape, rs):
        return (vacuum if r == 0.3 else state for r, state in zip(rs, replay(n, tape, rs)))

    monkeypatch.setattr(covariance, "replay", vacuum_at_r_03)
    result = claims._claim_finite_squeezing(claims.Battery())
    assert not result.passed
    assert sum("(entangled EXPECTED)" in line for line in result.details) == 3


def test_the_ppt_threshold_reads_its_own_bound(monkeypatch):
    """A traced pair planted at 0.5 + 1e-6 at r = 0 fails the threshold check
    with the bridge bound loosened to 1.0, and passes once the threshold's own
    bound is 1e-5."""
    ppt = covariance.ppt_min_symplectic_eig

    def planted(state, pair):
        nu = ppt(state, pair)
        return 0.5 + 1e-6 if abs(nu - 0.5) < 1e-3 else nu  # only the r = 0 pairs sit near 0.5

    monkeypatch.setattr(covariance, "ppt_min_symplectic_eig", planted)
    monkeypatch.setattr(claims, "BRIDGE_TOL", 1.0)
    res = claims._claim_finite_squeezing(claims.Battery())
    assert not res.passed
    assert [line for line in res.details if "EXPECTED" in line] == [
        f"r=0.0: traced pair {pair}: min symplectic eig 0.500001 (threshold EXPECTED)"
        for pair in ((1, 2), (1, 3), (2, 3))]
    monkeypatch.setattr(claims, "PPT_THRESHOLD_TOL", 1e-5)
    assert claims._claim_finite_squeezing(claims.Battery()).passed


# Claim id -> the constant it decides by and its printed tolerance, {} for the number.
PRINTED_TOLERANCES = {
    "chain-rows": (COEFF_TOL, "{} on coefficients, 1s wall"),
    "rotated-sets": (PRUNE_TOL, "exact (coefficients pruned at {})"),
    "pair-extraction": (NULLIFIER_TOL, "nullifier exactness at {}"),
    "path-reduction": (NULLIFIER_TOL, "nullifier exactness at {}"),
    "ghz-star": (NULLIFIER_TOL, "nullifier exactness at {}"),
    "parity": (SOLVER_TOL, "rank computed at {}"),
    "bs-chain": (COEFF_TOL, "{} on weights"),
    "cross-engine": (BRIDGE_TOL, "{}"),
    "finite-squeezing": (PPT_THRESHOLD_TOL, "PPT threshold 0.5, equality to {}"),
    "hygiene": (COMMUTATOR_TOL, "{}"),
}


def test_each_printed_tolerance_is_its_constant(claims_outcome):
    """Some claims print their bound as a literal (1e-9 formats as 1e-09, so
    the report's bytes keep the literal): each number must still equal the
    constant the claim decides by.  A claim with no constant prints no number."""
    for res in claims_outcome.results:
        if res.claim_id not in PRINTED_TOLERANCES:
            assert not re.search(r"\d", res.tolerance), res.claim_id
            continue
        constant, text = PRINTED_TOLERANCES[res.claim_id]
        number = re.fullmatch(re.escape(text).replace(r"\{\}", r"(\S+)"), res.tolerance)
        assert number and float(number.group(1)) == constant, (res.claim_id, res.tolerance)


def test_run_claims_times_each_claim(claims_run):
    outcome = claims_run[0]
    assert [res.claim_id for res in outcome.results] == claims.claim_ids()
    assert all(res.elapsed > 0.0 for res in outcome.results)
    assert sum(res.elapsed for res in outcome.results) <= outcome.elapsed
    only = claims.run_claims("rotated-sets").results
    assert [res.claim_id for res in only] == ["rotated-sets"] and only[0].elapsed > 0.0


def all_pairs_defect(reg):
    """Every ordered pair hygiene counts, each commutator computed term pair
    by term pair."""
    active = reg.active_modes()
    rows = {(m, k): reg.quad_expr(m, k) for m in active for k in (X, Y)}

    def commutator(p, q):
        return reference_commutator(rows[p], rows[q]).get(0, 0.0)

    checks, worst = 0, 0.0
    for i, a in enumerate(active):
        worst = max(worst, abs(commutator((a, X), (a, Y)) - 1.0))
        checks += 1
        for b in active[i + 1:]:
            for ka, kb in ((X, X), (X, Y), (Y, Y)):
                worst = max(worst, abs(commutator((a, ka), (b, kb))))
                checks += 1
    return checks, worst


def test_hygiene_counts_and_worst_match_an_all_pairs_loop(claims_run):
    outcome, _, batteries = claims_run[:3]
    battery, _ = batteries["hygiene"]
    checks, worst = 0, 0.0
    for entry in battery.entries:
        expected = all_pairs_defect(entry.reg)
        assert claims._commutator_defect(entry.reg) == expected, entry.label
        checks, worst = checks + expected[0], max(worst, expected[1])
    assert result(outcome, "hygiene").value.startswith(
        f"{checks} commutators (max defect {worst:.3g}); ")
    assert checks == 38634


def test_hygiene_matches_all_pairs_on_rows_holding_both_quadratures():
    """Generic rotations and beamsplitters put x0_m and y0_m in one row, and
    a measured mode leaves the active set.  The identity and the loop sum the
    same products in different orders, so the worst defect may differ in its
    last bits; these rows' terms are of order 1, so by a few ulps of 1."""
    rng = np.random.default_rng(28)
    for _ in range(10):
        reg = ledger.Register(4)
        for m in range(1, 5):
            reg.apply(Squeeze(m, MOMENTUM_SQUEEZED)).apply(Rotate(m, float(rng.uniform(-3, 3))))
        reg.apply(Beamsplit(1, 2, float(rng.uniform(0.1, 0.9)))).apply(Kerr(2, 3, 0.7))
        reg.displace_with(4, Y, 0.5, reg.measure(1, X))
        (checks, worst), (want_checks, want_worst) = claims._commutator_defect(reg), all_pairs_defect(reg)
        assert checks == want_checks == 12
        assert abs(worst - want_worst) <= 4 * np.finfo(float).eps


def test_every_ordered_battery_pair_is_canonical(claims_run):
    """The printed line counts (X_a, Y_b) but not (Y_a, X_b) for a < b; the
    identity's s = 0 sum covers both, and every diagonal."""
    battery, _ = claims_run[2]["hygiene"]
    worst = 0.0
    for entry in battery.entries:
        c0 = claims._commutator_matrix(entry.reg)
        assert c0.shape == (2 * len(entry.reg.active_modes()),) * 2, entry.label
        worst = max(worst, np.abs(c0 - symplectic_form(len(c0) // 2)).max())
    assert worst <= 1e-14


def test_hygiene_of_a_register_with_no_active_mode_is_empty():
    reg = ledger.Register(1)
    reg.measure(1, X)
    assert claims._commutator_matrix(reg).shape == (0, 0)
    assert claims._commutator_defect(reg) == (0, 0.0)


def test_hygiene_leaves_out_y_a_against_x_b():
    """Y_1 = y0_1 + 1e-3 y0_2 gives [Y_1, X_2] = -1e-3 while the five pairs
    the line counts stay canonical: the identity sees it, the count does not."""
    reg = ledger.Register(2)
    reg._modes[0].row[Y][(2, Y, 0)] = 1e-3
    c0 = claims._commutator_matrix(reg)
    assert c0[1, 2] == -1e-3 and c0[2, 1] == 1e-3
    assert claims._commutator_defect(reg) == all_pairs_defect(reg) == (5, 0.0)


def test_hygiene_fails_on_a_row_given_another_modes_conjugate(claims_run):
    """X_1 of chain(5) gains 1e-3 y0_3 at the exponent that cancels X_3's
    e^{+r} x0_3, so [X_1, X_3] = -1e-3: a pure number, not a ledger error."""
    battery, _ = claims_run[2]["hygiene"]
    entry = next(e for e in battery.entries if e.label == "chain(5) rows")
    reg = entry.reg.copy()
    ((_, _, k),) = [key for key in reg.quad_expr(3, X) if key[:2] == (3, X)]
    reg._modes[0].row[X][(3, Y, -k)] = 1e-3
    assert reference_commutator(reg.quad_expr(1, X), reg.quad_expr(3, X)).get(0, 0.0) == -1e-3
    assert claims._commutator_matrix(reg)[0, 4] == -1e-3
    assert claims._commutator_defect(reg) == all_pairs_defect(reg) == (35, 1e-3)
    alone = claims.Battery()
    alone.entries.append(claims.BatteryEntry(entry.label, reg, entry.pairs))
    hygiene = claims._claim_hygiene(alone)
    assert not hygiene.passed and hygiene.tolerance == f"{COMMUTATOR_TOL:g}"
    assert hygiene.value == "35 commutators (max defect 0.001); 1 states replayed, 0 unphysical"
    reg._modes[1].row[Y] = {}  # X_2 and Y_2 now share no operator: [X_2, Y_2] reads 0
    assert claims._commutator_defect(reg) == all_pairs_defect(reg) == (35, 1.0)


def test_the_hygiene_verdict_reads_the_commutator_bound_alone(monkeypatch):
    """X_1 of an unsqueezed pair gains 1e-3 y0_2, so [X_1, X_2] = -1e-3: a
    looser bridge leaves it failing, a commutator bound above it passes it."""
    reg = ledger.Register(2)
    reg._modes[0].row[X][(2, Y, 0)] = 1e-3
    assert claims._commutator_defect(reg) == (5, 1e-3)
    alone = claims.Battery()
    alone.entries.append(claims.BatteryEntry("planted 1e-3", reg, []))
    monkeypatch.setattr(claims, "BRIDGE_TOL", 1.0)
    hygiene = claims._claim_hygiene(alone)
    assert not hygiene.passed and hygiene.tolerance == "1e-09"
    monkeypatch.setattr(claims, "COMMUTATOR_TOL", 1e-2)
    hygiene = claims._claim_hygiene(alone)
    assert hygiene.passed and hygiene.tolerance == "0.01"


def test_a_nan_commutator_fails_hygiene():
    """An unsqueezed register holds only s = 0 content, so a NaN in X_1 reaches
    the fold of the defects, which must keep it: max(0.0, nan) is 0.0."""
    reg = ledger.Register(2)
    reg._modes[0].row[X][(1, X, 0)] = math.nan
    assert math.isnan(claims._commutator_defect(reg)[1])
    alone = claims.Battery()
    alone.entries.append(claims.BatteryEntry("planted NaN", reg, []))
    hygiene = claims._claim_hygiene(alone)
    assert not hygiene.passed
    assert hygiene.value == "5 commutators (max defect nan); 1 states replayed, 0 unphysical"


def test_the_chain_rows_fold_keeps_a_nan(monkeypatch):
    """max(0.0, nan) is 0.0, so a NaN deviation must survive the fold some other way."""
    deviations = iter([0.0, math.nan, 0.0, 0.0])  # one per chain length
    monkeypatch.setattr(protocols, "graph_row_deviation", lambda reg, g: next(deviations))
    res = claims._claim_chain_rows(claims.Battery())
    assert not res.passed
    assert res.value.startswith("max coefficient deviation nan in ")


def test_the_beamsplitter_chain_fold_keeps_a_nan(monkeypatch):
    """A NaN at a growing exponent of X_1 of the first build, the rotated N=4
    chain, reaches its weighted correlations."""
    build, calls = protocols.build, []

    def planted(n, tape):
        reg = build(n, tape)
        if not calls:
            reg._modes[0].row[X][(1, X, 1)] = math.nan
        calls.append(n)
        return reg

    monkeypatch.setattr(protocols, "build", planted)
    res = claims._claim_bs_chain(claims.Battery())
    assert not res.passed
    assert res.value == "residual nan; bases N=2..10 complete"


def test_the_cross_engine_fold_keeps_a_nan(monkeypatch):
    battery = claims.Battery()
    battery.add("chain(3)", protocols.build_graph_state(graphs.chain(3)), [[(1.0, 1, Y), (-1.0, 2, X)]])
    monkeypatch.setattr(ledger, "variance_formula", lambda expr, r: math.nan if r == 0.5 else 0.0)
    res = claims._claim_cross_engine(battery)
    assert not res.passed
    assert res.value == "5 comparisons, max gap nan"


def test_a_nan_at_a_growing_exponent_is_an_unbalanced_commutator():
    """chain(3)'s X_1 is e^{+r} x0_1; a NaN there fills the s = 2 sum, whose
    test must not read NaN as small."""
    reg = protocols.build_graph_state(graphs.chain(3))
    assert reg.quad_expr(1, X) == {(1, X, 1): 1.0}
    reg._modes[0].row[X][(1, X, 1)] = math.nan
    with pytest.raises(InternalConsistencyError, match=r"e\^\+2r content nan"):
        claims._commutator_matrix(reg)
