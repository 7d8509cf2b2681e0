"""Claims suite plumbing: one covariance replay per battery entry, per-claim times.

The session's one suite run (``claims_run`` in ``tests/conftest.py``) records
the covariance replays, which claim is running, and the battery each claim
saw.  The three-mode GHZ optics state enters the battery after the
cross-engine claim, so only the hygiene claim can replay it; a one-entry
battery with an ``is_physical`` that rejects that state checks that hygiene
still judges it.
"""

import numpy as np

from cvcluster import claims, covariance


def result(outcome, cid):
    return next(res for res in outcome.results if res.claim_id == cid)


def test_the_closing_claims_replay_each_battery_entry_once(claims_run):
    outcome, calls, batteries = claims_run
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
    outcome, calls, batteries = claims_run
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


def test_run_claims_times_each_claim(claims_run):
    outcome = claims_run[0]
    assert [res.claim_id for res in outcome.results] == claims.claim_ids()
    assert all(res.elapsed > 0.0 for res in outcome.results)
    assert sum(res.elapsed for res in outcome.results) <= outcome.elapsed
    only = claims.run_claims("rotated-sets").results
    assert [res.claim_id for res in only] == ["rotated-sets"] and only[0].elapsed > 0.0
