"""Claims suite plumbing: one covariance replay per battery entry, per-claim times.

A module fixture runs the suite once with counting wrappers on the covariance
replays, a record of which claim is running, and an ``is_physical`` that
rejects the three-mode GHZ optics state.  That state enters the battery after
the cross-engine claim, so only the hygiene claim can see the rejection.
"""

import functools

import numpy as np
import pytest

from cvcluster import claims, covariance, protocols


@pytest.fixture(scope="module")
def run():
    ghz_cov = covariance.apply_tape(
        covariance.vacuum_state(3), protocols.build_ghz_optics(3).history, claims.HYGIENE_R
    ).cov
    calls = []  # (running claim, "replay" or "apply_tape", len(rs) or None)
    running = [None]
    batteries = {}  # claim id -> (battery, entries when it started)

    def claim(fn):
        @functools.wraps(fn)
        def wrapped(battery):
            running[0] = claims._claim_id(fn)
            batteries[running[0]] = (battery, len(battery.entries))
            return fn(battery)
        return wrapped

    replay, apply_tape, is_physical = covariance.replay, covariance.apply_tape, covariance.is_physical

    def counted_replay(n, tape, rs):
        calls.append((running[0], "replay", len(rs)))
        return replay(n, tape, rs)

    def counted_apply_tape(state, tape, r=None):
        calls.append((running[0], "apply_tape", None))
        return apply_tape(state, tape, r)

    def rejects_ghz(state):
        ghz = state.n == 3 and np.array_equal(state.cov, ghz_cov)
        return not ghz and is_physical(state)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(claims, "_CLAIMS", tuple(claim(fn) for fn in claims._CLAIMS))
        mp.setattr(covariance, "replay", counted_replay)
        mp.setattr(covariance, "apply_tape", counted_apply_tape)
        mp.setattr(covariance, "is_physical", rejects_ghz)
        outcome = claims.run_claims()
    return outcome, calls, batteries


def result(outcome, cid):
    return next(res for res in outcome.results if res.claim_id == cid)


def test_the_closing_claims_replay_each_battery_entry_once(run):
    outcome, calls, batteries = run
    battery, before = batteries["cross-engine"]
    late = len(battery.entries) - before
    assert before == 124 and late == 1
    cross = [c for c in calls if c[0] == "cross-engine"]
    hygiene = [c for c in calls if c[0] == "hygiene"]
    assert cross == [("cross-engine", "replay", len(claims.BRIDGE_RS) + 1)] * before
    assert hygiene == [("hygiene", "replay", 1)] * late


def test_each_entry_keeps_the_verdict_of_its_own_fold(run):
    outcome, calls, batteries = run
    battery, before = batteries["cross-engine"]
    assert claims.HYGIENE_R == 0.7
    for entry in battery.entries[:before]:
        state = covariance.apply_tape(covariance.vacuum_state(entry.reg.n), entry.reg.history, 0.7)
        assert entry.physical is covariance.is_physical(state), entry.label
    assert [entry.label for entry in battery.entries[before:]] == ["GHZ optics (3)"]
    assert battery.entries[-1].physical is False


def test_hygiene_still_checks_an_entry_added_after_cross_engine(run):
    outcome, calls, batteries = run
    hygiene = result(outcome, "hygiene")
    assert not hygiene.passed
    assert hygiene.value.endswith("; 125 states replayed, 1 unphysical")
    assert all(res.passed for res in outcome.results if res.claim_id != "hygiene")


def test_run_claims_times_each_claim(run):
    outcome = run[0]
    assert [res.claim_id for res in outcome.results] == claims.claim_ids()
    assert all(res.elapsed > 0.0 for res in outcome.results)
    assert sum(res.elapsed for res in outcome.results) <= outcome.elapsed
    only = claims.run_claims("rotated-sets").results
    assert [res.claim_id for res in only] == ["rotated-sets"] and only[0].elapsed > 0.0
