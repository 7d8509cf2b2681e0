"""Fixtures shared across test modules."""

import functools
from typing import NamedTuple

import pytest

from cvcluster import claims, covariance, protocols
from reference_rules import pairing


class ClaimsRun(NamedTuple):
    outcome: claims.ClaimsOutcome
    calls: list
    batteries: dict
    finished: list
    entries: dict
    solves: list


@pytest.fixture(scope="session")
def claims_run():
    """One run of the whole claims suite, made before any test patches the
    package, as a :class:`ClaimsRun`.

    Pass-through wrappers record it: ``calls`` lists ``(running claim,
    "replay" or "apply_tape", len(rs) or None)`` for each covariance replay,
    and ``batteries`` maps a claim id to the battery and its entry count when
    that claim started.  ``finished`` lists each report ``protocols._finish``
    certifies with its targets' ``(combine, frame_combo)`` read right then,
    ``entries`` maps ``id(register)`` to the entry ``claims.Battery.add`` made
    for it, and ``solves`` pairs each ``solve_feedforward`` result with the
    per-target reference's on the same system.  Acceptance criterion 12 runs
    ``cvcluster claims`` in a subprocess instead.
    """
    calls, running, batteries = [], [None], {}
    finished, entries, solves = [], {}, []

    def claim(fn):
        @functools.wraps(fn)
        def wrapped(battery):
            running[0] = claims._claim_id(fn)
            batteries[running[0]] = (battery, len(battery.entries))
            return fn(battery)
        return wrapped

    replay, apply_tape = covariance.replay, covariance.apply_tape

    def counted_replay(n, tape, rs):
        calls.append((running[0], "replay", len(rs)))
        return replay(n, tape, rs)

    def counted_apply_tape(state, tape, r=None):
        calls.append((running[0], "apply_tape", None))
        return apply_tape(state, tape, r)

    finish, add, solve = protocols._finish, claims.Battery.add, protocols.solve_feedforward

    def eager_finish(report, targets, ok=True):
        reg = report.register
        finished.append((report, [(reg.combine(p), reg.frame_combo(p)) for p in targets]))
        return finish(report, targets, ok)

    def recorded_add(battery, label, reg, parts_list):
        add(battery, label, reg, parts_list)
        entries[id(reg)] = battery.entries[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(claims, "_CLAIMS", tuple(claim(fn) for fn in claims._CLAIMS))
        mp.setattr(covariance, "replay", counted_replay)
        mp.setattr(covariance, "apply_tape", counted_apply_tape)
        mp.setattr(protocols, "_finish", eager_finish)
        mp.setattr(claims.Battery, "add", recorded_add)
        mp.setattr(protocols, "solve_feedforward", pairing(solve, solves))
        outcome = claims.run_claims()
    return ClaimsRun(outcome, calls, batteries, finished, entries, solves)


@pytest.fixture(scope="session")
def claims_outcome(claims_run):
    """The shared run's report, for the tests that only read it."""
    return claims_run[0]
