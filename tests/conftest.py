"""Fixtures shared across test modules."""

import functools

import pytest

from cvcluster import claims, covariance


@pytest.fixture(scope="session")
def claims_run():
    """One run of the whole claims suite, made before any test patches the
    package, as ``(outcome, calls, batteries)``.

    Pass-through wrappers record it: ``calls`` lists ``(running claim,
    "replay" or "apply_tape", len(rs) or None)`` for each covariance replay,
    and ``batteries`` maps a claim id to the battery and its entry count when
    that claim started.  Acceptance criterion 12 runs ``cvcluster claims`` in
    a subprocess instead.
    """
    calls, running, batteries = [], [None], {}

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

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(claims, "_CLAIMS", tuple(claim(fn) for fn in claims._CLAIMS))
        mp.setattr(covariance, "replay", counted_replay)
        mp.setattr(covariance, "apply_tape", counted_apply_tape)
        outcome = claims.run_claims()
    return outcome, calls, batteries


@pytest.fixture(scope="session")
def claims_outcome(claims_run):
    """The shared run's report, for the tests that only read it."""
    return claims_run[0]
