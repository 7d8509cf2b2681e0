"""Numeric Gaussian engine: gates, homodyne conditioning, witnesses, bridge."""

import dataclasses
import math
import re
import typing

import numpy as np
import pytest

from cvcluster import covariance, gates, graphs, ledger, protocols
from cvcluster.covariance import (
    GaussianState,
    apply_gate,
    apply_tape,
    homodyne,
    is_physical,
    ppt_min_symplectic_eig,
    quad_index,
    reduced_state,
    replay,
    uncertainty_defect,
    vacuum_state,
    variance_of,
)
from cvcluster.errors import (
    DomainError,
    InternalConsistencyError,
    InvalidSizeError,
    SelfInteractionError,
    SingularMeasurementError,
)
from cvcluster.gates import (
    MOMENTUM_SQUEEZED,
    POSITION_SQUEEZED,
    Beamsplit,
    Kerr,
    Rotate,
    Squeeze,
    X,
    Y,
)
from cvcluster.ledger import Register


def test_vacuum_is_half_identity():
    state = vacuum_state(2)
    assert np.allclose(state.cov, 0.5 * np.eye(4))
    assert np.allclose(state.mean, 0.0)
    assert vacuum_state(1).n == 1
    with pytest.raises(InvalidSizeError):
        vacuum_state(0)


def test_quad_index_interleaves():
    assert [quad_index(1, X), quad_index(1, Y), quad_index(3, X)] == [0, 1, 4]


def test_squeeze_rescales_variances():
    r = 0.8
    state = apply_gate(vacuum_state(1), Squeeze(1, MOMENTUM_SQUEEZED), r)
    assert state.cov[0, 0] == pytest.approx(0.5 * math.exp(2 * r))
    assert state.cov[1, 1] == pytest.approx(0.5 * math.exp(-2 * r))
    state = apply_gate(vacuum_state(1), Squeeze(1, POSITION_SQUEEZED), r)
    assert state.cov[0, 0] == pytest.approx(0.5 * math.exp(-2 * r))


def test_rotation_preserves_vacuum():
    state = apply_gate(vacuum_state(1), Rotate(1, 0.77))
    assert np.allclose(state.cov, 0.5 * np.eye(2))


def test_gate_bounds_checked():
    with pytest.raises(InvalidSizeError):
        apply_gate(vacuum_state(2), Rotate(3, 0.1))
    with pytest.raises(SelfInteractionError):
        Beamsplit(1, 1, 0.5)


def test_gate_blocks_are_shared_and_read_only():
    squeeze = Squeeze(1, MOMENTUM_SQUEEZED)
    assert gates.placement(squeeze, 0.3)[0] is gates.placement(squeeze, 0.3)[0]
    assert gates.placement(squeeze, 0.3)[0].flags.writeable is False
    assert not np.array_equal(gates.placement(squeeze, 0.3)[0], gates.placement(squeeze, 0.4)[0])
    for gate in (Kerr(1, 2, 0.8), Rotate(1, 0.4), Beamsplit(1, 2, 0.3)):
        shared = gates.placement(gate)[0]
        assert shared.flags.writeable is False
        assert gates.placement(gate, 0.3)[0] is shared
        assert gates.placement(gate, 1.7)[0] is shared


def test_gate_blocks_are_still_checked_once_built(monkeypatch):
    """The symplectic check lives in gates and runs when a block is first built."""
    monkeypatch.setattr(gates, "is_symplectic", lambda s_mat: False)
    with pytest.raises(InternalConsistencyError):
        apply_gate(vacuum_state(2), Kerr(2, 1, 0.6180339887))


def test_a_block_that_scales_the_commutator_is_not_symplectic():
    """S = diag(1 + 1e-6, 1) turns [X, Y] = i into (1 + 1e-6) i: S Omega S^T is
    Omega off by 1e-6, which no squeeze, rotation or coupling gives."""
    assert gates.is_symplectic(np.diag([math.exp(0.3), math.exp(-0.3)]))
    assert not gates.is_symplectic(np.diag([1.0 + 1e-6, 1.0]))


def test_kerr_correlates_momenta():
    """After the coupling, each momentum carries the partner's position noise."""
    state = apply_gate(vacuum_state(2), Kerr(1, 2, 1.0))
    assert state.cov[quad_index(1, Y), quad_index(2, X)] == pytest.approx(0.5)
    assert variance_of(state, covariance.combo_weights([(1.0, 1, Y)])) == pytest.approx(1.0)


@pytest.mark.parametrize("n", [1, 2, 5, 40, 150])
def test_symplectic_form_is_the_kron_form_bit_for_bit(n):
    kron = np.kron(np.eye(n), np.array([[0.0, 1.0], [-1.0, 0.0]]))
    omega = gates.symplectic_form(n)
    assert omega.dtype == kron.dtype and omega.shape == kron.shape
    assert np.array_equal(omega, kron) and np.array_equal(np.signbit(omega), np.signbit(kron))


def test_symplectic_transforms_leave_purity():
    rng = np.random.default_rng(5)
    state = vacuum_state(3)
    for _ in range(12):
        which = rng.integers(3)
        if which == 0:
            state = apply_gate(state, Rotate(int(rng.integers(1, 4)), float(rng.uniform(-3, 3))))
        elif which == 1:
            l, k = rng.choice([1, 2, 3], size=2, replace=False)
            state = apply_gate(state, Beamsplit(int(l), int(k), float(rng.uniform(0.1, 0.9))))
        else:
            l, k = rng.choice([1, 2, 3], size=2, replace=False)
            state = apply_gate(state, Kerr(int(l), int(k), float(rng.uniform(0.2, 1.5))))
    # symplectic congruence keeps det(V) = (1/2)^{2n} for a pure state
    assert np.linalg.det(state.cov) == pytest.approx(0.5 ** 6, rel=1e-9)
    assert is_physical(state)


@pytest.mark.parametrize("make", [lambda x: Rotate(1, x), lambda x: Kerr(1, 2, x)],
                         ids=["rotate", "kerr"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_angle_or_coupling_is_a_domain_error(make, value):
    """A gate is a cache key, and a NaN gate never equals itself."""
    with pytest.raises(DomainError):
        apply_gate(vacuum_state(2), make(value))


# ---------------------------------------------------------------------------
# placement: the cached rows keep the bits of the per-gate rule
# ---------------------------------------------------------------------------


def per_gate_rule(state, tape, r):
    """The update before placements were cached: a full copy, a list fancy
    index and the three updates, gate by gate."""
    for gate in tape:
        block = gates.placement(gate, r)[0]
        idx = [quad_index(m, kind) for m in gates.modes(gate) for kind in (X, Y)]
        mean = state.mean.copy()
        cov = state.cov.copy()
        mean[idx] = block @ mean[idx]
        cov[idx, :] = block @ cov[idx, :]
        cov[:, idx] = cov[:, idx] @ block.T
        state = GaussianState(state.n, mean, cov)
    return state


def random_gate(rng, n):
    """Any gate kind; two-mode gates come in either mode order."""
    l, k = (int(m) for m in rng.choice(np.arange(1, n + 1), size=2, replace=False))
    kind = rng.integers(5)
    if kind == 0:
        return Squeeze(l, MOMENTUM_SQUEEZED if rng.random() < 0.5 else POSITION_SQUEEZED)
    if kind == 1:
        return Rotate(l, float(rng.uniform(-4.0, 4.0)))
    if kind == 2:
        return Rotate(l, math.pi / 2 * int(rng.integers(-4, 5)))
    if kind == 3:  # g = 1, the paper's coupling, updates in place
        return Kerr(l, k, 1.0 if rng.random() < 0.5 else float(rng.uniform(-2.0, 2.0)))
    return Beamsplit(l, k, float(rng.uniform(0.0, 1.0)))


def assert_bits_equal(got, want):
    """Equal values and equal sign bits (``-0.0`` is not ``0.0``) in every entry."""
    for a, b in ((got.mean, want.mean), (got.cov, want.cov)):
        assert np.array_equal(a, b)
        assert np.array_equal(np.signbit(a), np.signbit(b))


def assert_same_bits(start, tape, r):
    assert_bits_equal(apply_tape(start, tape, r), per_gate_rule(start, tape, r))


def test_apply_tape_keeps_the_bits_of_the_per_gate_rule():
    rng = np.random.default_rng(9)
    for _ in range(60):
        n = int(rng.integers(2, 12))
        tape = [random_gate(rng, n) for _ in range(40)]
        start = GaussianState(n, rng.normal(size=2 * n), 0.5 * np.eye(2 * n))
        for r in (0.0, 0.25, 1.0, 2.0):
            assert_same_bits(start, tape, r)
    tape = protocols.build_graph_state(graphs.grid(10, 12)).history
    for r in (0.0, 0.25, 1.0, 2.0):
        assert_same_bits(vacuum_state(120), tape, r)


def test_layout_of_the_covariance_keeps_the_bits():
    """A Fortran-ordered covariance and a transposed view, through apply_tape
    and through apply_gate on the very arrays of the state."""
    rng = np.random.default_rng(17)
    n = 7
    tape = [random_gate(rng, n) for _ in range(80)]
    m = rng.normal(size=(2 * n, 2 * n))
    for cov in (np.asfortranarray(m @ m.T + 0.5 * np.eye(2 * n)), (m @ m.T).T):
        start = GaussianState(n, rng.normal(size=2 * n), cov)
        assert not cov.flags.c_contiguous
        want = per_gate_rule(start, tape, 0.7)
        assert_same_bits(start, tape, 0.7)
        for gate in tape:
            apply_gate(start, gate, 0.7)
        assert start.cov is cov
        assert_bits_equal(start, want)


def test_replay_of_one_r_is_the_per_gate_rule():
    """A stack of one state: every factor and view has a length-1 last axis."""
    rng = np.random.default_rng(19)
    n = 6
    tape = [Squeeze(1, MOMENTUM_SQUEEZED), Kerr(1, 2, 1.0), Kerr(3, 2, 1.0), Rotate(2, 0.4),
            Rotate(4, math.pi / 2), Beamsplit(5, 3, 0.3), Kerr(6, 4, -0.7),
            Squeeze(4, POSITION_SQUEEZED)] + [random_gate(rng, n) for _ in range(40)]
    assert {type(g) for g in tape} == {Squeeze, Kerr, Rotate, Beamsplit}
    (got,) = replay(n, tape, [0.9])
    assert_bits_equal(got, per_gate_rule(vacuum_state(n), tape, 0.9))


def test_squeezes_and_unit_couplings_move_a_nonzero_mean():
    """``mean[q]`` of a 1-D mean is a copied scalar, not a view: an update
    made on it in place would be lost, leaving the mean where it started."""
    rng = np.random.default_rng(23)
    n = 5
    tape = [Squeeze(m, MOMENTUM_SQUEEZED if m % 2 else POSITION_SQUEEZED) for m in range(1, n + 1)]
    tape += [Kerr(l, k, 1.0) for l, k in ((1, 2), (2, 3), (5, 3), (4, 1))]
    start = GaussianState(n, rng.normal(size=2 * n), 0.5 * np.eye(2 * n))
    got = apply_tape(start, tape, 0.8)
    assert_bits_equal(got, per_gate_rule(start, tape, 0.8))
    assert (got.mean != start.mean).all()


def test_blocks_are_their_closed_forms_bit_for_bit():
    r = 0.7
    assert np.array_equal(gates.placement(Squeeze(1, MOMENTUM_SQUEEZED), r)[0],
                          [[math.exp(r), 0.0], [0.0, math.exp(-r)]])
    assert np.array_equal(gates.placement(Squeeze(1, POSITION_SQUEEZED), r)[0],
                          [[math.exp(-r), 0.0], [0.0, math.exp(r)]])
    for theta in (0.4, -2.9, math.pi / 2, -math.pi):
        c, s = gates.cos_sin(theta)
        assert np.array_equal(gates.placement(Rotate(1, theta))[0], [[c, s], [-s, c]])


def test_a_gates_modes_are_every_field_but_the_last():
    """``gates.modes`` reads the field layout that ``light_cone`` and
    ``GateStmt.of`` also unpack: the modes, then the one value."""
    samples = {Squeeze: Squeeze(3, POSITION_SQUEEZED), Kerr: Kerr(7, 3, 0.5),
               Rotate: Rotate(4, -0.3), Beamsplit: Beamsplit(2, 6, 0.25)}
    assert set(samples) == set(typing.get_args(gates.Gate))
    for gate in samples.values():
        fields = dataclasses.fields(gate)
        assert gates.modes(gate) == tuple(getattr(gate, f.name) for f in fields[:-1])
        assert all(isinstance(m, int) for m in gates.modes(gate))
        assert not isinstance(getattr(gate, fields[-1].name), int)
    assert gates.modes(Kerr(7, 3, 0.5)) == (7, 3)


def test_a_gates_value_is_its_last_field():
    """``gates.value`` is the field ``gates.modes`` leaves out, for each gate kind."""
    samples = {Squeeze(3, POSITION_SQUEEZED): POSITION_SQUEEZED, Kerr(7, 3, 0.5): 0.5,
               Rotate(4, -0.3): -0.3, Beamsplit(2, 6, 0.25): 0.25}
    assert {type(gate) for gate in samples} == set(typing.get_args(gates.Gate))
    for gate, value in samples.items():
        assert gates.value(gate) == value
        assert gates.value(gate) == getattr(gate, dataclasses.fields(gate)[-1].name)
        assert type(gate)(*gates.modes(gate), gates.value(gate)) == gate
    assert gates.value(Kerr(1, 2)) == 1.0 and gates.value(Beamsplit(1, 2)) == 0.5


def test_gate_placement_is_cached_with_the_block():
    block, index, span = gates.placement(Squeeze(3, POSITION_SQUEEZED), 0.7)
    assert block is gates.placement(Squeeze(3, POSITION_SQUEEZED), 0.7)[0]
    assert (index, span) == (slice(4, 6), (3, 3))
    block, index, span = gates.placement(Kerr(7, 3, 0.5))
    assert block is gates.placement(Kerr(7, 3, 0.5), 1.3)[0]
    assert index.tolist() == [12, 13, 4, 5]  # the fields' order, not sorted
    assert index.dtype == np.intp and span == (3, 7)
    assert gates.placement(Kerr(7, 3, 0.5), 1.3)[1] is index
    assert index.flags.writeable is False
    with pytest.raises(ValueError):
        index[0] = 0
    assert gates.placement(Beamsplit(2, 5, 0.3))[1].tolist() == [2, 3, 8, 9]


def test_a_mode_outside_the_state_is_reported_first():
    """Before any error in building the block, and naming the first bad mode."""
    with pytest.raises(InvalidSizeError, match=r"mode 5 outside 1\.\.3"):
        apply_gate(vacuum_state(3), Kerr(5, 0, 1.0))
    with pytest.raises(InvalidSizeError, match=r"mode 0 outside 1\.\.3"):
        apply_gate(vacuum_state(3), Kerr(0, 5, 1.0))
    with pytest.raises(InvalidSizeError, match=r"mode 5 outside 1\.\.2"):
        apply_gate(vacuum_state(2), Squeeze(5, MOMENTUM_SQUEEZED))  # no r
    with pytest.raises(InvalidSizeError, match=r"mode 5 outside 1\.\.2"):
        apply_gate(vacuum_state(2), Squeeze(5, MOMENTUM_SQUEEZED), 1000.0)
    with pytest.raises(DomainError):
        apply_gate(vacuum_state(2), Squeeze(2, MOMENTUM_SQUEEZED))


def test_apply_gate_updates_the_state_it_is_given():
    state = vacuum_state(3)
    mean, cov = state.mean, state.cov
    assert apply_gate(state, Kerr(1, 3, 0.4)) is state
    assert state.mean is mean and state.cov is cov
    assert cov[quad_index(1, Y), quad_index(3, X)] == 0.5 * 0.4
    before = cov.copy()
    with pytest.raises(InvalidSizeError):
        apply_gate(state, Beamsplit(2, 4, 0.5))
    assert np.array_equal(state.cov, before)


def assert_tape_leaves_its_input(start, tape, r, error=None):
    mean, cov = start.mean.copy(), start.cov.copy()
    if error is None:
        assert apply_tape(start, tape, r) is not start
    else:
        with pytest.raises(error):
            apply_tape(start, tape, r)
    assert np.array_equal(start.mean, mean)
    assert np.array_equal(start.cov, cov)


def test_apply_tape_leaves_its_input_as_it_was():
    """Also when a gate fails partway through, after the copy has changed."""
    rng = np.random.default_rng(13)
    start = GaussianState(3, rng.normal(size=6), 0.5 * np.eye(6))
    tape = [Kerr(1, 2, 0.7), Rotate(2, 0.3), Beamsplit(2, 3, 0.4)]
    assert_tape_leaves_its_input(start, tape, 1.0)
    assert_tape_leaves_its_input(start, [], 1.0)
    assert_tape_leaves_its_input(start, tape + [Squeeze(2, MOMENTUM_SQUEEZED)], 400.0,
                                 DomainError)
    assert_tape_leaves_its_input(start, tape + [Kerr(3, 4, 1.0)], 1.0, InvalidSizeError)


def test_apply_tape_makes_one_apply_gate_call_per_gate(monkeypatch):
    """A tape of L gates is L calls through the module's ``apply_gate``,
    which is what per-gate call counts wrapped around it observe."""
    tape = protocols.build_graph_state(graphs.grid(3, 4)).history
    want = apply_tape(vacuum_state(12), tape, 0.5)
    calls = []
    real = covariance.apply_gate

    def counting(*args):
        calls.append(args[1])
        return real(*args)

    monkeypatch.setattr(covariance, "apply_gate", counting)
    got = apply_tape(vacuum_state(12), tape, 0.5)
    assert calls == list(tape)
    assert np.array_equal(got.mean, want.mean)
    assert np.array_equal(got.cov, want.cov)


def test_apply_tape_enters_the_raise_guard_once(monkeypatch):
    """A tape of L gates enters numpy's raise-mode guard once, not L times;
    a bare ``apply_gate`` call still enters its own."""
    tape = protocols.build_graph_state(graphs.grid(3, 4)).history
    assert len(tape) > 1
    entered = []
    real = np.errstate

    def counting(**kwargs):
        if "raise" in kwargs.values():
            entered.append(kwargs)
        return real(**kwargs)

    monkeypatch.setattr(np, "errstate", counting)
    apply_tape(vacuum_state(12), tape, 0.5)
    assert entered == [{"over": "raise", "invalid": "raise"}]
    apply_gate(vacuum_state(12), tape[0], 0.5)
    assert len(entered) == 2


# ---------------------------------------------------------------------------
# replay: one tape at many r, bit for bit the per-r fold
# ---------------------------------------------------------------------------


def assert_replay_is_the_fold(n, tape, rs):
    states = list(replay(n, tape, rs))
    assert len(states) == len(rs)
    for state, r in zip(states, rs):
        want = apply_tape(vacuum_state(n), tape, r)
        assert state.n == n
        assert np.array_equal(state.mean, want.mean)
        assert np.array_equal(state.cov, want.cov)
        assert np.array_equal(np.signbit(state.mean), np.signbit(want.mean))
        assert np.array_equal(np.signbit(state.cov), np.signbit(want.cov))


def test_replay_keeps_the_bits_of_the_per_r_fold():
    """Every gate kind, both squeeze directions, quarter turns and two-mode
    gates in either order; r lists with repeats and out of order."""
    rng = np.random.default_rng(11)
    r_lists = [(0.0, 0.25, 0.5, 1.0, 2.0), (2.0, 0.0, 2.0), (1.0,), (0.5, 0.5), (2.0, 1.0, 0.0, 0.7)]
    for trial in range(80):
        n = int(rng.integers(2, 31))
        tape = [random_gate(rng, n) for _ in range(int(rng.integers(1, 40)))]
        assert_replay_is_the_fold(n, tape, r_lists[trial % len(r_lists)])
    tape = protocols.build_graph_state(graphs.grid(6, 8)).history
    assert_replay_is_the_fold(48, tape, (0.0, 0.25, 0.5, 1.0, 2.0))


def test_replay_of_an_empty_tape_is_the_vacuum():
    for state in replay(3, [], (0.0, 1.0)):
        assert np.array_equal(state.mean, vacuum_state(3).mean)
        assert np.array_equal(state.cov, vacuum_state(3).cov)
    assert list(replay(3, [Squeeze(1)], ())) == []


def test_replay_reports_a_mode_outside_the_state_first():
    with pytest.raises(InvalidSizeError, match=r"mode 5 outside 1\.\.2"):
        list(replay(2, [Squeeze(5, MOMENTUM_SQUEEZED)], (0.0, 1000.0)))
    with pytest.raises(InvalidSizeError, match=r"mode 5 outside 1\.\.2"):
        list(replay(2, [Squeeze(5, MOMENTUM_SQUEEZED)], (None,)))
    with pytest.raises(InvalidSizeError, match=r"mode 0 outside 1\.\.3"):
        list(replay(3, [Kerr(0, 5, 1.0)], (1.0,)))
    with pytest.raises(DomainError, match="numeric r is required"):
        list(replay(2, [Squeeze(2, MOMENTUM_SQUEEZED)], (1.0, None)))
    with pytest.raises(DomainError, match="leaves float range"):
        list(replay(2, [Squeeze(1), Squeeze(1)], (0.0, 400.0)))


def test_an_overflowing_coupling_names_the_coupling_on_both_paths():
    """One r reads ``r=R`` on both paths; two r values read as the list replayed."""
    tape = [Squeeze(1), Squeeze(2), Kerr(1, 2, 1e200)]
    with pytest.raises(DomainError, match=r"^Kerr\(l=1, k=2, g=1e\+200\) at r=1\.0 "
                       r"leaves float range; coupling too large$"):
        list(replay(2, tape, (1.0,)))
    with pytest.raises(DomainError, match=r"^Kerr\(l=1, k=2, g=1e\+200\) at r in \[1\.0, 2\.0\] "
                       r"leaves float range; coupling too large$"):
        list(replay(2, tape, (1.0, 2.0)))
    with pytest.raises(DomainError, match=r"^Kerr\(l=1, k=2, g=1e\+200\) at r=1\.0 "
                       r"leaves float range; coupling too large$"):
        apply_tape(vacuum_state(2), tape, 1.0)
    with pytest.raises(DomainError, match=r"; squeezing too large$"):
        apply_tape(vacuum_state(1), [Squeeze(1)] * 2, 400.0)


def test_an_overflow_on_the_in_place_path_names_its_cause_on_both_paths():
    """A squeeze and a unit coupling skip the block product, not the overflow
    check: the last gate of each tape is the first to leave float range."""
    for tape, r, cause in (([Squeeze(1)], 400.0, "squeezing"),
                           ([Squeeze(1), Kerr(1, 2, 1.0), Kerr(1, 2, 1.0)], 354.7, "coupling")):
        state = vacuum_state(2)
        for gate in tape[:-1]:
            apply_gate(state, gate, r)
        with pytest.raises(DomainError, match=rf"^{re.escape(repr(tape[-1]))} at r={r} "
                           rf"leaves float range; {cause} too large$"):
            apply_gate(state, tape[-1], r)
        with pytest.raises(DomainError, match=rf"^{re.escape(repr(tape[-1]))} at r in "
                           rf"\[0\.0, {r}\] leaves float range; {cause} too large$"):
            list(replay(2, tape, (0.0, r)))


def test_replay_hands_numpy_error_state_back_to_its_caller():
    """The overflow check is numpy's ``raise`` mode, entered once per chunk:
    the caller's own settings hold between states, after the last one and
    after an overflow at a later gate, which still names that gate and r."""
    mine = {"divide": "print", "over": "ignore", "under": "warn", "invalid": "ignore"}
    tape = [Kerr(1, 2), Squeeze(1), Rotate(2, 0.3), Squeeze(1)]
    with np.errstate(**mine):
        states = replay(2, tape, (0.0, 1.0, 2.0))
        for _ in range(3):
            next(states)
            assert np.geterr() == mine
        with pytest.raises(StopIteration):
            next(states)
        assert np.geterr() == mine
        with pytest.raises(DomainError, match=r"^Squeeze\(mode=1, direction='momentum'\) "
                           r"at r in \[0\.0, 300\.0\] leaves float range"):
            next(replay(2, tape, (0.0, 300.0)))
        assert np.geterr() == mine


def test_apply_tape_hands_numpy_error_state_back_to_its_caller():
    """The caller's own settings hold after a tape that succeeds and after one
    that overflows at a later gate, which still names that gate and r; a bare
    ``apply_gate`` afterwards guards itself again, so an overflow is still an
    error under the caller's ``over="ignore"``, not an ``inf``."""
    mine = {"divide": "print", "over": "ignore", "under": "warn", "invalid": "ignore"}
    tape = [Kerr(1, 2), Squeeze(1), Rotate(2, 0.3), Squeeze(1)]
    with np.errstate(**mine):
        apply_tape(vacuum_state(2), tape, 1.0)
        assert np.geterr() == mine
        with pytest.raises(DomainError, match=r"^Squeeze\(mode=1, direction='momentum'\) "
                           r"at r=300\.0 leaves float range; squeezing too large$"):
            apply_tape(vacuum_state(2), tape, 300.0)
        assert np.geterr() == mine
        state = apply_gate(vacuum_state(1), Squeeze(1), 300.0)
        with pytest.raises(DomainError, match=r"at r=300\.0 leaves float range"):
            apply_gate(state, Squeeze(1), 300.0)
        assert np.geterr() == mine


def test_variance_past_float_range_is_inf_without_a_warning():
    """Callers turn a non-finite variance into a diagnostic; numpy must not
    print an overflow warning first (pytest makes one an error)."""
    big = GaussianState(2, np.zeros(4), np.full((4, 4), 1e308))
    weights = covariance.combo_weights([(1.0, 1, X), (1.0, 2, X)])
    assert variance_of(big, weights) == math.inf
    assert covariance.bridge_allowance(big, weights) == math.inf


def test_replay_stacks_no_more_than_one_matrix_at_the_mode_cap(monkeypatch):
    """With the cap at 3 modes a stack holds at most 36 floats: 2 states of
    2 modes, 1 of 3.  The chunked states are still the fold's."""
    monkeypatch.setattr(gates, "MAX_MODES", 3)
    rng = np.random.default_rng(3)
    rs = (0.0, 2.0, 0.5, 2.0, 1.0)
    for n, most in ((1, 5), (2, 2), (3, 1), (5, 1)):
        tape = [random_gate(rng, max(n, 2)) for _ in range(12)] if n > 1 else [
            Squeeze(1, POSITION_SQUEEZED), Rotate(1, 0.3), Squeeze(1)]
        states = list(replay(n, tape, rs))
        assert max(state.cov.base.shape[0] for state in states) == most
        assert_replay_is_the_fold(n, tape, rs)


# ---------------------------------------------------------------------------
# homodyne
# ---------------------------------------------------------------------------


def epr_state(r=1.0):
    state = vacuum_state(2)
    state = apply_gate(state, Squeeze(1, MOMENTUM_SQUEEZED), r)
    state = apply_gate(state, Squeeze(2, MOMENTUM_SQUEEZED), r)
    return apply_gate(state, Kerr(1, 2, 1.0), r)


def test_homodyne_resets_the_measured_mode_to_vacuum():
    state = epr_state()
    assert homodyne(state, 1, X, outcome=0.3) == 0.3
    assert state.n == 2
    assert np.array_equal(state.cov[0:2, 0:2], 0.5 * np.eye(2))
    assert not state.cov[0:2, 2:4].any()
    assert not state.cov[2:4, 0:2].any()
    assert not state.mean[0:2].any()


def test_homodyne_conditions_the_partner():
    """Measuring X_1 on the coupled pair sharpens the partner's conditional Y."""
    state = epr_state(1.0)
    y2 = covariance.combo_weights([(1.0, 2, Y)])
    prior = variance_of(state, y2)
    homodyne(state, 1, X, outcome=0.0)
    post = variance_of(state, y2)  # the partner keeps its number
    assert post < prior
    # Y_2 - X_1 is the pure-decay combination; conditioning on X_1 leaves
    # exactly its variance e^{-2r}/2
    assert post == pytest.approx(0.5 * math.exp(-2.0), rel=1e-9)


def test_homodyne_outcome_shifts_conditional_mean():
    state = epr_state(1.0)
    # E[Y_2 | X_1 = v] = v * Cov(Y2,X1)/Var(X1), read from the prior before it is conditioned
    gain = state.cov[quad_index(2, Y), quad_index(1, X)] / state.cov[quad_index(1, X), quad_index(1, X)]
    homodyne(state, 1, X, outcome=2.0)
    assert state.mean[quad_index(2, Y)] == pytest.approx(2.0 * gain)


def test_homodyne_sampling_is_seeded():
    a = homodyne(epr_state(), 1, X, rng=np.random.default_rng(9))
    b = homodyne(epr_state(), 1, X, rng=np.random.default_rng(9))
    c = homodyne(epr_state(), 1, X, rng=np.random.default_rng(10))
    assert a == b
    assert a != c


def _masked_homodyne(state, mode, kind, outcome):
    """Mean and covariance after homodyne by the masked formula: the Schur
    complement on the kept quadratures, written into a fresh vacuum."""
    q = quad_index(mode, kind)
    v, prior_mean = float(state.cov[q, q]), float(state.mean[q])
    keep = np.ones(2 * state.n, dtype=bool)
    keep[[q, q ^ 1]] = False
    kept = np.ix_(keep, keep)
    b = state.cov[keep, q]
    cov = 0.5 * np.eye(2 * state.n)
    cov[kept] = state.cov[kept] - np.outer(b, b) / v
    mean = np.zeros(2 * state.n)
    mean[keep] = state.mean[keep] + b * (outcome - prior_mean) / v
    return mean, cov


def test_homodyne_is_bit_for_bit_the_masked_formula():
    """One update of the whole matrix gives the masked formula's bits, on
    rotated random graph states with non-zero means."""
    rng = np.random.default_rng(1200)
    for _ in range(300):
        n = int(rng.integers(2, 9))
        g = graphs.random_graph(n, float(rng.uniform(0.2, 0.8)), rng)
        state = next(replay(n, protocols.graph_tape(g), [float(rng.uniform(0.0, 1.5))]))
        turns = [Rotate(m, float(rng.uniform(0.0, 2.0 * math.pi))) for m in range(1, n + 1)]
        state = apply_tape(GaussianState(n, rng.normal(size=2 * n), state.cov), turns)
        mode, kind = int(rng.integers(1, n + 1)), (X, Y)[int(rng.integers(2))]
        outcome = float(rng.normal(0.0, 2.0))
        mean, cov = _masked_homodyne(state, mode, kind, outcome)
        assert homodyne(state, mode, kind, outcome=outcome) == outcome
        assert np.array_equal(state.cov, cov)
        assert np.array_equal(state.mean, mean)


def test_homodyne_mode_validation():
    state = epr_state()
    with pytest.raises(InvalidSizeError):
        homodyne(state, 3, X, outcome=0.0)


@pytest.mark.parametrize("case", ["bad mode", "zero variance", "non-finite variance", "no rng"])
def test_a_rejected_homodyne_leaves_the_state_bit_for_bit(case):
    """Every rejection comes before the in-place update: mean and covariance keep their bits."""
    state = epr_state()
    state.mean[:] = [0.25, -1.5, 3.0, 0.125]
    mode, kwargs, error = 1, {"outcome": 0.0}, DomainError
    if case == "bad mode":
        mode, error = 3, InvalidSizeError
    elif case == "zero variance":
        state.cov[0, :] = state.cov[:, 0] = 0.0
        error = SingularMeasurementError
    elif case == "non-finite variance":
        state.cov[0, 0] = math.inf
    else:
        kwargs = {}
    mean, cov = state.mean.copy(), state.cov.copy()
    with pytest.raises(error):
        homodyne(state, mode, X, **kwargs)
    assert mean.tobytes() == state.mean.tobytes()
    assert cov.tobytes() == state.cov.tobytes()


def test_homodyne_without_an_outcome_needs_an_rng():
    with pytest.raises(DomainError, match="outcome or an rng"):
        homodyne(epr_state(), 1, X)


def test_non_finite_squeezing_and_variance_are_domain_errors():
    with pytest.raises(DomainError):
        apply_gate(vacuum_state(1), Squeeze(1, MOMENTUM_SQUEEZED), 1000.0)
    with pytest.raises(DomainError):
        apply_gate(vacuum_state(2), Squeeze(1, MOMENTUM_SQUEEZED), 400.0)
    cov = 0.5 * np.eye(4)
    cov[3, 3] = math.inf
    with pytest.raises(DomainError):
        homodyne(GaussianState(2, np.zeros(4), cov), 2, Y, outcome=0.0)


# ---------------------------------------------------------------------------
# witnesses
# ---------------------------------------------------------------------------


def test_vacuum_pair_sits_on_the_threshold():
    assert ppt_min_symplectic_eig(vacuum_state(2), (1, 2)) == pytest.approx(0.5, abs=1e-12)


def test_coupled_pair_is_entangled_and_monotone():
    values = [ppt_min_symplectic_eig(epr_state(r), (1, 2)) for r in (0.3, 0.7, 1.2)]
    assert all(v < 0.5 for v in values)
    assert values[0] > values[1] > values[2]


def test_ppt_rejects_identical_modes():
    with pytest.raises(SelfInteractionError):
        ppt_min_symplectic_eig(vacuum_state(2), (1, 1))


def test_reduced_state_picks_blocks():
    state = epr_state()
    red = reduced_state(state, [2])
    assert red.n == 1
    assert red.cov[0, 0] == pytest.approx(state.cov[2, 2])


def looped_is_mode_product(state):
    """The mode-pair loop that ``is_mode_product`` reduces to one array step;
    a NaN entry makes its block no product."""
    cov = state.cov
    for i in range(state.n):
        for j in range(i + 1, state.n):
            if not np.max(np.abs(cov[2 * i : 2 * i + 2, 2 * j : 2 * j + 2])) <= gates.PRODUCT_TOL:
                return False
    return True


def test_is_mode_product_is_the_mode_pair_loop():
    """Random product states, each with one entry put in an off-diagonal block
    (either side of the diagonal) just above, at or just below PRODUCT_TOL, or
    NaN; and random circuits, which are rarely product."""
    rng = np.random.default_rng(5)
    tol = gates.PRODUCT_TOL
    values = (np.nextafter(tol, 1.0), -np.nextafter(tol, 1.0), tol, 0.999 * tol,
              np.nextafter(tol, 0.0), np.nan, 0.3)
    seen = set()
    for trial in range(60):
        n = int(rng.integers(1, 9))
        cov = np.zeros((2 * n, 2 * n))
        for m in range(n):
            a = rng.normal(size=(2, 2))
            cov[2 * m : 2 * m + 2, 2 * m : 2 * m + 2] = a @ a.T
        states = [GaussianState(n, np.zeros(2 * n), cov)]
        if n > 1:
            l, k = rng.choice(n, size=2, replace=False)
            for value in values:
                bent = cov.copy()
                bent[2 * l + rng.integers(2), 2 * k + rng.integers(2)] = value
                states.append(GaussianState(n, np.zeros(2 * n), bent))
            tape = [random_gate(rng, n) for _ in range(int(rng.integers(1, 6)))]
            states.append(apply_tape(vacuum_state(n), tape, float(rng.uniform(0.0, 2.0))))
        for state in states:
            verdict = covariance.is_mode_product(state)
            assert verdict is looped_is_mode_product(state)
            seen.add(verdict)
    assert seen == {True, False}
    above = 0.5 * np.eye(4)
    above[0, 3] = np.nextafter(tol, 1.0)
    assert not covariance.is_mode_product(GaussianState(2, np.zeros(4), above))
    above[0, 3] = np.nextafter(tol, 0.0)
    assert covariance.is_mode_product(GaussianState(2, np.zeros(4), above))


def test_a_nan_off_diagonal_entry_is_no_product():
    cov = 0.5 * np.eye(4)
    cov[0, 3] = cov[3, 0] = np.nan
    assert not covariance.is_mode_product(GaussianState(2, np.zeros(4), cov))


def test_uncertainty_defect_and_physicality():
    assert uncertainty_defect(vacuum_state(2)) == pytest.approx(0.0, abs=1e-12)
    bad = GaussianState(1, np.zeros(2), 0.1 * np.eye(2))
    assert not is_physical(bad)


def test_a_slightly_sub_vacuum_product_is_unphysical():
    """Var X * Var Y = 0.5 * 0.4995 < 1/4: the smallest eigenvalue of
    V + i Omega / 2 is (0.9995 - sqrt(0.9995^2 + 1e-3)) / 2, about -2.5e-4."""
    state = GaussianState(1, np.zeros(2), np.diag([0.5, 0.4995]))
    assert uncertainty_defect(state) == pytest.approx(-2.5e-4, rel=1e-3)
    assert not is_physical(state)


def test_a_weak_coupling_is_not_a_product():
    """Kerr(1, 2, g) on vacuum at r = 0 gives Cov(X_2, Y_1) = g / 2: 5e-4 at g = 1e-3."""
    state = apply_tape(vacuum_state(2), [Kerr(1, 2, 1e-3)], 0.0)
    assert state.cov[quad_index(1, Y), quad_index(2, X)] == pytest.approx(5e-4, rel=1e-12)
    assert not covariance.is_mode_product(state)


# ---------------------------------------------------------------------------
# bridge: tape replay equals the symbolic closed form
# ---------------------------------------------------------------------------


def test_bridge_on_random_circuits():
    """Random gate tapes: numeric variance == symbolic formula to 1e-9."""
    rng = np.random.default_rng(2024)
    for _ in range(15):
        n = int(rng.integers(2, 6))
        reg = Register(n)
        for _ in range(12):
            op = rng.integers(4)
            m = int(rng.integers(1, n + 1))
            k = int(rng.integers(1, n + 1))
            if op == 0:
                reg.apply(Squeeze(m, MOMENTUM_SQUEEZED if rng.random() < 0.5 else POSITION_SQUEEZED))
            elif op == 1:
                reg.apply(Rotate(m, float(rng.uniform(-3, 3))))
            elif op == 2 and m != k:
                reg.apply(Beamsplit(m, k, float(rng.uniform(0.1, 0.9))))
            elif op == 3 and m != k:
                reg.apply(Kerr(m, k, float(rng.uniform(0.2, 1.5))))
        parts = [
            (float(rng.uniform(-2, 2)), m, X if rng.random() < 0.5 else Y)
            for m in range(1, n + 1)
        ]
        expr = reg.combine(parts)
        for r in (0.0, 0.4, 1.1):
            state = apply_tape(vacuum_state(n), reg.history, r)
            assert variance_of(state, covariance.combo_weights(parts)) == pytest.approx(
                ledger.variance_formula(expr, r), abs=1e-9
            )
            assert is_physical(state)
            folded = vacuum_state(n)
            for gate in reg.history:
                folded = apply_gate(folded, gate, r)
            assert np.array_equal(state.mean, folded.mean)
            assert np.array_equal(state.cov, folded.cov)


def test_combo_weights_computed_once_give_the_same_bits():
    """A combination's weights, computed once with repeats accumulated and
    shared across states, give each state's bridge verdict, including one the
    size-scaled allowance decides."""
    combo = [(1.0, 2, Y), (-1.0, 1, X), (0.5, 3, X), (0.5, 3, X)]  # x3 repeated
    weights = covariance.combo_weights(combo)
    assert variance_of(vacuum_state(3), weights) == 1.5  # 0.5 * (1 + 1 + (0.5 + 0.5)**2)
    tape = protocols.build_graph_state(graphs.chain(3)).history
    for r, state in zip((0.0, 1.0, 10.0), replay(3, tape, (0.0, 1.0, 10.0))):
        numeric = variance_of(state, weights)
        verdicts = [covariance.bridge_agrees(state, weights, numeric, symbolic)
                    for symbolic in (numeric + 1e-3, numeric + 1e3)]
        assert verdicts == ([True, False] if r == 10.0 else [False, False])


@pytest.mark.parametrize("combo", [[], [(1.0, 2, Y)], [(0.5, 3, X), (1.0, 1, Y), (-2.0, 3, X), (1.0, 2, Y)]])
def test_combo_weights_index_is_the_ix_index(combo):
    """Same shapes and dtype as ``np.ix_`` over the sorted quadratures, and
    the same gathered block."""
    w, ix = covariance.combo_weights(combo)
    idx = sorted({covariance.quad_index(m, k) for _, m, k in combo})
    expected = np.ix_(idx, idx)
    assert [(a.shape, a.dtype) for a in ix] == [(a.shape, a.dtype) for a in expected]
    assert all(np.array_equal(a, b) for a, b in zip(ix, expected)) and w.shape == (len(idx),)
    cov = np.arange(36.0).reshape(6, 6)
    assert np.array_equal(cov[ix], cov[expected])


def test_bridge_catches_mean_displacement_free_variance():
    """Displaced means must not affect variances."""
    state = epr_state(0.9)
    shifted = GaussianState(2, state.mean + 3.0, state.cov)
    weights = covariance.combo_weights([(1.0, 1, X), (1.0, 2, X)])
    assert variance_of(shifted, weights) == pytest.approx(variance_of(state, weights))
