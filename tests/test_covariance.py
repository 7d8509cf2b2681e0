"""Numeric Gaussian engine: gates, homodyne conditioning, witnesses, bridge."""

import math

import numpy as np
import pytest

from cvcluster import covariance, gates, ledger
from cvcluster.covariance import (
    GaussianState,
    apply_gate,
    apply_tape,
    duan_sum,
    homodyne,
    is_physical,
    ppt_min_symplectic_eig,
    quad_index,
    reduced_state,
    uncertainty_defect,
    vacuum_state,
    variance_of,
)
from cvcluster.errors import (
    DomainError,
    InternalConsistencyError,
    InvalidSizeError,
    SelfInteractionError,
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
    assert gates.block(squeeze, 0.3) is gates.block(squeeze, 0.3)
    assert gates.block(squeeze, 0.3).flags.writeable is False
    assert not np.array_equal(gates.block(squeeze, 0.3), gates.block(squeeze, 0.4))
    for gate in (Kerr(1, 2, 0.8), Rotate(1, 0.4), Beamsplit(1, 2, 0.3)):
        shared = gates.block(gate)
        assert shared.flags.writeable is False
        assert gates.block(gate, 0.3) is shared
        assert gates.block(gate, 1.7) is shared


def test_gate_blocks_are_still_checked_once_built(monkeypatch):
    """The symplectic check lives in gates and runs when a block is first built."""
    monkeypatch.setattr(gates, "is_symplectic", lambda s_mat: False)
    with pytest.raises(InternalConsistencyError):
        apply_gate(vacuum_state(2), Kerr(2, 1, 0.6180339887))


def test_kerr_correlates_momenta():
    """After the coupling, each momentum carries the partner's position noise."""
    state = apply_gate(vacuum_state(2), Kerr(1, 2, 1.0))
    assert state.cov[quad_index(1, Y), quad_index(2, X)] == pytest.approx(0.5)
    assert variance_of(state, [(1.0, 1, Y)]) == pytest.approx(1.0)


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


# ---------------------------------------------------------------------------
# homodyne
# ---------------------------------------------------------------------------


def epr_state(r=1.0):
    state = vacuum_state(2)
    state = apply_gate(state, Squeeze(1, MOMENTUM_SQUEEZED), r)
    state = apply_gate(state, Squeeze(2, MOMENTUM_SQUEEZED), r)
    return apply_gate(state, Kerr(1, 2, 1.0), r)


def test_homodyne_resets_the_measured_mode_to_vacuum():
    res = homodyne(epr_state(), 1, X, outcome=0.3)
    assert res.state.n == 2
    assert res.outcome == 0.3
    assert np.array_equal(res.state.cov[0:2, 0:2], 0.5 * np.eye(2))
    assert not res.state.cov[0:2, 2:4].any()
    assert not res.state.cov[2:4, 0:2].any()
    assert not res.state.mean[0:2].any()


def test_homodyne_conditions_the_partner():
    """Measuring X_1 on the coupled pair sharpens the partner's conditional Y."""
    state = epr_state(1.0)
    prior = variance_of(state, [(1.0, 2, Y)])
    res = homodyne(state, 1, X, outcome=0.0)
    post = variance_of(res.state, [(1.0, 2, Y)])  # the partner keeps its number
    assert post < prior
    # Y_2 - X_1 is the pure-decay combination; conditioning on X_1 leaves
    # exactly its variance e^{-2r}/2
    assert post == pytest.approx(0.5 * math.exp(-2.0), rel=1e-9)


def test_homodyne_outcome_shifts_conditional_mean():
    state = epr_state(1.0)
    res = homodyne(state, 1, X, outcome=2.0)
    # E[Y_2 | X_1 = v] = v * Cov(Y2,X1)/Var(X1)
    gain = state.cov[quad_index(2, Y), quad_index(1, X)] / state.cov[quad_index(1, X), quad_index(1, X)]
    assert res.state.mean[quad_index(2, Y)] == pytest.approx(2.0 * gain)


def test_homodyne_sampling_is_seeded():
    a = homodyne(epr_state(), 1, X, rng=np.random.default_rng(9))
    b = homodyne(epr_state(), 1, X, rng=np.random.default_rng(9))
    c = homodyne(epr_state(), 1, X, rng=np.random.default_rng(10))
    assert a.outcome == b.outcome
    assert a.outcome != c.outcome


def test_homodyne_prior_statistics_reported():
    state = epr_state(0.6)
    res = homodyne(state, 2, Y, outcome=0.0)
    assert res.prior_mean == pytest.approx(0.0)
    assert res.prior_var == pytest.approx(variance_of(state, [(1.0, 2, Y)]))


def test_homodyne_mode_validation():
    state = epr_state()
    with pytest.raises(InvalidSizeError):
        homodyne(state, 3, X, outcome=0.0)


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


def test_duan_sum_vacuum_floor():
    assert duan_sum(vacuum_state(2), (1, 2)) == pytest.approx(2.0)


def test_duan_sum_drops_below_floor_for_epr():
    state = epr_state(1.0)
    # the EPR-type correlations here pair X_i with the partner's Y
    val = duan_sum(state, (1, 2), gains=(1.0, 1.0))
    three_mode = ppt_min_symplectic_eig(state, (1, 2))
    assert three_mode < 0.5  # entangled by PPT even if a fixed-gain sum is not tight
    assert val > 0.0


def test_reduced_state_picks_blocks():
    state = epr_state()
    red = reduced_state(state, [2])
    assert red.n == 1
    assert red.cov[0, 0] == pytest.approx(state.cov[2, 2])


def test_uncertainty_defect_and_physicality():
    assert uncertainty_defect(vacuum_state(2)) == pytest.approx(0.0, abs=1e-12)
    bad = GaussianState(1, np.zeros(2), 0.1 * np.eye(2))
    assert not is_physical(bad)


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
                reg.squeeze(m, MOMENTUM_SQUEEZED if rng.random() < 0.5 else POSITION_SQUEEZED)
            elif op == 1:
                reg.rotate(m, float(rng.uniform(-3, 3)))
            elif op == 2 and m != k:
                reg.beamsplit(m, k, float(rng.uniform(0.1, 0.9)))
            elif op == 3 and m != k:
                reg.kerr_couple(m, k, float(rng.uniform(0.2, 1.5)))
        parts = [
            (float(rng.uniform(-2, 2)), m, X if rng.random() < 0.5 else Y)
            for m in range(1, n + 1)
        ]
        expr = reg.combine(parts)
        for r in (0.0, 0.4, 1.1):
            state = apply_tape(vacuum_state(n), reg.history, r)
            assert variance_of(state, parts) == pytest.approx(
                ledger.variance_formula(expr, r), abs=1e-9
            )
            assert is_physical(state)
            folded = vacuum_state(n)
            for gate in reg.history:
                folded = apply_gate(folded, gate, r)
            assert np.array_equal(state.mean, folded.mean)
            assert np.array_equal(state.cov, folded.cov)


def test_bridge_catches_mean_displacement_free_variance():
    """Displaced means must not affect variances."""
    state = epr_state(0.9)
    shifted = GaussianState(2, state.mean + 3.0, state.cov)
    assert variance_of(shifted, [(1.0, 1, X), (1.0, 2, X)]) == pytest.approx(
        variance_of(state, [(1.0, 1, X), (1.0, 2, X)])
    )
