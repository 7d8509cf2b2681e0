"""Numeric Gaussian-state engine: means, covariances, homodyne, witnesses.

States are Gaussian, stored as a mean vector and covariance matrix in
``(X_1, Y_1, ..., X_n, Y_n)`` order with vacuum variance 1/2 per quadrature
(``[X, Y] = i``).  All operations are pure: they return new states.

This engine is deliberately independent of :mod:`cvcluster.ledger`: the two
are cross-checked against each other by the test- and claims-suites, so the
covariance path must not share the symbolic bookkeeping.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import gates
from .errors import (
    DomainError,
    InvalidSizeError,
    SelfInteractionError,
    SingularMeasurementError,
)
from .gates import PRODUCT_TOL, SINGULAR_TOL, UNCERTAINTY_TOL, X, Y


@dataclass(frozen=True)
class GaussianState:
    """Gaussian state of ``n`` modes: mean (2n,) and covariance (2n, 2n)."""

    n: int
    mean: np.ndarray
    cov: np.ndarray


@dataclass(frozen=True)
class HomodyneResult:
    """Outcome of measuring one quadrature; the measured mode is back in vacuum."""

    state: GaussianState
    outcome: float
    prior_mean: float
    prior_var: float


def quad_index(mode: int, kind: str) -> int:
    """Flat index of a quadrature in (X_1, Y_1, ..., X_n, Y_n) order."""
    return 2 * (mode - 1) + (0 if kind == X else 1)


def vacuum_state(n: int) -> GaussianState:
    if not isinstance(n, int) or n < 1:
        raise InvalidSizeError(f"state needs at least one mode, got {n!r}")
    return GaussianState(n, np.zeros(2 * n), 0.5 * np.eye(2 * n))


# ---------------------------------------------------------------------------
# Gates
# ---------------------------------------------------------------------------


def apply_gate(state: GaussianState, gate: gates.Gate, r: float | None = None) -> GaussianState:
    """Apply one gate; ``r`` supplies the numeric squeezing for Squeeze gates.

    The gate's symplectic block comes from :func:`gates.block`, which checks
    it (S Omega S^T = Omega to 1e-12) the first time it is built.  Only the
    affected rows/columns are updated, so building large states stays linear
    in n per gate.  A state that overflows float range is a
    :class:`DomainError`, never an ``inf`` or NaN entry.
    """
    modes = gates.modes(gate)
    for m in modes:
        if not 1 <= m <= state.n:
            raise InvalidSizeError(f"gate touches mode {m} outside 1..{state.n}")
    block = gates.block(gate, r)
    idx = [quad_index(m, kind) for m in modes for kind in (X, Y)]
    mean = state.mean.copy()
    cov = state.cov.copy()
    try:
        with np.errstate(over="raise", invalid="raise"):
            mean[idx] = block @ mean[idx]
            cov[idx, :] = block @ cov[idx, :]
            cov[:, idx] = cov[:, idx] @ block.T
    except FloatingPointError:
        raise DomainError(
            f"{gate!r} at r={r!r} leaves float range; squeezing too large"
        ) from None
    return GaussianState(state.n, mean, cov)


def apply_tape(state: GaussianState, tape, r: float | None = None) -> GaussianState:
    """Apply a sequence of gates (e.g. a ledger register's ``history``)."""
    for gate in tape:
        state = apply_gate(state, gate, r)
    return state


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------


def homodyne(
    state: GaussianState,
    mode: int,
    kind: str,
    outcome: float | None = None,
    rng: np.random.Generator | None = None,
) -> HomodyneResult:
    """Measure one quadrature; condition the other modes, reset the measured one.

    The conditional covariance of the other modes is the Schur complement of
    the measured variance, ``A - b b^T / v``, and the conditional mean shifts
    by ``b (outcome - prior_mean) / v``.  The measured mode is left in vacuum
    (covariance ``I/2``, no cross terms, zero mean), so ``n`` and every mode
    number stay as they were.  When no outcome is supplied one is drawn from
    the prior marginal with ``rng``, which is then required.
    """
    if not 1 <= mode <= state.n:
        raise InvalidSizeError(f"mode {mode} outside 1..{state.n}")
    q = quad_index(mode, kind)
    v = float(state.cov[q, q])
    if not math.isfinite(v):
        raise DomainError(f"quadrature ({mode}, {kind}) has variance {v!r}; squeezing too large")
    if v <= SINGULAR_TOL:
        raise SingularMeasurementError(
            f"quadrature ({mode}, {kind}) has variance {v:.3g}; nothing to measure"
        )
    prior_mean = float(state.mean[q])
    if outcome is None:
        outcome = float(rng.normal(prior_mean, math.sqrt(v)))
    keep = np.ones(2 * state.n, dtype=bool)
    keep[[q, q ^ 1]] = False  # q ^ 1 is the conjugate quadrature of the same mode
    kept = np.ix_(keep, keep)
    b = state.cov[keep, q]
    cov = 0.5 * np.eye(2 * state.n)
    cov[kept] = state.cov[kept] - np.outer(b, b) / v
    mean = np.zeros(2 * state.n)
    mean[keep] = state.mean[keep] + b * (outcome - prior_mean) / v
    return HomodyneResult(GaussianState(state.n, mean, cov), outcome, prior_mean, v)


# ---------------------------------------------------------------------------
# Second-moment queries
# ---------------------------------------------------------------------------


def variance_of(state: GaussianState, combo) -> float:
    """Variance of a weighted quadrature combination.

    ``combo`` is an iterable of ``(coeff, mode, kind)``.  Repeated
    quadratures are accumulated before evaluation.
    """
    weights: dict[int, float] = {}
    for coeff, mode, kind in combo:
        qi = quad_index(mode, kind)
        weights[qi] = weights.get(qi, 0.0) + coeff
    idx = sorted(weights)
    w = np.array([weights[i] for i in idx])
    sub = state.cov[np.ix_(idx, idx)]
    return float(w @ sub @ w)


def is_mode_product(state: GaussianState) -> bool:
    """True when every off-diagonal 2x2 mode block of the covariance is within PRODUCT_TOL of 0."""
    cov = state.cov
    for i in range(state.n):
        for j in range(i + 1, state.n):
            if np.max(np.abs(cov[2 * i : 2 * i + 2, 2 * j : 2 * j + 2])) > PRODUCT_TOL:
                return False
    return True


def reduced_state(state: GaussianState, modes) -> GaussianState:
    """Trace out everything except ``modes`` (order given is kept)."""
    idx = [quad_index(m, k) for m in modes for k in (X, Y)]
    return GaussianState(len(modes), state.mean[idx].copy(), state.cov[np.ix_(idx, idx)].copy())


def symplectic_eigenvalues(cov: np.ndarray) -> np.ndarray:
    """Symplectic spectrum of a covariance matrix (each value once, ascending)."""
    n = cov.shape[0] // 2
    omega = gates.symplectic_form(n)
    evs = np.abs(np.linalg.eigvals(1j * omega @ cov))
    return np.sort(evs)[::2]


def ppt_min_symplectic_eig(state: GaussianState, pair: tuple[int, int]) -> float:
    """Minimum symplectic eigenvalue after partial transposition of a mode pair.

    Other modes are traced out first.  Values below the vacuum floor 1/2
    witness entanglement across the pair (sufficient for two modes).
    """
    i, j = pair
    if i == j:
        raise SelfInteractionError("pair must be two distinct modes")
    two = reduced_state(state, [i, j])
    flip = np.diag([1.0, 1.0, 1.0, -1.0])
    return float(symplectic_eigenvalues(flip @ two.cov @ flip)[0])


def duan_sum(state: GaussianState, pair: tuple[int, int], gains: tuple[float, float] = (1.0, 1.0)) -> float:
    """EPR-type variance sum Var(X_i + gx X_j) + Var(Y_i - gy Y_j).

    For any separable state this is bounded below by 2 at unit gains
    (vacuum units: 1/2 per quadrature); smaller values witness entanglement.
    """
    i, j = pair
    gx, gy = gains
    return variance_of(state, [(1.0, i, X), (gx, j, X)]) + variance_of(
        state, [(1.0, i, Y), (-gy, j, Y)]
    )


def uncertainty_defect(state: GaussianState) -> float:
    """Most negative eigenvalue of V + i*Omega/2 (>= -tol for physical states)."""
    omega = gates.symplectic_form(state.n)
    h = state.cov + 0.5j * omega
    return float(np.min(np.linalg.eigvalsh(h)))


def is_physical(state: GaussianState) -> bool:
    return uncertainty_defect(state) >= -UNCERTAINTY_TOL
