"""Numeric Gaussian-state engine: means, covariances, homodyne, witnesses.

States are Gaussian, stored as a mean vector and covariance matrix in
``(X_1, Y_1, ..., X_n, Y_n)`` order with vacuum variance 1/2 per quadrature
(``[X, Y] = i``).  One rule: gates (:func:`apply_gate`) and measurements
(:func:`homodyne`) update the state they are given in place, and
:func:`apply_tape` and :func:`replay` build new states.  :func:`apply_tape`
copies its input once and replays a gate tape on the copy at one squeezing r,
under one ``np.errstate`` overflow guard (a bare :func:`apply_gate` call
guards itself); :func:`replay` runs a tape from vacuum at several r at once
(print rows, the closing claims), applying each gate once to a stack of
zero-mean states.  :func:`light_cone` cuts a tape to the gates a combination
reads, on the modes they touch, so a print replays only that.  Squeezes and
g = 1 couplings, the paper's gates, skip the block product: they update row
and column views in place, each written once, and each entry is one product
or a two-term sum, rounded once, so bits hold.

This engine is deliberately independent of :mod:`cvcluster.ledger`: the two
are cross-checked against each other by the test- and claims-suites, so the
covariance path must not share the symbolic bookkeeping.
"""

from __future__ import annotations

import contextvars
import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from . import gates
from .errors import (
    DomainError,
    InvalidSizeError,
    SelfInteractionError,
    SingularMeasurementError,
)
from .gates import BRIDGE_TOL, PRODUCT_TOL, SINGULAR_TOL, UNCERTAINTY_TOL, X, Y

_GUARDED = contextvars.ContextVar("_GUARDED", default=False)  # True inside apply_tape's one guard


@dataclass(frozen=True)
class GaussianState:
    """Gaussian state of ``n`` modes: mean (2n,) and covariance (2n, 2n)."""

    n: int
    mean: np.ndarray
    cov: np.ndarray


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
    """Apply one gate to ``state`` in place and return it; ``r`` supplies the
    numeric squeezing for Squeeze gates.

    The gate's block and where it sits come from :func:`gates.placement`,
    which checks the block (S Omega S^T = Omega to 1e-12) when it is built;
    :func:`_step` updates only those rows and columns, with the same bits.  A
    mode outside the state is reported before any error in the block, and
    either leaves the state untouched.  Overflow is a :class:`DomainError`
    naming the gate, never an ``inf`` or NaN, but may leave the state partly
    updated (:func:`apply_tape` keeps its input).  A bare call enters
    ``np.errstate`` itself; inside :func:`apply_tape` the tape's guard serves.
    """
    block, idx = _place(state.n, gate, r)
    try:
        if _GUARDED.get():
            _step(gate, block, idx, state.mean, state.cov)
        else:
            with np.errstate(over="raise", invalid="raise"):
                _step(gate, block, idx, state.mean, state.cov)
    except FloatingPointError:
        raise _overflow(gate, [r]) from None
    return state


def _step(gate: gates.Gate, block, idx, mean, cov) -> None:
    """Apply a placed gate in place, rows before columns, to one state or (``mean``
    None) a stack of zero-mean covariances: a Squeeze scales by its block's
    diagonal and a Kerr with g == 1 adds X_k to Y_l and X_l to Y_k, each on a
    row or column view written once (``v *= a``, not ``side[q] *= a``, which
    copies the row back onto itself), so each entry is one product or a sum of
    two terms weighted 1, rounded once in any order or FMA policy: the bits of
    the block product every other gate takes."""
    rows, cols = cov.T.swapaxes(0, 1), cov.T  # quadrature axis first, a stack's axis last
    if isinstance(gate, gates.Squeeze):
        q, a, b = idx.start, block[..., 0, 0], block[..., 1, 1]  # one factor per state
        for side in (rows, cols):
            v, w = side[q], side[q + 1]
            v *= a
            w *= b
        if mean is not None:  # mean[q] is a copied scalar, not a view
            mean[q], mean[q + 1] = mean[q] * a, mean[q + 1] * b
    elif isinstance(gate, gates.Kerr) and gate.g == 1.0:
        xl, xk = 2 * gate.l - 2, 2 * gate.k - 2  # Y of a mode is its X index + 1
        for side in (rows, cols):
            v, w = side[xl + 1], side[xk + 1]
            v += side[xk]
            w += side[xl]
        if mean is not None:
            mean[xl + 1], mean[xk + 1] = mean[xl + 1] + mean[xk], mean[xk + 1] + mean[xl]
    else:
        cov[..., idx, :] = block @ cov[..., idx, :]
        cov[..., idx] = cov[..., idx] @ block.swapaxes(-1, -2)
        if mean is not None:
            mean[idx] = block @ mean[idx]


def _overflow(gate: gates.Gate, rs: list) -> DomainError:
    """The error for a gate that takes the state past float range at ``rs`` (one r
    reads ``r=R``): a coupling overflows through g squared, any other gate through the squeezing."""
    cause = "coupling" if isinstance(gate, gates.Kerr) else "squeezing"
    at = f"r={rs[0]!r}" if len(rs) == 1 else f"r in {rs!r}"
    return DomainError(f"{gate!r} at {at} leaves float range; {cause} too large")


def _place(n: int, gate: gates.Gate, r: float | None):
    """The gate's block and index from :func:`gates.placement`, for a state of
    ``n`` modes: a mode outside 1..n is reported before any error in the block."""
    try:
        block, idx, (low, high) = gates.placement(gate, r)
    except DomainError:
        _check_modes(n, gate)
        raise
    if low < 1 or high > n:
        _check_modes(n, gate)
    return block, idx


def _check_modes(n: int, gate: gates.Gate) -> None:
    """Raise for the first of the gate's modes outside 1..n, if any."""
    for m in gates.modes(gate):
        if not 1 <= m <= n:
            raise InvalidSizeError(f"gate touches mode {m} outside 1..{n}")


def apply_tape(state: GaussianState, tape, r: float | None = None) -> GaussianState:
    """A new state: ``state`` after a sequence of gates (e.g. a ledger
    register's ``history``).  ``state`` is copied once, so it is left as it
    was, also when a gate fails; each gate is one :func:`apply_gate` call, all
    under one ``np.errstate`` guard that ``_GUARDED`` tells them not to repeat."""
    state = GaussianState(state.n, state.mean.copy(), state.cov.copy())
    token = _GUARDED.set(True)
    try:
        with np.errstate(over="raise", invalid="raise"):
            for gate in tape:
                apply_gate(state, gate, r)
    finally:
        _GUARDED.reset(token)
    return state


def replay(n: int, tape, rs) -> Iterator[GaussianState]:
    """The vacuum of ``n`` modes after ``tape``, once per value in ``rs``, in order.

    Each state is bit for bit ``apply_tape(vacuum_state(n), tape, r)``, but
    each gate is applied once, in place, by :func:`_step` to a stack of the
    covariances (a tape holds no displacement, so every mean is zero).  Only a
    Squeeze block depends on r: each direction gets one stack of blocks over
    r, and every other gate broadcasts its shared block.  A stack holds at
    most as many floats as one covariance matrix at ``gates.MAX_MODES``;
    longer r lists are replayed lazily, chunk by chunk.  Errors are
    :func:`apply_gate`'s; an overflow names the chunk's r values (one reads ``r=R``).
    """
    rs = list(rs)
    vacuum = vacuum_state(n).cov
    chunk = max(1, (2 * gates.MAX_MODES) ** 2 // (2 * n) ** 2)
    for start in range(0, len(rs), chunk):
        part = rs[start:start + chunk]
        cov = np.repeat(vacuum[None], len(part), axis=0)
        stacks = {}  # squeeze direction -> (R, 2, 2) blocks, shared by every mode
        with np.errstate(over="raise", invalid="raise"):
            for gate in tape:
                block, idx = _place(n, gate, part[0])
                if isinstance(gate, gates.Squeeze):
                    if gate.direction not in stacks:
                        stacks[gate.direction] = np.stack([gates.placement(gate, r)[0] for r in part])
                    block = stacks[gate.direction]
                try:
                    _step(gate, block, idx, None, cov)
                except FloatingPointError:
                    raise _overflow(gate, part) from None
        yield from (GaussianState(n, np.zeros(2 * n), c) for c in cov)


def light_cone(n: int, tape, combo) -> tuple[int, list, list, list]:
    """``(m, cone, local, kept)``: the gates ``kept`` of ``tape`` that the final-frame
    ``combo`` reads, in order, and ``cone``, the same gates renumbered onto the ``m``
    modes they touch (in order, so a cone over all ``n`` keeps its numbers).  The
    sub-block of ``replay(m, cone, rs)`` that ``combo_weights(local)`` reads has the
    bits of ``combo``'s in ``replay(n, tape, rs)``, and so has ``replay(n, kept, rs)``'s.
    Walking back, a gate is kept when it writes a quadrature that is read, and its
    outputs read what :func:`_step` reads: a Squeeze's only themselves, a g = 1
    Kerr's Y_l also X_k and its Y_k also X_l, any other gate's its whole block
    (a ``0·x`` term too), so each kept gate runs on the inputs it always had."""
    need: dict[int, int] = {}  # mode -> a mask of its quadratures read: X is 1, Y is 2
    for _, mode, kind in combo:
        need[mode] = need.get(mode, 0) | (1 if kind == X else 2)
    squeeze, kerr, cone = gates.Squeeze, gates.Kerr, []  # bound once: this loop is per gate
    for gate in reversed(tape):
        if isinstance(gate, squeeze):
            hit = gate.mode in need
        elif isinstance(gate, kerr) and gate.g == 1.0:
            hit = False
            if gate.l in need or gate.k in need:
                for y, x in ((gate.l, gate.k), (gate.k, gate.l)):
                    if need.get(y, 0) & 2:  # Y_y reads X_x
                        need[x] = need.get(x, 0) | 1
                        hit = True
        else:
            ms = gates.modes(gate)
            hit = not need.keys().isdisjoint(ms)
            if hit:
                need.update(dict.fromkeys(ms, 3))
        if hit:
            cone.append(gate)
    cone.reverse()
    if not need:
        return n, cone, combo, cone
    new = {m: i for i, m in enumerate(sorted(need), 1)}
    moved = [type(gate)(*(new[m] for m in gates.modes(gate)), gates.value(gate)) for gate in cone]
    return len(new), moved, [(c, new[m], kind) for c, m, kind in combo], cone


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------


def homodyne(
    state: GaussianState,
    mode: int,
    kind: str,
    outcome: float | None = None,
    rng: np.random.Generator | None = None,
) -> float:
    """Measure one quadrature of ``state`` in place and return the outcome.

    The conditional covariance of the other modes is the Schur complement of
    the measured variance, ``A - b b^T / v``, and the conditional mean shifts
    by ``b (outcome - prior_mean) / v``: one update of the whole matrix and
    mean, with ``b`` a copy of the measured column, zero on the measured mode,
    which is then reset to vacuum (covariance ``I/2``, no cross terms, zero
    mean), so ``n`` and every mode number stay as they were.  When no outcome
    is supplied one is drawn from the prior marginal with ``rng``, which is
    then required.  A rejection leaves ``state`` as it was.
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
        if rng is None:
            raise DomainError("homodyne needs an outcome or an rng to draw one")
        outcome = float(rng.normal(prior_mean, math.sqrt(v)))
    own = slice(2 * mode - 2, 2 * mode)  # both quadratures of the measured mode
    cov, mean = state.cov, state.mean  # updated in place: the state is frozen, its arrays are not
    b = cov[:, q].copy()
    b[own] = 0.0
    cov -= np.outer(b, b) / v
    cov[own, :] = cov[:, own] = 0.0
    cov[q, q] = cov[q ^ 1, q ^ 1] = 0.5  # q ^ 1 is the conjugate quadrature
    mean += b * (outcome - prior_mean) / v
    mean[own] = 0.0
    return outcome


# ---------------------------------------------------------------------------
# Second-moment queries
# ---------------------------------------------------------------------------


def combo_weights(combo) -> tuple[np.ndarray, tuple]:
    """Weights of a combination, repeats accumulated, and the ``np.ix_``-shaped
    index of its covariance sub-block: computed once for a combination that is
    evaluated on many states."""
    weights: dict[int, float] = {}
    for coeff, mode, kind in combo:
        qi = quad_index(mode, kind)
        weights[qi] = weights.get(qi, 0.0) + coeff
    idx = sorted(weights)
    ix = np.array(idx, dtype=np.intp)
    return np.array([weights[i] for i in idx]), (ix[:, None], ix[None, :])


def variance_of(state: GaussianState, weights) -> float:
    """Variance of the combination whose ``combo_weights`` are ``weights``.

    A sum past float range is ``inf`` or NaN, without a numpy warning;
    callers report it.
    """
    w, ix = weights
    with np.errstate(over="ignore", invalid="ignore"):
        return float(w @ state.cov[ix] @ w)


def bridge_allowance(state: GaussianState, weights) -> float:
    """``BRIDGE_TOL * max(1, sum |w_i| |V_ij| |w_j|)``, the gap :func:`bridge_agrees` allows."""
    w, ix = weights
    with np.errstate(over="ignore"):
        return BRIDGE_TOL * max(1.0, float(np.abs(w) @ np.abs(state.cov[ix]) @ np.abs(w)))


def bridge_agrees(state: GaussianState, weights, numeric: float, symbolic: float) -> bool:
    """The one bridge rule: do ``variance_of(state, weights)`` and the ledger's
    closed form agree?  ``weights`` is ``combo_weights(combo)``.

    The numeric side sums the terms ``w_i V_ij w_j``, so its rounding grows
    with their size, not with the variance: at large squeezing the terms reach
    1e8 while the variance is 1e-9.  The gap is allowed
    :func:`bridge_allowance`, computed only when it exceeds ``BRIDGE_TOL``.
    A NaN on either side fails.
    """
    gap = abs(numeric - symbolic)
    return gap <= BRIDGE_TOL or gap <= bridge_allowance(state, weights)


def is_mode_product(state: GaussianState) -> bool:
    """True when every 2x2 mode block above the diagonal is within PRODUCT_TOL; a NaN is not."""
    largest = np.abs(state.cov).reshape(state.n, 2, state.n, 2).max(axis=(1, 3))
    return bool((np.triu(largest, 1) <= PRODUCT_TOL).all())


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


def uncertainty_defect(state: GaussianState) -> float:
    """Most negative eigenvalue of V + i*Omega/2 (>= -tol for physical states)."""
    omega = gates.symplectic_form(state.n)
    h = state.cov + 0.5j * omega
    return float(np.min(np.linalg.eigvalsh(h)))


def is_physical(state: GaussianState) -> bool:
    return uncertainty_defect(state) >= -UNCERTAINTY_TOL
