"""Gate vocabulary shared by the symbolic ledger and the covariance engine.

Conventions (used project-wide):

* quadrature order is ``(X_1, Y_1, ..., X_n, Y_n)``;
* ``[X, Y] = i`` and the vacuum has variance 1/2 in each quadrature;
* ``rotate``: ``X' = cos(t) X + sin(t) Y``, ``Y' = -sin(t) X + cos(t) Y``;
* ``beamsplit`` with transmittance ``t`` and ``s = sqrt(t)``, ``c = sqrt(1-t)``:
  ``X_l' = s X_l + c X_k``, ``X_k' = c X_l - s X_k`` (same pattern for Y);
* the cross-Kerr style coupler adds ``g X`` of each partner to the other's Y
  and leaves both X untouched.

Mode indices are 1-based everywhere.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InternalConsistencyError, SelfInteractionError

# Squeezing directions.  "momentum" squeezes Y (X -> e^{+r} X, Y -> e^{-r} Y);
# "position" squeezes X (X -> e^{-r} X, Y -> e^{+r} Y).
MOMENTUM_SQUEEZED = "momentum"
POSITION_SQUEEZED = "position"

# Quadrature kinds.
X = "x"
Y = "y"

# ---------------------------------------------------------------------------
# Tolerances: the one table for both engines and everything built on them
# ---------------------------------------------------------------------------

# Ledger: coefficients at or below this are dropped after every rewrite.
PRUNE_TOL = 1e-12
# Ledger: a combination is a nullifier when all terms above this survive at k <= -1.
NULLIFIER_TOL = 1e-9
# Ledger: net commutator contributions at nonzero exponent-sum above this are a bug.
COMMUTATOR_TOL = 1e-9
# Gates: an angle this close (in quarter turns) to a multiple of pi/2 snaps to it.
QUARTER_TURN_TOL = 1e-12
# Gates: allowed max-abs deviation of S @ Omega @ S.T from Omega.
SYMPLECTIC_TOL = 1e-12
# Covariance: a homodyne on a quadrature with variance at or below this is rejected.
SINGULAR_TOL = 1e-15
# Covariance: allowed violation of the uncertainty relation V + i*Omega/2 >= 0.
UNCERTAINTY_TOL = 1e-9
# Covariance: off-diagonal 2x2 mode blocks within this of zero count as product.
PRODUCT_TOL = 1e-9
# Protocols: feed-forward residual above which a solve is infeasible; also the
# singular-value cut for ranks and null spaces, and the smallest weight kept.
SOLVER_TOL = 1e-9
# Protocols: register rows may differ from the graph-state closed form by this.
GRAPH_ROW_TOL = 1e-9
# Bridge: numeric and symbolic variances of one combination agree to this.
# Script runs scale it by the variance once that exceeds 1 (large squeezing
# makes variances of 1e7 whose last bits differ); the claims suite compares
# absolutely, at squeezing small enough for that to hold.
BRIDGE_TOL = 1e-9
# Claims: exact-coefficient checks on closed-form rows and surviving weights.
COEFF_TOL = 1e-12
# Claims: a traced pair is entangled when its PPT eigenvalue is this far below 1/2.
ENTANGLEMENT_MARGIN = 1e-12


@dataclass(frozen=True)
class Squeeze:
    MODE_FIELDS = ("mode",)

    mode: int
    direction: str = MOMENTUM_SQUEEZED

    def __post_init__(self):
        if self.direction not in (MOMENTUM_SQUEEZED, POSITION_SQUEEZED):
            raise DomainError(f"unknown squeezing direction {self.direction!r}")


@dataclass(frozen=True)
class Kerr:
    """Quadrature coupler: Y_l += g X_k and Y_k += g X_l, X unchanged."""

    MODE_FIELDS = ("l", "k")

    l: int
    k: int
    g: float = 1.0

    def __post_init__(self):
        if self.l == self.k:
            raise SelfInteractionError(f"kerr coupling mode {self.l} with itself")


@dataclass(frozen=True)
class Rotate:
    MODE_FIELDS = ("mode",)

    mode: int
    theta: float


@dataclass(frozen=True)
class Beamsplit:
    MODE_FIELDS = ("l", "k")

    l: int
    k: int
    t: float = 0.5

    def __post_init__(self):
        if self.l == self.k:
            raise SelfInteractionError(f"beamsplitting mode {self.l} with itself")
        if not 0.0 <= self.t <= 1.0:
            raise DomainError(f"transmittance must lie in [0, 1], got {self.t}")


Gate = Squeeze | Kerr | Rotate | Beamsplit


def modes(gate: Gate) -> tuple[int, ...]:
    """The modes a gate acts on, in the order its block's rows follow."""
    return tuple(getattr(gate, f) for f in gate.MODE_FIELDS)


def cos_sin(theta: float) -> tuple[float, float]:
    """cos/sin of ``theta`` with exact values at multiples of pi/2.

    Quarter turns are the workhorse rotation in every protocol here; snapping
    them to exact +-1/0 keeps ledger coefficients integral instead of leaving
    1e-17 debris that would survive pruning.
    """
    quarter = theta / (math.pi / 2.0)
    nearest = round(quarter)
    if abs(quarter - nearest) < QUARTER_TURN_TOL:
        c, s = [(1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0)][nearest % 4]
        return c, s
    return math.cos(theta), math.sin(theta)


def finite_exp(x: float) -> float:
    """``e^x`` for a squeezing factor; past float range (``x`` near 710) or NaN
    it is a :class:`DomainError`, never an ``OverflowError`` or an ``inf``."""
    try:
        value = math.exp(x)
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise DomainError(f"squeezing factor e^({x!r}) is not a finite float")
    return value


def symplectic_form(n: int) -> np.ndarray:
    """Return the 2n x 2n symplectic form for (X_1, Y_1, ..., X_n, Y_n) order."""
    omega = np.array([[0.0, 1.0], [-1.0, 0.0]])
    return np.kron(np.eye(n), omega)


# Distinct blocks kept by :func:`block`: a 4x4 block is about 0.5 kB, so the
# cache stays under about 2 MB; a script or claims round uses about 1.5k.
BLOCK_CACHE_SIZE = 4096


def block(gate: Gate, r: float | None = None) -> np.ndarray:
    """The gate's symplectic block: 2x2 for one mode, 4x4 for two.

    Rows and columns run over (X, Y) of each mode in :func:`modes` order.
    ``r`` is the numeric squeezing parameter; it is only needed for
    :class:`Squeeze` gates (the ledger keeps r symbolic, the covariance
    engine does not).  Each distinct block is built and checked to be
    symplectic once; the returned array is shared and read-only.
    """
    return _checked_block(gate, r if isinstance(gate, Squeeze) else None)


@functools.lru_cache(maxsize=BLOCK_CACHE_SIZE)
def _checked_block(gate: Gate, r: float | None) -> np.ndarray:
    if isinstance(gate, Squeeze):
        if r is None:
            raise DomainError("numeric r is required to build a squeeze matrix")
        s_mat = np.eye(2)
        if gate.direction == MOMENTUM_SQUEEZED:
            s_mat[0, 0] = finite_exp(r)
            s_mat[1, 1] = finite_exp(-r)
        else:
            s_mat[0, 0] = finite_exp(-r)
            s_mat[1, 1] = finite_exp(r)
    elif isinstance(gate, Kerr):
        s_mat = np.eye(4)
        s_mat[1, 2] = gate.g
        s_mat[3, 0] = gate.g
    elif isinstance(gate, Rotate):
        s_mat = np.eye(2)
        c, s = cos_sin(gate.theta)
        s_mat[0, 0] = c
        s_mat[0, 1] = s
        s_mat[1, 0] = -s
        s_mat[1, 1] = c
    elif isinstance(gate, Beamsplit):
        s_mat = np.eye(4)
        s = math.sqrt(gate.t)
        c = math.sqrt(1.0 - gate.t)
        for a, b in ((0, 2), (1, 3)):
            s_mat[a, a] = s
            s_mat[a, b] = c
            s_mat[b, a] = c
            s_mat[b, b] = -s
    else:
        raise TypeError(f"not a gate: {gate!r}")
    if not is_symplectic(s_mat):
        raise InternalConsistencyError(f"gate block for {gate!r} is not symplectic")
    s_mat.flags.writeable = False
    return s_mat


def is_symplectic(s_mat: np.ndarray) -> bool:
    """Check S @ Omega @ S.T == Omega to ``SYMPLECTIC_TOL`` (max-abs deviation)."""
    n2 = s_mat.shape[0]
    if s_mat.shape != (n2, n2) or n2 % 2:
        return False
    omega = symplectic_form(n2 // 2)
    return bool(np.max(np.abs(s_mat @ omega @ s_mat.T - omega)) <= SYMPLECTIC_TOL)
