"""Symbolic Heisenberg-picture ledger for squeezed-vacuum mode networks.

Every quadrature of every mode is an exact linear combination of the
*initial* vacuum operators ``x0_m`` / ``y0_m``: a term carries an integer
exponent ``k`` for a factor ``e^{k r}`` of the register's one symbolic
squeezing ``r``, plus a real coefficient.  Gates rewrite these combinations
exactly, but a quarter turn only counts on its mode, a frame settled on read.
Nothing is sampled and no numeric ``r`` is needed until a variance is asked.

The payoff is that statements such as "this combination of quadratures has
variance ``0.5 e^{-2r}`` and therefore vanishes for large squeezing" become
exact bookkeeping facts: a combination is a *nullifier* when every surviving
term carries exponent <= -1.

An expression is a plain dict ``(mode, kind, exponent) -> coeff`` with no
entry at or below ``PRUNE_TOL``.  Rows are such dicts; ``quad_expr``,
``combine`` and each record's ``observable`` hand callers their own copy.

Conventions: ``[X, Y] = i``; vacuum variance 1/2 per quadrature; mode
indices are 1-based; quadrature order (X_1, Y_1, ..., X_n, Y_n) whenever a
flat vector is involved.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import gates
from .errors import (
    ConsumedModeError,
    DomainError,
    InvalidSizeError,
    RecordOwnershipError,
    UnsupportedOperationError,
)
from .gates import MOMENTUM_SQUEEZED, NULLIFIER_TOL, PRUNE_TOL, QUARTER_TURNS, X, Y


def _accumulate(dst: dict, c: float, src: dict) -> dict:
    """``dst += c * src`` in place: the one linear step of rows and books.

    ``src`` is read in insertion order and each sum is pruned as it is made,
    so an entry at or below ``PRUNE_TOL`` is dropped and a NaN kept; a zero
    ``c`` changes nothing.  Returns ``dst``.  A scaled copy is a sum into an
    empty ``dst``: ``0.0 + c*v`` is ``c*v`` bit for bit but for -0.0, pruned.
    """
    if c != 0.0:
        for key, v in src.items():
            val = dst.get(key, 0.0) + c * v
            if abs(val) <= PRUNE_TOL:
                dst.pop(key, None)
            else:
                dst[key] = val
    return dst


def render_expr(expr: dict) -> str:
    """Human-readable canonical rendering, e.g. ``e^-r*y0_1 + e^+r*x0_2``."""
    if not expr:
        return "0"
    chunks = []
    for (mode, kind, k), coeff in sorted(expr.items()):
        mag = f"{abs(coeff):.10g}"
        body = "" if mag == "1" else f"{mag}*"
        if k:
            body += f"e^{k:+d}r*" if abs(k) > 1 else f"e^{'+' if k > 0 else '-'}r*"
        body += f"{kind}0_{mode}"
        chunks.append(("- " if coeff < 0 else "+ ") + body)
    first = chunks[0].replace("+ ", "", 1).replace("- ", "-", 1)
    return " ".join([first] + chunks[1:])


# ---------------------------------------------------------------------------
# Measurement records
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MeasurementRecord:
    """Frozen observable captured by measuring one quadrature.

    ``observable`` is the exact expression that was measured; it stays valid
    forever because consumed modes receive no further gates.  A record is a
    plain value: it belongs to the register ``reg`` whose
    ``reg.records[index]`` it is, and holds no reference back to it.
    """

    index: int
    mode: int
    kind: str
    observable: dict


# ---------------------------------------------------------------------------
# Register
# ---------------------------------------------------------------------------


# Quarter turns owed (each X' = Y, Y' = -X) -> per kind, the stored kind and sign it reads.
_FRAME = ({X: (X, 1.0), Y: (Y, 1.0)}, {X: (Y, 1.0), Y: (X, -1.0)},
          {X: (X, -1.0), Y: (Y, -1.0)}, {X: (Y, -1.0), Y: (X, 1.0)})


class _Mode:
    __slots__ = ("row", "book", "record_index", "turns")

    def __init__(self, x_row: dict, y_row: dict):
        # Per quadrature kind: the row, a pruned dict (mode, kind, exponent) ->
        # coeff over the initial operators, and its feed-forward book, how much
        # of each measurement record has been folded into that row (record
        # index -> coeff).  Gates apply the same linear map to both.  A mode
        # is active until measured; then ``record_index`` names its record.
        # A quarter turn only counts in ``turns``, a frame settled on read.
        self.row, self.book = {X: x_row, Y: y_row}, {X: {}, Y: {}}
        self.record_index, self.turns = None, 0

    def settle(self) -> None:
        """Write the owed turns through; their exact +-1 and 0 factors keep bits and key order."""
        frame, self.turns = _FRAME[self.turns], 0
        for table in (self.row, self.book):
            table[X], table[Y] = [_accumulate({}, sign, table[src]) for src, sign in frame.values()]


def _mix_quads(a: _Mode, ka: str, b: _Mode, kb: str, m: tuple) -> None:
    """Quadrature ``ka`` of ``a`` becomes ``m00 a + m01 b`` and ``kb`` of ``b``
    becomes ``m10 a + m11 b``, rows and books alike."""
    (p, q), (u, v) = m
    for ta, tb in ((a.row, b.row), (a.book, b.book)):
        da, db = ta[ka], tb[kb]
        ta[ka] = _accumulate(_accumulate({}, p, da), q, db)
        tb[kb] = _accumulate(_accumulate({}, u, da), v, db)


class Register:
    """A single-threaded mutable bank of modes evolved in the Heisenberg picture.

    Gates mutate the stored expressions; ``history`` keeps the ordered gate
    tape so a numerically identical covariance-matrix state can be rebuilt
    for cross-checking (measurements and displacements are not part of the
    tape — they never change second moments of retained observables).
    """

    def __init__(self, n: int):
        if not isinstance(n, int) or n < 1:
            raise InvalidSizeError(f"register needs at least one mode, got {n!r}")
        self.n = n
        self._modes = [_Mode({(i, X, 0): 1.0}, {(i, Y, 0): 1.0}) for i in range(1, n + 1)]
        self.records: list[MeasurementRecord] = []
        self.history: list[gates.Gate] = []

    @classmethod
    def from_rows(cls, rows: list, history) -> "Register":
        """A register in a known state: mode m holds ``rows[m - 1] = (X row, Y row)``
        as given, empty books, no records and no owed turns, and a copy of
        ``history``, which the caller vouches is the tape that makes those rows."""
        out = cls.__new__(cls)
        out.n, out._modes = len(rows), [_Mode(x_row, y_row) for x_row, y_row in rows]
        out.records, out.history = [], list(history)
        return out

    # -- bookkeeping helpers ----------------------------------------------

    def _mode(self, m: int, settle: bool = True) -> _Mode:
        if not 1 <= m <= self.n:
            raise InvalidSizeError(f"mode {m} outside register 1..{self.n}")
        md = self._modes[m - 1]
        if md.record_index is not None:
            raise ConsumedModeError(f"mode {m} was consumed by record {md.record_index}")
        if md.turns and settle:
            md.settle()
        return md

    def active_modes(self) -> list[int]:
        return [i + 1 for i, md in enumerate(self._modes) if md.record_index is None]

    def quad_expr(self, mode: int, kind: str) -> dict:
        """Copy of the current expression for one quadrature of an active mode."""
        return dict(self._mode(mode).row[kind])

    def copy(self) -> "Register":
        out = Register.__new__(Register)
        out.n = self.n
        out._modes = []
        for md in self._modes:
            c = _Mode.__new__(_Mode)
            c.row = {X: md.row[X].copy(), Y: md.row[Y].copy()}
            c.book = {X: md.book[X].copy(), Y: md.book[Y].copy()}
            c.record_index, c.turns = md.record_index, md.turns
            out._modes.append(c)
        out.records = [replace(r) for r in self.records]  # new values: the copy's own
        out.history = list(self.history)
        return out

    # -- gates ------------------------------------------------------------

    def apply(self, gate: gates.Gate) -> "Register":
        """The one gate entry: rewrite rows and books, append ``gate`` to ``history``.

        ``Squeeze`` scales one mode by e^{+-r} (momentum: X*e^{+r}, Y*e^{-r});
        ``Kerr`` adds g X of each partner to the other's Y; ``Rotate`` and
        ``Beamsplit`` mix quadratures as :mod:`gates` describes.
        """
        if isinstance(gate, gates.Squeeze):
            md = self._mode(gate.mode)
            if md.book[X] or md.book[Y]:
                raise UnsupportedOperationError(
                    "squeezing a mode that already carries feed-forward content "
                    "would attach the symbolic r to classical records"
                )
            dx = +1 if gate.direction == MOMENTUM_SQUEEZED else -1
            for kind, dk in ((X, dx), (Y, -dx)):
                md.row[kind] = {(m, kd, k + dk): c for (m, kd, k), c in md.row[kind].items()}
        elif isinstance(gate, gates.Kerr):
            ml, mk = self._mode(gate.l), self._mode(gate.k)
            for dst, src in ((ml, mk), (mk, ml)):
                _accumulate(dst.row[Y], gate.g, src.row[X])
                if src.book[X]:
                    _accumulate(dst.book[Y], gate.g, src.book[X])
        elif isinstance(gate, gates.Rotate):
            c, s = gates.cos_sin(gate.theta)
            md = self._mode(gate.mode, settle=(c, s) not in QUARTER_TURNS)
            if (c, s) in QUARTER_TURNS:
                md.turns = (md.turns + QUARTER_TURNS.index((c, s))) % 4
            else:
                _mix_quads(md, X, md, Y, ((c, s), (-s, c)))
        elif isinstance(gate, gates.Beamsplit):
            ml, mk = self._mode(gate.l), self._mode(gate.k)
            s, c = math.sqrt(gate.t), math.sqrt(1.0 - gate.t)
            for kind in (X, Y):
                _mix_quads(ml, kind, mk, kind, ((s, c), (c, -s)))
        else:
            raise TypeError(f"not a gate: {gate!r}")
        self.history.append(gate)
        return self

    # -- measurement and feed-forward -------------------------------------

    def measure(self, mode: int, kind: str) -> MeasurementRecord:
        """Consume ``mode`` by measuring one quadrature; returns the record.

        The conjugate quadrature becomes inaccessible (the mode is gone);
        the measured observable survives as classical data.
        """
        md = self._mode(mode)
        rec = MeasurementRecord(len(self.records), mode, kind, dict(md.row[kind]))
        self.records.append(rec)
        md.record_index = rec.index
        return rec

    def displace_with(self, mode: int, kind: str, coeff: float, record: MeasurementRecord) -> "Register":
        """Feed forward: add ``coeff *`` (measured observable) to a quadrature."""
        if not (record.index < len(self.records) and self.records[record.index] is record):
            raise RecordOwnershipError("record belongs to a different register")
        md = self._mode(mode, settle=False)  # written through the frame
        kind, sign = _FRAME[md.turns][kind]
        coeff *= sign
        _accumulate(md.row[kind], coeff, record.observable)
        _accumulate(md.book[kind], coeff, {record.index: 1.0})
        return self

    # -- linear views ------------------------------------------------------

    def combine(self, parts: list[tuple[float, int, str]]) -> dict:
        """Weighted sum of current quadratures of active modes, as a new dict."""
        out = {}
        for coeff, mode, kind in parts:
            _accumulate(out, coeff, self._mode(mode).row[kind])
        return out

    def frame_combo(self, parts: list[tuple[float, int, str]]) -> list[tuple[float, int, str]]:
        """Resolve a combination to final-frame quadratures, records included.

        Returns (coeff, mode, kind) weights where consumed modes stand for
        their measured quadrature.  This is the bridge the covariance engine
        uses: displaced expressions become plain weight vectors.  A record
        of a mode that was itself displaced before it was measured carries
        those earlier records too.  A book names only records made before its
        mode was measured, so one walk down the indices from the newest owed
        resolves each record once, all due to it summed first, however reached.
        """
        acc: dict[tuple[int, str], float] = {}
        due: dict[int, float] = {}  # record index -> weight owed to it

        def fold(c, book):
            for i, w in book.items():
                due[i] = due.get(i, 0.0) + c * w

        for c, mode, kind in parts:
            fold(c, self._mode(mode).book[kind])  # only active modes may be combined
            acc[(mode, kind)] = acc.get((mode, kind), 0.0) + c
        i = max(due, default=0)
        while due:  # a book never names a later record, so none comes back
            if i in due:
                c, rec = due.pop(i), self.records[i]
                acc[(rec.mode, rec.kind)] = c
                fold(c, self._modes[rec.mode - 1].book[rec.kind])
            i -= 1
        return [(c, m, kd) for (m, kd), c in sorted(acc.items()) if abs(c) > PRUNE_TOL]

    def product_partition(self) -> list[tuple[int, ...]]:
        """Minimal blocks of active modes sharing initial-operator support.

        Expressions over disjoint initial modes are statistically independent
        in the vacuum, so distinct blocks factorize; a register is reported
        fully product when every block is a singleton.  (The grouping is
        syntactic: it may merge modes that happen to be product despite
        sharing support, never the reverse.)
        """
        active = self.active_modes()
        parent = {m: m for m in active}

        def find(a):
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        owner_of_support: dict[int, int] = {}
        for m in active:
            row = self._mode(m).row
            for s in {key[0] for kind in (X, Y) for key in row[kind]}:
                if s in owner_of_support:
                    ra, rb = find(owner_of_support[s]), find(m)
                    if ra != rb:
                        parent[rb] = ra
                else:
                    owner_of_support[s] = m
        blocks: dict[int, list[int]] = {}
        for m in active:
            blocks.setdefault(find(m), []).append(m)
        return sorted(tuple(sorted(b)) for b in blocks.values())


# ---------------------------------------------------------------------------
# Expression-level analysis
# ---------------------------------------------------------------------------


def is_nullifier(expr: dict) -> bool:
    """True when every term with |coeff| > NULLIFIER_TOL is finite at exponent <= -1.

    Such a combination has variance proportional to e^{-2r} (or faster) and
    vanishes in the large-squeezing limit.  The zero expression qualifies; a
    NaN or infinite term, as an overflowed row holds, fails.
    """
    return all(k < 0 and math.isfinite(c) for (_, _, k), c in expr.items() if not abs(c) <= NULLIFIER_TOL)


def coefficient_matrix(exprs) -> tuple[list, np.ndarray]:
    """``(coords, mat)``: the sorted ``(mode, kind, exponent)`` keys that any of
    ``exprs`` uses, and the keys x expressions matrix of their coefficients, so
    ``mat[coords.index(key), j]`` is ``exprs[j][key]``; every other entry is 0."""
    coords = sorted({key for expr in exprs for key in expr})
    pos = {key: i for i, key in enumerate(coords)}
    mat = np.zeros((len(coords), len(exprs)))
    for j, expr in enumerate(exprs):
        for key, c in expr.items():
            mat[pos[key], j] = c
    return coords, mat


def variance_formula(expr: dict, r: float) -> float:
    """Vacuum variance of an expression at numeric squeezing ``r``.

    Distinct initial quadratures are independent with variance 1/2, so the
    result is ``sum over (mode, kind) of (sum_k coeff * e^{k r})^2 * 0.5``.
    """
    groups: dict[tuple[int, str], float] = {}
    for (mode, kind, k), c in sorted(expr.items()):  # canonical order: same sums, same bits
        groups[mode, kind] = groups.get((mode, kind), 0.0) + c * gates.finite_exp(k * r)
    value = 0.5 * sum(a * a for a in groups.values())
    if not math.isfinite(value):
        raise DomainError(f"variance at r={r!r} is not a finite float")
    return value
