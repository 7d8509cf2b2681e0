"""Symbolic engine: rows, gates, records, commutators, closed-form variances."""

import math
import weakref

import numpy as np
import pytest

from commutators import reference_commutator, term_size
from cvcluster import claims, ledger
from cvcluster.errors import (
    ConsumedModeError,
    DomainError,
    InternalConsistencyError,
    InvalidSizeError,
    RecordOwnershipError,
    SelfInteractionError,
    UnsupportedOperationError,
)
from cvcluster.gates import (
    MOMENTUM_SQUEEZED,
    NULLIFIER_TOL,
    POSITION_SQUEEZED,
    Beamsplit,
    Kerr,
    Rotate,
    Squeeze,
    X,
    Y,
    symplectic_form,
)
from cvcluster.ledger import Register


# ---------------------------------------------------------------------------
# construction and squeezing
# ---------------------------------------------------------------------------


def test_vacuum_rows_are_identity():
    reg = Register(3)
    for m in (1, 2, 3):
        assert reg.quad_expr(m, X) == {(m, X, 0): 1.0}
        assert reg.quad_expr(m, Y) == {(m, Y, 0): 1.0}


def test_a_register_from_rows_takes_the_rows_and_copies_the_history():
    tape = [Squeeze(1), Squeeze(2)]
    rows = [({(1, X, 1): 1.0}, {(1, Y, -1): 1.0}), ({(2, X, 1): 1.0}, {(2, Y, -1): 1.0})]
    reg = Register.from_rows(rows, tape)
    assert reg.n == 2 and reg.records == [] and reg.history == tape
    assert reg.history is not tape
    assert reg._modes[0].row[Y] is rows[0][1]
    assert all(md.book == {X: {}, Y: {}} and md.turns == 0 and md.record_index is None
               for md in reg._modes)
    rec = reg.measure(1, X)
    assert reg.displace_with(2, Y, -1.0, rec).quad_expr(2, Y) == {(2, Y, -1): 1.0, (1, X, 1): -1.0}
    assert reg.frame_combo([(1.0, 2, Y)]) == [(-1.0, 1, X), (1.0, 2, Y)]


def test_register_size_validation():
    with pytest.raises(InvalidSizeError):
        Register(0)
    with pytest.raises(InvalidSizeError):
        Register(-2)


def test_momentum_squeeze_shifts_exponents():
    """Momentum squeezing stretches X by e^{+r} and shrinks Y by e^{-r}."""
    reg = Register(1)
    reg.apply(Squeeze(1, MOMENTUM_SQUEEZED))
    assert reg.quad_expr(1, X) == {(1, X, 1): 1.0}
    assert reg.quad_expr(1, Y) == {(1, Y, -1): 1.0}


def test_position_squeeze_is_the_mirror_image():
    reg = Register(1)
    reg.apply(Squeeze(1, POSITION_SQUEEZED))
    assert reg.quad_expr(1, X) == {(1, X, -1): 1.0}
    assert reg.quad_expr(1, Y) == {(1, Y, 1): 1.0}


def test_squeeze_rejects_unknown_flavor():
    reg = Register(1)
    with pytest.raises(DomainError):
        reg.apply(Squeeze(1, "sideways"))


# ---------------------------------------------------------------------------
# rotations
# ---------------------------------------------------------------------------


def test_quarter_turn_is_exact():
    reg = Register(1)
    reg.apply(Rotate(1, -math.pi / 2.0))
    assert reg.quad_expr(1, X) == {(1, Y, 0): -1.0}
    assert reg.quad_expr(1, Y) == {(1, X, 0): 1.0}


def test_half_turn_flips_both_signs():
    reg = Register(1)
    reg.apply(Rotate(1, math.pi))
    assert reg.quad_expr(1, X) == {(1, X, 0): -1.0}
    assert reg.quad_expr(1, Y) == {(1, Y, 0): -1.0}


def test_generic_rotation_mixes_with_cos_sin():
    theta = 0.37
    reg = Register(1)
    reg.apply(Rotate(1, theta))
    d = reg.quad_expr(1, X)
    assert d[(1, X, 0)] == pytest.approx(math.cos(theta), abs=1e-15)
    assert d[(1, Y, 0)] == pytest.approx(math.sin(theta), abs=1e-15)
    d = reg.quad_expr(1, Y)
    assert d[(1, X, 0)] == pytest.approx(-math.sin(theta), abs=1e-15)
    assert d[(1, Y, 0)] == pytest.approx(math.cos(theta), abs=1e-15)


def test_a_turn_1e_7_rad_past_a_quarter_turn_keeps_its_small_part():
    """cos(pi/2 + d) = -sin(d): at d = 1e-7 rad the rotated X keeps about -1e-7
    of the old X, far above PRUNE_TOL; only offsets at float resolution snap."""
    reg = Register(1)
    reg.apply(Rotate(1, math.pi / 2 + 1e-7))
    assert reg.quad_expr(1, X)[(1, X, 0)] == pytest.approx(-math.sin(1e-7), rel=1e-8)


def test_four_quarter_turns_restore_the_frame():
    reg = Register(1)
    for _ in range(4):
        reg.apply(Rotate(1, math.pi / 2.0))
    assert reg.quad_expr(1, X) == {(1, X, 0): 1.0}
    assert reg.quad_expr(1, Y) == {(1, Y, 0): 1.0}


# ---------------------------------------------------------------------------
# beamsplitter and coupling
# ---------------------------------------------------------------------------


def test_balanced_beamsplitter_coefficients():
    reg = Register(2)
    reg.apply(Beamsplit(1, 2, 0.5))
    s = math.sqrt(0.5)
    assert reg.quad_expr(1, X) == {(1, X, 0): pytest.approx(s), (2, X, 0): pytest.approx(s)}
    assert reg.quad_expr(2, X) == {(1, X, 0): pytest.approx(s), (2, X, 0): pytest.approx(-s)}


def test_beamsplit_transmittance_domain():
    reg = Register(2)
    with pytest.raises(DomainError):
        reg.apply(Beamsplit(1, 2, -0.1))
    with pytest.raises(DomainError):
        reg.apply(Beamsplit(1, 2, 1.5))


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_angle_or_coupling_is_a_domain_error(value):
    """Neither a bare ValueError nor a NaN stored in the rows."""
    reg = Register(2)
    with pytest.raises(DomainError):
        reg.apply(Rotate(1, value))
    with pytest.raises(DomainError):
        reg.apply(Kerr(1, 2, value))
    assert reg.history == []
    assert reg.quad_expr(1, Y) == {(1, Y, 0): 1.0}


def test_gates_reject_self_interaction():
    reg = Register(2)
    with pytest.raises(SelfInteractionError):
        reg.apply(Beamsplit(1, 1, 0.5))
    with pytest.raises(SelfInteractionError):
        reg.apply(Kerr(2, 2, 1.0))


def test_kerr_couple_adds_cross_positions():
    """The coupling adds each partner's position into the other's momentum."""
    reg = Register(2)
    reg.apply(Kerr(1, 2, 1.0))
    assert reg.quad_expr(1, Y) == {(1, Y, 0): 1.0, (2, X, 0): 1.0}
    assert reg.quad_expr(2, Y) == {(2, Y, 0): 1.0, (1, X, 0): 1.0}
    assert reg.quad_expr(1, X) == {(1, X, 0): 1.0}


def test_kerr_gain_scales_the_coupling():
    reg = Register(2)
    reg.apply(Kerr(1, 2, 0.25))
    assert reg.quad_expr(1, Y)[(2, X, 0)] == 0.25


def test_mode_bounds_checked():
    reg = Register(2)
    with pytest.raises(InvalidSizeError):
        reg.apply(Rotate(3, 0.1))
    with pytest.raises(InvalidSizeError):
        reg.apply(Squeeze(0, MOMENTUM_SQUEEZED))


# ---------------------------------------------------------------------------
# measurement, records, feed-forward
# ---------------------------------------------------------------------------


def test_measure_consumes_the_mode():
    reg = Register(2)
    rec = reg.measure(1, X)
    assert rec.mode == 1 and rec.kind == X and rec.index == 0
    assert reg.active_modes() == [2]
    with pytest.raises(ConsumedModeError):
        reg.quad_expr(1, X)
    with pytest.raises(ConsumedModeError):
        reg.measure(1, Y)
    with pytest.raises(ConsumedModeError):
        reg.apply(Rotate(1, 0.3))


def test_displace_with_applies_record_combination():
    reg = Register(3)
    reg.apply(Squeeze(2, MOMENTUM_SQUEEZED))
    rec = reg.measure(2, Y)
    reg.displace_with(1, X, -1.0, rec)
    d = reg.quad_expr(1, X)
    assert d[(1, X, 0)] == 1.0
    assert d[(2, Y, -1)] == -1.0


def test_displace_rejects_foreign_records():
    reg_a = Register(3)
    reg_b = Register(2)
    rec = reg_a.measure(1, X)
    with pytest.raises(RecordOwnershipError):
        reg_b.displace_with(2, X, 1.0, rec)
    # A record outlives its register without keeping it alive.
    dropped = Register(2)
    orphan = dropped.measure(1, X)
    dropped_ref = weakref.ref(dropped)
    del dropped
    assert dropped_ref() is None
    with pytest.raises(RecordOwnershipError):
        reg_b.displace_with(2, X, 1.0, orphan)
    # A copy owns its own records; the original's are foreign to it, and the
    # copy's are foreign to the original.
    reg_a.measure(2, Y)
    copy = reg_a.copy()
    for r in copy.records:
        copy.displace_with(3, X, 1.0, r)
        with pytest.raises(RecordOwnershipError):
            reg_a.displace_with(3, X, 1.0, r)
    for r in reg_a.records:
        reg_a.displace_with(3, X, 1.0, r)
        with pytest.raises(RecordOwnershipError):
            copy.displace_with(3, X, 1.0, r)


def test_a_copy_shares_no_table_with_its_source():
    """Feed-forward and gates on a copy, in place on every row and book,
    leave the source's tables as they were."""
    reg = Register(3)
    for gate in (Squeeze(1), Squeeze(2), Squeeze(3), Kerr(1, 2), Kerr(2, 3)):
        reg.apply(gate)
    reg.displace_with(2, X, 0.5, reg.measure(1, X))
    before = [(dict(md.row[kd]), dict(md.book[kd])) for md in reg._modes for kd in (X, Y)]
    twin = reg.copy()
    for m in (2, 3):
        for kind in (X, Y):
            twin.displace_with(m, kind, 2.0, twin.records[0])
    twin.apply(Kerr(2, 3, 0.7))
    after = [(dict(md.row[kd]), dict(md.book[kd])) for md in reg._modes for kd in (X, Y)]
    assert after == before
    assert twin.quad_expr(3, Y) != reg.quad_expr(3, Y)


def test_displace_onto_consumed_mode_rejected():
    reg = Register(2)
    rec = reg.measure(1, X)
    with pytest.raises(ConsumedModeError):
        reg.displace_with(1, Y, 1.0, rec)


def test_squeeze_after_feedforward_unsupported():
    """Squeezing no longer factors once a row carries record content."""
    reg = Register(2)
    rec = reg.measure(2, Y)
    reg.displace_with(1, X, 0.5, rec)
    with pytest.raises(UnsupportedOperationError):
        reg.apply(Squeeze(1, MOMENTUM_SQUEEZED))


def test_squeeze_after_a_cancelled_feedforward_is_allowed():
    """A feed-forward that cancels exactly leaves no record content behind."""
    reg = Register(2)
    rec = reg.measure(1, X)
    reg.displace_with(2, Y, 1.0, rec)
    reg.displace_with(2, Y, -1.0, rec)
    reg.apply(Squeeze(2, MOMENTUM_SQUEEZED))
    assert reg.quad_expr(2, Y) == {(2, Y, -1): 1.0}
    assert reg.frame_combo([(1.0, 2, Y)]) == [(1.0, 2, Y)]


def test_frame_combo_sums_a_record_reached_twice():
    """Record a = Y_1 feeds Y_2 and Y_3, then b = Y_2 (which holds a) feeds Y_3,
    so Y_3 = y0_3 + a + b = y0_3 + y0_2 + 2 y0_1: a is owed 2, once directly and
    once through b, and the vacuum variance is (1 + 1 + 4) / 2 = 3."""
    reg = Register(3)
    a = reg.measure(1, Y)
    reg.displace_with(2, Y, 1.0, a).displace_with(3, Y, 1.0, a)
    b = reg.measure(2, Y)
    reg.displace_with(3, Y, 1.0, b)
    assert reg.frame_combo([(1.0, 3, Y)]) == [(2.0, 1, Y), (1.0, 2, Y), (1.0, 3, Y)]
    assert ledger.variance_formula(reg.quad_expr(3, Y), 1.0) == 3.0


def test_records_enumerate_in_order():
    reg = Register(3)
    r0 = reg.measure(2, X)
    r1 = reg.measure(3, Y)
    assert [r.index for r in reg.records] == [0, 1]
    assert reg.records[0] is r0 and reg.records[1] is r1


def test_expressions_handed_out_are_copies():
    """Mutating what quad_expr, combine or a record hands out leaves the register as
    it was, and later gates and displacements leave an earlier observable as it was."""
    reg = Register(3)
    for m in (1, 2, 3):
        reg.apply(Squeeze(m, MOMENTUM_SQUEEZED))
    reg.apply(Kerr(1, 2, 1.0)).apply(Kerr(2, 3, 1.0))

    def rows():  # a snapshot that shares nothing with what it reads
        return {(m, kd): dict(reg.quad_expr(m, kd)) for m in reg.active_modes() for kd in (X, Y)}

    before = rows()
    for got in (reg.quad_expr(2, Y), reg.combine([(1.0, 2, Y)]),
                reg.combine([(1.0, 2, Y), (-1.0, 1, X)])):
        got[(9, X, 5)] = 1.0
        got.pop((2, Y, -1))
        assert rows() == before
    rec = reg.measure(2, X)
    observable = dict(rec.observable)
    assert observable == before[(2, X)]
    before = rows()
    rec.observable[(9, Y, 3)] = 2.0
    assert rows() == before
    del rec.observable[(9, Y, 3)]
    reg.displace_with(1, Y, -1.0, rec)
    reg.apply(Kerr(1, 3, 0.5)).apply(Rotate(3, 0.3)).apply(Squeeze(3, POSITION_SQUEEZED))
    reg.displace_with(3, X, 2.0, reg.measure(1, Y))
    assert rec.observable == observable and list(rec.observable) == list(observable)


# ---------------------------------------------------------------------------
# expression algebra
# ---------------------------------------------------------------------------


def test_accumulate_adds_subtracts_and_cancels():
    e1 = {(1, X, 0): 1.0, (2, Y, -1): 2.0}
    e2 = {(1, X, 0): 1.0}
    assert ledger._accumulate(e1, -1.0, e2) is e1
    assert e1 == {(2, Y, -1): 2.0}
    doubled = ledger._accumulate(dict(e2), 1.0, e2)
    assert doubled == {(1, X, 0): 2.0}
    assert ledger._accumulate(doubled, 0.0, {(3, Y, 0): 1.0}) == {(1, X, 0): 2.0}


def test_tiny_coefficients_are_pruned():
    e1 = {(1, X, 0): 1.0}
    ledger._accumulate(e1, -1.0, {(1, X, 0): 1.0 + 1e-15})
    assert e1 == {}
    # The same cancellation through Register.combine: X_1 - (1 + 1e-15) X_1.
    assert Register(1).combine([(1.0, 1, X), (-(1.0 + 1e-15), 1, X)]) == {}


def test_combine_weighs_rows():
    reg = Register(2)
    reg.apply(Squeeze(1, MOMENTUM_SQUEEZED))
    expr = reg.combine([(2.0, 1, X), (-1.0, 2, Y)])
    assert expr == {(1, X, 1): 2.0, (2, Y, 0): -1.0}


def test_is_nullifier_requires_pure_decay():
    assert ledger.is_nullifier({(1, Y, -1): 1.0, (2, Y, -2): 0.5})
    assert ledger.is_nullifier({})
    assert not ledger.is_nullifier({(1, Y, -1): 1.0, (2, X, 0): 1e-6})
    # below-tolerance residue is ignored
    assert ledger.is_nullifier({(1, Y, -1): 1.0, (2, X, 1): 1e-12})


def test_a_non_finite_term_is_no_nullifier():
    """A NaN compares False with any tolerance and an inf is not a decaying
    coefficient: an overflowed row fails, wherever the term sits."""
    nan, inf = float("nan"), float("inf")
    assert not ledger.is_nullifier({(1, Y, -1): 1.0, (2, X, 0): nan})
    assert not ledger.is_nullifier({(1, Y, -1): nan})
    assert not ledger.is_nullifier({(1, Y, -1): inf})
    assert not ledger.is_nullifier({(1, Y, -1): -inf})


def test_is_nullifier_keeps_the_verdicts_of_the_term_rule():
    """The dict-reading rule agrees with the rule read term by term in sorted order,
    coefficients exactly at ``NULLIFIER_TOL`` (ignored) and just above it (counted)
    included."""

    def term_rule(expr):
        return all(k <= -1 for (_, _, k), c in sorted(expr.items()) if abs(c) > NULLIFIER_TOL)

    rng = np.random.default_rng(12)
    sizes = (NULLIFIER_TOL, -NULLIFIER_TOL, np.nextafter(NULLIFIER_TOL, 1.0),
             -np.nextafter(NULLIFIER_TOL, 1.0), 1e-12, 0.3, -2.0)
    verdicts = set()
    for _ in range(500):
        terms = {}
        for _ in range(int(rng.integers(0, 6))):
            key = (int(rng.integers(1, 4)), (X, Y)[int(rng.integers(2))], int(rng.integers(-3, 3)))
            terms[key] = float(sizes[int(rng.integers(len(sizes)))])
        expr = terms
        verdicts.add(ledger.is_nullifier(expr))
        assert ledger.is_nullifier(expr) == term_rule(expr), terms
    assert verdicts == {True, False}
    assert ledger.is_nullifier({(1, Y, -1): 1.0, (2, X, 0): NULLIFIER_TOL})
    assert not ledger.is_nullifier({(2, X, 0): np.nextafter(NULLIFIER_TOL, 1.0)})


def test_the_zero_expression_renders_as_zero():
    assert ledger.render_expr({}) == "0"


# ---------------------------------------------------------------------------
# commutators: the identity sum_{k+l=s} M_k Omega M_l^T = Omega [s = 0]
# ---------------------------------------------------------------------------


def planted(rows):
    """A register whose rows ``(mode, kind) -> expression`` are set by hand."""
    reg = Register(max(m for m, _ in rows))
    for (m, kind), expr in rows.items():
        reg._modes[m - 1].row[kind] = dict(expr)
    return reg


def test_canonical_commutators():
    c0 = claims._commutator_matrix(Register(2))
    assert np.array_equal(c0, symplectic_form(2))
    assert (c0[0, 1], c0[1, 0], c0[0, 3]) == (1.0, -1.0, 0.0)  # [X_1, Y_1], [Y_1, X_1], [X_1, Y_2]


def test_commutators_survive_random_gate_soup():
    """Any gate sequence must keep the canonical algebra intact, over every
    ordered pair of rows."""
    rng = np.random.default_rng(4)
    for _ in range(20):
        reg = Register(4)
        for _ in range(15):
            op = rng.integers(4)
            m = int(rng.integers(1, 5))
            k = int(rng.integers(1, 5))
            if op == 0:
                reg.apply(Squeeze(m, MOMENTUM_SQUEEZED if rng.random() < 0.5 else POSITION_SQUEEZED))
            elif op == 1:
                reg.apply(Rotate(m, float(rng.uniform(-3, 3))))
            elif op == 2 and m != k:
                reg.apply(Beamsplit(m, k, float(rng.uniform(0.05, 0.95))))
            elif op == 3 and m != k:
                reg.apply(Kerr(m, k, float(rng.uniform(0.2, 2.0))))
        assert np.abs(claims._commutator_matrix(reg) - symplectic_form(4)).max() <= 1e-9


def test_commutator_flags_unbalanced_exponents():
    reg = planted({(1, X): {(1, X, 1): 1.0}, (1, Y): {(1, Y, 0): 1.0}})
    with pytest.raises(InternalConsistencyError):
        claims._commutator_matrix(reg)


def test_commutator_flags_a_small_unbalanced_term():
    """X_1 = x0_1 + 1e-3 e^{r} x0_1 gives [X_1, Y_1] = 1 + 1e-3 e^{r}:
    r-dependent, so no pair of physical quadratures has it, however small its
    coefficient."""
    reg = planted({(1, X): {(1, X, 0): 1.0, (1, X, 1): 1e-3}, (1, Y): {(1, Y, 0): 1.0}})
    with pytest.raises(InternalConsistencyError, match=r"e\^\+1r content 0\.001"):
        claims._commutator_matrix(reg)


def test_commutator_matrix_is_the_pairwise_loop_on_random_tapes():
    """Entry (i, j) is [row i, row j] summed term pair by term pair.  The two
    sum the same products in different orders, so they may differ in the last
    bits: by at most a few ulps of the summed terms' size (1.7 measured)."""
    eps = np.finfo(float).eps
    rng = np.random.default_rng(41)
    for _ in range(30):
        n = int(rng.integers(2, 6))
        reg = Register(n)
        for _ in range(20):
            m, k = (int(v) for v in rng.choice(np.arange(1, n + 1), size=2, replace=False))
            op = int(rng.integers(4))
            if op == 0:
                reg.apply(Squeeze(m, (MOMENTUM_SQUEEZED, POSITION_SQUEEZED)[int(rng.integers(2))]))
            elif op == 1:
                reg.apply(Rotate(m, float(rng.uniform(-3, 3))))
            elif op == 2:
                reg.apply(Beamsplit(m, k, float(rng.uniform(0.05, 0.95))))
            else:
                reg.apply(Kerr(m, k, float(rng.uniform(0.2, 2.0))))
        rows = [reg.quad_expr(m, kd) for m in range(1, n + 1) for kd in (X, Y)]
        c0 = claims._commutator_matrix(reg)
        for i, e1 in enumerate(rows):
            for j, e2 in enumerate(rows):
                assert abs(c0[i, j] - reference_commutator(e1, e2).get(0, 0.0)) <= 4 * eps * term_size(e1, e2)


def test_commutator_flags_unbalanced_exponents_among_balanced_rows():
    """The first exponent sum that does not cancel is named with its signed
    content; balanced content cancels: e^{+r} x0_1 against e^{-r} y0_1 is a
    pure number."""
    rows = {(1, X): {(1, X, 1): 1.0, (2, Y, 0): 1.0}, (1, Y): {(1, Y, 0): 1.0, (2, X, 0): 1.0}}
    with pytest.raises(InternalConsistencyError, match=r"e\^\+1r content 1"):
        claims._commutator_matrix(planted(rows))
    rows[1, X] = {(2, Y, -2): 3.0}
    rows[1, Y] = {(1, Y, 0): 1.0, (2, X, 0): 1.0}
    with pytest.raises(InternalConsistencyError, match=r"e\^-2r content -3"):
        claims._commutator_matrix(planted(rows))
    balanced = planted({(1, X): {(1, X, 1): 1.0}, (1, Y): {(1, Y, -1): 2.0}})
    assert claims._commutator_matrix(balanced)[0, 1] == 2.0


# ---------------------------------------------------------------------------
# variance closed form
# ---------------------------------------------------------------------------


def test_variance_of_squeezed_quadrature():
    expr = {(1, Y, -1): 1.0}
    for r in (0.0, 0.5, 1.0, 2.0):
        assert ledger.variance_formula(expr, r) == pytest.approx(0.5 * math.exp(-2 * r))


def test_variance_sums_independent_modes():
    expr = {(1, Y, -1): 1.0, (2, Y, -1): -1.0}
    assert ledger.variance_formula(expr, 1.0) == pytest.approx(math.exp(-2.0))


def test_variance_groups_same_quadrature_before_squaring():
    """Two exponent branches of one initial quadrature add amplitudes, not variances."""
    expr = {(1, X, 1): 1.0, (1, X, -1): -1.0}
    r = 0.7
    amp = math.exp(r) - math.exp(-r)
    assert ledger.variance_formula(expr, r) == pytest.approx(0.5 * amp * amp)


def test_vacuum_variance_is_half():
    expr = {(1, X, 0): 1.0}
    assert ledger.variance_formula(expr, 1.3) == 0.5


def test_variance_past_float_range_is_a_domain_error():
    """e^{800} overflows a float and e^{400} squared does; neither may return inf."""
    expr = {(1, X, 1): 1.0}
    for r in (400.0, 800.0):
        with pytest.raises(DomainError):
            ledger.variance_formula(expr, r)
