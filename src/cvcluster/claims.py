"""Compiled-in claims suite: every headline behaviour, checked from code.

Each claim rebuilds its states from the engines (nothing is read from disk,
so the suite cannot drift from the library), checks one factual statement
at an explicit tolerance, and reports a measured value.  Registers and the
exact quadrature combinations each claim verified are collected into a
shared battery.  Two closing claims read it: (a) ``cross-engine`` replays
once on the covariance engine the tape of every entry added before it (all
but ``GHZ optics (3)``, which ``finite-squeezing`` adds after it), comparing
each combination's variance against the ledger's closed form at five
squeezing values, and (b) ``hygiene`` checks every battery register's
canonical commutators as one matrix identity in powers of ``e^r``, and the
uncertainty bound of every entry's replay at a sixth value, ``HYGIENE_R``.

Run via ``cvcluster claims`` or :func:`run_claims`.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import covariance, errors, graphs, ledger, protocols
from .gates import (BRIDGE_TOL, COEFF_TOL, COMMUTATOR_TOL, ENTANGLEMENT_MARGIN, PPT_THRESHOLD_TOL,
                    X, Y, Rotate, symplectic_form)

BRIDGE_RS = (0.0, 0.25, 0.5, 1.0, 2.0)
HYGIENE_R = 0.7


@dataclass
class ClaimResult:
    statement: str
    passed: bool
    value: str
    tolerance: str
    details: list[str] = field(default_factory=list)
    claim_id: str = ""  # the claim function's name, set by run_claims
    elapsed: float = 0.0  # the claim's own wall time, set by run_claims

    @property
    def status(self) -> str:
        return "PASS" if self.passed else "FAIL"


@dataclass
class BatteryEntry:
    label: str
    reg: ledger.Register
    # (final-frame combo, symbolic expression dict) pairs actually verified
    pairs: list[tuple[list, dict]]
    physical: bool | None = None  # does its replay at HYGIENE_R obey V + i Omega/2 >= 0?


class Battery:
    def __init__(self):
        self.entries: list[BatteryEntry] = []

    def add(self, label: str, reg: ledger.Register, parts_list):
        pairs = [(reg.frame_combo(p), reg.combine(p)) for p in parts_list]
        self.entries.append(BatteryEntry(label, reg, pairs))


# ---------------------------------------------------------------------------
# Individual claims
# ---------------------------------------------------------------------------


def _claim_chain_rows(battery: Battery) -> ClaimResult:
    started = time.perf_counter()
    worst = 0.0
    for n in (2, 5, 25, 100):
        g = graphs.chain(n)
        reg = protocols.build(n, protocols.graph_tape(g))  # the gates, not the closed form
        worst = float(np.maximum(worst, protocols.graph_row_deviation(reg, g)))  # NaN kept
        if n <= 25:
            battery.add(f"chain({n}) rows", reg,
                        [[(1.0, m, k)] for m in range(1, n + 1) for k in (X, Y)])
    elapsed = time.perf_counter() - started
    return ClaimResult(
        "chain register rows match the closed form for N up to 100",
        worst <= COEFF_TOL and elapsed < 1.0,
        f"max coefficient deviation {worst:.3g} in {elapsed:.3f}s",
        f"{COEFF_TOL:g} on coefficients, 1s wall",
    )


ROTATED_SETS = {
    2: ((2,), [[(1, 1, X), (1, 2, X)], [(1, 1, Y), (-1, 2, Y)]]),
    3: ((2,), [[(1, 1, X), (1, 2, X), (1, 3, X)],
               [(1, 1, Y), (-1, 2, Y)], [(1, 2, Y), (-1, 3, Y)], [(1, 1, Y), (-1, 3, Y)]]),
    4: ((2, 4), [[(1, 1, X), (1, 2, X), (1, 3, X)], [(1, 3, X), (1, 4, X)],
                 [(1, 1, Y), (-1, 2, Y)], [(1, 2, Y), (-1, 3, Y), (1, 4, Y)]]),
}


def _claim_rotated_sets(battery: Battery) -> ClaimResult:
    checked, failed = 0, []
    for n, (turned, combos) in ROTATED_SETS.items():
        reg = protocols.build_graph_state(graphs.chain(n))
        for m in turned:
            reg.apply(Rotate(m, -math.pi / 2))
        for parts in combos:
            checked += 1
            if not ledger.is_nullifier(reg.combine(parts)):
                failed.append(f"N={n}: {parts}")
        battery.add(f"rotated chain({n})", reg, combos)
    return ClaimResult(
        "quarter-turned correlation sets vanish for chains of 2, 3 and 4",
        not failed,
        f"{checked} combinations, {len(failed)} failing",
        "exact (coefficients pruned at 1e-12)",
        details=failed,
    )


def _claim_graph_law(battery: Battery) -> ClaimResult:
    rng = np.random.default_rng(20260823)
    checked, failed = 0, 0
    for i in range(200):
        n = int(rng.integers(2, 51))
        g = graphs.random_graph(n, float(rng.uniform(0.05, 0.5)), rng)
        reg = protocols.build(n, protocols.graph_tape(g))  # the gates, not the closed form
        combos = []
        for v in g.vertices:
            parts = [(1.0, v, Y)] + [(-1.0, b, X) for b in g.neighborhood(v)]
            combos.append(parts)
            checked += 1
            if not ledger.is_nullifier(reg.combine(parts)):
                failed += 1
        if i % 10 == 0:  # sampled into the battery to honour the time budget
            battery.add(f"random graph #{i} (|V|={n})", reg, combos)
    return ClaimResult(
        "vertex momentum minus neighbour positions vanishes on 200 random graphs",
        failed == 0,
        f"{checked} vertex laws on 200 graphs, {failed} failing",
        "exact",
    )


def _claim_persistency(battery: Battery) -> ClaimResult:
    details, ok = [], True
    for n in range(2, 41):
        rep = protocols.disentangle_even(graphs.chain(n))
        good = rep.success and len(rep.measurements) == n // 2
        ok &= good
        if n in (6, 40):
            battery.add(f"disentangled chain({n})", rep.register, rep.targets)
        if not good:
            details.append(f"N={n}: {rep.details}")
    minima = {n: protocols.minimal_disentangling_measurements(n) for n in range(2, 7)}
    for n, got in minima.items():
        if got != n // 2:
            ok = False
            details.append(f"oracle minimum for N={n}: {got} != {n // 2}")
    return ClaimResult(
        "floor(N/2) position measurements fully separate chains (N<=40) and "
        "the brute-force oracle finds no smaller pattern (N<=6)",
        ok,
        f"chains 2..40 separated; oracle minima {sorted(minima.values())}",
        "exact partition / exhaustive oracle",
        details=details,
    )


def _claim_pair_extraction(battery: Battery) -> ClaimResult:
    runs, failed, details = 0, 0, []
    for n in range(2, 21):
        g = graphs.chain(n)
        for j in range(1, n + 1):
            for k in range(j + 1, n + 1):
                rep = protocols.extract_pair(g, j, k)
                runs += 1
                if not rep.success:
                    failed += 1
                    details.append(f"N={n} pair ({j},{k}): {rep.details}")
                elif n == 8 or (n == 20 and (j, k) in ((1, 2), (1, 20), (19, 20), (7, 14))):
                    battery.add(f"pair ({j},{k}) of chain({n})", rep.register, rep.targets)
    custom_cases = [
        (7, 4, 5, dict(left=(2, 1), right=(7,))),
        (9, 6, 7, dict(left=(4, 2, 1), right=(9,))),
    ]
    for n, j, k, outer in custom_cases:
        rep = protocols.extract_pair(graphs.chain(n), j, k, **outer)
        runs += 1
        if not rep.success:
            failed += 1
            details.append(f"custom outer N={n} ({j},{k}) failed")
        else:
            battery.add(f"custom outer ({j},{k}) of chain({n})", rep.register, rep.targets)
    return ClaimResult(
        "every chain pair concentrates to an EPR pair (N<=20, all pairs, "
        "next-neighbour outers; two custom outer patterns included)",
        failed == 0,
        f"{runs} extractions, {failed} failing",
        "nullifier exactness at 1e-9",
        details=details,
    )


def _claim_path_reduction(battery: Battery) -> ClaimResult:
    rng = np.random.default_rng(777)
    runs, failed, details = 0, 0, []
    for i in range(50):
        n = int(rng.integers(4, 21))
        g = graphs.random_connected_graph(n, float(rng.uniform(0.1, 0.4)), rng)
        a, b = (int(v) for v in rng.choice(g.vertices, size=2, replace=False))
        rep = protocols.reduce_graph_to_path(g, a, b)
        runs += 1
        if not rep.success:
            failed += 1
            details.append(f"graph #{i} (|V|={n}) {a}->{b}: {rep.details}")
        else:
            battery.add(f"path {a}->{b} in graph #{i}", rep.register, rep.targets)
    return ClaimResult(
        "50 random connected graphs reduce to exact chain form along a "
        "shortest path between random endpoints",
        failed == 0,
        f"{runs} reductions, {failed} failing",
        "nullifier exactness at 1e-9",
        details=details,
    )


def _claim_ghz_star(battery: Battery) -> ClaimResult:
    failed, details = 0, []
    for m in range(2, 13):
        rep = protocols.star_to_ghz(graphs.star(m))
        if not (rep.success and len(rep.targets) == m):
            failed += 1
            details.append(f"m={m}: {rep.details}")
        if m in (2, 5, 12):
            battery.add(f"GHZ from star({m})", rep.register, rep.targets)
    return ClaimResult(
        "hub momentum measurement projects star(m) onto a GHZ-type state "
        "for m = 2..12",
        failed == 0,
        f"11 stars, {failed} failing",
        "nullifier exactness at 1e-9",
        details=details,
    )


def _claim_parity(battery: Battery) -> ClaimResult:
    ok, details = True, []
    for m in range(3, 13):
        rep = protocols.ring_star_to_ghz(graphs.ring_star(2 * m))
        want = m % 2 == 1
        line = f"family {m} (ring {2 * m}): "
        if rep.success:
            line += "success"
            battery.add(f"ring-star family {m}", rep.register, rep.targets)
        else:
            deficiency = rep.infeasible.deficiency
            line += f"infeasible, rank deficiency {deficiency}"
            if deficiency != 1:
                ok = False
        if rep.success != want:
            ok = False
            line += "  (UNEXPECTED)"
        details.append(line)
    return ClaimResult(
        "alternating-ring GHZ extraction succeeds exactly when the measured "
        "ring count is odd; even counts are rank-deficient by one",
        ok,
        "families 3..12 follow the parity rule",
        "rank computed at 1e-9",
        details=details,
    )


def _claim_bs_chain(battery: Battery) -> ClaimResult:
    ok, details = True, []
    s2 = math.sqrt(2.0)
    reg = protocols.build(4, protocols.bs_chain_tape(4))
    reg.apply(Rotate(2, -math.pi / 2))
    reg.apply(Rotate(4, -math.pi / 2))
    weighted = [
        [(s2, 1, X), (1, 2, X), (s2, 3, X)],
        [(1, 3, X), (1, 4, X)],
        [(1, 1, Y), (-s2, 2, Y)],
        [(s2, 2, Y), (-1, 3, Y), (1, 4, Y)],
    ]
    coords, mat = ledger.coefficient_matrix([reg.combine(parts) for parts in weighted])
    worst = float(np.max(np.abs(mat[[k >= 0 for *_, k in coords]]), initial=0.0))  # NaN kept
    ok &= worst <= COEFF_TOL
    details.append(f"N=4 rotated correlations: max surviving weight {worst:.3g}")
    battery.add("rotated beamsplitter chain (4)", reg, weighted)
    for n in range(2, 11):
        reg = protocols.build(n, protocols.bs_chain_tape(n))
        basis = protocols.nullifier_basis(reg)
        good = len(basis) == n and all(ledger.is_nullifier(reg.combine(c)) for c in basis)
        ok &= good
        details.append(f"N={n}: weighted nullifier basis of size {len(basis)}")
        if n in (2, 7, 10):
            battery.add(f"beamsplitter chain ({n})", reg, [list(c) for c in basis])
    return ClaimResult(
        "the beamsplitter cascade reproduces the sqrt(2)-weighted "
        "correlations at N=4 and a full weighted nullifier basis for N<=10",
        ok,
        f"residual {worst:.3g}; bases N=2..10 complete",
        f"{COEFF_TOL:g} on weights",
        details=details,
    )


def _claim_cross_engine(battery: Battery) -> ClaimResult:
    checks, worst, agree = 0, 0.0, True
    for entry in battery.entries:
        n = entry.reg.n
        weights = [covariance.combo_weights(combo) for combo, _ in entry.pairs]
        *states, hygienic = covariance.replay(n, entry.reg.history, BRIDGE_RS + (HYGIENE_R,))
        entry.physical = covariance.is_physical(hygienic)
        for r, state in zip(BRIDGE_RS, states):
            for (_, expr), cw in zip(entry.pairs, weights):
                numeric = covariance.variance_of(state, cw)
                symbolic = ledger.variance_formula(expr, r)
                worst = float(np.maximum(worst, abs(numeric - symbolic)))  # NaN kept
                agree &= covariance.bridge_agrees(state, cw, numeric, symbolic)
                checks += 1
    return ClaimResult(
        "covariance-matrix variances equal the ledger closed form for every "
        "battery combination at r in {0, 0.25, 0.5, 1, 2}",
        agree and checks > 0,
        f"{checks} comparisons, max gap {worst:.3g}",
        f"{BRIDGE_TOL:g}",
    )


def _claim_finite_squeezing(battery: Battery) -> ClaimResult:
    ok, details = True, []
    tape, rs = protocols.ghz_optics_tape(3), (0.3, 0.0)
    for r, expect_entangled, state in zip(rs, (True, False), covariance.replay(3, tape, rs)):
        for pair in ((1, 2), (1, 3), (2, 3)):
            nu = covariance.ppt_min_symplectic_eig(state, pair)
            if expect_entangled:
                good = nu < 0.5 - ENTANGLEMENT_MARGIN
                verdict = "entangled"
            else:
                good = abs(nu - 0.5) <= PPT_THRESHOLD_TOL
                verdict = "threshold"
            ok &= good
            details.append(f"r={r}: traced pair {pair}: min symplectic eig "
                           f"{nu:.6f} ({verdict}{'' if good else ' EXPECTED'})")
    reg = protocols.build(3, tape)
    parts = [[(1.0, m, X) for m in (1, 2, 3)],
             [(1.0, 1, Y), (-1.0, 2, Y)], [(1.0, 2, Y), (-1.0, 3, Y)]]
    battery.add("GHZ optics (3)", reg, parts)
    return ClaimResult(
        "tracing one party of the three-party GHZ-type optics state leaves "
        "the pair entangled at r=0.3 and exactly at threshold at r=0",
        ok,
        "6 traced-pair checks",
        "PPT threshold 0.5, equality to 1e-9",
        details=details,
    )


def _commutator_matrix(reg: ledger.Register) -> np.ndarray:
    """Commutators of the active rows (X_a, Y_a, ...) in units of i, from ``S Ω Sᵀ = Ω``
    in powers of ``e^r``: ``Σ_{k+l=s} M_k Ω M_lᵀ = Ω·[s = 0]``, where ``M_k`` holds the
    rows' ``e^{kr}`` coefficients (``ledger.coefficient_matrix``) in flat order.
    Returns the s = 0 sum; one above ``COMMUTATOR_TOL`` at s != 0 raises."""
    rows = [reg.quad_expr(m, kind) for m in reg.active_modes() for kind in (X, Y)]
    coords, mat = ledger.coefficient_matrix(rows)
    col = {quad: j for j, quad in enumerate(dict.fromkeys(key[:2] for key in coords))}
    exps = {k: e for e, k in enumerate(sorted({key[2] for key in coords}))}
    mats = np.zeros((len(exps), len(rows), len(col)))
    mats[[exps[k] for *_, k in coords], :, [col[key[:2]] for key in coords]] = mat
    # M Ω moves column x0_m to y0_m, the next column, and -y0_m to x0_m.
    xs = np.array([j for (m, kind), j in col.items() if kind == X and (m, Y) in col], dtype=int)
    m_omega = np.zeros_like(mats)
    m_omega[..., xs + 1], m_omega[..., xs] = mats[..., xs], -mats[..., xs + 1]
    sums = {}  # by s = k + l, ascending; each summed in sorted (k, l) order
    for k, a in exps.items():
        for l, b in exps.items():
            sums[k + l] = sums.get(k + l, 0.0) + m_omega[a] @ mats[b].T
    for s, total in sums.items():
        if s != 0 and not abs(worst := total.flat[np.abs(total).argmax()]) <= COMMUTATOR_TOL:
            raise errors.InternalConsistencyError(
                f"commutator has e^{s:+d}r content {worst:.3g}; rows are not canonically conjugate")
    return sums.get(0, np.zeros((len(rows), len(rows))))


def _commutator_defect(reg: ledger.Register) -> tuple[int, float]:
    """``(pairs, worst |[., .] - delta|)`` over the active rows' (X_a, Y_a) and,
    for a < b, (X_a, X_b), (X_a, Y_b), (Y_a, Y_b): the upper triangle of
    :func:`_commutator_matrix`'s gap to Ω without (Y_a, X_b)."""
    c0 = _commutator_matrix(reg)
    n = len(c0) // 2
    gap = np.abs(np.triu(c0 - symplectic_form(n), 1))
    gap[1::2, 0::2] = 0.0  # (Y_a, X_b) is not one of the pairs
    return n * (3 * n - 1) // 2, float(gap.max(initial=0.0))


def _claim_hygiene(battery: Battery) -> ClaimResult:
    pair_checks, worst = 0, 0.0
    physical_fails = 0
    for entry in battery.entries:
        checks, defect = _commutator_defect(entry.reg)
        pair_checks, worst = pair_checks + checks, float(np.maximum(worst, defect))  # NaN kept
        if entry.physical is None:  # added after the cross-engine claim
            (state,) = covariance.replay(entry.reg.n, entry.reg.history, (HYGIENE_R,))
            entry.physical = covariance.is_physical(state)
        physical_fails += not entry.physical
    return ClaimResult(
        "canonical commutators survive every battery gate sequence and the "
        "replayed covariance states respect the uncertainty bound",
        worst <= COMMUTATOR_TOL and physical_fails == 0,
        f"{pair_checks} commutators (max defect {worst:.3g}); "
        f"{len(battery.entries)} states replayed, {physical_fails} unphysical",
        f"{COMMUTATOR_TOL:g}",
    )


# ---------------------------------------------------------------------------
# Suite
# ---------------------------------------------------------------------------

_CLAIMS = (
    _claim_chain_rows,
    _claim_rotated_sets,
    _claim_graph_law,
    _claim_persistency,
    _claim_pair_extraction,
    _claim_path_reduction,
    _claim_ghz_star,
    _claim_parity,
    _claim_bs_chain,
    _claim_cross_engine,
    _claim_finite_squeezing,
    _claim_hygiene,
)


@dataclass
class ClaimsOutcome:
    results: list[ClaimResult]
    elapsed: float

    @property
    def ok(self) -> bool:
        return all(r.passed for r in self.results)


def _claim_id(fn) -> str:
    return fn.__name__.replace("_claim_", "").replace("_", "-")


def claim_ids() -> list[str]:
    return [_claim_id(fn) for fn in _CLAIMS]


def run_claims(only: str | None = None) -> ClaimsOutcome:
    """Run the suite (optionally one claim by id) and time it.

    The cross-engine and hygiene claims operate on whatever the earlier
    claims put into the battery, so asking for one of them via ``only``
    still runs (but does not report) the claims that feed it.
    """
    started = time.perf_counter()
    battery = Battery()
    results = []
    known = claim_ids()
    if only is not None and only not in known:
        raise ValueError(f"unknown claim id {only!r}; known: {', '.join(known)}")
    for fn in _CLAIMS:
        claim_started = time.perf_counter()
        result = fn(battery)
        result.elapsed = time.perf_counter() - claim_started
        result.claim_id = _claim_id(fn)
        results.append(result)
        if result.claim_id == only:
            break
    if only is not None:
        results = [r for r in results if r.claim_id == only]
    return ClaimsOutcome(results, time.perf_counter() - started)
