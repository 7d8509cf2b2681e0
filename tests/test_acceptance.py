"""Acceptance gate: twelve criteria, one test (and one verdict line) each.

Each test re-derives its property from the library at the stated tolerance
and emits ``criterion NN: PASS/FAIL`` on the real stdout (capture is
suspended for that one line, so the readout survives ``pytest -v`` runs
and piped logs).  Criteria 9, 11 and 12 concern the claims suite itself,
which the session fixture ``claims_outcome`` runs once.
"""

import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from cvcluster import claims, covariance, graphs, ledger, protocols
from cvcluster.gates import Rotate, X, Y

COEFF_TOL = 1e-12
BRIDGE_TOL = 1e-9

_CAPTURE = []


@pytest.fixture(autouse=True)
def _live_verdicts(capfd):
    _CAPTURE.append(capfd)
    yield
    _CAPTURE.pop()


def verdict(num, ok, detail):
    line = f"criterion {num:02d}: {'PASS' if ok else 'FAIL'} ({detail})"
    if _CAPTURE:
        with _CAPTURE[-1].disabled():
            print(line, flush=True)
    else:
        print(line)
    assert ok, detail


@pytest.fixture(scope="module")
def suite(claims_outcome):
    return claims_outcome


def claim(suite, cid):
    return next(res for res in suite.results if res.claim_id == cid)


def test_criterion_01_chain_rows_exact_and_fast():
    started = time.perf_counter()
    worst = 0.0
    for n in (2, 3, 10, 50, 100):
        reg = protocols.build_graph_state(graphs.chain(n))
        for m in range(1, n + 1):
            x_row = reg.quad_expr(m, X)
            assert set(x_row) == {(m, X, 1)}
            worst = max(worst, abs(x_row[(m, X, 1)] - 1.0))
            y_row = reg.quad_expr(m, Y)
            expected = {(m, Y, -1)} | {(b, X, 1) for b in (m - 1, m + 1) if 1 <= b <= n}
            assert set(y_row) == expected
            worst = max(worst, max(abs(c - 1.0) for c in y_row.values()))
    elapsed = time.perf_counter() - started
    verdict(1, worst <= COEFF_TOL and elapsed < 1.0,
            f"rows exact to {worst:.2g} for N up to 100 in {elapsed:.3f}s")


def test_criterion_02_rotated_correlation_sets():
    sets = {
        2: ((2,), [[(1, 1, X), (1, 2, X)], [(1, 1, Y), (-1, 2, Y)]]),
        3: ((2,), [[(1, 1, X), (1, 2, X), (1, 3, X)],
                   [(1, 1, Y), (-1, 2, Y)], [(1, 2, Y), (-1, 3, Y)],
                   [(1, 1, Y), (-1, 3, Y)]]),
        4: ((2, 4), [[(1, 1, X), (1, 2, X), (1, 3, X)], [(1, 3, X), (1, 4, X)],
                     [(1, 1, Y), (-1, 2, Y)], [(1, 2, Y), (-1, 3, Y), (1, 4, Y)]]),
    }
    checked = 0
    for n, (turned, combos) in sets.items():
        reg = protocols.build_graph_state(graphs.chain(n))
        for m in turned:
            reg.apply(Rotate(m, -math.pi / 2))
        for parts in combos:
            assert ledger.is_nullifier(reg.combine(parts)), (n, parts)
            checked += 1
    verdict(2, checked == 10, f"{checked} rotated combinations vanish for N=2,3,4")


def test_criterion_03_graph_nullifier_law():
    rng = np.random.default_rng(60)
    total = 0
    for _ in range(200):
        n = int(rng.integers(2, 51))
        g = graphs.random_graph(n, float(rng.uniform(0.05, 0.5)), rng)
        reg = protocols.build_graph_state(g)
        for v in g.vertices:
            parts = [(1.0, v, Y)] + [(-1.0, b, X) for b in g.neighborhood(v)]
            assert ledger.is_nullifier(reg.combine(parts)), (n, v)
            total += 1
    verdict(3, True, f"law holds at all {total} vertices of 200 random graphs")


def test_criterion_04_persistency():
    for n in range(2, 41):
        rep = protocols.disentangle_even(graphs.chain(n))
        assert rep.success and len(rep.measurements) == n // 2, n
    minima = [protocols.minimal_disentangling_measurements(n) for n in range(2, 7)]
    verdict(4, minima == [1, 1, 2, 2, 3],
            f"floor(N/2) works through N=40; oracle minima for N=2..6 are {minima}")


def test_criterion_05_pair_extraction():
    runs = 0
    for n in range(2, 21):
        g = graphs.chain(n)
        for j in range(1, n + 1):
            for k in range(j + 1, n + 1):
                rep = protocols.extract_pair(g, j, k)
                assert rep.success, (n, j, k)
                runs += 1
    customs = 0
    for n, j, k, outer in (
        (7, 4, 5, dict(left=(2, 1), right=(7,))),
        (9, 6, 7, dict(left=(4, 2, 1), right=(9,))),
    ):
        rep = protocols.extract_pair(graphs.chain(n), j, k, **outer)
        assert rep.success, (n, j, k)
        customs += 1
    verdict(5, customs == 2,
            f"{runs} next-neighbour extractions and {customs} custom outer patterns succeed")


def test_criterion_06_path_reduction():
    rng = np.random.default_rng(61)
    for i in range(50):
        n = int(rng.integers(4, 21))
        g = graphs.random_connected_graph(n, float(rng.uniform(0.1, 0.4)), rng)
        a, b = (int(v) for v in rng.choice(g.vertices, size=2, replace=False))
        rep = protocols.reduce_graph_to_path(g, a, b)
        assert rep.success, (i, n, a, b, rep.details)
        assert len(rep.nullifiers) >= 2
    verdict(6, True, "50 random connected graphs reduce to chain form")


def test_criterion_07_ghz_and_parity():
    for m in range(2, 13):
        rep = protocols.star_to_ghz(graphs.star(m))
        assert rep.success and len(rep.nullifiers) == m, m
    outcomes = []
    for m in range(3, 13):
        rep = protocols.ring_star_to_ghz(graphs.ring_star(2 * m))
        if m % 2:
            assert rep.success, m
        else:
            equations, rank = rep.rank_info
            assert not rep.success and equations - rank == 1, m
        outcomes.append(rep.success)
    verdict(7, outcomes == [True, False] * 5,
            "stars m=2..12 project to GHZ; ring parity with deficiency exactly 1 on evens")


def test_criterion_08_weighted_beamsplitter_correlations():
    s2 = math.sqrt(2.0)
    reg = protocols.build(4, protocols.bs_chain_tape(4))
    reg.apply(Rotate(2, -math.pi / 2))
    reg.apply(Rotate(4, -math.pi / 2))
    worst = 0.0
    for parts in (
        [(s2, 1, X), (1.0, 2, X), (s2, 3, X)],
        [(1.0, 3, X), (1.0, 4, X)],
        [(1.0, 1, Y), (-s2, 2, Y)],
        [(s2, 2, Y), (-1.0, 3, Y), (1.0, 4, Y)],
    ):
        expr = reg.combine(parts)
        worst = max(
            worst,
            max((abs(c) for (_, _, k), c in expr.items() if k >= 0), default=0.0),
        )
    for n in range(2, 11):
        reg = protocols.build(n, protocols.bs_chain_tape(n))
        basis = protocols.nullifier_basis(reg)
        assert len(basis) == n and all(ledger.is_nullifier(reg.combine(c)) for c in basis), n
    verdict(8, worst <= COEFF_TOL,
            f"four sqrt(2)-weighted correlations survive to {worst:.2g}; bases complete N<=10")


def test_criterion_09_cross_engine_agreement(suite):
    res = claim(suite, "cross-engine")
    verdict(9, res.passed, res.value)


def test_criterion_10_finite_squeezing_entanglement():
    at_03, at_0 = covariance.replay(3, protocols.ghz_optics_tape(3), (0.3, 0.0))
    entangled = [covariance.ppt_min_symplectic_eig(at_03, p) for p in ((1, 2), (1, 3), (2, 3))]
    threshold = [covariance.ppt_min_symplectic_eig(at_0, p) for p in ((1, 2), (1, 3), (2, 3))]
    ok = all(v < 0.5 for v in entangled) and all(abs(v - 0.5) <= BRIDGE_TOL for v in threshold)
    verdict(10, ok,
            f"traced pairs at r=0.3 reach {max(entangled):.4f} < 0.5; at r=0 all equal 0.5")


def test_criterion_11_engine_hygiene(suite):
    res = claim(suite, "hygiene")
    verdict(11, res.passed, res.value)


def test_criterion_12_claims_suite_under_ten_seconds(suite):
    assert suite.ok, [res.claim_id for res in suite.results if not res.passed]
    src = os.path.dirname(os.path.dirname(claims.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    started = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "cvcluster.cli", "claims"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    wall = time.perf_counter() - started
    ok = proc.returncode == 0 and wall < 10.0 and suite.elapsed < 10.0
    verdict(12, ok,
            f"claims exit code {proc.returncode}, {wall:.2f}s wall "
            f"(in-process {suite.elapsed:.2f}s)")
