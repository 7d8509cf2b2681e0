"""Tests for the benchmark itself (not part of the package's test suite).

Run from the repository root::

    python3 -m pytest -q bench/tests
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import run  # noqa: E402  (pins BLAS threads before numpy loads)
import spans  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402

PACKAGE = run.import_package()


def _files(root: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(root.iterdir())}


@pytest.mark.parametrize("workload", ["scripts", "graph"])
def test_same_seed_gives_byte_identical_inputs(tmp_path, workload):
    first = workloads.build(workload, 5, tmp_path / "a", run.CORPUS)
    second = workloads.build(workload, 5, tmp_path / "b", run.CORPUS)
    assert _files(tmp_path / "a") == _files(tmp_path / "b")
    assert [op.name for op in first] == [op.name for op in second]
    workloads.build(workload, 6, tmp_path / "c", run.CORPUS)
    assert _files(tmp_path / "a") != _files(tmp_path / "c")


def test_self_time_is_parent_minus_what_children_cover():
    # root [0, 10] has children [1, 3] and [2, 5] (overlapping: cover 1..5)
    # and [9, 12] (clipped to 9..10); child [2, 5] has grandchild [3, 4].
    parents = [-1, 0, 0, 0, 2]
    starts = [0.0, 1.0, 2.0, 9.0, 3.0]
    ends = [10.0, 3.0, 5.0, 12.0, 4.0]
    got = spans.self_times(parents, starts, ends)
    assert got == pytest.approx([10 - 4 - 1, 2.0, 3 - 1, 3.0, 1.0])


def test_self_time_ignores_span_order():
    parents = [-1, 0, 0]
    starts = [0.0, 4.0, 1.0]
    ends = [6.0, 5.0, 2.0]
    assert spans.self_times(parents, starts, ends) == pytest.approx([4.0, 1.0, 1.0])


def _attribute_snapshot():
    snap = {}
    for mod_name in spans.MODULES:
        module = getattr(PACKAGE, mod_name)
        snap[mod_name] = dict(vars(module))
        for cls_name in spans.CLASSES.get(mod_name, ()):
            snap[f"{mod_name}.{cls_name}"] = dict(vars(getattr(module, cls_name)))
    return snap


def test_tracer_wraps_module_attributes_and_removes_them():
    before = _attribute_snapshot()
    tracer = spans.Tracer(PACKAGE)
    tracer.install()
    try:
        assert PACKAGE.cli.main is not before["cli"]["main"]
        assert PACKAGE.ledger.Register.squeeze is not before["ledger.Register"]["squeeze"]
        assert run.check_wrappers(PACKAGE, tracer) is None
    finally:
        tracer.remove()
    assert _attribute_snapshot() == before


def test_replaying_a_tape_records_one_apply_gate_per_gate():
    reg = PACKAGE.protocols.build_graph_state(PACKAGE.graphs.chain(5))
    tracer = spans.Tracer(PACKAGE)
    tracer.install()
    try:
        tracer.reset()
        cov = PACKAGE.covariance
        cov.apply_tape(cov.vacuum_state(reg.n), reg.history, 0.5)
        cov.apply_tape(cov.vacuum_state(reg.n), reg.history, r=0.5)
        found = tracer.summary()
    finally:
        tracer.remove()
    assert found["covariance.apply_gate.calls"] == 2 * len(reg.history)
    assert found["covariance.apply_tape.calls"] == 2
    assert found["covariance.apply_tape.repeats"] == 1
    assert found["covariance.apply_gate.elems"] == 2 * len(reg.history) * (2 * reg.n) ** 2


def test_p90_needs_ten_samples_above_it():
    assert run.p90_ms([0.001 * i for i in range(1, 60)]) is None
    tail = run.p90_ms([0.001 * i for i in range(1, 121)])
    assert tail is not None and 100.0 < tail < 120.0


def test_graph_traced_run_passes_its_sanity_checks(tmp_path, monkeypatch):
    monkeypatch.setitem(run.TRACE_ROUNDS, "graph", 1)
    ops = workloads.build("graph", run.DEFAULT_SEED, tmp_path, run.CORPUS)
    reference = run.load_reference("graph")
    with speed.SpeedMeter() as meter:
        tally = run.Tally(meter)
        metrics, problems = run.traced_run(tally, PACKAGE, ops, tmp_path, reference, "graph")
    assert problems == []
    assert tally.failed == 0
    assert metrics["covariance.apply_gate.calls"] == 0
    assert metrics["protocols.protocol.calls"] == len(ops)


def test_sanity_checks_flag_a_workload_that_drifts():
    metrics = {"scenario.parse.calls": 3, "covariance.apply_tape.repeat_share": 0.0}
    found = {"covariance.apply_gate.calls": 7}
    problems = run.sanity_problems("graph", found, metrics)
    assert len(problems) == 2  # covariance calls and parse calls on graph
    assert run.sanity_problems("scripts", {}, metrics)  # repeat share too low


def test_a_wrong_output_counts_as_a_failed_op(tmp_path):
    ops = workloads.build("graph", run.DEFAULT_SEED, tmp_path, run.CORPUS)
    reference = run.load_reference("graph")
    op = ops[0]
    broken = dict(reference)
    broken[op.name] = {"exit": 0, "stdout": reference[op.name]["stdout"] + "extra\n"}
    with speed.SpeedMeter() as meter:
        tally = run.Tally(meter)
        tally.run(PACKAGE.cli, [op], tmp_path, broken)
    assert tally.failed == 1 and op.name in tally.failures


def test_benchmark_json_lists_the_metrics_the_run_prints():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [m["name"] for m in spec["end_to_end"]] == [n for n, _ in run.END_TO_END]
    assert [m["unit"] for m in spec["end_to_end"]] == [u for _, u in run.END_TO_END]
    assert [m["name"] for m in spec["per_layer"]] == [n for n, _ in run.PER_LAYER]
    assert [m["unit"] for m in spec["per_layer"]] == [u for _, u in run.PER_LAYER]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_op_time_is_scaled_by_the_probes_during_it():
    meter = speed.SpeedMeter()
    meter.samples = [speed.NOMINAL_S] * speed.WINDOW
    mark = meter.mark()
    # Two probes fire during a 1 s op, each at half the nominal speed.
    meter.samples += [2 * speed.NOMINAL_S] * 2
    meter.spent += 4 * speed.NOMINAL_S
    own = 1.0 - 4 * speed.NOMINAL_S
    # Too few probes during the op: the last WINDOW probes are averaged.
    factor = speed.WINDOW / (speed.WINDOW - 2 + 2 * 2)
    assert meter.scale(1.0, mark) == pytest.approx(own * factor)
    meter.samples += [2 * speed.NOMINAL_S] * speed.WINDOW
    meter.spent += 2 * speed.NOMINAL_S * speed.WINDOW
    own = 1.0 - 2 * speed.NOMINAL_S * (speed.WINDOW + 2)
    assert meter.scale(1.0, mark) == pytest.approx(own / 2)


def test_speed_meter_restores_the_alarm_handler():
    import signal

    before = signal.getsignal(signal.SIGALRM)
    with speed.SpeedMeter() as meter:
        assert signal.getsignal(signal.SIGALRM) == meter._tick
    assert signal.getsignal(signal.SIGALRM) == before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
