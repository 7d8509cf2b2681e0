"""cvcluster benchmark: one closed-loop client driving ``cvcluster.cli.main``.

Usage (from the repository root)::

    python3 bench/run.py --workload claims|scripts|graph --seed N \\
        --seconds S --trace 0|1

With ``--trace 0`` the run repeats whole rounds of the workload's ops, each
op waiting for the one before, until ``--seconds`` have passed, and reports
the end-to-end metrics.  Op times are scaled to nominal machine speed by
:mod:`speed`.  With ``--trace 1`` it makes one untraced and one traced pass
over the workload's rounds and reports per-layer metrics from the spans,
plus the tracing overhead.  Every op's output is checked; the last line of
stdout is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import os

# One BLAS thread: the package's matrices are small, and a second BLAS thread
# on a two-CPU machine only adds run-to-run noise.  This must be set before
# numpy is first imported.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import spans  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
CORPUS = ROOT / "scenarios"
WORK = ROOT / ".bench_work"
REFERENCE = BENCH / "reference"

# Seed whose outputs are compared byte for byte with bench/reference/.
DEFAULT_SEED = 1
# Input generation is repeated this often in set-up; the median is reported.
SETUP_REPEATS = 5
# A p90 is reported only with at least this many samples above it.
P90_TAIL = 10
# covariance.apply_tape.repeat_share lies below this on claims, above on scripts.
REPEAT_SPLIT = 0.3
# Rounds per pass of the traced run; per-layer numbers are per round.  Graph
# rounds last a fraction of a second, so they are repeated for steadier times.
TRACE_ROUNDS = {"claims": 1, "scripts": 1, "graph": 20}

END_TO_END = (
    ("ops_per_s", "1/s"),
    ("op_ms_p50", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

PER_LAYER = (
    ("cli.main.calls", "count"),
    ("cli.main.self_s", "s"),
    ("cli.other.self_s", "s"),
    ("claims.run_claims.self_s", "s"),
    ("scenario.parse.calls", "count"),
    ("scenario.parse.self_s", "s"),
    ("scenario.parse.lines_per_s", "lines/s"),
    ("scenario.execute.self_s", "s"),
    ("scenario.other.self_s", "s"),
    ("ledger.gate.calls", "count"),
    ("ledger.gate.self_s", "s"),
    ("ledger.feedforward.calls", "count"),
    ("ledger.feedforward.self_s", "s"),
    ("ledger.view.self_s", "s"),
    ("ledger.check.self_s", "s"),
    ("ledger.commutator.calls", "count"),
    ("ledger.other.self_s", "s"),
    ("covariance.apply_gate.calls", "count"),
    ("covariance.apply_gate.self_s", "s"),
    ("covariance.apply_gate.elems", "count"),
    ("covariance.apply_tape.calls", "count"),
    ("covariance.apply_tape.repeat_share", "ratio"),
    ("covariance.homodyne.calls", "count"),
    ("covariance.homodyne.self_s", "s"),
    ("covariance.query.self_s", "s"),
    ("covariance.other.self_s", "s"),
    ("gates.is_symplectic.calls", "count"),
    ("gates.is_symplectic.self_s", "s"),
    ("gates.gate_matrix.self_s", "s"),
    ("gates.symplectic_form.self_s", "s"),
    ("gates.other.self_s", "s"),
    ("graphs.query.calls", "count"),
    ("graphs.query.self_s", "s"),
    ("graphs.parse_edge_list.self_s", "s"),
    ("graphs.other.self_s", "s"),
    ("protocols.solve_feedforward.calls", "count"),
    ("protocols.solve_feedforward.self_s", "s"),
    ("protocols.solve_feedforward.infeasible", "count"),
    ("protocols.build.self_s", "s"),
    ("protocols.protocol.calls", "count"),
    ("protocols.protocol.success", "count"),
    ("protocols.protocol.self_s", "s"),
    ("protocols.null_space.self_s", "s"),
    ("protocols.oracle.self_s", "s"),
    ("protocols.other.self_s", "s"),
    ("trace.untraced_s", "s"),
    ("trace.traced_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.overhead_share", "ratio"),
)


# ---------------------------------------------------------------------------
# Environment
# ---------------------------------------------------------------------------


def _read(path: Path) -> str | None:
    try:
        return path.read_text(encoding="utf-8")
    except OSError:
        return None


def git_commit(root: Path) -> str:
    """HEAD commit read from ``.git`` directly, without starting git."""
    head = _read(root / ".git" / "HEAD")
    if head is None:
        return "unknown (not a git checkout)"
    head = head.strip()
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    loose = _read(root / ".git" / ref)
    if loose is not None:
        return loose.strip()
    for line in (_read(root / ".git" / "packed-refs") or "").splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return f"unknown ({ref})"


def loadavg() -> str:
    return (_read(Path("/proc/loadavg")) or "unavailable").strip()


def cpu_model() -> str:
    for line in (_read(Path("/proc/cpuinfo")) or "").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or "unknown"


def environment(numpy) -> dict:
    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "commit": git_commit(ROOT),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
    }


# ---------------------------------------------------------------------------
# Ops
# ---------------------------------------------------------------------------


def import_package():
    """Import cvcluster from ``src/`` (numpy comes with it)."""
    sys.path.insert(0, str(SRC))
    import cvcluster
    import cvcluster.cli  # noqa: F401

    return cvcluster


def run_op(cli, op: workloads.Op, work: Path, reference: dict | None, meter: speed.SpeedMeter):
    """Run one op; return (raw seconds, scaled seconds, exit code, stdout, error)."""
    out = io.StringIO()
    mark = meter.mark()
    started = time.perf_counter()
    error = None
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(list(op.argv))
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # an op that raises is counted, never fatal
        code, error = None, f"raised {type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - started
    scaled = meter.scale(elapsed, mark)
    stdout = workloads.normalise(op, out.getvalue(), work)
    if error is None:
        error = workloads.check(op, code, stdout, reference)
    return elapsed, scaled, code, stdout, error


class Tally:
    """Raw and speed-scaled latencies, and failures, of the ops run so far."""

    def __init__(self, meter: speed.SpeedMeter):
        self.meter = meter
        self.latencies: list[float] = []
        self.scaled: list[float] = []
        self.failures: dict[str, str] = {}
        self.failed = 0

    def run(self, cli, ops, work, reference):
        for op in ops:
            elapsed, scaled, _, _, error = run_op(cli, op, work, reference, self.meter)
            self.latencies.append(elapsed)
            self.scaled.append(scaled)
            if error is not None:
                self.failed += 1
                self.failures.setdefault(op.name, error)


def p90_ms(latencies: list[float]) -> float | None:
    """p90 in ms, or None when fewer than ``P90_TAIL`` samples lie above it."""
    if len(latencies) < 2:
        return None
    p90 = statistics.quantiles(latencies, n=10)[8]
    if sum(1 for x in latencies if x > p90) < P90_TAIL:
        return None
    return p90 * 1000.0


def timed_run(tally: Tally, cli, ops, work, reference, seconds: float) -> dict:
    """Whole rounds of ``ops`` until ``seconds`` have passed (at least one).

    Both metrics use speed-scaled latencies.  Throughput is a round's op
    count over the sum of each op's median latency, so a burst of outside
    load that slows a few rounds does not move it.
    """
    started = time.perf_counter()
    while True:
        tally.run(cli, ops, work, reference)
        if time.perf_counter() - started >= seconds:
            break
    typical_round = sum(
        statistics.median(tally.scaled[i::len(ops)]) for i in range(len(ops))
    )
    return {
        "ops_per_s": len(ops) / typical_round,
        "op_ms_p50": statistics.median(tally.scaled) * 1000.0,
    }


def check_wrappers(package, tracer: spans.Tracer) -> str | None:
    """Replaying a tape of length L must record exactly L apply_gate calls."""
    reg = package.protocols.build_graph_state(package.graphs.chain(4))
    tracer.reset()
    package.covariance.apply_tape(package.covariance.vacuum_state(reg.n), reg.history, 0.5)
    calls = tracer.summary()["covariance.apply_gate.calls"]
    tracer.reset()
    if calls != len(reg.history):
        return f"a tape of {len(reg.history)} gates recorded {calls} apply_gate calls"
    return None


def traced_run(tally: Tally, package, ops, work, reference, workload: str) -> tuple[dict, list[str]]:
    """One untraced and one traced pass over the workload's rounds.

    Per-layer counts and self times are totals divided by the rounds in a
    pass; self times are raw wall time.  The overhead compares the passes'
    summed op times, scaled to nominal machine speed.
    """
    cli = package.cli
    rounds = TRACE_ROUNDS[workload]
    for _ in range(rounds):
        tally.run(cli, ops, work, reference)
    untraced = sum(tally.scaled)

    tracer = spans.Tracer(package)
    tracer.install()
    try:
        problems = [p for p in [check_wrappers(package, tracer)] if p]
        for _ in range(rounds):
            for op in ops:
                tracer.new_op()
                tally.run(cli, [op], work, reference)
    finally:
        tracer.remove()
    traced = sum(tally.scaled) - untraced
    found = {name: value / rounds for name, value in tracer.summary().items()}

    metrics = {name: found.get(name, 0) for name, _ in PER_LAYER}
    tapes = found.get("covariance.apply_tape.calls", 0)
    repeats = found.get("covariance.apply_tape.repeats", 0)
    metrics["covariance.apply_tape.repeat_share"] = repeats / tapes if tapes else 0.0
    parse_s = found.get("scenario.parse.self_s", 0.0)
    metrics["scenario.parse.lines_per_s"] = (
        found.get("scenario.parse.lines", 0) / parse_s if parse_s else 0.0
    )
    metrics["trace.untraced_s"] = untraced / rounds
    metrics["trace.traced_s"] = traced / rounds
    metrics["trace.overhead_s"] = (traced - untraced) / rounds
    metrics["trace.overhead_share"] = (traced - untraced) / untraced
    problems += sanity_problems(workload, found, metrics)
    return metrics, problems


def sanity_problems(workload: str, found: dict, metrics: dict) -> list[str]:
    """Check that each workload still puts its work where its reason says."""
    problems = []
    cov_calls = sum(v for k, v in found.items() if k.startswith("covariance.") and k.endswith(".calls"))
    if workload == "graph" and cov_calls:
        problems.append(f"graph made {cov_calls} covariance calls; expected none")
    parses = metrics["scenario.parse.calls"]
    if (workload == "scripts") != (parses > 0):
        problems.append(f"{workload} made {parses} scenario.parse calls")
    share = metrics["covariance.apply_tape.repeat_share"]
    if workload == "claims" and not share < REPEAT_SPLIT:
        problems.append(f"claims apply_tape repeat share {share:.3f} is not below {REPEAT_SPLIT}")
    if workload == "scripts" and not share > REPEAT_SPLIT:
        problems.append(f"scripts apply_tape repeat share {share:.3f} is not above {REPEAT_SPLIT}")
    return problems


# ---------------------------------------------------------------------------
# Main
# ---------------------------------------------------------------------------


def load_reference(workload: str) -> dict:
    with open(REFERENCE / f"{workload}.json", encoding="utf-8") as fh:
        return json.load(fh)


def build_ops(workload: str, seed: int, work: Path, meter: speed.SpeedMeter) -> tuple[list, float]:
    """Generate the inputs ``SETUP_REPEATS`` times; return ops and median scaled seconds."""
    times, ops = [], []
    for _ in range(SETUP_REPEATS):
        mark = meter.mark()
        started = time.perf_counter()
        ops = workloads.build(workload, seed, work, CORPUS)
        times.append(meter.scale(time.perf_counter() - started, mark))
    return ops, statistics.median(times)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "cvcluster" / "__init__.py").is_file():
        print(f"bench: no cvcluster package under {SRC}", file=sys.stderr)
        return 2
    load_start = loadavg()
    work = WORK / f"{args.workload}-{os.getpid()}"
    try:
        with speed.SpeedMeter() as meter:
            mark = meter.mark()
            started = time.perf_counter()
            package = import_package()
            import_s = meter.scale(time.perf_counter() - started, mark)
            ops, build_s = build_ops(args.workload, args.seed, work, meter)
            setup_speed = meter.speed()
            reference = load_reference(args.workload) if args.seed == DEFAULT_SEED else None
            tally = Tally(meter)
            problems: list[str] = []
            if args.trace:
                metrics, problems = traced_run(tally, package, ops, work, reference, args.workload)
                units = dict(PER_LAYER)
            else:
                metrics = timed_run(tally, package.cli, ops, work, reference, args.seconds)
                metrics["setup_s"] = import_s + build_s
                metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
                units = dict(END_TO_END)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    load_end = loadavg()
    import numpy

    env = environment(numpy)
    env.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
               trace=args.trace, loadavg_start=load_start, loadavg_end=load_end)
    print("env " + json.dumps(env, sort_keys=True))
    print(f"ops: {len(ops)} per round, {len(tally.latencies)} run, "
          f"{tally.failed} failed (ops_attempted {len(tally.latencies)}, "
          f"ops_failed {tally.failed})")
    for name, why in sorted(tally.failures.items()):
        print(f"FAILED op {name}: {why}")
    print(f"machine speed {meter.speed():.3f} of nominal over {len(meter.samples)} "
          f"probes ({setup_speed:.3f} by the end of set-up)")
    if not args.trace:
        print(f"raw wall time: op_ms_p50 {statistics.median(tally.latencies) * 1000:.4f} ms, "
              f"op_ms_min {min(tally.latencies) * 1000:.4f} ms, "
              f"op_ms_max {max(tally.latencies) * 1000:.4f} ms")
        tail = p90_ms(tally.scaled)
        print("op_ms_p90 " + (f"{tail:.4f} ms" if tail is not None else
                              f"not reported: {len(tally.latencies)} samples leave "
                              f"fewer than {P90_TAIL} above p90"))
    for problem in problems:
        print(f"SANITY CHECK FAILED: {problem}")
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    result = {
        "correct": tally.failed == 0 and not problems,
        "attempted": len(tally.latencies),
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
