"""The benchmark's tracer against the package: every name it reads still exists.

``bench/spans.py`` wraps the package's public functions and reads some names
directly (``protocols.Infeasible`` for its infeasible-solve counter).  Its
traced run is outside this suite, so a rename that breaks it would otherwise
show only there.  The module is loaded by path and only read.
"""

import importlib.util
from pathlib import Path

import cvcluster
from cvcluster import cli

ROOT = Path(__file__).resolve().parents[1]


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", ROOT / "bench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_tracer_installs_counts_and_restores_every_attribute(capsys):
    spans = _load_spans()
    owners = []
    for mod_name in spans.MODULES:
        module = getattr(cvcluster, mod_name)
        owners += [module] + [getattr(module, c) for c in spans.CLASSES.get(mod_name, ())]
    before = [(owner, dict(vars(owner))) for owner in owners]
    tracer = spans.Tracer(cvcluster)
    try:
        tracer.install()
        edges = str(ROOT / "tests" / "golden" / "edges" / "ringstar4.txt")
        assert cli.main(["graph", edges, "--protocol", "ring-star-ghz"]) == 1
        script = str(ROOT / "scenarios" / "epr_n2.cvq")
        assert cli.main(["run", script, "--engine", "covariance", "--r", "1", "--seed", "7"]) == 0
    finally:
        tracer.remove()
    capsys.readouterr()
    summary = tracer.summary()
    assert summary["protocols.solve_feedforward.infeasible"] == 1
    assert summary["covariance.apply_tape.calls"] >= 1
    for owner, attrs in before:
        after = vars(owner)
        assert after.keys() == attrs.keys(), owner
        assert all(after[name] is value for name, value in attrs.items()), owner
