"""Golden outputs: the command line's reports, byte for byte.

Every case runs ``cli.main`` in process from the repository root and compares
its exit code and stdout with ``tests/golden/<case>.txt``.  The files pin the
scenario corpus on both engines, the built-in sweep states and the graph
protocols, so refactors that must not change behaviour are checked against
exact bytes rather than against a tolerance.  The ``*_error`` cases pin
the one-line diagnostic of a rejected input under ``tests/golden/bad``: a
case whose stderr is not empty has it appended after its stdout.  Each
``demos/<name>.py`` is pinned the same way: its ``main()`` runs in process
and its stdout is compared with ``tests/golden/demo_<name>.txt``.  The
claims report is pinned in ``tests/golden/claims.txt`` with its two
wall-clock fields replaced by ``<t>``.

After a change that is meant to alter what the command line prints, record
the files again from the repository root with::

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import importlib.util
import io
import os
import re
from pathlib import Path

import pytest

from cvcluster import claims, cli

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"
EDGES = "tests/golden/edges"
BAD = "tests/golden/bad"
DEMOS = sorted(p.stem for p in (ROOT / "demos").glob("*.py"))
SCENARIOS = ("bs_chain_n4", "chain_rows_n4", "epr_n2", "persistency_n4", "teleport_step_n3")
R_LIST = "0,0.5,1,2"
# The claims report's two clocks: the chain-rows timing and the total.
CLAIMS_CLOCKS = (
    (re.compile(r"(max coefficient deviation \S+ in )\d+\.\d+s"), r"\1<t>s"),
    (re.compile(r"(?m)^(\d+/\d+ claims passed in )\d+\.\d+s$"), r"\1<t>s"),
)

CASES = {}
for _name in SCENARIOS:
    _path = f"scenarios/{_name}.cvq"
    CASES[f"run_{_name}_ledger"] = ["run", _path]
    CASES[f"run_{_name}_covariance"] = [
        "run", _path, "--engine", "covariance", "--r", "1", "--seed", "7",
    ]
# Gates, displacements and a second measurement on modes numbered above one
# that was already measured.
CASES["run_renumber_n5_covariance"] = [
    "run", "tests/golden/scripts/renumber_n5.cvq", "--engine", "covariance", "--r", "1",
    "--seed", "7",
]
CASES.update({
    "sweep_chain": ["sweep", "--state", "chain:5", "--combo", "1*y3 - 1*x2 - 1*x4",
                    "--combo", "1*x1", "--combo", "1*y1 + 1*y5", "--r", R_LIST],
    "sweep_star": ["sweep", "--state", "star:3", "--combo", "1*y1 - 1*x2 - 1*x3 - 1*x4",
                   "--combo", "1*y2 - 1*x1", "--r", R_LIST],
    "sweep_ringstar": ["sweep", "--state", "ringstar:3", "--combo", "1*y1 - 1*x3 - 1*x5 - 1*x7",
                       "--combo", "1*y2 - 1*x1 - 1*x3", "--r", R_LIST],
    "sweep_bschain": ["sweep", "--state", "bschain:4", "--combo", "sqrt2*x1 + 1*x2",
                      "--combo", "1*x3 + 1*x4", "--combo", "1*y1 - sqrt2*y2", "--r", R_LIST],
    "sweep_ghz": ["sweep", "--state", "ghz:3", "--combo", "1*x1 + 1*x2 + 1*x3",
                  "--combo", "1*y1 - 1*y2", "--r", R_LIST],
    "sweep_script": ["sweep", "--script", "scenarios/teleport_step_n3.cvq", "--combo",
                     "1*y1 - 1*x3", "--combo", "1*x1", "--r", R_LIST],
    "graph_chain_disentangle": ["graph", f"{EDGES}/chain6.txt", "--protocol", "disentangle"],
    "graph_chain_disconnect": ["graph", f"{EDGES}/chain6.txt", "--protocol", "disconnect",
                               "--j", "3"],
    "graph_chain_extract_pair": ["graph", f"{EDGES}/chain6.txt", "--protocol", "extract-pair",
                                 "--j", "2", "--k", "5"],
    "graph_chain_extract_pair_custom": ["graph", f"{EDGES}/chain6.txt", "--protocol",
                                        "extract-pair", "--j", "4", "--k", "5",
                                        "--outer-left", "2,1", "--outer-right", "6"],
    # Helpers around a pair with one inner position: the bond each end keeps
    # runs to that inner neighbour, not to the other end of the pair.
    "graph_chain_extract_pair_custom_inner": ["graph", f"{EDGES}/chain6.txt", "--protocol",
                                              "extract-pair", "--j", "3", "--k", "5",
                                              "--outer-left", "2,1", "--outer-right", "6"],
    "graph_chain_extract_pair_infeasible": ["graph", f"{EDGES}/chain6.txt", "--protocol",
                                            "extract-pair", "--j", "4", "--k", "5",
                                            "--outer-left", "1"],
    "graph_chain_reduce_path": ["graph", f"{EDGES}/chain6.txt", "--protocol", "reduce-path",
                                "--a", "2", "--b", "5"],
    "graph_mesh_reduce_path": ["graph", f"{EDGES}/mesh7.txt", "--protocol", "reduce-path",
                               "--a", "1", "--b", "4"],
    "graph_star_ghz": ["graph", f"{EDGES}/star4.txt", "--protocol", "star-ghz"],
    # The protocol flags argparse declares, wrapped at a fixed width.
    "graph_help": ["graph", "--help"],
    "graph_ringstar_odd": ["graph", f"{EDGES}/ringstar3.txt", "--protocol", "ring-star-ghz"],
    "graph_ringstar_odd_position": ["graph", f"{EDGES}/ringstar3.txt", "--protocol",
                                    "ring-star-ghz", "--flavor", "total-position"],
    "graph_ringstar_measured": ["graph", f"{EDGES}/ringstar3.txt", "--protocol",
                                "ring-star-ghz", "--measured", "2,4"],
    "graph_ringstar_even": ["graph", f"{EDGES}/ringstar4.txt", "--protocol", "ring-star-ghz"],
    # Rejected inputs: exit 2 and one positioned line on stderr.
    "run_parse_error": ["run", f"{BAD}/parse_error.cvq"],
    "run_runtime_error": ["run", f"{BAD}/runtime_error.cvq"],
    "run_encoding_error": ["run", f"{BAD}/not_utf8.cvq"],
    "graph_edge_error": ["graph", f"{BAD}/loop_edge.txt", "--protocol", "disentangle"],
    # A flag the protocol never reads is refused before its list is parsed.
    "graph_unread_flag_error": ["graph", f"{EDGES}/chain6.txt", "--protocol", "disconnect",
                                "--j", "3", "--measured", "x"],
    "claims_unknown_id_error": ["claims", "--only", "nope"],
    # An argument the subcommand does not know is refused in the subcommand's name.
    "claims_unrecognized_argument_error": ["claims", "--bogus"],
    "sweep_combo_error": ["sweep", "--state", "chain:3", "--combo", "1*q1", "--r", "1"],
    # sweep runs its rows as script lines: a state's tape is numbered from its
    # register line, and a --combo line follows the script's last statement.
    "sweep_state_overflow_error": ["sweep", "--state", "chain:2", "--combo", "1*y1 - 1*x2",
                                   "--r", "400"],
    "sweep_script_overflow_error": ["sweep", "--script", "scenarios/epr_n2.cvq", "--combo",
                                    "1*y1 - 1*x2", "--r", "400"],
    # A print row that leaves float range names the first failing gate of its own
    # cone (squeeze 1), not the tape's first (squeeze 3), on either engine.
    "run_print_blame_ledger_error": ["run", f"{BAD}/print_blame.cvq"],
    "run_print_blame_covariance_error": ["run", f"{BAD}/print_blame.cvq", "--engine",
                                         "covariance", "--r", "1", "--seed", "7"],
    "sweep_consumed_mode_error": ["sweep", "--script", "scenarios/teleport_step_n3.cvq",
                                  "--combo", "1*x2", "--r", "1"],
})


def run_case(argv) -> str:
    """Exit code line plus stdout of one in-process command-line call, then
    its stderr under a ``stderr:`` line when there is any."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exit_:  # argparse's --help
            code = exit_.code
    report = f"exit: {code}\n{out.getvalue()}"
    if err.getvalue():
        report += f"stderr:\n{err.getvalue()}"
    return report


def run_claims_report() -> str:
    """``run_case(["claims"])`` with its wall-clock fields normalised."""
    report = run_case(["claims"])
    for pattern, repl in CLAIMS_CLOCKS:
        report = pattern.sub(repl, report)
    return report


def run_demo(name) -> str:
    """Stdout of one demo's ``main()``, run in process."""
    spec = importlib.util.spec_from_file_location(f"demo_{name}", ROOT / "demos" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        module.main()
    return out.getvalue()


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_output_matches_golden(case, monkeypatch):
    monkeypatch.chdir(ROOT)
    expected = (GOLDEN / f"{case}.txt").read_text(encoding="utf-8")
    assert run_case(CASES[case]) == expected


@pytest.mark.parametrize("columns", ["40", "200"])
def test_help_is_the_same_at_any_terminal_width(columns, monkeypatch):
    """argparse would wrap help to ``COLUMNS``; the parser fixes its own width."""
    monkeypatch.setenv("COLUMNS", columns)
    expected = (GOLDEN / "graph_help.txt").read_text(encoding="utf-8")
    assert run_case(["graph", "--help"]) == expected


@pytest.mark.parametrize("name", DEMOS)
def test_demo_output_matches_golden(name):
    expected = (GOLDEN / f"demo_{name}.txt").read_text(encoding="utf-8")
    assert run_demo(name) == expected


def test_claims_report_matches_golden(claims_outcome, monkeypatch):
    """Through ``cli.main(["claims"])``, printing the session's one suite run."""
    def shared_run(only=None):
        assert only is None
        return claims_outcome

    monkeypatch.setattr(claims, "run_claims", shared_run)
    expected = (GOLDEN / "claims.txt").read_text(encoding="utf-8")
    assert run_claims_report() == expected


if __name__ == "__main__":
    os.chdir(ROOT)
    for case, argv in sorted(CASES.items()):
        (GOLDEN / f"{case}.txt").write_text(run_case(argv), encoding="utf-8")
    for name in DEMOS:
        (GOLDEN / f"demo_{name}.txt").write_text(run_demo(name), encoding="utf-8")
    (GOLDEN / "claims.txt").write_text(run_claims_report(), encoding="utf-8")
    print(f"recorded {len(CASES)} cases, {len(DEMOS)} demos and the claims report in {GOLDEN}")
