"""Command-line interface: subcommands, exit codes, output contracts."""

import contextlib
import io
import os
import re
import subprocess
import sys

import pytest

from cvcluster import claims, cli, graphs, ledger, protocols
from cvcluster.errors import InternalConsistencyError
from cvcluster.gates import MAX_MODES

SCRIPT_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "scenarios")


def script(name):
    return os.path.join(SCRIPT_DIR, name)


GRAPH_EDGES = os.path.join(os.path.dirname(__file__), "golden", "edges", "chain6.txt")


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------


def test_run_green_script_exits_zero(capsys):
    code = cli.main(["run", script("chain_rows_n4.cvq")])
    out = capsys.readouterr().out
    assert code == 0
    assert "status: pass (4/4 asserts)" in out


def test_run_covariance_deterministic_csv(capsys):
    argv = ["run", script("persistency_n4.cvq"), "--engine", "covariance",
            "--r", "1.0", "--seed", "7"]
    assert cli.main(argv) == 0
    first = capsys.readouterr().out
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == first
    assert "1*y1,1,0.0676676416183" in first


def test_run_parse_error_position_on_stderr(tmp_path, capsys):
    bad = tmp_path / "bad.cvq"
    bad.write_text("register 3\nsqueeze 1 momentum\nmeasure q 1 -> a\n")
    code = cli.main(["run", str(bad)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert f"{bad}:3:9: expected basis" in captured.err


def test_run_missing_file_exits_two(capsys):
    assert cli.main(["run", "no_such_file.cvq"]) == 2
    assert "no_such_file.cvq" in capsys.readouterr().err


def test_run_script_that_is_not_utf8_exits_two(tmp_path, capsys):
    """Exit 1 is a failed assertion; undecodable bytes are a usage error, as in sweep and graph."""
    bad = tmp_path / "latin.cvq"
    bad.write_bytes(b"register 2\nsqueeze 1 momentum \xff\n")
    assert cli.main(["run", str(bad)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert "can't decode byte 0xff" in captured.err and "Traceback" not in captured.err


def _argv_reading(command, path):
    """A ``run``, ``sweep --script`` or ``graph`` call whose one input file is ``path``."""
    return {
        "run": ["run", path],
        "sweep": ["sweep", "--script", path, "--combo", "1*x1", "--r", "1"],
        "graph": ["graph", path, "--protocol", "disentangle"],
    }[command]


@pytest.mark.parametrize("command", ["run", "sweep", "graph"])
@pytest.mark.parametrize("data, line_col, offset", [
    (b"\xffregister 2\n", "1:1", 0),
    # The column counts characters, so the two-byte e-acute before 0xff is one.
    (b"register 2\r\nsqueeze 1 \xc3\xa9\xff momentum\r\n", "2:12", 24),
    # A lone CR ends a line, as it does for the parser.
    (b"register 2\rsqueeze 1 \xff\r", "2:11", 21),
    # A leading byte order mark takes no column; the byte offset still counts it.
    (b"\xef\xbb\xbfregister 2 \xff\n", "1:12", 14),
    # A form feed does not end a line.
    (b"register 2\x0c\nsqueeze 1\x0c\xff\n", "2:11", 22),
])
def test_input_that_is_not_utf8_is_positioned(tmp_path, capsys, command, data, line_col, offset):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(data)
    assert cli.main(_argv_reading(command, str(bad))) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"{bad}:{line_col}: 'utf-8' codec can't decode byte 0xff "
                            f"in position {offset}: invalid start byte\n")


@pytest.mark.parametrize("command, text", [
    ("run", "register 2\nsqueeze 1 momentum\nsqueeze 2 momentum\nkerr 1 2\n"
            "assert nullifier 1*y1 - 1*x2\n"),
    ("sweep", "register 2\nsqueeze 1 momentum\nkerr 1 2\n"),
    ("graph", "vertices 4\n1 2\n2 3\n3 4\n"),
])
def test_crlf_and_cr_inputs_read_as_lf(tmp_path, capsys, monkeypatch, command, text):
    monkeypatch.chdir(tmp_path)  # a relative name, so the run report prints the same path
    outputs = []
    for newline in ("\n", "\r\n", "\r"):
        (tmp_path / "input.txt").write_bytes(text.replace("\n", newline).encode("utf-8"))
        code = cli.main(_argv_reading(command, "input.txt"))
        captured = capsys.readouterr()
        outputs.append((code, captured.out, captured.err))
    assert outputs[0][0] == 0 and outputs[0][1] and outputs == [outputs[0]] * 3


@pytest.mark.parametrize("command, text", [
    ("run", "register 2\nsqueeze 1 momentum\nsqueeze 2 momentum\nkerr 1 2\n"
            "assert nullifier 1*y1 - 1*x2\n"),
    ("sweep", "register 2\nsqueeze 1 momentum\nkerr 1 2\n"),
    ("graph", "vertices 4\n1 2\n2 3\n3 4\n"),
])
def test_a_leading_byte_order_mark_is_dropped(tmp_path, capsys, monkeypatch, command, text):
    monkeypatch.chdir(tmp_path)
    outputs = []
    for bom in (b"", b"\xef\xbb\xbf"):
        (tmp_path / "input.txt").write_bytes(bom + text.encode("utf-8"))
        code = cli.main(_argv_reading(command, "input.txt"))
        captured = capsys.readouterr()
        outputs.append((code, captured.out, captured.err))
    assert outputs[0][0] == 0 and outputs[0][1] and outputs[1] == outputs[0]


# Characters that str.splitlines() also breaks lines at; in an input file
# only LF, CRLF and CR end a line, and these are whitespace.
OTHER_BREAKS = ["\x0c", "\x0b", "\x1c", "\x1d", "\x1e", "\x85", " ", " "]


@pytest.mark.parametrize("char", OTHER_BREAKS)
def test_run_counts_lines_at_lf_cr_and_crlf_only(tmp_path, capsys, char):
    p = tmp_path / "breaks.cvq"
    p.write_text(f"register 2\n{char}\nsqueeze 1 momentum\nkerr 1 x\n", encoding="utf-8")
    assert cli.main(["run", str(p)]) == 2
    assert capsys.readouterr().err == f"{p}:4:8: expected mode index, found 'x'\n"
    p.write_text(f"register 2\nsqueeze 1{char}momentum\nkerr 1 x\n", encoding="utf-8")
    assert cli.main(["run", str(p)]) == 2
    assert capsys.readouterr().err == f"{p}:3:8: expected mode index, found 'x'\n"


@pytest.mark.parametrize("char", OTHER_BREAKS)
def test_graph_counts_lines_at_lf_cr_and_crlf_only(tmp_path, capsys, char):
    p = tmp_path / "breaks.txt"
    p.write_text(f"vertices 3\n1 2{char}2 3\n1 1\n", encoding="utf-8")
    assert cli.main(["graph", str(p), "--protocol", "disentangle"]) == 2
    assert capsys.readouterr().err == f"{p}:2: expected edge 'a b'\n"
    p.write_text(f"vertices 3\n{char}\n1 1\n", encoding="utf-8")
    assert cli.main(["graph", str(p), "--protocol", "disentangle"]) == 2
    assert capsys.readouterr().err == f"{p}:3: loop edge 1-1\n"


def test_run_failing_assert_exits_one(tmp_path, capsys):
    p = tmp_path / "fails.cvq"
    p.write_text("register 2\nsqueeze 1 momentum\nsqueeze 2 momentum\nassert nullifier 1*x1\n")
    assert cli.main(["run", str(p)]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_run_covariance_without_r_is_usage_error(capsys):
    path = script("chain_rows_n4.cvq")
    code = cli.main(["run", path, "--engine", "covariance"])
    assert code == 2
    assert capsys.readouterr().err == f"{path}:1:1: covariance engine requires numeric r\n"


def test_run_runtime_error_position(tmp_path, capsys):
    p = tmp_path / "twice.cvq"
    p.write_text("register 2\nmeasure x 1 -> a\nmeasure y 1 -> b\n")
    assert cli.main(["run", str(p)]) == 2
    assert f"{p}:3:1:" in capsys.readouterr().err


@pytest.mark.parametrize("body, col, found", [
    ("kerr 1 2 g=nan\nassert nullifier 1*y1 - 1*x2\n", 10, "g=nan"),
    ("rotate 1 infrad\n", 10, "infrad"),
])
def test_run_non_finite_parameter_is_a_positioned_parse_error(tmp_path, capsys, body, col, found):
    p = tmp_path / "nonfinite.cvq"
    p.write_text("register 2\nsqueeze 1 momentum\nsqueeze 2 momentum\n" + body)
    assert cli.main(["run", str(p)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"{p}:4:{col}: expected a finite real, found {found!r}\n"


@pytest.mark.parametrize("engine", ["ledger", "covariance"])
@pytest.mark.parametrize("g", ["1e-13", "-1e-12", "5e-300"])
def test_run_kerr_below_the_prune_floor_is_a_positioned_parse_error(tmp_path, capsys, engine, g):
    """A coupling the ledger would prune cannot let ``assert product`` pass."""
    p = tmp_path / "tiny.cvq"
    p.write_text("register 2\nsqueeze 1 momentum\nsqueeze 2 momentum\n"
                 f"kerr 1 2 g={g}\nassert product\n")
    assert cli.main(["run", str(p), "--engine", engine, "--r", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"{p}:4:10: expected g=0 or |g| > 1e-12, found 'g={g}'\n"


def test_run_zero_kerr_coupling_stays_legal(tmp_path, capsys):
    p = tmp_path / "zero.cvq"
    p.write_text("register 2\nsqueeze 1 momentum\nsqueeze 2 momentum\n"
                 "kerr 1 2 g=0\nkerr 1 2 g=-0.0\nassert product\n")
    assert cli.main(["run", str(p)]) == 0
    assert "status: pass (1/1 asserts)" in capsys.readouterr().out


@pytest.mark.parametrize("engine", ["ledger", "covariance"])
@pytest.mark.parametrize("t", ["1e-25", "1e-24", "5e-300"])
def test_run_beamsplitter_below_the_prune_floor_is_a_positioned_parse_error(tmp_path, capsys,
                                                                            engine, t):
    """A transmittance whose sqrt(t) cross terms the ledger would prune cannot
    let ``assert product`` pass."""
    p = tmp_path / "tiny.cvq"
    p.write_text("register 2\nsqueeze 1 momentum\nsqueeze 2 position\n"
                 f"bs 1 2 t={t}\nassert product\n")
    assert cli.main(["run", str(p), "--engine", engine, "--r", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"{p}:4:8: expected t=0 or t > 1e-24, found 't={t}'\n"


@pytest.mark.parametrize("engine", ["ledger", "covariance"])
def test_run_beamsplitter_just_above_the_prune_floor_is_seen(tmp_path, capsys, engine):
    """``t=0`` stays legal, and the smallest accepted t already breaks ``assert product``."""
    p = tmp_path / "bs.cvq"
    p.write_text("register 2\nsqueeze 1 momentum\nsqueeze 2 position\n"
                 "bs 1 2 t=0\nassert product\nbs 1 2 t=1.1e-24\nassert product\n")
    assert cli.main(["run", str(p), "--engine", engine, "--r", "1"]) == 1
    assert "status: fail (1/2 asserts)" in capsys.readouterr().out


@pytest.mark.parametrize("flag, value", [("--r", "nan"), ("--r", "inf"), ("--seed", "-1")])
def test_run_bad_r_or_seed_is_a_usage_error(capsys, flag, value):
    argv = ["run", script("epr_n2.cvq"), "--engine", "covariance", "--r", "1", "--seed", "7"]
    argv[argv.index(flag) + 1] = value
    with pytest.raises(SystemExit) as err:
        cli.main(argv)
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Traceback" not in captured.err
    assert f"error: argument {flag}: expected a" in captured.err


@pytest.mark.parametrize("argv, where", [
    (["run", script("epr_n2.cvq"), "--engine", "covariance", "--r", "1000"],
     f"{script('epr_n2.cvq')}:5:1: "),
    (["run", script("teleport_step_n3.cvq"), "--engine", "covariance", "--r", "400",
      "--seed", "7"], f"{script('teleport_step_n3.cvq')}:5:1: "),
    (["sweep", "--state", "chain:2", "--combo", "1*x1", "--r", "800"], "<chain:2>:5:1: "),
    (["sweep", "--state", "chain:2", "--combo", "1*x1", "--r", "400"], "<chain:2>:5:1: "),
], ids=["run-overflow", "run-nan-outcome", "sweep-overflow", "sweep-inf-variance"])
def test_large_r_is_a_one_line_diagnostic(capsys, argv, where):
    """Squeezing past float range is a diagnostic, never inf, nan or a traceback."""
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(where)
    assert captured.err.count("\n") == 1
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("engine", [[], ["--engine", "covariance", "--r", "1"]],
                         ids=["ledger", "covariance"])
def test_an_overflowing_variance_is_one_line_and_no_numpy_warning(tmp_path, capsys, engine):
    """The replayed sum w V w overflows at r=355 before the ledger's e^710 does;
    only the ledger's diagnostic is printed (pytest turns a warning into an error)."""
    p = tmp_path / "overflow.cvq"
    p.write_text("register 2\nsqueeze 1 momentum\nsqueeze 2 momentum\nkerr 1 2\n"
                 "print variance 1*x1 + 1*x2 at r=355\n")
    assert cli.main(["run", str(p), *engine]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"{p}:5:1: variance at r=355.0 is not a finite float\n"


def test_an_overflowed_row_is_no_nullifier(tmp_path, capsys):
    """Two 1e300 couplings overflow Y3 to inf on the ledger, so 1*y3 - 2*y3 = -Y3
    holds NaN terms: it is not a nullifier.  The covariance engine stops at the
    first coupling."""
    p = tmp_path / "overflow.cvq"
    p.write_text("register 3\nsqueeze 1 momentum\nsqueeze 2 momentum\nsqueeze 3 momentum\n"
                 "kerr 1 2 g=1e300\nrotate 1 90\nkerr 1 3 g=1e300\nassert nullifier 1*y3 - 2*y3\n")
    assert cli.main(["run", str(p)]) == 1
    assert "line 8: assert nullifier 1*y3 - 2*y3 .. FAIL\n" in capsys.readouterr().out
    assert cli.main(["run", str(p), "--engine", "covariance", "--r", "1"]) == 2
    assert capsys.readouterr().err == (
        f"{p}:5:1: Kerr(l=1, k=2, g=1e+300) at r=1.0 leaves float range; coupling too large\n")


def _record_chain_script(n):
    """Each mode's Y record feeds the next mode's Y: a chain of n - 1 records."""
    lines = [f"register {n}"]
    for m in range(1, n):
        lines += [f"measure y {m} -> m{m}", f"displace y {m + 1} += 1*m{m}"]
    return "\n".join(lines + [f"print variance 1*y{n} at r=1"]) + "\n"


def test_a_deep_record_chain_resolves_on_the_ledger(tmp_path, capsys):
    """Through 1199 chained records y1200 carries all 1200 vacuum momenta:
    variance 1200 * 1/2, with no recursion on the way."""
    p = tmp_path / "deep.cvq"
    p.write_text(_record_chain_script(1200))
    assert cli.main(["run", str(p)]) == 0
    assert "1*y1200,1,600\n" in capsys.readouterr().out


def test_a_record_chain_deeper_than_the_stack_resolves_on_covariance(tmp_path, capsys):
    """The covariance engine resolves the chain the same way.  At 1200 modes its
    1199 homodynes on a 2400 x 2400 matrix take over a minute on a 2-CPU host,
    so a 200-mode chain runs under a recursion limit that a recursive
    resolution of its records would exceed."""
    p = tmp_path / "deep.cvq"
    p.write_text(_record_chain_script(200))
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 100)
    try:
        code = cli.main(["run", str(p), "--engine", "covariance", "--r", "1", "--seed", "7"])
    finally:
        sys.setrecursionlimit(limit)
    assert code == 0
    assert "1*y200,1,100\n" in capsys.readouterr().out


def test_run_measuring_a_quadrature_squeezed_to_nothing_is_positioned(tmp_path, capsys):
    """At r = 20 the momentum-squeezed vacuum has Y variance e^{-40}/2 = 2.12e-18,
    below the homodyne's floor: nothing is left to measure, which is the one
    place SingularMeasurementError is raised."""
    p = tmp_path / "singular.cvq"
    p.write_text("register 1\nsqueeze 1 momentum\nmeasure y 1 -> a\n")
    assert cli.main(["run", str(p), "--engine", "covariance", "--r", "20", "--seed", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"{p}:3:1: quadrature (1, y) has variance 2.12e-18; nothing to measure\n"


def test_run_r_that_is_not_a_number_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as err:
        cli.main(["run", script("epr_n2.cvq"), "--engine", "covariance", "--r", "abc"])
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith(
        "cvcluster run: error: argument --r: expected a finite real, got 'abc'\n")


# ---------------------------------------------------------------------------
# claims
# ---------------------------------------------------------------------------


def test_claims_single_claim_with_details(capsys):
    code = cli.main(["claims", "--only", "chain-rows"])
    out = capsys.readouterr().out
    assert code == 0
    assert "chain-rows" in out
    assert "PASS" in out
    assert "1/1 claims passed" in out


def test_claims_unknown_id_exits_two(capsys):
    assert cli.main(["claims", "--only", "nope"]) == 2
    assert "unknown claim id" in capsys.readouterr().err


def test_claims_only_prints_the_claims_detail_rows(monkeypatch, capsys):
    """The claims before parity only add to the battery, which parity does not
    read; they are left out to keep the test fast."""
    monkeypatch.setattr(claims, "_CLAIMS", (claims._claim_parity,))
    assert cli.main(["claims", "--only", "parity"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[2].split()[:2] == ["parity", "PASS"]
    assert lines[3:13] == [
        f"    family {m} (ring {2 * m}): "
        + ("success" if m % 2 else "infeasible, rank deficiency 1")
        for m in range(3, 13)
    ]
    assert re.fullmatch(r"1/1 claims passed in \d+\.\d\ds", lines[13]) and len(lines) == 14


def test_a_failing_claim_exits_one_and_lists_what_failed(monkeypatch, capsys):
    """Pair extraction made to fail on the two-mode chain; as above, only the
    reported claim runs."""
    extract_pair = protocols.extract_pair

    def failing_on_two_modes(graph, j, k, left=None, right=None):
        report = extract_pair(graph, j, k, left, right)
        if graph.n_vertices == 2:
            report.success, report.details = False, "forced failure"
        return report

    monkeypatch.setattr(protocols, "extract_pair", failing_on_two_modes)
    monkeypatch.setattr(claims, "_CLAIMS", (claims._claim_pair_extraction,))
    assert cli.main(["claims", "--only", "pair-extraction"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[2].split()[:5] == ["pair-extraction", "FAIL", "1332", "extractions,", "1"]
    assert lines[3] == "    N=2 pair (1,2): forced failure"
    assert re.fullmatch(r"0/1 claims passed in \d+\.\d\ds", lines[4]) and len(lines) == 5


class _Terminal(io.StringIO):
    def isatty(self):
        return True


def test_claims_prints_the_same_bytes_to_a_terminal(monkeypatch):
    """No escape codes on a terminal, whatever the environment holds: the
    report's bytes, its closing wall-clock time aside, are a pipe's."""
    monkeypatch.delenv("NO_COLOR", raising=False)
    reports = []
    for stream in (_Terminal(), io.StringIO()):
        monkeypatch.setattr(sys, "stdout", stream)
        assert cli.main(["claims", "--only", "rotated-sets"]) == 0
        reports.append(re.sub(r"in \d+\.\d\ds\n$", "in <t>s\n", stream.getvalue()))
    assert "\x1b[" not in reports[0]
    assert reports[0] == reports[1]


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


def test_sweep_decay_series(capsys):
    code = cli.main([
        "sweep", "--state", "chain:2",
        "--combo", "1*y1 - 1*x2", "--r", "0,0.5,1,2",
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert out.splitlines() == [
        "combo,r,variance",
        "1*y1 - 1*x2,0,0.5",
        "1*y1 - 1*x2,0.5,0.183939720586",
        "1*y1 - 1*x2,1,0.0676676416183",
        "1*y1 - 1*x2,2,0.00915781944437",
    ]


def test_sweep_state_applies_each_tape_gate_once(monkeypatch, capsys):
    """chain:5's tape is 5 squeezes and 4 couplings; only the script run applies them."""
    applied, apply = [], ledger.Register.apply
    monkeypatch.setattr(ledger.Register, "apply",
                        lambda self, gate: applied.append(gate) or apply(self, gate))
    assert cli.main(["sweep", "--state", "chain:5", "--combo", "1*y1 - 1*x2", "--r", "1"]) == 0
    assert applied == protocols.graph_tape(graphs.chain(5))
    assert len(applied) == 9


def test_sweep_empty_r_list_gives_header_only(capsys):
    assert cli.main(["sweep", "--state", "chain:3", "--combo", "1*x1", "--r", ""]) == 0
    assert capsys.readouterr().out == "combo,r,variance\n"


def test_sweep_antisqueezed_combo_grows(capsys):
    assert cli.main(["sweep", "--state", "chain:2", "--combo", "1*x1", "--r", "0,1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[1] == "1*x1,0,0.5"
    assert float(lines[2].split(",")[2]) == pytest.approx(0.5 * 2.718281828459045 ** 2)


def test_sweep_rows_sorted_by_combo_then_r(capsys):
    assert cli.main([
        "sweep", "--state", "chain:2",
        "--combo", "1*y2 - 1*x1", "--combo", "1*y1 - 1*x2", "--r", "1,0",
    ]) == 0
    lines = capsys.readouterr().out.splitlines()[1:]
    keys = [(line.split(",")[0], float(line.split(",")[1])) for line in lines]
    assert keys == sorted(keys)


def test_sweep_from_script_state(capsys):
    code = cli.main([
        "sweep", "--script", script("teleport_step_n3.cvq"),
        "--combo", "1*y1 - 1*x3", "--r", "0.5",
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert out.splitlines()[1] == "1*y1 - 1*x3,0.5,0.183939720586"


def test_sweep_invalid_combo_exits_two(capsys):
    assert cli.main(["sweep", "--state", "chain:2", "--combo", "1*z9", "--r", "1"]) == 2
    assert cli.main(["sweep", "--state", "chain:2", "--combo", "1*x7", "--r", "1"]) == 2


@pytest.mark.parametrize("source", [["--state", "chain:3"], ["--script", script("epr_n2.cvq")]],
                         ids=["state", "script"])
def test_sweep_combo_parse_error_is_positioned_in_the_combo(capsys, source):
    """A bad ``--combo`` is blamed on ``<combo>``, not on the script's line 1 (a comment)."""
    assert cli.main(["sweep", *source, "--combo", "1*q1", "--r", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "<combo>:1:3: expected basis, found 'q1'\n"


@pytest.mark.parametrize("source, n", [(["--state", "chain:3"], 3),
                                       (["--script", script("epr_n2.cvq")], 2)],
                         ids=["state", "script"])
def test_sweep_combo_mode_outside_the_state_is_a_parse_error(capsys, source, n):
    assert cli.main(["sweep", *source, "--combo", "1*y1 - 1*x9", "--r", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"<combo>:1:11: expected mode index in 1..{n}, found '9'\n"
    assert cli.main(["sweep", *source, "--combo", "1*x9", "--r", "1"]) == 2
    assert capsys.readouterr().err == f"<combo>:1:4: expected mode index in 1..{n}, found '9'\n"


def test_sweep_script_runtime_error_is_positioned_as_in_run(tmp_path, capsys):
    bad = tmp_path / "bad.cvq"
    bad.write_text("register 2\nsqueeze 1 momentum\nbs 1 2 t=1.5\n")
    message = f"{bad}:3:1: transmittance must lie in [0, 1], got 1.5\n"
    assert cli.main(["run", str(bad)]) == 2
    assert capsys.readouterr().err == message
    assert cli.main(["sweep", "--script", str(bad), "--combo", "1*x1", "--r", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == message


def test_an_end_of_line_error_points_just_past_the_last_token(tmp_path, capsys):
    """Neither a trailing comment nor trailing whitespace moves the column."""
    p = tmp_path / "short.cvq"
    p.write_text("register 2\nsqueeze 1   # pick a direction\n")
    assert cli.main(["run", str(p)]) == 2
    assert capsys.readouterr().err == f"{p}:2:10: expected 'momentum' or 'position'\n"
    assert cli.main(["sweep", "--state", "chain:3", "--combo", "1*x1 +   ", "--r", "1"]) == 2
    assert capsys.readouterr().err == "<combo>:1:7: expected combo term\n"


def test_sweep_unwritable_output_exits_two(tmp_path, capsys):
    out_path = tmp_path / "missing" / "table.csv"
    argv = ["sweep", "--state", "chain:2", "--combo", "1*x1", "--r", "1", "-o", str(out_path)]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert str(out_path) in captured.err and captured.err.count("\n") == 1


@pytest.mark.parametrize("argv, target, where", [
    (["claims"], (cli.claims_suite, "run_claims"), ""),
    (["sweep", "--state", "chain:2", "--combo", "1*x1", "--r", "1"], (ledger.Register, "combine"),
     "<chain:2>:5:1: "),
    # The script's first combination is its assert on line 9.
    (["sweep", "--script", script("epr_n2.cvq"), "--combo", "1*x1", "--r", "1"],
     (ledger.Register, "combine"), f"{script('epr_n2.cvq')}:9:1: "),
    (["run", script("epr_n2.cvq")], (ledger.Register, "combine"), f"{script('epr_n2.cvq')}:9:1: "),
    (["graph", GRAPH_EDGES, "--protocol", "disentangle"], (ledger.Register, "combine"), ""),
], ids=["claims", "sweep", "sweep-script", "run", "graph"])
def test_a_broken_engine_invariant_is_not_a_usage_error(monkeypatch, capsys, argv, target, where):
    """Exit 2 means usage, I/O or input; a program defect exits 3 with one line,
    positioned at the statement that found it when a script was running."""
    def broken(*args, **kwargs):
        raise InternalConsistencyError("unbalanced commutator terms")

    monkeypatch.setattr(*target, broken)
    assert cli.main(argv) == cli.EXIT_INTERNAL == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"{where}internal error: unbalanced commutator terms\n"


def test_sweep_bad_state_spec_exits_two(capsys):
    assert cli.main(["sweep", "--state", "moon:4", "--combo", "1*x1", "--r", "1"]) == 2
    assert cli.main(["sweep", "--state", "chain", "--combo", "1*x1", "--r", "1"]) == 2


def test_sweep_output_file(tmp_path, capsys):
    out_path = tmp_path / "table.csv"
    code = cli.main([
        "sweep", "--state", "ghz:3", "--combo", "1*x1 + 1*x2 + 1*x3",
        "--r", "0,1", "-o", str(out_path),
    ])
    assert code == 0
    assert capsys.readouterr().out == ""
    lines = out_path.read_text().splitlines()
    assert lines[0] == "combo,r,variance"
    assert lines[1].endswith(",0,1.5")  # three vacuum quadratures at r=0
    assert float(lines[2].split(",")[2]) < 0.25  # squeezed sum decays


# ---------------------------------------------------------------------------
# graph
# ---------------------------------------------------------------------------


def write_edges(tmp_path, name, n, edges):
    p = tmp_path / name
    p.write_text(f"vertices {n}\n" + "".join(f"{a} {b}\n" for a, b in edges))
    return str(p)


def test_graph_star_ghz(tmp_path, capsys):
    path = write_edges(tmp_path, "star.txt", 9, [(1, j) for j in range(2, 10)])
    assert cli.main(["graph", path, "--protocol", "star-ghz"]) == 0
    out = capsys.readouterr().out
    assert "status: success" in out
    assert out.count("\n  ") == 8  # one sum + seven differences


def test_graph_ring_star_even_count_fails_with_deficiency(tmp_path, capsys):
    edges = [(i, i + 1) for i in range(1, 8)] + [(1, 8)]
    edges += [(9, 2), (9, 4), (9, 6), (9, 8)]
    path = write_edges(tmp_path, "ringstar.txt", 9, edges)
    assert cli.main(["graph", path, "--protocol", "ring-star-ghz"]) == 1
    out = capsys.readouterr().out
    assert "status: failed" in out
    assert "deficiency 1" in out


def test_graph_reduce_path(tmp_path, capsys):
    edges = [(1, 2), (2, 3), (1, 4), (4, 5), (5, 3), (2, 5)]
    path = write_edges(tmp_path, "g.txt", 5, edges)
    assert cli.main(["graph", path, "--protocol", "reduce-path", "--a", "1", "--b", "3"]) == 0
    assert "status: success" in capsys.readouterr().out


def test_graph_extract_pair_requires_positions(tmp_path, capsys):
    path = write_edges(tmp_path, "chain.txt", 4, [(1, 2), (2, 3), (3, 4)])
    assert cli.main(["graph", path, "--protocol", "extract-pair"]) == 2
    assert "requires --j and --k" in capsys.readouterr().err
    assert cli.main(["graph", path, "--protocol", "extract-pair", "--j", "2", "--k", "3"]) == 0


@pytest.mark.parametrize("flag, value, message", [
    ("--outer-left", "7", "outer-left helper 7 is not left of the pair (4, 5)"),
    ("--outer-left", "2,2", "outer-left helper 2 is listed twice"),
    ("--outer-right", "5", "outer-right helper 5 is not right of the pair (4, 5)"),
])
def test_graph_extract_pair_rejects_misplaced_helpers(tmp_path, capsys, flag, value, message):
    path = write_edges(tmp_path, "chain7.txt", 7, [(i, i + 1) for i in range(1, 7)])
    args = ["graph", path, "--protocol", "extract-pair", "--j", "4", "--k", "5", flag, value]
    assert cli.main(args) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


def test_graph_failed_extraction_with_solvable_sides_prints_no_rank(tmp_path, capsys):
    path = write_edges(tmp_path, "chain7.txt", 7, [(i, i + 1) for i in range(1, 7)])
    args = ["graph", path, "--protocol", "extract-pair", "--j", "4", "--k", "5", "--outer-left", "3"]
    assert cli.main(args) == 1
    out = capsys.readouterr().out
    assert "status: failed" in out
    assert "rank:" not in out


@pytest.mark.parametrize("value, message", [
    ("2,x", "--measured wants comma-separated integers, got '2,x'"),
    ("7", "measured vertex 7 is not on the ring"),
    ("3,3", "measured vertex 3 is listed twice"),
])
def test_graph_ring_star_rejects_a_bad_measured_list(capsys, value, message):
    path = os.path.join(os.path.dirname(__file__), "golden", "edges", "ringstar3.txt")
    assert cli.main(["graph", path, "--protocol", "ring-star-ghz", "--measured", value]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


EDGES_DIR = os.path.join(os.path.dirname(__file__), "golden", "edges")
# Each protocol: an edge list it runs on, the flags it requires with values, and the
# optional flags it takes with values.  Every other protocol flag is refused.
PROTOCOL_FLAGS = {
    "reduce-path": ("chain6.txt", ["--a", "2", "--b", "5"], []),
    "star-ghz": ("star4.txt", [], []),
    "ring-star-ghz": ("ringstar3.txt", [], ["--measured", "2,4", "--flavor", "total-position"]),
    "extract-pair": ("chain6.txt", ["--j", "4", "--k", "5"],
                     ["--outer-left", "2,1", "--outer-right", "6"]),
    "disconnect": ("chain6.txt", ["--j", "3"], []),
    "disentangle": ("chain6.txt", [], []),
}
# Every protocol flag with a value argparse accepts.
FLAG_VALUES = {"--a": "1", "--b": "2", "--j": "2", "--k": "3", "--measured": "x",
               "--flavor": "total-momentum", "--outer-left": "1", "--outer-right": "y"}


def test_the_protocol_table_names_every_protocol():
    assert sorted(PROTOCOL_FLAGS) == sorted(cli._PROTOCOLS)


@pytest.mark.parametrize("protocol, flag", [
    (protocol, flag) for protocol, (_, required, optional) in PROTOCOL_FLAGS.items()
    for flag in FLAG_VALUES if flag not in required + optional])
def test_graph_refuses_a_flag_the_protocol_does_not_take(capsys, protocol, flag):
    """Refused before any list is parsed (the values here are malformed) and
    before the protocol runs, with one line and nothing on stdout."""
    edges, required, _ = PROTOCOL_FLAGS[protocol]
    argv = ["graph", os.path.join(EDGES_DIR, edges), "--protocol", protocol, *required,
            flag, FLAG_VALUES[flag]]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"protocol {protocol} does not take {flag}\n"


def test_graph_names_every_unread_flag_in_declaration_order(capsys):
    argv = ["graph", GRAPH_EDGES, "--protocol", "disconnect", "--j", "3",
            "--outer-right", "6", "--measured", "2", "--k", "4"]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == (
        "protocol disconnect does not take --k or --measured or --outer-right\n")


@pytest.mark.parametrize("tail, message", [
    (["--j", "4", "--measured", "x"], "protocol extract-pair requires --k"),
    (["--j", "4", "--k", "5", "--outer-right", "y", "--outer-left", "x"],
     "--outer-left wants comma-separated integers, got 'x'"),
    (["--j", "4", "--k", "5", "--outer-right", "3", "--outer-left", "7"],
     "outer-left helper 7 is not left of the pair (4, 5) on the 6-chain"),
])
def test_graph_reports_the_first_fault_in_a_fixed_order(capsys, tail, message):
    """A missing flag, then an unread one, then each list left before right."""
    assert cli.main(["graph", GRAPH_EDGES, "--protocol", "extract-pair", *tail]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [message]


@pytest.mark.parametrize("protocol", sorted(PROTOCOL_FLAGS))
def test_graph_takes_every_flag_the_protocol_reads(capsys, protocol):
    edges, required, optional = PROTOCOL_FLAGS[protocol]
    argv = ["graph", os.path.join(EDGES_DIR, edges), "--protocol", protocol, *required, *optional]
    assert cli.main(argv) in (0, 1)  # the total-position ring-star GHZ has no solution
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out.startswith("protocol: ")


def test_graph_runs_the_protocol_the_module_holds_at_call_time(monkeypatch, capsys):
    """The table names each protocol function and looks it up per call, so a
    patched (or a tracer's wrapped) module attribute is the one that runs."""
    calls, star_to_ghz = [], protocols.star_to_ghz
    monkeypatch.setattr(protocols, "star_to_ghz",
                        lambda graph: calls.append(graph.n_vertices) or star_to_ghz(graph))
    assert cli.main(["graph", os.path.join(EDGES_DIR, "star4.txt"), "--protocol", "star-ghz"]) == 0
    assert calls == [5]
    assert "status: success" in capsys.readouterr().out


def test_graph_star_ghz_rejects_a_non_star(tmp_path, capsys):
    path = write_edges(tmp_path, "hub.txt", 4, [(1, 2), (1, 3), (1, 4), (2, 3)])
    assert cli.main(["graph", path, "--protocol", "star-ghz"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "not a star" in captured.err


def test_graph_reduce_path_between_components_fails(tmp_path, capsys):
    path = write_edges(tmp_path, "split.txt", 4, [(1, 2), (3, 4)])
    assert cli.main(["graph", path, "--protocol", "reduce-path", "--a", "1", "--b", "4"]) == 1
    captured = capsys.readouterr()
    assert captured.out == (
        "protocol: reduce_graph_to_path\n"
        "graph: 4 vertices, 2 edges\n"
        "status: failed\n"
        "details: endpoints are not connected\n"
    )
    assert captured.err == ""


GOLDEN_EDGES = os.path.join(os.path.dirname(__file__), "golden", "edges")


@pytest.mark.parametrize("edges, args, message", [
    ("vertices 4\n1 2\n3 4\n", ["--protocol", "star-ghz"], "graph has no unique hub vertex"),
    ("vertices 4\n1 2\n3 4\n", ["--protocol", "ring-star-ghz"], "graph is not a hub-spoked ring"),
    ("vertices 1\n", ["--protocol", "star-ghz"], "GHZ projection needs at least two leaves"),
    ("ringstar3.txt", ["--protocol", "ring-star-ghz", "--measured", "2,3,4,5,6"],
     "GHZ projection needs at least two survivors"),
    ("chain6.txt", ["--protocol", "reduce-path", "--a", "2", "--b", "2"],
     "path endpoints must differ"),
    ("chain6.txt", ["--protocol", "reduce-path", "--a", "0", "--b", "2"],
     "path endpoints must be vertices"),
])
def test_graph_protocol_refusals_are_one_line(tmp_path, capsys, edges, args, message):
    """``edges`` names a golden edge list, or is one written out here."""
    path = os.path.join(GOLDEN_EDGES, edges)
    if edges.startswith("vertices"):
        path = tmp_path / "graph.txt"
        path.write_text(edges)
    assert cli.main(["graph", str(path), *args]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == message + "\n"


def test_graph_disentangle_and_disconnect(tmp_path, capsys):
    path = write_edges(tmp_path, "chain.txt", 5, [(i, i + 1) for i in range(1, 5)])
    assert cli.main(["graph", path, "--protocol", "disentangle"]) == 0
    assert "partition: {1} | {3} | {5}" in capsys.readouterr().out
    path = write_edges(tmp_path, "chain2.txt", 5, [(i, i + 1) for i in range(1, 5)])
    assert cli.main(["graph", path, "--protocol", "disconnect", "--j", "3"]) == 0


def test_graph_invalid_file_exits_two(tmp_path, capsys):
    p = tmp_path / "loops.txt"
    p.write_text("vertices 3\n2 2\n")
    assert cli.main(["graph", str(p), "--protocol", "star-ghz"]) == 2
    assert "loop edge" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# size limit
# ---------------------------------------------------------------------------

TOO_MANY_MODES = f"{MAX_MODES + 1} modes; at most {MAX_MODES} allowed"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["run", "big.cvq", "--engine", "covariance", "--r", "1"],
         f"big.cvq:1:10: expected mode count at most {MAX_MODES}"),
        (["sweep", "--script", "big.cvq", "--combo", "1*x1", "--r", "1"],
         f"big.cvq:1:10: expected mode count at most {MAX_MODES}"),
        (["graph", "big.txt", "--protocol", "disentangle"],
         f"big.txt:1: vertex count must be at most {MAX_MODES}"),
        (["sweep", "--state", f"chain:{MAX_MODES + 1}", "--combo", "1*x1"], TOO_MANY_MODES),
        (["sweep", "--state", f"bschain:{MAX_MODES + 1}", "--combo", "1*x1"], TOO_MANY_MODES),
        (["sweep", "--state", f"ghz:{MAX_MODES + 1}", "--combo", "1*x1"], TOO_MANY_MODES),
        # a star of L leaves has L + 1 modes, ring-star family m has 2m + 1
        (["sweep", "--state", f"star:{MAX_MODES}", "--combo", "1*x1"], TOO_MANY_MODES),
        (["sweep", "--state", f"ringstar:{MAX_MODES // 2}", "--combo", "1*x1"], TOO_MANY_MODES),
    ],
    ids=["run", "sweep-script", "graph", "chain", "bschain", "ghz", "star", "ringstar"],
)
def test_oversized_input_is_refused_before_allocation(tmp_path, monkeypatch, capsys, argv, message):
    (tmp_path / "big.cvq").write_text(f"register {MAX_MODES + 1}\nsqueeze 1 momentum\n")
    (tmp_path / "big.txt").write_text(f"vertices {MAX_MODES + 1}\n1 2\n")
    monkeypatch.chdir(tmp_path)

    def refuse(self, n):
        raise AssertionError(f"allocated a register of {n} modes")

    monkeypatch.setattr(ledger.Register, "__init__", refuse)
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err
    assert captured.err.count("\n") == 1


def test_python_dash_m_diagnostic_is_one_line(tmp_path):
    """``python -m cvcluster.cli`` prints the diagnostic and nothing else."""
    (tmp_path / "big.cvq").write_text(f"register {MAX_MODES + 1}\n")
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "cvcluster.cli", "run", "big.cvq"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == f"big.cvq:1:10: expected mode count at most {MAX_MODES}, found '{MAX_MODES + 1}'\n"


@pytest.mark.parametrize("argv, code", [
    (["claims", "--only", "rotated-sets"], 0),
    (["run", "missing.cvq"], 2),
])
def test_python_dash_m_cvcluster_runs_the_cli(tmp_path, argv, code):
    """``python -m cvcluster`` is the ``cvcluster`` command, exit codes included."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "cvcluster", *argv],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == code, proc.stderr
    if code == 0:
        assert "1/1 claims passed" in proc.stdout


@pytest.mark.parametrize("argv, line", [
    (["graph", "tests/golden/edges/chain6.txt", "--protocol", "nope"],
     "cvcluster graph: error: argument --protocol: invalid choice: 'nope' (choose from "
     "'reduce-path', 'star-ghz', 'ring-star-ghz', 'extract-pair', 'disconnect', 'disentangle')"),
    (["graph", "tests/golden/edges/chain6.txt", "--protocol", "disconnect", "--j", "x"],
     "cvcluster graph: error: argument --j: invalid int value: 'x'"),
    (["sweep", "--state", "chain:2"],
     "cvcluster sweep: error: the following arguments are required: --combo"),
    (["run", "scenarios/epr_n2.cvq", "--seed", "-1"],
     "cvcluster run: error: argument --seed: expected a non-negative integer, got '-1'"),
    ([], "cvcluster: error: the following arguments are required: subcommand"),
    # An unrecognized argument is refused by the parser that collected it: the
    # top parser before the subcommand, the subcommand's own parser after it.
    (["--bogus", "claims"], "cvcluster: error: unrecognized arguments: --bogus"),
    (["claims", "--bogus"], "cvcluster claims: error: unrecognized arguments: --bogus"),
    (["run", "scenarios/epr_n2.cvq", "extra", "--bogus"],
     "cvcluster run: error: unrecognized arguments: extra --bogus"),
    (["sweep", "--state", "chain:2", "--combo", "1*x1", "--bogus", "1"],
     "cvcluster sweep: error: unrecognized arguments: --bogus 1"),
    (["graph", "tests/golden/edges/chain6.txt", "--protocol", "disentangle", "--bogus"],
     "cvcluster graph: error: unrecognized arguments: --bogus"),
])
def test_an_argparse_usage_error_is_one_stderr_line(argv, line, capsys):
    """No usage block: exit 2, the one line, nothing on stdout."""
    with pytest.raises(SystemExit) as err:
        cli.main(argv)
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == line + "\n"


def test_usage_error_from_argparse(capsys):
    with pytest.raises(SystemExit) as err:
        cli.main(["sweep", "--state", "chain:2"])  # --combo missing
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        cli.main(["sweep", "--state", "chain:2", "--combo", "1*x1", "--r", "nan,inf"])
    assert err.value.code == 2
    assert "error: argument --r: expected comma-separated finite reals" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def test_parser_is_built_once_and_keeps_no_state_between_calls(tmp_path, monkeypatch, capsys):
    assert cli.build_parser() is cli.build_parser()
    seen = []
    for name, command in list(cli._COMMANDS.items()):
        monkeypatch.setitem(cli._COMMANDS, name,
                            lambda args, command=command: seen.append(args) or command(args))
    path = write_edges(tmp_path, "g.txt", 5, [(1, 2), (2, 3), (1, 4), (4, 5), (5, 3), (2, 5)])
    assert cli.main(["graph", path, "--protocol", "reduce-path", "--a", "1", "--b", "3"]) == 0
    chain = write_edges(tmp_path, "chain.txt", 5, [(i, i + 1) for i in range(1, 5)])
    assert cli.main(["graph", chain, "--protocol", "disentangle"]) == 0
    assert cli.main(["run", script("epr_n2.cvq"), "--engine", "covariance", "--r", "1"]) == 0
    assert cli.main(["run", script("epr_n2.cvq")]) == 0
    assert [(a.a, a.b) for a in seen[:2]] == [(1, 3), (None, None)]
    assert [(a.engine, a.r, a.seed) for a in seen[2:]] == [("covariance", 1.0, None), ("ledger", None, None)]
    capsys.readouterr()
    # Usage errors go to whatever stderr is current, not the one the parser was built under.
    earlier = io.StringIO()
    with contextlib.redirect_stderr(earlier), pytest.raises(SystemExit):
        cli.main(["graph", path])
    with pytest.raises(SystemExit) as err:
        cli.main(["run", script("epr_n2.cvq"), "--seed", "-1"])
    assert err.value.code == 2
    assert "the following arguments are required: --protocol" in earlier.getvalue()
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "cvcluster run: error: argument --seed: expected a non-negative integer, got '-1'\n"
