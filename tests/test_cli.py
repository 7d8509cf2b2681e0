"""Command-line interface: subcommands, exit codes, output contracts."""

import os

import pytest

from cvcluster import cli

SCRIPT_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "scenarios")


def script(name):
    return os.path.join(SCRIPT_DIR, name)


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


def test_run_failing_assert_exits_one(tmp_path, capsys):
    p = tmp_path / "fails.cvq"
    p.write_text("register 2\nsqueeze 1 momentum\nsqueeze 2 momentum\nassert nullifier 1*x1\n")
    assert cli.main(["run", str(p)]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_run_covariance_without_r_is_usage_error(capsys):
    code = cli.main(["run", script("chain_rows_n4.cvq"), "--engine", "covariance"])
    assert code == 2
    assert "requires --r" in capsys.readouterr().err


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
    (["sweep", "--state", "chain:2", "--combo", "1*x1", "--r", "800"], ""),
    (["sweep", "--state", "chain:2", "--combo", "1*x1", "--r", "400"], ""),
], ids=["run-overflow", "run-nan-outcome", "sweep-overflow", "sweep-inf-variance"])
def test_large_r_is_a_one_line_diagnostic(capsys, argv, where):
    """Squeezing past float range is a diagnostic, never inf, nan or a traceback."""
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(where)
    assert captured.err.count("\n") == 1
    assert "Traceback" not in captured.err


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


def test_usage_error_from_argparse(capsys):
    with pytest.raises(SystemExit) as err:
        cli.main(["sweep", "--state", "chain:2"])  # --combo missing
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        cli.main(["sweep", "--state", "chain:2", "--combo", "1*x1", "--r", "nan,inf"])
    assert err.value.code == 2
    assert "error: argument --r: expected comma-separated finite reals" in capsys.readouterr().err
