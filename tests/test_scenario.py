"""Script language: parsing, precise diagnostics, execution on both engines."""

import gc
import glob
import math
import os
import re
import time
import weakref

import numpy as np
import pytest

from cvcluster import claims, cli, covariance, gates, graphs, ledger, protocols, scenario
from cvcluster.errors import DomainError, InternalConsistencyError
from cvcluster.gates import MAX_MODES, X, Y
from cvcluster.scenario import (
    GateStmt,
    ParseError,
    RegisterStmt,
    Scenario,
    ScenarioRuntimeError,
    execute,
    load,
    parse,
    parse_combo,
    render_combo,
)

SCRIPT_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "scenarios")
SCRIPTS = sorted(glob.glob(os.path.join(SCRIPT_DIR, "*.cvq")))

BASIC = """\
register 2
squeeze 1 momentum
squeeze 2 momentum
kerr 1 2
assert nullifier 1*y1 - 1*x2
print variance 1*y1 - 1*x2 at r=0,1
"""


def test_corpus_scripts_exist():
    assert len(SCRIPTS) >= 5


# ---------------------------------------------------------------------------
# parsing and rendering
# ---------------------------------------------------------------------------


def test_parse_counts_statements():
    scn = parse(BASIC)
    assert scn.n == 2
    assert len(scn.statements) == 6


@pytest.mark.parametrize("path", SCRIPTS)
def test_round_trip_is_a_fixed_point(path):
    """render(parse(text)) is stable: rendering again changes nothing."""
    text = open(path, encoding="utf-8").read()
    scn = parse(text)
    rendered = scn.render()
    again = parse(rendered).render()
    assert again == rendered


def test_sqrt2_literal_survives_round_trip():
    text = "register 2\nsqueeze 1 momentum\nsqueeze 2 momentum\nassert nullifier sqrt2*x1 - sqrt2*x2\n"
    rendered = parse(text).render()
    assert "sqrt2*x1" in rendered
    assert "- sqrt2*x2" in rendered
    terms = parse(rendered).statements[-1].terms
    assert terms[0].coeff == pytest.approx(math.sqrt(2.0))
    assert terms[1].coeff == pytest.approx(-math.sqrt(2.0))


def test_rotation_forms_render_faithfully():
    text = (
        "register 1\n"
        "rotate 1 -90\n"
        "rotate 1 180\n"
        "rotate 1 -1.5707963267948966rad\n"
        "rotate 1 0.25rad\n"
    )
    assert parse(text).render() == text


def _graph_law_graphs():
    """The graph-law claim's 200 random graphs, drawn as the claim draws them."""
    rng = np.random.default_rng(20260823)
    for _ in range(200):
        n = int(rng.integers(2, 51))
        yield graphs.random_graph(n, float(rng.uniform(0.05, 0.5)), rng)


def _builder_tapes():
    for name, (tape, modes) in cli.STATE_BUILDERS.items():
        for size in range(2, 12):
            yield f"{name}:{size}", modes(size), tape(size)
    for i, g in enumerate(_graph_law_graphs()):
        yield f"graph-law #{i}", g.n_vertices, protocols.graph_tape(g)


def test_a_builder_tape_renders_to_lines_that_parse_and_run_back_to_it():
    """``sweep --state`` runs ``register n`` and one ``GateStmt.of`` line per gate
    of the state's tape: the text parses back to the same statements, and
    executing them applies the builder's gates, gate for gate."""
    for label, n, tape in _builder_tapes():
        scn = Scenario((RegisterStmt(n, line=1, col=1),
                        *(GateStmt.of(g, line) for line, g in enumerate(tape, 2))))
        assert parse(scn.render()) == scn, label
        assert execute(scn).register.history == tape, label


def test_gate_lines_render_every_option_as_the_parser_builds_it():
    tape = [gates.Squeeze(1, "position"), gates.Kerr(1, 2, -2.5), gates.Kerr(2, 1),
            gates.Rotate(2, -math.pi / 2), gates.Beamsplit(2, 1, 1 / 3), gates.Beamsplit(1, 2, 1.0)]
    lines = [GateStmt.of(g, line).render() for line, g in enumerate(tape, 2)]
    assert lines == ["squeeze 1 position", "kerr 1 2 g=-2.5", "kerr 2 1 g=1",
                     "rotate 2 -1.5707963267948966rad", "bs 2 1 t=0.3333333333333333",
                     "bs 1 2 t=1"]


def test_quarter_turn_rad_form_equals_degree_form():
    deg = parse("register 1\nrotate 1 -90\n")
    rad = parse("register 1\nrotate 1 -1.5707963267948966rad\n")
    reg_a = execute(deg).register
    reg_b = execute(rad).register
    for kind in ("x", "y"):
        a = reg_a.quad_expr(1, kind)
        b = reg_b.quad_expr(1, kind)
        assert a == b


def test_parse_combo_standalone():
    terms = parse_combo("1*y1 - 2*x3 + sqrt2*y2", 3)
    assert [t.mode for t in terms] == [1, 3, 2]
    assert terms[1].coeff == -2.0
    assert render_combo(terms) == "1*y1 - 2*x3 + sqrt2*y2"


# ---------------------------------------------------------------------------
# diagnostics
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "text, line, col, expected",
    [
        ("register 2\nsqueeze 1 momentum\nmeasure q 1 -> a\n", 3, 9, "basis"),
        ("squeeze 1 momentum\n", 1, 1, "'register' as the first statement"),
        ("register 2\nregister 3\n", 2, 1, "no second register statement"),
        ("register 0\n", 1, 10, "positive mode count"),
        (f"register {MAX_MODES + 1}\n", 1, 10, f"mode count at most {MAX_MODES}"),
        ("register 2\nsqueeze 3 momentum\n", 2, 9, "mode index in 1..2"),
        ("register 2\nsqueeze 1 sideways\n", 2, 11, "'momentum' or 'position'"),
        ("register 2\nkerr 1 1\n", 2, 8, "a mode distinct from the first"),
        ("register 1\nrotate 1 45deg\n", 2, 10, "-90, 90, 180 or <real>rad"),
        ("register 2\nmeasure x 1 ->\n", 2, 15, "record name"),
        ("register 2\nassert nullifier 1*z1\n", 2, 20, "basis"),
        ("register 2\nprint variance 1*x1\n", 2, 20, "'at'"),
        ("register 1\nsqueeze 1 momentum extra\n", 2, 20, "end of line"),
        ("register 2\nkerr 1 2 g=nan\n", 2, 10, "a finite real"),
        ("register 2\nkerr 1 2 g=1e-13\n", 2, 10, "g=0 or |g| > 1e-12"),
        ("register 2\nbs 1 2 t=1e-25\n", 2, 8, "t=0 or t > 1e-24"),
        ("register 2\nbs 1 2 t=inf\n", 2, 8, "a finite real"),
        ("register 1\nrotate 1 infrad\n", 2, 10, "a finite real"),
        ("register 1\nrotate 1 -nanrad\n", 2, 10, "a finite real"),
        ("register 2\nassert nullifier 1*y1 - nan*x2\n", 2, 25, "a finite real"),
        ("register 2\nmeasure x 1 -> a\ndisplace y 2 += -inf*a\n", 3, 17, "a finite real"),
        ("register 1\nprint variance 1*x1 at r=0,1e999\n", 2, 24, "a finite real"),
        ("register 3\nassert nullifier 1*y1 - 1*x9\n", 2, 28, "mode index in 1..3"),
        ("register 2\nprint variance 1*x3 at r=1\n", 2, 19, "mode index in 1..2"),
        ("# only a comment\n", 1, 1, "'register' statement"),
        ("register 2\nfrobnicate 1\n", 2, 1, "statement keyword"),
        ("register two\n", 1, 10, "mode count"),
        ("register 2\nassert maybe\n", 2, 8, "'nullifier' or 'product'"),
        ("register 2\nprint variance 1*x1 at s=1\n", 2, 24, "r=<comma list>"),
        ("register 2\nmeasure x 1 -> a\ndisplace y 2 += a\n", 3, 17, "coefficient*name"),
        ("register 2\nassert nullifier y1\n", 2, 18, "coefficient*quadrature term"),
        ("register 2\nassert nullifier 1*y1 * 1*x2\n", 2, 23, "'+' or '-'"),
        ("register 2\nassert nullifier 1*xq\n", 2, 21, "mode index"),
        ("register 2\nkerr 1 2 q=1\n", 2, 10, "g=<real>"),
        ("register 2\nmeasure x 1 => a\n", 2, 13, "'->'"),
        ("register 2\nmeasure x 1 -> 1a\n", 2, 16, "record name"),
        ("register 2\nprint varience 1*x1 at r=1\n", 2, 7, "'variance'"),
        ("register 2\nsqueeze one momentum\n", 2, 9, "mode index"),
        ("register 2\nassert nullifier abc*x1\n", 2, 18, "coefficient"),
    ],
)
def test_parse_errors_carry_exact_positions(text, line, col, expected):
    with pytest.raises(ParseError) as err:
        parse(text)
    assert (err.value.line, err.value.col) == (line, col)
    assert err.value.expected == expected
    assert str(err.value).startswith(f"<scenario>:{line}:{col}: expected")
    with pytest.raises(ParseError) as err:
        parse(text, "probe.cvq")
    assert str(err.value).startswith(f"probe.cvq:{line}:{col}: expected")


def test_nan_coupling_cannot_pass_as_a_nullifier():
    """A NaN gate parameter is rejected before any assert can read it."""
    with pytest.raises(ParseError):
        parse("register 2\nsqueeze 1 momentum\nsqueeze 2 momentum\n"
              "kerr 1 2 g=nan\nassert nullifier 1*y1 - 1*x2\n")


def test_record_names_bind_once():
    base = "register 2\nmeasure x 1 -> m\n"
    with pytest.raises(ParseError) as err:
        parse(base + "measure x 2 -> m\n")
    assert err.value.expected == "a name not already bound"
    with pytest.raises(ParseError) as err:
        parse("register 2\ndisplace y 1 += 1*m\n")
    assert err.value.expected == "a bound record name"


def test_gate_domain_errors_surface_at_runtime():
    """Parameter domains belong to the gate layer, reported with positions."""
    scn = parse("register 2\nbs 1 2 t=1.5\n")
    with pytest.raises(ScenarioRuntimeError) as err:
        execute(scn, engine="ledger")
    assert (err.value.line, err.value.col) == (2, 1)


def test_displace_requires_measured_mode_context():
    # displacing with a record is fine only after the name exists
    text = "register 3\nmeasure y 2 -> t\ndisplace x 1 += -1*t\n"
    scn = parse(text)
    assert scn.render() == text


# ---------------------------------------------------------------------------
# execution
# ---------------------------------------------------------------------------


def test_ledger_execution_passes_asserts():
    report = execute(parse(BASIC), engine="ledger")
    assert report.ok
    assert report.asserts_total == 1
    assert any("pass" in e for e in report.events)


def test_huge_rotation_angles_turn_on_both_engines():
    """Quarter turns snap to exact values only where the float grid resolves
    them; a 1e17 rad turn is a real rotation, not the identity."""
    for theta in (1e17, 1e300):
        assert gates.cos_sin(theta) == (math.cos(theta), math.sin(theta))
    quarters = {math.pi / 2: (0.0, 1.0), -math.pi / 2: (0.0, -1.0), math.pi: (-1.0, 0.0),
                3 * math.pi / 2: (0.0, -1.0)}
    for theta, want in quarters.items():
        assert gates.cos_sin(theta) == want
    c, s = math.cos(1e17), math.sin(1e17)
    shifted = covariance.GaussianState(1, np.array([1.0, 0.0]), 0.5 * np.eye(2))
    assert covariance.apply_gate(shifted, gates.Rotate(1, 1e17)).mean.tolist() == [c, -s]
    text = "register 1\nsqueeze 1 momentum\nrotate 1 1e17rad\nprint variance 1*x1 at r=1\n"
    want = 0.5 * (c * c * math.exp(2.0) + s * s * math.exp(-2.0))
    for engine in ("ledger", "covariance"):
        report = execute(parse(text), engine=engine, r=1.0, seed=1)
        assert report.csv_rows[0][2] == pytest.approx(want, rel=1e-12)


TURNED_TELEPORT = """\
register 3
squeeze 1 momentum
squeeze 2 momentum
squeeze 3 momentum
kerr 1 2
kerr 2 3
measure y 2 -> t
rotate 1 90
rotate 1 90
displace x 1 += 1*t
rotate 1 90
assert nullifier 1*y1 + 1*x3
assert nullifier 1*x1 + 1*y3
print variance 1*y1 + 1*x3 at r=0,1
"""


@pytest.mark.parametrize("engine", ["ledger", "covariance"])
def test_a_displacement_between_quarter_turns_keeps_its_sign(engine):
    """After a half turn mode 1 reads (-X_1, -Y_1), so the record t = Y_2 =
    e^{-r} y0_2 + X_1 + X_3 makes its X read e^{-r} y0_2 + X_3; a further turn
    leaves Y = -(e^{-r} y0_2 + X_3) and X = -Y_1 = -(e^{-r} y0_1 + X_2).  The
    covariance engine bridges each assert and print, so both engines check
    the signs."""
    report = execute(parse(TURNED_TELEPORT), engine=engine, r=1.0, seed=7)
    assert report.ok and report.asserts_total == 2
    assert report.csv_rows[0][2] == pytest.approx(0.5)
    assert report.csv_rows[1][2] == pytest.approx(0.5 * math.exp(-2.0))


def test_csv_rows_match_closed_form():
    report = execute(parse(BASIC), engine="ledger")
    assert report.csv_rows[0] == ("1*y1 - 1*x2", 0.0, pytest.approx(0.5))
    assert report.csv_rows[1][2] == pytest.approx(0.5 * math.exp(-2.0))
    assert report.csv().splitlines()[0] == "combo,r,variance"
    assert report.csv().splitlines()[1] == "1*y1 - 1*x2,0,0.5"


def test_failing_assert_reported_not_raised():
    text = "register 2\nsqueeze 1 momentum\nsqueeze 2 momentum\nassert nullifier 1*x1\n"
    report = execute(parse(text), engine="ledger")
    assert not report.ok
    assert report.failures[0][0] == 4


def test_runtime_errors_carry_positions():
    text = "register 2\nmeasure x 1 -> a\nmeasure y 1 -> b\n"
    with pytest.raises(ScenarioRuntimeError) as err:
        execute(parse(text), engine="ledger")
    assert (err.value.line, err.value.col) == (3, 1)


def test_covariance_needs_r():
    with pytest.raises(ScenarioRuntimeError):
        execute(parse(BASIC), engine="covariance")


def test_unknown_engine_rejected():
    with pytest.raises(ScenarioRuntimeError):
        execute(parse(BASIC), engine="tensor")


@pytest.mark.parametrize("path", SCRIPTS)
def test_corpus_runs_green_on_both_engines(path):
    ledger_report = execute(load(path), engine="ledger")
    assert ledger_report.ok, ledger_report.failures
    cov_report = execute(load(path), engine="covariance", r=1.0, seed=7)
    assert cov_report.ok, cov_report.failures


def test_covariance_reports_are_byte_identical_for_a_seed():
    path = SCRIPTS[0]
    a = execute(load(path), engine="covariance", r=0.8, seed=123).render()
    b = execute(load(path), engine="covariance", r=0.8, seed=123).render()
    assert a == b


def test_seeds_change_outcomes_not_variances():
    persistency = [p for p in SCRIPTS if "persistency" in p][0]
    a = execute(load(persistency), engine="covariance", r=1.0, seed=1)
    b = execute(load(persistency), engine="covariance", r=1.0, seed=2)
    assert a.csv_rows == b.csv_rows  # variances are outcome independent
    assert a.events != b.events  # sampled outcomes differ
    assert a.ok and b.ok


def test_print_rows_agree_across_engines():
    """The numeric engine must reproduce the symbolic variance table."""
    for path in SCRIPTS:
        sym = execute(load(path), engine="ledger")
        num = execute(load(path), engine="covariance", r=1.0, seed=5)
        assert len(sym.csv_rows) == len(num.csv_rows)
        for (c1, r1, v1), (c2, r2, v2) in zip(sym.csv_rows, num.csv_rows):
            assert (c1, r1) == (c2, r2)
            assert v1 == pytest.approx(v2, abs=1e-9)


def random_script(rng) -> str:
    """A script whose gates, displacements and asserts follow measurements.

    Gates and combinations only touch modes that are still live, and the
    first statement after the coupling is a measurement, so later statements
    name modes numbered above measured ones: the covariance engine's state
    must keep its numbering through homodyne.
    """
    n = int(rng.integers(3, 6))
    lines = [f"register {n}"]
    lines += [f"squeeze {m} {rng.choice(['momentum', 'position'])}" for m in range(1, n + 1)]
    lines += [f"kerr {m} {m + 1}" for m in range(1, n)]
    live, names = list(range(1, n + 1)), []

    def pick(count):
        return [int(m) for m in rng.choice(live, size=count, replace=False)]

    for step in range(10):
        op = 0 if step == 0 else int(rng.integers(6))
        if op == 0 and len(live) > 2:
            mode = live.pop(int(rng.integers(len(live))))
            names.append(f"m{step}")
            lines.append(f"measure {rng.choice(['x', 'y'])} {mode} -> m{step}")
        elif op == 1 and names:
            coeff = rng.choice(["1", "-1", "sqrt2", repr(float(rng.uniform(-2, 2)))])
            lines.append(f"displace {rng.choice(['x', 'y'])} {pick(1)[0]} += "
                         f"{coeff}*{rng.choice(names)}")
        elif op == 2:
            angle = rng.choice(["90", "-90", "180", f"{float(rng.uniform(-3, 3))!r}rad"])
            lines.append(f"rotate {pick(1)[0]} {angle}")
        elif op == 3:
            l, k = pick(2)
            lines.append(f"bs {l} {k} t={float(rng.uniform(0.1, 0.9))!r}")
        else:
            l, k = pick(2)
            lines.append(f"kerr {l} {k} g={float(rng.uniform(0.2, 1.5))!r}")

    def combo():
        modes = pick(min(3, len(live)))
        return " + ".join(
            f"{float(rng.uniform(-2, 2))!r}*{rng.choice(['x', 'y'])}{m}" for m in modes
        )

    lines.append(f"assert nullifier {combo()}")
    lines.append("assert product")
    lines.append(f"print variance {combo()} at r=0,0.5,1.5")
    return "\n".join(lines) + "\n"


def test_random_scripts_agree_across_engines_and_round_trip():
    """Seeded random scripts with gates after measurements, on both engines."""
    rng = np.random.default_rng(20260)
    for case in range(40):
        scn = parse(random_script(rng))
        assert parse(scn.render()) == scn
        sym = execute(scn, engine="ledger")
        num = execute(scn, engine="covariance", r=1.0, seed=case)
        assert num.asserts_total == sym.asserts_total == 2
        assert num.failures == sym.failures
        assert [e for e in num.events if " .. " in e] == [e for e in sym.events if " .. " in e]
        assert [row[:2] for row in num.csv_rows] == [row[:2] for row in sym.csv_rows]
        for (_, _, v_num), (_, _, v_sym) in zip(num.csv_rows, sym.csv_rows):
            assert v_num == pytest.approx(v_sym, rel=1e-9, abs=1e-9)


def test_bridge_tolerance_scales_with_the_variance():
    """Variances near 1e7 agree to rounding, which exceeds an absolute 1e-9."""
    text = (
        "register 3\n"
        "squeeze 1 momentum\nsqueeze 2 position\nsqueeze 3 momentum\n"
        "kerr 1 2 g=0.7\nbs 2 3 t=0.3\nrotate 1 0.4rad\nkerr 1 3\n"
        "print variance 1*x1 + 1*y2 - 0.5*x3 at r=0,1,4,8\n"
    )
    for engine, r in (("ledger", None), ("covariance", 1.0)):
        report = execute(parse(text), engine=engine, r=r, seed=7)
        assert [row[1] for row in report.csv_rows] == [0, 1, 4, 8]
        assert report.csv_rows[-1][2] == pytest.approx(9226597.801127846)


@pytest.mark.parametrize(
    "name, engine",
    [("basic_at_r10", "ledger"), ("epr_n2.cvq", "covariance"), ("persistency_n4.cvq", "covariance")],
)
def test_large_squeezing_is_not_a_false_disagreement(name, engine):
    """At r=10 the replayed covariance sums terms near 2.4e8 for a variance
    near 1e-9; their rounding is not an engine disagreement."""
    if name == "basic_at_r10":
        report = execute(parse(BASIC.replace("at r=0,1", "at r=10")), engine=engine)
        assert report.csv_rows == [("1*y1 - 1*x2", 10.0, pytest.approx(0.5 * math.exp(-20.0)))]
    else:
        report = execute(load(os.path.join(SCRIPT_DIR, name)), engine=engine, r=10.0, seed=7)
    assert report.failures == []


def test_bridge_still_catches_a_variance_off_by_1e_7(monkeypatch):
    """The scaled allowance stays far below 1e-7 at r=1, in scripts and claims."""
    exact = ledger.variance_formula
    battery = claims.Battery()
    reg = protocols.build_graph_state(graphs.chain(3))
    battery.add("chain(3)", reg, [[(1.0, 1, Y), (-1.0, 2, X)]])
    assert claims._claim_cross_engine(battery).passed
    monkeypatch.setattr(ledger, "variance_formula", lambda expr, r: exact(expr, r) + 1e-7 * (r == 1.0))
    with pytest.raises(InternalConsistencyError, match="engines disagree"):
        execute(parse(BASIC.replace("at r=0,1", "at r=1")), engine="covariance", r=1.0, seed=7)
    assert not claims._claim_cross_engine(battery).passed


def test_overflowing_replay_is_a_squeezing_diagnostic():
    """At r=400 the replayed covariance matrix leaves float range at the first
    squeeze; the print reports that, never an inf or NaN variance."""
    text = (
        "register 2\nsqueeze 1 momentum\nsqueeze 2 momentum\nkerr 1 2\n"
        "print variance 1*y1 - 1*x2 at r=400\n"
    )
    with pytest.raises(ScenarioRuntimeError) as err:
        execute(parse(text))
    assert (err.value.line, err.value.col) == (5, 1)
    assert "Squeeze(mode=1" in err.value.reason
    assert "squeezing too large" in err.value.reason


@pytest.mark.parametrize("engine", ["ledger", "covariance"])
@pytest.mark.parametrize("text, message", [
    ("register 2\nsqueeze 1 momentum\nkerr 1 2\nprint variance 1*y1 - 1*x2 at r=0,1,400\n",
     "Squeeze(mode=1, direction='momentum') at r=400.0 leaves float range; squeezing too large"),
    ("register 2\nsqueeze 1 momentum\nkerr 1 2\nprint variance 1*y1 - 1*x2 at r=400,500\n",
     "Squeeze(mode=1, direction='momentum') at r=400.0 leaves float range; squeezing too large"),
    # Row r=355 fails on the ledger side (e^710) while its covariance replay
    # still fits in float range; r=400 fails in the replay.
    ("register 2\nsqueeze 1 momentum\nprint variance 1*x1 at r=0,355,400\n",
     "variance at r=355.0 is not a finite float"),
    ("register 2\nsqueeze 1 momentum\nprint variance 1*x1 at r=400,355\n",
     "Squeeze(mode=1, direction='momentum') at r=400.0 leaves float range; squeezing too large"),
])
def test_a_failing_print_reports_its_first_failing_row(engine, text, message):
    """The rows are replayed together, but the diagnostic is the one a
    row-by-row replay gives: the first failing row as written."""
    with pytest.raises(ScenarioRuntimeError) as err:
        execute(parse(text), engine=engine, r=1.0, seed=7)
    assert (err.value.line, err.value.col) == (text.count("\n"), 1)
    assert err.value.reason == message


@pytest.mark.parametrize("engine, line", [("ledger", 5), ("covariance", 4)])
def test_an_overflowing_coupling_is_blamed_on_the_coupling(engine, line):
    """g = 1e200 overflows through g squared at r = 1: the covariance engine
    fails at the kerr itself, the ledger engine at the print's replay."""
    text = ("register 2\nsqueeze 1 momentum\nsqueeze 2 momentum\nkerr 1 2 g=1e200\n"
            "print variance 1*y1 at r=1\n")
    with pytest.raises(ScenarioRuntimeError) as err:
        execute(parse(text), engine=engine, r=1.0, seed=7)
    assert (err.value.line, err.value.col) == (line, 1)
    assert err.value.reason == ("Kerr(l=1, k=2, g=1e+200) at r=1.0 leaves float range; "
                                "coupling too large")


def test_a_print_replays_its_tape_once_for_all_rows(monkeypatch):
    """The bridge check of every row reads one stacked replay (the ledger
    engine runs no other covariance replay here)."""
    text = BASIC.replace("at r=0,1", "at r=0,0.5,1,2")
    want = execute(parse(text)).csv_rows
    calls = []
    monkeypatch.setattr(covariance, "apply_tape", lambda *args: calls.append(args))
    assert execute(parse(text)).csv_rows == want
    assert len(want) == 4 and calls == []


TAPE = (
    "register 3\n"
    "squeeze 1 momentum\nsqueeze 2 momentum\nsqueeze 3 momentum\n"
    "kerr 1 2\nkerr 2 3 g=0.7\nrotate 1 0.4rad\n"
)
PRINT_A = "print variance 1*y1 - 1*x2 at r=0,0.5,1,2\n"


def count_replays(monkeypatch):
    calls = []
    replay = covariance.replay
    monkeypatch.setattr(covariance, "replay",
                        lambda n, tape, rs: calls.append(len(tape)) or replay(n, tape, rs))
    return calls


# A chain of five modes: a print's cone holds only the gates its combo reads.
CHAIN = (
    "register 5\n"
    + "".join(f"squeeze {m} momentum\n" for m in range(1, 6))
    + "kerr 1 2\nkerr 2 3\nkerr 3 4\nkerr 4 5\nrotate 5 0.4rad\n"
)
EDGE = "print variance 1*y1 - 1*x2 at r=0,0.5,1,2\n"
MIDDLE = "print variance 1*y3 - 1*x2 - 1*x4 at r=0,0.5,1,2\n"


def record_replays(monkeypatch):
    """Record each ``covariance.replay`` call as (n, tape), and a weak
    reference to each covariance it yields."""
    calls, states = [], []
    replay = covariance.replay

    def spy(n, tape, rs):
        calls.append((n, list(tape)))
        for state in replay(n, tape, rs):
            states.append(weakref.ref(state.cov))
            yield state

    monkeypatch.setattr(covariance, "replay", spy)
    return calls, states


def run_by_statement(text, engine):
    """Execute ``text`` one statement at a time; also return every print row
    as its own ``apply_tape`` replay (or the ledger closed form) gives it."""
    scn = parse(text)
    exe = scenario._Execution(scn, engine, 1.0, 7, "<scenario>")
    want = []
    for stmt in scn.statements:
        if isinstance(stmt, scenario.PrintVarianceStmt):
            parts = scenario.combo_parts(stmt.terms)
            for r in stmt.rs:
                if engine == "covariance":
                    state = covariance.apply_tape(
                        covariance.vacuum_state(exe.reg.n), exe.reg.history, r)
                    weights = covariance.combo_weights(exe.reg.frame_combo(parts))
                    want.append(covariance.variance_of(state, weights))
                else:
                    want.append(ledger.variance_formula(exe.reg.combine(parts), r))
        exe.apply(stmt)
    return exe, want


@pytest.mark.parametrize("engine", ["ledger", "covariance"])
def test_each_print_replays_only_its_cone(monkeypatch, engine):
    """Two prints at one tape point replay their own cones: the squeezes and
    couplings of the modes each combo reads, renumbered onto those modes in
    order, with the values of a row-by-row replay of the whole tape."""
    calls, _ = record_replays(monkeypatch)
    exe, want = run_by_statement(CHAIN + EDGE + MIDDLE, engine)
    sq, kerr = gates.Squeeze, gates.Kerr
    assert calls == [
        (2, [sq(1), sq(2), kerr(1, 2)]),  # y1 reads x2
        (3, [sq(1), sq(2), sq(3), kerr(1, 2), kerr(2, 3)]),  # modes 2, 3, 4: y3 reads x2 and x4
    ]
    assert [v for _, _, v in exe.report.csv_rows] == want
    assert [r for _, r, _ in exe.report.csv_rows] == [0, 0.5, 1, 2] * 2


def gates_with_a_dict(values):
    """The gates among ``values`` whose instance ``__dict__`` exists: ``vars`` builds it,
    and from then on each attribute read and hash of the gate (``gates.placement``'s
    cache key) is slower."""
    return [g for g in values if any(type(ref) is dict for ref in gc.get_referents(g))]


@pytest.mark.parametrize("engine", ["ledger", "covariance"])
def test_a_renumbered_cone_reads_its_gates_without_vars(engine):
    exe, _ = run_by_statement(CHAIN + EDGE + MIDDLE, engine)
    cone = covariance.light_cone(5, exe.reg.history, [(1.0, 3, Y), (-1.0, 2, X)])
    assert cone[0] == 3 and len(cone[3]) == 5  # renumbered
    assert gates_with_a_dict(exe.reg.history + cone[1]) == []


def test_a_gate_statement_reads_its_gate_without_vars():
    tape = protocols.graph_tape(graphs.chain(4))  # the shared ``protocols._gate`` values
    stmts = [scenario.GateStmt.of(gate, line) for line, gate in enumerate(tape, 2)]
    assert (stmts[-1].keyword, stmts[-1].modes) == ("kerr", (3, 4))
    assert gates_with_a_dict(tape) == []


@pytest.mark.parametrize("engine", ["ledger", "covariance"])
def test_a_gate_between_two_prints_replays_again(monkeypatch, engine):
    calls = count_replays(monkeypatch)
    exe, want = run_by_statement(TAPE + PRINT_A + "bs 1 3 t=0.3\n" + PRINT_A, engine)
    assert calls == [6, 7]
    assert [v for _, _, v in exe.report.csv_rows] == want
    assert want[:4] != want[4:]


@pytest.mark.parametrize("engine", ["ledger", "covariance"])
def test_a_displace_brings_its_record_into_the_cone(monkeypatch, engine):
    """A measure or displace leaves the tape as it was, but a displacement
    puts its record in the final-frame combo, and so its mode in the cone."""
    wire = "print variance 1*y2 - 1*x1 at r=0,0.5,1,2\n"
    text = CHAIN + wire + "measure x 4 -> m\n" + wire + "displace y 2 += -1*m\n" + wire
    calls, _ = record_replays(monkeypatch)
    exe, want = run_by_statement(text, engine)
    assert [(n, len(tape)) for n, tape in calls] == [(3, 5), (3, 5), (4, 6)]
    assert [v for _, _, v in exe.report.csv_rows] == want
    assert want[:4] == want[4:8] != want[8:]  # the displacement changed what the wire reads


def test_an_r_list_over_one_chunk_replays_its_cone_and_keeps_no_states(monkeypatch):
    text = (CHAIN + MIDDLE + MIDDLE).replace("at r=0,0.5,1,2", "at r=0,0.25,0.5,1,2")
    want = execute(parse(text), engine="covariance", r=1.0, seed=7).csv_rows
    monkeypatch.setattr(gates, "MAX_MODES", 3)  # a chunk holds one 6x6 state
    calls, states = record_replays(monkeypatch)
    exe, per_row = run_by_statement(text, "covariance")
    assert [(n, len(tape)) for n, tape in calls] == [(3, 5), (3, 5)]
    assert exe.report.csv_rows == want
    assert [v for _, _, v in want] == per_row
    gc.collect()
    assert len(states) == 10 and all(ref() is None for ref in states)


def test_a_failing_print_reports_as_before_and_keeps_nothing(monkeypatch):
    """A print whose cone leaves float range reports the first failing row and
    the first gate of its cone that fails there, replaying the cone row by row
    on the script's modes, whatever follows it, and keeps no state."""
    bad = "print variance 1*y1 - 1*x2 at r=0,1,400\n"
    with pytest.raises(ScenarioRuntimeError) as alone:
        execute(parse(CHAIN + bad))
    with pytest.raises(ScenarioRuntimeError) as err:
        execute(parse(CHAIN + bad + EDGE))
    assert (err.value.line, err.value.col, err.value.reason) == (
        alone.value.line, alone.value.col, alone.value.reason) == (
        CHAIN.count("\n") + 1, 1,
        "Squeeze(mode=1, direction='momentum') at r=400.0 leaves float range; squeezing too large")
    _, states = record_replays(monkeypatch)
    rows = []
    replay = covariance.replay
    monkeypatch.setattr(covariance, "replay",
                        lambda n, tape, rs: rows.append((n, len(tape), list(rs))) or replay(n, tape, rs))
    scn = parse(CHAIN + EDGE + bad + EDGE)
    exe = scenario._Execution(scn, "ledger", None, None, "<scenario>")
    for stmt in scn.statements[:-2]:
        exe.apply(stmt)
    with pytest.raises(DomainError, match=re.escape(alone.value.reason)):
        exe.apply(scn.statements[-2])
    exe.apply(scn.statements[-1])
    # Each print's cone on its 2 modes at every r; the failing one's then on the
    # script's 5 modes one r at a time: r = 0, 1 and 400, where it fails.
    edge = (2, 3, [0.0, 0.5, 1.0, 2.0])
    assert rows == [edge, (2, 3, [0.0, 1.0, 400.0]), (5, 3, [0.0]), (5, 3, [1.0]), (5, 3, [400.0]), edge]
    assert exe.report.csv_rows[:4] == exe.report.csv_rows[4:]
    gc.collect()
    assert len(states) == 10 and all(ref() is None for ref in states)


@pytest.mark.parametrize("engine", ["ledger", "covariance"])
def test_a_row_fails_only_when_its_own_cone_leaves_float_range(engine):
    """A squeeze the combo does not read cannot fail its print at r=400; one
    it reads still fails it as a row-by-row replay of the whole tape does."""
    text = "register 2\nsqueeze 2 momentum\nprint variance 1*x1 at r=0,400\n"
    report = execute(parse(text), engine=engine, r=1.0, seed=7)
    assert report.csv_rows == [("1*x1", 0.0, 0.5), ("1*x1", 400.0, 0.5)]
    text = ("register 2\nsqueeze 1 momentum\nsqueeze 2 momentum\nkerr 1 2\n"
            "print variance 1*y1 - 1*x2 at r=400\n")
    with pytest.raises(ScenarioRuntimeError) as err:
        execute(parse(text), engine=engine, r=1.0, seed=7)
    assert (err.value.line, err.value.col) == (5, 1)
    assert err.value.reason == ("Squeeze(mode=1, direction='momentum') at r=400.0 "
                                "leaves float range; squeezing too large")


@pytest.mark.parametrize("engine", ["ledger", "covariance"])
def test_a_combination_that_cancels_to_nothing_prints_zero(engine):
    """Its final-frame combo is empty, so its cone reads no gate at all."""
    text = "register 2\nsqueeze 1 momentum\nkerr 1 2\nprint variance 1*x1 - 1*x1 at r=0,1\n"
    report = execute(parse(text), engine=engine, r=1.0, seed=7)
    assert [v for _, _, v in report.csv_rows] == [0.0, 0.0]


def test_each_assert_nullifier_replays_its_tape_once(monkeypatch):
    """On the covariance engine an assert is one ``apply_tape`` call; prints
    use ``replay`` and make none."""
    calls = []
    apply_tape = covariance.apply_tape
    monkeypatch.setattr(covariance, "apply_tape",
                        lambda *args: calls.append(args) or apply_tape(*args))
    for path in SCRIPTS:
        with open(path, encoding="utf-8") as fh:
            scn = parse(fh.read())
        asserts = sum(isinstance(s, scenario.AssertNullifierStmt) for s in scn.statements)
        del calls[:]
        execute(scn, engine="covariance", r=1.0, seed=7)
        assert len(calls) == asserts, path


def test_an_engine_disagreement_names_r_both_sides_and_the_allowance():
    """Rounding at g = 1e5 exceeds the allowance; the diagnostic says by how much."""
    text = (
        "register 2\nsqueeze 1 momentum\nsqueeze 2 momentum\nkerr 1 2 g=100000\n"
        "rotate 1 0.3rad\nrotate 1 -0.3rad\nassert nullifier 1*y2 - 100000*x1\n"
    )
    with pytest.raises(InternalConsistencyError) as err:
        execute(parse(text), engine="covariance", r=1.0, seed=7)
    reg = execute(parse(text)).register
    parts = [(1.0, 2, Y), (-100000.0, 1, X)]
    state = covariance.apply_tape(covariance.vacuum_state(2), reg.history, 1.0)
    weights = covariance.combo_weights(reg.frame_combo(parts))
    numeric = covariance.variance_of(state, weights)
    symbolic = ledger.variance_formula(reg.combine(parts), 1.0)
    allowance = covariance.bridge_allowance(state, weights)
    assert abs(numeric - symbolic) > allowance
    assert (err.value.line, err.value.col) == (7, 1)
    assert err.value.reason == (
        f"engines disagree on a variance at r=1.0: covariance {numeric!r}, "
        f"ledger {symbolic!r}, allowance {allowance!r}"
    )


def _fan_in_script(n):
    """A chain whose record of mode m is fed into the momenta of modes m+1 and
    m+2, so each record reaches the last mode by Fibonacci-many paths."""
    lines = [f"register {n}"] + [f"squeeze {m} momentum" for m in range(1, n + 1)]
    lines += [f"kerr {m} {m + 1}" for m in range(1, n)]
    for m in range(1, n):
        lines.append(f"measure y {m} -> a{m}")
        lines += [f"displace y {t} += -1*a{m}" for t in (m + 1, m + 2) if t <= n]
    return "\n".join(lines + [f"print variance 1*y{n} at r=0,0.5"]) + "\n"


def test_fanned_in_records_resolve_once_each():
    """Resolving records one path at a time takes minutes at n = 40; folding
    each record once takes milliseconds.  The print row's bridge checks the
    resolved weights against the covariance engine."""
    started = time.perf_counter()
    report = execute(parse(_fan_in_script(40)))
    assert time.perf_counter() - started < 5.0
    assert [row[:2] for row in report.csv_rows] == [("1*y40", 0.0), ("1*y40", 0.5)]


def test_execute_report_exposes_final_register():
    reg = execute(parse(BASIC)).register
    assert reg.n == 2
    assert reg.active_modes() == [1, 2]


def test_displacement_moves_means_only():
    text = (
        "register 3\n"
        "squeeze 1 momentum\nsqueeze 2 momentum\nsqueeze 3 momentum\n"
        "kerr 1 2\nkerr 2 3\n"
        "measure y 2 -> t\n"
        "displace x 1 += -1*t\n"
        "rotate 1 90\n"
        "assert nullifier 1*y1 - 1*x3\n"
        "print variance 1*y1 - 1*x3 at r=0.5\n"
    )
    r1 = execute(parse(text), engine="covariance", r=0.5, seed=3)
    r2 = execute(parse(text), engine="covariance", r=0.5, seed=33)
    assert r1.csv_rows == r2.csv_rows
    assert r1.ok and r2.ok
