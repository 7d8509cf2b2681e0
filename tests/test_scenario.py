"""Script language: parsing, precise diagnostics, execution on both engines."""

import glob
import math
import os

import numpy as np
import pytest

from cvcluster import scenario
from cvcluster.scenario import (
    ParseError,
    ScenarioRuntimeError,
    execute,
    ledger_register,
    parse,
    parse_combo,
    render_combo,
    run_file,
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
    scn = parse(text, source=path)
    rendered = scn.render()
    again = parse(rendered, source=path).render()
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


def test_quarter_turn_rad_form_equals_degree_form():
    deg = parse("register 1\nrotate 1 -90\n")
    rad = parse("register 1\nrotate 1 -1.5707963267948966rad\n")
    reg_a = ledger_register(deg)
    reg_b = ledger_register(rad)
    for kind in ("x", "y"):
        a = {(t.mode, t.kind, t.exponent): t.coeff for t in reg_a.quad_expr(1, kind).terms()}
        b = {(t.mode, t.kind, t.exponent): t.coeff for t in reg_b.quad_expr(1, kind).terms()}
        assert a == b


def test_parse_combo_standalone():
    terms = parse_combo("1*y1 - 2*x3 + sqrt2*y2")
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
        ("register 2\nsqueeze 3 momentum\n", 2, 9, "mode index in 1..2"),
        ("register 2\nsqueeze 1 sideways\n", 2, 11, "'momentum' or 'position'"),
        ("register 2\nkerr 1 1\n", 2, 8, "a mode distinct from the first"),
        ("register 1\nrotate 1 45deg\n", 2, 10, "-90, 90, 180 or <real>rad"),
        ("register 2\nmeasure x 1 ->\n", 2, 15, "record name"),
        ("register 2\nassert nullifier 1*z1\n", 2, 20, "basis"),
        ("register 2\nprint variance 1*x1\n", 2, 20, "'at'"),
        ("register 1\nsqueeze 1 momentum extra\n", 2, 20, "end of line"),
        ("register 2\nkerr 1 2 g=nan\n", 2, 10, "a finite real"),
        ("register 2\nbs 1 2 t=inf\n", 2, 8, "a finite real"),
        ("register 1\nrotate 1 infrad\n", 2, 10, "a finite real"),
        ("register 1\nrotate 1 -nanrad\n", 2, 10, "a finite real"),
        ("register 2\nassert nullifier 1*y1 - nan*x2\n", 2, 25, "a finite real"),
        ("register 2\nmeasure x 1 -> a\ndisplace y 2 += -inf*a\n", 3, 17, "a finite real"),
        ("register 1\nprint variance 1*x1 at r=0,1e999\n", 2, 24, "a finite real"),
    ],
)
def test_parse_errors_carry_exact_positions(text, line, col, expected):
    with pytest.raises(ParseError) as err:
        parse(text, source="probe.cvq")
    assert (err.value.line, err.value.col) == (line, col)
    assert err.value.expected == expected
    assert err.value.render("probe.cvq").startswith(f"probe.cvq:{line}:{col}: expected")


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
    ledger_report = run_file(path, engine="ledger")
    assert ledger_report.ok, ledger_report.failures
    cov_report = run_file(path, engine="covariance", r=1.0, seed=7)
    assert cov_report.ok, cov_report.failures


def test_covariance_reports_are_byte_identical_for_a_seed():
    path = SCRIPTS[0]
    a = run_file(path, engine="covariance", r=0.8, seed=123).render()
    b = run_file(path, engine="covariance", r=0.8, seed=123).render()
    assert a == b


def test_seeds_change_outcomes_not_variances():
    persistency = [p for p in SCRIPTS if "persistency" in p][0]
    a = run_file(persistency, engine="covariance", r=1.0, seed=1)
    b = run_file(persistency, engine="covariance", r=1.0, seed=2)
    assert a.csv_rows == b.csv_rows  # variances are outcome independent
    assert a.events != b.events  # sampled outcomes differ
    assert a.ok and b.ok


def test_print_rows_agree_across_engines():
    """The numeric engine must reproduce the symbolic variance table."""
    for path in SCRIPTS:
        sym = run_file(path, engine="ledger")
        num = run_file(path, engine="covariance", r=1.0, seed=5)
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
    assert "Squeeze(mode=1" in str(err.value)
    assert "squeezing too large" in str(err.value)


def test_ledger_register_exposes_final_state():
    reg = ledger_register(parse(BASIC))
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
