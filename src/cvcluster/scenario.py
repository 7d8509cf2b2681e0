"""Line-oriented protocol scripts: parse, pretty-print, execute, report.

The grammar is deliberately flat (one statement per line, ``#`` comments) so
scripts diff cleanly and diagnostics are a (line, column) pair:

    register N
    squeeze <m> momentum|position
    kerr <l> <k> [g=<real>]      (g = 0 or |g| > 1e-12, the ledger's prune floor)
    rotate <m> -90|90|180|<real>rad
    bs <l> <k> [t=<real>]        (t = 0 or t > 1e-24, so sqrt(t) clears the prune floor)
    measure x|y <m> -> <name>
    displace y|x <m> += <coeff>*<name>
    assert nullifier <coeff>*x<m>|y<m> [+|- ...]
    assert product
    print variance <combo> at r=<comma list>

Coefficients accept ``sqrt2`` and ``-sqrt2`` so beamsplitter-chain
assertions are exact by construction.  ``rotate <m> -90`` is the local
quarter turn (X, Y) -> (-Y, X) used throughout the correlation sets.

The four gate lines parse to one :class:`GateStmt` (keyword, modes, value,
option text).  Executing it builds the :mod:`gates` value, so an invalid one
such as ``bs 1 2 t=1.5`` fails at run time at its line, and hands that same
value to ``Register.apply`` and, on the covariance engine, ``apply_gate``.

Execution binds to either engine.  The ledger engine is fully symbolic.
The covariance engine needs a numeric ``r``: it samples measurement
outcomes (seeded), conditions the live state, and verifies every variance
it reports against the ledger's closed form — a cross-engine check built
into ordinary script runs.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field

import numpy as np

from . import covariance, gates, ledger
from .errors import CvClusterError, InternalConsistencyError, read_text
from .gates import MAX_MODES, MOMENTUM_SQUEEZED, POSITION_SQUEEZED, PRUNE_TOL, X, Y

SQRT2 = math.sqrt(2.0)


class ParseError(CvClusterError):
    """Rejects a script at a precise position, e.g. ``probe.cvq:3:9: expected basis``."""

    def __init__(self, line: int, col: int, expected: str, found: str):
        self.line = line
        self.col = col
        self.expected = expected
        self.found = found
        super().__init__(self.message)

    @property
    def message(self) -> str:
        found = f", found {self.found!r}" if self.found else ""
        return f"expected {self.expected}{found}"

    def render(self, source: str) -> str:
        return f"{source}:{self.line}:{self.col}: {self.message}"


class ScenarioRuntimeError(CvClusterError):
    """A statement failed while executing; carries its source position."""

    def __init__(self, line: int, col: int, message: str):
        self.line = line
        self.col = col
        super().__init__(message)

    def render(self, source: str) -> str:
        return f"{source}:{self.line}:{self.col}: {self}"


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------


def fmt_num(v: float) -> str:
    """Shortest stable rendering: integers bare, everything else via repr."""
    if v == int(v) and abs(v) < 1e15:
        return str(int(v))
    return repr(v)


def variance_csv(rows) -> str:
    """``combo,r,variance`` text, one line per (combo text, r, variance) row."""
    return "combo,r,variance\n" + "".join(f"{c},{fmt_num(r)},{v:.12g}\n" for c, r, v in rows)


def fmt_coeff(coeff: float, literal: str | None) -> str:
    if literal is not None:
        return literal
    return fmt_num(coeff)


@dataclass(frozen=True)
class ComboTerm:
    coeff: float
    mode: int
    kind: str
    literal: str | None = None  # "sqrt2" / "-sqrt2" when written that way


def render_combo(terms: tuple[ComboTerm, ...]) -> str:
    chunks = []
    for i, t in enumerate(terms):
        if i == 0:
            chunks.append(f"{fmt_coeff(t.coeff, t.literal)}*{t.kind}{t.mode}")
        else:
            mag = fmt_coeff(abs(t.coeff), t.literal.lstrip("-") if t.literal else None)
            chunks.append(f"{'-' if t.coeff < 0 else '+'} {mag}*{t.kind}{t.mode}")
    return " ".join(chunks)


def combo_parts(terms) -> list[tuple[float, int, str]]:
    return [(t.coeff, t.mode, t.kind) for t in terms]


@dataclass(frozen=True)
class Statement:
    line: int = field(kw_only=True)
    col: int = field(kw_only=True)


@dataclass(frozen=True)
class RegisterStmt(Statement):
    n: int

    def render(self):
        return f"register {self.n}"


# Gate statement keyword -> the gate it builds from its modes and value.
_GATES = {"squeeze": gates.Squeeze, "kerr": gates.Kerr, "rotate": gates.Rotate,
          "bs": gates.Beamsplit}


@dataclass(frozen=True)
class GateStmt(Statement):
    """A ``squeeze``/``kerr``/``rotate``/``bs`` line; ``value`` is the gate's
    last field (direction, g, angle in radians or t) and ``option`` the text
    rendered after the modes ("" when an optional value was left out)."""

    keyword: str
    modes: tuple[int, ...]
    value: object
    option: str

    def render(self):
        return " ".join([self.keyword, *map(str, self.modes), self.option]).rstrip()


@dataclass(frozen=True)
class MeasureStmt(Statement):
    kind: str
    mode: int
    name: str

    def render(self):
        return f"measure {self.kind} {self.mode} -> {self.name}"


@dataclass(frozen=True)
class DisplaceStmt(Statement):
    kind: str
    mode: int
    coeff: float
    name: str
    literal: str | None = None

    def render(self):
        return f"displace {self.kind} {self.mode} += {fmt_coeff(self.coeff, self.literal)}*{self.name}"


@dataclass(frozen=True)
class AssertNullifierStmt(Statement):
    terms: tuple[ComboTerm, ...]

    def render(self):
        return f"assert nullifier {render_combo(self.terms)}"


@dataclass(frozen=True)
class AssertProductStmt(Statement):
    def render(self):
        return "assert product"


@dataclass(frozen=True)
class PrintVarianceStmt(Statement):
    terms: tuple[ComboTerm, ...]
    rs: tuple[float, ...]

    def render(self):
        rlist = ",".join(fmt_num(r) for r in self.rs)
        return f"print variance {render_combo(self.terms)} at r={rlist}"


@dataclass(frozen=True)
class Scenario:
    statements: tuple[Statement, ...]

    @property
    def n(self) -> int:
        return self.statements[0].n

    def render(self) -> str:
        return "\n".join(s.render() for s in self.statements) + "\n"


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Tok:
    text: str
    col: int


def _tokenize(line: str) -> list[_Tok]:
    body = line.split("#", 1)[0]
    return [_Tok(m.group(), m.start() + 1) for m in re.finditer(r"\S+", body)]


class _LineParser:
    def __init__(self, lineno: int, toks: list[_Tok], line_len: int):
        self.lineno = lineno
        self.toks = toks
        self.pos = 0
        self.end_col = line_len + 1

    def peek(self) -> _Tok | None:
        return self.toks[self.pos] if self.pos < len(self.toks) else None

    def take(self, expected: str) -> _Tok:
        tok = self.peek()
        if tok is None:
            raise ParseError(self.lineno, self.end_col, expected, "")
        self.pos += 1
        return tok

    def fail(self, tok: _Tok, expected: str):
        raise ParseError(self.lineno, tok.col, expected, tok.text)

    def done(self):
        tok = self.peek()
        if tok is not None:
            self.fail(tok, "end of line")

    # -- typed takes ------------------------------------------------------

    def take_int(self, expected: str) -> tuple[int, _Tok]:
        tok = self.take(expected)
        try:
            return int(tok.text), tok
        except ValueError:
            self.fail(tok, expected)

    def real(self, text: str, col: int, expected: str, found: str) -> float:
        """The grammar's one float path: NaN and infinities are parse errors."""
        try:
            value = float(text)
        except ValueError:
            raise ParseError(self.lineno, col, expected, found) from None
        if not math.isfinite(value):
            raise ParseError(self.lineno, col, "a finite real", found)
        return value

    def take_keyword(self, word: str):
        tok = self.take(f"'{word}'")
        if tok.text != word:
            self.fail(tok, f"'{word}'")

    def take_basis(self) -> _Tok:
        tok = self.take("basis")
        if tok.text not in (X, Y):
            self.fail(tok, "basis")
        return tok


def _parse_coeff(p: _LineParser, text: str, col: int) -> tuple[float, str | None]:
    if text == "sqrt2":
        return SQRT2, "sqrt2"
    if text == "-sqrt2":
        return -SQRT2, "-sqrt2"
    return p.real(text, col, "coefficient", text), None


def _parse_combo_term(p: _LineParser, tok: _Tok, sign: float, n_modes: int | None) -> ComboTerm:
    if "*" not in tok.text:
        p.fail(tok, "coefficient*quadrature term")
    coeff_text, quad_text = tok.text.split("*", 1)
    coeff, literal = _parse_coeff(p, coeff_text, tok.col)
    quad_col = tok.col + len(coeff_text) + 1
    if not quad_text or quad_text[0] not in (X, Y):
        raise ParseError(p.lineno, quad_col, "basis", quad_text)
    try:
        mode = int(quad_text[1:])
    except ValueError:
        raise ParseError(p.lineno, quad_col + 1, "mode index", quad_text[1:])
    if n_modes is not None and not 1 <= mode <= n_modes:
        raise ParseError(p.lineno, quad_col + 1, f"mode index in 1..{n_modes}", str(mode))
    if sign < 0:
        coeff = -coeff
        literal = {None: None, "sqrt2": "-sqrt2", "-sqrt2": "sqrt2"}[literal]
    return ComboTerm(coeff, mode, quad_text[0], literal)


def _parse_combo(
    p: _LineParser, n_modes: int | None, stop_word: str | None = None
) -> tuple[ComboTerm, ...]:
    """Terms up to ``stop_word`` or the end of the line; modes must lie in
    1..``n_modes`` unless it is None."""
    terms = [_parse_combo_term(p, p.take("combo term"), 1.0, n_modes)]
    while True:
        tok = p.peek()
        if tok is None or (stop_word is not None and tok.text == stop_word):
            break
        sep = p.take("'+' or '-'")
        if sep.text not in ("+", "-"):
            p.fail(sep, "'+' or '-'")
        sign = 1.0 if sep.text == "+" else -1.0
        terms.append(_parse_combo_term(p, p.take("combo term"), sign, n_modes))
    return tuple(terms)


def parse_combo(text: str) -> tuple[ComboTerm, ...]:
    """Parse a standalone combination with the statement-level syntax.

    ``1*y1 - 1*x3`` and friends; positions in raised errors use line 1.
    Mode indices are not range-checked here (no register to check against).
    """
    p = _LineParser(1, _tokenize(text), len(text))
    terms = _parse_combo(p, None)
    p.done()
    return terms


# Two-mode gate statements: option prefix, default value.
_TWO_MODE = {"kerr": ("g=", 1.0), "bs": ("t=", 0.5)}


def parse(text: str) -> Scenario:
    """Parse a script; raises :class:`ParseError` at the first problem.

    Also enforces the static invariants: exactly one ``register`` statement
    and it comes first, mode indices within range, measurement names bound
    before use and never rebound.
    """
    statements: list[Statement] = []
    n_modes: int | None = None
    names: set[str] = set()

    for lineno, raw in enumerate(text.splitlines(), start=1):
        toks = _tokenize(raw)
        if not toks:
            continue
        p = _LineParser(lineno, toks, len(raw.rstrip()))
        head = p.take("statement")

        def mode_tok(expected="mode index") -> int:
            m, tok = p.take_int(expected)
            if n_modes is None or not 1 <= m <= n_modes:
                p.fail(tok, f"mode index in 1..{n_modes}")
            return m

        if head.text == "register":
            if n_modes is not None:
                p.fail(head, "no second register statement")
            n, tok = p.take_int("mode count")
            if n < 1:
                p.fail(tok, "positive mode count")
            if n > MAX_MODES:
                p.fail(tok, f"mode count at most {MAX_MODES}")
            n_modes = n
            stmt = RegisterStmt, n
        elif n_modes is None:
            p.fail(head, "'register' as the first statement")
        elif head.text == "squeeze":
            m = mode_tok()
            d = p.take("'momentum' or 'position'")
            if d.text not in (MOMENTUM_SQUEEZED, POSITION_SQUEEZED):
                p.fail(d, "'momentum' or 'position'")
            stmt = GateStmt, "squeeze", (m,), d.text, d.text
        elif head.text in _TWO_MODE:
            prefix, value = _TWO_MODE[head.text]
            l = mode_tok()
            k = mode_tok()
            if l == k:
                p.fail(p.toks[p.pos - 1], "a mode distinct from the first")
            option = ""
            tok = p.peek()
            if tok is not None:
                if not tok.text.startswith(prefix):
                    p.fail(tok, f"{prefix}<real>")
                value = p.real(tok.text[len(prefix):], tok.col, f"{prefix}<real>", tok.text)
                if head.text == "kerr" and 0 < abs(value) <= PRUNE_TOL:  # the ledger would prune it
                    p.fail(tok, f"g=0 or |g| > {PRUNE_TOL:g}")
                if head.text == "bs" and 0 < value <= PRUNE_TOL**2:  # ... or sqrt(t)
                    p.fail(tok, f"t=0 or t > {PRUNE_TOL**2:g}")
                option = f"{prefix}{fmt_num(value)}"
                p.pos += 1
            stmt = GateStmt, head.text, (l, k), value, option
        elif head.text == "rotate":
            m = mode_tok()
            tok = p.take("-90, 90, 180 or <real>rad")
            if tok.text in ("-90", "90", "180"):
                theta, option = math.radians(int(tok.text)), tok.text
            elif tok.text.endswith("rad"):
                theta = p.real(tok.text[:-3], tok.col, "-90, 90, 180 or <real>rad", tok.text)
                option = f"{theta!r}rad"
            else:
                p.fail(tok, "-90, 90, 180 or <real>rad")
            stmt = GateStmt, "rotate", (m,), theta, option
        elif head.text == "measure":
            basis = p.take_basis()
            m = mode_tok()
            p.take_keyword("->")
            name = p.take("record name")
            if not name.text.isidentifier():
                p.fail(name, "record name")
            if name.text in names:
                p.fail(name, "a name not already bound")
            names.add(name.text)
            stmt = MeasureStmt, basis.text, m, name.text
        elif head.text == "displace":
            basis = p.take_basis()
            m = mode_tok()
            p.take_keyword("+=")
            tok = p.take("coefficient*name")
            if "*" not in tok.text:
                p.fail(tok, "coefficient*name")
            coeff_text, name_text = tok.text.split("*", 1)
            coeff, literal = _parse_coeff(p, coeff_text, tok.col)
            if name_text not in names:
                raise ParseError(
                    p.lineno, tok.col + len(coeff_text) + 1, "a bound record name", name_text
                )
            stmt = DisplaceStmt, basis.text, m, coeff, name_text, literal
        elif head.text == "assert":
            what = p.take("'nullifier' or 'product'")
            if what.text == "nullifier":
                stmt = AssertNullifierStmt, _parse_combo(p, n_modes)
            elif what.text == "product":
                stmt = (AssertProductStmt,)
            else:
                p.fail(what, "'nullifier' or 'product'")
        elif head.text == "print":
            p.take_keyword("variance")
            terms = _parse_combo(p, n_modes, stop_word="at")
            p.take_keyword("at")
            tok = p.take("r=<comma list>")
            if not tok.text.startswith("r="):
                p.fail(tok, "r=<comma list>")
            rs = tuple(
                p.real(x, tok.col, "r=<comma list>", tok.text) for x in tok.text[2:].split(",")
            )
            stmt = PrintVarianceStmt, terms, rs
        else:
            p.fail(head, "statement keyword")
        p.done()
        cls, *fields = stmt
        statements.append(cls(*fields, line=lineno, col=head.col))

    if n_modes is None:
        raise ParseError(1, 1, "'register' statement", "")
    return Scenario(tuple(statements))


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------


@dataclass
class RunReport:
    source: str
    engine: str
    r: float | None
    seed: int | None
    statements: int
    events: list[str] = field(default_factory=list)
    failures: list[tuple[int, str]] = field(default_factory=list)
    csv_rows: list[tuple[str, float, float]] = field(default_factory=list)
    asserts_total: int = 0

    @property
    def ok(self) -> bool:
        return not self.failures

    def csv(self) -> str:
        return variance_csv(self.csv_rows)

    def render(self) -> str:
        passed = self.asserts_total - len(self.failures)
        lines = [
            f"scenario: {self.source}",
            f"engine: {self.engine}",
            f"r: {'-' if self.r is None else fmt_num(self.r)}",
            f"seed: {'-' if self.seed is None else self.seed}",
            f"statements: {self.statements}",
        ]
        lines += self.events
        if self.csv_rows:
            lines.append("csv:")
            lines.append(self.csv().rstrip("\n"))
        lines.append(
            f"status: {'pass' if self.ok else 'fail'} "
            f"({passed}/{self.asserts_total} asserts)"
        )
        return "\n".join(lines) + "\n"


LEDGER = "ledger"
COVARIANCE = "covariance"


def execute(
    scn: Scenario,
    engine: str = LEDGER,
    r: float | None = None,
    seed: int | None = None,
    source: str = "<scenario>",
) -> RunReport:
    """Run a scenario and collect assertion results and variance rows.

    The ledger engine is exact and needs no ``r``.  The covariance engine
    conditions a numeric Gaussian state: measurement outcomes are drawn
    from the prior marginal (deterministically under ``seed``), displacements
    move means, and every reported variance is recomputed from the gate tape
    and checked against the ledger's closed form.  Prints at one tape point
    with the same r list share one stacked replay; each ``assert nullifier``
    replays its tape once.
    """
    return _run(scn, engine, r, seed, source).report


def ledger_register(scn: Scenario) -> ledger.Register:
    """Execute on the exact engine and return the finished register.

    For callers that want to evaluate further combinations against the state
    a script builds (the command-line sweep does this).
    """
    return _run(scn, LEDGER, None, None, "<scenario>").reg


def _run(scn, engine, r, seed, source) -> "_Execution":
    if engine not in (LEDGER, COVARIANCE):
        raise ScenarioRuntimeError(1, 1, f"unknown engine {engine!r}")
    if engine == COVARIANCE and r is None:
        raise ScenarioRuntimeError(1, 1, "covariance engine requires numeric r")
    exe = _Execution(scn, engine, r, seed, source)
    for stmt in scn.statements:
        try:
            exe.apply(stmt)
        except CvClusterError as err:
            raise ScenarioRuntimeError(stmt.line, stmt.col, str(err)) from err
    return exe


class _Execution:
    def __init__(self, scn, engine, r, seed, source):
        self.engine = engine
        self.r = r
        self.reg = ledger.Register(scn.n)
        self.names: dict[str, ledger.MeasurementRecord] = {}
        self.report = RunReport(source, engine, r, seed, len(scn.statements))
        self.state = None
        self.outcomes: dict[str, float] = {}
        self.printed: dict[tuple, list] = {}  # the last print's states by (len(history), rs)
        if engine == COVARIANCE:
            self.state = covariance.vacuum_state(scn.n)
            self.rng = np.random.default_rng(seed)

    # -- engine plumbing ---------------------------------------------------

    def _replay_variances(self, parts, expr, rs, states=None) -> list[float]:
        """Variances of a (possibly displaced) combo, ledger expression ``expr``, at each
        r, two independent ways; the tape is replayed unless ``states`` are its replays."""
        combo = self.reg.frame_combo(parts)
        weights = covariance.combo_weights(combo)
        if states is None:
            vacuum = covariance.vacuum_state(self.reg.n)
            states = (covariance.apply_tape(vacuum, self.reg.history, r) for r in rs)
        values = []
        for r, state in zip(rs, states):
            numeric = covariance.variance_of(state, combo, weights)
            symbolic = ledger.variance_formula(expr, r)
            if not covariance.bridge_agrees(state, combo, numeric, symbolic, weights):
                raise InternalConsistencyError(
                    f"engines disagree on a variance at r={r!r}: covariance {numeric!r}, "
                    f"ledger {symbolic!r}, allowance {covariance.bridge_allowance(state, combo, weights)!r}"
                )
            values.append(numeric if self.engine == COVARIANCE else symbolic)
        return values

    # -- statements --------------------------------------------------------

    def apply(self, stmt: Statement):
        name = type(stmt).__name__
        getattr(self, f"_do_{name}")(stmt)

    def _do_RegisterStmt(self, stmt):
        pass  # the register was allocated up front

    def _do_GateStmt(self, stmt):
        gate = _GATES[stmt.keyword](*stmt.modes, stmt.value)
        self.reg.apply(gate)
        if self.engine == COVARIANCE:
            covariance.apply_gate(self.state, gate, self.r)

    def _do_MeasureStmt(self, stmt):
        rec = self.reg.measure(stmt.mode, stmt.kind)
        self.names[stmt.name] = rec
        note = ""
        if self.engine == COVARIANCE:
            res = covariance.homodyne(self.state, stmt.mode, stmt.kind, rng=self.rng)
            self.state = res.state
            self.outcomes[stmt.name] = res.outcome
            note = f" = {res.outcome:.12g}"
        self.report.events.append(
            f"line {stmt.line}: measure {stmt.kind} {stmt.mode} -> {stmt.name}{note}"
        )

    def _do_DisplaceStmt(self, stmt):
        rec = self.names[stmt.name]
        self.reg.displace_with(stmt.mode, stmt.kind, stmt.coeff, rec)
        if self.engine == COVARIANCE:
            q = covariance.quad_index(stmt.mode, stmt.kind)
            self.state.mean[q] += stmt.coeff * self.outcomes[stmt.name]

    def _do_AssertNullifierStmt(self, stmt):
        parts = combo_parts(stmt.terms)
        expr = self.reg.combine(parts)
        ok = ledger.is_nullifier(expr)
        if self.engine == COVARIANCE:
            # Nullifier status is symbolic; the numeric engine contributes a
            # consistency check of the same combination's variance at run r.
            self._replay_variances(parts, expr, (self.r,))
        self._record_assert(stmt, f"assert nullifier {render_combo(stmt.terms)}", ok)

    def _do_AssertProductStmt(self, stmt):
        partition = self.reg.product_partition()
        ok = all(len(block) == 1 for block in partition)
        if self.engine == COVARIANCE and ok:
            ok = covariance.is_mode_product(self.state)
        self._record_assert(stmt, "assert product", ok)

    def _do_PrintVarianceStmt(self, stmt):
        combo_text = render_combo(stmt.terms)
        parts = combo_parts(stmt.terms)
        expr = self.reg.combine(parts)
        key = (len(self.reg.history), stmt.rs)  # only gates grow history
        states, self.printed = self.printed.get(key), {}  # drop a stale stack before replaying
        try:
            if states is None:
                states = covariance.replay(self.reg.n, self.reg.history, stmt.rs)
            if len(stmt.rs) * (2 * self.reg.n) ** 2 <= (2 * gates.MAX_MODES) ** 2:
                states = self.printed[key] = list(states)  # one chunk, already in memory
            values = self._replay_variances(parts, expr, stmt.rs, states)
        except CvClusterError:
            # Report what a row-by-row replay reports: the first failing row.
            values = self._replay_variances(parts, expr, stmt.rs)
        self.report.csv_rows += [(combo_text, rv, v) for rv, v in zip(stmt.rs, values)]
        self.report.events.append(
            f"line {stmt.line}: print variance {combo_text} ({len(stmt.rs)} rows)"
        )

    def _record_assert(self, stmt, text: str, ok: bool):
        self.report.asserts_total += 1
        self.report.events.append(
            f"line {stmt.line}: {text} .. {'pass' if ok else 'FAIL'}"
        )
        if not ok:
            self.report.failures.append((stmt.line, text))


def load(path) -> Scenario:
    """Read and parse a ``.cvq`` file (UTF-8, LF or CRLF)."""
    return parse(read_text(path))


def run_file(path, engine: str = LEDGER, r: float | None = None, seed: int | None = None) -> RunReport:
    """Load and execute a ``.cvq`` file."""
    return execute(load(path), engine=engine, r=r, seed=seed, source=str(path))
