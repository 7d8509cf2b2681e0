"""Line-oriented protocol scripts: parse, pretty-print, execute, report.

The grammar is deliberately flat (one statement per line, ``#`` comments) so
scripts diff cleanly.  A rejected script raises an :class:`InputError` that
reads ``source:line:col: reason``; the source is the file for :func:`load`,
``<scenario>`` (or the ``source`` argument) for :func:`parse` and
:func:`execute`, and ``<combo>`` for :func:`parse_combo`.  A line ends at
LF, CRLF or CR and nowhere else: a form feed, NEL or U+2028 inside a line is
whitespace between tokens, like a tab or U+3000.  A file may start with a
UTF-8 byte order mark, which :func:`load` drops.  The statements:

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
from dataclasses import dataclass, field

import numpy as np

from . import covariance, gates, ledger
from .errors import (CvClusterError, DomainError, InputError, InternalConsistencyError, read_text,
                     split_lines)
from .gates import MAX_MODES, MOMENTUM_SQUEEZED, POSITION_SQUEEZED, PRUNE_TOL, X, Y

SQRT2 = math.sqrt(2.0)


class ParseError(InputError):
    """Rejects a script at a precise position, e.g. ``probe.cvq:3:9: expected basis``."""

    def __init__(self, source: str, line: int, col: int, expected: str, found: str):
        self.expected, self.found = expected, found
        super().__init__(source, line, col,
                         f"expected {expected}" + (f", found {found!r}" if found else ""))


class ScenarioRuntimeError(InputError):
    """A statement failed while executing, at the statement's position."""


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------


def fmt_num(v: float) -> str:
    """Shortest stable rendering: integers bare, everything else via repr."""
    if v == int(v) and abs(v) < 1e15:
        return str(int(v))
    return repr(v)


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
            chunks.append(f"{t.literal or fmt_num(t.coeff)}*{t.kind}{t.mode}")
        else:
            mag = t.literal.lstrip("-") if t.literal else fmt_num(abs(t.coeff))
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
_KEYWORDS = {gate: keyword for keyword, gate in _GATES.items()}


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

    @classmethod
    def of(cls, gate: gates.Gate, line: int) -> GateStmt:
        """The line the parser reads back as ``gate``, with the option text it builds."""
        keyword = _KEYWORDS[type(gate)]
        modes, value = gates.modes(gate), gates.value(gate)
        option = (f"{_TWO_MODE[keyword][0]}{fmt_num(value)}" if keyword in _TWO_MODE
                  else f"{value!r}rad" if keyword == "rotate" else value)
        return cls(keyword, modes, value, option, line=line, col=1)


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
        return f"displace {self.kind} {self.mode} += {self.literal or fmt_num(self.coeff)}*{self.name}"


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


class _Parser:
    """One parse of ``source``: the register size, the bound record names, and
    the current line's whitespace-split tokens with the read position in them."""

    __slots__ = ("source", "n_modes", "names", "lineno", "body", "toks", "pos", "cols")

    def __init__(self, source: str, n_modes: int | None = None):
        self.source, self.n_modes = source, n_modes
        self.names: set[str] = set()

    def start(self, lineno: int, raw: str) -> list[str]:
        """Make ``raw`` without its comment the current line."""
        self.lineno, self.body = lineno, raw.partition("#")[0]
        self.toks, self.pos, self.cols = self.body.split(), 0, None
        return self.toks

    def col(self, i: int) -> int:
        """The 1-based column of token ``i``, for a diagnostic.  The columns are
        found on the first call, each with ``str.find`` from the end of the
        token before it."""
        if self.cols is None:
            self.cols, at = [], 0
            for tok in self.toks:
                at = self.body.find(tok, at)
                self.cols.append(at + 1)
                at += len(tok)
        return self.cols[i]

    def take(self, expected: str) -> str:
        pos = self.pos
        if pos == len(self.toks):  # point just past the last token
            raise ParseError(self.source, self.lineno, len(self.body.rstrip()) + 1, expected, "")
        self.pos = pos + 1
        return self.toks[pos]

    def fail(self, expected: str, back: int = 1, offset: int = 0, found: str | None = None):
        """Reject the token ``back`` places before the read position (the one
        just taken by default), or its part ``found`` that starts ``offset``
        characters into it."""
        i = self.pos - back
        found = self.toks[i] if found is None else found
        raise ParseError(self.source, self.lineno, self.col(i) + offset, expected, found)

    def done(self):
        if self.pos < len(self.toks):
            self.fail("end of line", back=0)

    def integer(self, expected: str) -> int:
        try:
            return int(self.take(expected))
        except ValueError:
            self.fail(expected)

    def mode(self) -> int:
        m = self.integer("mode index")
        if not 1 <= m <= self.n_modes:
            self.fail(f"mode index in 1..{self.n_modes}")
        return m

    def real(self, text: str, expected: str, found: str) -> float:
        """The grammar's one float path, for a part of the token just taken
        that starts where it does: NaN and infinities are parse errors."""
        try:
            value = float(text)
        except ValueError:
            self.fail(expected, found=found)
        if not math.isfinite(value):
            self.fail("a finite real", found=found)
        return value

    def keyword(self, word: str):
        if self.take(f"'{word}'") != word:
            self.fail(f"'{word}'")

    def basis(self) -> str:
        tok = self.take("basis")
        if tok not in (X, Y):
            self.fail("basis")
        return tok

    def coeff(self, text: str) -> tuple[float, str | None]:
        if text in _LITERALS:
            return _LITERALS[text], text
        return self.real(text, "coefficient", text), None

    def term(self, sign: float) -> ComboTerm:
        tok = self.take("combo term")
        if "*" not in tok:
            self.fail("coefficient*quadrature term")
        coeff_text, quad = tok.split("*", 1)
        coeff, literal = self.coeff(coeff_text)
        at = len(coeff_text) + 1  # where the quadrature starts in the token
        if not quad or quad[0] not in (X, Y):
            self.fail("basis", offset=at, found=quad)
        try:
            mode = int(quad[1:])
        except ValueError:
            self.fail("mode index", offset=at + 1, found=quad[1:])
        if not 1 <= mode <= self.n_modes:
            self.fail(f"mode index in 1..{self.n_modes}", offset=at + 1, found=str(mode))
        if sign < 0:
            coeff = -coeff
            literal = {None: None, "sqrt2": "-sqrt2", "-sqrt2": "sqrt2"}[literal]
        return ComboTerm(coeff, mode, quad[0], literal)

    def combo(self, stop_word: str | None = None) -> tuple[ComboTerm, ...]:
        """Terms up to ``stop_word`` or the end of the line, modes in 1..``n_modes``."""
        terms = [self.term(1.0)]
        while self.pos < len(self.toks) and self.toks[self.pos] != stop_word:
            sep = self.take("'+' or '-'")
            if sep not in ("+", "-"):
                self.fail("'+' or '-'")
            terms.append(self.term(1.0 if sep == "+" else -1.0))
        return tuple(terms)

    # -- statements: each returns its class and fields ----------------------

    def _register(self):
        if self.n_modes is not None:
            self.fail("no second register statement")
        n = self.integer("mode count")
        if n < 1:
            self.fail("positive mode count")
        if n > MAX_MODES:
            self.fail(f"mode count at most {MAX_MODES}")
        self.n_modes = n
        return RegisterStmt, n

    def _squeeze(self):
        m = self.mode()
        d = self.take("'momentum' or 'position'")
        if d not in (MOMENTUM_SQUEEZED, POSITION_SQUEEZED):
            self.fail("'momentum' or 'position'")
        return GateStmt, "squeeze", (m,), d, d

    def _two_mode(self):
        keyword = self.toks[0]
        prefix, value = _TWO_MODE[keyword]
        l = self.mode()
        k = self.mode()
        if l == k:
            self.fail("a mode distinct from the first")
        option = ""
        if self.pos < len(self.toks):
            tok = self.take(f"{prefix}<real>")
            if not tok.startswith(prefix):
                self.fail(f"{prefix}<real>")
            value = self.real(tok[len(prefix):], f"{prefix}<real>", tok)
            if keyword == "kerr" and 0 < abs(value) <= PRUNE_TOL:  # the ledger would prune it
                self.fail(f"g=0 or |g| > {PRUNE_TOL:g}")
            if keyword == "bs" and 0 < value <= PRUNE_TOL**2:  # ... or sqrt(t)
                self.fail(f"t=0 or t > {PRUNE_TOL**2:g}")
            option = f"{prefix}{fmt_num(value)}"
        return GateStmt, keyword, (l, k), value, option

    def _rotate(self):
        m = self.mode()
        tok = self.take("-90, 90, 180 or <real>rad")
        if tok in ("-90", "90", "180"):
            theta, option = math.radians(int(tok)), tok
        elif tok.endswith("rad"):
            theta = self.real(tok[:-3], "-90, 90, 180 or <real>rad", tok)
            option = f"{theta!r}rad"
        else:
            self.fail("-90, 90, 180 or <real>rad")
        return GateStmt, "rotate", (m,), theta, option

    def _measure(self):
        basis = self.basis()
        m = self.mode()
        self.keyword("->")
        name = self.take("record name")
        if not name.isidentifier():
            self.fail("record name")
        if name in self.names:
            self.fail("a name not already bound")
        self.names.add(name)
        return MeasureStmt, basis, m, name

    def _displace(self):
        basis = self.basis()
        m = self.mode()
        self.keyword("+=")
        tok = self.take("coefficient*name")
        if "*" not in tok:
            self.fail("coefficient*name")
        coeff_text, name = tok.split("*", 1)
        coeff, literal = self.coeff(coeff_text)
        if name not in self.names:
            self.fail("a bound record name", offset=len(coeff_text) + 1, found=name)
        return DisplaceStmt, basis, m, coeff, name, literal

    def _assert(self):
        what = self.take("'nullifier' or 'product'")
        if what == "nullifier":
            return AssertNullifierStmt, self.combo()
        if what != "product":
            self.fail("'nullifier' or 'product'")
        return (AssertProductStmt,)

    def _print(self):
        self.keyword("variance")
        terms = self.combo(stop_word="at")
        self.keyword("at")
        tok = self.take("r=<comma list>")
        if not tok.startswith("r="):
            self.fail("r=<comma list>")
        rs = tuple(self.real(x, "r=<comma list>", tok) for x in tok[2:].split(","))
        return PrintVarianceStmt, terms, rs


# Exact coefficients written as words.
_LITERALS = {"sqrt2": SQRT2, "-sqrt2": -SQRT2}
# Two-mode gate statements: option prefix, default value.
_TWO_MODE = {"kerr": ("g=", gates.Kerr.g), "bs": ("t=", gates.Beamsplit.t)}
# Statement keyword -> the parser method that reads the rest of its line.
_STATEMENTS = {
    "register": _Parser._register, "squeeze": _Parser._squeeze, "kerr": _Parser._two_mode,
    "bs": _Parser._two_mode, "rotate": _Parser._rotate, "measure": _Parser._measure,
    "displace": _Parser._displace, "assert": _Parser._assert, "print": _Parser._print,
}


def parse_combo(text: str, n_modes: int) -> tuple[ComboTerm, ...]:
    """Parse a standalone combination with the statement-level syntax.

    ``1*y1 - 1*x3`` and friends; errors are positioned ``<combo>:1:col``.
    Mode indices must lie in 1..``n_modes``.
    """
    p = _Parser("<combo>", n_modes)
    p.start(1, text)
    terms = p.combo()
    p.done()
    return terms


def parse(text: str, source: str = "<scenario>") -> Scenario:
    """Parse a script; raises :class:`ParseError` at the first problem.

    Also enforces the static invariants: exactly one ``register`` statement
    and it comes first, mode indices within range, measurement names bound
    before use and never rebound.
    """
    statements: list[Statement] = []
    p = _Parser(source)
    for lineno, raw in enumerate(split_lines(text), start=1):
        toks = p.start(lineno, raw)
        if not toks:
            continue
        head, p.pos = toks[0], 1
        if p.n_modes is None and head != "register":
            p.fail("'register' as the first statement")
        if head not in _STATEMENTS:
            p.fail("statement keyword")
        cls, *fields = _STATEMENTS[head](p)
        p.done()
        statements.append(cls(*fields, line=lineno, col=raw.find(head) + 1))

    if p.n_modes is None:
        raise ParseError(source, 1, 1, "'register' statement", "")
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
    register: ledger.Register
    events: list[str] = field(default_factory=list)
    failures: list[tuple[int, str]] = field(default_factory=list)
    csv_rows: list[tuple[str, float, float]] = field(default_factory=list)
    asserts_total: int = 0

    @property
    def ok(self) -> bool:
        return not self.failures

    def csv(self) -> str:
        """``combo,r,variance`` text, one line per (combo text, r, variance) row."""
        return "combo,r,variance\n" + "".join(f"{c},{fmt_num(r)},{v:.12g}\n" for c, r, v in self.csv_rows)

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
    and checked against the ledger's closed form.  A print replays only its
    combination's light cone, all rows at once, or on overflow row by row on the
    script's modes to name the failing row and gate.  Each ``assert nullifier``
    replays its whole tape once.  The report's ``register`` is the finished ledger
    state.  A failing statement raises :class:`ScenarioRuntimeError` at its position,
    but a broken engine invariant stays an :class:`InternalConsistencyError`, positioned there.
    """
    if engine not in (LEDGER, COVARIANCE):
        raise ScenarioRuntimeError(source, 1, 1, f"unknown engine {engine!r}")
    if engine == COVARIANCE and r is None:
        raise ScenarioRuntimeError(source, 1, 1, "covariance engine requires numeric r")
    exe = _Execution(scn, engine, r, seed, source)
    for stmt in scn.statements:
        try:
            exe.apply(stmt)
        except InternalConsistencyError as err:
            err.source, err.line, err.col = source, stmt.line, stmt.col
            raise
        except CvClusterError as err:
            raise ScenarioRuntimeError(source, stmt.line, stmt.col, str(err)) from err
    return exe.report


class _Execution:
    def __init__(self, scn, engine, r, seed, source):
        self.engine = engine
        self.r = r
        self.reg = ledger.Register(scn.n)
        self.records: dict[str, tuple] = {}  # name -> (record, outcome or None)
        self.report = RunReport(source, engine, r, seed, len(scn.statements), self.reg)
        self.state = None
        if engine == COVARIANCE:
            self.state = covariance.vacuum_state(scn.n)
            self.rng = np.random.default_rng(seed)

    # -- engine plumbing ---------------------------------------------------

    def _replay_variances(self, combo, expr, rs, states) -> list[float]:
        """Variances of a final-frame combo, ledger expression ``expr``, at each r, two
        independent ways: the closed form, and ``states``, one replay per r in step with ``rs``."""
        weights = covariance.combo_weights(combo)
        values = []
        for r, state in zip(rs, states):
            numeric = covariance.variance_of(state, weights)
            symbolic = ledger.variance_formula(expr, r)
            if not covariance.bridge_agrees(state, weights, numeric, symbolic):
                raise InternalConsistencyError(
                    f"engines disagree on a variance at r={r!r}: covariance {numeric!r}, "
                    f"ledger {symbolic!r}, allowance {covariance.bridge_allowance(state, weights)!r}"
                )
            values.append(numeric if self.engine == COVARIANCE else symbolic)
        return values

    # -- statements --------------------------------------------------------

    def apply(self, stmt: Statement):
        getattr(self, f"_do_{type(stmt).__name__}")(stmt)

    def _do_RegisterStmt(self, stmt):
        pass  # the register was allocated up front

    def _do_GateStmt(self, stmt):
        gate = _GATES[stmt.keyword](*stmt.modes, stmt.value)
        self.reg.apply(gate)
        if self.engine == COVARIANCE:
            covariance.apply_gate(self.state, gate, self.r)

    def _do_MeasureStmt(self, stmt):
        rec, outcome, note = self.reg.measure(stmt.mode, stmt.kind), None, ""
        if self.engine == COVARIANCE:
            outcome = covariance.homodyne(self.state, stmt.mode, stmt.kind, rng=self.rng)
            note = f" = {outcome:.12g}"
        self.records[stmt.name] = (rec, outcome)
        self.report.events.append(f"line {stmt.line}: {stmt.render()}{note}")

    def _do_DisplaceStmt(self, stmt):
        rec, outcome = self.records[stmt.name]
        self.reg.displace_with(stmt.mode, stmt.kind, stmt.coeff, rec)
        if self.engine == COVARIANCE:
            q = covariance.quad_index(stmt.mode, stmt.kind)
            self.state.mean[q] += stmt.coeff * outcome

    def _do_AssertNullifierStmt(self, stmt):
        parts = combo_parts(stmt.terms)
        expr = self.reg.combine(parts)
        ok = ledger.is_nullifier(expr)
        if self.engine == COVARIANCE:
            # Nullifier status is symbolic; the numeric engine contributes a
            # consistency check of the same combination's variance at run r.
            state = covariance.apply_tape(covariance.vacuum_state(self.reg.n), self.reg.history, self.r)
            self._replay_variances(self.reg.frame_combo(parts), expr, (self.r,), (state,))
        self._record_assert(stmt, ok)

    def _do_AssertProductStmt(self, stmt):
        partition = self.reg.product_partition()
        ok = all(len(block) == 1 for block in partition)
        if self.engine == COVARIANCE and ok:
            ok = covariance.is_mode_product(self.state)
        self._record_assert(stmt, ok)

    def _do_PrintVarianceStmt(self, stmt):
        combo_text = render_combo(stmt.terms)
        parts = combo_parts(stmt.terms)
        expr, combo = self.reg.combine(parts), self.reg.frame_combo(parts)
        m, cone, local, kept = covariance.light_cone(self.reg.n, self.reg.history, combo)
        try:
            values = self._replay_variances(local, expr, stmt.rs, covariance.replay(m, cone, stmt.rs))
        except DomainError:
            # The first failing row and gate: the cone replayed row by row on the script's modes.
            rows = (next(covariance.replay(self.reg.n, kept, (r,))) for r in stmt.rs)
            values = self._replay_variances(combo, expr, stmt.rs, rows)
        self.report.csv_rows += [(combo_text, rv, v) for rv, v in zip(stmt.rs, values)]
        self.report.events.append(
            f"line {stmt.line}: print variance {combo_text} ({len(stmt.rs)} rows)"
        )

    def _record_assert(self, stmt, ok: bool):
        self.report.asserts_total += 1
        self.report.events.append(
            f"line {stmt.line}: {stmt.render()} .. {'pass' if ok else 'FAIL'}"
        )
        if not ok:
            self.report.failures.append((stmt.line, stmt.render()))


def load(path) -> Scenario:
    """Read and parse a ``.cvq`` file (UTF-8, a leading byte order mark dropped)."""
    return parse(read_text(path), str(path))
