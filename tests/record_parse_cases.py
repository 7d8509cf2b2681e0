"""Record what ``scenario.parse`` and ``scenario.parse_combo`` return on a fixed case set.

Usage (from the repository root)::

    python3 tests/record_parse_cases.py

Writes ``tests/golden/parse_cases.txt``.  The cases are every corpus script
and golden script (as written, with CRLF and with CR line ends), and seeded
single-token mutations of valid lines for every statement keyword: a
missing, extra or swapped token, a token or part of a token replaced by an
edge value, and other whitespace between tokens.  Each case records every
statement's ``repr`` (which carries its ``line`` and ``col``) or the
``ParseError`` raised for the source name ``case`` (a combination's is
``<combo>``, and its modes are checked against ``COMBO_MODES``).
``tests/test_parse_cases.py`` checks the parser against the file byte for
byte; record again only when a change is meant to alter what the parser
returns or reports.
"""

from __future__ import annotations

import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from cvcluster.scenario import ParseError, parse, parse_combo  # noqa: E402

FIXTURE = HERE / "golden" / "parse_cases.txt"
SCRIPTS = sorted((ROOT / "scenarios").glob("*.cvq")) + sorted((HERE / "golden" / "scripts").glob("*.cvq"))

N = 4  # the register of every mutation case
PREAMBLE = f"register {N}\nmeasure x {N} -> a\n"  # binds the name 'a'

# Valid lines per keyword; the register line is mutated without a preamble.
BASES = {
    "register": ["register 4"],
    "squeeze": ["squeeze 2 momentum", "squeeze 3 position"],
    "kerr": ["kerr 1 2", "kerr 2 3 g=0.7", "kerr 1 4 g=-1e-3"],
    "rotate": ["rotate 2 -90", "rotate 3 90", "rotate 1 180", "rotate 4 0.3rad"],
    "bs": ["bs 1 2", "bs 2 4 t=0.3"],
    "measure": ["measure x 2 -> b", "measure y 3 -> c1"],
    "displace": ["displace y 1 += -1*a", "displace x 3 += sqrt2*a"],
    "assert": ["assert nullifier 1*y1 - 1*x2", "assert nullifier sqrt2*x1 + 1*x2 - -sqrt2*y3",
               "assert product"],
    "print": ["print variance 1*y1 - 1*x2 at r=0,1", "print variance 0.5*x3 at r=0.5"],
}
COMBOS = ["1*y1 - 1*x3", "sqrt2*x1 + 0.5*y2", "-sqrt2*x10"]
COMBO_MODES = 10  # the mode count every combination is checked against

# Edge values for a whole token or a part of one ('٣' is ARABIC-INDIC DIGIT THREE).
VALUES = ["0", "-1", str(N + 1), "1.5", "nan", "1e400", "sqrt2", "-sqrt2",
          "->", "+=", "#", "٣"]
# Whitespace put between tokens (tab, NO-BREAK SPACE, IDEOGRAPHIC SPACE).
SPACES = ["\t", " ", "　"]


def _part_edits(tok: str):
    """(label, token) pairs that change one part of a compound token."""
    if "*" in tok:
        coeff, quad = tok.split("*", 1)
        for v in VALUES + ["", "x"]:
            yield f"coeff={v!r}", f"{v}*{quad}"
        if quad[:1] in ("x", "y") and quad[1:].isdigit():
            for v in VALUES + ["", "9"]:
                yield f"mode={v!r}", f"{coeff}*{quad[0]}{v}"
            for b in ("z", "X", ""):
                yield f"basis={b!r}", f"{coeff}*{b}{quad[1:]}"
        else:
            for v in ("m3", "", "a*b", "1a"):
                yield f"name={v!r}", f"{coeff}*{v}"
    if "=" in tok:
        key, value = tok.split("=", 1)
        for v in VALUES + ["", "1e-13", "1e-25", "0,", ",1"]:
            yield f"value={v!r}", f"{key}={v}"
        if "," in value:
            first = value.split(",", 1)[0]
            for v in VALUES:
                yield f"item={v!r}", f"{key}={first},{v}"
    if tok.endswith("rad"):
        for v in VALUES + [""]:
            yield f"angle={v!r}", f"{v}rad"


def _mutations(line: str, rng: random.Random):
    """(label, mutated line) pairs: one token or one gap changed at a time."""
    toks = line.split()
    k = len(toks)
    for i in range(k):
        yield f"missing[{i}]", " ".join(toks[:i] + toks[i + 1:])
    for i in range(k + 1):
        extra = rng.choice(VALUES + toks)
        yield f"extra[{i}]={extra!r}", " ".join(toks[:i] + [extra] + toks[i:])
    for i in range(k - 1):
        swapped = toks[:i] + [toks[i + 1], toks[i]] + toks[i + 2:]
        yield f"swap[{i}]", " ".join(swapped)
    for i in range(k):
        for v in VALUES:
            yield f"replace[{i}]={v!r}", " ".join(toks[:i] + [v] + toks[i + 1:])
        for label, part in _part_edits(toks[i]):
            yield f"part[{i}]:{label}", " ".join(toks[:i] + [part] + toks[i + 1:])
    for sp in SPACES:
        yield f"all-gaps={sp!r}", sp.join(toks)
        if k > 1:
            i = rng.randrange(k - 1)
            gap = sp * rng.randint(1, 3)
            yield f"gap[{i}]={gap!r}", " ".join(toks[:i + 1]) + gap + " ".join(toks[i + 1:])
        yield f"around={sp!r}", f"{sp} {line}{sp}"
    yield "comment", f"{line}  # note"
    yield "indent", f"   {line}"


def cases():
    """Every case as (label, mutated line or None, text, whole): ``whole`` is
    True to record all statements, False for only those of the last line, and
    None to parse ``text`` as a combination."""
    for path in SCRIPTS:
        text = path.read_text(encoding="utf-8")
        name = path.relative_to(ROOT).as_posix()
        yield f"script {name}", None, text, True
        yield f"script {name} crlf", None, text.replace("\n", "\r\n"), True
        yield f"script {name} cr", None, text.replace("\n", "\r"), True
    rng = random.Random("parse-cases")
    for keyword, lines in BASES.items():
        for base in lines:
            for label, line in _mutations(base, rng):
                if keyword == "register":
                    yield f"{keyword} {base!r} {label}", line, f"{line}\nsqueeze 3 momentum\n", True
                else:
                    yield f"{keyword} {base!r} {label}", line, f"{PREAMBLE}{line}\n", False
    for base in COMBOS:
        for label, line in _mutations(base, rng):
            yield f"combo {base!r} {label}", line, line, None


def record_case(text: str, whole) -> list[str]:
    try:
        if whole is None:
            return [repr(term) for term in parse_combo(text, COMBO_MODES)]
        statements = parse(text, "case").statements
    except ParseError as err:
        return [f"error: {err}"]
    last = text.rstrip("\n").count("\n") + 1
    return [repr(s) for s in statements if whole or s.line == last]


def render() -> str:
    out = []
    for label, line, text, whole in cases():
        out.append(f"== {label}")
        if line is not None:
            out.append(f"   {line!r}")
        out += [f"   {row}" for row in record_case(text, whole)]
    return "\n".join(out) + "\n"


def main() -> int:
    text = render()
    FIXTURE.write_text(text, encoding="utf-8")
    print(f"wrote {FIXTURE} ({text.count(chr(10) + '== ') + 1} cases)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
