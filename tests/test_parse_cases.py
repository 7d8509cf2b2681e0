"""The parser returns and reports exactly what ``tests/golden/parse_cases.txt`` records.

The fixture comes from ``tests/record_parse_cases.py``: every corpus and
golden script plus seeded single-token mutations of valid lines for every
statement keyword, each with its statements (``line`` and ``col`` included)
or its rendered ``ParseError``.
"""

import difflib
import importlib.util
from pathlib import Path

HERE = Path(__file__).resolve().parent

_spec = importlib.util.spec_from_file_location("record_parse_cases", HERE / "record_parse_cases.py")
record_parse_cases = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(record_parse_cases)


def test_parse_cases_match_fixture():
    expected = record_parse_cases.FIXTURE.read_text(encoding="utf-8")
    actual = record_parse_cases.render()
    if actual != expected:
        diff = difflib.unified_diff(expected.splitlines(), actual.splitlines(), "fixture", "parser", n=2, lineterm="")
        raise AssertionError("\n".join(list(diff)[:40]))


def test_parse_cases_cover_the_fixture_plan():
    labels = [label for label, *_ in record_parse_cases.cases()]
    assert len(labels) >= 1500
    assert len(set(labels)) == len(labels)
    for keyword in record_parse_cases.BASES:
        assert any(label.startswith(f"{keyword} ") for label in labels)
    for path in record_parse_cases.SCRIPTS:
        assert any(label.endswith(path.name) for label in labels)
