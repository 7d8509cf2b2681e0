"""List the package functions that the command line and the demos never enter.

Usage (from the repository root)::

    python3 tests/reachability.py

Installs a ``sys.settrace`` hook, then runs in process every command-line
case of ``tests/test_golden.py`` (``cvcluster claims`` among them) and the
``main()`` of every demo, as the golden tests do.  The hook notes each
function of ``src/cvcluster`` whose code starts a frame.  The script then
prints every function defined there that no frame entered, by module, with
its line.  What it lists is reached only by tests, by error paths the
golden cases do not take, or by nothing at all: the candidates for a
deletion pass.  Lambdas and comprehensions are not listed.
"""

from __future__ import annotations

import ast
import contextlib
import io
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PACKAGE = ROOT / "src" / "cvcluster"
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import test_golden  # noqa: E402


def defined_functions(path: Path) -> list[tuple[int, str]]:
    """``(first line, qualified name)`` of every def in a module; the first
    line is a decorated function's first decorator, as in its code object."""
    found = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                found.append((first, prefix + child.name))
                visit(child, f"{prefix}{child.name}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.")

    visit(ast.parse(path.read_text(encoding="utf-8")), "")
    return found


def entered_while(run) -> set[tuple[str, int]]:
    """``(file, first line)`` of each package code object that starts a frame
    while ``run()`` runs."""
    package = str(PACKAGE)
    entered = set()

    def on_call(frame, event, arg):
        code = frame.f_code
        if code.co_filename.startswith(package):
            entered.add((code.co_filename, code.co_firstlineno))
        return None  # no per-line events are needed below a call

    sys.settrace(on_call)
    try:
        run()
    finally:
        sys.settrace(None)
    return entered


def run_everything() -> None:
    os.chdir(ROOT)
    for argv in test_golden.CASES.values():
        test_golden.run_case(argv)
    test_golden.run_case(["claims"])
    with contextlib.redirect_stdout(io.StringIO()):
        for name in test_golden.DEMOS:
            test_golden.run_demo(name)


def main() -> None:
    entered = entered_while(run_everything)
    total, missed = 0, []
    for path in sorted(PACKAGE.glob("*.py")):
        for first, name in defined_functions(path):
            total += 1
            if (str(path), first) not in entered:
                missed.append(f"{path.stem}.{name} (line {first})")
    runs = len(test_golden.CASES) + 1 + len(test_golden.DEMOS)
    print(f"{len(missed)} of {total} functions in src/cvcluster never entered "
          f"over {runs} runs ({len(test_golden.CASES)} golden CLI cases, claims, "
          f"{len(test_golden.DEMOS)} demos):")
    for line in missed:
        print(f"  {line}")


if __name__ == "__main__":
    main()
