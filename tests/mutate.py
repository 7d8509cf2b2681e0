"""Run named one-site mutants of the package through Tier-1 and say which survive.

Usage (from the repository root)::

    python3 tests/mutate.py            # every mutant
    python3 tests/mutate.py NAME ...   # the named ones
    python3 tests/mutate.py --test NODEID   # every mutant, against that test only

Each mutant is a file, an old text that occurs in it exactly once, and a new
text.  The script copies the repository (without ``.git`` and caches) to a
temporary directory once, checks there that Tier-1 passes unmutated, then for
each mutant writes the edited file into the copy, runs Tier-1 with ``-x``
against the copy's ``src`` and puts the file back; ``--test`` (repeatable)
runs only the given pytest node ids instead, to count what one test kills
alone.  It prints one row per mutant: killed, with the first failing test,
or survived.  The working tree is only read.  A mutant survives when no
test notices it; each survivor wants a test whose right answer comes from
physics or a closed form, or a reason why the mutant is equivalent.  pytest
does not collect this file.
"""

from __future__ import annotations

import argparse
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 120  # Tier-1 takes about 15 s; a mutant that makes a loop endless is killed


class Mutant(NamedTuple):
    name: str
    path: str
    old: str
    new: str


GATES = "src/cvcluster/gates.py"
LEDGER = "src/cvcluster/ledger.py"
COV = "src/cvcluster/covariance.py"
PROTOCOLS = "src/cvcluster/protocols.py"
SCENARIO = "src/cvcluster/scenario.py"
CLAIMS = "src/cvcluster/claims.py"
CLI = "src/cvcluster/cli.py"

MUTANTS = [
    # Gate rules, ledger engine.
    Mutant("ledger-squeeze-direction", LEDGER,
           "dx = +1 if gate.direction == MOMENTUM_SQUEEZED else -1",
           "dx = -1 if gate.direction == MOMENTUM_SQUEEZED else +1"),
    Mutant("ledger-kerr-sign", LEDGER,
           "_accumulate(dst.row[Y], gate.g, src.row[X])",
           "_accumulate(dst.row[Y], -gate.g, src.row[X])"),
    Mutant("ledger-kerr-gain", LEDGER,
           "_accumulate(dst.row[Y], gate.g, src.row[X])",
           "_accumulate(dst.row[Y], 1.0, src.row[X])"),
    Mutant("ledger-kerr-book-sign", LEDGER,
           "_accumulate(dst.book[Y], gate.g, src.book[X])",
           "_accumulate(dst.book[Y], -gate.g, src.book[X])"),
    Mutant("ledger-rotation-sign", LEDGER,
           "_mix_quads(md, X, md, Y, ((c, s), (-s, c)))",
           "_mix_quads(md, X, md, Y, ((c, -s), (s, c)))"),
    Mutant("ledger-frame-table-sign", LEDGER,
           "{X: (Y, -1.0), Y: (X, 1.0)}",
           "{X: (Y, 1.0), Y: (X, 1.0)}"),
    Mutant("ledger-displace-drops-frame-sign", LEDGER,
           "        coeff *= sign\n",
           ""),
    Mutant("ledger-beamsplitter-s-c-swap", LEDGER,
           "s, c = math.sqrt(gate.t), math.sqrt(1.0 - gate.t)",
           "c, s = math.sqrt(gate.t), math.sqrt(1.0 - gate.t)"),
    # The one accumulate step prunes each sum as it is made.
    Mutant("accumulate-never-prunes", LEDGER,
           "if abs(val) <= PRUNE_TOL:",
           "if False:"),
    # Gate rules, covariance engine: the placed blocks and the in-place steps.
    Mutant("cov-squeeze-direction", GATES,
           "x, y = (r, -r) if gate.direction == MOMENTUM_SQUEEZED else (-r, r)",
           "x, y = (-r, r) if gate.direction == MOMENTUM_SQUEEZED else (r, -r)"),
    Mutant("cov-squeeze-step-factors", COV,
           "q, a, b = idx.start, block[..., 0, 0], block[..., 1, 1]",
           "q, a, b = idx.start, block[..., 1, 1], block[..., 0, 0]"),
    Mutant("cov-kerr-sign", GATES,
           "s_mat[1, 2] = gate.g\n        s_mat[3, 0] = gate.g",
           "s_mat[1, 2] = -gate.g\n        s_mat[3, 0] = -gate.g"),
    Mutant("cov-kerr-gain", COV,
           "elif isinstance(gate, gates.Kerr) and gate.g == 1.0:",
           "elif isinstance(gate, gates.Kerr) and gate.g != 0.0:"),
    Mutant("cov-kerr-step-sign", COV,
           "            v += side[xk]\n            w += side[xl]",
           "            v -= side[xk]\n            w -= side[xl]"),
    Mutant("cov-kerr-step-mean", COV,
           "mean[xl + 1] + mean[xk], mean[xk + 1] + mean[xl]",
           "mean[xl + 1] - mean[xk], mean[xk + 1] - mean[xl]"),
    Mutant("cov-rotation-sign", GATES,
           "s_mat = np.array([[c, s], [-s, c]])",
           "s_mat = np.array([[c, -s], [s, c]])"),
    Mutant("cov-beamsplitter-s-c-swap", GATES,
           "s = math.sqrt(gate.t)\n        c = math.sqrt(1.0 - gate.t)",
           "c = math.sqrt(gate.t)\n        s = math.sqrt(1.0 - gate.t)"),
    # A print's light cone: what each kept gate reads.
    Mutant("cone-kerr-reads-wrong-x", COV,
           "((gate.l, gate.k), (gate.k, gate.l))",
           "((gate.l, gate.l), (gate.k, gate.k))"),
    Mutant("cone-generic-adds-only-hit-outputs", COV,
           "need.update(dict.fromkeys(ms, 3))",
           "need.update({m: need[m] for m in ms if m in need})"),
    Mutant("cone-drops-squeeze", COV,
           "hit = gate.mode in need",
           "hit = False"),
    # A print whose cone overflows: the cone again, row by row on the script's modes, and
    # a one-value overflow named r=R.
    Mutant("print-fallback-replays-whole-history", SCENARIO,
           "covariance.replay(self.reg.n, kept, (r,))",
           "covariance.replay(self.reg.n, self.reg.history, (r,))"),
    Mutant("replay-one-value-wording", COV,
           'at = f"r={rs[0]!r}" if len(rs) == 1 else f"r in {rs!r}"',
           'at = f"r in {rs!r}"'),
    # Homodyne on the covariance engine.
    Mutant("homodyne-schur-sign", COV,
           "cov -= np.outer(b, b) / v",
           "cov += np.outer(b, b) / v"),
    Mutant("homodyne-schur-scale", COV,
           "cov -= np.outer(b, b) / v",
           "cov -= np.outer(b, b) / (2 * v)"),
    Mutant("homodyne-mean-shift-sign", COV,
           "mean += b * (outcome - prior_mean) / v",
           "mean -= b * (outcome - prior_mean) / v"),
    Mutant("homodyne-mean-shift-prior", COV,
           "mean += b * (outcome - prior_mean) / v",
           "mean += b * outcome / v"),
    Mutant("homodyne-b-aliases-column", COV,
           "b = cov[:, q].copy()",
           "b = cov[:, q]"),
    Mutant("homodyne-reset-variance", COV,
           "cov[q, q] = cov[q ^ 1, q ^ 1] = 0.5",
           "cov[q, q] = 0.5"),
    Mutant("homodyne-reset-cross-terms", COV,
           "cov[own, :] = cov[:, own] = 0.0",
           "cov[own, :] = 0.0"),
    Mutant("homodyne-reset-mean", COV,
           "    mean[own] = 0.0\n",
           ""),
    # Feed-forward.
    Mutant("repair-c-times-weight", PROTOCOLS,
           "_displace(report, mode, kind, c / weight, report.register.records[idx])",
           "_displace(report, mode, kind, c * weight, report.register.records[idx])"),
    # A failed solve's Infeasible is what the report keeps and prints.
    Mutant("repair-drops-infeasible", PROTOCOLS,
           "        report.infeasible = sol\n",
           ""),
    Mutant("infeasible-counts-one-more-equation", PROTOCOLS,
           "Infeasible(len(records), ",
           "Infeasible(len(records) + 1, "),
    Mutant("frame-combo-drops-earlier-records", LEDGER,
           "                fold(c, self._modes[rec.mode - 1].book[rec.kind])\n",
           ""),
    Mutant("frame-combo-earliest-first", LEDGER,
           "            if i in due:",
           "            if (i := min(due)) in due:"),
    Mutant("frame-combo-stops-after-first-record", LEDGER,
           "                fold(c, self._modes[rec.mode - 1].book[rec.kind])\n",
           "                fold(c, self._modes[rec.mode - 1].book[rec.kind])\n                break\n"),
    Mutant("frame-combo-fold-sign", LEDGER,
           "due[i] = due.get(i, 0.0) + c * w",
           "due[i] = due.get(i, 0.0) - c * w"),
    # A report keeps its certified targets; its readers work out the rest from its register.
    Mutant("finish-stores-no-targets", PROTOCOLS,
           "    report.targets = targets\n",
           ""),
    Mutant("cli-renders-combine-not-frame-combo", CLI,
           "_combo_text(report.register.frame_combo(p))",
           "_combo_text(report.register.combine(p))"),
    # The one expressions-to-matrix fill that the solver, null space, hygiene and row checks read.
    Mutant("coefficient-matrix-drops-sign", LEDGER,
           "mat[pos[key], j] = c",
           "mat[pos[key], j] = abs(c)"),
    # Hygiene's commutator identity, NaN included, and the nullifier rule's
    # non-finite terms.
    Mutant("commutator-omega-column-sign", CLAIMS,
           "mats[..., xs], -mats[..., xs + 1]",
           "mats[..., xs], mats[..., xs + 1]"),
    Mutant("commutator-skips-unbalanced-sums", CLAIMS,
           "if s != 0 and not abs(",
           "if s is None and not abs("),
    Mutant("commutator-unbalanced-nan-passes", CLAIMS,
           "not abs(worst := total.flat[np.abs(total).argmax()]) <= COMMUTATOR_TOL",
           "abs(worst := total.flat[np.abs(total).argmax()]) > COMMUTATOR_TOL"),
    Mutant("hygiene-fold-drops-nan", CLAIMS,
           "float(np.maximum(worst, defect))",
           "max(worst, defect)"),
    Mutant("commutator-counts-y-a-x-b", CLAIMS,
           "    gap[1::2, 0::2] = 0.0  # (Y_a, X_b) is not one of the pairs\n",
           ""),
    Mutant("nullifier-skips-non-finite", LEDGER,
           "if not abs(c) <= NULLIFIER_TOL",
           "if abs(c) > NULLIFIER_TOL"),
    # The remaining verdicts and folds: a NaN never passes as "no gap".
    Mutant("row-deviation-nan-passes", PROTOCOLS,
           "gaps[~(gaps <= PRUNE_TOL)]",
           "gaps[gaps > PRUNE_TOL]"),
    Mutant("row-deviation-fold-drops-nan", PROTOCOLS,
           "float(np.max(gaps[~(gaps <= PRUNE_TOL)], initial=0.0))",
           "float(np.nanmax(gaps[~(gaps <= PRUNE_TOL)], initial=0.0))"),
    Mutant("mode-product-nan-passes", COV,
           "return bool((np.triu(largest, 1) <= PRODUCT_TOL).all())",
           "return not (np.triu(largest, 1) > PRODUCT_TOL).any()"),
    Mutant("solver-residual-nan-passes", PROTOCOLS,
           "if not np.max(np.abs(a_mat @ alpha + b_mat), initial=0.0) <= SOLVER_TOL:",
           "if np.max(np.abs(a_mat @ alpha + b_mat), initial=0.0) > SOLVER_TOL:"),
    # One solve serves every target: each column's residual counts.
    Mutant("solver-checks-first-target-only", PROTOCOLS,
           "np.abs(a_mat @ alpha + b_mat)",
           "np.abs(a_mat @ alpha[:, :1] + b_mat[:, :1])"),
    # A NaN never reaches LAPACK, which would print to stderr and raise LinAlgError.
    Mutant("solver-record-nan-to-lapack", PROTOCOLS,
           "    if not np.isfinite(a_mat).all():",
           "    if False:"),
    Mutant("null-space-nan-to-lapack", PROTOCOLS,
           "    if not np.isfinite(mat).all():",
           "    if False:"),
    Mutant("chain-rows-fold-drops-nan", CLAIMS,
           "float(np.maximum(worst, protocols.graph_row_deviation(reg, g)))",
           "max(worst, protocols.graph_row_deviation(reg, g))"),
    Mutant("bs-chain-fold-drops-nan", CLAIMS,
           "float(np.max(np.abs(mat[[k >= 0 for *_, k in coords]]), initial=0.0))",
           "float(np.nanmax(np.abs(mat[[k >= 0 for *_, k in coords]]), initial=0.0))"),
    Mutant("cross-engine-fold-drops-nan", CLAIMS,
           "float(np.maximum(worst, abs(numeric - symbolic)))",
           "max(worst, abs(numeric - symbolic))"),
    # One exit policy for a broken invariant, positioned where a script found it.
    Mutant("internal-error-exits-2", CLI,
           "return EXIT_INTERNAL",
           "return EXIT_USAGE"),
    Mutant("internal-error-unpositioned", SCENARIO,
           "err.source, err.line, err.col = source, stmt.line, stmt.col",
           "pass"),
    # The tape renderer writes the option text the parser builds.
    Mutant("gate-stmt-wrong-prefix", SCENARIO,
           "f\"{_TWO_MODE[keyword][0]}{fmt_num(value)}\"",
           "f\"{_TWO_MODE['kerr'][0]}{fmt_num(value)}\""),
    # Every entry of the gates.py tolerance table, loosened.
    Mutant("PRUNE_TOL-1e-6", GATES, "PRUNE_TOL = 1e-12", "PRUNE_TOL = 1e-6"),
    Mutant("NULLIFIER_TOL-1e-3", GATES, "NULLIFIER_TOL = 1e-9", "NULLIFIER_TOL = 1e-3"),
    Mutant("COMMUTATOR_TOL-1e-2", GATES, "COMMUTATOR_TOL = 1e-9", "COMMUTATOR_TOL = 1e-2"),
    Mutant("QUARTER_TURN_TOL-1e-6", GATES, "QUARTER_TURN_TOL = 1e-12", "QUARTER_TURN_TOL = 1e-6"),
    Mutant("SYMPLECTIC_TOL-1e-3", GATES, "SYMPLECTIC_TOL = 1e-12", "SYMPLECTIC_TOL = 1e-3"),
    Mutant("SINGULAR_TOL-1e-20", GATES, "SINGULAR_TOL = 1e-15", "SINGULAR_TOL = 1e-20"),
    Mutant("UNCERTAINTY_TOL-1e-1", GATES, "UNCERTAINTY_TOL = 1e-9", "UNCERTAINTY_TOL = 1e-1"),
    Mutant("PRODUCT_TOL-1e-2", GATES, "PRODUCT_TOL = 1e-9", "PRODUCT_TOL = 1e-2"),
    Mutant("SOLVER_TOL-1e-4", GATES, "SOLVER_TOL = 1e-9", "SOLVER_TOL = 1e-4"),
    Mutant("BRIDGE_TOL-1e-3", GATES, "BRIDGE_TOL = 1e-9", "BRIDGE_TOL = 1e-3"),
    Mutant("COEFF_TOL-1e-3", GATES, "COEFF_TOL = 1e-12", "COEFF_TOL = 1e-3"),
    Mutant("ENTANGLEMENT_MARGIN--1e-3", GATES,
           "ENTANGLEMENT_MARGIN = 1e-12", "ENTANGLEMENT_MARGIN = -1e-3"),
    Mutant("PPT_THRESHOLD_TOL-1e-5", GATES, "PPT_THRESHOLD_TOL = 1e-9", "PPT_THRESHOLD_TOL = 1e-5"),
    # The bridge allowance.
    Mutant("bridge-allowance-by-variance", COV,
           "float(np.abs(w) @ np.abs(state.cov[ix]) @ np.abs(w))",
           "float(w @ state.cov[ix] @ w)"),
    Mutant("bridge-absolute-only", COV,
           "return gap <= BRIDGE_TOL or gap <= bridge_allowance(state, weights)",
           "return gap <= BRIDGE_TOL"),
    # Shared gate values and register copies: the same values, nothing aliased.
    Mutant("gate-cache-untyped", PROTOCOLS,
           "typed=True",
           "typed=False"),
    Mutant("gate-cache-off", PROTOCOLS,
           "maxsize=gates.BLOCK_CACHE_SIZE",
           "maxsize=0"),
    Mutant("graph-tape-one-squeeze", PROTOCOLS,
           "_gate(Squeeze, m, MOMENTUM_SQUEEZED)",
           "_gate(Squeeze, 1, MOMENTUM_SQUEEZED)"),
    Mutant("graph-tape-int-coupling", PROTOCOLS,
           "_gate(Kerr, l, k, 1.0)",
           "_gate(Kerr, l, k, 1)"),
    Mutant("extract-pair-fresh-quarter-turn", PROTOCOLS,
           "report.register.apply(_gate(Rotate, j, math.pi / 2.0))",
           "report.register.apply(Rotate(j, math.pi / 2.0))"),
    Mutant("copy-shares-row-x", LEDGER,
           "{X: md.row[X].copy(),",
           "{X: md.row[X],"),
    Mutant("copy-shares-book-y", LEDGER,
           "Y: md.book[Y].copy()}",
           "Y: md.book[Y]}"),
    Mutant("mode-init-y-row-exponent", LEDGER,
           "{(i, Y, 0): 1.0}",
           "{(i, Y, 1): 1.0}"),
    # The closed form build_graph_state writes: key order and exponents of the rows.
    Mutant("graph-rows-neighbours-descending", PROTOCOLS,
           "for b in graph.neighborhood(a):",
           "for b in reversed(graph.neighborhood(a)):"),
    Mutant("graph-rows-own-exponent", PROTOCOLS,
           "{(a, Y, -1): 1.0}) for a in graph.vertices]",
           "{(a, Y, 1): 1.0}) for a in graph.vertices]"),
    Mutant("ring-star-keeps-a-repeated-vertex", PROTOCOLS,
           "        if v in vertices[:i]:\n",
           "        if False:\n"),
    # The ring-star hub: the first candidate in label order, and a degree test that
    # lets at most four vertices reach a walk (a refusal reads each neighbourhood O(1) times).
    Mutant("hub-ties-by-higher-label", PROTOCOLS,
           "for hub, d in deg.items():",
           "for hub, d in reversed(deg.items()):"),
    Mutant("hub-skips-neighbour-degrees", PROTOCOLS,
           " or any(deg[u] != 3 for u in nbrs(hub)):",
           ":"),
    Mutant("hub-skips-twos-count", PROTOCOLS,
           " or twos - (d == 2) != n - 1 - d",
           ""),
    # cvcluster graph: a flag the protocol never reads is refused, and the table's
    # functions are looked up per call (a copy of the module made at import is not).
    Mutant("graph-accepts-unread-flags", CLI,
           "    if unread:\n",
           "    if False:\n"),
    Mutant("graph-binds-protocols-at-import", CLI,
           "_FLAGS = {\n",
           "protocols = argparse.Namespace(**vars(protocols))\n_FLAGS = {\n"),
    # The parser's column rule.
    Mutant("parser-column-from-line-start", SCENARIO,
           "at = self.body.find(tok, at)",
           "at = self.body.find(tok)"),
    Mutant("parser-end-column-counts-whitespace", SCENARIO,
           "len(self.body.rstrip()) + 1",
           "len(self.body) + 1"),
]


def tier1(copy: Path, tests=()) -> tuple[bool, str]:
    """Run Tier-1 (or only the pytest node ids ``tests``) with ``-x`` in ``copy``
    against its own ``src``: (passed, first failing test).  Tier-1 runs
    ``tests/test_ledger.py`` first: a ledger fault that only slows the claims
    down (an aliased book) dies there in seconds, not through the timeout."""
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    if not tests:
        files = sorted((copy / "tests").glob("test_*.py"),
                       key=lambda f: (f.name != "test_ledger.py", f.name))
        tests = [str(f.relative_to(copy)) for f in files]
    argv = [sys.executable, "-m", "pytest", "-q", "-x", "-rfE", "-p", "no:cacheprovider",
            "--continue-on-collection-errors", *tests]
    try:
        proc = subprocess.run(argv, cwd=copy, env=env, capture_output=True, text=True,
                              timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:  # the child is killed; the run counts as noticed
        return False, f"(timed out after {TIMEOUT_S} s)"
    if proc.returncode == 0:
        return True, ""
    first = re.search(r"^(?:FAILED|ERROR) (\S+)", proc.stdout, re.M)
    return False, first.group(1) if first else f"(pytest exit {proc.returncode})"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("names", nargs="*", help="mutants to run (default: all)")
    parser.add_argument("--test", action="append", default=[], metavar="NODEID",
                        help="run only this pytest node id (repeatable; default: Tier-1)")
    args = parser.parse_args(argv)
    by_name = {m.name: m for m in MUTANTS}
    assert len(by_name) == len(MUTANTS), "mutant names must be unique"
    unknown = [n for n in args.names if n not in by_name]
    if unknown:
        parser.error(f"unknown mutant(s): {', '.join(unknown)}")
    chosen = [by_name[n] for n in args.names] or MUTANTS
    for m in chosen:  # refuse a stale mutant before any run
        count = (ROOT / m.path).read_text(encoding="utf-8").count(m.old)
        if count != 1:
            sys.exit(f"mutant {m.name}: old text occurs {count} times in {m.path}")

    with tempfile.TemporaryDirectory(prefix="cvcluster-mutants-") as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", ".hypothesis", "*.egg-info"))
        ok, first = tier1(copy, args.test)
        if not ok:
            sys.exit(f"the tests fail without a mutant ({first}); nothing to judge")
        width = max(len(m.name) for m in chosen)
        print(f"{'mutant':<{width}}  {'verdict':<8}  {'s':>5}  first failing test")
        survivors = 0
        for m in chosen:
            target = copy / m.path
            original = target.read_text(encoding="utf-8")
            target.write_text(original.replace(m.old, m.new, 1), encoding="utf-8")
            started = time.perf_counter()
            try:
                passed, first = tier1(copy, args.test)
            finally:
                target.write_text(original, encoding="utf-8")
            survivors += passed
            verdict = "survived" if passed else "killed"
            print(f"{m.name:<{width}}  {verdict:<8}  {time.perf_counter() - started:5.1f}  {first}",
                  flush=True)
        print(f"{len(chosen) - survivors} of {len(chosen)} killed, {survivors} survived")
    return 0


if __name__ == "__main__":
    sys.exit(main())
