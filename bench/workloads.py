"""Seeded inputs, op lists and output checks for the three benchmark workloads.

An *op* is one ``cvcluster.cli.main`` call.  Every generator takes the seed
and writes plain input files; ``cli.main`` only ever sees those files, so the
program under test gets nothing the command line would not give it.

Inputs come from ``random.Random`` seeded with a string (stable across
Python versions and independent of ``PYTHONHASHSEED``) and never from the
package's own graph generators, so a change to ``cvcluster.graphs`` cannot
change what the benchmark feeds it.
"""

from __future__ import annotations

import random
import re
import shutil
from dataclasses import dataclass
from pathlib import Path

WORKLOADS = ("claims", "scripts", "graph")

# Squeezing and sampling seed of every covariance-engine script run.
SCRIPT_R = "1"
SCRIPT_SEED = "7"
# Squeezing values of each printed variance row (the README's range).
PRINT_RS = "0,0.5,1,2"

# (modes, extra edges per mode, cut vertices) of each generated script, from
# about 10 to about 150 modes.  Extra edges are a fixed count per script so
# every seed does the same amount of gate work; the seed moves only the shape.
SCRIPT_SLOTS = (
    (10, 0.5, 1),
    (12, 1.0, 1),
    (16, 0.3, 2),
    (20, 0.8, 2),
    (26, 0.5, 2),
    (32, 1.2, 3),
    (40, 0.4, 3),
    (50, 0.8, 4),
    (64, 0.5, 4),
    (80, 0.3, 5),
    (100, 0.5, 6),
    (120, 0.4, 7),
    (150, 0.3, 8),
)
# Survivor nullifiers asserted per script (all survivors when fewer) and the
# number of them also printed as variance rows.
SCRIPT_ASSERTS = 12
SCRIPT_PRINTS = 2


@dataclass(frozen=True)
class Op:
    """One ``cli.main`` call and the verdict known by construction.

    ``expect_exit`` is the exit code the op must return; ``verdict`` is a
    regular expression its stdout must contain at any seed.
    """

    name: str
    argv: tuple[str, ...]
    expect_exit: int
    verdict: str


# ---------------------------------------------------------------------------
# Seeded graph shapes
# ---------------------------------------------------------------------------


def _rng(workload: str, seed: int, slot: str) -> random.Random:
    return random.Random(f"cvcluster-bench:{workload}:{seed}:{slot}")


def connected_edges(rng: random.Random, n: int, extra: int) -> list[tuple[int, int]]:
    """Random connected simple graph on 1..n with exactly n - 1 + extra edges.

    A random spanning path keeps the degrees even, so the gate work per seed
    varies little; the extra edges are drawn uniformly.
    """
    order = list(range(1, n + 1))
    rng.shuffle(order)
    edges = {(min(a, b), max(a, b)) for a, b in zip(order, order[1:])}
    target = min(n - 1 + extra, n * (n - 1) // 2)
    while len(edges) < target:
        a, b = rng.sample(range(1, n + 1), 2)
        edges.add((min(a, b), max(a, b)))
    return sorted(edges)


def farthest(edges, a: int) -> int:
    """The vertex farthest from ``a`` by breadth-first search, smallest label on ties.

    Taking the far end makes every seed's path span about the graph's
    diameter, so the number of boundary measurements varies little.
    """
    nbrs: dict[int, list[int]] = {}
    for u, v in edges:
        nbrs.setdefault(u, []).append(v)
        nbrs.setdefault(v, []).append(u)
    dist = {a: 0}
    frontier = [a]
    while frontier:
        nxt = []
        for u in frontier:
            for v in nbrs.get(u, ()):
                if v not in dist:
                    dist[v] = dist[u] + 1
                    nxt.append(v)
        frontier = nxt
    return min(dist, key=lambda v: (-dist[v], v))


def edge_list_text(n: int, edges, comment: str) -> str:
    lines = [f"# {comment}", f"vertices {n}"]
    lines += [f"{a} {b}" for a, b in edges]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# scripts: .cvq files over a spread of sizes
# ---------------------------------------------------------------------------


def _combo(terms) -> str:
    """Render ``[(sign, kind, mode)]`` in the .cvq combo syntax."""
    out = []
    for i, (sign, kind, mode) in enumerate(terms):
        if i == 0:
            out.append(f"{'-' if sign < 0 else ''}1*{kind}{mode}")
        else:
            out.append(f"{'-' if sign < 0 else '+'} 1*{kind}{mode}")
    return " ".join(out)


def cut_graph_script(rng: random.Random, n: int, extra_per_mode: float, cuts: int) -> tuple[str, int]:
    """A graph state with a few vertices cut out by position measurements.

    Squeeze every mode, couple the edges of a random connected graph, measure
    X of ``cuts`` vertices and feed each record into the momenta of its
    surviving neighbours.  The survivors then obey the graph law of the graph
    with the cut vertices deleted, so every asserted nullifier holds by
    construction.  Returns the script text and its number of asserts.
    """
    edges = connected_edges(rng, n, round(extra_per_mode * n))
    nbrs = {v: set() for v in range(1, n + 1)}
    for a, b in edges:
        nbrs[a].add(b)
        nbrs[b].add(a)
    cut = sorted(rng.sample(range(1, n + 1), cuts))
    survivors = [v for v in range(1, n + 1) if v not in cut]
    lines = [
        f"# generated: {n} modes, {len(edges)} edges, cut {' '.join(map(str, cut))}",
        f"register {n}",
    ]
    lines += [f"squeeze {m} momentum" for m in range(1, n + 1)]
    lines += [f"kerr {a} {b}" for a, b in edges]
    for c in cut:
        lines.append(f"measure x {c} -> m{c}")
    for c in cut:
        for v in sorted(nbrs[c]):
            if v not in cut:
                lines.append(f"displace y {v} += -1*m{c}")
    checked = sorted(rng.sample(survivors, min(SCRIPT_ASSERTS, len(survivors))))
    laws = {
        v: _combo([(1, "y", v)] + [(-1, "x", u) for u in sorted(nbrs[v]) if u not in cut])
        for v in checked
    }
    lines += [f"assert nullifier {laws[v]}" for v in checked]
    lines += [f"print variance {laws[v]} at r={PRINT_RS}" for v in checked[:SCRIPT_PRINTS]]
    return "\n".join(lines) + "\n", len(checked)


# ---------------------------------------------------------------------------
# graph: edge-list files for each protocol
# ---------------------------------------------------------------------------

# (modes, extra edges per mode) of the reduce-path graphs, n = 50..200.
REDUCE_SLOTS = ((50, 0.3), (50, 1.0), (80, 0.5), (100, 0.2), (100, 0.8),
                (130, 0.4), (160, 0.25), (200, 0.15), (200, 0.4))
PAIR_CHAINS = (40, 90, 140, 200)
DISCONNECT_CHAINS = (60, 120, 200)
DISENTANGLE_CHAINS = (50, 110, 200)
STAR_LEAVES = (12, 40, 90)
# Ring-star family m: ring of 2m vertices, hub on alternate ring vertices.
# Odd m succeeds; even m is rank-deficient by one and exits 1.
RING_FAMILIES = (5, 6, 9, 10, 13, 14)


def _chain_text(n: int) -> str:
    return edge_list_text(n, [(i, i + 1) for i in range(1, n)], f"chain of {n}")


def _star_text(rng: random.Random, leaves: int) -> str:
    n = leaves + 1
    hub = rng.randrange(1, n + 1)
    edges = sorted((min(hub, v), max(hub, v)) for v in range(1, n + 1) if v != hub)
    return edge_list_text(n, edges, f"star with {leaves} leaves, hub {hub}")


def _ring_star_text(rng: random.Random, m: int) -> str:
    """Ring of 2m with a hub on every second ring vertex, labels shuffled."""
    n = 2 * m + 1
    label = list(range(1, n + 1))
    rng.shuffle(label)  # label[0] is the hub, label[i] ring position i
    ring = [(i, i % (2 * m) + 1) for i in range(1, 2 * m + 1)]
    spokes = [(0, i) for i in range(2, 2 * m + 1, 2)]
    edges = sorted(
        (min(label[a], label[b]), max(label[a], label[b])) for a, b in ring + spokes
    )
    return edge_list_text(n, edges, f"ring-star family {m}, hub {label[0]}")


# ---------------------------------------------------------------------------
# Building a workload
# ---------------------------------------------------------------------------

CLAIMS_VERDICT = r"(?m)^12/12 claims passed in "
SCRIPT_VERDICT = r"(?m)^status: pass \({n}/{n} asserts\)$"
SUCCESS_VERDICT = r"(?m)^status: success$"
DEFICIENT_VERDICT = r"(?m)^status: failed\nrank: \d+ of \d+ record equations \(deficiency 1\)$"


def build(workload: str, seed: int, work: Path, corpus: Path) -> list[Op]:
    """Write the workload's inputs under ``work`` and return its op list."""
    if workload == "claims":
        return [Op("claims", ("claims",), 0, CLAIMS_VERDICT)]
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    if workload == "scripts":
        return _build_scripts(seed, work, corpus)
    if workload == "graph":
        return _build_graph(seed, work)
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")


def _script_ops(name: str, path: Path, asserts: int) -> list[Op]:
    verdict = SCRIPT_VERDICT.format(n=asserts)
    return [
        Op(f"{name}.ledger", ("run", str(path)), 0, verdict),
        Op(f"{name}.covariance",
           ("run", str(path), "--engine", "covariance", "--r", SCRIPT_R, "--seed", SCRIPT_SEED),
           0, verdict),
    ]


def _build_scripts(seed: int, work: Path, corpus: Path) -> list[Op]:
    ops = []
    sources = sorted(corpus.glob("*.cvq"))
    if not sources:
        raise FileNotFoundError(f"no scenario corpus under {corpus}")
    for src in sources:
        text = src.read_text(encoding="utf-8")
        dst = work / src.name
        dst.write_text(text, encoding="utf-8")
        asserts = len(re.findall(r"(?m)^assert ", text))
        ops += _script_ops(f"corpus/{src.stem}", dst, asserts)
    for i, (n, extra, cuts) in enumerate(SCRIPT_SLOTS):
        text, asserts = cut_graph_script(_rng("scripts", seed, str(i)), n, extra, cuts)
        dst = work / f"gen{i:02d}_n{n}.cvq"
        dst.write_text(text, encoding="utf-8")
        ops += _script_ops(f"gen{i:02d}_n{n}", dst, asserts)
    return ops


def _build_graph(seed: int, work: Path) -> list[Op]:
    ops = []

    def add(name, text, args, expect_exit=0, verdict=SUCCESS_VERDICT):
        path = work / f"{name}.txt"
        path.write_text(text, encoding="utf-8")
        ops.append(Op(name, ("graph", str(path), "--protocol", *args), expect_exit, verdict))

    for i, (n, extra) in enumerate(REDUCE_SLOTS):
        rng = _rng("graph", seed, f"reduce{i}")
        edges = connected_edges(rng, n, round(extra * n))
        a = rng.randrange(1, n + 1)
        b = farthest(edges, a)
        add(f"reduce{i:02d}_n{n}", edge_list_text(n, edges, f"random connected, {n} vertices"),
            ("reduce-path", "--a", str(a), "--b", str(b)))
    for n in PAIR_CHAINS:
        # A fixed gap keeps the number of inner teleport steps the same at every seed.
        gap = n // 2
        j = _rng("graph", seed, f"pair{n}").randrange(1, n - gap + 1)
        add(f"pair_n{n}", _chain_text(n), ("extract-pair", "--j", str(j), "--k", str(j + gap)))
    for n in DISCONNECT_CHAINS:
        j = _rng("graph", seed, f"cut{n}").randrange(2, n)
        add(f"disconnect_n{n}", _chain_text(n), ("disconnect", "--j", str(j)))
    for n in DISENTANGLE_CHAINS:
        add(f"disentangle_n{n}", _chain_text(n), ("disentangle",))
    for leaves in STAR_LEAVES:
        add(f"star_m{leaves}", _star_text(_rng("graph", seed, f"star{leaves}"), leaves),
            ("star-ghz",))
    for m in RING_FAMILIES:
        text = _ring_star_text(_rng("graph", seed, f"ring{m}"), m)
        if m % 2:
            add(f"ringstar_m{m}", text, ("ring-star-ghz",))
        else:
            add(f"ringstar_m{m}", text, ("ring-star-ghz",), 1, DEFICIENT_VERDICT)
    return ops


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------

# The claims report's two wall-clock fields.
_CLAIMS_CLOCKS = (
    (re.compile(r"(max coefficient deviation \S+ in )\d+\.\d+s"), r"\1<t>s"),
    (re.compile(r"(?m)^(\d+/\d+ claims passed in )\d+\.\d+s$"), r"\1<t>s"),
)


def normalise(op: Op, stdout: str, work: Path) -> str:
    """Strip what legitimately differs between runs: clocks and input paths."""
    if op.argv[0] == "claims":
        for pattern, repl in _CLAIMS_CLOCKS:
            stdout = pattern.sub(repl, stdout)
        return stdout
    return stdout.replace(str(work), "<work>")


def check(op: Op, code, stdout: str, reference: dict | None) -> str | None:
    """Return why an op's result is wrong, or None when it is right.

    ``reference`` maps op names to ``{"exit": int, "stdout": str}`` recorded
    at the default seed; other seeds pass ``None`` and rely on the verdict
    known by construction.
    """
    if code != op.expect_exit:
        return f"exit code {code}, expected {op.expect_exit}"
    if not re.search(op.verdict, stdout):
        return f"output lacks the expected verdict /{op.verdict}/"
    if op.argv[0] == "claims" and re.search(r"(?m)^\S+\s+FAIL\s", stdout):
        return "a claim reported FAIL"
    if reference is not None:
        want = reference.get(op.name)
        if want is None:
            return "no reference output for this op"
        if want["exit"] != code or want["stdout"] != stdout:
            return "output differs from the reference"
    return None
