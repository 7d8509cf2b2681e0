"""Command-line front door.

Four subcommands::

    cvcluster run <script.cvq> [--engine ledger|covariance] [--r R] [--seed S]
    cvcluster claims [--only ID]
    cvcluster sweep (--state NAME:SIZE | --script FILE) --combo C [...] --r LIST
    cvcluster graph <edges.txt> --protocol NAME [protocol args]

Exit codes are a stable contract: 0 when everything passed, 1 when an
assertion, claim or protocol target failed, 2 for usage, I/O and input
errors, and 3 for a broken engine invariant (a program defect); :func:`main`
prints either error as one line on stderr.  An input error reads
``source:line:col: reason`` (edge lists: ``source:line: reason``), where the
source is the input file, ``<combo>`` or a sweep state's ``<NAME:SIZE>``; a
broken invariant reads ``internal error: reason``, after ``source:line:col: ``
when a script statement found it.  All output is deterministic given the
inputs and seed, apart from the wall-clock times in the claims report, and
no environment variable changes it: a terminal gets the bytes a pipe gets.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys

from . import claims as claims_suite
from . import graphs, protocols, scenario
from .errors import CvClusterError, InternalConsistencyError
from .gates import MAX_MODES

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------


def _cmd_run(args) -> int:
    report = scenario.execute(scenario.load(args.script), args.engine, args.r, args.seed,
                              source=args.script)
    sys.stdout.write(report.render())
    return EXIT_PASS if report.ok else EXIT_FAIL


# ---------------------------------------------------------------------------
# claims
# ---------------------------------------------------------------------------


def _cmd_claims(args) -> int:
    outcome = claims_suite.run_claims(only=args.only)
    rows = [
        (res.claim_id, res.status, res.value, res.tolerance, res.statement)
        for res in outcome.results
    ]
    headers = ("claim", "status", "value", "tolerance", "statement")
    widths = [
        max(len(headers[i]), *(len(row[i]) for row in rows)) for i in range(4)
    ]
    fmt = "  ".join(f"{{{i}:<{w}}}" for i, w in enumerate(widths)) + "  {4}"
    print(fmt.format(*headers))
    print(fmt.format(*("-" * w for w in widths), "-" * len(headers[4])))
    for res, row in zip(outcome.results, rows):
        print(fmt.format(*row))
        if args.only:
            for detail in res.details:
                print(f"    {detail}")
    passed = sum(res.passed for res in outcome.results)
    print(f"{passed}/{len(outcome.results)} claims passed in {outcome.elapsed:.2f}s")
    return EXIT_PASS if outcome.ok else EXIT_FAIL


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


# Named sweep states: name -> (gate tape of the size, modes that size makes).
STATE_BUILDERS = {
    "chain": (lambda n: protocols.graph_tape(graphs.chain(n)), lambda n: n),
    "star": (lambda n: protocols.graph_tape(graphs.star(n)), lambda n: n + 1),
    # size is the family index m: hub 1 on 3, 5, ..., 2m+1 of the ring 2..2m+1
    "ringstar": (lambda m: protocols.graph_tape(graphs.ring_star(2 * m)), lambda m: 2 * m + 1),
    "bschain": (protocols.bs_chain_tape, lambda n: n),
    "ghz": (protocols.ghz_optics_tape, lambda n: n),
}


def _build_state(spec: str):
    name, _, size_text = spec.partition(":")
    try:
        size = int(size_text)
    except ValueError:
        raise ValueError(f"state spec must be name:size, got {spec!r}") from None
    if name not in STATE_BUILDERS:
        raise ValueError(
            f"unknown state {name!r}; choose from {', '.join(STATE_BUILDERS)}"
        )
    tape, modes = STATE_BUILDERS[name]
    if modes(size) > MAX_MODES:
        raise ValueError(f"state {spec!r} has {modes(size)} modes; at most {MAX_MODES} allowed")
    return modes(size), tape(size)


def _parse_r_list(text: str) -> tuple[float, ...]:
    return tuple(float(piece) for piece in text.split(",")) if text.strip() else ()


def _cmd_sweep(args) -> int:
    if args.script is not None:
        source, stmts = args.script, scenario.load(args.script).statements
    else:
        source, (n, tape) = f"<{args.state}>", _build_state(args.state)
        stmts = (scenario.RegisterStmt(n, line=1, col=1),  # the state's tape as script lines
                 *(scenario.GateStmt.of(gate, line) for line, gate in enumerate(tape, 2)))
    # One print per combo, numbered on from the last statement; only their rows are written.
    stmts += tuple(scenario.PrintVarianceStmt(scenario.parse_combo(raw, stmts[0].n), args.r,
                                              line=stmts[-1].line + k, col=1)
                   for k, raw in enumerate(args.combo, 1))
    report = scenario.execute(scenario.Scenario(stmts), source=source)
    rows = report.csv_rows[len(report.csv_rows) - len(args.combo) * len(args.r):]
    report.csv_rows = sorted(rows, key=lambda row: row[:2])
    csv = report.csv()
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(csv)
    else:
        sys.stdout.write(csv)
    return EXIT_PASS


# ---------------------------------------------------------------------------
# graph
# ---------------------------------------------------------------------------


def _combo_text(parts) -> str:
    bits = []
    for i, (coeff, mode, kind) in enumerate(parts):
        # display only, never fed back in: 10 digits hide solver float noise
        term = f"{abs(float(coeff)):.10g}*{kind}{mode}"
        if i == 0:
            bits.append(term if coeff >= 0 else f"-{term}")
        else:
            bits.append(f"{'+' if coeff >= 0 else '-'} {term}")
    return " ".join(bits)


def _render_protocol_report(report, graph: graphs.Graph) -> str:
    lines = [
        f"protocol: {report.protocol}",
        f"graph: {graph.n_vertices} vertices, {len(graph.edges)} edges",
    ]
    if report.flavor:
        lines.append(f"flavor: {report.flavor}")
    if report.measurements:
        measured = " ".join(f"{kind}{mode}" for mode, kind in report.measurements)
        lines.append(f"measurements: {measured}")
    if report.displacements:
        count = len(report.displacements)
        plural = "s" if count != 1 else ""
        lines.append(f"displacements: {count} feed-forward correction{plural}")
    if report.success:
        lines.append("status: success")
        if report.targets:
            lines.append("nullifiers:")
            lines += [f"  {_combo_text(report.register.frame_combo(p))}" for p in report.targets]
        if report.partition:
            rendered = " | ".join(
                "{" + ",".join(str(m) for m in block) + "}" for block in report.partition
            )
            lines.append(f"partition: {rendered}")
    else:
        lines.append("status: failed")
        if (sol := report.infeasible) is not None:
            lines.append(f"rank: {sol.rank} of {sol.equations} record equations "
                         f"(deficiency {sol.deficiency})")
    if report.details:
        lines.append(f"details: {report.details}")
    return "\n".join(lines) + "\n"


def _ints(flag: str, text: str) -> tuple[int, ...]:
    try:
        return tuple(int(piece) for piece in text.split(","))
    except ValueError:
        raise ValueError(f"{flag} wants comma-separated integers, got {text!r}") from None


# --protocol name -> (its function's name in protocols, the flags it requires, the other
# flags it takes).  The function is looked up per call, so a patched or wrapped attribute is
# the one run; each flag given reaches it as the keyword its name ends in (--outer-left: left).
_PROTOCOLS = {
    "reduce-path": ("reduce_graph_to_path", ("--a", "--b"), ()),
    "star-ghz": ("star_to_ghz", (), ()),
    "ring-star-ghz": ("ring_star_to_ghz", (), ("--measured", "--flavor")),
    "extract-pair": ("extract_pair", ("--j", "--k"), ("--outer-left", "--outer-right")),
    "disconnect": ("disconnect", ("--j",), ()),
    "disentangle": ("disentangle_even", (), ()),
}
# Every protocol flag as argparse declares it, in the order they are read.  A LIST becomes
# integers only once the protocol is known to take it.
_FLAGS = {
    "--a": dict(type=int, help="path start vertex"),
    "--b": dict(type=int, help="path end vertex"),
    "--j": dict(type=int, help="pair / cut position"),
    "--k": dict(type=int, help="pair position"),
    "--measured": dict(metavar="LIST", help="ring vertices to measure (default: the hub's spokes)"),
    "--flavor": dict(choices=tuple(protocols.FLAVORS)),
    "--outer-left": dict(metavar="LIST", help="helper positions left of the pair"),
    "--outer-right": dict(metavar="LIST", help="helper positions right of the pair"),
}


def _cmd_graph(args) -> int:
    graph = graphs.load_edge_list(args.edges)
    name, required, optional = _PROTOCOLS[args.protocol]
    given = {flag: value for flag in _FLAGS
             if (value := getattr(args, flag[2:].replace("-", "_"))) is not None}
    missing = [flag for flag in required if flag not in given]
    if missing:
        raise ValueError(f"protocol {args.protocol} requires {' and '.join(missing)}")
    unread = [flag for flag in given if flag not in required + optional]
    if unread:
        raise ValueError(f"protocol {args.protocol} does not take {' or '.join(unread)}")
    kwargs = {flag.rpartition("-")[2]: _ints(flag, value) if _FLAGS[flag].get("metavar") == "LIST"
              else value for flag, value in given.items()}
    report = getattr(protocols, name)(graph, **kwargs)
    sys.stdout.write(_render_protocol_report(report, graph))
    return EXIT_PASS if report.success else EXIT_FAIL


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def _checked(convert, valid, wanted: str):
    """An argparse type: ``convert`` the text, then insist that ``valid`` holds."""

    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            value = None
        if value is None or not valid(value):
            raise argparse.ArgumentTypeError(f"expected {wanted}, got {text!r}")
        return value

    return parse


class _Parser(argparse.ArgumentParser):
    """Parser and subparsers: help at 78 columns whatever ``COLUMNS`` says; errors in one line."""

    def __init__(self, **kwargs):
        kwargs.setdefault("formatter_class", functools.partial(argparse.HelpFormatter, width=78))
        super().__init__(**kwargs)

    def error(self, message):
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")

    def parse_known_args(self, args=None, namespace=None):
        """Refuse extras in the parser that collected them, so the error names its subcommand."""
        namespace, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error(f"unrecognized arguments: {' '.join(extras)}")
        return namespace, extras


@functools.cache  # one parser per process, built on first use
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="cvcluster",
        description="Continuous-variable cluster-state toolkit",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    run_parser = sub.add_parser("run", help="execute a .cvq scenario script")
    run_parser.add_argument("script", help="path to the script")
    run_parser.add_argument(
        "--engine", choices=(scenario.LEDGER, scenario.COVARIANCE),
        default=scenario.LEDGER,
        help="exact symbolic engine (default) or numeric Gaussian engine",
    )
    run_parser.add_argument("--r", type=_checked(float, math.isfinite, "a finite real"),
                            default=None, help="squeezing parameter (required for covariance)")
    run_parser.add_argument("--seed", default=None,
                            type=_checked(int, lambda v: v >= 0, "a non-negative integer"),
                            help="seed for simulated measurement outcomes")

    claims_parser = sub.add_parser("claims", help="run the built-in claims suite")
    claims_parser.add_argument("--only", metavar="ID", default=None,
                               help="run one claim and show its detail rows")

    sweep_parser = sub.add_parser("sweep", help="variance-vs-squeezing CSV")
    source = sweep_parser.add_mutually_exclusive_group(required=True)
    source.add_argument(
        "--state", metavar="NAME:SIZE",
        help="built-in state: chain:N, star:LEAVES, ringstar:M (ring of 2M), "
             "bschain:N, ghz:N",
    )
    source.add_argument("--script", help="take the state a .cvq script builds")
    sweep_parser.add_argument("--combo", action="append", required=True,
                              metavar="TERMS", help="combination, e.g. '1*y1 - 1*x2'")
    sweep_parser.add_argument("--r", default="", metavar="LIST",
                              type=_checked(_parse_r_list, lambda rs: all(map(math.isfinite, rs)),
                                            "comma-separated finite reals"),
                              help="comma-separated squeezing values "
                                   "(empty: header-only CSV)")
    sweep_parser.add_argument("--output", "-o", default=None, help="write CSV here")

    graph_parser = sub.add_parser("graph", help="run a protocol on an edge-list graph")
    graph_parser.add_argument("edges", help="edge-list file: one 'a b' pair per line")
    graph_parser.add_argument("--protocol", required=True, choices=tuple(_PROTOCOLS))
    for flag, options in _FLAGS.items():
        graph_parser.add_argument(flag, **options)
    return parser


_COMMANDS = {
    "run": _cmd_run,
    "claims": _cmd_claims,
    "sweep": _cmd_sweep,
    "graph": _cmd_graph,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.subcommand](args)
    except InternalConsistencyError as err:  # a program defect, not a usage error
        where = "" if err.line is None else f"{err.source}:{err.line}:{err.col}: "
        print(f"{where}internal error: {err.reason}", file=sys.stderr)
        return EXIT_INTERNAL
    except (OSError, CvClusterError, ValueError) as err:
        print(err, file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
