"""Outside-in tracing of the cvcluster layers for the benchmark's traced run.

The tracer replaces public functions of each package module (and the public
methods of ``ledger.Register`` and ``graphs.Graph``) with wrappers that
record one span per call: layer group, start, end and the span that made
the call.  It patches the module or class attribute itself, never a copy, so
calls made inside the package (``apply_tape`` looking up ``apply_gate`` as a
global, protocols calling ``ledger.is_nullifier``) pass through the wrappers
too.  Nothing under ``src/`` is edited; :meth:`Tracer.remove` puts every
original back.

Spans stay in memory in compact arrays until :meth:`Tracer.summary` reduces
them to per-layer self time, which is a span's duration minus the part of
its interval that its child spans cover.
"""

from __future__ import annotations

import inspect
import time
from array import array

# Layer groups named by the benchmark's per-layer metrics.  A public function
# that is not listed here is still traced, under "<module>.other".
GROUPS = {
    "cli": {"main": "cli.main"},
    "claims": {"run_claims": "claims.run_claims"},
    "scenario": {
        "parse": "scenario.parse",
        "execute": "scenario.execute",
        "ledger_register": "scenario.execute",
    },
    "ledger": {
        "Register.squeeze": "ledger.gate",
        "Register.kerr_couple": "ledger.gate",
        "Register.rotate": "ledger.gate",
        "Register.beamsplit": "ledger.gate",
        "Register.measure": "ledger.feedforward",
        "Register.displace_with": "ledger.feedforward",
        "Register.combine": "ledger.view",
        "Register.frame_combo": "ledger.view",
        "Register.quad_expr": "ledger.view",
        "Register.product_partition": "ledger.view",
        "is_nullifier": "ledger.check",
        "commutator": "ledger.check",
        "variance_formula": "ledger.check",
    },
    "covariance": {
        "apply_gate": "covariance.apply_gate",
        "apply_tape": "covariance.apply_tape",
        "homodyne": "covariance.homodyne",
        "variance_of": "covariance.query",
        "ppt_min_symplectic_eig": "covariance.query",
        "is_physical": "covariance.query",
        "reduced_state": "covariance.query",
        "symplectic_eigenvalues": "covariance.query",
        "uncertainty_defect": "covariance.query",
        "duan_sum": "covariance.query",
        "mean_of": "covariance.query",
    },
    "gates": {
        "is_symplectic": "gates.is_symplectic",
        "gate_matrix": "gates.gate_matrix",
        "symplectic_form": "gates.symplectic_form",
    },
    "graphs": {
        "Graph.neighborhood": "graphs.query",
        "Graph.degree": "graphs.query",
        "Graph.mode_of": "graphs.query",
        "Graph.shortest_path": "graphs.query",
        "parse_edge_list": "graphs.parse_edge_list",
    },
    "protocols": {
        "solve_feedforward": "protocols.solve_feedforward",
        "build_graph_state": "protocols.build",
        "build_bs_chain": "protocols.build",
        "build_ghz_optics": "protocols.build",
        "disentangle_even": "protocols.protocol",
        "disconnect": "protocols.protocol",
        "extract_pair": "protocols.protocol",
        "reduce_graph_to_path": "protocols.protocol",
        "star_to_ghz": "protocols.protocol",
        "ring_star_to_ghz": "protocols.protocol",
        "nullifier_basis": "protocols.null_space",
        "pair_epr_projection": "protocols.null_space",
        "conditional_cov_block_diagonal": "protocols.null_space",
        "minimal_disentangling_measurements": "protocols.oracle",
        "admits_ghz_under_quarter_turns": "protocols.oracle",
        "ghz_admits_conjugate_pair": "protocols.oracle",
    },
}
# Classes whose public methods are traced, per module.
CLASSES = {"ledger": ("Register",), "graphs": ("Graph",)}
MODULES = tuple(GROUPS)


def self_times(parents, starts, ends) -> list[float]:
    """Self time of every span: its duration minus what its children cover.

    ``parents[i]`` is the index of span i's parent, or -1 for a root.  Child
    intervals are clipped to the parent and overlaps between children are
    counted once.
    """
    n = len(starts)
    covered = [0.0] * n
    reach = [float("-inf")] * n  # end of the children covered so far
    for i in sorted(range(n), key=starts.__getitem__):
        p = parents[i]
        if p < 0:
            continue
        lo = max(starts[i], starts[p], reach[p])
        hi = min(ends[i], ends[p])
        if hi > lo:
            covered[p] += hi - lo
        reach[p] = max(reach[p], min(ends[i], ends[p]))
    return [ends[i] - starts[i] - covered[i] for i in range(n)]


class Tracer:
    """Span recorder over the package's public functions.

    Use :meth:`install` before the traced calls and :meth:`remove` after;
    :meth:`summary` gives per-group ``calls`` and ``self_s`` plus the counters
    the hooks collect.
    """

    def __init__(self, package):
        self.package = package
        self._patched: list[tuple[object, str, object]] = []
        self._names: list[str] = []
        self._gid: dict[str, int] = {}
        # The wrappers close over these containers, so reset() empties them
        # in place rather than replacing them.
        self.groups = array("H")
        self.parents = array("l")
        self.starts = array("d")
        self.ends = array("d")
        self._stack: list[int] = []
        self.counters: dict[str, float] = {}
        self._tapes_seen: set = set()

    def reset(self):
        """Drop every recorded span and counter."""
        for arr in (self.groups, self.parents, self.starts, self.ends):
            del arr[:]
        self._stack.clear()
        self.counters.clear()
        self._tapes_seen.clear()

    def new_op(self):
        """Start a new op: replays repeat only within the op that made them."""
        self._tapes_seen.clear()

    # -- patching ----------------------------------------------------------

    def install(self):
        """Wrap every public function and method of the traced modules."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        for mod_name in MODULES:
            module = getattr(self.package, mod_name)
            table = GROUPS[mod_name]
            for attr, fn in list(vars(module).items()):
                if _traceable(fn, module.__name__, attr):
                    group = table.get(attr, f"{mod_name}.other")
                    self._patch(module, attr, fn, group)
            for cls_name in CLASSES.get(mod_name, ()):
                cls = getattr(module, cls_name)
                for attr, fn in list(vars(cls).items()):
                    if _traceable(fn, module.__name__, attr):
                        group = table.get(f"{cls_name}.{attr}", f"{mod_name}.other")
                        self._patch(cls, attr, fn, group)

    def remove(self):
        """Put every original attribute back."""
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def _patch(self, owner, attr, fn, group):
        gid = self._gid.setdefault(group, len(self._names))
        if gid == len(self._names):
            self._names.append(group)
        hook = self._hook_for(group, attr)
        groups, parents, starts, ends = self.groups, self.parents, self.starts, self.ends
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(starts)
            groups.append(gid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if hook is not None:
                hook(args, kwargs, result)
            return result

        self._patched.append((owner, attr, fn))
        setattr(owner, attr, traced)

    # -- counters ----------------------------------------------------------

    def _bump(self, key: str, by: float = 1):
        self.counters[key] = self.counters.get(key, 0) + by

    def _hook_for(self, group: str, attr: str):
        if group == "covariance.apply_gate":
            def hook(args, kwargs, result):
                n = _arg(args, kwargs, 0, "state").n
                self._bump("covariance.apply_gate.elems", (2 * n) ** 2)
            return hook
        if group == "covariance.apply_tape":
            def hook(args, kwargs, result):
                key = (_arg(args, kwargs, 0, "state").n,
                       tuple(_arg(args, kwargs, 1, "tape")),
                       _arg(args, kwargs, 2, "r"))
                if key in self._tapes_seen:
                    self._bump("covariance.apply_tape.repeats")
                self._tapes_seen.add(key)
            return hook
        if group == "protocols.solve_feedforward":
            infeasible = self.package.protocols.Infeasible

            def hook(args, kwargs, result):
                if isinstance(result, infeasible):
                    self._bump("protocols.solve_feedforward.infeasible")
            return hook
        if group == "protocols.protocol":
            def hook(args, kwargs, result):
                if result.success:
                    self._bump("protocols.protocol.success")
            return hook
        if group == "scenario.parse":
            def hook(args, kwargs, result):
                text = _arg(args, kwargs, 0, "text")
                self._bump("scenario.parse.lines", len(text.splitlines()))
            return hook
        if attr == "commutator":
            def hook(args, kwargs, result):
                self._bump("ledger.commutator.calls")
            return hook
        return None

    # -- results -----------------------------------------------------------

    def summary(self) -> dict[str, float]:
        """Per-group ``.calls`` and ``.self_s`` plus every hook counter."""
        out: dict[str, float] = {}
        for name in self._names:
            out[f"{name}.calls"] = 0
            out[f"{name}.self_s"] = 0.0
        for gid, own in zip(self.groups, self_times(self.parents, self.starts, self.ends)):
            name = self._names[gid]
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += own
        out.update(self.counters)
        return out


def _traceable(fn, module_name: str, attr: str) -> bool:
    return (
        inspect.isfunction(fn)
        and fn.__module__ == module_name
        and not attr.startswith("_")
    )


def _arg(args, kwargs, index: int, name: str):
    """Argument ``name`` of a traced call, passed by position or keyword."""
    if len(args) > index:
        return args[index]
    return kwargs.get(name)
