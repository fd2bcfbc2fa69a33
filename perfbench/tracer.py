"""Outside-in tracer: wraps library functions from the benchmark's side.

Each target is patched at every binding its callers use.  A module-level
function is replaced in every `troptheta` module that holds the same
object (so `troptheta.theta.minimize_quadratic`, bound by
`from .lattice import minimize_quadratic`, is traced as well as
`troptheta.lattice.minimize_quadratic`); methods are patched on their class
and CLI commands on their click command object.  A target that no longer
exists raises TraceTargetError, so a rename cannot silently zero a layer.

Spans (name, start, end, parent, op id) are kept in flat arrays and
written out by `dump`.  A span's self time is its duration minus the time
covered by its child spans; the process is single-threaded, so children
never overlap and nothing waits on another thread or on I/O queues.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
from array import array
from time import perf_counter


class TraceTargetError(LookupError):
    """A function named in the target table is missing from the library."""


# metric prefix -> (module, attribute path, {count kind: fn(result)}, pre hook)
# The pre hook runs before the call and its value is handed to the counters.
TARGETS = {
    "lattice.minimize_quadratic": ("troptheta.lattice", "minimize_quadratic", {"argmin": lambda r, _: len(r.argmin)}),
    "lattice.lll_reduce": ("troptheta.lattice", "lll_reduce", {}),
    "lattice.enumerate_below": ("troptheta.lattice", "enumerate_below", {"points": lambda r, _: len(r)}),
    "lattice.CosetLattice.representatives": ("troptheta.lattice", "CosetLattice.representatives", {}),
    "lattice.CosetLattice.decompose": ("troptheta.lattice", "CosetLattice.decompose", {}),
    "linalg.solve": ("troptheta.linalg", "solve", {}),
    "linalg.inverse": ("troptheta.linalg", "inverse", {}),
    "theta.evaluate": ("troptheta.theta", "TropicalThetaFunction.evaluate", {"witnesses": lambda r, _: len(r.witnesses)}),
    "theta.construct": ("troptheta.theta", "TropicalThetaFunction.__post_init__", {}),
    "varieties.validate": ("troptheta.varieties", "validate", {}),
    "geometry.corner_locus": ("troptheta.geometry", "corner_locus", {"kept": lambda r, _: len(r.cells)}),
    "geometry._build_cell": ("troptheta.geometry", "_build_cell", {}),
    "geometry._terms_below": ("troptheta.geometry", "_terms_below", {"terms": lambda r, _: len(r)}),
    "geometry.export_mesh": ("troptheta.geometry", "export_mesh", {"bytes": lambda r, _: len(r)}),
    "puiseux.mul": ("troptheta.puiseux", "PuiseuxNumber.__mul__", {}),
    "puiseux.pow": ("troptheta.puiseux", "PuiseuxNumber.__pow__", {}),
    "nonarch.coefficient": (
        "troptheta.nonarch",
        "NAThetaFunction.coefficient",
        {"hits": lambda r, hit: int(hit)},
        lambda self, u: tuple(int(x) for x in u) in self._table,
    ),
    "nonarch.NACocycle.value": ("troptheta.nonarch", "NACocycle.value", {}),
    "nonarch.tropicalize": ("troptheta.nonarch", "tropicalize", {}),
    "nonarch.evaluate_at_point": ("troptheta.nonarch", "evaluate_at_point", {"terms": lambda r, _: r.terms}),
    "crosschecks.suite_a": ("troptheta.crosschecks", "suite_a", {}),
    "crosschecks.suite_b": ("troptheta.crosschecks", "suite_b", {}),
    "crosschecks.suite_c": ("troptheta.crosschecks", "suite_c", {}),
    "cli.validate": ("troptheta.cli", "validate.callback", {}),
    "cli.eval": ("troptheta.cli", "eval_.callback", {}),
    "cli.riemann": ("troptheta.cli", "riemann.callback", {}),
    "cli.crosscheck": ("troptheta.cli", "crosscheck.callback", {}),
    "cli.export": ("troptheta.cli", "export.callback", {}),
}


class Tracer:
    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.names = list(targets)
        self.name_id = {n: i for i, n in enumerate(self.names)}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.counts = {n: {k: 0 for k in spec[2]} for n, spec in targets.items()}
        self.op = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object, object]] = []

    # ---------- patching ----------

    def _resolve(self, module_name: str, path: str):
        module = sys.modules.get(module_name)
        if module is None:
            raise TraceTargetError(f"trace target module {module_name} is not imported")
        owner = module
        *parents, attr = path.split(".")
        try:
            for part in parents:
                owner = getattr(owner, part)
            original = vars(owner)[attr]
        except (AttributeError, KeyError) as exc:
            raise TraceTargetError(f"trace target {module_name}.{path} not found") from exc
        if not callable(original):
            raise TraceTargetError(f"trace target {module_name}.{path} is not callable")
        return module, owner, attr, original

    @property
    def installed(self) -> bool:
        return bool(self._patches)

    def install(self) -> None:
        """Patch every target at every binding; a no-op when installed."""
        if self._patches:
            return
        modules = [m for n, m in sorted(sys.modules.items()) if n == "troptheta" or n.startswith("troptheta.")]
        for name, spec in self.targets.items():
            module_name, path = spec[0], spec[1]
            module, owner, attr, original = self._resolve(module_name, path)
            wrapper = self._wrap(name, original, spec[2], spec[3] if len(spec) > 3 else None)
            if owner is module:
                bindings = [(m, a) for m in modules for a, v in vars(m).items() if v is original]
            else:
                bindings = [(owner, attr)]
            for holder, key in bindings:
                self._patches.append((holder, key, original, wrapper))
                setattr(holder, key, wrapper)

    def uninstall(self) -> None:
        for holder, key, original, _ in reversed(self._patches):
            setattr(holder, key, original)
        self._patches.clear()

    def bindings(self, name: str) -> list[str]:
        """Where the target `name` is patched (module or class, attribute)."""
        out = []
        for holder, key, original, wrapper in self._patches:
            if getattr(wrapper, "_trace_name", None) == name:
                out.append(f"{getattr(holder, '__name__', type(holder).__name__)}.{key}")
        return out

    def _wrap(self, name, fn, counters, pre):
        nid = self.name_id[name]
        stack = self._stack
        s_name, s_parent, s_op = self.span_name, self.span_parent, self.span_op
        s_start, s_end = self.span_start, self.span_end
        counts = self.counts[name]
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            before = pre(*args, **kwargs) if pre is not None else None
            idx = len(s_name)
            s_name.append(nid)
            s_parent.append(stack[-1] if stack else -1)
            s_op.append(tracer.op)
            s_end.append(0.0)
            stack.append(idx)
            s_start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                s_end[idx] = perf_counter()
                stack.pop()
            for kind, count in counters.items():
                counts[kind] += count(result, before)
            return result

        wrapper._trace_name = name
        return wrapper

    # ---------- aggregation ----------

    def summary(self) -> dict[str, dict]:
        """Per target: calls, self_s, the counters, and per-parent call counts."""
        n = len(self.span_name)
        child = [0.0] * n
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child[p] += ends[i] - starts[i]
        out = {name: {"calls": 0, "self_s": 0.0, "under": {}} for name in self.names}
        for i in range(n):
            rec = out[self.names[names[i]]]
            rec["calls"] += 1
            rec["self_s"] += ends[i] - starts[i] - child[i]
            p = parents[i]
            if p >= 0:
                parent = self.names[names[p]]
                rec["under"][parent] = rec["under"].get(parent, 0) + 1
        for name, counters in self.counts.items():
            out[name].update(counters)
        return out

    def dump(self, path) -> None:
        """Write the spans: one JSON header line, then the raw columns."""
        path.parent.mkdir(parents=True, exist_ok=True)
        columns = [
            ("name", self.span_name),
            ("parent", self.span_parent),
            ("op", self.span_op),
            ("start", self.span_start),
            ("end", self.span_end),
        ]
        header = {
            "names": self.names,
            "spans": len(self.span_name),
            "columns": [[c, a.typecode, a.itemsize] for c, a in columns],
            "byteorder": sys.byteorder,
        }
        with gzip.open(path, "wb", compresslevel=1) as fh:
            fh.write((json.dumps(header) + "\n").encode())
            for _, a in columns:
                fh.write(a.tobytes())
