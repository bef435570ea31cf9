"""Span tracer installed at run time for the benchmark's traced run.

Installing the tracer rebinds every public function of the package's layer
modules (and the public methods and constructors of their public classes)
to a wrapper.  A function imported into another module under its own name,
such as `compare.sup_solution_norm` or `lattice.condition`, is rebound there
too, so calls across modules are seen.  Nothing under `src/` changes; the
untraced run never installs the wrappers.

Each function belongs to a *group* (see GROUPS).  A call that enters a layer
from outside it, or whose group is marked always separate, records a span:
function, start, end, parent span and operation id.  A call nested inside
the same layer only bumps a call count and its time stays with the caller's
span, so the per-j suprema inside `sup_solution_norm` count as norm time,
while a `condition` re-scan inside `increment_bound` still gets its own span.
A span's self time is its duration minus the time its child spans cover;
group metrics sum self times.  Spans stay in memory in compact arrays and are
written out when the run ends.
"""

from __future__ import annotations

import gzip
import importlib
import inspect
import sys
from array import array
from collections import Counter, defaultdict
from time import perf_counter

from stats import loglog_slope, self_time

PACKAGE = "gibbs_stein"
LAYERS = ("measures", "stein", "factors", "size_bias", "compare", "lattice", "cli")

# function id -> (group, always separate); functions not listed use the
# DEFAULT_GROUP of their layer
GROUPS = {
    "stein.solve": ("stein.solve", False),
    "stein.solve_extended": ("stein.solve", False),
    "stein.sup_solution_norm": ("stein.sup_norm", False),
    "stein.extended_solution_norm": ("stein.sup_norm", False),
    "stein.sup_solution_exact": ("stein.sup_pointwise", False),
    "stein.sup_increment_exact": ("stein.sup_pointwise", False),
    "factors.condition": ("factors.condition", True),
    "compare.tv_distance": ("compare.tv", True),
    "size_bias.CouplingSpec.__init__": ("size_bias.spec", False),
    "size_bias.CouplingSpec.independent_bernoulli": ("size_bias.spec", False),
    "size_bias.CouplingSpec.from_configurations": ("size_bias.spec", False),
    "size_bias.CouplingSpec.from_dict": ("size_bias.spec", False),
    "size_bias.CouplingSpec.sum_law": ("size_bias.sum_law", True),
    "size_bias.CouplingSpec.coupling_given_index": ("size_bias.coupling", True),
    "size_bias.CouplingSpec.mean_abs_gap": ("size_bias.mean_abs_gap", True),
    "lattice.lattice_measure": ("lattice.measure", True),
    "lattice.limit_measure": ("lattice.measure", True),
    "lattice.lattice_comparison_report": ("lattice.report", False),
    "lattice.closed_form_bound": ("lattice.report", False),
    "lattice.sum_coupling_bound": ("lattice.coupling", True),
    "lattice.poisson_sum_bounds": ("lattice.poisson_sum", False),
}
for _name in ("poisson", "binomial", "geometric", "negative_binomial", "hypergeometric",
              "discrete_uniform", "builtin", "from_pmf", "from_potential",
              "GibbsMeasure.__init__", "GibbsMeasure.restricted",
              "GibbsMeasure.reparametrized", "GibbsMeasure.from_dict", "GibbsMeasure.from_json"):
    GROUPS[f"measures.{_name}"] = ("measures.build", False)

DEFAULT_GROUP = {
    "measures": "measures.query",
    "stein": "stein.other",
    "factors": "factors.certificate",
    "size_bias": "size_bias.other",
    "compare": "compare.self",
    "lattice": "lattice.other",
    "cli": "cli",
}

# probes record one value per span from the call's arguments or result
_SIZE_PROBED = {
    "stein.solve", "stein.solve_extended", "stein.sup_solution_norm", "stein.extended_solution_norm",
}
_IDENTITY_PROBED = {"factors.condition", "size_bias.CouplingSpec.sum_law"}
_LENGTH_PROBED = {"size_bias.CouplingSpec.coupling_given_index"}


def layer_of(fid: str) -> str:
    return fid.split(".", 1)[0]


def group_of(fid: str) -> tuple[str, bool]:
    return GROUPS.get(fid, (DEFAULT_GROUP[layer_of(fid)], False))


def _traceable(module) -> dict[str, object]:
    """Public functions and methods defined in a layer module, by function id."""
    layer = module.__name__.rsplit(".", 1)[-1]
    names = getattr(module, "__all__", None)
    if names is None:
        names = [n for n in vars(module) if not n.startswith("_")]
    found = {}
    for name in names:
        obj = getattr(module, name)
        if inspect.isfunction(obj) and obj.__module__ == module.__name__:
            found[f"{layer}.{name}"] = obj
        elif inspect.isclass(obj) and obj.__module__ == module.__name__:
            for attr, raw in vars(obj).items():
                if attr.startswith("_") and attr != "__init__":
                    continue
                fn = raw.__func__ if isinstance(raw, staticmethod) else raw
                # dataclass-generated methods live in "<string>", not in the module
                if inspect.isfunction(fn) and fn.__code__.co_filename == module.__file__:
                    found[f"{layer}.{name}.{attr}"] = (obj, attr, raw)
    return found


class Tracer:
    """In-memory span recorder; enable it only around timed operations."""

    def __init__(self):
        self.names: list[str] = []  # function ids, indexed by the span's fid slot
        self.layers: list[str] = []  # layer of each fid slot
        self.fids = array("H")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("l")
        self.ops = array("l")
        self.probes: dict[int, object] = {}
        self.calls: Counter = Counter()  # every call while enabled, spanned or not
        self.stack: list[int] = []
        self.enabled = False
        self.op = -1
        self.keep: list[object] = []  # keeps probed objects alive so ids stay unique per op
        self._restore: list[tuple[object, str, object]] = []

    def begin_op(self, op: int):
        self.op = op
        self.keep.clear()
        self.enabled = True

    def end_op(self):
        self.enabled = False

    def _wrap(self, fid: str, fn):
        tracer = self
        slot = len(self.names)
        self.names.append(fid)
        layer = layer_of(fid)
        self.layers.append(layer)
        always = group_of(fid)[1]
        layers = self.layers
        fids, starts, ends, parents, ops = self.fids, self.starts, self.ends, self.parents, self.ops
        stack, calls = self.stack, self.calls
        size_probe = fid in _SIZE_PROBED
        identity_probe = fid in _IDENTITY_PROBED
        length_probe = fid in _LENGTH_PROBED

        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            calls[fid] += 1
            if stack and not always and layers[fids[stack[-1]]] == layer:
                return fn(*args, **kwargs)  # nested in its own layer: time stays with the caller
            index = len(fids)
            fids.append(slot)
            parents.append(stack[-1] if stack else -1)
            ops.append(tracer.op)
            ends.append(0.0)
            stack.append(index)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = perf_counter()
                stack.pop()
            if size_probe:
                tracer.probes[index] = args[0].support_max
            elif identity_probe:
                tracer.keep.append(args[0])
                tracer.probes[index] = (id(args[0]), args[1] if len(args) > 1 else None)
            elif length_probe:
                tracer.probes[index] = len(result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", fid)
        traced.__doc__ = fn.__doc__
        return traced

    def install(self):
        """Rebind every traceable function in every module namespace that binds it."""
        originals: dict[int, object] = {}
        for layer in LAYERS:
            module = importlib.import_module(f"{PACKAGE}.{layer}")
            for fid, target in _traceable(module).items():
                if isinstance(target, tuple):
                    cls, attr, raw = target
                    if isinstance(raw, staticmethod):
                        new = staticmethod(self._wrap(fid, raw.__func__))
                    else:
                        new = self._wrap(fid, raw)
                    self._restore.append((cls, attr, raw))
                    setattr(cls, attr, new)
                else:
                    originals[id(target)] = self._wrap(fid, target)
        namespaces = [name for name in sys.modules if name == PACKAGE or name.startswith(PACKAGE + ".")]
        for ns in map(importlib.import_module, sorted(namespaces)):
            for name, value in list(vars(ns).items()):
                wrapper = originals.get(id(value))
                if wrapper is not None and wrapper.__wrapped__ is value:
                    self._restore.append((ns, name, value))
                    setattr(ns, name, wrapper)

    def uninstall(self):
        for owner, name, value in reversed(self._restore):
            setattr(owner, name, value)
        self._restore.clear()

    def spans(self) -> list[tuple[str, float, float, int, int]]:
        """(function id, start, end, parent index, operation id) per span, in start order."""
        return [(self.names[f], s, e, p, o)
                for f, s, e, p, o in zip(self.fids, self.starts, self.ends, self.parents, self.ops)]

    def write(self, path: str):
        """Write the spans as gzipped CSV: name,start,end,parent,op,probe."""
        with gzip.open(path, "wt", compresslevel=1) as handle:
            handle.write("name,start,end,parent,op,probe\n")
            for i, (name, start, end, parent, op) in enumerate(self.spans()):
                probe = self.probes.get(i, "")
                if isinstance(probe, tuple):
                    probe = f"{probe[0]}:{probe[1]}"
                handle.write(f"{name},{start!r},{end!r},{parent},{op},{probe}\n")


def summarize(spans: list[tuple[str, float, float, int, int]]) -> dict:
    """Per-group self time and entry counts, and per-span self time, from a span list.

    Spans must be in start order with parents before children, which is the
    order the tracer appends them in.  A span is an entry of its group when
    its parent belongs to another group.
    """
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for fid, start, end, parent, _op in spans:
        if parent >= 0:
            children[parent].append((start, end))
    groups: list[str] = []
    is_entry: list[bool] = []
    span_ms: list[float] = []
    self_ms: dict[str, float] = defaultdict(float)
    layer_ms: dict[str, float] = defaultdict(float)
    entries: dict[str, int] = defaultdict(int)
    for i, (fid, start, end, parent, _op) in enumerate(spans):
        group = group_of(fid)[0]
        groups.append(group)
        entry = parent < 0 or groups[parent] != group
        is_entry.append(entry)
        entries[group] += entry
        ms = 1e3 * self_time(start, end, children.get(i, ()))
        span_ms.append(ms)
        self_ms[group] += ms
        layer_ms[layer_of(fid)] += ms
    return {"groups": groups, "is_entry": is_entry, "span_ms": span_ms,
            "self_ms": self_ms, "layer_ms": layer_ms, "entries": entries}


def layer_metrics(tracer: Tracer, n_ops: int, op_seconds: float) -> dict[str, float]:
    """Per-operation layer metrics from the traced phase."""
    spans = tracer.spans()
    s = summarize(spans)
    self_ms, entries, calls, probes = s["self_ms"], s["entries"], tracer.calls, tracer.probes
    per_op = 1.0 / max(n_ops, 1)

    def repeat_ratio(fid: str) -> float:
        """Calls per distinct argument (measure and condition, or spec) within an operation."""
        keys = {(op, probes[i]) for i, (name, _s, _e, _p, op) in enumerate(spans) if name == fid}
        return calls[fid] / len(keys) if keys else 0.0

    def scaling(group: str) -> float:
        """Slope of per-call time against support size N + 1 over the group's entry spans."""
        points = [(probes[i] + 1, s["span_ms"][i]) for i in range(len(spans))
                  if s["is_entry"][i] and s["groups"][i] == group and i in probes]
        return loglog_slope([n for n, _ in points], [t for _, t in points])

    triples = sum(probes[i] for i, span in enumerate(spans) if span[0] in _LENGTH_PROBED)
    op_ms = 1e3 * op_seconds
    return {
        "measures.build_ms": self_ms["measures.build"] * per_op,
        "measures.build_calls": calls["measures.GibbsMeasure.__init__"] * per_op,
        "stein.solve_ms": self_ms["stein.solve"] * per_op,
        "stein.solve_calls": entries["stein.solve"] * per_op,
        "stein.sup_norm_ms": self_ms["stein.sup_norm"] * per_op,
        "stein.sup_norm_calls": entries["stein.sup_norm"] * per_op,
        "stein.sup_pointwise_ms": self_ms["stein.sup_pointwise"] * per_op,
        "stein.self_share": s["layer_ms"]["stein"] / op_ms if op_ms > 0 else 0.0,
        "stein.sup_norm_scaling": scaling("stein.sup_norm"),
        "stein.solve_scaling": scaling("stein.solve"),
        "factors.condition_ms": self_ms["factors.condition"] * per_op,
        "factors.condition_calls": calls["factors.condition"] * per_op,
        "factors.condition_repeat_ratio": repeat_ratio("factors.condition"),
        "factors.certificate_ms": self_ms["factors.certificate"] * per_op,
        "compare.self_ms": self_ms["compare.self"] * per_op,
        "compare.tv_ms": self_ms["compare.tv"] * per_op,
        "compare.tv_calls": calls["compare.tv_distance"] * per_op,
        "size_bias.spec_ms": self_ms["size_bias.spec"] * per_op,
        "size_bias.sum_law_ms": self_ms["size_bias.sum_law"] * per_op,
        "size_bias.sum_law_repeat_ratio": repeat_ratio("size_bias.CouplingSpec.sum_law"),
        "size_bias.coupling_ms": self_ms["size_bias.coupling"] * per_op,
        "size_bias.coupling_triples": triples * per_op,
        "size_bias.mean_abs_gap_ms": self_ms["size_bias.mean_abs_gap"] * per_op,
        "lattice.measure_ms": self_ms["lattice.measure"] * per_op,
        "lattice.report_self_ms": self_ms["lattice.report"] * per_op,
        "lattice.coupling_self_ms": self_ms["lattice.coupling"] * per_op,
        "lattice.harmonic_calls": calls["lattice.harmonic_between"] * per_op,
        "lattice.poisson_sum_self_ms": self_ms["lattice.poisson_sum"] * per_op,
        "cli.self_ms": s["layer_ms"]["cli"] * per_op,
    }
