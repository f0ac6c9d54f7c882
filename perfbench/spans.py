"""Span recording around calls into the levyheat layers, and the arithmetic
that turns recorded spans into per-layer figures.

A layer is one module of ``src/levyheat``.  `Tracer.install` wraps every
public function and every public method (plus ``__call__``) defined in a
layer module, and rebinds each wrapped function under every name a levyheat
module holds it by, so ``from .solver import mild_step`` in the estimator is
traced as well as ``solver.mild_step``.  Each call records one span: name,
start, end, parent span and run id.  Spans stay in memory (flat arrays)
until `Tracer.save` writes them out.

Self time is a span's duration minus the part of it that its child spans
cover; a layer's busy time is the union of its spans' intervals.
"""

import array
import gzip
import importlib
import inspect
import sys
import time
import weakref
from collections import Counter, defaultdict

LAYERS = ("cli", "config", "estimator", "solver", "noise", "kernel",
          "analytics", "specfun", "certify")

# Methods whose first call on each instance is recorded separately: the
# first evaluation of a stable profile builds its spline.
FIRST_EVAL_METHODS = {"kernel.StableProfile.__call__"}

# quad calls are counted while a span of one of these layers is open
QUAD_LAYERS = ("kernel", "certify")

BLOWUP_ERROR = "BlowupError"


def union_length(intervals, lo=float("-inf"), hi=float("inf")) -> float:
    """Total length covered by (start, end) intervals, clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(start, end, parent) -> list:
    """Per span: duration minus the time its child spans cover.

    `parent[i]` is the index of span i's parent, or -1 for a root span.
    """
    children = defaultdict(list)
    for i, p in enumerate(parent):
        if p >= 0:
            children[p].append((start[i], end[i]))
    return [end[i] - start[i]
            - union_length(children.get(i, ()), start[i], end[i])
            for i in range(len(start))]


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def layer_figures(names, start, end, parent, selected, selves=None) -> dict:
    """calls / busy_s / self_s per layer over the spans whose index is in
    `selected` (one run).  A call is a span entering the layer: its parent
    is a root or belongs to another layer.  `selves` are the spans' self
    times when already computed."""
    if selves is None:
        selves = self_times(start, end, parent)
    layer = [layer_of(n) for n in names]
    out = {}
    for lay in LAYERS:
        idx = [i for i in selected if layer[i] == lay]
        entries = [i for i in idx if parent[i] < 0 or layer[parent[i]] != lay]
        out[f"{lay}.calls"] = len(entries)
        out[f"{lay}.busy_s"] = union_length((start[i], end[i]) for i in idx)
        out[f"{lay}.self_s"] = sum(selves[i] for i in idx)
    return out


class Tracer:
    """Records spans around calls into the levyheat layers.

    Use `install` / `uninstall` (or the tracer as a context manager) to wrap
    and restore the layer functions; set `run_id` before each repetition.
    """

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.name_id = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self.parent = array.array("i")
        self.run = array.array("i")
        self.run_id = 0
        self.first_evals = []            # span indices
        self.quad_calls = Counter()      # run id -> count
        self.blowups = Counter()         # run id -> count
        self._stack = []
        self._depth = Counter()          # layer -> open spans
        self._patches = []               # (owner, attribute, original)

    # -- recording ----------------------------------------------------------

    def _intern(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _wrap(self, fn, name: str):
        nid = self._intern(name)
        lay = layer_of(name)
        first_seen = weakref.WeakSet() if name in FIRST_EVAL_METHODS else None
        rec = self
        stack, depth, clock = self._stack, self._depth, time.perf_counter
        name_a, start_a, end_a = self.name_id, self.start, self.end
        parent_a, run_a = self.parent, self.run

        def traced(*args, **kwargs):
            idx = len(start_a)
            parent = stack[-1] if stack else -1
            name_a.append(nid)
            parent_a.append(parent)
            run_a.append(rec.run_id)
            end_a.append(0.0)
            if first_seen is not None and args[0] not in first_seen:
                first_seen.add(args[0])
                rec.first_evals.append(idx)
            stack.append(idx)
            depth[lay] += 1
            start_a.append(clock())
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                rec._escaping(exc, lay, parent)
                raise
            finally:
                end_a[idx] = clock()
                depth[lay] -= 1
                stack.pop()

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        traced.__doc__ = fn.__doc__
        return traced

    def _escaping(self, exc, lay, parent) -> None:
        # a blow-up counts once, where it leaves the solver layer
        leaves = parent < 0 or layer_of(self.names[self.name_id[parent]]) != lay
        if lay == "solver" and leaves and type(exc).__name__ == BLOWUP_ERROR:
            self.blowups[self.run_id] += 1

    def _counting_quad(self, quad):
        rec = self

        def quad_counted(*args, **kwargs):
            if any(rec._depth[lay] for lay in QUAD_LAYERS):
                rec.quad_calls[rec.run_id] += 1
            return quad(*args, **kwargs)

        quad_counted.__wrapped__ = quad
        return quad_counted

    # -- patching -----------------------------------------------------------

    def _patch(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def install(self) -> "Tracer":
        """Wrap the public functions and methods of every layer module."""
        mods = {lay: importlib.import_module(f"levyheat.{lay}") for lay in LAYERS}
        package = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "levyheat"
                                         or n.startswith("levyheat."))]
        for lay, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped = self._wrap(obj, f"{lay}.{attr}")
                    for holder in package:
                        for alias, val in list(vars(holder).items()):
                            if val is obj:
                                self._patch(holder, alias, wrapped)
                elif inspect.isclass(obj):
                    self._wrap_methods(lay, obj)
        import scipy.integrate
        self._patch(scipy.integrate, "quad",
                    self._counting_quad(scipy.integrate.quad))
        return self

    def _wrap_methods(self, lay, cls) -> None:
        for attr, member in list(vars(cls).items()):
            if attr.startswith("_") and attr != "__call__":
                continue
            name = f"{lay}.{cls.__name__}.{attr}"
            if isinstance(member, (classmethod, staticmethod)):
                self._patch(cls, attr, type(member)(self._wrap(member.__func__, name)))
            elif inspect.isfunction(member):
                self._patch(cls, attr, self._wrap(member, name))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    # -- figures ------------------------------------------------------------

    def span_names(self) -> list:
        return [self.names[i] for i in self.name_id]

    def figures(self, run_ids) -> dict:
        """Layer figures per run id, plus the named-span totals the
        benchmark reports."""
        names = self.span_names()
        start, end, parent = list(self.start), list(self.end), list(self.parent)
        by_run = defaultdict(list)
        for i, r in enumerate(self.run):
            by_run[r].append(i)
        selves = self_times(start, end, parent)
        out = {}
        for run_id in run_ids:
            selected = by_run.get(run_id, [])
            fig = layer_figures(names, start, end, parent, selected, selves)
            fig["analytics.renewal_solve_s"] = sum(
                end[i] - start[i] for i in selected
                if names[i] == "analytics.renewal_solve")
            fig["kernel.quad_calls"] = self.quad_calls[run_id]
            fig["solver.blowups"] = self.blowups[run_id]
            out[run_id] = fig
        return out

    def setup_figures(self, run_id: int) -> dict:
        """Set-up figures of a cold first call: the first evaluation of each
        stable profile, and discrete-kernel builds net of those."""
        names = self.span_names()
        firsts = [i for i in self.first_evals if self.run[i] == run_id]
        profile = sum(self.end[i] - self.start[i] for i in firsts)
        kernel = 0.0
        for i, nm in enumerate(names):
            if nm != "solver.build_discrete_kernel" or self.run[i] != run_id:
                continue
            nested = [j for j in firsts if self._descends(j, i)]
            kernel += (self.end[i] - self.start[i]
                       - sum(self.end[j] - self.start[j] for j in nested))
        return {"kernel.profile_build_s": profile,
                "solver.kernel_build_s": kernel}

    def _descends(self, j: int, i: int) -> bool:
        while j >= 0:
            if j == i:
                return True
            j = self.parent[j]
        return False

    def save(self, path) -> None:
        """Write the spans as CSV (gzip): name, start, end, parent, run."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("index,name,start_s,end_s,parent,run\n")
            names = self.names
            for i in range(len(self.start)):
                fh.write(f"{i},{names[self.name_id[i]]},{self.start[i]!r},"
                         f"{self.end[i]!r},{self.parent[i]},{self.run[i]}\n")
