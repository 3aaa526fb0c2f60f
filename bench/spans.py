"""Spans around the calls into each whitneygeo module, from outside the package.

:class:`Tracer` wraps every public function of the seven modules (the
layers) under each name the package looks it up by, and every public method
of their public classes.  Nothing inside ``src/`` changes; the wrappers are
removed again by :meth:`Tracer.uninstall`.  Each call records a span: name,
parent, start and end, plus a count taken at the same boundary (nodes handed
to a layer, nodes a grid holds, whether a model self-test did its work).

Three value types are left unwrapped: ``Jet``, ``ComplexJet`` and ``TJ``.
Their arithmetic runs per tensor entry, hundreds of thousands of calls a
round, so spans there would cost more than the work they time.  Jet
arithmetic therefore counts as self time of the layer that does it; the
micro-benchmarks in ``micro.py`` time it alone.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import time

LAYERS = ("jets", "spaceforms", "immersions", "geometry", "quadrature", "verify", "cli")

VALUE_TYPES = {"Jet", "ComplexJet", "TJ"}

#: functions reported by name; ``<fn>.self_s`` excludes nested calls of the
#: other reported functions, ``<fn>.s`` is the time of outermost calls
REPORTED = {
    "spaceforms": ("fields_at", "self_test"),
    "immersions": ("hamiltonian_flow", "eval_immersion"),
    "geometry": ("pointwise_geometry", "curvature_data", "paper_residuals",
                 "structure_checks", "vector_field_scalars", "sectional_curvatures"),
    "quadrature": ("build_grid",),
    "verify": ("run_case", "conformal_block"),
    "cli": ("main",),
}


def _argument(fn, name):
    """Reader of one named argument of ``fn`` from a call's args and kwargs."""
    sig = inspect.signature(fn)
    return lambda args, kwargs: sig.bind(*args, **kwargs).arguments[name]


def _counter(layer: str, fn):
    """Per-call count for the functions that have one, else None.

    Returns ``(before, after)``: ``before(args, kwargs)`` runs before the
    call, ``after(args, kwargs, result)`` after it.
    """
    name = fn.__name__
    if layer == "spaceforms" and name == "fields_at":
        points = _argument(fn, "points")
        return None, lambda a, k, r: len(points(a, k))
    if layer == "geometry" and name == "pointwise_geometry":
        t = _argument(fn, "t")
        return None, lambda a, k, r: len(t(a, k))
    if layer == "quadrature" and name == "build_grid":
        return None, lambda a, k, r: [len(r.t), r.resolution]
    if layer == "spaceforms" and name == "self_test":
        # the model key if this call runs the test, None if it returns the
        # report the model cached from an earlier call
        def before(args, kwargs):
            model = args[0]
            if getattr(model, "_self_test_report", None) is not None:
                return None
            return [model.kind, model.n, getattr(model, "a", None)]

        return before, None
    return None, None


def span_cost(package, calls: int = 20000, repeats: int = 5) -> float:
    """Seconds one span adds to a call: a traced no-op against a bare one."""

    def noop():
        return None

    traced = Tracer(package)._wrap(noop, "bench", "noop")
    costs = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(calls):
            traced()
        t1 = time.perf_counter()
        for _ in range(calls):
            noop()
        t2 = time.perf_counter()
        costs.append(((t1 - t0) - (t2 - t1)) / calls)
    return sorted(costs)[repeats // 2]


class Tracer:
    """Span recorder; ``install`` wraps the layers, ``uninstall`` restores them."""

    def __init__(self, package):
        self.package = package
        self.modules = {layer: getattr(package, layer) for layer in LAYERS}
        self.names: list[tuple] = []  # (layer, qualname) per name index
        # one span: [name index, parent span, start, end, count]
        self.spans: list[list] = []
        self._stack = [-1]
        self._patches: list[tuple] = []

    def _name(self, layer: str, qualname: str) -> int:
        self.names.append((layer, qualname))
        return len(self.names) - 1

    def _wrap(self, fn, layer: str, qualname: str):
        key = self._name(layer, qualname)
        before, after = _counter(layer, fn)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [key, stack[-1], 0.0, 0.0, None]
            if before is not None:
                rec[4] = before(args, kwargs)
            stack.append(len(spans))
            spans.append(rec)
            rec[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[3] = clock()
                stack.pop()
            if after is not None:
                rec[4] = after(args, kwargs, result)
            return result

        return traced

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        wrappers = {}
        for layer, module in self.modules.items():
            for name, obj in vars(module).items():
                if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj) and not inspect.isgeneratorfunction(obj):
                    wrappers[obj] = self._wrap(obj, layer, name)
                elif inspect.isclass(obj) and name not in VALUE_TYPES:
                    for attr, member in list(vars(obj).items()):
                        if (attr.startswith("_") or not inspect.isfunction(member)
                                or inspect.isgeneratorfunction(member)):
                            continue
                        self._patch(obj, attr, self._wrap(member, layer, f"{name}.{attr}"))
        # rebind each function under every name a module looks it up by
        for module in (self.package, *self.modules.values()):
            for name, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patch(module, name, wrappers[obj])

    def uninstall(self):
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)

    @contextlib.contextmanager
    def root(self, label: str):
        """A span around the benchmark's own code."""
        rec = [self._name("bench", label), self._stack[-1], 0.0, 0.0, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[2] = time.perf_counter()
        try:
            yield
        finally:
            rec[3] = time.perf_counter()
            self._stack.pop()

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"names": [".".join(name) for name in self.names],
                       "fields": ["name", "parent", "start", "end", "count"],
                       "spans": self.spans}, fh)

    def analyse(self, rounds: int) -> dict:
        """Per-round layer metrics from the recorded spans."""
        spans = self.spans
        layer_of = [layer for layer, _ in self.names]
        fn_of = [qualname.rsplit(".", 1)[-1] for _, qualname in self.names]
        bit = {}
        for layer, fns in REPORTED.items():
            for fn in fns:
                bit[(layer, fn)] = 1 << len(bit)
        dur = [s[3] - s[2] for s in spans]
        child = [0.0] * len(spans)
        for i, s in enumerate(spans):
            if s[1] >= 0:
                child[s[1]] += dur[i]

        layer_self = dict.fromkeys(LAYERS + ("bench",), 0.0)
        fn_self = {key: 0.0 for key in bit}
        inclusive = {key: 0.0 for key in bit}
        counts = {"fields_at.nodes": 0, "pointwise_geometry.nodes": 0,
                  "hamiltonian_flow.calls": 0, "nodes_full": 0, "nodes_companion": 0}
        self_tests = []
        owner = [0] * len(spans)  # innermost enclosing reported (or root) span
        ancestry = [0] * len(spans)  # bits of the reported names open around a span
        run_case_of = [-1] * len(spans)
        round_of = [0] * len(spans)  # the benchmark's root span around a span
        full_grid = {}  # run_case span -> resolution of its first grid
        self_test_bit = bit[("spaceforms", "self_test")]
        for i, (key, parent, _, _, count) in enumerate(spans):
            layer, fn = layer_of[key], fn_of[key]
            mine = bit.get((layer, fn), 0)
            above = ancestry[parent] if parent >= 0 else 0
            ancestry[i] = above | mine
            owner[i] = i if (mine or parent < 0) else owner[parent]
            round_of[i] = i if parent < 0 else round_of[parent]
            run_case_of[i] = i if (layer, fn) == ("verify", "run_case") else (
                run_case_of[parent] if parent >= 0 else -1)
            excl = dur[i] - child[i]
            layer_self[layer] += excl
            owner_key = spans[owner[i]][0]
            if (layer_of[owner_key], fn_of[owner_key]) in fn_self:
                fn_self[(layer_of[owner_key], fn_of[owner_key])] += excl
            if not mine or above & mine:
                continue
            if fn == "fields_at" and above & self_test_bit:
                continue  # the model's own self-test points, counted under self_test
            inclusive[(layer, fn)] += dur[i]
            if fn == "fields_at":
                counts["fields_at.nodes"] += count
            elif fn == "pointwise_geometry":
                counts["pointwise_geometry.nodes"] += count
            elif fn == "hamiltonian_flow":
                counts["hamiltonian_flow.calls"] += 1
            elif fn == "self_test" and count is not None:
                self_tests.append((round_of[i], *count))
            elif fn == "build_grid" and run_case_of[i] >= 0:
                # a certificate's first grid is the full one; lower
                # resolutions after it are the companion rungs of the ladder
                nodes, resolution = count
                rc = run_case_of[i]
                if rc in full_grid and resolution < full_grid[rc]:
                    counts["nodes_companion"] += nodes
                else:
                    counts["nodes_full"] += nodes
                    full_grid.setdefault(rc, resolution)

        per = 1.0 / rounds
        out = {f"{layer}.self_s": v * per for layer, v in layer_self.items()}
        for (layer, fn), v in inclusive.items():
            out[f"{layer}.{fn}.s"] = v * per
        for (layer, fn), v in fn_self.items():
            out[f"{layer}.{fn}.self_s"] = v * per
        out["spaceforms.fields_at.nodes"] = counts["fields_at.nodes"] * per
        out["geometry.pointwise_geometry.nodes"] = counts["pointwise_geometry.nodes"] * per
        out["immersions.hamiltonian_flow.calls"] = counts["hamiltonian_flow.calls"] * per
        out["spaceforms.self_test.calls"] = len(self_tests) * per
        out["spaceforms.self_test.repeat_ratio"] = (
            len(self_tests) / len(set(self_tests)) if self_tests else 0.0)
        out["quadrature.nodes_full"] = counts["nodes_full"] * per
        out["quadrature.nodes_companion"] = counts["nodes_companion"] * per
        out["quadrature.companion_ratio"] = (
            counts["nodes_companion"] / counts["nodes_full"] if counts["nodes_full"] else 0.0)
        out["trace.spans"] = len(spans) * per
        # the layers' self times against the benchmark's root spans: 1 when
        # the spans tile each round without gaps or overlaps
        out["trace.accounted_share"] = sum(layer_self.values()) / sum(
            dur[i] for i, s in enumerate(spans) if s[1] < 0)
        return out
