"""Spans and counts around the public functions of each ``indomatic`` module.

``Tracer.install`` replaces every public function of every module in the
package with a wrapper, in every module namespace that binds it (the
package itself, and each module that imported it by name), so calls
between modules are seen as well as calls from the benchmark.  A span
covers one call, or one resume of a generator.  Its self time is its
duration minus the durations of the spans it directly contains.  Methods
of classes and private functions are not wrapped; their time counts as
self time of the nearest wrapped caller.

Everything is kept in memory; ``layer_metrics`` reads it out once the
traced pass has ended.
"""
from __future__ import annotations

import inspect
import sys
from collections import defaultdict
from time import perf_counter

PACKAGE = "indomatic"

# Module -> layer.  The search engine in ``_search`` belongs to the solver.
LAYERS = {
    "core": "core",
    "_search": "solver",
    "solver": "solver",
    "undirected": "undirected",
    "domination": "domination",
    "transforms": "transforms",
    "families": "families",
    "critical": "critical",
    "laws": "laws",
    "fileio": "fileio",
    "cli": "cli",
}

SOLVE_ENTRY_POINTS = frozenset(
    {
        "strong_in_domatic_number",
        "strong_out_domatic_number",
        "in_domatic_number",
        "lambda_number",
        "exists_partition_into_k",
        "enumerate_max_partitions",
    }
)


def package_modules() -> list:
    return [
        module
        for name, module in sorted(sys.modules.items())
        if module is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
    ]


def package_caches() -> list:
    """The ``functools.lru_cache`` functions defined in the package."""
    caches = {}
    for module in package_modules():
        for obj in vars(module).values():
            wrapped = getattr(obj, "__wrapped__", None)
            if hasattr(obj, "cache_info") and getattr(wrapped, "__module__", None) == module.__name__:
                caches[id(obj)] = obj
    return list(caches.values())


def _public_functions(module) -> dict:
    """name -> function for the public functions ``module`` defines."""
    found = {}
    for name, obj in vars(module).items():
        if name.startswith("_"):
            continue
        target = getattr(obj, "__wrapped__", obj)
        if inspect.isfunction(target) and target.__module__ == module.__name__:
            found[name] = obj
    return found


class Tracer:
    def __init__(self) -> None:
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self._stack = []  # [key, start, time covered by child spans]
        self._bindings = []  # (module, name, original)
        self.solves = 0
        self.repeat_solves = 0
        self.search_nodes = 0
        self.block_strong_checks = 0
        self.block_strong_rejects = 0
        self.critical_solves = 0
        self.critical_ops = 0
        self._critical_depth = 0
        self._op_fingerprints = set()
        self._op_used_critical = False
        self._nested_results = []

    # -- installation ---------------------------------------------------

    def install(self) -> None:
        originals = {}
        for module in package_modules():
            short = module.__name__[len(PACKAGE) + 1:]
            if short not in LAYERS:
                continue
            for name, fn in _public_functions(module).items():
                originals[id(fn)] = (f"{short}.{name}", LAYERS[short], fn)
        for module in package_modules():
            for name, obj in list(vars(module).items()):
                if id(obj) not in originals:
                    continue
                key, layer, fn = originals[id(obj)]
                binding = module.__name__[len(PACKAGE) + 1:]
                setattr(module, name, self._wrap(key, layer, fn, binding))
                self._bindings.append((module, name, fn))

    def uninstall(self) -> None:
        for module, name, fn in self._bindings:
            setattr(module, name, fn)
        self._bindings.clear()

    # -- op boundaries --------------------------------------------------

    def begin_op(self) -> None:
        self._op_fingerprints.clear()
        self._op_used_critical = False

    def end_op(self) -> None:
        self.critical_ops += self._op_used_critical

    # -- spans ----------------------------------------------------------

    def _enter(self, key: str) -> None:
        self._stack.append([key, perf_counter(), 0.0])

    def _leave(self) -> None:
        key, start, children = self._stack.pop()
        span = perf_counter() - start
        self.self_s[key] += span - children
        if self._stack:
            self._stack[-1][2] += span

    def _wrap(self, key: str, layer: str, fn, binding: str):
        target = getattr(fn, "__wrapped__", fn)
        if inspect.isgeneratorfunction(target):
            return self._wrap_generator(key, fn)
        name = key.split(".", 1)[1]
        is_solve = layer == "solver" and name in SOLVE_ENTRY_POINTS
        is_critical = layer == "critical"
        # is_strong as the solver module binds it: the block strongness test
        # of the search, plus the strongness precondition of each solve.
        is_block_check = binding == "solver" and key == "core.is_strong"
        tracer = self

        def traced(*args, **kwargs):
            tracer.calls[key] += 1
            if is_solve:
                tracer._count_solve(key, args, kwargs)
            if is_critical:
                tracer._critical_depth += 1
                tracer._op_used_critical = True
            tracer._enter(key)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._leave()
                if is_critical:
                    tracer._critical_depth -= 1
                if is_solve:
                    inner = tracer._nested_results.pop()
            if is_solve:
                stats = getattr(result, "stats", None)
                # A solve that returns a nested solve's result did no search
                # of its own.
                if stats is not None and all(result is not r for r in inner):
                    tracer.search_nodes += stats.nodes
                if tracer._nested_results:
                    tracer._nested_results[-1].append(result)
            if is_block_check:
                tracer.block_strong_checks += 1
                tracer.block_strong_rejects += result is False
            return result

        return traced

    def _wrap_generator(self, key: str, fn):
        tracer = self

        def traced(*args, **kwargs):
            tracer.calls[key] += 1
            gen = fn(*args, **kwargs)
            try:
                while True:
                    tracer._enter(key)
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        tracer._leave()
                    yield item
            finally:
                gen.close()

        return traced

    def _count_solve(self, key: str, args, kwargs) -> None:
        D = args[0] if args else next(iter(kwargs.values()))
        fingerprint = (key, D.vertex_count, D.arcs, args[1:], tuple(sorted(kwargs.items())))
        self.solves += 1
        if fingerprint in self._op_fingerprints:
            self.repeat_solves += 1
        else:
            self._op_fingerprints.add(fingerprint)
        if self._critical_depth:
            self.critical_solves += 1
        self._nested_results.append([])

    # -- read-out -------------------------------------------------------

    def layer_self_s(self, layer: str) -> float:
        return sum(
            seconds for key, seconds in self.self_s.items()
            if LAYERS[key.split(".", 1)[0]] == layer
        )

    def layer_calls(self, layer: str) -> int:
        return sum(
            calls for key, calls in self.calls.items()
            if LAYERS[key.split(".", 1)[0]] == layer
        )

    def layer_metrics(self, cache_entries: int, overhead_s: float) -> dict:
        """Every per-layer metric, as (value, unit); 0 where the layer was
        not called."""
        calls, self_s = self.calls, self.self_s
        return {
            "core.make_digraph.calls": (calls["core.make_digraph"], "count"),
            "core.induced_subdigraph.calls": (calls["core.induced_subdigraph"], "count"),
            "core.is_strong.calls": (calls["core.is_strong"], "count"),
            "core.is_strong.self_s": (self_s["core.is_strong"], "s"),
            "core.adjacency_cache_entries": (cache_entries, "count"),
            "solver.solves": (self.solves, "count"),
            "solver.repeat_solves": (self.repeat_solves, "count"),
            "solver.search_nodes": (self.search_nodes, "count"),
            "solver.self_s": (self.layer_self_s("solver"), "s"),
            "solver.block_strong_checks": (self.block_strong_checks, "count"),
            "solver.block_strong_rejects": (self.block_strong_rejects, "count"),
            "solver.search_cap.self_s": (self_s["solver.search_cap"], "s"),
            "undirected.vertex_connectivity.calls": (calls["undirected.vertex_connectivity"], "count"),
            "undirected.vertex_connectivity.self_s": (self_s["undirected.vertex_connectivity"], "s"),
            "undirected.connected_domatic_number.self_s": (
                self_s["undirected.connected_domatic_number"], "s"),
            "undirected.clique_domination_number.self_s": (
                self_s["undirected.clique_domination_number"], "s"),
            "undirected.is_planar.self_s": (self_s["undirected.is_planar"], "s"),
            "domination.calls": (self.layer_calls("domination"), "count"),
            "domination.self_s": (self.layer_self_s("domination"), "s"),
            "transforms.self_s": (self.layer_self_s("transforms"), "s"),
            "laws.self_s": (self.layer_self_s("laws"), "s"),
            "critical.self_s": (self.layer_self_s("critical"), "s"),
            "critical.solves_per_op": (self.critical_solves / max(self.critical_ops, 1), "solves/op"),
            "fileio.self_s": (self.layer_self_s("fileio"), "s"),
            "cli.self_s": (self.layer_self_s("cli"), "s"),
            "trace.overhead_s": (overhead_s, "s"),
        }

    def table(self) -> str:
        """The 20 functions with the most self time, one per line."""
        rows = sorted(self.self_s.items(), key=lambda kv: -kv[1])[:20]
        return "\n".join(
            f"{key:45s} {self.calls[key]:>9d} calls {seconds:9.3f} s self" for key, seconds in rows
        )
