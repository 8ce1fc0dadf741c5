"""Out-of-program tracing: wraps the library's functions in every namespace.

The benchmark measures layers from outside, so nothing under src/ knows it
is traced.  `install` replaces each traced function by a wrapper in every
starkscatter module namespace (and module-level dict, such as the CLI's
dispatch table) that holds a reference to it: a module that did
`from .potentials import eval_potential_array` calls the wrapper too.

Every call becomes a span with a name, a start, an end and a parent.  The
spans are aggregated in memory into a calling-context tree (one node per
distinct call path: calls, total time, self time, work units, first start,
last end); spans of the `cli` layer and spans without a traced parent are
also kept one by one.  Both are written out when the run ends.  A node's
self time is its span time minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time
import tracemalloc

LAYERS = ("potentials", "special", "parabolic", "classical", "transport",
          "oscillatory", "kernel", "cli")

# Private CLI functions that are verify-all stages or artifact writers.
CLI_PRIVATE = ("_suite_parabolic", "_suite_constants", "_suite_region",
               "_suite_free_case", "_emit")

# Layers whose heap growth is traced with tracemalloc in memory mode.
MEMORY_LAYERS = ("transport", "kernel")


def _array_points(args, kwargs, result):
    return int(getattr(result, "size", 1))


def _csv_bytes(args, kwargs, result):
    return os.path.getsize(args[0])


def _summary_bytes(args, kwargs, result):
    cfg, name = args[0], args[1]
    return os.path.getsize(os.path.join(cfg["output_dir"],
                                        f"{name}_summary.json"))


def _grid_bytes(args, kwargs, result):
    return int(result.values.nbytes)


# Work units recorded per call, by span name.
UNITS = {
    "potentials.eval_potential_array": _array_points,
    "cli.write_csv": _csv_bytes,
    "cli._emit": _summary_bytes,
    "kernel.populate_grid": _grid_bytes,
}


class Node:
    __slots__ = ("name", "layer", "parent", "children", "calls", "total",
                 "self_s", "units", "max_units", "start", "end")

    def __init__(self, name, parent):
        self.name = name
        self.layer = name.partition(".")[0]
        self.parent = parent
        self.children = {}
        self.calls = 0
        self.total = 0.0
        self.self_s = 0.0
        self.units = 0
        self.max_units = 0
        self.start = None
        self.end = None


class Tracer:
    """Calling-context tree of spans, plus optional per-layer heap peaks."""

    def __init__(self, memory: bool = False):
        self.root = Node("root", None)
        self.current = self.root
        # One frame per open span: [node, start, time covered by children].
        self.stack = []
        self.spans = []
        self.memory = memory
        self.mem_owner = None
        self.peak_alloc = {}

    def enter(self, name):
        parent = self.current
        node = parent.children.get(name)
        if node is None:
            node = parent.children[name] = Node(name, parent)
        self.current = node
        if (self.memory and self.mem_owner is None
                and node.layer in MEMORY_LAYERS):
            self.mem_owner = node
            tracemalloc.start()
        self.stack.append([node, time.perf_counter(), 0.0])

    def exit(self, units):
        end = time.perf_counter()
        node, start, covered = self.stack.pop()
        dur = end - start
        node.calls += 1
        node.total += dur
        node.self_s += dur - covered
        node.units += units
        node.max_units = max(node.max_units, units)
        if node.start is None:
            node.start = start
        node.end = end
        if self.stack:
            self.stack[-1][2] += dur
        self.current = node.parent
        if node.layer == "cli" or node.parent is self.root:
            self.spans.append((node.name, start, end, node.parent.name))
        if self.mem_owner is node:
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            self.mem_owner = None
            self.peak_alloc[node.layer] = max(
                self.peak_alloc.get(node.layer, 0), peak)

    def wrap(self, name, fn):
        measure = UNITS.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer.enter(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.exit(0)
                raise
            tracer.exit(measure(args, kwargs, result) if measure else 0)
            return result

        return traced

    def export(self) -> dict:
        """Plain-data form: tree nodes in pre-order, individual spans."""
        nodes = []

        def walk(node, parent_index):
            index = len(nodes)
            nodes.append({
                "name": node.name, "parent": parent_index,
                "calls": node.calls, "total_s": node.total,
                "self_s": node.self_s, "units": node.units,
                "max_units": node.max_units,
                "start": node.start, "end": node.end,
            })
            for child in node.children.values():
                walk(child, index)

        for child in self.root.children.values():
            walk(child, None)
        return {
            "nodes": nodes,
            "spans": [{"name": n, "start": s, "end": e, "parent": p}
                      for n, s, e, p in self.spans],
            "peak_alloc_bytes": self.peak_alloc,
        }


def traced_functions(package: str = "starkscatter") -> dict:
    """Map each traced function object to its span name `layer.func`."""
    found = {}
    for layer in LAYERS:
        module = sys.modules[f"{package}.{layer}"]
        for attr, obj in vars(module).items():
            if not inspect.isfunction(obj) or obj.__module__ != module.__name__:
                continue
            if attr.startswith("_") and not (layer == "cli"
                                             and attr in CLI_PRIVATE):
                continue
            found[obj] = f"{layer}.{attr}"
    return found


def install(tracer: Tracer, package: str = "starkscatter") -> int:
    """Wrap every traced function wherever the package's modules refer to it.

    Returns the number of references replaced.
    """
    originals = traced_functions(package)
    wrappers = {fn: tracer.wrap(name, fn) for fn, name in originals.items()}
    replaced = 0
    for mod_name, module in list(sys.modules.items()):
        if module is None or not (mod_name == package
                                  or mod_name.startswith(package + ".")):
            continue
        for attr, obj in list(vars(module).items()):
            if inspect.isfunction(obj) and obj in wrappers:
                setattr(module, attr, wrappers[obj])
                replaced += 1
            elif isinstance(obj, dict):
                for key, val in list(obj.items()):
                    if inspect.isfunction(val) and val in wrappers:
                        obj[key] = wrappers[val]
                        replaced += 1
    return replaced
