"""Span recorder around the public functions of each placement_opt module.

`install` replaces every binding of a listed function, in every loaded
placement_opt module, with a wrapper that records one span per call: name,
start, end, parent span and op id. A name bound by `from ... import` in
another module is rebound there too, so `simulate` is traced whether cli,
baselines or sim_engine calls it. Spans stay in memory; `summary` derives
per-function counts, inclusive and self time with numpy, and `write` exports
them when the run ends.
"""

from __future__ import annotations

import functools
import gzip
import sys
import time
from array import array

import numpy as np

# Module -> public functions timed as that module's layer.
LAYERS = {
    "cli": ("main",),
    "datagen": ("write_dataset", "read_dataset"),
    "graph_core": ("load_graph", "topological_order", "reachability", "relation_sets"),
    "sim_engine": ("simulate", "memory_profile"),
    "placement_env": ("reset", "step", "featurize", "evaluate_placement"),
    "neural_primitives": ("dense_forward", "dense_backward", "adam_step", "load_checkpoint"),
    "policy_gnn": ("policy_forward", "policy_backward", "embed", "pool_and_decide"),
    "trainer": ("train_epoch", "rollout", "predict_placement"),
    "baselines": ("exhaustive_search", "place_balanced_mincut", "place_expert_chain", "place_random"),
}

SETUP_OP = -1  # op id of spans recorded while setting up


class SpanRecorder:
    """Flat, append-only span storage; `op` tags each new span."""

    def __init__(self):
        self.names: list[str] = []
        self.active = False
        self.op = SETUP_OP
        self.sim_events = 0  # event_count summed over simulate calls in traced ops
        self._stack: list[int] = []
        self._name = array("i")
        self._parent = array("i")
        self._op = array("i")
        self._start = array("d")
        self._end = array("d")
        self._t0 = time.perf_counter()

    def wrap(self, name: str, fn, on_result=None):
        ix = len(self.names)
        self.names.append(name)
        rec, stack, clock = self, self._stack, time.perf_counter
        names, parents, ops, starts, ends = self._name, self._parent, self._op, self._start, self._end

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not rec.active:
                return fn(*args, **kwargs)
            sid = len(starts)
            names.append(ix)
            parents.append(stack[-1] if stack else -1)
            ops.append(rec.op)
            ends.append(0.0)
            stack.append(sid)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[sid] = clock()
                stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def _count_events(self, result):
        if self.op != SETUP_OP:
            self.sim_events += result.event_count

    def summary(self):
        """Per (function, phase) calls, inclusive ms and self ms, plus
        parent->child call counts. Phase is 'setup' or 'ops'."""
        name = np.array(self._name, dtype=np.int64)
        parent = np.array(self._parent, dtype=np.int64)
        op = np.array(self._op, dtype=np.int64)
        dur = np.array(self._end, dtype=np.float64) - np.array(self._start, dtype=np.float64)
        child = np.zeros(len(dur))
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_t = dur - child
        k = len(self.names)
        out = {}
        for phase, mask in (("setup", op == SETUP_OP), ("ops", op != SETUP_OP)):
            calls = np.bincount(name[mask], minlength=k)
            total = np.bincount(name[mask], weights=dur[mask], minlength=k)
            selfs = np.bincount(name[mask], weights=self_t[mask], minlength=k)
            out[phase] = {
                n: {"calls": int(calls[i]), "ms": float(total[i]) * 1e3, "self_ms": float(selfs[i]) * 1e3}
                for i, n in enumerate(self.names)
            }
        ops_mask = (op != SETUP_OP) & has_parent
        pairs = name[ops_mask] * k + name[parent[ops_mask]]
        counts = np.bincount(pairs, minlength=k * k)
        out["edges"] = {
            (self.names[i // k], self.names[i % k]): int(c) for i, c in enumerate(counts) if c
        }  # (child, parent) -> calls, ops only
        return out

    def write(self, path: str):
        """Export every span as gzipped CSV; times are seconds since the
        recorder was created."""
        t0 = self._t0
        with gzip.open(path, "wt", compresslevel=1) as f:
            f.write("span,name,start_s,end_s,parent,op\n")
            for sid in range(len(self._start)):
                f.write(
                    f"{sid},{self.names[self._name[sid]]},{self._start[sid] - t0:.9f},"
                    f"{self._end[sid] - t0:.9f},{self._parent[sid]},{self._op[sid]}\n"
                )

    @property
    def span_count(self) -> int:
        return len(self._start)


def install(rec: SpanRecorder, package: str = "placement_opt") -> dict[str, int]:
    """Wrap every function in LAYERS and rebind it wherever it is bound.

    Returns the number of module bindings replaced per function; raises when a
    listed function is missing.
    """
    modules = [m for n, m in sorted(sys.modules.items()) if n == package or n.startswith(package + ".")]
    sites = {}
    for mod_name, fns in LAYERS.items():
        module = sys.modules[f"{package}.{mod_name}"]
        for fn_name in fns:
            original = getattr(module, fn_name)
            label = f"{mod_name}.{fn_name}"
            hook = rec._count_events if label == "sim_engine.simulate" else None
            wrapper = rec.wrap(label, original, hook)
            count = 0
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, attr, wrapper)
                        count += 1
            sites[label] = count
    return sites
