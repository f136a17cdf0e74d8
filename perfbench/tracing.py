"""Span tracing for the traced benchmark pass, installed from outside the package.

`Tracer.install` wraps the public functions of each clvdqn module, and the
public methods of its replay classes, at every module binding that callers
look up: a name imported with `from .nn_core import forward_batch` is traced
in every module that holds it. Each call records one span (name, start, end,
parent span, rows); spans stay in memory until `write` saves them with the
pass's run id. `layer_metrics` turns one saved pass into the per-layer metrics.

A name the metrics need that the package no longer defines is listed in
`Tracer.missing` and its metrics read 0, so the benchmark keeps running
across refactors that delete or rename it.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time

import numpy as np

PACKAGE = "clvdqn"
MODULES = ("rfmi", "nn_core", "qlearn", "action_space", "policy_eval", "env", "cli")
CLASSES = (("qlearn", "ReplayBuffer"), ("env", "ColumnarReplay"))

# Per-layer metrics, in report order. The suffix says what is summed over a
# pass: calls, inclusive seconds (s), self seconds (self_s: minus child spans)
# or rows taken from argument or return shapes (rows, states).
KIND_UNITS = {"calls": "count", "s": "s", "self_s": "s", "rows": "rows", "states": "rows"}
VALIDATION = "qlearn.train.validation_s"  # policy_eval.evaluate spans whose parent is qlearn.train
NET_ROWS = "action_space.net_rows_per_state_action"  # forward rows per (state, action) maximized
OVERHEAD = "trace.overhead_frac"  # traced over untraced wall time, minus 1; set by run.py
PER_LAYER = (
    "rfmi.read_timelines.s",
    "rfmi.build_transitions.calls",
    "rfmi.build_transitions.s",
    "rfmi.write_transitions.s",
    "rfmi.read_transitions.rows",
    "rfmi.read_transitions.s",
    "rfmi.compute_norm_stats.s",
    "rfmi.apply_norm.rows",
    "rfmi.apply_norm.s",
    "nn_core.forward_batch.calls",
    "nn_core.forward_batch.rows",
    "nn_core.forward_batch.s",
    "nn_core.backward_batch.calls",
    "nn_core.backward_batch.rows",
    "nn_core.backward_batch.s",
    "nn_core.rmsprop_step.calls",
    "nn_core.rmsprop_step.s",
    "nn_core.save_mlp.s",
    "nn_core.load_mlp.s",
    "qlearn.ReplayBuffer.sample.calls",
    "qlearn.ReplayBuffer.sample.s",
    "qlearn.td_step.calls",
    "qlearn.td_step.self_s",
    "qlearn.td_step_arrays.calls",
    "qlearn.td_step_arrays.self_s",
    "qlearn.max_next_q.s",
    VALIDATION,
    "qlearn.read_sidecar.s",
    "action_space.maximize_continuous_batch.calls",
    "action_space.maximize_continuous_batch.states",
    "action_space.maximize_continuous_batch.s",
    "action_space.best_mixed_batch.calls",
    "action_space.best_mixed_batch.rows",
    "action_space.best_mixed_batch.s",
    "action_space.maximize_continuous.calls",
    "action_space.maximize_continuous.s",
    NET_ROWS,
    "policy_eval.evaluate.calls",
    "policy_eval.evaluate.rows",
    "policy_eval.evaluate.s",
    "policy_eval.recommend_batch.calls",
    "policy_eval.recommend_batch.rows",
    "policy_eval.recommend_batch.s",
    "policy_eval.estimate_clv.calls",
    "policy_eval.estimate_clv.s",
    "env.run_autonomous.self_s",
    "env.env_step.calls",
    "env.env_step.s",
    "env.ColumnarReplay.add_episode.calls",
    "env.ColumnarReplay.add_episode.s",
    "env.ColumnarReplay.arrays.calls",
    "env.ColumnarReplay.arrays.rows",
    "env.ColumnarReplay.arrays.s",
    "cli.cmd_build_transitions.s",
    "cli.cmd_train.s",
    "cli.cmd_evaluate.s",
    "cli.cmd_clv.s",
    "cli.cmd_simulate.s",
    OVERHEAD,
)
SPECIAL_UNITS = {VALIDATION: "s", NET_ROWS: "rows", OVERHEAD: "fraction"}
SPECIAL_NAMES = {
    VALIDATION: ("qlearn.train", "policy_eval.evaluate"),
    NET_ROWS: ("action_space.maximize_continuous_batch", "nn_core.forward_batch"),
    OVERHEAD: (),
}


def split(metric: str):
    """(span name, kind) of a generic per-layer metric."""
    name, kind = metric.rsplit(".", 1)
    return name, kind


def unit(metric: str) -> str:
    return SPECIAL_UNITS.get(metric) or KIND_UNITS[split(metric)[1]]


def required_names() -> set:
    """Span names the per-layer metrics read."""
    names = set()
    for metric in PER_LAYER:
        names.update(SPECIAL_NAMES[metric] if metric in SPECIAL_NAMES else (split(metric)[0],))
    return names


def _batch_rows(x) -> int:
    """Rows of a batch argument: a 1-D array is one state."""
    ndim = getattr(x, "ndim", None)
    if ndim is None:
        return len(x)
    return int(x.shape[0]) if ndim == 2 else 1


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


# Row counters, called as f(args, kwargs, result) after the traced call.
ROWS = {
    "rfmi.read_transitions": lambda a, k, r: len(r),
    "rfmi.apply_norm": lambda a, k, r: len(_arg(a, k, 1, "tuples")),
    "nn_core.forward_batch": lambda a, k, r: _batch_rows(_arg(a, k, 1, "inputs")),
    "nn_core.backward_batch": lambda a, k, r: _batch_rows(_arg(a, k, 2, "output_grads")),
    "action_space.maximize_continuous_batch": lambda a, k, r: _batch_rows(_arg(a, k, 1, "states")),
    "action_space.best_mixed_batch": lambda a, k, r: _batch_rows(_arg(a, k, 1, "states")),
    "policy_eval.evaluate": lambda a, k, r: len(_arg(a, k, 0, "transitions")),
    "policy_eval.recommend_batch": lambda a, k, r: _batch_rows(_arg(a, k, 1, "states")),
    "env.ColumnarReplay.arrays": lambda a, k, r: len(r["rewards"]),
}


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.names = []
        self.spans = []  # (name index, parent span index or -1, start ns, end ns, rows)
        self.stack = []
        self.missing = []
        self.row_errors = set()

    def _wrap(self, name, fn):
        name_id = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns
        count_rows = ROWS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                rows = 0
                if count_rows is not None and result is not None:
                    try:
                        rows = count_rows(args, kwargs, result)
                    except (AttributeError, IndexError, KeyError, TypeError):
                        self.row_errors.add(name)
                spans[idx] = (name_id, parent, start, end, rows)

        return traced

    def install(self):
        """Wraps every public function and replay method; returns the wrapped span names."""
        package = importlib.import_module(PACKAGE)
        modules = {}
        for short in MODULES:
            try:
                modules[short] = importlib.import_module(f"{PACKAGE}.{short}")
            except ModuleNotFoundError:
                continue
        wrappers = {}  # id(original) -> (original, wrapper)
        for short, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if _public_function(attr, obj) and obj.__module__ == mod.__name__:
                    wrappers[id(obj)] = (obj, self._wrap(f"{short}.{attr}", obj))
        for short, cls_name in CLASSES:
            cls = getattr(modules.get(short), cls_name, None)
            for attr, obj in list(vars(cls).items()) if cls is not None else ():
                if _public_function(attr, obj):
                    setattr(cls, attr, self._wrap(f"{short}.{cls_name}.{attr}", obj))
        for mod in (package, *modules.values()):
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])
        self.missing = sorted(required_names() - set(self.names))
        return list(self.names)

    def write(self, path):
        spans = np.array(self.spans, dtype=np.int64).reshape(-1, 5)
        np.savez(path, run_id=np.array(self.run_id), names=np.array(self.names, dtype=str),
                 spans=spans)


def _public_function(attr, obj) -> bool:
    return not attr.startswith("_") and inspect.isfunction(obj)


def _has_ancestor(name_ids, parents, target) -> np.ndarray:
    """Per span: whether some enclosing span has name index `target`."""
    found = np.zeros(len(parents), dtype=bool)
    cur = parents.copy()
    live = cur >= 0
    while live.any():
        found[live] |= name_ids[cur[live]] == target
        cur[live] = parents[cur[live]]
        live = cur >= 0
    return found


def layer_metrics(path) -> dict:
    """Per-layer metrics (all of PER_LAYER except trace.overhead_frac) of one traced pass."""
    with np.load(path) as data:
        names = [str(n) for n in data["names"]]
        spans = data["spans"]
    index = {n: i for i, n in enumerate(names)}
    name_ids, parents, rows = spans[:, 0], spans[:, 1], spans[:, 4]
    dur = (spans[:, 3] - spans[:, 2]) / 1e9
    k = len(names)
    has_parent = parents >= 0
    child_time = np.bincount(parents[has_parent], weights=dur[has_parent], minlength=len(spans))
    sums = {
        "calls": np.bincount(name_ids, minlength=k),
        "s": np.bincount(name_ids, weights=dur, minlength=k),
        "self_s": np.bincount(name_ids, weights=dur - child_time, minlength=k),
        "rows": np.bincount(name_ids, weights=rows, minlength=k),
    }
    sums["states"] = sums["rows"]

    def ids(name):
        return index.get(name, -1)

    out = {}
    for metric in PER_LAYER:
        if metric == OVERHEAD:
            continue
        if metric == VALIDATION:
            train, evaluate = ids("qlearn.train"), ids("policy_eval.evaluate")
            in_train = has_parent & (name_ids[np.maximum(parents, 0)] == train)
            value = float(dur[(name_ids == evaluate) & in_train].sum())
        elif metric == NET_ROWS:
            maximize, forward = ids("action_space.maximize_continuous_batch"), ids("nn_core.forward_batch")
            inside = (name_ids == forward) & _has_ancestor(name_ids, parents, maximize)
            states = rows[name_ids == maximize].sum()
            value = float(rows[inside].sum() / states) if states else 0.0
        else:
            name, kind = split(metric)
            i = ids(name)
            value = float(sums[kind][i]) if i >= 0 else 0.0
        out[metric] = value
    return out
