"""Per-layer tracing from outside the program.

Wrappers are patched into every module namespace that binds a traced
function, because ``from .x import y`` gives each consumer its own binding;
methods are patched on their class.  Modules are reached through
``importlib.import_module`` since the package attribute
``atomless_mdp.derandomize`` is the function, which shadows the module.

Each wrapped call records a span (function, start, end, parent span, op
index).  Spans stay in memory and are written out once, at the end of the
run.  Self time is a span's duration minus the time covered by its child
spans, so the self times of all spans plus the time spent outside any span
add up to the traced wall time exactly.
"""

from __future__ import annotations

import functools
import importlib
import math
import sys
import time
from array import array

import numpy as np

PACKAGE = "atomless_mdp"

# layer -> (module, traced functions); "Class.method" names patch the class
LAYERS = {
    "derandomize": ("derandomize", ["derandomize", "mix_pair", "caratheodory", "alpha_hat",
                                    "distance_to_performance_set", "make_context",
                                    "path_policy"]),
    "geometry": ("geometry", ["min_norm_point", "distance_to_hull", "caratheodory_prune"]),
    "scalar_dp": ("scalar_dp", ["SubmodelSpec.__init__", "value_iteration", "support",
                                "conserving_submodel"]),
    "occupancy": ("occupancy", ["occupancy", "performance", "occupancy_total_variation",
                                "transition_matrix"]),
    "model": ("model", ["validate_policy", "cell_action_weights", "AtomlessMDP.available_mask",
                        "absorption_certificate", "DeterministicPolicy.refined_to",
                        "StationaryPolicy.refined_to", "load_model", "load_model_file"]),
    "measure": ("measure", ["StatePartition.refine", "StatePartition.with_point",
                            "StatePartition.index_map_from", "PieceMeasure.refined_to",
                            "PieceMeasure.coarsened_to", "PieceMeasure.quantile",
                            "total_variation"]),
    "lyapunov": ("lyapunov", ["find_set", "as_onestep_mdp", "range_hull",
                              "VectorMeasure.integrate"]),
    "cli": ("cli", ["main", "load_policy_file"]),
}


def stem(layer: str, name: str) -> str:
    return f"{layer}.{name.replace('.__init__', '.init')}"


def function_stems() -> list:
    return [stem(layer, name) for layer, (_, names) in LAYERS.items() for name in names]


def metric_units() -> dict:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for layer, (_, names) in LAYERS.items():
        for name in names:
            units[stem(layer, name) + ".calls"] = "count"
            units[stem(layer, name) + ".self_s"] = "s"
        units[f"{layer}.self_s"] = "s"
    units.update({
        "derandomize.membership_per_alpha_hat": "count/call",
        "derandomize.alpha_hat_per_mix_pair": "count/call",
        "scalar_dp.value_iteration.intervals_mean": "intervals",
        "occupancy.squarings": "count",
        "occupancy.matmul_gflop": "GFLOP",
        "lyapunov.derandomize_per_find_set": "count/call",
        "harness.self_s": "s",
        "trace.wall_s": "s",
        "trace.overhead_s": "s",
    })
    return units


class Tracer:
    """Span recorder; install() patches the wrappers in, uninstall() takes them out."""

    def __init__(self):
        self.stems = function_stems()
        self.index = {s: k for k, s in enumerate(self.stems)}
        n = len(self.stems)
        self.calls = [0] * n
        self.self_s = [0.0] * n
        self.open = [0] * n
        self.top_s = 0.0                  # time covered by outermost spans
        self.op = -1                      # current operation index, set by the harness
        self.stack: list = []             # [span index, start, child time, function id]
        self.fid, self.parent, self.opid = array("i"), array("i"), array("i")
        self.start, self.end = array("d"), array("d")
        self.nested = {}                  # (child id, ancestor id) -> calls made under it
        self.intervals = 0                # value_iteration: sum of submodel intervals
        self.squarings = 0.0              # occupancy: sum of log2(terms)
        self.flop = 0.0                   # occupancy: 2 M^3 per squaring
        self._patches: list = []
        self._watch = {
            self.index["derandomize.distance_to_performance_set"]:
                self.index["derandomize.alpha_hat"],
            self.index["derandomize.derandomize"]: self.index["lyapunov.find_set"],
        }
        self._observe = {
            self.index["scalar_dp.value_iteration"]: self._on_value_iteration,
            self.index["occupancy.occupancy"]: self._on_occupancy,
        }

    # -- recording ---------------------------------------------------------

    def _enter(self, fid: int):
        parent = self.stack[-1][0] if self.stack else -1
        idx = len(self.fid)
        self.fid.append(fid)
        self.parent.append(parent)
        self.opid.append(self.op)
        ancestor = self._watch.get(fid)
        if ancestor is not None and self.open[ancestor]:
            self.nested[(fid, ancestor)] = self.nested.get((fid, ancestor), 0) + 1
        self.open[fid] += 1
        now = time.perf_counter()
        self.start.append(now)
        self.end.append(now)
        frame = [idx, now, 0.0, fid]
        self.stack.append(frame)
        return frame

    def _exit(self, frame) -> None:
        now = time.perf_counter()
        self.stack.pop()
        idx, start, child, fid = frame
        self.end[idx] = now
        dur = now - start
        self.self_s[fid] += dur - child
        self.calls[fid] += 1
        self.open[fid] -= 1
        if self.stack:
            self.stack[-1][2] += dur
        else:
            self.top_s += dur

    def _on_value_iteration(self, args, kwargs, result) -> None:
        sub = args[0] if args else kwargs["sub"]
        self.intervals += sub.partition.cell_count

    def _on_occupancy(self, args, kwargs, result) -> None:
        model = args[0] if args else kwargs["model"]
        levels = math.log2(result.terms)
        self.squarings += levels
        self.flop += 2.0 * float(model.cell_count) ** 3 * levels

    def _wrap(self, fid: int, fn):
        observe = self._observe.get(fid)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = self._enter(fid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(frame)
            if observe is not None:
                observe(args, kwargs, result)
            return result

        return traced

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        consumers = [m for k, m in list(sys.modules.items())
                     if k == PACKAGE or k.startswith(PACKAGE + ".")]
        for layer, (module_name, names) in LAYERS.items():
            module = importlib.import_module(f"{PACKAGE}.{module_name}")
            for name in names:
                fid = self.index[stem(layer, name)]
                if "." in name:
                    cls_name, attr = name.split(".")
                    cls = getattr(module, cls_name)
                    original = cls.__dict__[attr]
                    self._set(cls, attr, original, self._wrap(fid, original))
                    continue
                original = getattr(module, name)
                wrapper = self._wrap(fid, original)
                for consumer in consumers:
                    for key, value in list(vars(consumer).items()):
                        if value is original:
                            self._set(consumer, key, original, wrapper)

    def _set(self, owner, attr, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results -----------------------------------------------------------

    def metrics(self, wall_s: float, overhead_s: float) -> dict:
        """Per-layer metric values; the units come from metric_units()."""
        ix = self.index
        out = {}
        layer_self = {layer: 0.0 for layer in LAYERS}
        for s, k in ix.items():
            out[s + ".calls"] = self.calls[k]
            out[s + ".self_s"] = self.self_s[k]
            layer_self[s.split(".", 1)[0]] += self.self_s[k]
        for layer, value in layer_self.items():
            out[f"{layer}.self_s"] = value

        def ratio(num, den):
            return num / den if den else 0.0

        alpha = ix["derandomize.alpha_hat"]
        dist = ix["derandomize.distance_to_performance_set"]
        find = ix["lyapunov.find_set"]
        out["derandomize.membership_per_alpha_hat"] = ratio(
            self.nested.get((dist, alpha), 0), self.calls[alpha])
        out["derandomize.alpha_hat_per_mix_pair"] = ratio(
            self.calls[alpha], self.calls[ix["derandomize.mix_pair"]])
        out["scalar_dp.value_iteration.intervals_mean"] = ratio(
            self.intervals, self.calls[ix["scalar_dp.value_iteration"]])
        out["occupancy.squarings"] = self.squarings
        out["occupancy.matmul_gflop"] = self.flop / 1e9
        out["lyapunov.derandomize_per_find_set"] = ratio(
            self.nested.get((ix["derandomize.derandomize"], find), 0), self.calls[find])
        out["harness.self_s"] = wall_s - self.top_s
        out["trace.wall_s"] = wall_s
        out["trace.overhead_s"] = overhead_s
        return out

    def save_spans(self, path) -> None:
        np.savez_compressed(
            path,
            names=np.array(self.stems),
            function=np.frombuffer(self.fid, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            op=np.frombuffer(self.opid, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
        )
