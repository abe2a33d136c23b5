"""Spans around the public functions of each vodgame module.

The benchmark times the layers from outside: it replaces the public
functions named in LAYERS by wrappers in every loaded ``vodgame``
module, so calls made through ``from .x import y`` bindings are caught
too. A function a later version no longer has is skipped, and its
metrics read 0. A call made from inside the same layer is not a layer
boundary and gets no span. Spans live in compact in-memory arrays and are written
once, when the run ends.
"""

from __future__ import annotations

import importlib
import sys
import time
from array import array

import numpy as np

# module -> (function, index of its size argument or None)
LAYERS = {
    "cli": [("main", None)],
    "equilibrium": [
        ("find_equilibria", None),
        ("sample_curve", None),
        ("stable_equilibrium", None),
    ],
    "truth": [
        ("net_payoff_regular", None),
        ("payoff_pair_regular", None),
        ("avg_payoff_volunteer", None),
        ("avg_payoff_defector", None),
    ],
    "fake": [
        ("expected_fake_payoffs", None),
        ("expected_net_payoff_fake", None),
        ("avg_payoff_fake_volunteer", None),
        ("avg_payoff_fake_defector", None),
    ],
    "numerics": [
        ("binomial_tail_pair", 0),
        ("pmf_row", 0),
        ("refine_root", None),
        ("slope_at", None),
    ],
    # size argument: the trial count
    "oracle": [("simulate_truth", 2), ("simulate_fake", 4)],
}

FUNCS = [(layer, name, size_arg) for layer, items in LAYERS.items() for name, size_arg in items]
LAYER_NAMES = list(LAYERS)
LAYER_OF = [LAYER_NAMES.index(layer) for layer, _, _ in FUNCS]
FUNC_ID = {(layer, name): i for i, (layer, name, _) in enumerate(FUNCS)}


class Tracer:
    """Records one span per layer-boundary call while installed."""

    def __init__(self) -> None:
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.func = array("B")
        self.size = array("q")
        self.op = array("i")
        self.op_id = 0
        self._stack: list[int] = []
        self._swapped: list[tuple[object, str, object]] = []

    def install(self) -> None:
        if self._swapped:
            return
        wrappers = {}
        for fid, (layer, name, size_arg) in enumerate(FUNCS):
            original = getattr(importlib.import_module(f"vodgame.{layer}"), name, None)
            if original is None:
                continue
            wrappers[id(original)] = (original, self._wrap(fid, LAYER_NAMES.index(layer), size_arg, original))
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "vodgame" and not mod_name.startswith("vodgame."):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    self._swapped.append((module, attr, value))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._swapped):
            setattr(module, attr, original)
        self._swapped.clear()

    def _wrap(self, fid, layer_id, size_arg, original):
        start, end, parent, func, size, op = (
            self.start, self.end, self.parent, self.func, self.size, self.op,
        )
        stack = self._stack
        layer_of = LAYER_OF
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if stack and layer_of[func[stack[-1]]] == layer_id:
                return original(*args, **kwargs)
            idx = len(start)
            parent.append(stack[-1] if stack else -1)
            func.append(fid)
            size.append(int(args[size_arg]) if size_arg is not None and len(args) > size_arg else -1)
            op.append(self.op_id)
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                return original(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                start[idx] = t0
                end[idx] = t1

        return wrapper

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "func": np.frombuffer(self.func, dtype=np.uint8).copy(),
            "size": np.frombuffer(self.size, dtype=np.int64).copy(),
            "op": np.frombuffer(self.op, dtype=np.int32).copy(),
        }


def save(path: str, spans: dict[str, np.ndarray]) -> None:
    names = np.array([f"{layer}.{name}" for layer, name, _ in FUNCS])
    np.savez_compressed(path, names=names, **spans)


def load(path: str) -> dict[str, np.ndarray]:
    with np.load(path) as data:
        return {key: data[key] for key in ("start", "end", "parent", "func", "size", "op")}


def concat(parts: list[dict[str, np.ndarray]]) -> dict[str, np.ndarray]:
    """Join span tables; parent indices are shifted to stay valid."""
    out = {key: [] for key in ("start", "end", "parent", "func", "size", "op")}
    offset = 0
    for part in parts:
        for key in out:
            value = part[key]
            if key == "parent":
                value = np.where(value >= 0, value + offset, -1).astype(np.int32)
            out[key].append(value)
        offset += len(part["start"])
    return {key: np.concatenate(vals) for key, vals in out.items()}


def _median(values: np.ndarray) -> float:
    return float(np.median(values)) if len(values) else 0.0


def _mean(values: np.ndarray) -> float:
    return float(values.mean()) if len(values) else 0.0


def layer_metrics(spans: dict[str, np.ndarray], rounds: int) -> dict[str, float]:
    """Per-layer numbers from a span table covering ``rounds`` rounds.

    Counts and summed times are per round. A span's self time is its
    duration minus the durations of its direct child spans.
    """
    func = spans["func"].astype(np.int64)
    parent = spans["parent"].astype(np.int64)
    size = spans["size"]
    dur = spans["end"] - spans["start"]
    n = len(dur)
    child = np.bincount(parent[parent >= 0], weights=dur[parent >= 0], minlength=n) if n else dur
    self_t = dur - child
    layer = np.array(LAYER_OF)[func]

    def is_layer(name):
        return layer == LAYER_NAMES.index(name)

    def is_fn(layer_name, fn_name):
        return func == FUNC_ID[layer_name, fn_name]

    finds = is_fn("equilibrium", "find_equilibria") | is_fn("equilibrium", "stable_equilibrium")
    in_find = np.zeros(n, dtype=bool)
    parent_list = parent.tolist()
    finds_list = finds.tolist()
    for i in range(n):  # parents always precede their children
        p = parent_list[i]
        in_find[i] = finds_list[i] or (p >= 0 and in_find[p])
    kernel = is_layer("truth") | is_layer("fake")

    tail = is_fn("numerics", "binomial_tail_pair")
    pmf = is_fn("numerics", "pmf_row")
    sim = is_layer("oracle")
    sim_s = float(dur[sim].sum())
    main = is_fn("cli", "main")
    per = 1.0 / max(rounds, 1)
    out = {}
    for name in ("truth", "fake"):
        mask = is_layer(name)
        out[f"{name}.evals"] = float(mask.sum()) * per
        out[f"{name}.eval_us"] = _median(dur[mask]) * 1e6
        out[f"{name}.self_s"] = float(self_t[mask].sum()) * per
    out["equilibrium.evals_per_find"] = (
        float((kernel & in_find).sum()) / float(finds.sum()) if finds.any() else 0.0
    )
    out["equilibrium.find_s"] = float(dur[is_fn("equilibrium", "find_equilibria")].sum()) * per
    out["equilibrium.find_self_s"] = float(self_t[finds].sum()) * per
    out["equilibrium.sample_curve_s"] = float(dur[is_fn("equilibrium", "sample_curve")].sum()) * per
    out["equilibrium.stable_equilibrium_s"] = (
        float(dur[is_fn("equilibrium", "stable_equilibrium")].sum()) * per
    )
    out["numerics.self_s"] = float(self_t[is_layer("numerics")].sum()) * per
    out["numerics.tail_us"] = _median(dur[tail & (size == 99)]) * 1e6
    out["numerics.tail_ms_n1e6"] = _mean(dur[tail & (size >= 999_999)]) * 1e3
    out["numerics.pmf_row_ms_n1e6"] = _mean(dur[pmf & (size >= 999_999)]) * 1e3
    out["oracle.simulate_s"] = sim_s * per
    out["oracle.trials_per_s"] = float(size[sim].sum()) / sim_s if sim_s > 0 else 0.0
    out["cli.main_s"] = float(dur[main].sum()) * per
    out["cli.self_s"] = float(self_t[main].sum()) * per
    out["trace.spans"] = float(n) * per
    return out
