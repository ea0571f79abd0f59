"""Self-time tracing of the program's layers, installed from outside.

:func:`install` replaces public functions of the ``repro`` modules with
timing wrappers: module-level names where a caller imported them by name
(``repro.core.parameter_search.apply_action``), class methods otherwise.
Each wrapper pushes a frame on a per-thread call stack, so a layer's time
is its *self* time: the wall time of its calls minus the time spent in
wrapped callees.  Nested calls of the same layer (``record_result`` calling
``record``) count once in the layer's call counter.

The wrappers change no behaviour: they call the original with the same
arguments and return its result unchanged.  The traced and untraced runs
of ``tune-bert`` must produce the same f(S) trajectory, which the
benchmark checks.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional

#: Root frame of one admitted server job.  Its self time is the worker time
#: no named layer covers, so it is reported as unattributed, not as a layer.
ROOT = "root"


def _calls(name: str) -> Callable:
    return lambda args, kwargs, result: {name: 1}


def _rows(name: str, index: int) -> Callable:
    """Counter: length of positional argument ``index`` (``self`` included)."""
    return lambda args, kwargs, result: {name: len(args[index])}


def _episode(args, kwargs, result) -> Dict[str, int]:
    return {
        "core.episode.steps": result.num_steps,
        "core.episode.visited": result.num_visited,
        "core.episode.measured": result.num_measured,
    }


def _lookup(args, kwargs, result) -> Dict[str, int]:
    return {"serving.registry.lookup.calls": 1,
            "serving.registry.lookup.hits": int(result.entry is not None)}


def _submit(args, kwargs, result) -> Dict[str, int]:
    return {"serving.service.submit.calls": 1,
            "serving.service.submit.coalesced": int(result.source == "coalesced")}


_APPENDS = _calls("records.append.calls")

#: (layer, module, attribute path, counter).  A counter maps a call's
#: arguments and result to counts; it runs on the outermost call of a layer.
WRAPPED = (
    ("tensor.apply_action", "repro.core.parameter_search", "apply_action",
     _calls("tensor.apply_action.calls")),
    ("tensor.batch_features", "repro.core.parameter_search", "batch_features",
     _rows("tensor.batch_features.rows", 0)),
    ("tensor.batch_features", "repro.costmodel.model", "batch_features",
     _rows("tensor.batch_features.rows", 0)),
    ("tensor.sample", "repro.core.parameter_search", "sample_initial_schedules", None),
    ("costmodel.predict", "repro.costmodel.model", "ScheduleCostModel.predict",
     _rows("costmodel.predict.rows", 1)),
    ("costmodel.update", "repro.costmodel.model", "ScheduleCostModel.update",
     _calls("costmodel.update.calls")),
    ("core.ppo_act", "repro.core.actor_critic", "PPOAgent.act", None),
    ("core.ppo_act", "repro.core.actor_critic", "PPOAgent.value", None),
    ("core.ppo_update", "repro.core.actor_critic", "PPOAgent.update",
     _calls("core.ppo_update.calls")),
    ("core.episode", "repro.core.parameter_search", "ParameterSearcher.run_episode",
     _episode),
    ("hardware.measure", "repro.hardware.measurer", "Measurer.measure",
     _rows("hardware.measure.trials", 1)),
    ("experiments.network_runner.alloc", "repro.experiments.network_runner",
     "NetworkTuner.tune", None),
    ("serving.service.submit", "repro.serving.service", "TuningService.submit", _submit),
    ("serving.service.advance", "repro.serving.service", "TuningService.advance", None),
    ("serving.service.finish", "repro.serving.service", "TuningService.finish", None),
    # Budget-exhausted jobs finish inside advance(), through this helper.
    ("serving.service.finish", "repro.serving.service",
     "TuningService._finish_job_locked", None),
    ("serving.registry.lookup", "repro.serving.registry", "ScheduleRegistry.lookup",
     _lookup),
    ("serving.registry.warm_start", "repro.serving.registry",
     "ScheduleRegistry.warm_start_transfers", None),
    ("serving.registry.record", "repro.serving.registry", "ScheduleRegistry.record", None),
    ("serving.registry.record", "repro.serving.registry",
     "ScheduleRegistry.record_result", None),
    ("records.append", "repro.records", "RecordStore.record_measure", _APPENDS),
    ("records.append", "repro.records", "RecordStore.append_measure", _APPENDS),
    ("records.append", "repro.records", "RecordStore.append_result", _APPENDS),
    (ROOT, "repro.serving.server", "ServingServer._drive", None),
)

#: Layers whose self time is reported as ``<layer>.s``.
TIMED_LAYERS = tuple(dict.fromkeys(layer for layer, *_ in WRAPPED if layer != ROOT))


class Tracer:
    """Per-layer self time and work counters, accumulated across threads."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self.seconds: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, int] = defaultdict(int)

    def _stack(self) -> List[list]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, layer: str, fn: Callable, count: Optional[Callable]) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            outermost = not stack or stack[-1][0] != layer
            frame = [layer, 0.0]  # layer, time spent in wrapped callees
            stack.append(frame)
            began = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - began
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                with self._lock:
                    self.seconds[layer] += elapsed - frame[1]
            if outermost and count is not None:
                counted = count(args, kwargs, result)
                with self._lock:
                    for key, value in counted.items():
                        self.counts[key] += int(value)
            return result

        return traced

    def reset(self) -> None:
        with self._lock:
            self.seconds.clear()
            self.counts.clear()

    def snapshot(self) -> dict:
        with self._lock:
            return {"seconds": dict(self.seconds), "counts": dict(self.counts)}


def install(tracer: Tracer) -> Callable[[], None]:
    """Wrap every entry of :data:`WRAPPED`; returns a function that undoes it."""
    undo = []
    for layer, module_name, path, count in WRAPPED:
        owner = importlib.import_module(module_name)
        *parents, attr = path.split(".")
        for parent in parents:
            owner = getattr(owner, parent)
        original = owner.__dict__[attr]
        setattr(owner, attr, tracer.wrap(layer, original, count))
        undo.append((owner, attr, original))

    def uninstall() -> None:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return uninstall


def layer_metrics(snapshot: dict) -> Dict[str, float]:
    """Per-layer metrics of one traced run (without the run-level ratios)."""
    seconds, counts = snapshot["seconds"], snapshot["counts"]
    out = {f"{layer}.s": seconds.get(layer, 0.0) for layer in TIMED_LAYERS}
    for name in (
        "tensor.apply_action.calls",
        "tensor.batch_features.rows",
        "costmodel.predict.rows",
        "costmodel.update.calls",
        "core.ppo_update.calls",
        "core.episode.steps",
        "hardware.measure.trials",
        "serving.registry.lookup.calls",
        "records.append.calls",
    ):
        out[name] = counts.get(name, 0)
    measured = counts.get("core.episode.measured", 0)
    out["core.visited_per_trial"] = (
        counts.get("core.episode.visited", 0) / measured if measured else 0.0
    )
    submits = counts.get("serving.service.submit.calls", 0)
    out["serving.service.coalesced_frac"] = (
        counts.get("serving.service.submit.coalesced", 0) / submits if submits else 0.0
    )
    lookups = counts.get("serving.registry.lookup.calls", 0)
    out["serving.registry.hit_frac"] = (
        counts.get("serving.registry.lookup.hits", 0) / lookups if lookups else 0.0
    )
    return out


def attributed_seconds(snapshot: dict) -> float:
    """Self time of every named layer (the root frame excluded)."""
    return sum(v for k, v in snapshot["seconds"].items() if k != ROOT)
