"""Workload ``tune-bert``: cold end-to-end tuning of BERT-base.

A tuning session builds an on-disk :class:`ScheduleRegistry` and
:class:`RecordStore` in a fresh directory, a :class:`TuningService` at its
default config and a :class:`NetworkTuner` over ``build_bert()``, and tunes
the network within :data:`BUDGET` measurement trials.  Process-wide memo
caches are cleared first, so every session starts as cold as a fresh
process.

Untraced runs tune three times: with :data:`REFERENCE_SEED`, with a seed
made from ``--seed``, and with the reference seed again.  Time-to-quality
and speed are read from the two reference sessions, which must give the
same trajectory; the seeded one must give a different trajectory.  Traced
runs tune the reference seed twice, untraced and traced, and require
identical trajectories.
"""

from __future__ import annotations

import hashlib
import math
import resource
import time
from pathlib import Path
from statistics import median

import common
import layers

#: Measurement trials per session; 9 distinct subgraphs warm up in the first
#: 72, so most rounds come after the warm-up pass.
BUDGET = 300
#: Seed of the sessions whose trajectory time-to-quality is read from.
REFERENCE_SEED = 0
#: f(S) target in ms: the reference session reached 19.713 ms at 192 of its
#: 300 trials (about 2/3 of the budget) when the benchmark was defined.  The
#: simulator makes it machine-independent.  Not reaching it fails the run.
TARGET_FS_MS = 19.72
#: Set-ups per untraced run; the median is reported.
SETUPS = 3


def _session_seed(seed: int) -> int:
    """The ``--seed`` session's service seed; never the reference seed."""
    return REFERENCE_SEED + 1 + abs(seed)


def _build(workdir: Path, seed: int):
    from repro.caching import clear_caches
    from repro.experiments.network_runner import NetworkTuner
    from repro.networks.bert import build_bert
    from repro.records import RecordStore
    from repro.serving.registry import ScheduleRegistry
    from repro.serving.service import TuningService

    clear_caches()
    registry = ScheduleRegistry(workdir / "registry")
    store = RecordStore(workdir / "records.jsonl")
    service = TuningService(registry=registry, seed=seed, record_store=store)
    return NetworkTuner(build_bert(), service), registry, store


def _warm_up() -> None:
    """One round on an unrelated operator, in memory: first-call costs."""
    from repro.caching import clear_caches
    from repro.experiments.operator_suite import representative_dag
    from repro.serving.service import TuningRequest, TuningService

    service = TuningService(seed=REFERENCE_SEED)
    service.process([TuningRequest(dag=representative_dag("GEMM-S"), n_trials=8)])
    clear_caches()


def _setup_seconds(workdir: Path) -> float:
    began = time.perf_counter()
    tuner, registry, store = _build(workdir, REFERENCE_SEED)
    _warm_up()
    elapsed = time.perf_counter() - began
    store.close()
    registry.close()
    return elapsed


def _session(workdir: Path, seed: int) -> dict:
    """One tuning session; returns its trajectory with a time per point."""
    tuner, registry, store = _build(workdir, seed)
    service = tuner.service
    advance = service.advance
    stamps = []

    def timed_advance(handle, max_measures=None):
        spent = advance(handle, max_measures=max_measures)
        stamps.append(time.perf_counter())
        return spent

    service.advance = timed_advance
    began = time.perf_counter()
    report = tuner.tune(BUDGET)
    wall = time.perf_counter() - began
    store.close()
    registry.close()
    # trajectory[0] is the zero-trial baseline and trajectory[i] follows the
    # i-th advance(); a final point after finishing live jobs has no stamp.
    times = [0.0] + [t - began for t in stamps]
    times += [wall] * (len(report.trajectory) - len(times))
    reached = next(
        (times[i] for i, (_, fs) in enumerate(report.trajectory)
         if fs * 1e3 <= TARGET_FS_MS),
        None,
    )
    network_flops = sum(sg.weight * sg.dag.flops for sg in tuner.network)
    return {
        "seed": seed,
        "wall": wall,
        "efficiency": network_flops / report.final_latency / service.target.peak_flops,
        "trajectory": [(int(n), float(fs)) for n, fs in report.trajectory],
        "final_fs_ms": report.final_latency * 1e3,
        "trials_used": report.trials_used,
        "time_to_target": reached,
        "trajectory_sha1": hashlib.sha1(repr(report.trajectory).encode()).hexdigest(),
    }


def _problems(session: dict) -> list:
    out = []
    if not math.isfinite(session["final_fs_ms"]):
        out.append(f"seed {session['seed']}: f(S) is not finite")
    if session["trials_used"] != BUDGET:
        out.append(f"seed {session['seed']}: used {session['trials_used']} "
                   f"trials, budget {BUDGET}")
    return out


def run(seed: int, seconds: int, trace: bool) -> None:
    workdir = common.work_dir("tune-bert")
    try:
        _run(workdir, seed, trace)
    finally:
        common.remove_work_dir(workdir)


def _run(workdir: Path, seed: int, trace: bool) -> None:
    env = common.environment()
    setups = [_setup_seconds(workdir / f"setup{i}") for i in range(1 if trace else SETUPS)]
    reference = _session(workdir / "reference", REFERENCE_SEED)
    if trace:
        tracer = layers.Tracer()
        uninstall = layers.install(tracer)
        try:
            repeat = _session(workdir / "traced", REFERENCE_SEED)
        finally:
            uninstall()
        sessions = [reference, repeat]
    else:
        seeded = _session(workdir / "seeded", _session_seed(seed))
        repeat = _session(workdir / "repeat", REFERENCE_SEED)
        sessions = [reference, seeded, repeat]

    problems = {id(s): _problems(s) for s in sessions}
    for session in (reference, repeat):
        if session["time_to_target"] is None:
            problems[id(session)].append(
                f"reference session never reached f(S) <= {TARGET_FS_MS} ms")
    if repeat["trajectory"] != reference["trajectory"]:
        problems[id(repeat)].append(
            "two sessions of the reference seed gave different trajectories")
    if not trace and seeded["trajectory"] == reference["trajectory"]:
        problems[id(seeded)].append(
            f"seeds {REFERENCE_SEED} and {seeded['seed']} gave one trajectory")
    found = [p for s in sessions for p in problems[id(s)]]
    failed = sum(1 for s in sessions if problems[id(s)])
    details = {
        "workload": "tune-bert", "environment": env, "budget": BUDGET,
        "target_fs_ms": TARGET_FS_MS, "setup_s": setups, "problems": found,
        "sessions": [{k: s[k] for k in ("seed", "wall", "final_fs_ms", "efficiency",
                                        "time_to_target", "trajectory_sha1")}
                     for s in sessions],
    }

    if trace:
        snapshot = tracer.snapshot()
        metrics = layers.layer_metrics(snapshot)
        metrics["serving.server.wire_admission.s"] = 0.0  # no server in this workload
        metrics["unattributed_frac"] = 1.0 - layers.attributed_seconds(snapshot) / repeat["wall"]
        metrics["trace_overhead_frac"] = repeat["wall"] / reference["wall"] - 1.0
        details.update(layer_seconds=snapshot["seconds"], layer_counts=snapshot["counts"])
    else:
        walls = [reference["wall"], repeat["wall"]]
        reached = [s["time_to_target"] or s["wall"] for s in (reference, repeat)]
        metrics = {
            "setup_s": median(setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "work_per_s": BUDGET / median(walls),
            "answer_p50_ms": median(reached) * 1e3,
            "answer_efficiency": median([reference["efficiency"],
                                                seeded["efficiency"]]),
        }
    common.emit(details, not found, len(sessions), failed, metrics, trace)
