"""Workloads ``serve-hit`` and ``serve-miss``: wire traffic to a served registry.

The server runs in its own process (``server.py``, i.e. ``repro serve
--listen`` at its default ``ServerConfig``) over an on-disk registry and
record log.  An untraced run sets up :data:`SETUPS` servers one after the
other and sends a window of traffic to each; set-up time is the median.
A traced run sends one window to an untraced and one to a traced server.

``serve-hit``
    Set-up tunes every workload of ``DEFAULT_UNIVERSE`` once.  A window is
    an open loop of ``tune`` requests at Poisson arrivals of
    :data:`HIT_RATE` per second for a third of ``--seconds``, workloads
    drawn by Zipf popularity, sent over two connections from one thread.
    Every answer is a registry hit.  Latency counts from the time a request
    was due.  Metrics are medians over the windows.
``serve-miss``
    Set-up warms the server up with :data:`WARMUP` tunes.  In a window two
    clients in a closed loop send ``tune`` requests of :data:`MISS_TRIALS`
    trials for operator class x batch workloads not registered yet; every
    :data:`REPEAT_EVERY`-th request repeats a recent workload (the other
    client's in-flight one, or one of the client's own), so coalesced
    answers and registry hits appear beside fresh tunes.  Metrics pool the
    answers of all windows.
"""

from __future__ import annotations

import asyncio
import gc
import json
import math
import random
import re
import select
import selectors
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from statistics import median
from typing import List, Optional, Tuple

import common
import layers
from repro.serving.loadgen import percentile

SETUPS = 3
#: serve-hit: offered load (requests/s), answer latency limit, Zipf skew.
#: At 500/s a stall of the host queues more requests behind it: in ten runs at
#: each rate on a busy host, the p50 spread 30% at 500/s and 14% at 200/s.
HIT_RATE = 200.0
HIT_LIMIT_MS = 50.0
ZIPF_S = 1.1
#: Trials per set-up tune of a serve-hit workload.
PRIME_TRIALS = 8
#: A serve-hit window is invalid when the generator's own p99 lateness
#: (dispatch after the due time, before any wait for a connection) exceeds
#: this.  An invalid window is measured again on a fresh server, at most
#: ATTEMPTS times in all; the run fails if the last attempt is invalid too.
MAX_P99_LATENESS_MS = 20.0
ATTEMPTS = 3
#: serve-miss: clients, trials per request, one repeat per REPEAT_EVERY
#: requests, batch sizes (7 classes x 12 batches + 18 repeats = 102 requests,
#: a third in each window).
MISS_CLIENTS = 2
MISS_TRIALS = 8
REPEAT_EVERY = 5
MISS_BATCHES = range(1, 13)
#: serve-miss warm-up tunes; their batch size lies outside MISS_BATCHES.
WARMUP = (("GEMM-S", 64), ("C2D", 64))

_LISTEN = re.compile(r"on 127\.0\.0\.1:(\d+) ")
HERE = Path(__file__).resolve().parent


class Server:
    """One ``server.py`` process over a fresh registry in ``workdir``."""

    def __init__(self, workdir: Path, trace: bool):
        workdir.mkdir(parents=True)
        self.stats_path = workdir / "stats.json"
        self.registry = workdir / "registry"
        self._stderr_path = workdir / "server.err"
        self._stderr = open(self._stderr_path, "w")
        command = [sys.executable, str(HERE / "server.py"),
                   "--registry", str(self.registry),
                   "--records", str(workdir / "records.jsonl"),
                   "--stats-out", str(self.stats_path)]
        if trace:
            command.append("--trace")
        self.proc = subprocess.Popen(command, stdout=subprocess.PIPE,
                                     stderr=self._stderr, text=True, cwd=common.ROOT)
        self.port = self._wait_port(timeout=60.0)

    def _wait_port(self, timeout: float) -> int:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            ready, _, _ = select.select([self.proc.stdout], [], [], 0.5)
            if not ready:
                continue
            line = self.proc.stdout.readline()
            if not line:
                break
            match = _LISTEN.search(line)
            if match:
                return int(match.group(1))
        self.stop()
        raise RuntimeError("server did not start listening")

    def reset_layers(self) -> None:
        """Zero the server's layer counters and wait until it has."""
        ack = self.stats_path.with_suffix(".reset")
        self.proc.send_signal(signal.SIGUSR1)
        deadline = time.monotonic() + 10.0
        while not ack.exists():
            if time.monotonic() > deadline:
                raise RuntimeError("server did not reset its layer counters")
            time.sleep(0.01)
        ack.unlink()

    def stop(self) -> dict:
        """Shut the server down gracefully; returns its stats ({} if it failed)."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
        try:
            self.proc.communicate(timeout=30.0)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()
        self._stderr.close()
        if self.proc.returncode != 0 or not self.stats_path.exists():
            return {}
        return json.loads(self.stats_path.read_text())

    def error_tail(self) -> str:
        """The last lines the server wrote to its standard error."""
        return " | ".join(self._stderr_path.read_text().splitlines()[-3:])


# --------------------------------------------------------------------- #
# set-up
# --------------------------------------------------------------------- #
def _start(workdir: Path, workload: str, trace: bool) -> Tuple[Server, float, List[str]]:
    """Start a server and bring it to the state measurement starts from."""
    from repro.serving.loadgen import DEFAULT_UNIVERSE
    from repro.serving.netclient import TuningClient

    began = time.perf_counter()
    server = Server(workdir, trace)
    problems = []
    requests = DEFAULT_UNIVERSE if workload == "serve-hit" else WARMUP
    with TuningClient("127.0.0.1", server.port) as client:
        for op, batch in requests:
            reply = client.tune(op, batch=batch, trials=PRIME_TRIALS, tenant="setup")
            if not reply.ok:
                problems.append(f"set-up tune {op}/b{batch}: {reply.error_code}")
    return server, time.perf_counter() - began, problems


# --------------------------------------------------------------------- #
# traffic
# --------------------------------------------------------------------- #
@dataclass
class _Answer:
    """One request and its reply (``None`` when it got none).

    ``dispatched - due`` is the generator's own lateness; ``sent - due``
    adds the wait for a free connection.
    """

    op: str
    batch: int
    due: float
    dispatched: float
    sent: float
    done: float
    reply: Optional[object]


def _hit_schedule(seed: int, window: int, seconds: float):
    """One window's serve-hit arrivals: (offset, op, batch)."""
    from repro.serving.loadgen import DEFAULT_UNIVERSE

    rng = random.Random(f"{seed}/{window}")
    weights = [1.0 / rank ** ZIPF_S for rank in range(1, len(DEFAULT_UNIVERSE) + 1)]
    arrivals, t = [], 0.0
    while True:
        t += rng.expovariate(HIT_RATE)
        if t >= seconds:
            return arrivals
        arrivals.append((t, *rng.choices(DEFAULT_UNIVERSE, weights=weights)[0]))


def _open_loop(port: int, schedule) -> Tuple[List[_Answer], float]:
    """Send each request when due over two connections; time from due.

    One thread runs an event loop, so the generator's own threads never
    contend for the interpreter lock.  A request due while both connections
    are busy waits for one, and that wait counts in its latency.  The loop
    uses select(), whose timeout has microsecond resolution (epoll rounds
    it up to a millisecond), and the generator's garbage collector is off
    while it sends, so neither adds its own delay to the latencies.
    """
    loop = asyncio.SelectorEventLoop(selectors.SelectSelector())
    gc.disable()
    try:
        return loop.run_until_complete(_open_loop_async(port, schedule))
    finally:
        gc.enable()
        loop.close()


async def _open_loop_async(port: int, schedule) -> Tuple[List[_Answer], float]:
    from repro.serving.netclient import TuneReply

    free: asyncio.Queue = asyncio.Queue()
    connections = [await asyncio.open_connection("127.0.0.1", port) for _ in range(2)]
    for connection in connections:
        free.put_nowait(connection)
    answers: List[_Answer] = []

    async def send(index: int, op: str, batch: int, due: float, dispatched: float) -> None:
        reader, writer = await free.get()
        sent = time.perf_counter()
        request = {"id": index, "method": "tune",
                   "params": {"op": op, "batch": batch, "trials": PRIME_TRIALS}}
        reply = None
        try:
            writer.write(json.dumps(request).encode() + b"\n")
            line = await asyncio.wait_for(reader.readline(), timeout=30.0)
            message = json.loads(line)
            if message.get("id") != index:
                raise ValueError(f"reply to request {message.get('id')}, expected {index}")
            error = message.get("error") or {}
            reply = TuneReply(ok=bool(message.get("ok")), degraded=bool(message.get("degraded")),
                              result=message.get("result") or {},
                              error_code=str(error.get("code", "")))
        except (OSError, ValueError, asyncio.TimeoutError):
            pass  # counted as not answered
        answers.append(_Answer(op, batch, due, dispatched, sent, time.perf_counter(), reply))
        free.put_nowait((reader, writer))

    tasks = []
    start = time.perf_counter() + 0.05
    for index, (offset, op, batch) in enumerate(schedule):
        due = start + offset
        delay = due - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        tasks.append(asyncio.create_task(send(index, op, batch, due, time.perf_counter())))
    await asyncio.gather(*tasks)
    for _reader, writer in connections:
        writer.close()
        await writer.wait_closed()
    return answers, max(a.done for a in answers) - start


def _miss_requests(seed: int, window: int) -> list:
    """One window's serve-miss requests: ("fresh", op, batch) or ("repeat", kind).

    Each class's batch sizes are split among the :data:`SETUPS` windows of a
    run, so every run sends the same fresh workloads, every operator class
    with every batch size of :data:`MISS_BATCHES`, each once.  A window
    cycles through the classes in a seeded order; every
    :data:`REPEAT_EVERY`-th request repeats a recent workload.
    """
    from repro.experiments.operator_suite import OPERATOR_CLASSES

    split = random.Random(seed)
    per_window = len(MISS_BATCHES) // SETUPS
    batches = {op: split.sample(MISS_BATCHES, len(MISS_BATCHES))
               [window * per_window:(window + 1) * per_window] for op in OPERATOR_CLASSES}
    rng = random.Random(f"{seed}/{window}")
    requests: list = []
    for _cycle in range(per_window):
        for op in rng.sample(OPERATOR_CLASSES, len(OPERATOR_CLASSES)):
            if len(requests) % REPEAT_EVERY == REPEAT_EVERY - 1:
                requests.append(("repeat", rng.choice(("other", "own"))))
            requests.append(("fresh", op, batches[op].pop()))
    return requests


def _closed_loop(port: int, requests: list) -> Tuple[List[_Answer], float]:
    """Clients take the next request from the list once answered.

    A repeat takes the workload another client has in flight ("other"),
    which coalesces, or the client's own workload before last ("own"),
    which is a registry hit.
    """
    from repro.serving.netclient import NetClientError, TuningClient

    answers: List[_Answer] = []
    lock = threading.Lock()
    cursor = iter(requests)
    in_flight: dict = {}  # client index -> workload
    start = time.perf_counter()

    def client_loop(index: int) -> None:
        own: List[Tuple[str, int]] = []
        with TuningClient("127.0.0.1", port) as client:
            while True:
                with lock:
                    item = next(cursor, None)
                    if item is None:
                        return
                    others = [w for i, w in in_flight.items() if i != index]
                    if item[0] == "fresh":
                        workload = item[1:]
                    elif item[1] == "other" and others:
                        workload = others[0]
                    else:
                        workload = own[-2] if len(own) > 1 else own[-1] if own else item
                    if workload is item:  # nothing to repeat yet: next item
                        continue
                    in_flight[index] = workload
                own.append(workload)
                sent = time.perf_counter()
                try:
                    reply = client.tune(workload[0], batch=workload[1], trials=MISS_TRIALS)
                except NetClientError:
                    reply = None
                answer = _Answer(workload[0], workload[1], sent, sent, sent,
                                 time.perf_counter(), reply)
                with lock:
                    answers.append(answer)
                    del in_flight[index]

    threads = [threading.Thread(target=client_loop, args=(i,)) for i in range(MISS_CLIENTS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return answers, max(a.done for a in answers) - start


# --------------------------------------------------------------------- #
# checks and metrics
# --------------------------------------------------------------------- #
def _check(workload: str, registry_dir: Path, answers: List[_Answer]) -> Tuple[int, List[str]]:
    """Failed answers and the problems found, against the stopped server's registry."""
    from repro.experiments.operator_suite import representative_dag
    from repro.hardware.target import cpu_target
    from repro.serving.registry import ScheduleRegistry

    target = cpu_target()
    with ScheduleRegistry(registry_dir) as registry:
        entries = {key: registry.lookup(representative_dag(key[0], batch=key[1]), target,
                                        k=0).entry
                   for key in {(a.op, a.batch) for a in answers}}
    failed, problems = 0, []
    for a in answers:
        reply = a.reply
        entry = entries[(a.op, a.batch)]
        wrong = None
        if reply is None or not reply.ok or reply.degraded:
            wrong = f"not answered: {reply.error_code if reply else 'transport'}"
        elif workload == "serve-hit" and reply.source != "registry-hit":
            wrong = f"answered as {reply.source}, not a registry hit"
        elif reply.trials_used > MISS_TRIALS:
            wrong = f"used {reply.trials_used} trials of {MISS_TRIALS}"
        elif entry is None:
            wrong = "not in the registry afterwards"
        elif entry.latency != reply.latency:
            wrong = f"latency {reply.latency} != registry {entry.latency}"
        if wrong:
            failed += 1
            if len(problems) < 10:
                problems.append(f"{a.op}/b{a.batch}: {wrong}")
    return failed, problems


def _latency_metrics(workload: str, answers: List[_Answer], wall: float,
                     failed: int) -> Tuple[dict, dict]:
    from repro.hardware.target import cpu_target

    ok = [a for a in answers if a.reply is not None and a.reply.ok]
    waits = sorted(a.done - a.due for a in ok)
    peak = cpu_target().peak_flops
    census = {}
    for a in answers:
        key = a.reply.source if a.reply is not None and a.reply.ok else "failed"
        census[key] = census.get(key, 0) + 1
    details = {
        "latency_ms": {f"p{q:g}": percentile(waits, q) * 1e3
                       for q in (50, 90, 95, 99, 99.9, 100)},
        "samples": len(waits),
        "census": census,
        "failed": failed,
        "window_s": wall,
    }
    metrics = {
        "work_per_s": len(ok) / wall,
        "answer_p50_ms": percentile(waits, 50) * 1e3,
        "answer_efficiency": math.exp(
            sum(math.log(a.reply.result["throughput"] / peak) for a in ok) / len(ok)),
    }
    if workload == "serve-hit":
        details["within_limit_frac"] = sum(
            1 for a in ok if (a.done - a.due) * 1e3 <= HIT_LIMIT_MS) / len(answers)
        for key, sent in (("lateness_ms", lambda a: a.sent),
                          ("generator_lateness_ms", lambda a: a.dispatched)):
            late = sorted(sent(a) - a.due for a in answers)
            details[key] = {"p99": percentile(late, 99) * 1e3,
                            "max": late[-1] * 1e3}
        details["generator_valid"] = (
            details["generator_lateness_ms"]["p99"] <= MAX_P99_LATENESS_MS)
    return metrics, details


def _per_second(answers: List[_Answer]) -> List[List[float]]:
    """Sorted latencies (from due) of the answers due in each whole second."""
    ok = [a for a in answers if a.reply is not None and a.reply.ok]
    first = min(a.due for a in ok)
    seconds: dict = {}
    for a in ok:
        seconds.setdefault(int(a.due - first), []).append(a.done - a.due)
    # The last second of a window is partial; keep seconds near the offered rate.
    return [sorted(w) for w in seconds.values() if len(w) >= HIT_RATE / 2]


def _measure(workload: str, port: int, seed: int, window: int, seconds: int):
    if workload == "serve-hit":
        return _open_loop(port, _hit_schedule(seed, window, seconds / SETUPS))
    return _closed_loop(port, _miss_requests(seed, window))


# --------------------------------------------------------------------- #
def run(workload: str, seed: int, seconds: int, trace: bool) -> None:
    workdir = common.work_dir(workload)
    servers: List[Server] = []
    try:
        _run(workload, seed, seconds, trace, workdir, servers)
    finally:
        for server in servers:
            server.stop()
        common.remove_work_dir(workdir)


def _window(workload: str, seed: int, window: int, seconds: int, workdir: Path,
            trace: bool, servers: List[Server]) -> dict:
    """:func:`_attempt` until the generator kept up, at most :data:`ATTEMPTS` times."""
    for attempt in range(ATTEMPTS):
        result = _attempt(workload, seed, window, seconds, workdir / f"attempt{attempt}",
                          trace, servers)
        if result["details"].get("generator_valid", True):
            break
    result["details"]["invalid_attempts"] = attempt
    if not result["details"].get("generator_valid", True):
        result["problems"].append(
            f"generator fell behind: {result['details']['generator_lateness_ms']}")
    return result


def _attempt(workload: str, seed: int, window: int, seconds: int, workdir: Path,
             trace: bool, servers: List[Server]) -> dict:
    """Set up a server, send one window of traffic, stop it and check."""
    server, setup_s, problems = _start(workdir, workload, trace)
    servers.append(server)
    if trace:
        server.reset_layers()
    answers, wall = _measure(workload, server.port, seed, window, seconds)
    servers.remove(server)
    stats = server.stop()
    if not stats:
        problems.append(f"server did not shut down cleanly: {server.error_tail()}")
    failed, found = _check(workload, server.registry, answers)
    metrics, details = _latency_metrics(workload, answers, wall, failed)
    return {"setup_s": setup_s, "answers": answers, "wall": wall, "stats": stats,
            "failed": failed, "problems": problems + found, "metrics": metrics,
            "details": details}


def _run(workload: str, seed: int, seconds: int, trace: bool, workdir: Path,
         servers: List[Server]) -> None:
    details = {"workload": workload, "environment": common.environment()}
    windows = [_window(workload, seed, index, seconds, workdir / f"window{index}", False,
                       servers)
               for index in range(1 if trace else SETUPS)]
    answers = [a for w in windows for a in w["answers"]]
    failed = sum(w["failed"] for w in windows)
    problems = [p for w in windows for p in w["problems"]]
    details.update(setup_s=[w["setup_s"] for w in windows],
                   windows=[w["details"] for w in windows])

    if not trace:
        if workload == "serve-hit":
            # Medians over the windows, and for the latency over the seconds
            # of the windows: a stall of the host, in one second or in one
            # window, does not move the result.
            metrics = {name: median([w["metrics"][name] for w in windows])
                       for name in windows[0]["metrics"]}
            metrics["answer_p50_ms"] = median(
                [percentile(waits, 50) for w in windows for waits in _per_second(w["answers"])]
            ) * 1e3
        else:
            # A window has 34 answers; pool them.
            metrics, details["pooled"] = _latency_metrics(
                workload, answers, sum(w["wall"] for w in windows), failed)
        metrics["setup_s"] = median(details["setup_s"])
        metrics["peak_rss_mb"] = median(
            [w["stats"].get("peak_rss_mb", 0.0) for w in windows])
        details["problems"] = problems
        common.emit(details, not problems, len(answers), failed, metrics, trace)
        return

    traced = _window(workload, seed, 0, seconds, workdir / "traced", True, servers)
    problems += traced["problems"]
    snapshot = (traced["stats"] or {}).get("layers") or {"seconds": {}, "counts": {}}
    root_s = snapshot["seconds"].get(layers.ROOT, 0.0)
    client_s = sum(a.done - a.sent for a in traced["answers"])
    untraced_mean = sum(a.done - a.sent for a in answers) / len(answers)
    per_layer = layers.layer_metrics(snapshot)
    per_layer["serving.server.wire_admission.s"] = (
        client_s - layers.attributed_seconds(snapshot) - root_s)
    per_layer["unattributed_frac"] = root_s / client_s
    per_layer["trace_overhead_frac"] = client_s / len(traced["answers"]) / untraced_mean - 1.0
    details.update(layer_seconds=snapshot["seconds"], layer_counts=snapshot["counts"],
                   traced=traced["details"], problems=problems)
    common.emit(details, not problems, len(answers) + len(traced["answers"]),
                failed + traced["failed"], per_layer, trace)
