"""One benchmark run: references, set-up, the closed loop, the metrics."""

from __future__ import annotations

import json
import os
import pickle
import resource
import statistics
import threading
from collections import deque
from time import perf_counter

from .tracer import NullTracer, Tracer
from .workloads import GraphCounts, Workload

#: A response later than this counts as failed.
REQUEST_TIMEOUT_S = 30.0
#: ``close()`` budget; a fleet stuck past it still fails the run below.
CLOSE_TIMEOUT_S = 30.0
#: How long a closed fleet's worker processes may take to disappear.
EXIT_GRACE_S = 5.0
#: Length of one slice of the traced serving loop.
SERVE_SLICE_S = 2.0
#: Blocks of completions whose median rate is ``docs_per_s``.
THROUGHPUT_BLOCKS = 10
#: Seconds the stdlib-``re`` ceiling runs for.
RE_SECONDS = 0.3

END_TO_END_UNITS = {
    "docs_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "success_rate": "ratio",
}

PER_LAYER_UNITS = {
    "regex.parse_ms": "ms",
    "vset.compile_ms": "ms",
    "vset.states": "count",
    "runtime.tables.build_ms": "ms",
    "runtime.tables.artifact_bytes": "bytes",
    "queries.equality_runtime_ms": "ms",
    "runtime.service.register_ms": "ms",
    "runtime.service.start_ms": "ms",
    "enumeration.graph.self_s": "s",
    "enumeration.graph.share": "ratio",
    "enumeration.graph.nodes": "count",
    "enumeration.graph.edges": "count",
    "enumeration.graph.chars": "count",
    "automata.leveled.enum_self_s": "s",
    "automata.leveled.enum_share": "ratio",
    "enumeration.enumerator.decode_self_s": "s",
    "enumeration.enumerator.decode_share": "ratio",
    "enumeration.enumerator.tuples": "count",
    "runtime.fusion.sweep_self_s": "s",
    "runtime.fusion.sweep_share": "ratio",
    "runtime.fusion.drain_share": "ratio",
    "runtime.fusion.cohorts": "count",
    "runtime.equality.compile_for_self_s": "s",
    "runtime.equality.compile_for_share": "ratio",
    "runtime.equality.doc_states": "states/doc",
    "runtime.tables.doc_build_share": "ratio",
    "text.substrings.index_share": "ratio",
    "runtime.service.submit_ms": "ms",
    "runtime.service.wait_ms": "ms",
    "runtime.service.overhead_share": "ratio",
    "runtime.service.backlog_depth": "count",
    "runtime.backends.worker_busy_share": "ratio",
    "runtime.backends.result_bytes": "bytes",
    "runtime.transport.doc_bytes": "bytes",
    "runtime.transport.shm_engaged": "count",
    "runtime.transport.degraded_to_pipe": "count",
    "runtime.service.tasks_retried": "count",
    "runtime.service.workers_crashed": "count",
    "runtime.service.tasks_timed_out": "count",
    "runtime.service.docs_truncated": "count",
    "error_rate": "ratio",
    "trace.overhead_share": "ratio",
    "trace.unattributed_share": "ratio",
    "reference.re_docs_per_s": "1/s",
    "input.mean_doc_chars": "chars",
    "input.match_share": "ratio",
    "input.tuples_per_doc": "count",
}


class BenchError(RuntimeError):
    """The benchmark itself could not run as specified."""


class RunResult:
    def __init__(self) -> None:
        self.correct = True
        self.attempted = 0
        self.failed = 0
        self.metrics: dict[str, float] = {}
        self.units: dict[str, str] = {}
        self.report: list[str] = []

    def fail(self, reason: str) -> None:
        self.correct = False
        self.report.append(f"# FAIL {reason}")

    def summary(self) -> dict:
        return {
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {
                name: {"value": value, "unit": self.units[name]}
                for name, value in self.metrics.items()
            },
        }


# -- Hygiene ------------------------------------------------------------------
def shm_segments() -> set[str]:
    try:
        return {n for n in os.listdir("/dev/shm") if n.startswith("sjdoc-")}
    except OSError:
        return set()


def _alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    return True


def surviving(pids: set[int]) -> list[int]:
    """Worker pids still present after ``EXIT_GRACE_S``."""
    deadline = perf_counter() + EXIT_GRACE_S
    left = sorted(pids)
    while True:
        left = [pid for pid in left if _alive(pid)]
        if not left or perf_counter() >= deadline:
            return left
        threading.Event().wait(0.05)


def worker_pids(service) -> set[int]:
    own = os.getpid()
    return {
        w["pid"] for w in service.health()["workers"]
        if w["pid"] is not None and w["pid"] != own
    }


# -- Requests -----------------------------------------------------------------
class Pending:
    """One submitted request; stamps when its last future completes."""

    __slots__ = ("index", "futures", "t_submit", "t_done", "done", "_left", "_lock")

    def __init__(self, index: int, futures: dict, t_submit: float):
        self.index = index
        self.futures = futures
        self.t_submit = t_submit
        self.t_done = 0.0
        self.done = threading.Event()
        self._left = len(futures)
        self._lock = threading.Lock()
        for future in futures.values():
            future.add_done_callback(self._on_done)

    def _on_done(self, _future) -> None:
        with self._lock:
            self._left -= 1
            last = self._left == 0
        if last:
            self.t_done = perf_counter()
            self.done.set()

    def response(self) -> dict:
        if not self.done.wait(REQUEST_TIMEOUT_S):
            raise TimeoutError(f"request {self.index} unresolved")
        return {member: f.result() for member, f in self.futures.items()}


def timed_setup(workload: Workload, warmup, tracer, pids: set[int]):
    """Construct, register (cold compile), start and warm one request per
    worker; returns ``(service, submit, seconds)``."""
    t0 = perf_counter()
    with tracer.span("phase", "setup"):
        with tracer.span("runtime.service.init"):
            service = workload.service()
        try:
            submit = workload.register(service, tracer)
            with tracer.span("runtime.service.start"):
                service.start()
            with tracer.span("runtime.service.warmup"):
                pending = [Pending(-1, submit(docs), 0.0) for docs in warmup]
                for p in pending:
                    p.response()
        except BaseException:
            service.close(drain=False)
            raise
    elapsed = perf_counter() - t0
    pids |= worker_pids(service)
    idle = [
        w["worker_id"] for w in service.health()["workers"]
        if w["tasks_assigned"] < 1
    ]
    if idle:
        service.close(drain=False)
        raise BenchError(f"warm-up never reached workers {idle}")
    return service, submit, elapsed


def serve(workload, service, submit, requests, refs, seconds, tracer, trace,
          first: int = 0):
    """The closed loop: ``workload.outstanding`` requests in flight,
    cycling through ``requests`` from index ``first``."""
    stats = {
        "attempted": 0, "failed": 0, "latencies": [], "docs": 0,
        "served": [], "backlog": [], "shm": 0, "errors": [],
        "completions": [],
    }
    inflight: deque[Pending] = deque()
    n = len(requests)
    issued = first
    start = perf_counter()
    deadline = start + seconds
    last_done = start
    while True:
        while len(inflight) < workload.outstanding and perf_counter() < deadline:
            k = issued % n
            issued += 1
            tracer.request = k
            t0 = perf_counter()
            try:
                with tracer.span("runtime.service.submit"):
                    futures = submit(requests[k])
            except Exception as exc:  # refused or raised: a failed request
                stats["attempted"] += 1
                stats["failed"] += 1
                stats["errors"].append(repr(exc))
                continue
            inflight.append(Pending(k, futures, t0))
            if trace:
                with tracer.span("runtime.service.health"):
                    health = service.health()
                stats["backlog"].append(health["backlog_depth"])
                res = health["resources"]
                if res["shm_bytes_in_flight"] + res["shm_bytes_pooled"] > 0:
                    stats["shm"] = 1
        if not inflight:
            break
        pending = inflight.popleft()
        tracer.request = pending.index
        stats["attempted"] += 1
        try:
            with tracer.span("runtime.service.wait"):
                response = pending.response()
        except Exception as exc:  # raised, timed out
            stats["failed"] += 1
            stats["errors"].append(repr(exc))
            continue
        with tracer.span("servebench.check"):
            ok = response == refs[pending.index]
        if not ok:
            stats["failed"] += 1
            stats["errors"].append(f"request {pending.index}: output differs")
            continue
        stats["latencies"].append(pending.t_done - pending.t_submit)
        stats["docs"] += len(requests[pending.index])
        stats["served"].append(pending.index)
        stats["completions"].append(
            (pending.t_done, len(requests[pending.index])))
        last_done = max(last_done, pending.t_done)
    stats["wall"] = last_done - start
    stats["issued"] = issued
    stats["docs_per_s"] = block_rate(stats["completions"], start)
    return stats


def traced_serve(workload, service, submit, engines, requests, refs, seconds,
                 tracer):
    """The traced closed loop, in slices of ``SERVE_SLICE_S``.

    After each slice the driver replays the requests it served, untraced
    and with the fleet idle, so the engine time that the service's
    latency is compared with is measured beside it, not minutes apart
    on a machine whose speed drifts.  Serving and replays together take
    ``seconds``.
    """
    total = None
    null = NullTracer()
    engine_s = 0.0
    deadline = perf_counter() + seconds
    issued = 0
    while total is None or perf_counter() < deadline:
        with tracer.span("phase", "serve"):
            part = serve(workload, service, submit, requests, refs,
                         min(SERVE_SLICE_S, seconds), tracer, True, issued)
        issued = part["issued"]
        for k in part["served"]:
            t0 = perf_counter()
            workload.replay(engines, requests[k], null)
            engine_s += perf_counter() - t0
        if total is None:
            total = part
            continue
        for key in ("attempted", "failed", "docs", "wall"):
            total[key] += part[key]
        for key in ("latencies", "served", "backlog", "errors"):
            total[key].extend(part[key])
        total["shm"] = max(total["shm"], part["shm"])
    total["engine_s"] = engine_s
    return total


def block_rate(completions, start: float) -> float:
    """Median documents per second over ``THROUGHPUT_BLOCKS`` runs of
    consecutive completions, each timed from the end of the one before.

    A median over blocks keeps a stall of the shared machine inside a
    few blocks from moving the run's throughput.
    """
    done = sorted(completions)
    if not done:
        return 0.0
    per = max(1, len(done) // THROUGHPUT_BLOCKS)
    rates = []
    previous = start
    for first in range(0, len(done) - per + 1, per):
        block = done[first:first + per]
        end = block[-1][0]
        if end > previous:
            rates.append(sum(n for _t, n in block) / (end - previous))
        previous = end
    return statistics.median(rates)


# -- Input record and the stdlib ceiling ----------------------------------------
def input_properties(inputs, refs) -> dict:
    docs = inputs.docs
    per_doc = [0] * len(docs)
    offset = 0
    for request, ref in zip(inputs.requests, refs):
        for outputs in ref.values():
            for i, tuples in enumerate(outputs):
                per_doc[offset + i] += len(tuples)
        offset += len(request)
    return {
        "docs": len(docs),
        "mean_doc_chars": sum(map(len, docs)) / len(docs),
        "match_share": sum(1 for t in per_doc if t) / len(docs),
        "tuples_per_doc": sum(per_doc) / len(docs),
    }


def re_ceiling(workload: Workload, docs: list[str]) -> float:
    patterns = workload.re_patterns()
    done = 0
    t0 = perf_counter()
    while True:
        for s in docs:
            for pattern in patterns:
                for _match in pattern.finditer(s):
                    pass
        done += len(docs)
        elapsed = perf_counter() - t0
        if elapsed >= RE_SECONDS:
            return done / elapsed


# -- Trace reductions ------------------------------------------------------------
def _ms(values: list[float]) -> float:
    return statistics.median(values) * 1000.0 if values else 0.0


def _quantile(values: list[float], q: int) -> float:
    """The q-th percentile (inclusive method) of ``values``."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def replay_passes(workload, engines, requests, refs, tracer, result):
    """An untimed count pass, then every request replayed twice in turn,
    untraced and traced, alternating which goes first so that drift of
    the machine's speed falls on both alike.

    Returns ``(counts, untraced seconds)``; each traced replay is one
    ``replay`` phase of ``tracer``.
    """
    counts = GraphCounts()
    for docs in requests:
        workload.count(engines, docs, counts)
    null = NullTracer()
    untraced = 0.0
    for k, docs in enumerate(requests):
        tracer.request = k
        for traced in (False, True) if k % 2 == 0 else (True, False):
            if traced:
                with tracer.span("phase", "replay"):
                    output = workload.replay(engines, docs, tracer)
            else:
                t0 = perf_counter()
                output = workload.replay(engines, docs, null)
                untraced += perf_counter() - t0
            if output != refs[k]:
                result.fail(
                    f"stage-split replay of request {k} differs from reference")
    return counts, untraced


def layer_metrics(workload, engines, inputs, refs, tracer, setup_info, counts,
                  untraced, serve_stats, health) -> dict:
    m: dict[str, float] = {}
    replay = tracer.phase_summary("replay")
    wall = replay["wall"]

    def self_s(name):
        return replay.get(name, 0.0)

    m["regex.parse_ms"] = _ms(tracer.phase_calls("setup.layers", "regex.parse"))
    m["vset.compile_ms"] = _ms(tracer.phase_calls("setup.layers", "vset.compile"))
    m["vset.states"] = setup_info["states"]
    m["runtime.tables.build_ms"] = _ms(
        tracer.phase_calls("setup.layers", "runtime.tables.build"))
    m["runtime.tables.artifact_bytes"] = setup_info["artifact_bytes"]
    m["queries.equality_runtime_ms"] = _ms(
        tracer.phase_calls("setup.layers", "queries.equality_runtime"))
    m["runtime.service.register_ms"] = _ms(
        tracer.phase_calls("setup", "runtime.service.register"))
    m["runtime.service.start_ms"] = _ms(
        tracer.phase_calls("setup", "runtime.service.start"))

    for prefix, name in (
        ("enumeration.graph.self_s", "enumeration.graph"),
        ("automata.leveled.enum_self_s", "automata.leveled.enum"),
        ("enumeration.enumerator.decode_self_s", "enumeration.enumerator.decode"),
        ("runtime.fusion.sweep_self_s", "runtime.fusion.sweep"),
        ("runtime.equality.compile_for_self_s", "runtime.equality.compile_for"),
    ):
        m[prefix] = self_s(name)
    m["enumeration.graph.share"] = self_s("enumeration.graph") / wall
    m["automata.leveled.enum_share"] = self_s("automata.leveled.enum") / wall
    m["enumeration.enumerator.decode_share"] = (
        self_s("enumeration.enumerator.decode") / wall)
    m["runtime.fusion.sweep_share"] = self_s("runtime.fusion.sweep") / wall
    m["runtime.fusion.drain_share"] = self_s("runtime.fusion.drain") / wall
    m["runtime.equality.compile_for_share"] = (
        self_s("runtime.equality.compile_for") / wall)
    m["runtime.tables.doc_build_share"] = self_s("runtime.tables.doc_build") / wall
    m["text.substrings.index_share"] = self_s("text.substrings.index") / wall

    docs = inputs.docs
    m["enumeration.graph.nodes"] = counts.nodes
    m["enumeration.graph.edges"] = counts.edges
    m["enumeration.graph.chars"] = counts.chars
    m["enumeration.enumerator.tuples"] = sum(
        len(t) for ref in refs for outputs in ref.values() for t in outputs)
    cohorts = getattr(workload, "cohorts", None)
    m["runtime.fusion.cohorts"] = cohorts(engines) if cohorts else 0
    m["runtime.equality.doc_states"] = counts.doc_states / len(docs)

    latencies = serve_stats["latencies"]
    m["runtime.service.submit_ms"] = _ms(
        tracer.phase_calls_each("serve", "runtime.service.submit"))
    m["runtime.service.wait_ms"] = _ms(
        tracer.phase_calls_each("serve", "runtime.service.wait"))
    busy = serve_stats["engine_s"]
    m["runtime.service.overhead_share"] = (
        (sum(latencies) - busy) / sum(latencies) if latencies else 0.0)
    backlog = serve_stats["backlog"]
    m["runtime.service.backlog_depth"] = (
        statistics.fmean(backlog) if backlog else 0.0)
    # Bytes a wire backend moves per request, computed from the pickled
    # documents and reference outputs; serial fleets move none.
    wire = workload.backend != "serial"
    m["runtime.backends.worker_busy_share"] = (
        busy / (workload.workers * serve_stats["wall"])
        if serve_stats["wall"] > 0 else 0.0)
    n_req = len(inputs.requests)
    m["runtime.backends.result_bytes"] = (
        sum(len(pickle.dumps(ref, protocol=pickle.HIGHEST_PROTOCOL))
            for ref in refs) / n_req if wire else 0)
    m["runtime.transport.doc_bytes"] = (
        sum(len(pickle.dumps(r, protocol=pickle.HIGHEST_PROTOCOL))
            for r in inputs.requests) / n_req if wire else 0)
    m["runtime.transport.shm_engaged"] = serve_stats["shm"]
    m["runtime.transport.degraded_to_pipe"] = (
        health["resources"]["degraded_to_pipe"])
    counters = health["counters"]
    m["runtime.service.tasks_retried"] = counters["tasks_retried"]
    m["runtime.service.workers_crashed"] = counters["workers_crashed"]
    m["runtime.service.tasks_timed_out"] = counters["tasks_timed_out"]
    m["runtime.service.docs_truncated"] = health["resources"]["docs_truncated"]
    attempted = serve_stats["attempted"]
    m["error_rate"] = serve_stats["failed"] / attempted if attempted else 0.0
    m["trace.overhead_share"] = (wall - untraced) / untraced

    # Time inside the phases that no layer span covers.
    selfs = tracer.self_times()
    durations = tracer.durations()
    phase_spans = [i for i, name in enumerate(tracer.names) if name == "phase"]
    unattributed = sum(selfs[i] for i in phase_spans)
    traced_wall = sum(durations[i] for i in phase_spans if tracer.parents[i] < 0)
    m["trace.unattributed_share"] = unattributed / traced_wall
    return m


# -- The run ------------------------------------------------------------------------
def run_workload(
    workload: Workload,
    *,
    seed: int,
    seconds: float,
    trace: bool,
    trace_path=None,
    n_requests: int | None = None,
    setups: int | None = None,
    corrupt_reference: bool = False,
) -> RunResult:
    """Run one workload; see ``run.py`` for what a run does."""
    result = RunResult()
    inputs = workload.make_inputs(seed, n_requests)
    engines = workload.reference_engines()
    refs = [workload.reference(engines, docs) for docs in inputs.requests]
    if corrupt_reference:
        first = next(iter(refs[0]))
        refs[0] = dict(refs[0])
        refs[0][first] = refs[0][first] + [[]]
    props = input_properties(inputs, refs)
    re_rate = re_ceiling(workload, inputs.docs)
    shm_before = shm_segments()
    tracer = Tracer() if trace else NullTracer()
    pids: set[int] = set()
    setup_s: list[float] = []
    setup_info: dict = {}
    service = None
    finished = False
    try:
        for _ in range(workload.setups if setups is None else setups):
            if service is not None:
                service.close(timeout=CLOSE_TIMEOUT_S)
            if trace:
                with tracer.span("phase", "setup.layers"):
                    setup_info = workload.compile_layers(tracer)
            service, submit, elapsed = timed_setup(
                workload, inputs.warmup, tracer, pids)
            setup_s.append(elapsed)
        if trace:
            counts, untraced = replay_passes(
                workload, engines, inputs.requests, refs, tracer, result)
            stats = traced_serve(workload, service, submit, engines,
                                 inputs.requests, refs, seconds, tracer)
        else:
            stats = serve(workload, service, submit, inputs.requests, refs,
                          seconds, tracer, trace)
        health = service.health()
        pids |= worker_pids(service)
        own = os.getpid()
        worker_rss = sum(
            w["rss_bytes"] or 0 for w in health["workers"]
            if w["pid"] != own
        )
        finished = True
    finally:
        # An interrupted run abandons its work: no drain, workers killed.
        if service is not None:
            service.close(drain=finished, timeout=CLOSE_TIMEOUT_S)

    result.attempted = stats["attempted"]
    result.failed = stats["failed"]
    for error in stats["errors"][:5]:
        result.report.append(f"# error {error}")
    if stats["failed"]:
        result.fail(f"{stats['failed']} of {stats['attempted']} requests failed")
    if not stats["latencies"]:
        result.fail("no request completed")
    left = surviving(pids)
    if left:
        result.fail(f"worker processes survived close(): {left}")
    leaked = sorted(shm_segments() - shm_before)
    if leaked:
        result.fail(f"shared-memory segments left behind: {leaked}")

    latencies = stats["latencies"] or [0.0]
    result.report.append(
        f"# servebench workload={workload.name} seed={seed} "
        f"backend={health['backend']['name']} workers={workload.workers} "
        f"outstanding={workload.outstanding} "
        f"latency_samples={len(stats['latencies'])} "
        f"setups={len(setup_s)} "
        f"window_docs_per_s={stats['docs'] / max(stats['wall'], 1e-9):.3f} "
        f"setup_s_all={[round(t, 4) for t in setup_s]}"
    )
    result.report.append("# input " + json.dumps(props, sort_keys=True))
    result.report.append(
        f"# reference.re_docs_per_s={re_rate:.1f} "
        "(stdlib re over the same documents; different semantics, a "
        "ceiling, never gated)"
    )
    if trace:
        metrics = layer_metrics(
            workload, engines, inputs, refs, tracer, setup_info, counts,
            untraced, stats, health)
        metrics["reference.re_docs_per_s"] = re_rate
        metrics["input.mean_doc_chars"] = props["mean_doc_chars"]
        metrics["input.match_share"] = props["match_share"]
        metrics["input.tuples_per_doc"] = props["tuples_per_doc"]
        units = PER_LAYER_UNITS
        if trace_path is not None:
            tracer.dump(trace_path)
            result.report.append(f"# spans written to {trace_path}")
    else:
        error_rate = stats["failed"] / max(1, stats["attempted"])
        metrics = {
            "docs_per_s": stats["docs_per_s"],
            "latency_p50_ms": _quantile(latencies, 50) * 1000.0,
            "latency_p90_ms": _quantile(latencies, 90) * 1000.0,
            "setup_s": statistics.median(setup_s),
            "peak_rss_mb": (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
                + worker_rss
            ) / 2**20,
            "success_rate": 1.0 - error_rate,
        }
        units = END_TO_END_UNITS
    result.metrics = {name: metrics[name] for name in units}
    result.units = dict(units)
    return result

