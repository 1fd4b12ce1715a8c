"""The worker execution core, shared by every compute backend.

One task's evaluation is the same code whether the worker is a spawned
process, a pool thread or the driver itself running inline: materialize
the shipped artifact at most once per worker, run the exact serial
per-document path under the resolved result caps, stamp the heartbeat
at task boundaries (and per member per document), and report one tagged
result message.  Backends differ only in how messages travel and what a
"worker" physically is — that lives in the sibling modules; everything
here is substrate-blind.

Wire format.  Tasks are ``("task", task_id, attempt, query_id, payload,
op, items, extra, caps)`` with ``op`` one of:

* ``evaluate`` — ``items`` are documents;
* ``files`` — ``items`` are paths, read worker-side by
  :func:`read_document`;
* ``count`` — documents, one distinct-tuple count each (``extra`` is
  the count cap).

``query_id`` names the engine: a registered query's own, or a fused
engine over several members.  An ``evaluate``/``files`` task serves
every member of that engine — each member runs its own per-document
sweep and enumeration — with ``caps`` one resolved cap per member (or
``None``); a solo query is simply a one-member task.  Results are
``("done"|"fail", worker_id, task_id, payload, truncated)``: ``done``
carries one slot per member, ``("ok", per_doc, truncated)`` or ``("err",
exc)`` (a ``count`` task answers with its one ``ok`` slot), and
``fail`` a task-level exception that fails every member.
"""

from __future__ import annotations

import mmap
import os
import pickle
import time
from itertools import islice

from ...errors import ResultLimitError
from ..compiled import CompiledSpanner
from ..faults import flood_stream
from ..fusion import FusedEngine, FusedQuery
from ..tables import AutomatonTables
from .base import HEARTBEAT_MEMBER, stamp_heartbeat

__all__ = [
    "current_rss",
    "enumerate_capped",
    "materialize",
    "materialize_payload",
    "read_document",
    "run_count",
    "run_members",
    "run_task",
    "CAP_PROBE_BATCH",
]

try:  # POSIX only; the RSS probe degrades to 0.0 (never sampled) without it
    import resource as _resource
except ImportError:  # pragma: no cover - non-POSIX
    _resource = None

_PAGE_SIZE = os.sysconf("SC_PAGE_SIZE") if hasattr(os, "sysconf") else 4096


def current_rss() -> float:
    """This process's resident set size in bytes (0.0 when unknowable).

    ``/proc/self/statm`` is the live value (Linux); the ``getrusage``
    fallback is a high-water mark, which over-reports after a spike but
    still moves monotonically toward any bloat — good enough for a
    watchdog whose only action is a graceful drain-and-recycle.
    """
    try:
        with open("/proc/self/statm", "rb") as fh:
            return float(int(fh.read().split()[1]) * _PAGE_SIZE)
    except (OSError, ValueError, IndexError):
        pass
    if _resource is not None:
        try:
            return float(
                _resource.getrusage(_resource.RUSAGE_SELF).ru_maxrss * 1024
            )
        except Exception:  # pragma: no cover - defensive
            pass
    return 0.0


#: Tuples consumed per accounting probe in :func:`enumerate_capped`.
#: Large enough that the capped path stays within ~1% of the uncapped
#: ``list(stream)`` (the E13h target), small enough that a flood costs
#: at most one probe batch past the cap before the verdict.
CAP_PROBE_BATCH = 64


def enumerate_capped(
    stream,
    extra: int | None,
    caps: "tuple[int | None, int | None, str] | None",
) -> tuple[list, bool]:
    """One document's tuples under the result cap; (tuples, truncated).

    Accounting is incremental over the polynomial-delay stream, so a
    combinatorially large result (Theorem 5.4) costs at most one probe
    batch past the cap before the verdict — never a materialization.
    Tuples are consumed in :data:`CAP_PROBE_BATCH` slices so the
    healthy path runs at ``list()`` speed rather than a per-tuple
    Python loop, and byte accounting pickles each batch *once* (what
    the result pipe would actually carry) instead of every tuple
    individually; a byte-cap truncation therefore cuts at a probe
    boundary — still an exact serial-order prefix.  The caps and the
    probe grid are per *document*, not per chunk, so verdicts are
    byte-identical whatever the worker count or chunking.
    """
    if extra is not None:
        stream = islice(stream, extra)
    if caps is None:
        return list(stream), False
    max_tuples, max_bytes, policy = caps
    out: list = []
    used = 0
    while True:
        take = CAP_PROBE_BATCH
        if max_tuples is not None:
            # One past the cap: distinguishes "exactly cap tuples
            # exist" (complete, not truncated) from a genuine overrun.
            take = min(take, max_tuples - len(out) + 1)
        batch = list(islice(stream, take))
        if max_tuples is not None and len(out) + len(batch) > max_tuples:
            if policy == "truncate":
                out.extend(batch[: max_tuples - len(out)])
                return out, True
            raise ResultLimitError(
                "tuples", max_tuples, len(out) + len(batch)
            )
        if max_bytes is not None and batch:
            used += len(
                pickle.dumps(batch, protocol=pickle.HIGHEST_PROTOCOL)
            )
            if used > max_bytes:
                if policy == "truncate":
                    return out, True
                raise ResultLimitError("bytes", max_bytes, used)
        out.extend(batch)
        if len(batch) < take:
            # A short batch IS exhaustion — returning here instead of
            # probing once more for an empty batch keeps the healthy
            # path at list() speed (the extra probe re-enters the
            # enumeration machinery just to hear "no more").
            return out, False


def materialize(artifact: object) -> object:
    """An unpickled shipped artifact, rebuilt into a serving engine."""
    if isinstance(artifact, AutomatonTables):
        # The equality-free contract: one tables object, rebuilt into a
        # spanner without rerunning any preprocessing.
        return CompiledSpanner.from_tables(artifact)
    if isinstance(artifact, FusedQuery):
        # A fused member set: plan cohorts once, serve many documents.
        return artifact.materialize()
    # A self-contained engine (CompiledEqualityQuery, CompiledSpanner):
    # its pickle contract already ships everything it needs.
    return artifact


def materialize_payload(payload: object) -> object:
    """A shipped payload — pickled bytes or a live object — as an engine.

    Process workers receive the registry's pickled bytes and unpickle
    here; thread and inline workers receive the backend's shared
    pre-materialized engine and pass it through (``materialize`` is
    idempotent on already-materialized engines).
    """
    if isinstance(payload, bytes):
        return materialize(pickle.loads(payload))
    return materialize(payload)


def run_count(
    engine, items: "list[str]", cap: int | None
) -> tuple[list, int]:
    """One ``count`` task: a distinct-tuple count per document.

    Never capped — a count is one integer per document however many
    tuples it counts.  Returns the one-member payload ``[("ok", counts,
    0)]`` and zero truncations.
    """
    return [("ok", [engine.count(doc, cap=cap) for doc in items], 0)], 0


def run_members(
    engine,
    query_id: str,
    op: str,
    items: "list[str]",
    extra: int | None,
    encoding: str,
    errors: str,
    caps: "tuple | None" = None,
    heartbeat=None,
    fault_ctx: "tuple | None" = None,
    flood: int | None = None,
) -> tuple[list, int]:
    """One ``evaluate``/``files`` task: every member's answer per document.

    ``engine`` is a :class:`~repro.runtime.fusion.FusedEngine` or, for a
    one-member task, the query's own engine (served as the member
    ``query_id``).  ``items`` is the document list the task carried, or
    for ``files`` the paths read worker-side.  Per document, each
    member's stream is enumerated under that *member's* resolved result
    cap — ``caps`` is a per-member tuple of ``(max_tuples,
    max_result_bytes, policy)`` or ``None``, the uncapped fast path —
    and ``extra`` is the caller's per-document ``limit``.

    The return payload is one entry per member: ``("ok", per_doc_lists,
    truncated_docs)`` for members that completed, ``("err", exc)`` for
    members whose enumeration raised (a :class:`ResultLimitError` under
    the ``error`` policy included) — an ordinary per-member exception
    fails exactly that member's future driver-side and never charges a
    breaker.

    Attribution: before each member phase the worker stamps the member
    ordinal into the heartbeat's member slot (and fires that member's
    injected faults via ``FaultPlan.apply_member``), so a worker killed
    mid-member — deadline, crash, memory — indicts exactly the member it
    was serving; the shared phase (reading the document, the equality
    members' substring index) is stamped ``-1`` and a failure there
    charges every member.  ``flood`` pads every member stream (the
    ``tuple_flood`` chaos hook).
    """
    if isinstance(engine, FusedEngine):
        member_ids, streams_for = engine.member_ids, engine.streams
    else:
        member_ids = (query_id,)
        streams_for = lambda doc: [engine.stream(doc)]  # noqa: E731
    m_count = len(member_ids)
    member_caps = caps if caps is not None else (None,) * m_count
    per_doc: list[list] = [[] for _ in range(m_count)]
    errs: list = [None] * m_count
    truncated = [0] * m_count
    live = m_count  # members without an error yet
    for item in items:
        if not live:
            break  # every member failed: the rest is unread
        _stamp_member(heartbeat, -1.0)
        if op == "files":
            # Only paths crossed the pipe (huge files decode straight
            # from mmap).
            doc = read_document(item, encoding=encoding, errors=errors)
        else:
            doc = item
        streams = streams_for(doc)
        for m, stream in enumerate(streams):
            if errs[m] is not None:
                continue
            _stamp_member(heartbeat, float(m))
            if fault_ctx is not None:
                plan, task_id, attempt, inline = fault_ctx
                plan.apply_member(
                    task_id, attempt, member_ids[m], inline=inline
                )
            if flood is not None:
                stream = flood_stream(stream, flood)
            try:
                # Enumeration stops (polynomial delay) at whichever
                # bound bites first instead of materializing
                # combinatorially many tuples only to discard them.
                tuples, cut = enumerate_capped(
                    stream, extra, member_caps[m]
                )
            except Exception as err:
                errs[m] = _picklable(err)
                live -= 1
                continue
            per_doc[m].append(tuples)
            truncated[m] += cut
    _stamp_member(heartbeat, -1.0)
    out = [
        ("err", errs[m])
        if errs[m] is not None
        else ("ok", per_doc[m], truncated[m])
        for m in range(m_count)
    ]
    total_truncated = sum(
        truncated[m] for m in range(m_count) if errs[m] is None
    )
    return out, total_truncated


#: Files at least this large are decoded straight from an ``mmap``
#: window instead of ``read()`` + decode (one copy, not two).
MMAP_THRESHOLD = 4 * 1024 * 1024


def read_document(
    path: str,
    *,
    encoding: str = "utf-8",
    errors: str = "strict",
    mmap_threshold: int = MMAP_THRESHOLD,
) -> str:
    """Read one document, decoding huge files straight from ``mmap``.

    Files of at least ``mmap_threshold`` bytes are mapped and decoded
    from the mapping in one step (``str`` accepts any buffer), skipping
    the intermediate ``bytes`` copy a plain ``read()`` materializes —
    the worker-side path ``files`` tasks extend to huge single files.
    Smaller files take the ordinary read.
    """
    if mmap_threshold is not None and mmap_threshold >= 0:
        try:
            size = os.path.getsize(path)
        except OSError:
            size = 0  # let open() raise the canonical error below
        if size >= mmap_threshold and size > 0:
            with open(path, "rb") as handle:
                with mmap.mmap(
                    handle.fileno(), 0, access=mmap.ACCESS_READ
                ) as window:
                    return str(window, encoding, errors)
    with open(path, encoding=encoding, errors=errors) as handle:
        return handle.read()


def _stamp_member(heartbeat, ordinal: float) -> None:
    """Publish which member this worker is serving (-1 = shared)."""
    if heartbeat is not None:
        stamp_heartbeat(heartbeat, ordinal, slot=HEARTBEAT_MEMBER)


def _picklable(err: Exception) -> Exception:
    """``err`` itself when it pickles, else a RuntimeError naming it."""
    try:
        pickle.dumps(err)
    except Exception:
        return RuntimeError(f"{type(err).__name__}: {err}")
    return err


def run_task(
    engines: dict,
    msg: tuple,
    heartbeat,
    encoding: str,
    errors: str,
    fault_plan,
    worker_id: int,
    *,
    inline_faults: bool = False,
) -> tuple:
    """Execute one wire task message; returns the wire result message.

    The body of every backend's worker loop.  ``engines`` is the
    worker's query-id-keyed engine table (the per-worker
    compile-at-most-once guarantee); ``heartbeat`` is stamped with
    ``(task_id, monotonic start, rss, -1)`` at task start and ``(-1,
    now, rss, -1)`` when the result is ready — the idle stamp lands
    *before* the result is visible, so the driver's deadline scan can
    never kill a worker for work it already finished.

    ``inline_faults`` selects how an injected ``crash`` manifests: a
    real ``os._exit`` for process workers, the
    :class:`~repro.runtime.faults._InjectedWorkerDeath` control-flow
    exception for workers sharing the driver's process (thread/inline)
    — it escapes the ``except Exception`` below by design, so the
    calling backend sees the simulated death, not a task failure.
    """
    (
        _kind, task_id, attempt, query_id, payload, op, items, extra,
        caps,
    ) = msg
    if heartbeat is not None:
        stamp_heartbeat(
            heartbeat, float(task_id), time.monotonic(), current_rss(), -1.0
        )
    try:
        # Materialize a shipped artifact *before* any injected
        # fault: the driver marks the query shipped the moment the
        # message is enqueued, so a retry of this task may arrive
        # with ``payload=None`` — the engine must already be here.
        engine = engines.get(query_id)
        if engine is None:
            if payload is None:
                raise RuntimeError(
                    f"worker {worker_id} has no artifact for query "
                    f"{query_id!r}"
                )
            engine = materialize_payload(payload)
            engines[query_id] = engine
        flood = None
        if fault_plan is not None:
            fault_plan.apply(task_id, attempt, inline=inline_faults)
            flood = fault_plan.flood_amount(task_id, attempt)
        if op == "count":
            out, truncated = run_count(engine, items, extra)
        elif op in ("evaluate", "files"):
            out, truncated = run_members(
                engine, query_id, op, items, extra, encoding, errors, caps,
                heartbeat=heartbeat,
                fault_ctx=(
                    (fault_plan, task_id, attempt, inline_faults)
                    if fault_plan is not None
                    else None
                ),
                flood=flood,
            )
        else:
            raise ValueError(f"unknown task op {op!r}")
    except Exception as err:
        result = ("fail", worker_id, task_id, _picklable(err), 0)
    else:
        result = ("done", worker_id, task_id, out, truncated)
    if heartbeat is not None:
        stamp_heartbeat(
            heartbeat, -1.0, time.monotonic(), current_rss(), -1.0
        )
    return result
