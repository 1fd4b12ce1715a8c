"""The fleet's plain-value knobs, declared and validated once.

:class:`FleetConfig` is the single declaration of every JSON-safe knob
that shapes a serving fleet — sizing, backend, file decoding, fault
tolerance, resource governance and admission control.
:class:`~repro.runtime.service.SpannerService`,
:class:`~repro.runtime.parallel.ParallelSpanner`,
:meth:`SpannerService.restore` and the CLI all build one and read from
it, so a bad value is rejected the same way whichever of them it
reaches, and the restart manifest journals ``dataclasses.asdict`` of
the service's config.  The object-valued arguments (a fault plan, an
artifact store, a manifest path) are not knobs and are not here.
"""

from __future__ import annotations

import codecs
import multiprocessing
from dataclasses import dataclass, fields

from .backends.base import BACKEND_NAMES

__all__ = [
    "FleetConfig",
    "DEFAULT_CHUNK_SIZE",
    "OVERLOAD_POLICIES",
    "RESULT_LIMIT_POLICIES",
]

#: Documents per dispatched task.  Small enough to keep workers evenly
#: loaded on heterogeneous documents, large enough to amortize one
#: round of task pickling over many documents.
DEFAULT_CHUNK_SIZE = 16

#: What ``submit`` does once ``max_in_flight`` chunks are outstanding.
OVERLOAD_POLICIES = ("block", "shed_oldest", "reject")

#: What a worker does when a document's result crosses its cap.
RESULT_LIMIT_POLICIES = ("error", "truncate")

#: Knobs drawn from a fixed set of names.
_CHOICES = {
    "backend": BACKEND_NAMES,
    "on_overload": OVERLOAD_POLICIES,
    "on_result_limit": RESULT_LIMIT_POLICIES,
}

#: Numeric knobs and their inclusive lower bound; the ``_SECONDS``
#: ones take any real number, the rest integers.  A knob whose default
#: is ``None`` also accepts ``None`` ("off" / "machine default").
_LOWER_BOUNDS = {
    "workers": 1,
    "chunk_size": 1,
    "max_tasks_per_worker": 1,
    "max_in_flight": 1,
    "quarantine_after": 1,
    "quarantine_cooldown": 0,
    "max_tuples": 1,
    "max_result_bytes": 1,
    "worker_memory_limit": 1,
    "worker_memory_hard_limit": 1,
    "max_compile_states": 1,
}

#: Deadlines: seconds, strictly positive when set.
_TIMEOUTS = ("task_timeout", "compile_timeout")
_SECONDS = ("quarantine_cooldown",) + _TIMEOUTS


@dataclass(frozen=True)
class FleetConfig:
    """Every plain-value fleet knob, validated at construction.

    A bracketed tag says which backends enforce a knob: *[all]*;
    *[process]* only — the serial and thread backends share the
    driver's memory, so they have no per-worker RSS to watch; or
    *[process, thread]* — the serial backend runs tasks inline and has
    no worker to kill.

    Sizing and substrate:

    * ``workers`` — fleet size; ``None`` (default) means the machine's
      CPU count.
    * ``chunk_size`` — documents per dispatched task (16): the
      granularity of load balancing, re-dispatch and recycling.
    * ``max_tasks_per_worker`` — recycle a worker after this many
      assigned tasks: it finishes its in-flight work, stops and is
      replaced.  ``None`` never recycles.  [all]
    * ``max_in_flight`` — chunks in flight across the fleet before
      submission hits the ``on_overload`` policy; ``None`` is
      unbounded.  [all]
    * ``backend`` — ``"process"`` (spawned worker processes; documents
      ride the pickled task message, SIGKILL deadlines), ``"thread"``
      (worker threads sharing one materialized engine per query; no
      pickling), ``"serial"`` (inline execution in the calling thread) or
      ``"auto"`` (default: thread on free-threaded interpreters,
      process otherwise; ``ParallelSpanner`` resolves it to serial at
      ``workers=1``).  Results are byte-identical across backends.
    * ``mp_context`` — a :mod:`multiprocessing` start method
      (``"fork"``, ``"spawn"``, ``"forkserver"``) or ``None`` for the
      platform default.  [process, and the ``compile_timeout`` compiler]

    Documents:

    * ``encoding`` / ``errors`` — the codec and error handler workers
      read file-backed documents with (``"utf-8"`` / ``"strict"``).
      In-memory documents are never re-encoded with them: they travel
      as pickled ``str`` objects.  [all]

    Fault tolerance:

    * ``task_timeout`` — default per-task execution deadline in
      seconds; ``None`` never times out.  ``register(..., timeout=)``
      and ``submit*(..., timeout=)`` override it, the most specific
      wins, and an explicit ``None`` there disables the inherited
      deadline.  A task past its deadline has its worker killed and
      replaced and fails with :class:`~repro.errors.TaskTimeoutError`.
      [process, thread]
    * ``quarantine_after`` — consecutive fleet-level failures
      (timeouts, lost workers, exhausted transient retries — not
      ordinary per-task exceptions) before a query's circuit breaker
      opens (3).  [all]
    * ``quarantine_cooldown`` — seconds a quarantined query waits
      before one half-open probe is admitted (30).  [all]
    * ``on_overload`` — what submission does past ``max_in_flight``:
      ``"block"`` (default, backpressure), ``"reject"`` (raise
      :class:`~repro.errors.OverloadedError`) or ``"shed_oldest"``
      (fail the oldest *backlogged* task with ``OverloadedError`` to
      make room; blocks when nothing is sheddable).  [all]

    Resource governance and admission control:

    * ``max_tuples`` / ``max_result_bytes`` — default result cap per
      *document*; ``None`` is uncapped.  Enforced incrementally over
      the enumeration stream; ``register``/``submit*`` override it the
      same way as ``task_timeout``.  [all]
    * ``on_result_limit`` — ``"error"`` (default) fails a capped task
      with :class:`~repro.errors.ResultLimitError`, which indicts the
      input and never charges the query's breaker; ``"truncate"`` keeps
      exactly the serial prefix up to the cap and counts the
      truncation.  [all]
    * ``worker_memory_limit`` — RSS bytes past which a worker is
      drained and recycled at its next task boundary; nothing in flight
      is lost.  Sampled off the heartbeat channel.  [process]
    * ``worker_memory_hard_limit`` — RSS bytes past which a worker is
      killed at once and its tasks re-dispatched like crash orphans;
      must be >= ``worker_memory_limit``.  [process]
    * ``max_compile_states`` — ``register()`` rejects a query whose
      *estimated* automaton size (Lemma 3.4: at most 2 states per
      syntax-tree node — a parse, not a compile) exceeds this, with
      :class:`~repro.errors.QueryRejectedError`.  [all]
    * ``compile_timeout`` — seconds a ``register()`` compilation may
      run.  When set, it runs in a throwaway process killed at the
      deadline, and ``register`` raises ``QueryRejectedError``; no
      worker is consumed.  [all]

    Raises ``ValueError`` for any out-of-range, unknown-choice or
    wrongly typed value — its message starts with the knob's name, which
    the CLI maps back to the ``--flag``.
    """

    workers: int | None = None
    chunk_size: int = DEFAULT_CHUNK_SIZE
    max_tasks_per_worker: int | None = None
    max_in_flight: int | None = None
    backend: str = "auto"
    mp_context: str | None = None
    encoding: str = "utf-8"
    errors: str = "strict"
    task_timeout: float | None = None
    quarantine_after: int = 3
    quarantine_cooldown: float = 30.0
    on_overload: str = "block"
    max_tuples: int | None = None
    max_result_bytes: int | None = None
    on_result_limit: str = "error"
    worker_memory_limit: int | None = None
    worker_memory_hard_limit: int | None = None
    max_compile_states: int | None = None
    compile_timeout: float | None = None

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if value is None and f.default is None:
                continue  # an optional knob left off
            if f.name in _CHOICES and value not in _CHOICES[f.name]:
                raise ValueError(
                    f"{f.name} must be one of {_CHOICES[f.name]}, "
                    f"got {value!r}"
                )
            if f.name not in _LOWER_BOUNDS and f.name not in _TIMEOUTS:
                continue
            kinds = (int, float) if f.name in _SECONDS else int
            if not isinstance(value, kinds) or isinstance(value, bool):
                what = "a number" if f.name in _SECONDS else "an integer"
                raise ValueError(f"{f.name} must be {what}, got {value!r}")
            if f.name in _TIMEOUTS and value <= 0:
                raise ValueError(f"{f.name} must be > 0, got {value}")
            bound = _LOWER_BOUNDS.get(f.name)
            if bound is not None and value < bound:
                raise ValueError(f"{f.name} must be >= {bound}, got {value}")
        hard, soft = self.worker_memory_hard_limit, self.worker_memory_limit
        if hard is not None and soft is not None and hard < soft:
            raise ValueError(
                "worker_memory_hard_limit must be >= worker_memory_limit "
                f"({hard} < {soft})"
            )
        if self.mp_context is not None:
            methods = tuple(multiprocessing.get_all_start_methods())
            if self.mp_context not in methods:
                raise ValueError(
                    f"mp_context must be None or one of {methods}, "
                    f"got {self.mp_context!r}"
                )
        for name, lookup, what in (
            ("encoding", codecs.lookup, "codec"),
            ("errors", codecs.lookup_error, "codec error handler"),
        ):
            try:
                lookup(getattr(self, name))
            except (LookupError, TypeError):
                raise ValueError(
                    f"{name} must name a registered {what}, "
                    f"got {getattr(self, name)!r}"
                ) from None
