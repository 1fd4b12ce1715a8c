"""The compute-backend contract: mechanism below, policy above.

The paper's compile-once architecture (Theorem 3.3) hoists every
string-independent cost into a picklable artifact — which is exactly
what makes the serving engine portable across execution substrates: any
substrate that can hold a materialized artifact and run the serial
per-document sweep can serve the fleet's tasks.  A
:class:`ComputeBackend` owns that *mechanism*:

* spawn (and recycle) workers, each addressed by a
  :class:`WorkerHandle`;
* ship a query's artifact at most once per worker lifetime (the
  *driver* tracks what was shipped; the backend decides what a
  "shipment" physically is — pickled bytes for processes, a
  materialized engine inline);
* dispatch task messages and collect result messages (the same wire
  tuples whatever the substrate, so the driver's at-most-once
  resolution, retry and straggler-dropping logic is backend-blind);
* expose heartbeat / RSS readings per worker;
* kill-and-replace workers that hang or balloon (process workers only;
  there is nothing to kill inline).

:class:`~repro.runtime.service.SpannerService` is the *policy* layer
over this contract: registration and admission, circuit breakers,
result caps, manifests, fusion planning and the submit/extract API are
all written purely against :class:`ComputeBackend`, so a new substrate
(a multi-box driver, say) plugs in under every one of those behaviors
unchanged.
"""

from __future__ import annotations

import time
from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Callable

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .serial import SerialBackend
    from .process import ProcessBackend

__all__ = [
    "BACKEND_NAMES",
    "ComputeBackend",
    "WorkerHandle",
    "new_heartbeat",
    "stamp_heartbeat",
    "resolve_backend",
]

#: Accepted values of every ``backend=`` knob.  ``"auto"`` resolves to
#: ``"process"``: every document's sweep is a CPU-bound Python loop, so
#: separate processes are the only route to more cores.
BACKEND_NAMES = ("auto", "serial", "process")


#: Heartbeat slots: ``[seq, running task id (or -1), monotonic stamp,
#: rss bytes, member ordinal (or -1)]``.  ``seq`` counts stamps: it is
#: odd while the heartbeat's one writer is mid-stamp.
HEARTBEAT_SLOTS = 5
HEARTBEAT_MEMBER = 4

#: What a never-stamped heartbeat reads as.
HEARTBEAT_IDLE = (-1, 0.0, 0.0, -1)

#: Consistent-read attempts before :meth:`WorkerHandle.read_heartbeat`
#: falls back to the last consistent snapshot.
HEARTBEAT_READ_TRIES = 64


def new_heartbeat() -> list[float]:
    """A fresh in-process heartbeat (the inline worker)."""
    return [0.0, -1.0, 0.0, 0.0, -1.0]


def stamp_heartbeat(heartbeat, *values: float, slot: int = 1) -> None:
    """Publish ``values`` into consecutive slots from ``slot``.

    A sequence lock with exactly one writer (the worker the heartbeat
    belongs to), so the writer takes no lock at all and a worker killed
    mid-stamp can never wedge a reader: the stamp is bracketed by two
    ``seq`` increments, and readers retry (or keep their last
    consistent snapshot) while ``seq`` is odd or moved under them.
    """
    seq = heartbeat[0] + 1.0
    heartbeat[0] = seq  # odd: stamp in progress
    heartbeat[slot:slot + len(values)] = values
    heartbeat[0] = seq + 1.0  # even: consistent again


class WorkerHandle:
    """Driver-side record of one worker, whatever its substrate.

    The driver's bookkeeping fields (what was shipped, what is in
    flight, whether the worker is retiring) live here so scheduling,
    recycling and artifact-shipment policy are backend-blind; a
    concrete backend's handle subclass adds the substrate facts
    (process object, task channel, heartbeat) and implements
    :meth:`alive` and :attr:`pid`.  ``heartbeat`` is the worker's
    heartbeat array (see :func:`stamp_heartbeat`): a shared-memory
    array for process workers, :func:`new_heartbeat` otherwise.
    """

    __slots__ = (
        "worker_id", "shipped", "in_flight", "assigned", "retiring",
        "memory_flagged", "stopped", "heartbeat", "_last_heartbeat",
    )

    def __init__(self, worker_id: int, heartbeat=None):
        self.worker_id = worker_id
        self.heartbeat = new_heartbeat() if heartbeat is None else heartbeat
        self._last_heartbeat = HEARTBEAT_IDLE
        self.shipped: set[str] = set()  # query ids this worker holds
        self.in_flight: dict[int, object] = {}  # task_id -> _Task
        self.assigned = 0  # lifetime task count (drives recycling)
        self.retiring = False  # no new assignments; stop when drained
        self.memory_flagged = False  # retiring because of the watchdog
        self.stopped = False  # stop sent (or crash/kill observed)

    @property
    def pid(self) -> int | None:
        """The OS pid serving this worker (the driver's own for the
        inline worker)."""
        raise NotImplementedError

    def alive(self) -> bool:
        """Whether the worker can still produce results."""
        raise NotImplementedError

    def read_heartbeat(self) -> tuple[int, float, float, int]:
        """The (running task id, stamp, rss bytes, member ordinal)
        quadruple; task id is -1 when idle, rss is 0.0 until the
        worker's first stamp, and the member ordinal is -1 outside a
        task's per-member enumeration phases.

        Never blocks and never returns a torn quadruple: when no
        consistent read succeeds within :data:`HEARTBEAT_READ_TRIES`
        (the worker is mid-stamp, or was killed mid-stamp), the last
        consistent snapshot is returned instead.
        """
        heartbeat = self.heartbeat
        for _ in range(HEARTBEAT_READ_TRIES):
            seq = heartbeat[0]
            if not seq % 2:
                task, stamp, rss, member = heartbeat[1:HEARTBEAT_SLOTS]
                if heartbeat[0] == seq:
                    snapshot = (int(task), stamp, rss, int(member))
                    self._last_heartbeat = snapshot
                    return snapshot
            time.sleep(0)
        return self._last_heartbeat


class ComputeBackend(ABC):
    """The mechanism seam under :class:`SpannerService`.

    Class attributes describe the substrate to the policy layer:

    * ``name`` — the concrete backend name (``health()`` and the
      restart manifest record it);
    * ``worker_model`` — what a worker physically is (``"process"`` or
      ``"inline"``), reported by ``health()``;
    * ``inline`` — dispatch executes the task synchronously inside
      :meth:`dispatch` (the serial backend), so the driver should
      drain results immediately after dispatching instead of waiting a
      collector tick.  An inline worker is the caller: it cannot be
      killed and shares the driver's memory, so the deadline and
      memory watchdogs are off exactly when ``inline`` is true.
    """

    name: str
    worker_model: str
    inline: bool = False

    def start(self) -> None:
        """One-time setup before the first :meth:`spawn_worker`."""

    @abstractmethod
    def spawn_worker(self) -> WorkerHandle:
        """Start one worker and return its handle."""

    @abstractmethod
    def prepare_payload(self, query_id: str, payload: bytes) -> object:
        """The shipped form of a registered artifact's pickled bytes.

        Called once per (worker, query) lifetime, with the registry's
        canonical pickled artifact.  Process workers receive the bytes
        verbatim (unpickled worker-side); the inline worker receives
        one materialized engine per query — built once per backend,
        never pickled again.
        """

    @abstractmethod
    def dispatch(self, worker: WorkerHandle, msg: tuple) -> None:
        """Hand one wire task message to ``worker``."""

    @abstractmethod
    def poll(self, timeout: float) -> list[tuple]:
        """Result messages that arrived within ``timeout`` seconds.

        Returns every complete message available (possibly none),
        including stragglers from killed or retired workers — the
        driver's at-most-once resolution drops those.
        """

    @abstractmethod
    def stop_worker(self, worker: WorkerHandle, *, graceful: bool) -> None:
        """Retire ``worker``: no further dispatches will arrive.

        ``graceful`` asks the worker to finish its queue and exit
        (recycling, draining close); otherwise the backend may abandon
        it for :meth:`close` to terminate.  Idempotent; always marks
        the handle stopped.
        """

    @abstractmethod
    def kill_worker(self, worker: WorkerHandle) -> None:
        """Forcibly end ``worker`` *now* (deadline/memory watchdogs).

        Never called on an ``inline`` backend.  After this call
        ``worker.alive()`` is false and any result it was producing is
        at most a straggler.
        """

    @abstractmethod
    def release_worker(self, worker: WorkerHandle) -> None:
        """Detach a worker that died on its own (crash reap).

        Results it flushed before dying must still surface from
        :meth:`poll` until its channel reports end-of-stream.
        """

    def reap(self) -> None:
        """Prune bookkeeping for workers that have fully exited."""

    @abstractmethod
    def close(self, *, drain: bool, budget: Callable[[float], float]) -> None:
        """Tear the substrate down; no calls follow.

        ``budget(default)`` maps a default wait to the remaining close
        budget in seconds — the backend bounds its joins with it.
        ``drain`` mirrors the service-level close mode: a draining
        close waits for workers to exit on their own before escalating.
        """


def resolve_backend(
    backend: str,
    *,
    workers: int,
    mp_context: str | None = None,
    encoding: str = "utf-8",
    errors: str = "strict",
    fault_plan=None,
) -> "SerialBackend | ProcessBackend":
    """Construct the backend ``backend`` names (``"auto"`` is process).

    The import is deferred per concrete backend so the serial path
    never imports :mod:`multiprocessing` machinery it will not use.
    """
    if backend not in BACKEND_NAMES:
        raise ValueError(
            f"backend must be one of {BACKEND_NAMES}, got {backend!r}"
        )
    if backend == "serial":
        from .serial import SerialBackend

        return SerialBackend(
            encoding=encoding, errors=errors, fault_plan=fault_plan
        )
    from .process import ProcessBackend

    return ProcessBackend(
        workers=workers,
        mp_context=mp_context,
        encoding=encoding,
        errors=errors,
        fault_plan=fault_plan,
    )
