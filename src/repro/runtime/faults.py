"""Deterministic fault injection for the serving fleet.

The chaos suite in ``tests/test_faults.py`` needs to reproduce the
failure modes the fleet defends against — hangs, crashes, slow decodes,
transient worker-side failures — at *exactly* chosen points, every run.
Randomised chaos finds bugs once; deterministic chaos keeps them fixed.

A :class:`FaultPlan` is a picklable map from **global task index** to a
:class:`FaultSpec`.  Task indices are assigned by the driver in
submission order (``SpannerService`` numbers tasks with a process-wide
counter), so a plan like "crash on task 3, hang on task 7" means the
same thing regardless of which worker the tasks land on.  The plan is
shipped to every worker at spawn time and consulted once per attempt,
*before* the task body runs:

``crash``
    the worker calls ``os._exit`` — simulates a segfault / OOM kill.
``hang``
    the worker sleeps far past any reasonable deadline — simulates an
    intractable document (Theorems 4.5/4.9 say these exist for any
    budget) or a stuck syscall.  The heartbeat keeps the *old* stamp,
    so the collector sees the task age past its deadline.
``slow``
    the worker sleeps briefly, then completes normally — simulates a
    slow decode; results must still be byte-identical.
``transient``
    the worker raises :class:`~repro.errors.TransientTaskError` —
    simulates a failure that is nobody's fault and goes away on retry;
    the driver must re-dispatch with backoff.

PR 7 adds the *resource* faults the governance layer defends against:

``rss_bloat``
    the worker leaks ``amount`` bytes on purpose (kept alive in a
    module global), so its RSS crosses the memory watchdog's limit —
    the task itself still completes correctly; the driver must
    drain-and-recycle the worker at the next task boundary.
``tuple_flood``
    every member's per-document result stream in the task is
    padded to ``amount`` tuples — simulates the combinatorially large
    outputs Theorem 5.4 allows, deterministically, whatever the
    document; the result caps must fail (or truncate) exactly this
    task.
``slow_compile``
    *driver-side*: every ``register()`` compilation sleeps first, so a
    ``compile_timeout`` fires deterministically.

PR 8 adds the *durability* faults the persistence layer defends
against:

``store_torn_write``
    *driver-side*: chosen artifact-store put sequence numbers leave
    their entry half-written on disk
    (:meth:`~repro.runtime.store.ArtifactStore.inject_torn_write`) —
    the state a crash mid-write would leave without the store's atomic
    rename, and what a reader must detect as truncation.
``store_corrupt``
    *driver-side*: chosen puts land with a flipped payload byte
    (:meth:`~repro.runtime.store.ArtifactStore.inject_corrupt`), so the
    checksum path — quarantine to ``*.corrupt``, recompile, never fail
    the query — is exercised deterministically.
``driver_kill``
    *driver-side*: the **driver itself** takes ``SIGKILL`` after a
    chosen number of completed tasks — mid-stream, with tasks in
    flight and futures unresolved.  This is the fault
    ``SpannerService.restore()`` exists for; it necessarily runs in a
    sacrificial subprocess.

Each spec may be limited to specific *attempts* (1-based), so a plan
can express "fail transiently on the first two attempts, succeed on
the third" and the retry/backoff path is exercised end to end.

Plans are inert by default: a worker with no plan (the production
configuration) pays a single ``None`` check per task.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field

from ..errors import TransientTaskError

__all__ = ["FAULT_KINDS", "FaultSpec", "FaultPlan"]


class _InjectedWorkerDeath(BaseException):
    """An injected crash on a substrate that shares the driver's process.

    ``os._exit`` would take the whole service down when the "worker" is
    the inline caller, so crash faults on the serial backend
    raise this instead (``trigger(inline=True)``).  Deliberately a
    ``BaseException``: it must sail through the worker core's per-task
    ``except Exception`` reporting exactly like a SIGKILL gives a
    process worker no chance to report — the backend's dispatch loop
    catches it, marks the worker dead, and produces no result.
    """

#: Recognised fault kinds, in the order the docstring introduces them.
#: ``slow_compile`` and the store/driver faults are consulted
#: driver-side (plan fields, not task specs); these execute in the worker.
FAULT_KINDS = (
    "crash", "hang", "slow", "transient", "rss_bloat", "tuple_flood",
)

#: How long a "hang" sleeps.  Long enough that any test deadline fires
#: first; short enough that a kill-path bug fails the suite instead of
#: wedging CI forever.
HANG_SECONDS = 600.0

#: Exit code used by injected crashes, distinguishable from a Python
#: traceback (1) and a signal death (negative) in worker post-mortems.
CRASH_EXIT_CODE = 86

#: Default leak size for ``rss_bloat`` — big enough to cross any
#: realistic test watchdog limit in one hop.
BLOAT_BYTES = 256 * 1024 * 1024

#: Default padded result size for ``tuple_flood``.  Finite on purpose:
#: a flood against an *uncapped* fleet must still terminate (slowly)
#: instead of hanging the suite.
FLOOD_TUPLES = 100_000

#: Keeps injected rss_bloat allocations alive for the worker's
#: remaining lifetime — the point is a *persistent* RSS high-water
#: mark the watchdog can see at the next task boundary.
_BLOAT_HOLD: list = []


@dataclass(frozen=True)
class FaultSpec:
    """One injected fault: what happens, for how long, on which attempts.

    Attributes:
        kind: one of :data:`FAULT_KINDS`.
        seconds: sleep duration for ``hang``/``slow`` (defaults: a
            very long time for ``hang``, 0.05s for ``slow``).
        attempts: 1-based attempt numbers the fault applies to, or
            ``None`` for every attempt.  ``attempts=(1,)`` means "fail
            once, then succeed" — the canonical transient fault.
        amount: size parameter for the resource faults — leaked bytes
            for ``rss_bloat``, padded tuples per document for
            ``tuple_flood``.
        member: the member query id whose per-member phase triggers
            the fault (via :meth:`FaultPlan.apply_member`
            rather than :meth:`FaultPlan.apply`) — this is how the
            chaos suite proves a fused-task failure indicts exactly the
            offending member's circuit breaker.  ``None`` (the default)
            fires at task start, whatever the task's shape.
    """

    kind: str
    seconds: float | None = None
    attempts: tuple[int, ...] | None = None
    amount: int | None = None
    member: str | None = None

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; expected one of {FAULT_KINDS}"
            )

    def applies_to(self, attempt: int) -> bool:
        return self.attempts is None or attempt in self.attempts

    def trigger(self, inline: bool = False) -> None:
        """Execute the fault in the worker.  May not return.

        ``inline`` marks the substrate sharing the driver's process
        (the serial backend): a crash there raises
        :class:`_InjectedWorkerDeath` for the backend to treat as
        sudden worker death, instead of ``os._exit``-ing the service.
        """
        if self.kind == "crash":
            if inline:
                raise _InjectedWorkerDeath(
                    f"injected crash (inline worker, attempt spec {self.attempts})"
                )
            # A real segfault gives the interpreter no chance to flush,
            # run atexit hooks, or release handles; _exit matches.
            os._exit(CRASH_EXIT_CODE)
        elif self.kind == "hang":
            time.sleep(HANG_SECONDS if self.seconds is None else self.seconds)
        elif self.kind == "slow":
            time.sleep(0.05 if self.seconds is None else self.seconds)
        elif self.kind == "transient":
            raise TransientTaskError("injected fault: transient failure")
        elif self.kind == "rss_bloat":
            # Leak on purpose: the watchdog watches RSS at task
            # boundaries, so the allocation must outlive the task.
            _BLOAT_HOLD.append(bytearray(
                BLOAT_BYTES if self.amount is None else self.amount
            ))
        # tuple_flood does nothing here — the worker consults
        # FaultPlan.flood_amount and pads each member stream instead,
        # because the flood must happen *during* enumeration.


@dataclass
class FaultPlan:
    """A deterministic schedule of faults, keyed by global task index.

    Build one with the fluent helpers and pass it to
    ``SpannerService(fault_plan=...)``::

        plan = (FaultPlan()
                .crash(task=3)
                .hang(task=7)
                .transient_fault(task=9, attempts=(1, 2)))

    The plan is pickled into each worker at spawn; mutating it after
    the service starts has no effect on already-running workers.

    The driver-side faults live on the plan itself rather than in
    ``specs``: ``compile_delay`` makes every ``register()``
    compilation sleep first (consulted by the admission-control path),
    ``store_torn_puts``/``store_corrupt_puts`` name artifact-store put
    sequence numbers left torn / bit-flipped (wired into the service's
    ``artifact_store``), and ``kill_after_tasks`` SIGKILLs the driver
    itself once that many tasks have completed (consulted by the
    collector — run it in a sacrificial subprocess).
    """

    specs: dict[int, FaultSpec] = field(default_factory=dict)
    compile_delay: float | None = None
    store_torn_puts: frozenset = frozenset()
    store_corrupt_puts: frozenset = frozenset()
    kill_after_tasks: int | None = None

    # -- builders ------------------------------------------------------

    def add(self, task: int, spec: FaultSpec) -> "FaultPlan":
        if task < 0:
            raise ValueError(f"task index must be >= 0, got {task}")
        self.specs[task] = spec
        return self

    def crash(
        self,
        task: int,
        attempts: tuple[int, ...] | None = None,
        member: str | None = None,
    ) -> "FaultPlan":
        return self.add(
            task, FaultSpec("crash", attempts=attempts, member=member)
        )

    def hang(
        self,
        task: int,
        seconds: float | None = None,
        attempts: tuple[int, ...] | None = None,
        member: str | None = None,
    ) -> "FaultPlan":
        return self.add(
            task,
            FaultSpec("hang", seconds=seconds, attempts=attempts, member=member),
        )

    def slow(
        self,
        task: int,
        seconds: float | None = None,
        attempts: tuple[int, ...] | None = None,
    ) -> "FaultPlan":
        return self.add(task, FaultSpec("slow", seconds=seconds, attempts=attempts))

    def transient_fault(
        self, task: int, attempts: tuple[int, ...] | None = None
    ) -> "FaultPlan":
        return self.add(task, FaultSpec("transient", attempts=attempts))

    def rss_bloat(
        self,
        task: int,
        amount: int | None = None,
        attempts: tuple[int, ...] | None = None,
    ) -> "FaultPlan":
        return self.add(
            task, FaultSpec("rss_bloat", attempts=attempts, amount=amount)
        )

    def tuple_flood(
        self,
        task: int,
        amount: int | None = None,
        attempts: tuple[int, ...] | None = None,
    ) -> "FaultPlan":
        return self.add(
            task, FaultSpec("tuple_flood", attempts=attempts, amount=amount)
        )

    def slow_compile(self, seconds: float) -> "FaultPlan":
        """Make every ``register()`` compilation sleep first."""
        if seconds <= 0:
            raise ValueError(f"seconds must be > 0, got {seconds}")
        self.compile_delay = seconds
        return self

    def store_torn_write(self, *puts: int) -> "FaultPlan":
        """Leave these artifact-store puts (0-based, in put order)
        half-written — a torn entry the next read must quarantine."""
        if any(p < 0 for p in puts):
            raise ValueError(f"put indices must be >= 0, got {puts}")
        self.store_torn_puts = self.store_torn_puts | frozenset(puts)
        return self

    def store_corrupt(self, *puts: int) -> "FaultPlan":
        """Flip a payload byte of these artifact-store puts — a
        checksum mismatch the next read must quarantine."""
        if any(p < 0 for p in puts):
            raise ValueError(f"put indices must be >= 0, got {puts}")
        self.store_corrupt_puts = self.store_corrupt_puts | frozenset(puts)
        return self

    def driver_kill(self, after_tasks: int) -> "FaultPlan":
        """SIGKILL the driver once ``after_tasks`` tasks have completed.

        The kill is unceremonious by design — no close(), no atexit, no
        finalizers — so only what was made durable *before* it (the
        manifest, the artifact store) survives for ``restore()``.
        """
        if after_tasks < 1:
            raise ValueError(f"after_tasks must be >= 1, got {after_tasks}")
        self.kill_after_tasks = after_tasks
        return self

    # -- worker side ---------------------------------------------------

    def flood_amount(self, task_id: int, attempt: int) -> int | None:
        """Padded per-document tuple count, when a flood is planned here.

        Returns ``None`` (no flood) for every task without an applicable
        ``tuple_flood`` spec — the worker pads its member streams with
        :func:`flood_stream` only on a non-``None`` return.
        """
        spec = self.specs.get(task_id)
        if (
            spec is not None
            and spec.kind == "tuple_flood"
            and spec.applies_to(attempt)
        ):
            return FLOOD_TUPLES if spec.amount is None else spec.amount
        return None

    def apply(
        self, task_id: int, attempt: int, inline: bool = False
    ) -> None:
        """Trigger the fault for (task_id, attempt), if any is planned.

        Called by the worker loop just after stamping the heartbeat and
        before touching the payload, so injected faults model failures
        *during* task execution.  May crash the process, sleep, or
        raise :class:`~repro.errors.TransientTaskError`.

        Member-scoped specs (``member=...``) are skipped here — they
        fire from :meth:`apply_member` inside the named member's phase
        of the task.
        """
        spec = self.specs.get(task_id)
        if spec is not None and spec.member is None and spec.applies_to(attempt):
            spec.trigger(inline=inline)

    def apply_member(
        self,
        task_id: int,
        attempt: int,
        query_id: str,
        inline: bool = False,
    ) -> None:
        """Trigger a member-scoped fault inside a task's member phase.

        Called by the worker's member loop just after stamping the member
        ordinal into the heartbeat and before evaluating that member,
        so the injected failure lands where a real per-member failure
        would — attributable to exactly one query.
        """
        spec = self.specs.get(task_id)
        if (
            spec is not None
            and spec.member == query_id
            and spec.applies_to(attempt)
        ):
            spec.trigger(inline=inline)

    def __bool__(self) -> bool:
        return (
            bool(self.specs)
            or self.compile_delay is not None
            or bool(self.store_torn_puts)
            or bool(self.store_corrupt_puts)
            or self.kill_after_tasks is not None
        )


def flood_stream(stream, amount: int):
    """``stream`` padded to ``amount`` tuples (the ``tuple_flood`` fault).

    The genuine tuples come out first (so parity checks on the
    surviving prefix stay meaningful), then the last tuple repeats
    until ``amount`` tuples have been yielded — combinatorial output
    volume without a combinatorial document.  An empty stream stays
    empty: there is nothing to repeat, and an all-empty flood would
    silently test nothing, so flood tests use matching documents.
    ``count`` tasks are never flooded — the flood targets enumeration,
    where the result caps do their incremental accounting.
    """
    produced = 0
    last = None
    for mu in stream:
        if produced >= amount:
            return
        last = mu
        produced += 1
        yield mu
    if last is None:
        return
    while produced < amount:
        yield last
        produced += 1
