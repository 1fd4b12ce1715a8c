"""Chaos suite: the fleet under deterministic fault injection.

Every test drives a :class:`SpannerService` with a
:class:`~repro.runtime.faults.FaultPlan` that injects hangs, crashes,
slow decodes or transient failures at chosen task indices,
and asserts the fault-tolerance contract:

* results that survive a fault are **byte-identical** to the serial
  engine — no tuple lost, none duplicated, order intact;
* a hung worker is detected and replaced within 2x the configured
  deadline, and exactly the hung task's future fails with
  :class:`TaskTimeoutError`;
* a query that keeps failing is quarantined
  (:class:`QueryQuarantinedError` fail-fast without consuming a
  worker), recovers through a half-open probe after the cool-down, and
  :meth:`reinstate` restores it immediately;
* overload policies shed predictably (``reject`` / ``shed_oldest``);
* the resource-governance layer degrades gracefully: a flooded result
  fails (or truncates) exactly its own task without charging the
  breaker, a bloated worker is recycled with no tuple loss, and an
  oversized or wedged compilation is rejected at ``register()``
  without consuming a worker.

Each service numbers its tasks from 0 in submission order, so a plan
keyed on small integers targets the first chunks a test submits.
"""

from __future__ import annotations

import asyncio
import time

import pytest

from repro.errors import (
    OverloadedError,
    QueryQuarantinedError,
    QueryRejectedError,
    ResultLimitError,
    TaskTimeoutError,
    TransientTaskError,
)
from repro.runtime import (
    CompiledSpanner,
    FaultPlan,
    SpannerService,
    estimate_compile_states,
)
from repro.runtime.faults import FaultSpec

from test_service import (
    BACKENDS,
    DOCS,
    WORD_FORMULA,
    canonical,
)

#: Backends whose workers can be killed; the serial backend's worker is
#: the calling thread, so hang/deadline enforcement is defined out.
KILLABLE_BACKENDS = ("process",)

#: Deadline used by the hang tests: long enough that healthy tasks
#: (millisecond-scale) never brush it, short enough to keep the suite
#: fast.
DEADLINE = 0.5


@pytest.fixture(scope="module")
def word_serial():
    return list(CompiledSpanner(WORD_FORMULA).evaluate_many(DOCS))


def plan_for_all(kind: str, n: int, **kwargs) -> FaultPlan:
    plan = FaultPlan()
    for task in range(n):
        plan.add(task, FaultSpec(kind, **kwargs))
    return plan


class TestFaultPlan:
    def test_spec_validation(self):
        with pytest.raises(ValueError):
            FaultSpec("meteor-strike")
        with pytest.raises(ValueError):
            FaultPlan().crash(task=-1)

    def test_attempt_scoping(self):
        spec = FaultSpec("slow", attempts=(1, 3))
        assert spec.applies_to(1)
        assert not spec.applies_to(2)
        assert spec.applies_to(3)
        assert FaultSpec("slow").applies_to(7)  # None = every attempt

    def test_plan_is_inert_when_empty(self):
        assert not FaultPlan()
        assert FaultPlan().crash(task=0)

    def test_transient_fault_raises_transient(self):
        with pytest.raises(TransientTaskError):
            FaultSpec("transient").trigger()

    def test_resource_builders_validate(self):
        with pytest.raises(ValueError):
            FaultPlan().slow_compile(0)
        # The driver-side faults make an otherwise-empty plan live.
        assert FaultPlan().slow_compile(0.1)

    def test_durability_builders_validate(self):
        with pytest.raises(ValueError):
            FaultPlan().store_torn_write(-1)
        with pytest.raises(ValueError):
            FaultPlan().store_corrupt(1, -2)
        with pytest.raises(ValueError):
            FaultPlan().driver_kill(after_tasks=0)
        # Each durability fault makes an otherwise-empty plan live.
        assert FaultPlan().store_torn_write(0)
        assert FaultPlan().store_corrupt(2)
        assert FaultPlan().driver_kill(after_tasks=1)
        plan = FaultPlan().store_torn_write(0).store_torn_write(3)
        assert plan.store_torn_puts == {0, 3}
        assert FaultPlan().driver_kill(after_tasks=5).kill_after_tasks == 5

    def test_flood_amount_scoping(self):
        from repro.runtime.faults import FLOOD_TUPLES

        plan = FaultPlan().tuple_flood(task=3, amount=17, attempts=(2,))
        assert plan.flood_amount(3, 2) == 17
        assert plan.flood_amount(3, 1) is None  # wrong attempt
        assert plan.flood_amount(4, 2) is None  # wrong task
        assert FaultPlan().tuple_flood(task=0).flood_amount(0, 1) == FLOOD_TUPLES
        # A non-flood spec on the task is not a flood.
        assert FaultPlan().crash(task=0).flood_amount(0, 1) is None


class TestCrashInjection:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_crash_then_retry_byte_identical(self, word_serial, backend):
        """Task 0 crashes its worker on the first attempt and succeeds
        on re-dispatch: the batch result must not notice — on every
        backend (process workers die by SIGKILL, the inline worker by
        an injected non-Exception escape)."""
        plan = FaultPlan().crash(task=0, attempts=(1,))
        with SpannerService(
            workers=2, chunk_size=2, fault_plan=plan, backend=backend
        ) as svc:
            qid = svc.register(CompiledSpanner(WORD_FORMULA))
            out = svc.submit(DOCS, queries=qid).result(timeout=120)
            assert canonical(out) == canonical(word_serial)
            assert svc.workers_crashed >= 1
            assert svc.tasks_retried >= 1

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_poison_task_gives_up_others_survive(self, word_serial, backend):
        """A task that crashes every worker it lands on fails alone
        after MAX_TASK_ATTEMPTS; every other chunk still resolves
        byte-identically."""
        plan = FaultPlan().crash(task=0)  # every attempt
        with SpannerService(
            workers=2, chunk_size=2, fault_plan=plan, backend=backend
        ) as svc:
            qid = svc.register(CompiledSpanner(WORD_FORMULA))
            futures = [
                svc.submit_chunk(qid, DOCS[i : i + 2])
                for i in range(0, len(DOCS), 2)
            ]
            with pytest.raises(RuntimeError, match="giving up"):
                futures[0].result(timeout=120)
            rest = []
            for future in futures[1:]:
                rest.extend(future.result(timeout=120))
            assert canonical(rest) == canonical(word_serial[2:])

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_crash_storm_converges(self, word_serial, backend):
        """Several first-attempt crashes across the batch: all retried,
        nothing lost or duplicated."""
        plan = FaultPlan()
        for task in (0, 3, 7):
            plan.crash(task=task, attempts=(1,))
        with SpannerService(
            workers=2, chunk_size=2, fault_plan=plan, backend=backend
        ) as svc:
            qid = svc.register(CompiledSpanner(WORD_FORMULA))
            out = svc.submit(DOCS, queries=qid).result(timeout=120)
            assert canonical(out) == canonical(word_serial)
            assert svc.workers_crashed >= 3


class TestHangsAndDeadlines:
    def test_watchdogs_are_off_on_the_inline_backend(self, word_serial):
        """The serial worker is the caller: it can be neither killed
        nor measured apart from the driver.  A task that overruns its
        deadline, on a fleet whose memory limits every RSS reading
        exceeds, still completes, and neither watchdog acts."""
        plan = FaultPlan().hang(task=0, seconds=4 * DEADLINE)
        with SpannerService(
            workers=1, chunk_size=2, fault_plan=plan, task_timeout=DEADLINE,
            worker_memory_limit=1, worker_memory_hard_limit=1,
            backend="serial",
        ) as svc:
            qid = svc.register(CompiledSpanner(WORD_FORMULA))
            out = svc.submit(DOCS, queries=qid).result(timeout=60)
            assert canonical(out) == canonical(word_serial)
            health = svc.health()
            assert health["counters"]["tasks_timed_out"] == 0
            assert health["counters"]["workers_killed_on_timeout"] == 0
            assert health["counters"]["workers_killed_on_memory"] == 0
            assert health["resources"]["memory_recycles"] == 0

    @pytest.mark.parametrize("backend", KILLABLE_BACKENDS)
    def test_hung_worker_detected_within_2x_deadline(
        self, word_serial, backend
    ):
        """Acceptance: the hang is detected, the worker killed and
        replaced, and the task's future failed with TaskTimeoutError —
        all within 2x the configured deadline."""
        plan = FaultPlan().hang(task=0)
        with SpannerService(
            workers=2, chunk_size=2, fault_plan=plan, task_timeout=DEADLINE,
            backend=backend,
        ) as svc:
            qid = svc.register(CompiledSpanner(WORD_FORMULA))
            fut = svc.submit_chunk(qid, DOCS[:2])
            start = time.monotonic()
            with pytest.raises(TaskTimeoutError):
                fut.result(timeout=10 * DEADLINE)
            assert time.monotonic() - start <= 2 * DEADLINE
            assert svc.tasks_timed_out == 1
            # The fleet healed: a full batch still matches serial.
            out = svc.submit(DOCS, queries=qid).result(timeout=120)
            assert canonical(out) == canonical(word_serial)
            health = svc.health()
            assert health["counters"]["workers_killed_on_timeout"] == 1
            assert len(health["workers"]) == 2  # replacement in place

    def test_only_the_hung_task_fails(self, word_serial):
        """A hang on one chunk must not take down its batch siblings:
        futures are per-chunk, and only the hung chunk's future sees
        TaskTimeoutError."""
        plan = FaultPlan().hang(task=0)
        with SpannerService(
            workers=2, chunk_size=2, fault_plan=plan, task_timeout=DEADLINE
        ) as svc:
            qid = svc.register(CompiledSpanner(WORD_FORMULA))
            futures = [
                svc.submit_chunk(qid, DOCS[i : i + 2])
                for i in range(0, len(DOCS), 2)
            ]
            with pytest.raises(TaskTimeoutError):
                futures[0].result(timeout=120)
            rest = []
            for future in futures[1:]:
                rest.extend(future.result(timeout=120))
            assert canonical(rest) == canonical(word_serial[2:])

    def test_per_call_timeout_overrides_service_default(self):
        """timeout= on the call wins over the service default; an
        explicit None disables the deadline entirely (a slow task is
        given the time it needs)."""
        plan = FaultPlan().slow(task=0, seconds=3 * DEADLINE)
        with SpannerService(
            workers=1, chunk_size=2, fault_plan=plan, task_timeout=DEADLINE
        ) as svc:
            qid = svc.register(CompiledSpanner(WORD_FORMULA))
            # Disabled per call: the slow chunk completes exactly.
            out = svc.submit_chunk(qid, DOCS[:2], timeout=None).result(
                timeout=120
            )
            assert canonical(out) == canonical(
                list(CompiledSpanner(WORD_FORMULA).evaluate_many(DOCS[:2]))
            )
            assert svc.tasks_timed_out == 0

    def test_per_query_timeout_override(self):
        """register(timeout=...) scopes the deadline to one query."""
        plan = FaultPlan().hang(task=0)
        with SpannerService(workers=2, chunk_size=2, fault_plan=plan) as svc:
            # No service default; the deadline comes from the query.
            qid = svc.register(
                CompiledSpanner(WORD_FORMULA), timeout=DEADLINE
            )
            with pytest.raises(TaskTimeoutError):
                svc.submit_chunk(qid, DOCS[:2]).result(timeout=10 * DEADLINE)

    def test_async_extract_rejects_cleanly_on_timeout(self):
        """The awaited future rejects with TaskTimeoutError — the event
        loop neither hangs nor swallows the failure."""
        plan = FaultPlan().hang(task=0)

        async def run():
            with SpannerService(
                workers=2, chunk_size=4, fault_plan=plan,
                task_timeout=DEADLINE,
            ) as svc:
                qid = svc.register(CompiledSpanner(WORD_FORMULA))
                with pytest.raises(TaskTimeoutError):
                    await svc.extract(qid, DOCS[:4])
                # The loop (and the fleet) survive for the next call.
                return await svc.extract(qid, DOCS[4:8])

        out = asyncio.run(run())
        serial = list(CompiledSpanner(WORD_FORMULA).evaluate_many(DOCS[4:8]))
        assert canonical(out) == canonical(serial)


class TestSlowAndTransient:
    def test_slow_decode_is_not_a_fault(self, word_serial):
        """A slow task under its deadline completes byte-identically —
        deadlines punish hangs, not honest work."""
        plan = FaultPlan().slow(task=0, seconds=0.1).slow(task=1, seconds=0.1)
        with SpannerService(
            workers=2, chunk_size=2, fault_plan=plan, task_timeout=5.0
        ) as svc:
            qid = svc.register(CompiledSpanner(WORD_FORMULA))
            out = svc.submit(DOCS, queries=qid).result(timeout=120)
            assert canonical(out) == canonical(word_serial)
            assert svc.tasks_timed_out == 0

    def test_transient_fault_retries_with_backoff(self, word_serial):
        """A transient failure on the first two attempts re-dispatches
        (with backoff) and succeeds on the third."""
        plan = FaultPlan().transient_fault(task=0, attempts=(1, 2))
        with SpannerService(workers=2, chunk_size=2, fault_plan=plan) as svc:
            qid = svc.register(CompiledSpanner(WORD_FORMULA))
            out = svc.submit(DOCS, queries=qid).result(timeout=120)
            assert canonical(out) == canonical(word_serial)
            assert svc.tasks_retried == 2
            assert svc.workers_crashed == 0  # no process was lost

    def test_transient_exhaustion_surfaces_the_error(self):
        """A transient fault on every attempt gives up after the
        attempt budget and surfaces TransientTaskError to the caller."""
        plan = FaultPlan().transient_fault(task=0)
        with SpannerService(workers=1, chunk_size=2, fault_plan=plan) as svc:
            qid = svc.register(CompiledSpanner(WORD_FORMULA))
            with pytest.raises(TransientTaskError):
                svc.submit_chunk(qid, DOCS[:2]).result(timeout=120)


class TestQuarantine:
    def _hang_everything(self, tasks: int = 16) -> FaultPlan:
        return plan_for_all("hang", tasks)

    def test_three_timeouts_quarantine_then_reinstate(self):
        """Acceptance: 3 consecutive deadline failures quarantine the
        query; subsequent submissions fail fast without consuming a
        worker; reinstate() restores service."""
        plan = self._hang_everything()
        with SpannerService(
            workers=1, chunk_size=2, fault_plan=plan,
            task_timeout=DEADLINE, quarantine_after=3,
            quarantine_cooldown=60.0,
        ) as svc:
            qid = svc.register(CompiledSpanner(WORD_FORMULA))
            for _ in range(3):
                with pytest.raises(TaskTimeoutError):
                    svc.submit_chunk(qid, DOCS[:2]).result(timeout=120)
            assert svc.quarantined_queries == (qid,)

            kills_before = svc.health()["counters"]["workers_killed_on_timeout"]
            start = time.monotonic()
            with pytest.raises(QueryQuarantinedError) as info:
                svc.submit_chunk(qid, DOCS[:2])
            # Fail-fast: synchronous, and no worker was burned on it.
            assert time.monotonic() - start < DEADLINE
            assert info.value.query_id == qid
            assert info.value.failures == 3
            assert info.value.retry_after > 0
            assert (
                svc.health()["counters"]["workers_killed_on_timeout"]
                == kills_before
            )

            assert svc.reinstate(qid) is True
            assert svc.quarantined_queries == ()
            # Admitted again (the corpus is still poisonous, so it
            # times out — but it *ran*, consuming a worker).
            with pytest.raises(TaskTimeoutError):
                svc.submit_chunk(qid, DOCS[:2]).result(timeout=120)
            assert svc.reinstate("never-registered") is False

    def test_half_open_probe_recovers_after_cooldown(self, word_serial):
        """After the cool-down one probe is admitted; its success
        closes the breaker and full service resumes."""
        plan = FaultPlan()
        for task in range(3):  # only the first three tasks hang
            plan.hang(task=task)
        with SpannerService(
            workers=1, chunk_size=2, fault_plan=plan,
            task_timeout=DEADLINE, quarantine_after=3,
            quarantine_cooldown=0.5,
        ) as svc:
            qid = svc.register(CompiledSpanner(WORD_FORMULA))
            for _ in range(3):
                with pytest.raises(TaskTimeoutError):
                    svc.submit_chunk(qid, DOCS[:2]).result(timeout=120)
            assert svc.quarantined_queries == (qid,)
            with pytest.raises(QueryQuarantinedError):
                svc.submit_chunk(qid, DOCS[:2])
            time.sleep(0.6)  # past the cool-down: next submit is the probe
            probe = svc.submit_chunk(qid, DOCS[:2]).result(timeout=120)
            assert canonical(probe) == canonical(
                list(CompiledSpanner(WORD_FORMULA).evaluate_many(DOCS[:2]))
            )
            assert svc.quarantined_queries == ()
            out = svc.submit(DOCS, queries=qid).result(timeout=120)
            assert canonical(out) == canonical(word_serial)

    def test_failed_probe_rearms_the_cooldown(self):
        plan = self._hang_everything()
        with SpannerService(
            workers=1, chunk_size=2, fault_plan=plan,
            task_timeout=DEADLINE, quarantine_after=2,
            quarantine_cooldown=0.4,
        ) as svc:
            qid = svc.register(CompiledSpanner(WORD_FORMULA))
            for _ in range(2):
                with pytest.raises(TaskTimeoutError):
                    svc.submit_chunk(qid, DOCS[:2]).result(timeout=120)
            assert svc.quarantined_queries == (qid,)
            time.sleep(0.5)
            with pytest.raises(TaskTimeoutError):  # the admitted probe
                svc.submit_chunk(qid, DOCS[:2]).result(timeout=120)
            # Probe failed: quarantined again, immediately.
            with pytest.raises(QueryQuarantinedError):
                svc.submit_chunk(qid, DOCS[:2])

    def test_quarantine_is_per_query(self, word_serial):
        """One query's quarantine must not slow its neighbours."""
        plan = FaultPlan().hang(task=0)  # only "bad"'s first chunk
        with SpannerService(
            workers=2, chunk_size=2, fault_plan=plan,
            task_timeout=DEADLINE, quarantine_after=1,
            quarantine_cooldown=60.0,
        ) as svc:
            bad = svc.register(CompiledSpanner(WORD_FORMULA), query_id="bad")
            good = svc.register(
                CompiledSpanner(WORD_FORMULA), query_id="good", timeout=None
            )
            with pytest.raises(TaskTimeoutError):
                svc.submit_chunk(bad, DOCS[:2]).result(timeout=120)
            with pytest.raises(QueryQuarantinedError):
                svc.submit_chunk(bad, DOCS[:2])
            # Tasks 1+ have no faults planned: "good" serves normally.
            out = svc.submit(DOCS, queries=good).result(timeout=120)
            assert canonical(out) == canonical(word_serial)
            assert svc.quarantined_queries == ("bad",)


class TestOverloadPolicies:
    def test_reject_policy_raises_overloaded(self):
        plan = FaultPlan().slow(task=0, seconds=1.0)
        with SpannerService(
            workers=1, chunk_size=1, max_in_flight=1,
            on_overload="reject", fault_plan=plan,
        ) as svc:
            qid = svc.register(CompiledSpanner(WORD_FORMULA))
            first = svc.submit_chunk(qid, DOCS[:1])
            with pytest.raises(OverloadedError):
                svc.submit_chunk(qid, DOCS[1:2])
            # The in-flight task is unharmed and the slot recycles.
            first.result(timeout=120)
            retried = svc.submit_chunk(qid, DOCS[1:2]).result(timeout=120)
            serial = list(CompiledSpanner(WORD_FORMULA).evaluate_many(DOCS[1:2]))
            assert canonical(retried) == canonical(serial)

    def test_shed_oldest_fails_backlogged_task(self):
        """With the pipeline full, a new submission sheds the oldest
        *backlogged* chunk (never one already on a worker): the shed
        future fails with OverloadedError, the newcomer takes its slot,
        and every dispatched chunk completes untouched."""
        plan = FaultPlan().slow(task=0, seconds=2.0)
        with SpannerService(
            workers=1, chunk_size=1, max_in_flight=3,
            on_overload="shed_oldest", fault_plan=plan,
        ) as svc:
            qid = svc.register(CompiledSpanner(WORD_FORMULA))
            # One worker, prefetch 2: task 0 runs (slowly), task 1
            # prefetches onto the worker, task 2 stays backlogged.
            running = svc.submit_chunk(qid, DOCS[:1])
            queued = svc.submit_chunk(qid, DOCS[1:2])
            backlogged = svc.submit_chunk(qid, DOCS[2:3])
            time.sleep(0.3)  # let the collector settle the dispatch
            # Slots are full: the newcomer displaces the backlogged one.
            newcomer = svc.submit_chunk(qid, DOCS[3:4])
            with pytest.raises(OverloadedError):
                backlogged.result(timeout=120)
            assert svc.tasks_shed == 1
            serial = CompiledSpanner(WORD_FORMULA)
            for future, docs in (
                (running, DOCS[:1]),
                (queued, DOCS[1:2]),
                (newcomer, DOCS[3:4]),
            ):
                out = future.result(timeout=120)
                assert canonical(out) == canonical(
                    list(serial.evaluate_many(docs))
                )

    def test_block_policy_still_backpressures(self, word_serial):
        with SpannerService(
            workers=2, chunk_size=2, max_in_flight=2, on_overload="block"
        ) as svc:
            qid = svc.register(CompiledSpanner(WORD_FORMULA))
            assert svc.submit(DOCS, queries=qid).result(timeout=120) == word_serial
            assert svc.tasks_shed == 0


class TestCombinedFaults:
    def test_combined_fault_plan_byte_identical(self, word_serial):
        """Crash + hang + slow + transient in one run: the crashed chunk
        is re-dispatched, exactly the hung chunk times out, and every
        surviving chunk is byte-identical."""
        plan = (
            FaultPlan()
            .crash(task=1, attempts=(1,))
            .hang(task=2)
            .slow(task=3, seconds=0.1)
            .transient_fault(task=4, attempts=(1,))
        )
        service = SpannerService(
            workers=2, chunk_size=2, fault_plan=plan, task_timeout=DEADLINE
        )
        try:
            service.start()
            qid = service.register(CompiledSpanner(WORD_FORMULA))
            futures = [
                service.submit_chunk(qid, DOCS[i : i + 2])
                for i in range(0, len(DOCS), 2)
            ]
            survived: list = []
            timed_out = 0
            for i, future in enumerate(futures):
                try:
                    survived.append((i, future.result(timeout=120)))
                except TaskTimeoutError:
                    timed_out += 1
            assert timed_out == 1  # exactly the hung chunk
            for i, out in survived:
                expected = word_serial[2 * i : 2 * i + 2]
                assert canonical(out) == canonical(expected)
            assert service.workers_crashed >= 1
            assert service.tasks_retried >= 1
        finally:
            service.close()


def _poll(predicate, timeout: float = 30.0, interval: float = 0.05) -> bool:
    """Wait for an eventually-true fleet condition (watchdog actions
    land on collector iterations, not synchronously with results)."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


class TestResultCaps:
    """Per-query/per-call result-size caps against injected floods."""

    def test_flood_fails_exactly_the_flooded_task(self, word_serial):
        """Acceptance: a tuple flood on task 0 fails that task alone
        with ResultLimitError; every sibling chunk is byte-identical."""
        plan = FaultPlan().tuple_flood(task=0, amount=500)
        with SpannerService(
            workers=2, chunk_size=2, max_tuples=100, fault_plan=plan
        ) as svc:
            qid = svc.register(CompiledSpanner(WORD_FORMULA))
            futures = [
                svc.submit_chunk(qid, DOCS[i : i + 2])
                for i in range(0, len(DOCS), 2)
            ]
            with pytest.raises(ResultLimitError) as info:
                futures[0].result(timeout=120)
            assert info.value.kind == "tuples"
            assert info.value.limit == 100
            rest = []
            for future in futures[1:]:
                rest.extend(future.result(timeout=120))
            assert canonical(rest) == canonical(word_serial[2:])
            assert svc.tasks_result_limited == 1
            assert svc.docs_truncated == 0

    def test_result_limit_never_charges_the_breaker(self):
        """A capped result indicts the input, not the fleet: even with
        quarantine_after=1 the query stays admitted and the very next
        submission serves normally."""
        plan = FaultPlan().tuple_flood(task=0, amount=500)
        with SpannerService(
            workers=1, chunk_size=2, max_tuples=100, fault_plan=plan,
            quarantine_after=1, quarantine_cooldown=60.0,
        ) as svc:
            qid = svc.register(CompiledSpanner(WORD_FORMULA))
            with pytest.raises(ResultLimitError):
                svc.submit_chunk(qid, DOCS[:2]).result(timeout=120)
            assert svc.quarantined_queries == ()
            # Admitted immediately — no QueryQuarantinedError, no probe.
            out = svc.submit_chunk(qid, DOCS[2:4]).result(timeout=120)
            serial = list(CompiledSpanner(WORD_FORMULA).evaluate_many(DOCS[2:4]))
            assert canonical(out) == canonical(serial)

    def test_truncate_policy_returns_exact_serial_prefix(self):
        """on_result_limit='truncate': the bounded result is the exact
        radix-order prefix of the serial stream, counted per document."""
        doc = "the quick brown fox"  # four matches
        serial = list(CompiledSpanner(WORD_FORMULA).stream(doc))
        assert len(serial) == 4
        with SpannerService(
            workers=1, chunk_size=4, max_tuples=3, on_result_limit="truncate"
        ) as svc:
            qid = svc.register(CompiledSpanner(WORD_FORMULA))
            out = svc.submit_chunk(qid, [doc]).result(timeout=120)
            assert out == [serial[:3]]  # one doc, exact prefix
            assert svc.docs_truncated == 1
            assert svc.tasks_result_limited == 0
            # An explicit per-call None disables the inherited cap.
            full = svc.submit_chunk(qid, [doc], max_tuples=None).result(
                timeout=120
            )
            assert full == [serial]
            # Counting is a fixed-size answer: never capped.
            counts = svc.submit_counts([doc], queries=qid).result(timeout=120)
            assert counts == [4]

    def test_byte_cap_and_per_call_override(self):
        """max_result_bytes fails a task whose pickled tuples overrun
        the byte budget; the per-call knob beats the service default."""
        doc = "the quick brown fox"
        with SpannerService(workers=1, chunk_size=4) as svc:
            qid = svc.register(CompiledSpanner(WORD_FORMULA))
            with pytest.raises(ResultLimitError) as info:
                svc.submit_chunk(qid, [doc], max_result_bytes=10).result(
                    timeout=120
                )
            assert info.value.kind == "bytes"
            # Uncapped by default: the same chunk serves fine.
            out = svc.submit_chunk(qid, [doc]).result(timeout=120)
            assert out == [list(CompiledSpanner(WORD_FORMULA).stream(doc))]


class TestMemoryWatchdog:
    """RSS-based drain-and-recycle against injected worker bloat."""

    BLOAT = 64 * 1024 * 1024

    @staticmethod
    def _limits() -> tuple[int, int]:
        """(soft, hard) anchored to this process's live RSS.

        Workers are forked, so they start at roughly the parent's
        footprint — which depends on how much of the test session ran
        before this test.  Absolute limits flake (a full-suite parent
        forks workers already past a 48 MiB hard limit); limits
        relative to the parent's RSS right now put healthy workers
        safely under the soft limit and the injected 64 MiB bloat
        safely past the hard one, wherever the baseline sits.
        """
        from repro.runtime.backends.worker import current_rss

        base = int(current_rss())
        bloat = TestMemoryWatchdog.BLOAT
        return base + bloat // 2, base + 3 * bloat // 4

    def test_bloated_worker_recycled_no_tuple_loss(self, word_serial):
        """Acceptance: a worker pushed over worker_memory_limit by an
        injected leak is drained and recycled at a task boundary; the
        batch result never notices, and the recycle is attributed in
        health()."""
        plan = FaultPlan().rss_bloat(task=1, amount=self.BLOAT)
        soft, _hard = self._limits()
        with SpannerService(
            workers=2, chunk_size=2,
            worker_memory_limit=soft,
            fault_plan=plan,
        ) as svc:
            qid = svc.register(CompiledSpanner(WORD_FORMULA))
            out = svc.submit(DOCS, queries=qid).result(timeout=120)
            assert canonical(out) == canonical(word_serial)
            assert _poll(lambda: svc.workers_recycled_on_memory >= 1)
            health = svc.health()
            assert health["resources"]["memory_recycles"] >= 1
            assert health["counters"]["workers_killed_on_memory"] == 0
            # A graceful recycle is an ordinary replacement, not a kill:
            # the fleet is back at strength.
            assert _poll(
                lambda: len(
                    [w for w in svc.health()["workers"] if w["alive"]]
                ) == 2
            )
            # The fleet still serves correctly after the recycle.
            again = svc.submit(DOCS[:4], queries=qid).result(timeout=120)
            assert canonical(again) == canonical(word_serial[:4])

    def test_hard_limit_kills_past_the_soft_limit(self, word_serial):
        """A worker past worker_memory_hard_limit is killed outright
        (orphaned tasks re-dispatched), counted separately from the
        graceful recycles."""
        plan = FaultPlan().rss_bloat(task=1, amount=self.BLOAT, attempts=(1,))
        soft, hard = self._limits()
        with SpannerService(
            workers=2, chunk_size=2,
            worker_memory_limit=soft,
            worker_memory_hard_limit=hard,
            fault_plan=plan,
        ) as svc:
            qid = svc.register(CompiledSpanner(WORD_FORMULA))
            out = svc.submit(DOCS, queries=qid).result(timeout=120)
            assert canonical(out) == canonical(word_serial)
            assert _poll(
                lambda: svc.health()["counters"]["workers_killed_on_memory"]
                >= 1
            )


class TestAdmissionControl:
    """register()-time rejection: size estimates and compile deadlines."""

    SMALL_FORMULA = "x{[a-z]+}"

    def test_oversized_estimate_rejected_without_a_worker(self):
        """Acceptance: a formula whose Lemma 3.4 size bound exceeds
        max_compile_states is rejected before compilation; the fleet is
        untouched and smaller queries still register and serve."""
        big = estimate_compile_states(WORD_FORMULA)
        small = estimate_compile_states(self.SMALL_FORMULA)
        assert small < big  # the test's premise
        with SpannerService(
            workers=1, chunk_size=4, max_compile_states=big - 1
        ) as svc:
            with pytest.raises(QueryRejectedError) as info:
                svc.register(WORD_FORMULA)
            assert info.value.estimated_states == big
            assert info.value.max_compile_states == big - 1
            assert svc.queries_rejected == 1
            assert svc.workers_crashed == 0
            qid = svc.register(self.SMALL_FORMULA)
            out = svc.submit(DOCS[:4], queries=qid).result(timeout=120)
            serial = list(
                CompiledSpanner(self.SMALL_FORMULA).evaluate_many(DOCS[:4])
            )
            assert canonical(out) == canonical(serial)

    def test_estimate_is_an_upper_bound(self):
        """The admission estimate must never under-count: the compiled
        automaton (post-trim) is at most as large as the bound."""
        for formula in (WORD_FORMULA, self.SMALL_FORMULA, ".*a{[0-9]}.*"):
            assert CompiledSpanner(formula).n_states <= estimate_compile_states(
                formula
            )

    def test_compile_timeout_kills_the_wedged_compile(self):
        """Acceptance: a compilation past compile_timeout is killed and
        rejected promptly; no worker is consumed and the fleet stays
        healthy."""
        plan = FaultPlan().slow_compile(5.0)
        with SpannerService(
            workers=1, chunk_size=4, compile_timeout=0.2, fault_plan=plan
        ) as svc:
            start = time.monotonic()
            with pytest.raises(QueryRejectedError, match="compile_timeout"):
                svc.register(WORD_FORMULA)
            assert time.monotonic() - start < 4.0  # killed, not awaited
            assert svc.queries_rejected == 1
            health = svc.health()
            assert [w["alive"] for w in health["workers"]] == [True]

    def test_sandboxed_compile_artifact_serves(self, word_serial):
        """A compile that fits its deadline (run in the throwaway
        subprocess, since a delay fault is planned) produces an
        artifact that serves byte-identically."""
        plan = FaultPlan().slow_compile(0.1)
        with SpannerService(
            workers=2, chunk_size=2, compile_timeout=30.0, fault_plan=plan
        ) as svc:
            qid = svc.register(WORD_FORMULA)
            out = svc.submit(DOCS, queries=qid).result(timeout=120)
            assert canonical(out) == canonical(word_serial)
            assert svc.queries_rejected == 0
