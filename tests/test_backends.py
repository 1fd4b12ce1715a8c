"""The ComputeBackend contract, exercised per concrete backend.

``SpannerService`` is pure policy since PR 10; everything substrate-
specific — spawning, artifact shipment, dispatch, kill-and-replace —
lives behind :class:`~repro.runtime.backends.ComputeBackend`.  These
tests pin the parts of that contract the parity suites cannot see from
the outside:

* the compiled artifact is shipped **at most once per (worker, query)
  lifetime**, whatever the backend means by "ship" (pickled bytes over
  a queue for processes, a shared materialized engine for the inline
  worker);
* a killed/crashed worker is replaced and the fleet converges with **no
  tuple lost and none duplicated**;
* backend selection: ``"auto"`` resolution, the resolved name in
  ``health()`` and the manifest, and restore onto the recorded
  substrate (with override);
* the driver's heartbeat read never blocks and never returns a torn
  quadruple, even when the worker was SIGKILLed mid-stamp.
"""

from __future__ import annotations

import multiprocessing
import time

import pytest

from repro.runtime import (
    BACKEND_NAMES,
    CompiledSpanner,
    FaultPlan,
    SpannerService,
)
from repro.runtime.backends import (
    ProcessBackend,
    SerialBackend,
    resolve_backend,
)
from repro.runtime.backends.base import new_heartbeat, stamp_heartbeat
from repro.runtime.backends.process import ProcessWorkerHandle

from test_service import BACKENDS, DOCS, WORD_FORMULA, canonical


@pytest.fixture(scope="module")
def word_serial():
    return list(CompiledSpanner(WORD_FORMULA).evaluate_many(DOCS))


class TestResolution:
    def test_names_and_classes(self):
        assert BACKEND_NAMES == ("auto", "serial", "process")
        assert isinstance(resolve_backend("serial", workers=1), SerialBackend)
        assert isinstance(
            resolve_backend("process", workers=2), ProcessBackend
        )

    def test_auto_resolves_to_a_concrete_backend(self):
        assert isinstance(resolve_backend("auto", workers=2), ProcessBackend)
        assert isinstance(resolve_backend("auto", workers=1), ProcessBackend)

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="backend"):
            resolve_backend("fiber", workers=2)
        with pytest.raises(ValueError, match="backend"):
            SpannerService(workers=2, backend="fiber")
        with pytest.raises(ValueError, match="'serial', 'process'"):
            SpannerService(workers=2, backend="thread")

    def test_flags_per_backend(self):
        for name, model, inline in (
            ("serial", "inline", True),
            ("process", "process", False),
        ):
            backend = resolve_backend(name, workers=2)
            assert backend.worker_model == model
            assert backend.inline is inline


class TestArtifactShippedOnce:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_at_most_one_shipment_per_worker_lifetime(
        self, word_serial, backend
    ):
        """Many chunks, one query: the artifact payload rides along
        with at most one dispatched task per worker, whatever "payload"
        means on this substrate."""
        shipments: list[tuple[int, bool]] = []
        with SpannerService(
            workers=2, chunk_size=2, backend=backend
        ) as service:
            inner = service._backend
            original = inner.dispatch

            def spying_dispatch(worker, msg):
                shipments.append((worker.worker_id, msg[4] is not None))
                original(worker, msg)

            inner.dispatch = spying_dispatch
            qid = service.register(CompiledSpanner(WORD_FORMULA))
            for _ in range(3):
                out = service.submit(DOCS, queries=qid).result(timeout=120)
                assert canonical(out) == canonical(word_serial)
        assert len(shipments) >= 3 * (len(DOCS) // 2)
        per_worker: dict[int, int] = {}
        for worker_id, shipped in shipments:
            if shipped:
                per_worker[worker_id] = per_worker.get(worker_id, 0) + 1
        # Every worker that got the artifact got it exactly once.
        assert per_worker and all(n == 1 for n in per_worker.values())

    def test_shared_backends_materialize_once(self):
        """Inline workers share one materialized engine per query —
        respawns and re-shipments reuse it by identity."""
        with SpannerService(
            workers=2, chunk_size=2, max_tasks_per_worker=1, backend="serial"
        ) as service:
            inner = service._backend
            qid = service.register(CompiledSpanner(WORD_FORMULA))
            service.submit(DOCS, queries=qid).result(timeout=120)
            assert service.workers_recycled > 0  # several worker lifetimes
            payload = service._registry[str(qid)]
            engine = inner.prepare_payload(str(qid), payload)
            assert inner.prepare_payload(str(qid), payload) is engine
            assert list(inner._engines) == [str(qid)]


class TestKillAndReplace:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_crash_replaces_worker_no_loss_no_dup(self, word_serial, backend):
        """An injected worker death mid-batch: the fleet replaces the
        worker and the output is byte-identical — nothing lost to the
        crash, nothing duplicated by the re-dispatch."""
        plan = FaultPlan().crash(task=1, attempts=(1,))
        with SpannerService(
            workers=2, chunk_size=2, fault_plan=plan, backend=backend
        ) as service:
            qid = service.register(CompiledSpanner(WORD_FORMULA))
            out = service.submit(DOCS, queries=qid).result(timeout=120)
            assert canonical(out) == canonical(word_serial)
            assert service.workers_crashed >= 1
            health = service.health()
            assert health["backend"]["name"] == backend
            assert len(health["workers"]) == 2  # back at full strength
            # The replaced fleet still serves.
            again = service.submit(DOCS, queries=qid).result(timeout=120)
            assert canonical(again) == canonical(word_serial)

    def test_serial_backend_refuses_kill(self):
        backend = resolve_backend("serial", workers=1)
        worker = backend.spawn_worker()
        with pytest.raises(AssertionError):
            backend.kill_worker(worker)


class TestManifestBackend:
    def test_manifest_records_resolved_backend_and_restores(
        self, tmp_path, word_serial
    ):
        import json

        manifest = str(tmp_path / "manifest.json")
        with SpannerService(
            workers=1, backend="auto", manifest_path=manifest
        ) as service:
            assert service.backend == "process"  # resolved
            qid = str(service.register(CompiledSpanner(WORD_FORMULA)))
            service.submit(DOCS, queries=qid).result(timeout=120)
        doc = json.loads(open(manifest).read())
        assert doc["format"] == 2
        assert doc["config"]["backend"] == "process"

        revived = SpannerService.restore(manifest)
        try:
            assert revived.backend == "process"
            out = revived.submit(DOCS, queries=qid).result(timeout=120)
            assert canonical(out) == canonical(word_serial)
        finally:
            revived.close()

        overridden = SpannerService.restore(manifest, backend="serial")
        try:
            assert overridden.backend == "serial"
            out = overridden.submit(DOCS, queries=qid).result(timeout=120)
            assert canonical(out) == canonical(word_serial)
        finally:
            overridden.close()

    def test_v1_manifest_read_as_process_backend(self, tmp_path):
        """Migration: pre-PR-10 manifests carry no backend; they are
        restored onto the process fleet (the only substrate that
        existed when they were written) — overridable as usual."""
        import json

        manifest = str(tmp_path / "manifest.json")
        with SpannerService(
            workers=1, backend="serial", manifest_path=manifest
        ) as service:
            service.register(CompiledSpanner(WORD_FORMULA))
        doc = json.loads(open(manifest).read())
        doc["format"] = 1
        doc["config"].pop("backend")
        open(manifest, "w").write(json.dumps(doc))

        revived = SpannerService.restore(manifest)
        try:
            assert revived.backend == "process"
        finally:
            revived.close()
        overridden = SpannerService.restore(manifest, backend="serial")
        try:
            assert overridden.backend == "serial"
        finally:
            overridden.close()

    @staticmethod
    def _thread_manifest(tmp_path) -> tuple[str, str]:
        """A manifest as a fleet on the retired thread backend wrote
        it, and the id of the query it journals."""
        import json

        manifest = str(tmp_path / "manifest.json")
        with SpannerService(
            workers=1, backend="serial", manifest_path=manifest
        ) as service:
            qid = str(service.register(CompiledSpanner(WORD_FORMULA)))
        doc = json.loads(open(manifest).read())
        doc["config"]["backend"] = "thread"
        open(manifest, "w").write(json.dumps(doc))
        return manifest, qid

    def test_thread_manifest_fails_loudly(self, tmp_path):
        """No silent substitution: the error names the valid backends."""
        manifest, _qid = self._thread_manifest(tmp_path)
        with pytest.raises(ValueError, match="'auto', 'serial', 'process'"):
            SpannerService.restore(manifest)

    def test_thread_manifest_restores_with_backend_override(
        self, tmp_path, word_serial
    ):
        manifest, qid = self._thread_manifest(tmp_path)
        revived = SpannerService.restore(manifest, backend="process")
        try:
            assert revived.backend == "process"
            out = revived.submit(DOCS, queries=qid).result(timeout=120)
            assert canonical(out) == canonical(word_serial)
        finally:
            revived.close()


class _StallingValue:
    """A heartbeat value whose conversion signals, then never returns."""

    def __init__(self, started):
        self.started = started

    def __float__(self):
        self.started.set()
        time.sleep(3600)
        return 0.0


def _stamp_and_stall(heartbeat, started):
    # The task id lands, then the stamp stalls before the timestamp is
    # written: the writer dies mid-stamp once the test SIGKILLs it.
    stamp_heartbeat(heartbeat, 7.0, _StallingValue(started), 1.0, 0.0)


class TestHeartbeatRead:
    def test_killed_mid_stamp_never_blocks_or_tears(self):
        ctx = multiprocessing.get_context("fork")
        heartbeat = ctx.Array("d", new_heartbeat(), lock=False)
        stamp_heartbeat(heartbeat, -1.0, 123.0, 4096.0, -1.0)
        started = ctx.Event()
        writer = ctx.Process(
            target=_stamp_and_stall, args=(heartbeat, started), daemon=True
        )
        writer.start()
        try:
            assert started.wait(30), "writer never reached the stall"
            writer.kill()
            writer.join(10)
            handle = ProcessWorkerHandle(0, writer, None, heartbeat, None)
            began = time.monotonic()
            reading = handle.read_heartbeat()
            assert time.monotonic() - began < 1.0
        finally:
            if writer.is_alive():
                writer.kill()
            writer.join(10)
        # The half-written (task 7, old stamp) pair is never reported:
        # nothing consistent was ever read, so the idle default is.
        assert reading == (-1, 0.0, 0.0, -1)

    def test_last_consistent_snapshot_survives_a_torn_stamp(self):
        handle = ProcessWorkerHandle(0, None, None, new_heartbeat(), None)
        stamp_heartbeat(handle.heartbeat, 3.0, 50.0, 8192.0, 1.0)
        assert handle.read_heartbeat() == (3, 50.0, 8192.0, 1)
        # A writer that died after opening its next stamp: seq stays odd.
        handle.heartbeat[0] += 1.0
        handle.heartbeat[1] = 9.0
        assert handle.read_heartbeat() == (3, 50.0, 8192.0, 1)
