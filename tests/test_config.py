"""One fleet config: every entry point validates the knobs the same way.

:class:`~repro.runtime.config.FleetConfig` is the only declaration of
the fleet's plain-value knobs.  These tests pin what that buys:

* every invalid value is rejected by every entry point — the service on
  the serial and process backends, :class:`ParallelSpanner`,
  :meth:`SpannerService.restore` overrides and the CLI — with a
  ``ValueError`` naming the knob (exit 2 and ``error: --flag`` from the
  CLI), including the cases where the old per-site checks disagreed;
* constructing a session validates without side effects: no worker,
  no session directory;
* a restart manifest written by an earlier release (the 22-key
  ``config`` block, retired transport knobs included) restores to an
  equal config, and unknown keys fail loudly;
* the retired transport knobs are gone from every entry point.
"""

from __future__ import annotations

import json
import multiprocessing
import tempfile
from dataclasses import FrozenInstanceError, asdict, fields

import pytest

from repro.cli import main
from repro.errors import SpannerError
from repro.runtime import (
    CompiledSpanner,
    FleetConfig,
    ParallelSpanner,
    SpannerService,
)
from repro.runtime.service import MANIFEST_FORMAT_VERSION

FORMULA = ".*x{[0-9]+}.*"
DOCS = ["a1 b22", "none", "c333"]

#: The flags ``repro.cli`` exposes, by knob.
CLI_KNOBS = {
    "workers", "backend", "encoding", "errors",
    "task_timeout", "on_overload", "max_tuples",
    "max_result_bytes", "on_result_limit", "worker_memory_limit",
    "max_compile_states", "compile_timeout",
}

#: (case id, the knobs to pass, the knob the error must name).  One
#: invalid value per numeric or enum knob.
INVALID = [
    ("workers", {"workers": 0}, "workers"),
    ("chunk_size", {"chunk_size": 0}, "chunk_size"),
    ("max_tasks_per_worker", {"max_tasks_per_worker": 0},
     "max_tasks_per_worker"),
    ("max_in_flight", {"max_in_flight": 0}, "max_in_flight"),
    ("backend", {"backend": "fiber"}, "backend"),
    ("mp_context", {"mp_context": "teleport"}, "mp_context"),
    ("encoding", {"encoding": "no-such-codec"}, "encoding"),
    ("errors", {"errors": "no-such-handler"}, "errors"),
    ("task_timeout", {"task_timeout": 0}, "task_timeout"),
    ("quarantine_after", {"quarantine_after": 0}, "quarantine_after"),
    ("quarantine_cooldown", {"quarantine_cooldown": -1},
     "quarantine_cooldown"),
    ("on_overload", {"on_overload": "panic"}, "on_overload"),
    ("max_tuples", {"max_tuples": 0}, "max_tuples"),
    ("max_result_bytes", {"max_result_bytes": 0}, "max_result_bytes"),
    ("on_result_limit", {"on_result_limit": "explode"}, "on_result_limit"),
    ("worker_memory_limit", {"worker_memory_limit": 0},
     "worker_memory_limit"),
    ("worker_memory_hard_limit", {"worker_memory_hard_limit": 0},
     "worker_memory_hard_limit"),
    ("hard_below_soft",
     {"worker_memory_limit": 10, "worker_memory_hard_limit": 5},
     "worker_memory_hard_limit"),
    ("max_compile_states", {"max_compile_states": 0}, "max_compile_states"),
    ("compile_timeout", {"compile_timeout": 0}, "compile_timeout"),
    ("integer_workers", {"workers": 2.5}, "workers"),
]

ENTRY_POINTS = ["service_serial", "service_process", "parallel",
                "restore", "cli"]


@pytest.fixture
def corpus(tmp_path):
    paths = []
    for i, text in enumerate(DOCS):
        path = tmp_path / f"doc{i}.txt"
        path.write_text(text, encoding="utf-8")
        paths.append(str(path))
    return paths


@pytest.fixture
def manifest(tmp_path):
    path = tmp_path / "fleet.json"
    with SpannerService(
        workers=1, backend="serial", manifest_path=path
    ) as service:
        service.register(FORMULA)
    return path


def _cli(argv, capsys) -> tuple[int, str]:
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse rejects unknown choices itself
        code = exc.code
    return code, capsys.readouterr().err


@pytest.mark.parametrize("entry", ENTRY_POINTS)
@pytest.mark.parametrize(
    "knobs, named", [case[1:] for case in INVALID],
    ids=[case[0] for case in INVALID],
)
def test_every_entry_point_rejects_invalid_knobs(
    entry, knobs, named, request, capsys
):
    if entry == "cli":
        if not set(knobs) <= CLI_KNOBS:
            pytest.skip("no command-line flag for this knob")
        argv = ["extract", FORMULA, "--workers", "2"]
        for path in request.getfixturevalue("corpus"):
            argv += ["--file", path]
        for knob, value in knobs.items():
            argv += ["--" + knob.replace("_", "-"), str(value)]
        code, err = _cli(argv, capsys)
        flag = "--" + named.replace("_", "-")
        assert code == 2 and "error:" in err and flag in err, err
        return
    with pytest.raises(ValueError, match=named):
        if entry == "service_serial":
            SpannerService(**{"workers": 1, "backend": "serial", **knobs})
        elif entry == "service_process":
            SpannerService(**{"workers": 1, "backend": "process", **knobs})
        elif entry == "parallel":
            ParallelSpanner(FORMULA, **{"workers": 2, **knobs})
        else:
            SpannerService.restore(request.getfixturevalue("manifest"),
                                   **knobs)


def test_config_is_the_declaration():
    config = FleetConfig()
    assert len(fields(config)) == 19
    with pytest.raises(FrozenInstanceError):
        config.workers = 4
    # The service accepts exactly the knobs plus its object arguments.
    with pytest.raises(TypeError, match="bogus"):
        SpannerService(bogus=1)
    with pytest.raises(TypeError, match="bogus"):
        ParallelSpanner(FORMULA, bogus=1)


def test_service_config_is_resolved():
    with SpannerService(backend="serial") as service:
        assert service.config.workers >= 1
        assert service.config.backend == service.backend == "serial"
        assert service.config.workers == service.workers
    engine = ParallelSpanner(FORMULA, workers=1)
    assert engine.config.backend == "serial"  # auto at one worker
    assert engine.max_pending == 2


def test_parallel_construction_has_no_side_effects(tmp_path, monkeypatch):
    monkeypatch.setenv("TMPDIR", str(tmp_path))
    monkeypatch.setattr(tempfile, "tempdir", None)
    before = set(multiprocessing.active_children())
    ParallelSpanner(FORMULA, workers=2, backend="process")
    assert set(multiprocessing.active_children()) == before
    assert list(tmp_path.iterdir()) == []


#: A v2 manifest ``config`` block exactly as the release before the
#: shared-memory transport's removal wrote it (every knob, workers and
#: backend resolved).
PARENT_CONFIG = {
    "workers": 2,
    "chunk_size": 3,
    "max_tasks_per_worker": None,
    "max_in_flight": 8,
    "backend": "serial",
    "mp_context": None,
    "transport": "auto",
    "shm_threshold": 65536,
    "encoding": "utf-8",
    "errors": "strict",
    "task_timeout": None,
    "quarantine_after": 3,
    "quarantine_cooldown": 30.0,
    "on_overload": "block",
    "shm_budget": None,
    "max_tuples": 100,
    "max_result_bytes": None,
    "on_result_limit": "truncate",
    "worker_memory_limit": None,
    "worker_memory_hard_limit": None,
    "max_compile_states": 500,
    "compile_timeout": None,
}

#: The knobs of the removed shared-memory transport.
RETIRED = ("transport", "shm_threshold", "shm_budget")
CURRENT_CONFIG = {
    k: v for k, v in PARENT_CONFIG.items() if k not in RETIRED
}


def _write_manifest(path, config) -> None:
    doc = {
        "format": 2,
        "config": config,
        "store": None,
        "queries": [
            {
                "query_id": "digits",
                "store_key": None,
                "payload_sha256": None,
                "source": {"kind": "syntax", "data": FORMULA},
                "options": {},
            }
        ],
        "quarantined": {},
    }
    path.write_text(json.dumps(doc, indent=2), encoding="utf-8")


class TestParentManifest:
    def test_parent_config_block_restores_to_an_equal_config(self, tmp_path):
        self._check_restores(tmp_path, PARENT_CONFIG)

    def test_parent_forced_transport_knobs_are_dropped(self, tmp_path):
        # Non-default values of the retired knobs: forced shm with a
        # budget, and forced pipe.  Both restore onto the task pipe.
        self._check_restores(
            tmp_path,
            {**PARENT_CONFIG, "transport": "shm", "shm_threshold": 0,
             "shm_budget": 4096},
        )
        self._check_restores(tmp_path, {**PARENT_CONFIG, "transport": "pipe"})

    @staticmethod
    def _check_restores(tmp_path, config) -> None:
        path = tmp_path / "fleet.json"
        _write_manifest(path, config)
        restored = SpannerService.restore(path)
        try:
            # The retired transport knobs are dropped; every other
            # value survives as written.
            assert restored.config == FleetConfig(**CURRENT_CONFIG)
            assert restored.queries == ("digits",)
            out = restored.submit(DOCS, queries="digits").result()
        finally:
            restored.close()
        assert out == list(CompiledSpanner(FORMULA).evaluate_many(DOCS))
        # The rewritten manifest is the same format, minus those keys.
        rewritten = json.loads(path.read_text("utf-8"))
        assert rewritten["format"] == MANIFEST_FORMAT_VERSION == 2
        assert rewritten["config"] == CURRENT_CONFIG

    def test_manifest_config_is_the_service_config(self, tmp_path):
        path = tmp_path / "fleet.json"
        with SpannerService(
            workers=2, backend="serial", chunk_size=5, manifest_path=path
        ) as service:
            service.register(FORMULA)
            written = json.loads(path.read_text("utf-8"))["config"]
            assert written == asdict(service.config)
        assert set(written) == set(CURRENT_CONFIG)

    def test_unknown_manifest_key_fails_loudly(self, tmp_path):
        path = tmp_path / "fleet.json"
        _write_manifest(path, {**PARENT_CONFIG, "max_widgets": 3})
        with pytest.raises(SpannerError, match="max_widgets"):
            SpannerService.restore(path)

    def test_unknown_override_fails_loudly(self, tmp_path):
        path = tmp_path / "fleet.json"
        _write_manifest(path, PARENT_CONFIG)
        with pytest.raises(TypeError, match="max_widgets"):
            SpannerService.restore(path, max_widgets=3)

    def test_retired_knob_beside_an_unknown_key_still_fails(self, tmp_path):
        path = tmp_path / "fleet.json"
        _write_manifest(path, {**PARENT_CONFIG, "shm_pool": 8})
        with pytest.raises(SpannerError, match="shm_pool"):
            SpannerService.restore(path)


def test_retired_transport_knobs_are_gone(tmp_path):
    path = tmp_path / "fleet.json"
    _write_manifest(path, PARENT_CONFIG)
    with pytest.raises(TypeError, match="transport"):
        SpannerService(transport="pipe")
    with pytest.raises(TypeError, match="shm_budget"):
        ParallelSpanner(FORMULA, shm_budget=1)
    with pytest.raises(TypeError, match="transport"):
        SpannerService.restore(path, transport="shm")
