"""One fleet config: every entry point validates the knobs the same way.

:class:`~repro.runtime.config.FleetConfig` is the only declaration of
the fleet's plain-value knobs.  These tests pin what that buys:

* every invalid value is rejected by every entry point — the service on
  the serial and process backends, :class:`ParallelSpanner`,
  :meth:`SpannerService.restore` overrides and the CLI — with a
  ``ValueError`` naming the knob (exit 2 and ``error: --flag`` from the
  CLI), including the cases where the old per-site checks disagreed;
* constructing a session validates without side effects: no
  ``/dev/shm`` sweep, no session directory;
* a restart manifest written by the previous release (the same 22-key
  ``config`` block) restores to an equal config, and unknown keys fail
  loudly.
"""

from __future__ import annotations

import json
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
from repro.runtime import transport as transport_module

FORMULA = ".*x{[0-9]+}.*"
DOCS = ["a1 b22", "none", "c333"]

#: The flags ``repro.cli`` exposes, by knob.
CLI_KNOBS = {
    "workers", "backend", "transport", "encoding", "errors",
    "task_timeout", "on_overload", "shm_budget", "max_tuples",
    "max_result_bytes", "on_result_limit", "worker_memory_limit",
    "max_compile_states", "compile_timeout",
}

#: (case id, the knobs to pass, the knob the error must name).  One
#: invalid value per numeric or enum knob, plus the cases the
#: per-entry-point checks used to disagree on.
INVALID = [
    ("workers", {"workers": 0}, "workers"),
    ("chunk_size", {"chunk_size": 0}, "chunk_size"),
    ("max_tasks_per_worker", {"max_tasks_per_worker": 0},
     "max_tasks_per_worker"),
    ("max_in_flight", {"max_in_flight": 0}, "max_in_flight"),
    ("backend", {"backend": "fiber"}, "backend"),
    ("mp_context", {"mp_context": "teleport"}, "mp_context"),
    ("transport", {"transport": "carrier-pigeon"}, "transport"),
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
    # Drift cases: the serial service accepted these while
    # ParallelSpanner rejected them, and forcing the pipe skipped the
    # budget check on every backend.
    ("drift_serial_shm_budget", {"shm_budget": 0}, "shm_budget"),
    ("drift_shm_threshold", {"shm_threshold": -5}, "shm_threshold"),
    ("drift_pipe_shm_budget", {"transport": "pipe", "shm_budget": 0},
     "shm_budget"),
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
    assert len(fields(config)) == 22
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
    swept = []
    monkeypatch.setenv("TMPDIR", str(tmp_path))
    monkeypatch.setattr(tempfile, "tempdir", None)
    monkeypatch.setattr(
        transport_module,
        "sweep_orphaned_segments",
        lambda *a, **k: swept.append(1) or [],
    )
    sessions = tmp_path / "sjdoc-sessions"
    for mode in ("auto", "shm", "pipe"):
        if mode == "shm" and not transport_module.shm_available():
            continue
        ParallelSpanner(FORMULA, workers=2, backend="process", transport=mode)
    assert not sessions.exists()
    assert swept == []
    if transport_module.shm_available():
        # Control: a real segment owner does create both, so the
        # redirect above is what the assertions observed.
        owner = transport_module.create_transport("shm")
        owner.close()
        assert sessions.is_dir() and swept == [1]


#: A v2 manifest ``config`` block exactly as the previous release wrote
#: it (every knob, workers and backend resolved).
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
        path = tmp_path / "fleet.json"
        _write_manifest(path, PARENT_CONFIG)
        restored = SpannerService.restore(path)
        try:
            assert restored.config == FleetConfig(**PARENT_CONFIG)
            assert restored.queries == ("digits",)
            out = restored.submit(DOCS, queries="digits").result()
        finally:
            restored.close()
        assert out == list(CompiledSpanner(FORMULA).evaluate_many(DOCS))
        # The rewritten manifest keeps the same block.
        rewritten = json.loads(path.read_text("utf-8"))
        assert rewritten["format"] == 2
        assert rewritten["config"] == PARENT_CONFIG

    def test_manifest_config_is_the_service_config(self, tmp_path):
        path = tmp_path / "fleet.json"
        with SpannerService(
            workers=2, backend="serial", chunk_size=5, manifest_path=path
        ) as service:
            service.register(FORMULA)
            written = json.loads(path.read_text("utf-8"))["config"]
            assert written == asdict(service.config)
        assert set(written) == set(PARENT_CONFIG)

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
