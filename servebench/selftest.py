"""Self-test of the serving benchmark at tiny size.

Run from the root of a checkout:

    python3 -m pytest servebench/selftest.py -q

The file name keeps it out of the repository's default test collection;
it exercises the benchmark, not the program.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT))

from repro.extractors import dictionary_spanner  # noqa: E402
from repro.oracle import oracle_evaluate  # noqa: E402
from repro.queries import CanonicalEvaluator  # noqa: E402

from servebench.bench import (  # noqa: E402
    END_TO_END_UNITS,
    PER_LAYER_UNITS,
    run_workload,
)
from servebench.workloads import (  # noqa: E402
    DICTIONARY,
    RARE_KEYWORDS,
    WORKLOADS,
    join_query,
)

TINY = {"n_requests": 3, "seconds": 0.2, "setups": 1}

#: Metrics that are exact counts: same seed, same value, in any process.
EXACT = (
    "vset.states",
    "runtime.tables.artifact_bytes",
    "enumeration.graph.nodes",
    "enumeration.graph.edges",
    "enumeration.graph.chars",
    "enumeration.enumerator.tuples",
    "runtime.fusion.cohorts",
    "runtime.equality.doc_states",
    "runtime.backends.result_bytes",
    "runtime.transport.doc_bytes",
    "input.mean_doc_chars",
    "input.match_share",
    "input.tuples_per_doc",
)


def _declared() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def test_declared_metrics_match_the_printed_ones():
    spec = _declared()
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER_UNITS


@pytest.mark.parametrize("name", list(WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_prints_with_its_unit(name, trace):
    result = run_workload(WORKLOADS[name], seed=3, trace=trace, **TINY)
    summary = result.summary()
    assert summary["correct"], result.report
    assert summary["failed"] == 0 and summary["attempted"] >= 1
    units = PER_LAYER_UNITS if trace else END_TO_END_UNITS
    assert {k: v["unit"] for k, v in summary["metrics"].items()} == units
    json.dumps(summary)  # every value is a plain JSON number
    if trace:
        metrics = {k: v["value"] for k, v in summary["metrics"].items()}
        assert metrics["error_rate"] == 0
        assert metrics["trace.unattributed_share"] <= 0.10


_COUNTS_SCRIPT = """
import json, sys
sys.path[:0] = [{src!r}, {root!r}]
from servebench.bench import run_workload
from servebench.workloads import WORKLOADS
r = run_workload(WORKLOADS[{name!r}], seed=5, trace=True, n_requests=3,
                 seconds=0.2, setups=1)
print(json.dumps({{k: v["value"] for k, v in r.summary()["metrics"].items()}}))
"""


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_exact_counts_repeat_across_same_seed_runs(name):
    script = _COUNTS_SCRIPT.format(src=str(ROOT / "src"), root=str(ROOT), name=name)
    runs = []
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        out = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True,
            text=True, timeout=300, check=True,
        )
        runs.append(json.loads(out.stdout.strip().splitlines()[-1]))
    for metric in EXACT:
        assert runs[0][metric] == runs[1][metric], metric


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_a_wrong_reference_counts_as_a_failed_request(name):
    result = run_workload(
        WORKLOADS[name], seed=3, trace=False, corrupt_reference=True, **TINY
    )
    summary = result.summary()
    assert not summary["correct"]
    assert summary["failed"] >= 1
    assert summary["metrics"]["success_rate"]["value"] < 1.0


# -- References against the paper's semantics, on tiny samples ------------------
def _as_set(tuples):
    assert len(set(tuples)) == len(tuples), "duplicate tuples"
    return set(tuples)


def test_dense_reference_matches_the_oracle():
    workload = WORKLOADS["dense-logs"]
    line = workload.make_inputs(seed=3, n_requests=1).requests[0][0]
    ref = workload.reference(workload.reference_engines(), [line])["q"][0]
    assert ref
    assert _as_set(ref) == oracle_evaluate(dictionary_spanner(DICTIONARY), line)


@pytest.mark.parametrize("member,doc", [
    ("address", "Ab 1, 2 Cd, Ef"),
    ("email", "x ab@c.de"),
    ("keyword", f"the {RARE_KEYWORDS[0]} case"),
])
def test_sparse_references_match_the_oracle(member, doc):
    workload = WORKLOADS["sparse-articles"]
    ref = workload.reference(workload.reference_engines(), [doc])[member][0]
    assert ref
    assert _as_set(ref) == oracle_evaluate(workload.formulas()[member], doc)


def test_join_reference_matches_the_canonical_evaluator():
    workload = WORKLOADS["join-windows"]
    doc = "db 7\ndb 7"
    ref = workload.reference(workload.reference_engines(), [doc])["q"][0]
    assert ref
    expected = CanonicalEvaluator().evaluate(join_query(), doc)
    assert _as_set(ref) == set(expected)


# -- The command outside a full checkout ------------------------------------------
def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(
        ROOT / "servebench", tmp_path / "servebench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    out = subprocess.run(
        [sys.executable, "servebench/run.py", "--workload", "dense-logs",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
