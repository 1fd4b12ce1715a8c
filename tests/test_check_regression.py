"""Tests for the multi-metric perf-trajectory gate.

The gate reads committed ``BENCH_*.json`` records and must (a) catch a
>threshold regression in any watched metric — E13 docs/sec dropping,
E10d fused timings rising, peak RSS rising — in that metric's bad
direction, and (b) **never** crash or fail on records that predate a
metric: old layouts are simply not comparable.
"""

from __future__ import annotations

import json

import pytest

from benchmarks.check_regression import (
    check,
    default_gates,
    load_records,
    main,
    rss_metric,
    table_metric,
    table_total,
)


def make_record(
    *,
    docs_per_sec: float | None = 1000.0,
    fused_s: float | None = 0.05,
    rss_kb: int | None = 50_000,
    rss_children_kb: int | None = 20_000,
    fleet_counters: tuple[int, int] | None = None,
    resource_counters: tuple[int, int] | None = None,
    store_counters: tuple[int, int, int] | None = None,
    backend_rows: list[tuple[str, int, float]] | None = None,
    unix_time: float = 0.0,
) -> dict:
    """A BENCH_*.json payload shaped like the harness writes it.

    ``fleet_counters=(timeouts, quarantines)`` adds an E13g table with
    those counter totals; ``resource_counters=(degraded, truncated)``
    adds an E13h table the same way; ``store_counters=(hits, corrupt,
    orphans)`` an E13i table; ``backend_rows=[(backend, workers,
    docs_per_s), ...]`` an E13k table; ``None`` (the default) models a
    record from before the respective work, with no such table at all.
    """
    experiments = []
    if fused_s is not None:
        experiments.append(
            {
                "experiment": "E10",
                "peak_rss_kb": rss_kb,
                "peak_rss_children_kb": rss_children_kb,
                "tables": [
                    {
                        "title": "E10d  fused equality join vs materialized",
                        "headers": ["N", "materialized (s)", "fused (s)"],
                        "rows": [
                            [20, 0.4, fused_s],
                            [40, 1.1, fused_s * 1.5],
                            [80, 4.0, fused_s * 2.0],
                        ],
                    }
                ],
            }
        )
    if docs_per_sec is not None:
        tables = [
            {
                "title": "E13a  docs/sec over log lines",
                "headers": ["docs", "compiled docs/s"],
                "rows": [
                    [50, docs_per_sec * 0.9],
                    [100, docs_per_sec],
                    [200, docs_per_sec * 1.1],
                ],
            }
        ]
        if fleet_counters is not None:
            timeouts, quarantines = fleet_counters
            tables.append(
                {
                    "title": "E13g  deadline + heartbeat overhead",
                    "headers": [
                        "docs", "off (s)", "on (s)", "overhead %",
                        "timeouts", "quarantines",
                    ],
                    "rows": [
                        [800, 0.45, 0.46, 1.8, timeouts, quarantines],
                        [1600, 0.91, 0.92, 1.2, 0, 0],
                    ],
                }
            )
        if resource_counters is not None:
            degraded, truncated = resource_counters
            tables.append(
                {
                    "title": "E13h  resource-governance overhead",
                    "headers": [
                        "docs", "off (s)", "on (s)", "overhead %",
                        "degraded", "truncated",
                    ],
                    "rows": [
                        [800, 0.45, 0.45, 0.4, degraded, truncated],
                        [1600, 0.91, 0.91, 0.3, 0, 0],
                    ],
                }
            )
        if store_counters is not None:
            hits, corrupt, orphans = store_counters
            tables.append(
                {
                    "title": "E13i  durable artifact store (FileStore)",
                    "headers": [
                        "source", "cold (s)", "warm (s)", "speedup",
                        "hits", "corrupt", "orphans",
                    ],
                    "rows": [
                        ["dictionary", 0.011, 0.002, 4.8,
                         hits, corrupt, orphans],
                        ["capitalized", 0.004, 0.001, 4.6, 1, 0, 0],
                    ],
                }
            )
        if backend_rows is not None:
            tables.append(
                {
                    "title": "E13k  backend comparison (ParallelSpanner "
                    "over the E13a log corpus)",
                    "headers": [
                        "backend", "workers", "docs", "wall (s)",
                        "docs/s", "vs bare serial",
                    ],
                    "rows": [
                        [backend, workers, 800, 800 / dps, dps, 1.0]
                        for backend, workers, dps in backend_rows
                    ],
                }
            )
        experiments.append(
            {
                "experiment": "E13",
                "peak_rss_kb": rss_kb,
                "peak_rss_children_kb": rss_children_kb,
                "tables": tables,
            }
        )
    return {"unix_time": unix_time, "experiments": experiments}


def write_history(tmp_path, records):
    for i, record in enumerate(records):
        record["unix_time"] = float(i)
        path = tmp_path / f"BENCH_{i:04d}.json"
        path.write_text(json.dumps(record), encoding="utf-8")
    return tmp_path


class TestMetricExtraction:
    def test_table_metric_median_over_rows(self):
        record = make_record(docs_per_sec=1000.0)
        assert table_metric(record, "E13", "E13a", "compiled docs/s") == 1000.0

    def test_table_metric_missing_layers_return_none(self):
        record = make_record(docs_per_sec=None, fused_s=None)
        assert table_metric(record, "E13", "E13a", "compiled docs/s") is None
        record = make_record()
        assert table_metric(record, "E13", "E13z", "compiled docs/s") is None
        assert table_metric(record, "E13", "E13a", "no-such-column") is None

    def test_rss_metric_max_over_experiments(self):
        record = make_record(rss_kb=50_000)
        assert rss_metric(record, "peak_rss_kb") == 50_000

    def test_rss_metric_tolerates_missing_and_null(self):
        record = make_record()
        for exp in record["experiments"]:
            exp.pop("peak_rss_kb")
            exp["peak_rss_children_kb"] = None  # non-POSIX runner
        assert rss_metric(record, "peak_rss_kb") is None
        assert rss_metric(record, "peak_rss_children_kb") is None


class TestGateVerdicts:
    def test_steady_trajectory_passes(self, tmp_path):
        write_history(tmp_path, [make_record() for _ in range(4)])
        assert check(tmp_path) == 0

    def test_docs_per_sec_drop_fails(self, tmp_path):
        write_history(
            tmp_path,
            [make_record() for _ in range(3)]
            + [make_record(docs_per_sec=500.0)],  # -50%
        )
        assert check(tmp_path) == 1

    def test_fused_seconds_rise_fails(self, tmp_path):
        write_history(
            tmp_path,
            [make_record() for _ in range(3)]
            + [make_record(fused_s=0.09)],  # +80%
        )
        assert check(tmp_path) == 1

    def test_peak_rss_rise_fails(self, tmp_path):
        write_history(
            tmp_path,
            [make_record() for _ in range(3)]
            + [make_record(rss_kb=80_000)],  # +60%
        )
        assert check(tmp_path) == 1

    def test_children_rss_rise_fails(self, tmp_path):
        write_history(
            tmp_path,
            [make_record() for _ in range(3)]
            + [make_record(rss_children_kb=40_000)],  # +100%
        )
        assert check(tmp_path) == 1

    def test_within_threshold_wobble_passes(self, tmp_path):
        write_history(
            tmp_path,
            [make_record() for _ in range(3)]
            + [
                make_record(
                    docs_per_sec=850.0,  # -15%
                    fused_s=0.06,  # +20%
                    rss_kb=60_000,  # +20%
                )
            ],
        )
        assert check(tmp_path) == 0

    def test_improvement_passes(self, tmp_path):
        write_history(
            tmp_path,
            [make_record() for _ in range(3)]
            + [make_record(docs_per_sec=5000.0, fused_s=0.01, rss_kb=10_000)],
        )
        assert check(tmp_path) == 0


class TestOldRecordTolerance:
    """Old BENCH files must never crash (or fail) the gate."""

    def test_single_record_passes_trivially(self, tmp_path):
        write_history(tmp_path, [make_record()])
        assert check(tmp_path) == 0

    def test_baseline_predating_e10_and_rss_is_skipped(self, tmp_path):
        # PR 2-era records: E13 only, no RSS fields at all.
        old = make_record(fused_s=None)
        for exp in old["experiments"]:
            exp.pop("peak_rss_kb")
            exp.pop("peak_rss_children_kb")
        write_history(tmp_path, [old, old.copy(), make_record()])
        assert check(tmp_path) == 0

    def test_newest_record_missing_newer_metric_is_skipped(self, tmp_path):
        # The newest run recorded E13 but not E10: the fused gate skips
        # rather than erroring, and the E13 gate still binds.
        write_history(
            tmp_path,
            [make_record() for _ in range(3)] + [make_record(fused_s=None)],
        )
        assert check(tmp_path) == 0
        write_history(
            tmp_path,
            [make_record() for _ in range(3)]
            + [make_record(fused_s=None, docs_per_sec=100.0)],
        )
        assert check(tmp_path) == 1  # still catches the E13 drop

    def test_newest_record_missing_required_metric_errors(self, tmp_path):
        # The E13 gate is *required*: the newest record lacking it means
        # the table/column was renamed or the experiment dropped — a
        # configuration error, not a silent skip.
        write_history(
            tmp_path,
            [make_record() for _ in range(3)]
            + [make_record(docs_per_sec=None)],
        )
        assert check(tmp_path) == 2

    def test_rss_baseline_resets_when_experiment_set_changes(self, tmp_path):
        # Baselines that ran E13 only; the newest run added E10, which
        # legitimately raises the process-lifetime RSS high-water mark.
        # The RSS gates must treat the old records as not comparable
        # (baseline reset) instead of flagging a regression.
        old = make_record(fused_s=None)  # E13 only
        new = make_record(rss_kb=200_000)  # E10 + E13, much higher RSS
        write_history(tmp_path, [old, dict(old), dict(old), new])
        assert check(tmp_path) == 0
        # Same experiment set on both sides: the rise is a regression.
        write_history(
            tmp_path,
            [make_record() for _ in range(3)]
            + [make_record(rss_kb=200_000)],
        )
        assert check(tmp_path) == 1

    def test_unreadable_record_is_skipped(self, tmp_path):
        write_history(tmp_path, [make_record() for _ in range(3)])
        (tmp_path / "BENCH_junk.json").write_text("{not json", encoding="utf-8")
        assert check(tmp_path) == 0

    def test_records_ordered_by_unix_time(self, tmp_path):
        # Regression written with an *early* filename but the latest
        # timestamp: the chronological ordering must spot it as newest.
        good = make_record()
        bad = make_record(docs_per_sec=100.0)
        (tmp_path / "BENCH_0zzz.json").write_text(
            json.dumps({**good, "unix_time": 1.0}), encoding="utf-8"
        )
        (tmp_path / "BENCH_1zzz.json").write_text(
            json.dumps({**good, "unix_time": 2.0}), encoding="utf-8"
        )
        (tmp_path / "BENCH_0aaa.json").write_text(
            json.dumps({**bad, "unix_time": 3.0}), encoding="utf-8"
        )
        names = [name for name, _payload in load_records(tmp_path)]
        assert names[-1] == "BENCH_0aaa.json"
        assert check(tmp_path) == 1


class TestFleetCounters:
    """The informational timeouts/quarantines report (PR 6 E13g)."""

    def test_table_total_sums_counter_rows(self):
        record = make_record(fleet_counters=(2, 1))
        assert table_total(record, "E13", "E13g", "timeouts") == 2
        assert table_total(record, "E13", "E13g", "quarantines") == 1
        assert table_total(record, "E13", "E13g", "no-such") is None
        assert table_total(make_record(), "E13", "E13g", "timeouts") is None

    def test_clean_counters_reported_without_notice(self, tmp_path, capsys):
        write_history(
            tmp_path,
            [make_record(), make_record(fleet_counters=(0, 0))],
        )
        assert check(tmp_path) == 0
        out = capsys.readouterr().out
        assert "fleet-counters" in out
        assert "timeouts=0, quarantines=0" in out
        assert "notice" not in out

    def test_nonzero_counters_warn_but_do_not_fail(self, tmp_path, capsys):
        # A benchmark run where deadlines tripped: suspicious timings,
        # but an informational notice — never an exit-code failure.
        write_history(
            tmp_path,
            [make_record() for _ in range(3)]
            + [make_record(fleet_counters=(3, 1))],
        )
        assert check(tmp_path) == 0
        out = capsys.readouterr().out
        assert "timeouts=3, quarantines=1" in out
        assert "notice: nonzero fault counters" in out

    def test_records_predating_e13g_stay_silent(self, tmp_path, capsys):
        write_history(tmp_path, [make_record() for _ in range(3)])
        assert check(tmp_path) == 0
        assert "fleet-counters" not in capsys.readouterr().out


class TestResourceCounters:
    """The informational degraded/truncated report (PR 7 E13h)."""

    def test_table_total_sums_counter_rows(self):
        record = make_record(resource_counters=(3, 2))
        assert table_total(record, "E13", "E13h", "degraded") == 3
        assert table_total(record, "E13", "E13h", "truncated") == 2
        assert table_total(make_record(), "E13", "E13h", "degraded") is None

    def test_clean_counters_reported_without_notice(self, tmp_path, capsys):
        write_history(
            tmp_path,
            [make_record(), make_record(resource_counters=(0, 0))],
        )
        assert check(tmp_path) == 0
        out = capsys.readouterr().out
        assert "resource-counters" in out
        assert "degraded=0, truncated=0" in out
        assert "notice" not in out

    def test_nonzero_counters_warn_but_do_not_fail(self, tmp_path, capsys):
        # A benchmark run where a limit tripped: the governed timings
        # include pipe fallbacks or truncations — an informational
        # notice, never an exit-code failure.
        write_history(
            tmp_path,
            [make_record() for _ in range(3)]
            + [make_record(resource_counters=(4, 2))],
        )
        assert check(tmp_path) == 0
        out = capsys.readouterr().out
        assert "degraded=4, truncated=2" in out
        assert "notice: nonzero governance counters" in out

    def test_records_predating_e13h_stay_silent(self, tmp_path, capsys):
        write_history(
            tmp_path,
            [make_record(fleet_counters=(0, 0)) for _ in range(3)],
        )
        assert check(tmp_path) == 0
        out = capsys.readouterr().out
        assert "resource-counters" not in out
        assert "fleet-counters" in out  # the older report still prints


    def test_retired_columns_are_not_reported(self, tmp_path, capsys):
        # Records written after the shared-memory transport's removal
        # have no E13h ``degraded`` and no E13i ``orphans`` column; the
        # reports name only the columns a record has.
        record = make_record(
            resource_counters=(0, 0), store_counters=(1, 0, 0)
        )
        for experiment in record["experiments"]:
            for table in experiment["tables"]:
                for column in ("degraded", "orphans"):
                    if column in table["headers"]:
                        idx = table["headers"].index(column)
                        del table["headers"][idx]
                        for row in table["rows"]:
                            del row[idx]
        write_history(tmp_path, [make_record(), record])
        assert check(tmp_path) == 0
        out = capsys.readouterr().out
        assert "resource-counters]: newest" in out
        assert "truncated=0" in out and "degraded" not in out
        assert "hits=2, corrupt=0" in out and "orphans" not in out


class TestStoreCounters:
    """The informational hits/corrupt/orphans report (PR 8 E13i)."""

    def test_table_total_sums_counter_rows(self):
        record = make_record(store_counters=(1, 2, 3))
        assert table_total(record, "E13", "E13i", "hits") == 2  # 1 + 1
        assert table_total(record, "E13", "E13i", "corrupt") == 2
        assert table_total(record, "E13", "E13i", "orphans") == 3
        assert table_total(make_record(), "E13", "E13i", "hits") is None

    def test_clean_counters_reported_without_notice(self, tmp_path, capsys):
        write_history(
            tmp_path,
            [make_record(), make_record(store_counters=(1, 0, 0))],
        )
        assert check(tmp_path) == 0
        out = capsys.readouterr().out
        assert "store-counters" in out
        assert "hits=2, corrupt=0, orphans=0" in out
        assert "notice" not in out

    def test_recovery_counters_warn_but_do_not_fail(self, tmp_path, capsys):
        # A run that revived a corrupt entry or swept crash leftovers:
        # its warm-register timings include recovery work — a
        # data-quality notice, never an exit-code failure.
        write_history(
            tmp_path,
            [make_record() for _ in range(3)]
            + [make_record(store_counters=(1, 1, 2))],
        )
        assert check(tmp_path) == 0
        out = capsys.readouterr().out
        assert "hits=2, corrupt=1, orphans=2" in out
        assert "notice: nonzero store recovery counters" in out

    def test_records_predating_e13i_stay_silent(self, tmp_path, capsys):
        write_history(
            tmp_path,
            [make_record(resource_counters=(0, 0)) for _ in range(3)],
        )
        assert check(tmp_path) == 0
        out = capsys.readouterr().out
        assert "store-counters" not in out
        assert "resource-counters" in out  # the older report still prints


class TestBackendComparison:
    """The informational E13k backend head-to-head report (PR 10)."""

    def test_newest_record_rows_reported(self, tmp_path, capsys):
        write_history(
            tmp_path,
            [make_record()]
            + [
                make_record(
                    backend_rows=[
                        ("serial", 1, 1800.0),
                        ("thread", 4, 1500.0),
                        ("process", 4, 3600.0),
                    ]
                )
            ],
        )
        assert check(tmp_path) == 0
        out = capsys.readouterr().out
        assert "backend-comparison" in out
        assert "serial@1w=1800 docs/s" in out
        assert "process@4w=3600 docs/s" in out

    def test_records_predating_e13k_stay_silent(self, tmp_path, capsys):
        write_history(
            tmp_path,
            [make_record(store_counters=(1, 0, 0)) for _ in range(3)],
        )
        assert check(tmp_path) == 0
        out = capsys.readouterr().out
        assert "backend-comparison" not in out
        assert "store-counters" in out  # the older report still prints


class TestCli:
    def test_missing_dir_skips_cleanly(self, tmp_path, capsys):
        # A freshly reset trajectory has no results dir (or an empty
        # one) on its first post-reset run: the gate must skip with a
        # clear message, not crash the perf-trajectory job.
        assert main(["--results-dir", str(tmp_path / "nope")]) == 0
        assert "gate skipped" in capsys.readouterr().out

    def test_empty_dir_skips_cleanly(self, tmp_path, capsys):
        assert main(["--results-dir", str(tmp_path)]) == 0
        assert "gate skipped" in capsys.readouterr().out

    def test_custom_single_gate(self, tmp_path):
        write_history(
            tmp_path,
            [make_record() for _ in range(3)] + [make_record(fused_s=0.09)],
        )
        # Custom gate watching only E13 (higher-is-better): passes even
        # though the default E10d gate would fail this history.
        assert (
            main(
                [
                    "--results-dir", str(tmp_path),
                    "--experiment", "E13",
                    "--table-prefix", "E13a",
                    "--column", "compiled docs/s",
                ]
            )
            == 0
        )
        # The same history under the default gates fails.
        assert main(["--results-dir", str(tmp_path)]) == 1

    def test_partial_custom_gate_flags_rejected(self, tmp_path):
        write_history(tmp_path, [make_record(), make_record()])
        with pytest.raises(SystemExit):
            main(["--results-dir", str(tmp_path), "--experiment", "E13"])

    def test_default_gate_count(self):
        assert [g.name for g in default_gates()] == [
            "e13-docs-per-sec",
            "e10d-fused-seconds",
            "e13j-fused-speedup",
            "peak-rss-kib",
            "peak-rss-children-kib",
        ]
