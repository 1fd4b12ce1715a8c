"""Experiment harness: ``python -m benchmarks.harness <exp-id|all>``.

Prints the paper-shaped tables for every experiment in the DESIGN.md
index.  Timing numbers are machine-dependent; the *shapes* (slopes,
orderings, crossovers) are what EXPERIMENTS.md records against the
paper's claims.

``--json PATH`` additionally writes machine-readable per-experiment
timings and tables, so CI runs can record ``BENCH_*.json`` performance
trajectories across commits (checked for regressions by
``benchmarks.check_regression``).  Each record also stamps the
process's peak RSS after the experiment (``peak_rss_kb``, and
``peak_rss_children_kb`` for the worker processes of the multiprocess
experiments), so the trajectory tracks memory alongside throughput.
The full record schema is documented in ``benchmarks/results/README.md``
— the single place to look up what each field means.
"""

from __future__ import annotations

import argparse
import json
import platform
import subprocess
import sys
import time

try:
    import resource
except ImportError:  # pragma: no cover - non-POSIX platforms
    resource = None  # type: ignore[assignment]

from . import (
    bench_e1_delay,
    bench_e2_compile,
    bench_e3_functional,
    bench_e4_sat,
    bench_e5_clique,
    bench_e6_canonical,
    bench_e7_join,
    bench_e8_kucq,
    bench_e9_keyattr,
    bench_e10_equality,
    bench_e11_w1,
    bench_e12_strategies,
    bench_e13_runtime,
    fig1_ag,
)
from .common import available_cpus

EXPERIMENTS = {
    "E1": (bench_e1_delay, "Thm 3.3: polynomial-delay enumeration"),
    "E2": (bench_e2_compile, "Lemma 3.4: linear regex->vset compilation"),
    "E3": (bench_e3_functional, "Thms 2.4/2.7: functionality tests"),
    "E4": (bench_e4_sat, "Thm 3.1: 3CNF on a single character"),
    "E5": (bench_e5_clique, "Thm 3.2: gamma-acyclic clique hardness"),
    "E6": (bench_e6_canonical, "Thm 3.5: canonical strategy"),
    "E7": (bench_e7_join, "Lemma 3.10: join construction"),
    "E8": (bench_e8_kucq, "Thm 3.11: k-UCQ polynomial delay"),
    "E9": (bench_e9_keyattr, "Prop 3.6: key attributes"),
    "E10": (bench_e10_equality, "Thm 5.4/Cor 5.5: string equalities"),
    "E11": (bench_e11_w1, "Thm 5.2: W[1]-hardness in |q|"),
    "E12": (bench_e12_strategies, "strategy ablation"),
    "E13": (bench_e13_runtime, "compiled-spanner runtime amortization"),
    "F1": (fig1_ag, "Figure 1 / Appendix A.3 regeneration"),
}


def _jsonable(value: object) -> object:
    """Coerce a table cell to something ``json.dump`` accepts."""
    if isinstance(value, (int, float, str, bool)) or value is None:
        return value
    return str(value)


def _peak_rss_kb() -> tuple[int | None, int | None]:
    """Peak RSS of this process and of its reaped children, in KiB.

    ``ru_maxrss`` is a high-water mark, so per-experiment values are
    "peak so far" — monotonically non-decreasing across the run; the
    per-experiment deltas still show which experiment first pushed the
    ceiling.  Linux reports KiB (normalized here; macOS reports bytes).
    ``(None, None)`` where :mod:`resource` is unavailable.
    """
    if resource is None:
        return None, None
    scale = 1024 if sys.platform == "darwin" else 1
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss // scale
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss // scale
    return own, children


def _git_sha() -> str | None:
    """The commit the timings describe (None outside a git checkout).

    Recorded in the ``--json`` payload so committed ``BENCH_*.json``
    trajectory files stay self-identifying even if renamed.
    """
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            check=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def _cpu_model() -> str:
    """The CPU's model name (``/proc/cpuinfo`` on Linux), falling back
    to :func:`platform.processor` and then the architecture."""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                key, _, value = line.partition(":")
                if key.strip() == "model name" and value.strip():
                    return value.strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def host_fingerprint() -> dict:
    """What makes two records' timings comparable: the CPU model and
    the CPUs available to the run.  ``check_regression``'s timing gates
    compare only records with equal fingerprints."""
    return {"cpu_model": _cpu_model(), "cpu_count": available_cpus()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="benchmarks.harness",
        description="Reproduce the paper's per-theorem experiments.",
    )
    parser.add_argument(
        "experiments",
        nargs="*",
        default=["all"],
        help="experiment ids (E1..E13, F1) or 'all'",
    )
    parser.add_argument(
        "--json",
        metavar="PATH",
        help="write machine-readable per-experiment timings and tables",
    )
    args = parser.parse_args(argv)
    wanted = args.experiments
    if not wanted or "all" in wanted:
        wanted = list(EXPERIMENTS)
    unknown = [e for e in wanted if e not in EXPERIMENTS]
    if unknown:
        parser.error(f"unknown experiments: {unknown}")
    records = []
    for exp in wanted:
        module, description = EXPERIMENTS[exp]
        print(f"\n### {exp} — {description}")
        start = time.perf_counter()
        tables = []
        for table in module.run():
            tables.append(table)
            print()
            print(table.render())
        elapsed = time.perf_counter() - start
        peak_rss_kb, peak_rss_children_kb = _peak_rss_kb()
        print(f"\n[{exp} completed in {elapsed:.1f}s]")
        records.append(
            {
                "experiment": exp,
                "description": description,
                "seconds": elapsed,
                "peak_rss_kb": peak_rss_kb,
                "peak_rss_children_kb": peak_rss_children_kb,
                "tables": [
                    {
                        "title": table.title,
                        "headers": list(table.headers),
                        "rows": [
                            [_jsonable(v) for v in row] for row in table.rows
                        ],
                        "notes": list(table.notes),
                    }
                    for table in tables
                ],
            }
        )
    if args.json:
        payload = {
            "unix_time": time.time(),
            "git_sha": _git_sha(),
            "python": platform.python_version(),
            "machine": platform.machine(),
            "host": host_fingerprint(),
            "experiments": records,
        }
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2)
            handle.write("\n")
        print(f"\n[wrote {args.json}]")
    return 0


if __name__ == "__main__":
    sys.exit(main())
