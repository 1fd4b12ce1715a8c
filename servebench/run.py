"""Serving benchmark for the spanner fleet.

Usage, from the root of a checkout:

    python3 servebench/run.py --workload dense-logs --seed 1 --seconds 20 --trace 0

Workloads (``workloads.py``): ``dense-logs``, ``sparse-articles`` and
``join-windows``.  One run generates its inputs from ``--seed``,
computes every request's reference with bare in-driver engines, sets
the fleet up several times, then drives a closed loop through the
public ``SpannerService`` API for ``--seconds`` seconds and checks every
response against its reference, in content and order.

``--trace 0`` prints the end-to-end metrics:

* ``docs_per_s`` — documents completed per second: the median over ten
  blocks of consecutive completions in the timed window;
* ``latency_p50_ms`` / ``latency_p90_ms`` — per request, from the
  ``submit`` call until its last result is available (the sample count
  is on the report line);
* ``setup_s`` — the median of the run's set-ups, each from constructing
  the service through ``register`` (a cold compile) and ``start`` to
  one warm-up request of one document per worker;
* ``peak_rss_mb`` — the driver's ``ru_maxrss`` plus the workers' last
  RSS from ``health()``;
* ``success_rate`` — one minus the share of requests that raised, timed
  out, were refused or differed from their reference.

``--trace 1`` instead prints the per-layer metrics: spans opened by
this benchmark around calls into each layer (set-up, a stage-split
replay of every pooled request, the serving loop), reduced to self
times that reconcile with the traced wall time.  Spans are written to
``.servebench/trace-<workload>-<seed>.json`` in the checkout.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it record the input properties and the stdlib-``re`` ceiling.
The run exits non-zero when the program cannot be imported, when any
response or replay differs from its reference, or when a worker process
or a ``/dev/shm/sjdoc-*`` segment survives the run.

Temporary files of the fleet (the shared-memory transport's session
pidfiles) go to ``.servebench/tmp`` in the checkout, so a run writes
nothing outside it; the transport's start-up sweep then treats
``sjdoc`` segments of fleets using another temporary directory as
orphans, so do not run the benchmark beside another live fleet.

Self-test: ``python3 -m pytest servebench/selftest.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".servebench"


def _prepare_environment() -> None:
    """Point imports at the checkout's ``src`` and temp files into it."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        sys.stderr.write(
            f"servebench: no program to measure under {ROOT / 'src'}\n"
        )
        sys.exit(2)
    tmp = OUT / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    import tempfile

    tempfile.tempdir = str(tmp)
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT))


def _terminate(signum, _frame) -> None:
    raise SystemExit(128 + signum)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _prepare_environment()
    # A terminated run unwinds through its ``finally`` blocks, so the
    # fleet's worker processes are stopped instead of orphaned.
    signal.signal(signal.SIGTERM, _terminate)

    from servebench.bench import run_workload
    from servebench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(
            f"unknown workload {args.workload!r}; "
            f"choose from {sorted(WORKLOADS)}"
        )
    result = run_workload(
        WORKLOADS[args.workload],
        seed=args.seed,
        seconds=args.seconds,
        trace=bool(args.trace),
        trace_path=OUT / f"trace-{args.workload}-{args.seed}.json",
    )
    for line in result.report:
        print(line)
    print(json.dumps(result.summary()))
    return 0 if result.correct else 1


if __name__ == "__main__":
    sys.exit(main())
