"""The serving fleet: many queries, one resident pool of workers.

Run:  python examples/serving_fleet.py

A long-running extraction service evaluates *many* registered queries
over continuously arriving documents.  ``SpannerService`` keeps a
queue-fed worker fleet resident across every batch of every query:
each worker receives a query's compiled artifact at most once for its
lifetime, workers are recycled after ``max_tasks_per_worker`` tasks
(results never notice), a crashed worker's tasks re-dispatch to a
healthy one, and an asyncio front-end serves coroutine callers without
blocking the event loop.

The tour below registers three queries — an ERROR-component extractor,
an error-code extractor and a *string-equality* (dedup) query running
the fused equality runtime — and serves them all from one 2-worker
fleet, first through sync futures, then through asyncio — prints the
``health()`` snapshot a liveness endpoint would poll (including its
``resources`` section: shm bytes against the budget, per-worker RSS
and the governance counters) — demonstrates the resource-governance
layer (result caps with the ``truncate`` policy, compile-time
admission control) — then serves a final batch across a forced worker
recycle.
"""

import asyncio

from repro import CompiledSpanner, SpannerService
from repro.queries import CompiledEvaluator, RegexCQ
from repro.text import log_lines

#: Component of an ERROR line (the trailing space pins the full token).
COMPONENT_ATOM = ".*ERROR comp{[a-z]+} .*"

#: The error code a line ends with.
CODE_ATOM = ".*code=c{[0-9]+}"

#: Two codes anywhere in a multi-line log (for the equality selection).
TWO_CODES = [
    "(ε|(.|\\n)*[^0-9])c1{[0-9]+}(\\n(.|\\n)*|ε)",
    "(ε|(.|\\n)*[^0-9])c2{[0-9]+}((.|\\n)*|ε)",
]


def dedup_engine():
    """Fused equality: codes repeating across lines of one log."""
    query = RegexCQ(["c1", "c2"], TWO_CODES, equalities=[("c1", "c2")])
    engine = CompiledEvaluator().equality_runtime(query)
    assert engine is not None
    return engine


def main() -> None:
    # Per-line documents for the extractors, whole multi-line logs for
    # the cross-line dedup query — each log gets one *planted* repeat
    # of its first error code, for the equality query to find.
    lines = log_lines(40, seed=7, error_rate=0.5).split("\n")
    logs = []
    for i in range(6):
        log = log_lines(6, seed=100 + i, error_rate=0.6)
        first_code = log.split("code=")[1].split("\n")[0]
        logs.append(
            f"{log}\n23:59:59 ERROR db retry scheduled code={first_code}"
        )

    with SpannerService(workers=2, chunk_size=8) as service:
        # -- register: fingerprint-keyed, shipped once per worker ----------
        q_comp = service.register(CompiledSpanner(COMPONENT_ATOM))
        q_code = service.register(CompiledSpanner(CODE_ATOM))
        q_dedup = service.register(dedup_engine())
        print(f"registered queries: {service.queries}\n")

        # -- sync front-end: futures, dispatched concurrently --------------
        f_comp = service.submit(lines, queries=q_comp)
        f_code = service.submit(lines, queries=q_code)
        f_dedup = service.submit(logs, queries=q_dedup)

        components = f_comp.result()
        print("ERROR components:")
        for doc, answers in zip(lines, components):
            for mu in answers:
                print(f"  {mu['comp'].extract(doc)}")

        codes = [
            mu["c"].extract(doc)
            for doc, answers in zip(lines, f_code.result())
            for mu in answers
        ]
        print(f"\nerror codes extracted: {len(codes)} ({', '.join(codes[:8])}, ...)")

        print("\ncodes repeating across lines (fused equality):")
        for doc, answers in zip(logs, f_dedup.result()):
            # Distinct spans only: equal substrings at different
            # positions, the ζ^= selection no regular spanner expresses.
            values = sorted(
                {
                    mu["c1"].extract(doc)
                    for mu in answers
                    if mu["c1"] != mu["c2"]
                }
            )
            print(f"  repeated codes: {values if values else '(none)'}")

        # -- asyncio front-end ---------------------------------------------
        async def serve() -> None:
            one, two = await service.gather(
                service.extract(q_comp, lines[:10]),
                service.extract(q_code, lines[:10]),
            )
            hits = sum(map(len, one)) + sum(map(len, two))
            print(f"\nasyncio front-end: {hits} tuples from two queries")

        asyncio.run(serve())
        print(f"fleet stats: {service!r}")

        # -- health snapshot: what a liveness endpoint would poll ----------
        health = service.health()
        print("\nhealth snapshot:")
        backend = health["backend"]
        print(
            f"  backend: {backend['name']} "
            f"(worker model: {backend['worker_model']})"
        )
        for worker in health["workers"]:
            beat = worker["heartbeat_age"]
            print(
                f"  worker {worker['worker_id']} pid={worker['pid']} "
                f"alive={worker['alive']} "
                f"in_flight={worker['tasks_in_flight']} "
                f"served={worker['tasks_assigned']} "
                f"heartbeat={'idle' if beat is None else f'{beat:.2f}s ago'}"
            )
        print(
            f"  backlog={health['backlog_depth']} "
            f"outstanding={health['tasks_outstanding']} "
            f"quarantined={list(health['quarantined_queries']) or 'none'}"
        )
        print(f"  counters: {health['counters']}")
        # The resource-governance view: shm bytes against the budget,
        # degraded-to-pipe episodes, per-worker RSS, and the
        # truncation / rejection / memory-recycle counters.
        res = health["resources"]
        rss = {
            wid: f"{v / 1024 / 1024:.1f}MiB" if v else "?"
            for wid, v in res["worker_rss_bytes"].items()
        }
        print(
            f"  resources: shm_in_flight={res['shm_bytes_in_flight']} "
            f"shm_pooled={res['shm_bytes_pooled']} "
            f"budget={res['shm_budget'] or 'unlimited'} "
            f"degraded_to_pipe={res['degraded_to_pipe']}"
        )
        print(
            f"             worker_rss={rss} "
            f"truncated={res['docs_truncated']} "
            f"result_limited={res['tasks_result_limited']} "
            f"rejected={res['queries_rejected']} "
            f"memory_recycles={res['memory_recycles']}"
        )

    # -- resource governance: caps and admission control -------------------
    from repro.errors import QueryRejectedError
    from repro.runtime import estimate_compile_states

    with SpannerService(
        workers=1, chunk_size=8,
        max_tuples=2, on_result_limit="truncate",
        max_compile_states=estimate_compile_states(CODE_ATOM),
    ) as service:
        # Per-query result caps: at most 2 tuples per document, the
        # truncate policy returning the exact enumeration-order prefix.
        # A lowercase-word extractor yields many tuples per log line,
        # so the cap genuinely bites.
        word_atom = "(ε|.*[^a-z])w{[a-z]+}([^a-z].*|ε)"
        qid = service.register(CompiledSpanner(word_atom))
        capped = service.submit(lines, queries=qid).result()
        truncated = service.health()["resources"]["docs_truncated"]
        print(
            f"\ngovernance: max_tuples=2 (truncate) kept "
            f"{sum(map(len, capped))} tuples, {truncated} docs truncated"
        )
        # Admission control: a formula whose compile-size estimate
        # (Lemma 3.4: <= 2 states per AST node) exceeds the budget is
        # rejected at register() time, before any compilation — no
        # worker ever sees it.
        try:
            service.register(COMPONENT_ATOM)
        except QueryRejectedError as err:
            print(f"governance: oversized query rejected: {err}")

    # -- worker recycling: results are identical across worker churn -------
    with SpannerService(
        workers=2, chunk_size=4, max_tasks_per_worker=2
    ) as service:
        qid = service.register(CompiledSpanner(COMPONENT_ATOM))
        recycled_out = service.submit(lines, queries=qid).result()
        assert recycled_out == components, "recycling changed the answers?!"
        print(
            f"\nrecycle run: {service.workers_recycled} workers recycled, "
            "results byte-identical"
        )


if __name__ == "__main__":
    main()
