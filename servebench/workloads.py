"""The three serving workloads: inputs, queries, references, stage splits.

Every workload is a closed loop from one client thread against the
public ``SpannerService`` API.  Its inputs come from the seed alone: a
pool of requests (cycled through during the timed window) plus one
warm-up request per worker, which is served during set-up and never
inside the timed window.

* ``dense-logs`` — the E13a query (34-word dictionary, 185 prepared
  states) over single log lines, 16 lines per request, on a 1-worker
  serial fleet with one request outstanding.  Engine-bound and
  output-heavy: the sweep and the radix enumeration share the work, and
  every line matches, so a prefilter has nothing to skip.
* ``sparse-articles`` — three fused queries (address, email, a 4-word
  rare-keyword dictionary) over ~3.6 KiB articles, exactly 5% of which
  hold an address or an email; 2 documents per ``submit_all`` request
  on a 2-worker fleet with the default backend (process on GIL builds)
  and two requests outstanding.  Sweep-bound with near-zero output, and
  the only workload through fusion, the process fleet and the
  transport.
* ``join-windows`` — a 2-disjunct UCQ with one string equality per
  disjunct (the same word, or the same number, twice in a window of 4
  log lines), built with ``CompiledEvaluator().equality_runtime`` and
  served on a 1-worker serial fleet, one window per request.  The only
  workload through the equality and substring layers.

Responses and references share one shape: ``{member: [tuples per
document]}``, where a single-query workload has the one member ``"q"``.
"""

from __future__ import annotations

import pickle
import random
import re
from concurrent.futures import Future
from functools import partial

from repro.automata.leveled import RadixEnumerator
from repro.enumeration.enumerator import decode_configuration_word
from repro.enumeration.graph import build_evaluation_graph
from repro.extractors import address_spanner, dictionary_spanner, email_spanner
from repro.queries import CompiledEvaluator, RegexCQ, RegexUCQ
from repro.runtime import (
    AutomatonTables,
    CompiledSpanner,
    FusedEngine,
    FusedQuery,
    SpannerService,
)
from repro.runtime.cache import LRUCache
from repro.runtime.fusion import plan_cohorts
from repro.text import SubstringIndex, log_lines, sentences
from repro.vset import compile_regex

from .tracer import NullTracer

#: The E13a dictionary: log keywords plus a service-name vocabulary.
DICTIONARY = [
    "disk", "net", "auth", "db", "cache", "ERROR", "INFO", "timeout",
    "retry", "request", "connection", "checksum", "scheduled",
    "completed", "reset", "exceeded", "mismatch", "code",
] + [f"svc{i}" for i in range(16)]

#: Keywords that the article vocabulary never produces by itself.
RARE_KEYWORDS = ["arson", "burglary", "fraud", "warrant"]

_EMAIL_USERS = ("ada", "alan", "grace", "edsger", "barbara")
_EMAIL_DOMAINS = ("example.com", "mail.net", "research.org")

#: A word (number) followed later in the document by the same word
#: (number); both are whole tokens, x strictly before y.
WORD_PAIR = "(ε|.*[^a-z])x{[a-z]+}[^a-z](.*[^a-z])?y{[a-z]+}([^a-z].*|ε)"
NUMBER_PAIR = "(ε|.*[^0-9])x{[0-9]+}[^0-9](.*[^0-9])?y{[0-9]+}([^0-9].*|ε)"


#: Warm-up documents come from this fixed seed, so that set-up time,
#: which includes serving them, does not vary with the workload seed.
WARMUP_SEED = 0


def _label_key(config):
    return config.sort_key()


def stage_split(automaton, tables, s, tracer):
    """``CompiledSpanner.stream`` as three separately timed stages.

    The sweep with ``prune`` (``build_evaluation_graph``), the radix
    enumeration of configuration words and their decoding — the same
    calls in the same order, so the tuples equal the engine's.
    Returns ``(graph, tuples)``.
    """
    with tracer.span("enumeration.graph"):
        graph = build_evaluation_graph(automaton, s, tables)
    with tracer.span("automata.leveled.enum"):
        words = list(RadixEnumerator(graph.leveled, _label_key))
    with tracer.span("enumeration.enumerator.decode"):
        variables = graph.variables
        tuples = [decode_configuration_word(w, variables) for w in words]
    return graph, tuples


class GraphCounts:
    """Exact work counts of the per-document sweeps."""

    __slots__ = ("nodes", "edges", "chars", "doc_states")

    def __init__(self) -> None:
        self.nodes = 0
        self.edges = 0
        self.chars = 0
        self.doc_states = 0

    def add(self, graphs) -> None:
        """Count one document's graphs; ``chars`` is how far the shared
        character loop ran (the deepest level any graph reached)."""
        deepest = 0
        for graph in graphs:
            leveled = graph.leveled
            self.nodes += leveled.n_nodes
            self.edges += leveled.n_edges
            deepest = max(deepest, max(leveled.level_of, default=1) - 1)
        self.chars += deepest


class Inputs:
    """A workload's seeded inputs."""

    __slots__ = ("requests", "warmup")

    def __init__(self, requests: list[list[str]], warmup: list[list[str]]):
        self.requests = requests
        self.warmup = warmup

    @property
    def docs(self) -> list[str]:
        return [doc for request in self.requests for doc in request]


class Workload:
    """One traffic mix; subclasses fill in the queries and inputs."""

    name: str
    why: str
    workers: int
    backend: str  # passed to SpannerService (the default is "auto")
    outstanding: int
    docs_per_request: int
    pool_requests: int
    #: Set-ups per run; ``setup_s`` is their median.
    setups: int

    def service(self) -> SpannerService:
        return SpannerService(workers=self.workers, backend=self.backend)

    # -- Inputs ---------------------------------------------------------------
    def make_inputs(self, seed: int, n_requests: int | None = None) -> Inputs:
        raise NotImplementedError

    # -- Serving --------------------------------------------------------------
    def register(self, service: SpannerService, tracer):
        """Register the workload's queries (a cold compile); returns a
        ``submit(docs) -> {member: Future}`` callable."""
        raise NotImplementedError

    # -- References -----------------------------------------------------------
    def reference_engines(self):
        """Bare in-driver engines, compiled independently of the fleet."""
        raise NotImplementedError

    def reference(self, engines, docs: list[str]) -> dict[str, list]:
        raise NotImplementedError

    def re_patterns(self) -> list[re.Pattern]:
        """stdlib ``re`` patterns for the labelled ceiling (different
        semantics: leftmost non-overlapping matches, not all spans)."""
        raise NotImplementedError

    # -- Stage split ----------------------------------------------------------
    def replay(self, engines, docs: list[str], tracer) -> dict[str, list]:
        """The request's work as timed stages, output as ``reference``."""
        raise NotImplementedError

    def count(self, engines, docs: list[str], counts: GraphCounts) -> None:
        """Exact sweep counts for ``docs`` (an untimed pass)."""
        raise NotImplementedError

    # -- Set-up layers --------------------------------------------------------
    def compile_layers(self, tracer) -> dict:
        """Parse, compile and build tables from the benchmark, one span
        per layer; returns ``{"states": ..., "artifact_bytes": ...}``."""
        raise NotImplementedError


def _single(future: Future) -> dict[str, Future]:
    return {"q": future}


class DenseLogs(Workload):
    name = "dense-logs"
    why = (
        "engine-bound and output-heavy (every line matches): sweep+prune "
        "and radix enumeration split the work; a prefilter must show no "
        "change here"
    )
    workers = 1
    backend = "serial"
    outstanding = 1
    docs_per_request = 16
    pool_requests = 150
    setups = 15

    def make_inputs(self, seed, n_requests=None):
        n = self.pool_requests if n_requests is None else n_requests
        per = self.docs_per_request
        lines = log_lines(n * per, seed=seed).split("\n")
        requests = [lines[i * per:(i + 1) * per] for i in range(n)]
        warmup = log_lines(self.workers, seed=WARMUP_SEED).split("\n")
        return Inputs(requests, [[line] for line in warmup])

    def register(self, service, tracer):
        with tracer.span("regex.parse"):
            formula = dictionary_spanner(DICTIONARY)
        with tracer.span("runtime.service.register"):
            qid = service.register(formula)
        return lambda docs: _single(service.submit(docs, queries=qid))

    def reference_engines(self):
        return CompiledSpanner(dictionary_spanner(DICTIONARY))

    def reference(self, engines, docs):
        return {"q": list(engines.evaluate_many(docs))}

    def re_patterns(self):
        words = "|".join(DICTIONARY)
        return [re.compile(rf"(?<![A-Za-z0-9])(?:{words})(?![A-Za-z0-9])")]

    def replay(self, engines, docs, tracer):
        out = []
        for s in docs:
            out.append(stage_split(engines.automaton, engines.tables, s, tracer)[1])
        return {"q": out}

    def count(self, engines, docs, counts):
        for s in docs:
            counts.add([build_evaluation_graph(engines.automaton, s, engines.tables)])

    def compile_layers(self, tracer):
        with tracer.span("regex.parse"):
            formula = dictionary_spanner(DICTIONARY)
        with tracer.span("vset.compile"):
            automaton = compile_regex(formula)
        with tracer.span("runtime.tables.build"):
            tables = AutomatonTables(automaton, compact=True)
            tables.prebuild_burst()
        with tracer.span("runtime.tables.pickle"):
            artifact = pickle.dumps(tables, protocol=pickle.HIGHEST_PROTOCOL)
        return {
            "states": tables.automaton.n_states,
            "artifact_bytes": len(artifact),
        }


def _article(rng: random.Random, plant: str | None) -> str:
    """A ~3.6 KiB article; ``plant`` is None, "address" or "email"."""
    seed = rng.randrange(1 << 30)
    if plant == "address":
        # One sentence carries an address and a rare keyword, the
        # shape of the paper's introduction example.
        return sentences(
            100, seed=seed, plant_addresses=1,
            plant_keyword=rng.choice(RARE_KEYWORDS),
        )
    text = sentences(100, seed=seed)
    if plant == "email":
        words = text.split(" ")
        email = f"{rng.choice(_EMAIL_USERS)}@{rng.choice(_EMAIL_DOMAINS)}"
        words.insert(rng.randrange(1, len(words)), email)
        text = " ".join(words)
    return text


class SparseArticles(Workload):
    name = "sparse-articles"
    why = (
        "sweep-bound with near-zero output; the only workload through "
        "fusion, the process fleet and the transport, so a prefilter or "
        "dispatch change shows here"
    )
    workers = 2
    backend = "auto"
    outstanding = 2
    docs_per_request = 2
    pool_requests = 30
    setups = 9
    #: Exactly this share of the pool's documents holds an address or
    #: an email (alternately); the rest match nothing.
    match_share = 0.05

    #: Member name -> the extractor that parses its formula.
    extractors = {
        "address": address_spanner,
        "email": email_spanner,
        "keyword": partial(dictionary_spanner, RARE_KEYWORDS),
    }

    def formulas(self):
        return {member: parse() for member, parse in self.extractors.items()}

    def make_inputs(self, seed, n_requests=None):
        n = self.pool_requests if n_requests is None else n_requests
        n_docs = n * self.docs_per_request
        rng = random.Random(seed)
        planted = rng.sample(
            range(n_docs), max(1, round(self.match_share * n_docs))
        )
        kinds = {
            index: ("address", "email")[rank % 2]
            for rank, index in enumerate(sorted(planted))
        }
        docs = [_article(rng, kinds.get(i)) for i in range(n_docs)]
        per = self.docs_per_request
        requests = [docs[i * per:(i + 1) * per] for i in range(n)]
        rng = random.Random(WARMUP_SEED)
        warmup = [[_article(rng, None)] for _ in range(self.workers)]
        return Inputs(requests, warmup)

    def register(self, service, tracer):
        qids = {}
        for member, extractor in self.extractors.items():
            with tracer.span("regex.parse"):
                formula = extractor()
            with tracer.span("runtime.service.register"):
                qids[member] = service.register(formula)
        names = {qid: member for member, qid in qids.items()}
        ordered = list(qids.values())

        def submit(docs):
            futures = service.submit_all(docs, queries=ordered)
            return {names[qid]: future for qid, future in futures.items()}

        return submit

    def reference_engines(self):
        spanners = {
            member: CompiledSpanner(formula)
            for member, formula in self.formulas().items()
        }
        fused = FusedEngine(
            FusedQuery([(m, sp.tables) for m, sp in spanners.items()])
        )
        return spanners, fused

    def reference(self, engines, docs):
        spanners, _fused = engines
        return {
            member: list(spanner.evaluate_many(docs))
            for member, spanner in spanners.items()
        }

    def re_patterns(self):
        word = "[A-Z][a-z]+"
        return [
            re.compile(rf"{word}(?: {word})* [0-9]+, [0-9]+ {word}, {word}"),
            re.compile(r"(?:(?<= )|^)[a-z0-9]+@[a-z0-9]+\.[a-z0-9]+(?= |$)"),
            re.compile(
                rf"(?<![A-Za-z0-9])(?:{'|'.join(RARE_KEYWORDS)})"
                r"(?![A-Za-z0-9])"
            ),
        ]

    def replay(self, engines, docs, tracer):
        _spanners, fused = engines
        order = fused.member_ids
        out = {member: [] for member in order}
        for s in docs:
            with tracer.span("runtime.fusion.sweep"):
                streams = fused.streams(s)
            with tracer.span("runtime.fusion.drain"):
                for member, stream in zip(order, streams):
                    out[member].append(list(stream))
        return out

    def count(self, engines, docs, counts):
        # The fused sweep builds, node for node, the graphs the solo
        # construction builds; count those.
        spanners, _fused = engines
        for s in docs:
            counts.add([
                build_evaluation_graph(sp.automaton, s, sp.tables)
                for sp in spanners.values()
            ])

    def cohorts(self, engines) -> int:
        spanners, _fused = engines
        members = [(m, sp.tables) for m, sp in spanners.items()]
        return sum(1 for kind, _ in plan_cohorts(members) if kind.startswith("sweep"))

    def compile_layers(self, tracer):
        states = 0
        artifact_bytes = 0
        for extractor in self.extractors.values():
            with tracer.span("regex.parse"):
                formula = extractor()
            with tracer.span("vset.compile"):
                automaton = compile_regex(formula)
            with tracer.span("runtime.tables.build"):
                tables = AutomatonTables(automaton, compact=True)
                tables.prebuild_burst()
            with tracer.span("runtime.tables.pickle"):
                artifact = pickle.dumps(tables, protocol=pickle.HIGHEST_PROTOCOL)
            states += tables.automaton.n_states
            artifact_bytes += len(artifact)
        return {"states": states, "artifact_bytes": artifact_bytes}


def join_query() -> RegexUCQ:
    """Same word, or same number, twice in one document (x before y)."""
    return RegexUCQ([
        RegexCQ(["x", "y"], [WORD_PAIR], equalities=[("x", "y")]),
        RegexCQ(["x", "y"], [NUMBER_PAIR], equalities=[("x", "y")]),
    ])


def equality_engine(query: RegexUCQ):
    """A cold ``equality_runtime`` build (a private compile cache, so a
    repeated set-up never reuses an earlier compilation)."""
    return CompiledEvaluator(cache=LRUCache(16)).equality_runtime(query)


class JoinWindows(Workload):
    name = "join-windows"
    why = (
        "the only workload through the string-equality join and substring "
        "layers (tables built per document); guards the paper's joins"
    )
    workers = 1
    backend = "serial"
    outstanding = 1
    docs_per_request = 1
    pool_requests = 60
    setups = 15
    lines_per_window = 4

    def make_inputs(self, seed, n_requests=None):
        n = self.pool_requests if n_requests is None else n_requests
        return Inputs(
            [[w] for w in self._windows(n, seed)],
            [[w] for w in self._windows(self.workers, WARMUP_SEED)],
        )

    def _windows(self, n: int, seed: int) -> list[str]:
        per = self.lines_per_window
        lines = log_lines(n * per, seed=seed).split("\n")
        return ["\n".join(lines[i * per:(i + 1) * per]) for i in range(n)]

    def register(self, service, tracer):
        with tracer.span("regex.parse"):
            query = join_query()
        with tracer.span("queries.equality_runtime"):
            engine = equality_engine(query)
        with tracer.span("runtime.service.register"):
            qid = service.register(engine)
        return lambda docs: _single(service.submit(docs, queries=qid))

    def reference_engines(self):
        return equality_engine(join_query())

    def reference(self, engines, docs):
        return {"q": list(engines.evaluate_many(docs))}

    def re_patterns(self):
        return [
            re.compile(r"(?<![a-z])([a-z]+)(?![a-z]).*?(?<![a-z])\1(?![a-z])", re.S),
            re.compile(r"(?<![0-9])([0-9]+)(?![0-9]).*?(?<![0-9])\1(?![0-9])", re.S),
        ]

    def _doc_stages(self, engine, s, tracer):
        with tracer.span("text.substrings.index"):
            index = SubstringIndex(s)
        with tracer.span("runtime.equality.compile_for"):
            automaton = engine.compile_for(s, index=index)
        with tracer.span("runtime.tables.doc_build"):
            tables = AutomatonTables(automaton)
        graph, tuples = stage_split(automaton, tables, s, tracer)
        return automaton, graph, tuples

    def replay(self, engines, docs, tracer):
        return {"q": [self._doc_stages(engines, s, tracer)[2] for s in docs]}

    def count(self, engines, docs, counts):
        for s in docs:
            automaton, graph, _tuples = self._doc_stages(engines, s, NullTracer())
            counts.add([graph])
            counts.doc_states += automaton.n_states

    def compile_layers(self, tracer):
        with tracer.span("regex.parse"):
            query = join_query()
        with tracer.span("vset.compile"):
            states = sum(
                compile_regex(atom.formula).n_states
                for cq in query
                for atom in cq.regex_atoms
            )
        with tracer.span("queries.equality_runtime"):
            engine = equality_engine(query)
        with tracer.span("runtime.tables.pickle"):
            artifact = pickle.dumps(engine, protocol=pickle.HIGHEST_PROTOCOL)
        return {"states": states, "artifact_bytes": len(artifact)}


WORKLOADS: dict[str, Workload] = {
    w.name: w for w in (DenseLogs(), SparseArticles(), JoinWindows())
}
