"""Multi-query fusion: many registered queries served by one task.

The serving fleet registers many queries; serving a batch to Q of them
as Q separate submissions pays Q times for everything around the
evaluation — chunk packing and transport, worker decode, dispatch, the
result round-trip.  This module fuses a registered query *set* into a
single engine with the UCQ perspective of §2.3/Theorem 3.11: a union
whose disjuncts stay tagged with the query they came from, each
evaluated on its own, demultiplexed on the way out.

The per-document work is **not** shared: every member runs its own
Theorem 3.3 sweep (:func:`repro.enumeration.graph.build_evaluation_graph`
via :meth:`CompiledSpanner.stream`) and its own radix enumeration, so
each member's tuple stream is byte-identical to a solo evaluation.
What a fused task shares is the transport, decode, dispatch and result
round-trips — and, for equality members, one per-document
:class:`~repro.text.substrings.SubstringIndex` (the rolling-hash index
dominates their per-document setup).

:func:`plan_cohorts` groups members by kind:

* ``sweep`` — :class:`AutomatonTables` members, served through their
  own :class:`CompiledSpanner`;
* ``equality`` — :class:`CompiledEqualityQuery` members, which compile
  a per-document automaton over the shared index;
* ``solo`` — anything else, served by its own engine untouched.

:class:`FusedQuery` is the ship-to-workers artifact (member ids +
member artifacts, sorted by id, explicit pickle contract) and
:class:`FusedEngine` its worker-side materialization.  The fused
artifact-store key (:func:`fused_fingerprint`) hashes the *sorted
member payload fingerprints*, so a warm restart revives the fused
engine whenever the same member set is registered again, in any order.
"""

from __future__ import annotations

import hashlib
from typing import Iterable, Iterator, Sequence

from ..spans import SpanTuple
from ..text.substrings import SubstringIndex
from .compiled import CompiledSpanner
from .equality import CompiledEqualityQuery
from .tables import AutomatonTables

__all__ = [
    "FusedQuery",
    "FusedEngine",
    "fused_fingerprint",
    "fused_query_id",
    "plan_cohorts",
    "plan_submission",
    "FUSED_ID_PREFIX",
]

#: Registry ids of fused pseudo-queries start with this marker so the
#: public surfaces (``queries``, ``health()``, the manifest) can filter
#: them out — a fused engine is fleet plumbing, not a registered query.
FUSED_ID_PREFIX = "fused:"


def fused_fingerprint(member_shas: Iterable[str]) -> str:
    """The artifact-store key of a fused engine.

    Hashes the *sorted* member payload fingerprints, so the key is
    independent of registration order and collides exactly when the
    member set (by compiled artifact bytes) is identical — which is
    when the fused engine is identical.
    """
    digest = hashlib.sha256(
        "\0".join(sorted(member_shas)).encode("ascii")
    ).hexdigest()
    return "f" + digest[:24]


def fused_query_id(member_shas: Iterable[str]) -> str:
    """The registry pseudo-id for a fused engine over these members."""
    digest = hashlib.sha256(
        "\0".join(sorted(member_shas)).encode("ascii")
    ).hexdigest()
    return FUSED_ID_PREFIX + digest[:16]


def plan_submission(
    member_ids: Sequence[str], *, fuse: bool = True
) -> tuple[str, tuple[str, ...]]:
    """The fused-vs-sequential decision of ``SpannerService.submit_all``.

    Fusion pays off only when at least two members share one task.

    Returns ``("fused", ids)`` or ``("sequential", ids)``.
    """
    ids = tuple(member_ids)
    if fuse and len(ids) >= 2:
        return ("fused", ids)
    return ("sequential", ids)


def plan_cohorts(
    members: Sequence[tuple[str, object]],
) -> list[tuple[str, list[tuple[int, object]]]]:
    """Group members into fusion cohorts (see module docstring).

    ``members`` is the fused engine's ``(query_id, artifact)`` list;
    the result pairs each cohort kind — ``sweep``, ``equality`` or
    ``solo`` — with ``(member_index, artifact)`` entries, member order
    preserved inside each cohort.  A ``sweep`` entry is the member's
    :class:`AutomatonTables`.
    """
    cohorts: dict[str, list[tuple[int, object]]] = {}
    for index, (_qid, artifact) in enumerate(members):
        if isinstance(artifact, CompiledSpanner):
            artifact = artifact.tables
        if isinstance(artifact, AutomatonTables):
            kind = "sweep"
        elif isinstance(artifact, CompiledEqualityQuery):
            kind = "equality"
        else:
            kind = "solo"
        cohorts.setdefault(kind, []).append((index, artifact))
    return [
        (kind, cohorts[kind])
        for kind in ("sweep", "equality", "solo")
        if kind in cohorts
    ]


def _equality_stream(
    engine: CompiledEqualityQuery, s: str, index: SubstringIndex
) -> Iterator[SpanTuple]:
    """A lazy per-member equality stream sharing the document's index.

    Lazy on purpose: the per-document compile (``compile_for``) runs on
    first ``next()``, inside the consumer's per-member accounting
    window, so fleet-side fault attribution indicts the right member.
    """
    yield from engine.evaluator(s, index=index)


class FusedQuery:
    """The ship-to-workers artifact of a fused query set.

    ``members`` is a tuple of ``(query_id, artifact)`` pairs sorted by
    query id, where each artifact is exactly what the member's solo
    registration would ship (:class:`AutomatonTables`,
    :class:`CompiledEqualityQuery`, ...).  Sorting makes the pickle —
    and hence the fused store entry — independent of registration
    order, matching :func:`fused_fingerprint`.
    """

    __slots__ = ("members",)

    def __init__(self, members: Sequence[tuple[str, object]]):
        if len(members) < 2:
            raise ValueError("a fused query needs at least 2 members")
        ids = [qid for qid, _ in members]
        if len(set(ids)) != len(ids):
            raise ValueError("fused member query ids must be distinct")
        self.members = tuple(sorted(members, key=lambda m: m[0]))

    @property
    def member_ids(self) -> tuple[str, ...]:
        return tuple(qid for qid, _ in self.members)

    # -- Serialization ------------------------------------------------------
    def __getstate__(self) -> dict:
        return {"members": self.members}

    def __setstate__(self, state: dict) -> None:
        self.members = state["members"]

    def materialize(self) -> "FusedEngine":
        """The evaluating engine (worker-side; also used serially)."""
        return FusedEngine(self)

    def __repr__(self) -> str:
        return f"FusedQuery(members={list(self.member_ids)})"


class FusedEngine:
    """A fused query set, materialized for evaluation.

    Cohorts are planned once at construction; :meth:`streams` then
    yields one lazy tuple iterator per member (member order) per
    document: each tables member's own :meth:`CompiledSpanner.stream`,
    and the equality members' streams over one shared
    :class:`SubstringIndex`.
    """

    __slots__ = ("member_ids", "_engines", "_equality")

    def __init__(self, fused: FusedQuery):
        self.member_ids = fused.member_ids
        #: ``(member_index, engine with .stream)`` for non-equality members.
        self._engines: list[tuple[int, object]] = []
        self._equality: list[tuple[int, CompiledEqualityQuery]] = []
        for kind, entries in plan_cohorts(fused.members):
            if kind == "sweep":
                for index, tables in entries:
                    # Prebuild each member's burst rows exactly as a
                    # solo CompiledSpanner construction would.
                    tables.prebuild_burst()  # type: ignore[attr-defined]
                    spanner = CompiledSpanner.from_tables(tables)  # type: ignore[arg-type]
                    self._engines.append((index, spanner))
            elif kind == "equality":
                self._equality = entries  # type: ignore[assignment]
            else:
                self._engines.extend(entries)

    def streams(self, s: str) -> list[Iterator[SpanTuple]]:
        """One lazy tuple iterator per member (member order) for ``s``.

        Every member runs its own sweep and enumeration on first
        ``next()``; only the equality members' :class:`SubstringIndex`
        is built here, once, and shared.
        """
        out: list[Iterator[SpanTuple]] = [iter(())] * len(self.member_ids)
        for member, engine in self._engines:
            out[member] = engine.stream(s)  # type: ignore[attr-defined]
        if self._equality:
            index = SubstringIndex(s)
            for member, engine in self._equality:
                out[member] = _equality_stream(engine, s, index)
        return out

    def __repr__(self) -> str:
        return (
            f"FusedEngine(members={len(self.member_ids)}, "
            f"equality={len(self._equality)})"
        )
