"""Result and statistics types shared by the search algorithms."""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields
from typing import Iterator

__all__ = ["ENVELOPE_VERSION", "MSTMatch", "SearchStats", "SearchResult"]

#: Version tag of the SearchResult JSON envelope shared by
#: ``repro batch``, ``repro serve`` and the bench harnesses.
ENVELOPE_VERSION = 1


@dataclass(frozen=True, slots=True)
class MSTMatch:
    """One answer of a (k-)MST search.

    ``dissim`` is the trapezoid-approximated DISSIM; the exact metric
    lies in ``[dissim - error_bound, dissim]`` (Lemma 1 is one-sided).
    ``exact`` is ``False`` only in the rare case the paper's Section
    4.4 discusses: the search terminated while this candidate was still
    partially retrieved, so ``dissim`` is a certified *upper* bound
    (its PESDISSIM) rather than a measured value.
    """

    trajectory_id: int
    dissim: float
    error_bound: float = 0.0
    exact: bool = True

    @property
    def lower(self) -> float:
        return self.dissim - self.error_bound

    @property
    def upper(self) -> float:
        return self.dissim


@dataclass
class SearchStats:
    """Observability block returned next to every BFMST answer.

    ``pruning_power`` is the paper's "pruned space": the fraction of
    index nodes the search never touched.

    The fields after ``refinement_candidates`` are filled only when the
    query runs under a live :func:`repro.obs.query_trace` (they are
    harvested from the trace's registry); without one they stay at
    their zero defaults.  ``candidates_rejected`` *is* the Heuristic 1
    rejection count; ``terminated_early`` flags Heuristic 2, and
    ``h2_termination_depth`` records how many nodes had been dequeued
    when it fired (0 = ran to exhaustion).
    """

    node_accesses: int = 0
    leaf_accesses: int = 0
    internal_accesses: int = 0
    entries_processed: int = 0
    candidates_created: int = 0
    candidates_completed: int = 0
    candidates_rejected: int = 0
    dissim_evaluations: int = 0
    total_nodes: int = 0
    buffer_hits: int = 0
    buffer_misses: int = 0
    checksum_failures: int = 0
    terminated_early: bool = False
    refinement_candidates: int = 0
    # signature filter tier (all zero when no sidecar is attached):
    # bound evaluations against a finite threshold, candidates proven
    # out before their first page touch and whole leaf pages skipped
    # unread.
    signature_checks: int = 0
    signature_pruned: int = 0
    leaf_skips: int = 0
    # Always 0: refinement no longer consults the signatures.  Kept so
    # that readers of the wire form and the stats block still find it.
    refinement_skipped: int = 0
    # --- trace-harvested enrichment (zero without a live QueryTrace) ---
    mindist_evaluations: int = 0
    heap_high_water: int = 0
    exact_integral_evals: int = 0
    trapezoid_evals: int = 0
    h2_termination_depth: int = 0
    # kernel usage: how much of the query ran batched.
    # kernel_batches / kernel_segments count segment-DISSIM batches and
    # the windows they covered; mindist_batched counts the MINDIST
    # batches, one per expanded node.
    kernel_batches: int = 0
    kernel_segments: int = 0
    mindist_batched: int = 0
    extra: dict = field(default_factory=dict)

    @property
    def pruning_power(self) -> float:
        """``1 - touched/total`` in [0, 1]; 0 for an empty index."""
        if self.total_nodes <= 0:
            return 0.0
        touched = min(self.node_accesses, self.total_nodes)
        return 1.0 - touched / self.total_nodes

    @property
    def buffer_hit_ratio(self) -> float:
        """Buffer hit ratio of this query's page traffic in [0, 1]."""
        total = self.buffer_hits + self.buffer_misses
        return self.buffer_hits / total if total else 0.0

    def accumulate(self, part: "SearchStats") -> None:
        """Fold one part's (shard's, generation's) counters into this
        aggregate: every counter adds, ``terminated_early`` ORs and the
        two high-water marks take the maximum.  ``total_nodes`` and
        ``extra`` stay the aggregate's own, so pruning power is
        measured against the whole collection."""
        for name in _ACCUMULATED:
            mine, theirs = getattr(self, name), getattr(part, name)
            if name in ("heap_high_water", "h2_termination_depth"):
                value = max(mine, theirs)
            elif name == "terminated_early":
                value = mine or theirs
            else:
                value = mine + theirs
            setattr(self, name, value)

    def filter_counters(self) -> dict[str, int]:
        """This query's signature-filter work under the ``filter.*``
        metric names — empty when the filter did nothing, so a session
        that never filters grows no ``filter.*`` keys."""
        counters = {
            "filter.signature_checks": self.signature_checks,
            "filter.pruned": self.signature_pruned,
            "filter.leaf_skips": self.leaf_skips,
        }
        return counters if any(counters.values()) else {}

    def as_dict(self) -> dict:
        """All fields plus the derived ratios, JSON-ready."""
        out = asdict(self)
        out["pruning_power"] = self.pruning_power
        out["buffer_hit_ratio"] = self.buffer_hit_ratio
        return out

    def to_json(self, indent: int | None = None) -> str:
        return json.dumps(self.as_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_dict(cls, doc: dict) -> "SearchStats":
        """Inverse of :meth:`as_dict`.  Derived ratios
        (``pruning_power``, ``buffer_hit_ratio``) and unknown keys from
        newer writers are ignored; missing fields keep their defaults.
        """
        known = {f.name for f in fields(cls)}
        return cls(**{k: v for k, v in doc.items() if k in known})


_ACCUMULATED = tuple(
    f.name for f in fields(SearchStats) if f.name not in ("total_nodes", "extra")
)


@dataclass
class SearchResult:
    """The uniform answer envelope of the unified search API.

    Every search entry point — k-MST, linear scan, point NN, range,
    time-relaxed — returns one of these, so callers, the ``repro
    stats`` CLI and the bench JSONL rows can treat all algorithms
    alike:

    * ``algorithm`` — which algorithm produced the answer
      (``"bfmst"``, ``"linear_scan"``, ``"nn"``, ``"range"``,
      ``"time_relaxed"``),
    * ``matches`` — ranked :class:`MSTMatch` rows.  For point NN the
      ``dissim`` slot carries the point distance; for range queries the
      hits are unranked and ``dissim`` is 0,
    * ``stats`` — a :class:`SearchStats` with the *same field set* for
      every algorithm (fields an algorithm cannot measure stay 0),
    * ``extras`` — algorithm-specific payload (``"hit_ids"`` for
      range queries, ``"shifts"`` for time-relaxed),
    * ``trace_id`` — name of the :class:`~repro.obs.QueryTrace` the
      query ran under, if any,
    * ``spec`` — the :class:`~repro.search.spec.QuerySpec` a k-MST
      answer was built from (``None`` for the other algorithms and for
      results constructed by the raw algorithm functions).

    Iterating the result iterates ``matches``.

    The JSON envelope (:meth:`to_json`/:meth:`from_json`) is versioned
    (``"envelope": 1``) and shared verbatim by ``repro batch``,
    ``repro serve`` and the serving bench.  ``stats`` is telemetry —
    buffer hit counts vary with cache warmth — so answer identity is
    defined by :meth:`answer_json` (algorithm + matches + extras),
    which byte-compares stably across runs.
    """

    algorithm: str
    matches: list[MSTMatch] = field(default_factory=list)
    stats: SearchStats = field(default_factory=SearchStats)
    extras: dict = field(default_factory=dict)
    trace_id: str | None = None
    spec: object | None = None

    def __iter__(self) -> Iterator[MSTMatch]:
        return iter(self.matches)

    def __len__(self) -> int:
        return len(self.matches)

    @property
    def ids(self) -> list[int]:
        """Trajectory ids of the matches, in rank order."""
        return [m.trajectory_id for m in self.matches]

    def as_dict(self) -> dict:
        return {
            "envelope": ENVELOPE_VERSION,
            "algorithm": self.algorithm,
            "matches": [
                {
                    "trajectory_id": m.trajectory_id,
                    "dissim": m.dissim,
                    "error_bound": m.error_bound,
                    "exact": m.exact,
                }
                for m in self.matches
            ],
            "stats": self.stats.as_dict(),
            "extras": {
                k: v for k, v in self.extras.items() if _jsonable(v)
            },
            "trace_id": self.trace_id,
            "spec": self.spec.as_dict() if self.spec is not None else None,
        }

    def to_json(self, indent: int | None = None) -> str:
        return json.dumps(self.as_dict(), indent=indent, sort_keys=True)

    def answer_dict(self) -> dict:
        """The *answer* section only: algorithm, ranked matches and
        algorithm-specific extras.  Excludes ``stats`` (telemetry that
        varies with buffer warmth) and ``trace_id``, so two runs of the
        same spec against the same index compare byte-identical."""
        doc = self.as_dict()
        return {
            "algorithm": doc["algorithm"],
            "matches": doc["matches"],
            "extras": doc["extras"],
        }

    def answer_json(self) -> str:
        return json.dumps(self.answer_dict(), sort_keys=True)

    @classmethod
    def from_dict(cls, doc: dict) -> "SearchResult":
        """Validating inverse of :meth:`as_dict` (tuples inside extras
        come back as lists — JSON has no tuple)."""
        from ..exceptions import QueryError
        from .spec import QuerySpec

        if not isinstance(doc, dict):
            raise QueryError(
                f"result envelope must be an object, got {type(doc).__name__}"
            )
        version = doc.get("envelope", ENVELOPE_VERSION)
        if version != ENVELOPE_VERSION:
            raise QueryError(
                f"unsupported result envelope version {version!r} (this "
                f"build speaks version {ENVELOPE_VERSION})"
            )
        try:
            matches = [
                MSTMatch(
                    m["trajectory_id"],
                    m["dissim"],
                    m.get("error_bound", 0.0),
                    m.get("exact", True),
                )
                for m in doc.get("matches", [])
            ]
        except (TypeError, KeyError) as exc:
            raise QueryError(f"malformed matches in result envelope: {exc}") from exc
        spec_doc = doc.get("spec")
        return cls(
            algorithm=doc.get("algorithm", ""),
            matches=matches,
            stats=SearchStats.from_dict(doc.get("stats") or {}),
            extras=dict(doc.get("extras") or {}),
            trace_id=doc.get("trace_id"),
            spec=QuerySpec.from_dict(spec_doc) if spec_doc is not None else None,
        )

    @classmethod
    def from_json(cls, text: str | bytes) -> "SearchResult":
        from ..exceptions import QueryError

        try:
            doc = json.loads(text)
        except (ValueError, UnicodeDecodeError) as exc:
            raise QueryError(f"result envelope is not valid JSON: {exc}") from exc
        return cls.from_dict(doc)


def _jsonable(value) -> bool:
    try:
        json.dumps(value)
        return True
    except (TypeError, ValueError):
        return False
