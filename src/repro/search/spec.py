"""The canonical, wire-serializable query description.

A :class:`QuerySpec` is the *one* request shape the engines take: the
batched engines (:class:`~repro.engine.QueryEngine`,
:class:`~repro.engine.ShardedQueryEngine`,
:class:`~repro.engine.LiveQueryEngine`) execute them directly, the
``repro batch`` / ``repro serve`` CLIs read them from files and
sockets, and :mod:`repro.serve` uses the JSON form verbatim as its
wire format.  A spec asks for one thing: a k-MST search by BFMST
(``"kind": "mst"``).  The other algorithms of :mod:`repro.search.api`
are plain library calls and have no spec.

The JSON envelope is versioned (``"spec": 1``) and uses stable field
names::

    {"spec": 1, "kind": "mst", "k": 5,
     "query": {"type": "trajectory", "id": -1, "samples": [[x, y, t], ...]},
     "period": [t_lo, t_hi] | null,
     "kernels": null,
     "deadline_ms": 250.0 | null,
     "options": {...}}

``kind`` and the ``query`` tag stay in the envelope, so that the
version-1 wire form, and every cache key made from it, does not change;
any other kind or query type is a :class:`QueryError`.
``deadline_ms`` is a *budget*: admission control turns it into an
absolute deadline and the engines abort work past it (see
:mod:`repro.serve`); it is therefore excluded from :meth:`cache_key`,
which identifies the *answer* a spec determines.  ``kernels`` is
reserved: MINDIST and the filter have one implementation each, so the
field selects nothing; it is always written ``null`` and read as
``null`` or ``"auto"`` — both one cache key — and any other value is
rejected.

Every number on the wire is finite: a NaN or infinite ``period`` end
or ``deadline_ms`` is rejected rather than handed to the engine, where
a NaN compares false and a deadline never fires.  Nothing on the wire
steers the pruning bounds: ``V_max`` comes from the index and the
signature filter runs iff the index carries a sidecar.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

from ..exceptions import QueryError
from ..trajectory import Trajectory

__all__ = [
    "SPEC_VERSION",
    "KIND",
    "QuerySpec",
    "encode_query",
    "decode_query",
]

SPEC_VERSION = 1

#: The one query kind a spec carries: k-MST by BFMST.
KIND = "mst"

#: Spec fields that ``options`` must never shadow (they would turn
#: into duplicate keyword arguments at dispatch time).
_RESERVED_OPTION_KEYS = frozenset(
    {"kind", "query", "period", "k", "kernels", "deadline_ms", "trace"}
)


def _finite(v) -> bool:
    """A finite JSON number; ``type(v) is`` keeps true and false out."""
    return type(v) in (int, float) and math.isfinite(v)


# (accepts, what it accepts) pairs.
_FLAG = (lambda v: type(v) is bool, "true or false")
_ID_LIST = (
    lambda v: isinstance(v, (list, tuple, set, frozenset))
    and all(type(i) in (int, str) for i in v),
    "a list of ids",
)

#: option name -> (accepts, what it accepts): every option a spec may
#: carry on the wire.  The names are keyword arguments of
#: :func:`repro.search.api.bfmst_search` (a test holds the two
#: together).
OPTIONS = {
    "use_heuristic1": _FLAG,
    "use_heuristic2": _FLAG,
    "refine": _FLAG,
    "exclude_ids": _ID_LIST,
}


def _check_options(options: dict) -> dict:
    """Hold wire options against :data:`OPTIONS`; returns them ready
    for dispatch (``exclude_ids`` as a frozenset)."""
    checked = {}
    for name, value in options.items():
        if name not in OPTIONS:
            raise QueryError(
                f"unknown option {name!r} for {KIND} queries; accepted: "
                f"{sorted(OPTIONS)}"
            )
        accepts, what = OPTIONS[name]
        if not accepts(value):
            raise QueryError(f"option {name!r} must be {what}, got {value!r}")
        checked[name] = frozenset(value) if name == "exclude_ids" else value
    return checked


def _check_kind(kind) -> str:
    if not isinstance(kind, str) or kind != KIND:
        raise QueryError(
            f"unknown query kind {kind!r}; expected {KIND!r} (the other "
            f"searches are library calls, not query kinds)"
        )
    return KIND


def encode_query(query) -> dict:
    """Tagged JSON-ready encoding of a query trajectory."""
    if not isinstance(query, Trajectory):
        raise QueryError(
            f"unsupported query object {type(query).__name__}; an {KIND} "
            f"query is a Trajectory"
        )
    return {
        "type": "trajectory",
        "id": query.object_id,
        "samples": [[float(p.x), float(p.y), float(p.t)] for p in query.samples],
    }


def decode_query(doc) -> Trajectory:
    """Inverse of :func:`encode_query`; raises :class:`QueryError` on
    malformed documents (bad tag, missing fields, invalid geometry)."""
    if not isinstance(doc, dict):
        raise QueryError(f"query must be a tagged object, got {type(doc).__name__}")
    tag = doc.get("type")
    if tag != "trajectory":
        raise QueryError(
            f"unknown query type {tag!r}; an {KIND} query is a 'trajectory'"
        )
    try:
        return Trajectory(
            doc["id"],
            [(float(x), float(y), float(t)) for x, y, t in doc["samples"]],
        )
    except QueryError:
        raise
    except Exception as exc:  # malformed coordinates, short samples, ...
        raise QueryError(f"malformed {tag!r} query object: {exc}") from exc


def _jsonable_option(value):
    """Options travel on the wire: coerce the containers the in-process
    API accepts (frozenset exclude_ids, tuples) into JSON equivalents."""
    if isinstance(value, (set, frozenset)):
        return sorted(value)
    if isinstance(value, tuple):
        return list(value)
    return value


@dataclass
class QuerySpec:
    """One k-MST query, fully described — in process and on the wire.

    ``kind`` must be ``"mst"`` (:data:`KIND`); ``query`` is the query
    trajectory; ``options`` are the BFMST switches of :data:`OPTIONS`
    (``use_heuristic1``, ``use_heuristic2``, ``refine``,
    ``exclude_ids``).  ``deadline_ms`` is the caller's latency budget,
    enforced by the engines and the traversal.
    """

    kind: str
    query: object
    period: tuple[float, float] | None = None
    k: int = 1
    options: dict = field(default_factory=dict)
    deadline_ms: float | None = None

    def canonical_kind(self) -> str:
        """:data:`KIND`, or :class:`QueryError` for any other kind."""
        return _check_kind(self.kind)

    # ------------------------------------------------------------------
    # wire format
    # ------------------------------------------------------------------
    def as_dict(self) -> dict:
        return {
            "spec": SPEC_VERSION,
            "kind": self.canonical_kind(),
            "k": self.k,
            "query": encode_query(self.query),
            "period": (
                [float(self.period[0]), float(self.period[1])]
                if self.period is not None
                else None
            ),
            "kernels": None,
            "deadline_ms": (
                float(self.deadline_ms) if self.deadline_ms is not None else None
            ),
            "options": {
                name: _jsonable_option(value)
                for name, value in sorted(self.options.items())
            },
        }

    def to_json(self, indent: int | None = None) -> str:
        return json.dumps(self.as_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_dict(cls, doc) -> "QuerySpec":
        """Validating inverse of :meth:`as_dict`.

        Raises :class:`QueryError` on anything malformed — unknown
        version or kind, bad ``k``/``period``/``deadline_ms``, a
        ``kernels`` other than ``null``/``"auto"``, a query that is not
        a trajectory, options that would shadow spec fields, that
        :data:`OPTIONS` does not name or that are ill-typed — so
        wire-facing callers can map it straight to a 400.
        """
        if not isinstance(doc, dict):
            raise QueryError(
                f"query spec must be an object, got {type(doc).__name__}"
            )
        version = doc.get("spec", SPEC_VERSION)
        if version != SPEC_VERSION:
            raise QueryError(
                f"unsupported spec version {version!r} (this build speaks "
                f"version {SPEC_VERSION})"
            )
        unknown = set(doc) - {
            "spec", "kind", "k", "query", "period", "kernels",
            "deadline_ms", "options",
        }
        if unknown:
            raise QueryError(f"unknown spec fields {sorted(unknown)}")
        if "kind" not in doc or "query" not in doc:
            raise QueryError("query spec requires 'kind' and 'query'")
        kind = _check_kind(doc["kind"])
        k = doc.get("k", 1)
        if not isinstance(k, int) or isinstance(k, bool) or k < 1:
            raise QueryError(f"k must be a positive integer, got {k!r}")
        period = doc.get("period")
        if period is not None:
            if (
                not isinstance(period, (list, tuple))
                or len(period) != 2
                or not all(_finite(v) for v in period)
            ):
                raise QueryError(
                    f"period must be [t_start, t_end] of finite numbers or "
                    f"null, got {period!r}"
                )
            period = (float(period[0]), float(period[1]))
            if period[0] > period[1]:
                raise QueryError(f"inverted period {period!r}")
        kernels = doc.get("kernels")
        if kernels is not None and kernels != "auto":
            raise QueryError(
                f"kernels is reserved: null or \"auto\" (each pass has one "
                f"implementation), got {kernels!r}"
            )
        deadline_ms = doc.get("deadline_ms")
        if deadline_ms is not None:
            if not _finite(deadline_ms) or deadline_ms <= 0:
                raise QueryError(
                    f"deadline_ms must be a finite positive number, got "
                    f"{deadline_ms!r}"
                )
            deadline_ms = float(deadline_ms)
        options = doc.get("options") or {}
        if not isinstance(options, dict):
            raise QueryError(f"options must be an object, got {options!r}")
        shadowed = set(options) & _RESERVED_OPTION_KEYS
        if shadowed:
            raise QueryError(
                f"options {sorted(shadowed)} shadow spec fields; set them "
                f"as top-level spec fields instead"
            )
        return cls(
            kind=kind,
            query=decode_query(doc["query"]),
            period=period,
            k=k,
            options=_check_options(options),
            deadline_ms=deadline_ms,
        )

    @classmethod
    def from_json(cls, text: str | bytes) -> "QuerySpec":
        try:
            doc = json.loads(text)
        except (ValueError, UnicodeDecodeError) as exc:
            raise QueryError(f"query spec is not valid JSON: {exc}") from exc
        return cls.from_dict(doc)

    # ------------------------------------------------------------------
    # identity
    # ------------------------------------------------------------------
    def cache_key(self) -> str:
        """Canonical identity of the *answer* this spec determines:
        the wire form minus the deadline budget (two calls that differ
        only in latency budget return the same result)."""
        doc = self.as_dict()
        del doc["deadline_ms"]
        return json.dumps(doc, sort_keys=True)
