"""Signature filter tier: compact per-trajectory lower bounds.

A *signature* is a tiny in-RAM summary of one indexed trajectory — a
TD-TR-downsampled polyline with certified per-segment error radii.
From it the filter computes a provable lower bound on the trajectory's
DISSIM against any query, so BFMST can reject hopeless candidates before
touching their index pages or running exact integrals.  Answers are
byte-identical to unfiltered search by construction: a candidate is only
pruned when its lower bound strictly exceeds the current k-th-best upper
bound, which certifies it can never enter the answer set.

Signatures are built at index build time (:func:`build_signatures`,
reading the tree back) or at ingest compaction from the samples the
store holds (:func:`signatures_from_points`), persisted as a ``.sig``
sidecar next to the page file (:mod:`repro.filter.sidecar`),
mmap-served read-only, and
evaluated by :class:`SignatureFilter` in one numpy pass over the
whole sidecar.
A search filters a tree iff the tree carries a sidecar; an index built
without one is served unfiltered.
"""

from .runtime import SignatureFilter
from .sidecar import (
    load_signatures,
    signature_sidecar_path,
    write_signatures,
)
from .signature import (
    TrajectorySignatures,
    build_signatures,
    signatures_from_points,
)

__all__ = [
    "TrajectorySignatures",
    "build_signatures",
    "signatures_from_points",
    "SignatureFilter",
    "write_signatures",
    "load_signatures",
    "signature_sidecar_path",
]
