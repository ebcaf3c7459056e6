"""Truth tables: the linear-scan answer to every query the program is asked.

The paper's guarantee is exactness — BFMST returns what an exhaustive
scan returns — so the oracle is ``linear_scan_kmst(None, dataset, q,
period=..., k=..., exact=True)`` over the generated dataset, run on the
harness side and never timed.  (``exact=True`` because BFMST refines its
answer with the closed-form integral; the scan's default trapezoid ranks
near-ties differently.)  A table answers a workload's whole frozen query
pool (``inputs.POOL_SEED``), so it serves every ``--seed``.  The tables of
the default sizes are committed under ``truth/`` (a later change to the
scan itself shows as drift against a frozen file); any other scale or
``--seconds`` is computed once into ``.cache/``.

An entry keeps ``k`` and the scan's top ``k + 1`` ids and DISSIMs.  An answer is
right when its id list equals the table's; two ids whose table DISSIMs
agree within 1e-9 relative may swap (a tie the two algorithms are free to
break differently), which is why one id past ``k`` is kept.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

from repro import linear_scan_kmst

HERE = Path(__file__).resolve().parent
COMMITTED = HERE / "truth"
CACHE = HERE / ".cache"
DEFAULT_SEED = 2007  # of ``--seed``: which sample of the pool a run asks
TIE_RELATIVE = 1e-9
PARALLEL_FROM = 60  # specs; below this a pool costs more than it saves


def _fingerprint(specs) -> str:
    """Identity of the question list: a table answers exactly the specs it
    was built from (sizes, scale and generator changes all land here)."""
    h = hashlib.sha256()
    for spec in specs:
        h.update(spec.cache_key().encode())
    return h.hexdigest()[:16]


def _scan(dataset, specs) -> list[dict]:
    table = []
    for spec in specs:
        result = linear_scan_kmst(
            None, dataset, spec.query, period=spec.period, k=spec.k + 1, exact=True
        )
        table.append(
            {"k": spec.k, "ids": result.ids, "dissims": [m.dissim for m in result.matches]}
        )
    return table


def compute(dataset, specs) -> list[dict]:
    """The scan over every spec; long lists are split over the cores (the
    scan costs about as much per query as the search it checks)."""
    workers = min(os.cpu_count() or 1, 4)
    if workers < 2 or len(specs) < PARALLEL_FROM:
        return _scan(dataset, specs)
    with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("spawn")) as pool:
        parts = list(pool.map(_scan, [dataset] * workers, [specs[w::workers] for w in range(workers)]))
    table: list = [None] * len(specs)
    for w, part in enumerate(parts):
        table[w::workers] = part
    return table


def table_for(name: str, dataset, specs, *, regen: bool = False, commit: bool = False) -> list[dict]:
    """The truth table for ``specs`` — committed, cached or computed now
    (``commit`` writes a recomputed table under ``truth/``)."""
    fingerprint = _fingerprint(specs)
    committed = COMMITTED / f"{name}.json"
    cached = CACHE / f"{name}-{fingerprint}.json"
    if not regen:
        for path in (committed, cached):
            if path.exists():
                doc = json.loads(path.read_text())
                if doc["fingerprint"] == fingerprint:
                    return doc["answers"]
    doc = {"name": name, "fingerprint": fingerprint, "answers": compute(dataset, specs)}
    target = committed if commit else cached
    target.parent.mkdir(exist_ok=True)
    target.write_text(json.dumps(doc, separators=(",", ":")) + "\n")
    return doc["answers"]


def is_right(got_ids: list, entry: dict) -> bool:
    want = entry["ids"][: entry["k"]]
    if got_ids == want:
        return True
    if len(got_ids) != len(want) or len(set(got_ids)) != len(got_ids):
        return False
    dissim_of = dict(zip(entry["ids"], entry["dissims"]))
    for got, expected in zip(got_ids, want):
        if got == expected:
            continue
        if got not in dissim_of:
            return False
        a, b = dissim_of[got], dissim_of[expected]
        if abs(a - b) > TIE_RELATIVE * max(abs(a), abs(b)):
            return False
    return True
