"""A compaction's generation files are the ones the read-back route
writes.

A compaction packs the next generation and signs it from the history
the store holds in memory, not from the pages it has just written.
Contract, on both store trees: at every generation a feed publishes,
through several auto-compactions and a reopen,

* its ``.pages`` and ``.meta.json`` equal, byte for byte, those of a
  fresh static build of ``store.current_dataset()`` (``bulk_insert``
  on an empty tree, saved with ``save_index``);
* its ``.sig`` equals, byte for byte, the sidecar
  ``write_signatures(build_signatures(load_index(gen)))`` writes,
  which reads every trajectory back from the generation's leaves.

The generations after the reopen are packed from the history the
reopen read back from the leaves and the WAL.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import TREES, IngestStore
from repro.filter import build_signatures, write_signatures
from repro.index import load_index, save_index


@st.composite
def feeds(draw):
    """Time-ordered ``(oid, x, y, t)`` events of a few objects: each
    step moves one object forward in time, so objects start, pause and
    carry single points across compactions."""
    objects = draw(st.integers(min_value=1, max_value=8))
    length = draw(st.integers(min_value=20, max_value=300))
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32)))
    clock = {}
    events = []
    for _ in range(length):
        oid = rng.randrange(objects)
        t = clock.get(oid, rng.uniform(0.0, 5.0)) + rng.choice((0.25, 1.0, 3.5))
        clock[oid] = t
        events.append((oid, rng.uniform(-50.0, 50.0), rng.uniform(-50.0, 50.0), t))
    return events


def check_generation(store, scratch, tag):
    number = store.generation_number
    gen = store.directory / f"gen-{number:06d}.pages"
    fresh = TREES[store.tree](page_size=store.page_size)
    fresh.bulk_insert(store.current_dataset())
    fresh.finalize()
    save_index(fresh, scratch / f"fresh-{tag}.pages")
    for suffix in ("", ".meta.json"):
        assert (gen.parent / (gen.name + suffix)).read_bytes() == (
            scratch / f"fresh-{tag}.pages{suffix}"
        ).read_bytes(), f"generation {number}: {suffix or '.pages'} differs"

    sig = gen.parent / (gen.name + ".sig")
    if fresh.num_entries == 0:
        assert not sig.exists()
        return
    loaded = load_index(gen)
    try:
        read_back = scratch / f"read-back-{tag}.sig"
        write_signatures(build_signatures(loaded), read_back)
    finally:
        loaded.signatures.close()
        loaded.pagefile.close()
    assert sig.read_bytes() == read_back.read_bytes(), (
        f"generation {number}: .sig differs from the read-back route"
    )


@pytest.mark.parametrize("tree", sorted(TREES))
@given(
    events=feeds(),
    page_size=st.sampled_from((512, 4096)),
    every=st.integers(min_value=6, max_value=40),
    reopen_at=st.floats(min_value=0.0, max_value=1.0),
)
@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
def test_generations_equal_the_read_back_route(
    tmp_path_factory, tree, events, page_size, every, reopen_at
):
    root = tmp_path_factory.mktemp("store")
    scratch = tmp_path_factory.mktemp("scratch")
    store = IngestStore.create(
        root / "s", tree=tree, page_size=page_size, sync_every=0,
        auto_compact_points=every,
    )
    checked = set()
    reopen = int(len(events) * reopen_at)
    try:
        for i, event in enumerate(events):
            if i == reopen:
                store.close()
                store = IngestStore.open(
                    root / "s", sync_every=0, auto_compact_points=every
                )
            store.append(*event)
            number = store.generation_number
            if number >= 0 and number not in checked:
                checked.add(number)
                check_generation(store, scratch, str(number))
        store.compact()
        check_generation(store, scratch, "last")
    finally:
        store.close()
