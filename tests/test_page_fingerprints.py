"""Every write path's pages and signature sidecar, pinned as digests.

One fixed GSTD set is built six ways — each tree packed, each tree
built by ``insert``, an R-tree grown by ``insert`` after its pack, and
a TB-tree grown one segment at a time through ``insert_row`` (the
ingest memtable's path) — and saved with its ``.sig`` sidecar.  The
sha256 of the ``.pages`` file and of the sidecar must equal the
recorded ones: a change to how a tree chooses a subtree, splits a
node, folds a box or lays out a page moves a digest.  The pages are
small (1 KB), so the insert builds split internal nodes as well as
leaves.

The digests hold under any ``PYTHONHASHSEED`` and without numpy: CI
runs this file in a venv that has none.
"""

from __future__ import annotations

import hashlib

import pytest

from repro import RTree3D, TBTree, save_index
from repro.datagen import generate_gstd
from repro.ingest import Memtable

PAGE_SIZE = 1024
#: the objects a grown build packs; the rest are inserted after
PACKED = 40


def _data():
    return generate_gstd(60, 30, seed=11)


def _packed(cls):
    index = cls(page_size=PAGE_SIZE)
    index.bulk_insert(_data())
    return index


def _inserted(cls):
    index = cls(page_size=PAGE_SIZE)
    for tr in _data():
        index.insert(tr)
    return index


def _rtree_grown():
    data = list(_data())
    index = RTree3D(page_size=PAGE_SIZE)
    index.pack(
        (tr.object_id, [(p.x, p.y, p.t) for p in tr.samples])
        for tr in data[:PACKED]
    )
    for tr in data[PACKED:]:
        index.insert(tr)
    return index


def _tbtree_by_row():
    """The memtable's write path: every object adopted with its first
    two samples, then one point (one ``insert_row``) at a time, the
    objects interleaved by sample index."""
    data = list(_data())
    memtable = Memtable(page_size=PAGE_SIZE)
    for tr in data:
        memtable.adopt(tr.object_id, [(p.x, p.y, p.t) for p in tr.samples[:2]])
    for i in range(2, max(len(tr.samples) for tr in data)):
        for tr in data:
            if i < len(tr.samples):
                p = tr.samples[i]
                memtable.append(tr.object_id, p.x, p.y, p.t)
    return memtable.snapshot()


BUILDS = {
    "rtree_packed": lambda: _packed(RTree3D),
    "tbtree_packed": lambda: _packed(TBTree),
    "rtree_inserted": lambda: _inserted(RTree3D),
    "tbtree_inserted": lambda: _inserted(TBTree),
    "rtree_grown": _rtree_grown,
    "tbtree_by_row": _tbtree_by_row,
}

#: build -> (sha256 of the ``.pages`` file, sha256 of the ``.sig`` file)
DIGESTS = {
    "rtree_grown": (
        "3619ff8f1f944c23483e295e4e8d464c8fd7f27517597f6822b2815728e54fbc",
        "2fa70af7d755480c03024fb50f7a9f790f65e7fe80c562640541f7ea6f176c42",
    ),
    "rtree_inserted": (
        "e10fb39333080272e881db8d4db0c47b0d9a4f33da477bdedc845fd915d6c525",
        "b08cbe69c15ffdee4dfb6a87a888cfa2a4aadb7a786a4eec7afe842d569f2eb5",
    ),
    "rtree_packed": (
        "4ffd4bd04e6cd29d9648ec216a9325e853dc226021b372c0bac869c993974766",
        "9e342bab4ba35b90cb24a88bab38befd96d5cd3b6bf742c497f80327289a4ab2",
    ),
    "tbtree_by_row": (
        "062a9bd1cbdd237663eb693e149dd69bbc24e2b92856eab7b3c922371f680eb8",
        "7dfe913a49ced9669cd70bcbe5781ce614893a7967a096348a175b0b8b6738ca",
    ),
    "tbtree_inserted": (
        "6c32706030b2e074a8dcb4e178c9a30fc63563d3b2cc8957485c45d67bdbd47d",
        "8794915819f968b0cb1c7df5138383e6ee7c076377210174676b557312b56334",
    ),
    "tbtree_packed": (
        "3f33a607d5c015b32eb35f8250f982b41842e26061941d1843442b1bbb90581d",
        "ac36695f00018b9fa7b0b5bff9bccc313a13f6cdb8a676bcf9fef36db0af649f",
    ),
}


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("build", sorted(BUILDS))
def test_pages_and_sidecar_are_pinned(build, tmp_path):
    path = tmp_path / "index.pages"
    save_index(BUILDS[build](), path, signatures=True)
    got = (_sha256(path), _sha256(path.with_name(path.name + ".sig")))
    assert got == DIGESTS[build]
