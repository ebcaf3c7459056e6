"""Compact leaves: a leaf decoded from a page answers like the leaf it
was written from, without building a row it is not asked for.

Contract:

* a page-decoded leaf of either kind — R-leaf or chained TB-tree leaf,
  one chain or several, one row or many, chained rows in or out of time
  order — returns from ``rows_in_period`` exactly the rows, in exactly
  the order, that a node built from the page's rows returns, float for
  float (compared as packed bytes, so ``-0.0`` and ``0.0`` differ), for
  random periods including empty and whole-lifetime ones; ``len()``
  and ``rows`` agree too, before and after the full list is built.  The
  page's rows are read here by a decoder of the test's own, and equal
  the rows written float for float: a chain joint is stored once only
  where the two points are the same doubles, so a segment starting at
  ``-0.0`` after one ending at ``0.0`` opens a chain of its own, by
  every writer (the page writer, the payload size count and the
  TB-tree's append);
* every corrupt payload the page codec rejects raises the same
  ``IndexError_`` when decoded into a node as when read as rows.

No numpy: the page codec runs without it.
"""

from __future__ import annotations

import struct
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import IndexError_
from repro.index import Node, TBTree
from repro.index.entry import ENTRY_FMT
from repro.index.node import HEADER_BYTES, payload_rows, tb_leaf_payload_size
from repro.storage import frame_page, unframe_page

PAGE = 4096
OWNER = 7

coords = st.floats(allow_nan=False, allow_infinity=False, width=32)
# Few distinct times, so rows often tie on t1 or t2.
times = st.integers(min_value=-20, max_value=20).map(lambda i: i / 4)


def bits(rows) -> list[bytes]:
    return [ENTRY_FMT.pack(*row) for row in rows]


@st.composite
def packed_rows(draw):
    """An R-leaf's rows: any ids, any order, ties on ``t1``."""
    rows = []
    for _ in range(draw(st.integers(min_value=1, max_value=40))):
        t1 = draw(times)
        t2 = t1 + draw(st.integers(min_value=1, max_value=8)) / 4
        tid = draw(st.integers(min_value=-(2**62), max_value=2**62))
        rows.append((tid, draw(coords), draw(coords), t1, draw(coords), draw(coords), t2))
    return rows


@st.composite
def chained_rows(draw):
    """A chained leaf's rows: runs of endpoint-sharing segments (one
    chain, several, or a single row), optionally shuffled."""
    rows = []
    t = draw(times)
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        # A chain starts where the time went back, stayed or jumped.
        t += draw(st.integers(min_value=-12, max_value=12)) / 4
        x, y = draw(coords), draw(coords)
        for _ in range(draw(st.integers(min_value=1, max_value=15))):
            t2 = t + draw(st.integers(min_value=1, max_value=6)) / 4
            x2, y2 = draw(coords), draw(coords)
            rows.append((OWNER, x, y, t, x2, y2, t2))
            x, y, t = x2, y2, t2
    if draw(st.booleans()):
        rows = draw(st.permutations(rows))
    return rows


@st.composite
def leaves(draw):
    chained = draw(st.booleans())
    rows = draw(chained_rows() if chained else packed_rows())
    return chained, rows


@st.composite
def periods(draw, rows):
    lo = min(r[3] for r in rows)
    hi = max(r[6] for r in rows)
    whole = (lo - 1.0, hi + 1.0)
    start = draw(times)
    empty = (start, start)
    drawn = tuple(sorted((draw(times), draw(times))))
    return [whole, empty, drawn, (hi, hi + 1.0), (lo - 1.0, lo)]


def page_rows(payload) -> list[tuple]:
    """A leaf payload's rows in page order, read field by field."""
    kind, _level, count = struct.unpack_from("<BBH", payload)
    owner = struct.unpack_from("<q", payload, 8)[0]
    if kind == 1:
        return [ENTRY_FMT.unpack_from(payload, 32 + 56 * i) for i in range(count)]
    rows, offset = [], 32
    while len(rows) < count:
        (segs,) = struct.unpack_from("<H", payload, offset)
        points = [
            struct.unpack_from("<3d", payload, offset + 2 + 24 * i)
            for i in range(segs + 1)
        ]
        rows += [(owner, *a, *b) for a, b in zip(points, points[1:])]
        offset += 2 + 24 * (segs + 1)
    return rows


def written_and_read(chained: bool, rows: list[tuple]):
    """The page of ``rows``, a node built from the page's rows, and the
    node decoded from the page."""
    written = Node(0, 0, owner_id=OWNER, chained=chained, rows=list(rows))
    image = written.to_bytes(PAGE)
    stored = page_rows(unframe_page(image)[1])
    built = Node(0, 0, owner_id=OWNER, chained=chained, rows=stored)
    return image, built, Node.from_bytes(0, image)


@given(st.data(), leaves())
@settings(max_examples=300, deadline=None)
def test_decoded_leaf_answers_like_the_rows_built_one(data, leaf):
    chained, rows = leaf
    _image, built, read = written_and_read(chained, rows)
    assert built.rows == rows  # the page holds what was written
    assert len(read) == len(built) == len(rows)
    checks = data.draw(periods(rows))
    for t_start, t_end in checks:
        assert bits(read.rows_in_period(t_start, t_end)) == bits(
            built.rows_in_period(t_start, t_end)
        )
    assert bits(read.rows) == bits(built.rows)  # the full list, in page order
    assert len(read) == len(rows)
    for t_start, t_end in checks:  # and again from the list form
        assert bits(read.rows_in_period(t_start, t_end)) == bits(
            built.rows_in_period(t_start, t_end)
        )


@given(leaves())
@settings(max_examples=100, deadline=None)
def test_rows_of_a_page_are_the_rows_stored(leaf):
    chained, rows = leaf
    image, built, read = written_and_read(chained, rows)
    assert bits(payload_rows(0, unframe_page(image)[1])[1]) == bits(built.rows)
    assert [e.row for e in read.entries] == rows


signed_zero = st.sampled_from([0.0, -0.0])


@st.composite
def zero_joint_rows(draw):
    """One trajectory's rows in time order, its points often on signed
    zeros: each segment starts where the last ended, except that every
    zero there is redrawn with either sign."""
    rows = []
    x, y, t = draw(signed_zero), draw(signed_zero), draw(times)
    for _ in range(draw(st.integers(min_value=1, max_value=12))):
        x, y, t = (draw(signed_zero) if v == 0.0 else v for v in (x, y, t))
        t2 = t + draw(st.integers(min_value=1, max_value=6)) / 4
        x2, y2 = (draw(st.one_of(signed_zero, coords)) for _ in range(2))
        rows.append((OWNER, x, y, t, x2, y2, t2))
        x, y, t = x2, y2, t2
    return rows


@given(zero_joint_rows())
@settings(max_examples=200, deadline=None)
def test_signed_zeros_at_chain_joints_come_back_bit_for_bit(rows):
    image, built, read = written_and_read(True, rows)
    assert bits(built.rows) == bits(rows)
    assert bits(read.rows) == bits(rows)
    body = len(unframe_page(image)[1]) - HEADER_BYTES
    assert tb_leaf_payload_size(read.entries) == body
    # The TB-tree's append counts the same chains the page then holds.
    tree = TBTree(page_size=PAGE)
    for row in rows:
        tree.insert_row(row)
    leaf = tree.read_node(tree.root_page)
    assert leaf.payload_bytes == body
    assert bits(Node.from_bytes(0, leaf.to_bytes(PAGE)).rows) == bits(rows)


def test_readers_on_threads_share_a_compact_leaf():
    """A threaded engine's readers share resident nodes: while some
    build a leaf's full list, others bisect it, and every read gets the
    rows a list-built node gives."""
    chain = [(OWNER, float(i), 0.0, float(i), float(i + 1), 0.0, float(i + 1)) for i in range(40)]
    broken = chain[:20] + [(OWNER, *r[1:3], r[3] + 0.5, *r[4:6], r[6] + 0.5) for r in chain[20:]]
    packed = [(i % 7, float(i), 1.0, float((i * 13) % 40), 2.0, 3.0, 41.0) for i in range(60)]
    leaves = [(True, chain), (True, broken), (False, packed)]
    period_list = [(-1.0, 50.0), (10.5, 12.5), (39.0, 45.0), (3.0, 3.0)]
    images, want = [], []
    for chained, rows in leaves:
        image, built, _read = written_and_read(chained, rows)
        images.append(image)
        want.append(
            (bits(built.rows), [bits(built.rows_in_period(*p)) for p in period_list])
        )
    rounds, workers = 60, 6
    barrier = threading.Barrier(workers + 1, timeout=30)
    shared: list[Node] = []
    errors: list[BaseException] = []

    def reader(seed: int) -> None:
        try:
            for _ in range(rounds):
                barrier.wait()
                for i, node in enumerate(shared):
                    whole, cut = want[i]
                    for j, period in enumerate(period_list):
                        if (seed + j) % 3 == 0:
                            assert bits(node.rows) == whole
                        assert len(node) == len(whole)
                        assert bits(node.rows_in_period(*period)) == cut[j]
                barrier.wait()
        except BaseException as exc:  # reported by the main thread
            errors.append(exc)
            barrier.abort()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    threads = [threading.Thread(target=reader, args=(n,)) for n in range(workers)]
    try:
        for t in threads:
            t.start()
        for _ in range(rounds):
            shared[:] = [Node.from_bytes(0, image) for image in images]
            barrier.wait()
            barrier.wait()
    except threading.BrokenBarrierError:
        pass
    finally:
        sys.setswitchinterval(interval)
        for t in threads:
            t.join(timeout=30)
    assert not any(t.is_alive() for t in threads)
    assert errors == []


# ----------------------------------------------------------------------
# damaged payloads
# ----------------------------------------------------------------------
def payload_of(chained: bool, rows: list[tuple]) -> bytearray:
    node = Node(0, 0, owner_id=OWNER, chained=chained, rows=rows)
    return bytearray(unframe_page(node.to_bytes(PAGE))[1])


ROW = (OWNER, 0.0, 0.0, 0.0, 1.0, 1.0, 1.0)
CHAIN = [(OWNER, float(i), 0.0, float(i), float(i + 1), 0.0, float(i + 1)) for i in range(3)]


def _set(offset, value):
    def poke(payload):
        payload[offset] = value
    return poke


def _truncate(size):
    def poke(payload):
        del payload[size:]
    return poke


def _chain_length_zero(payload):
    payload[32] = payload[33] = 0


def _chain_longer_than_count(payload):
    payload[32] = 4  # one chain of 4 segments on a page that counts 3


DAMAGE = {
    "corrupt kind": (False, [ROW], _set(0, 99), "corrupt node kind"),
    "leaf with a level": (False, [ROW], _set(1, 3), "leaf with level"),
    "chained leaf with a level": (True, CHAIN, _set(1, 3), "leaf with level"),
    "internal kind at level 0": (False, [ROW], _set(0, 2), "internal node with level 0"),
    "truncated header": (False, [ROW], _truncate(10), "truncated node header"),
    "count beyond payload": (False, [ROW], _set(2, 200), "do not fit"),
    "chain length zero": (True, CHAIN, _chain_length_zero, "corrupt chain of 0"),
    "chain past the page": (True, CHAIN, _chain_longer_than_count, "corrupt chain"),
    "count beyond chains": (True, CHAIN, _set(2, 9), "truncated chain header"),
    "count short of chains": (True, CHAIN, _set(2, 2), "decoded 3 of 2"),
    "segment without time span": (
        False,
        [(OWNER, 0.0, 0.0, 5.0, 1.0, 1.0, 5.0)],
        lambda payload: None,
        "positive time",
    ),
    "chained segment without time span in a second chain": (
        True,
        [CHAIN[0], (OWNER, 9.0, 9.0, 9.0, 10.0, 10.0, 9.0)],
        lambda payload: None,
        "positive time",
    ),
    "chained segment running back": (
        True,
        CHAIN,
        # the third point's t (chain header 2 bytes + 2 points of 24)
        lambda payload: payload.__setitem__(
            slice(32 + 2 + 48 + 16, 32 + 2 + 48 + 24),
            ENTRY_FMT.pack(0, 0, 0, 0, 0, 0, -9.0)[-8:],
        ),
        "positive time",
    ),
}


@pytest.mark.parametrize("case", sorted(DAMAGE))
def test_damaged_payload_is_refused_the_same_both_ways(case):
    chained, rows, poke, message = DAMAGE[case]
    payload = payload_of(chained, rows)
    poke(payload)
    payload = bytes(payload)
    with pytest.raises(IndexError_, match=message) as as_node:
        Node.from_payload(0, payload)
    with pytest.raises(IndexError_) as as_rows:
        payload_rows(0, payload)
    assert str(as_node.value) == str(as_rows.value)
    # and through a verified frame, as a buffer miss reads it
    with pytest.raises(IndexError_, match=message):
        Node.from_bytes(0, frame_page(payload))
