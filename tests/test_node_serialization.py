"""Tests for node/entry page serialisation (round trips, capacity
derivation, corruption detection).

Since v2, node pages are framed (16-byte checksummed header from
``repro.storage.format``): semantic corruption of the *payload* is
tested through ``Node.from_payload``/re-framing, while any byte poked
into the framed image trips the frame checks first.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ChecksumError, IndexError_, PageOverflowError, StorageError
from repro.geometry import MBR3D, STPoint, STSegment
from repro.index import ENTRY_BYTES, InternalEntry, LeafEntry, Node, node_capacity
from repro.index.node import NODE_OVERHEAD_BYTES
from repro.storage import frame_page, unframe_page


def corrupt_payload(node: Node, mutate) -> bytes:
    """Re-frame a node image whose *payload* was tampered with — the
    CRC is then valid, so the node parser sees the corruption."""
    _kind, payload = unframe_page(node.to_bytes(4096))
    payload = bytearray(payload)
    mutate(payload)
    return frame_page(bytes(payload))


def leaf_entry(tid=1, x1=0.0, y1=0.0, t1=0.0, x2=1.0, y2=1.0, t2=1.0):
    return LeafEntry(tid, STSegment(STPoint(x1, y1, t1), STPoint(x2, y2, t2)))


class TestEntries:
    def test_leaf_entry_round_trip(self):
        e = leaf_entry(42, 0.5, -1.25, 3.0, 7.125, 2.5, 9.0)
        back = LeafEntry.from_bytes(e.to_bytes())
        assert back == e
        assert back.mbr == e.mbr

    def test_internal_entry_round_trip(self):
        e = InternalEntry(17, MBR3D(0, 1, 2, 3, 4, 5))
        back = InternalEntry.from_bytes(e.to_bytes())
        assert back == e

    def test_entry_sizes_match(self):
        assert len(leaf_entry().to_bytes()) == ENTRY_BYTES
        assert len(InternalEntry(1, MBR3D(0, 0, 0, 1, 1, 1)).to_bytes()) == ENTRY_BYTES

    def test_leaf_entry_mbr_precomputed(self):
        e = leaf_entry(1, 5.0, 2.0, 0.0, 1.0, 8.0, 4.0)
        assert e.mbr == MBR3D(1.0, 2.0, 0.0, 5.0, 8.0, 4.0)

    def test_leaf_entry_temporal_accessors(self):
        e = leaf_entry(1, t1=2.0, t2=7.0)
        assert e.t_start == 2.0 and e.t_end == 7.0

    @given(
        st.integers(min_value=-(2**62), max_value=2**62),
        st.floats(allow_nan=False, allow_infinity=False, width=32),
    )
    @settings(max_examples=50)
    def test_round_trip_preserves_exact_floats(self, tid, x):
        e = LeafEntry(tid, STSegment(STPoint(x, 0.0, 0.0), STPoint(x, 1.0, 1.0)))
        assert LeafEntry.from_bytes(e.to_bytes()) == e


class TestNodeCapacity:
    def test_paper_setup_capacity(self):
        # 4 KB pages, 16-byte frame + 32-byte node header, 56-byte
        # entries -> 72 (the frame costs no fanout at 4 KB).
        assert node_capacity(4096) == 72

    def test_too_small_page_rejected(self):
        with pytest.raises(IndexError_):
            node_capacity(64)


class TestNodeSerialisation:
    def test_leaf_round_trip(self):
        node = Node(3, level=0, entries=[leaf_entry(i) for i in range(5)],
                    owner_id=9, prev_leaf=1, next_leaf=7)
        data = node.to_bytes(4096)
        back = Node.from_bytes(3, data)
        assert back.is_leaf
        assert back.level == 0
        assert back.entries == node.entries
        assert back.owner_id == 9
        assert (back.prev_leaf, back.next_leaf) == (1, 7)

    def test_internal_round_trip(self):
        entries = [InternalEntry(i, MBR3D(0, 0, 0, i + 1, 1, 1)) for i in range(4)]
        node = Node(8, level=2, entries=entries)
        back = Node.from_bytes(8, node.to_bytes(4096))
        assert not back.is_leaf
        assert back.level == 2
        assert back.entries == entries

    def test_overflowing_node_rejected(self):
        cap = node_capacity(4096)
        node = Node(0, 0, entries=[leaf_entry(i) for i in range(cap + 1)])
        with pytest.raises(PageOverflowError):
            node.to_bytes(4096)

    def test_node_mbr_unions_entries(self):
        node = Node(0, 0, entries=[
            leaf_entry(1, 0, 0, 0, 1, 1, 1),
            leaf_entry(2, 5, -2, 2, 6, 0, 3),
        ])
        assert node.mbr() == MBR3D(0, -2, 0, 6, 1, 3)

    def test_empty_node_mbr_rejected(self):
        with pytest.raises(IndexError_):
            Node(0, 0).mbr()

    def test_corrupt_kind_rejected(self):
        node = Node(0, 0, entries=[leaf_entry()])

        def poke(payload):
            payload[0] = 99

        with pytest.raises(IndexError_):
            Node.from_bytes(0, corrupt_payload(node, poke))

    def test_inconsistent_level_rejected(self):
        node = Node(0, 0, entries=[leaf_entry()])

        def poke(payload):
            payload[1] = 3  # leaf kind with level 3

        with pytest.raises(IndexError_):
            Node.from_bytes(0, corrupt_payload(node, poke))

    def test_truncated_header_rejected(self):
        # Too short for a page frame, let alone a node header.
        with pytest.raises(StorageError):
            Node.from_bytes(0, b"\x01\x00")
        # And an unframed payload too short for a node header.
        with pytest.raises(IndexError_):
            Node.from_payload(0, b"\x01\x00")

    def test_count_beyond_payload_rejected(self):
        node = Node(0, 0, entries=[leaf_entry()])

        def poke(payload):
            payload[2] = 200  # count low byte

        with pytest.raises(IndexError_):
            Node.from_bytes(0, corrupt_payload(node, poke))

    def test_bit_flip_in_framed_page_detected(self):
        """Poking the framed image itself (not the payload) trips the
        frame verification before any node field is trusted."""
        node = Node(0, 0, entries=[leaf_entry(i) for i in range(5)])
        data = node.to_bytes(4096)
        for offset in (0, 5, 20, len(data) - 1):
            bad = bytearray(data)
            bad[offset] ^= 0xFF
            with pytest.raises(StorageError):  # ChecksumError is one
                Node.from_bytes(0, bytes(bad))

    def test_from_bytes_accepts_memoryview(self):
        """Parsing takes a memoryview slice without requiring a bytes
        copy."""
        node = Node(3, 0, entries=[leaf_entry(i) for i in range(4)])
        padded = node.to_bytes(4096).ljust(4096, b"\x00")
        back = Node.from_bytes(3, memoryview(padded))
        assert back.entries == node.entries


class TestChainedLeafSerialisation:
    """The TB-tree's shared-endpoint leaf layout."""

    @staticmethod
    def contiguous_entries(n, tid=5):
        from repro.geometry import STPoint, STSegment

        pts = [STPoint(float(i), float(i % 3), float(i)) for i in range(n + 1)]
        return [LeafEntry(tid, STSegment(a, b)) for a, b in zip(pts, pts[1:])]

    def test_round_trip_contiguous(self):
        entries = self.contiguous_entries(10)
        node = Node(4, 0, entries=entries, owner_id=5, chained=True)
        back = Node.from_bytes(4, node.to_bytes(4096))
        assert back.chained
        assert back.entries == entries
        assert back.owner_id == 5

    def test_round_trip_with_chain_break(self):
        from repro.geometry import STPoint, STSegment

        entries = self.contiguous_entries(4)
        # a temporal gap breaks the chain
        entries.append(
            LeafEntry(5, STSegment(STPoint(9, 9, 10), STPoint(10, 10, 11)))
        )
        entries.extend(
            LeafEntry(5, STSegment(STPoint(10, 10, 11 + i), STPoint(11, 11, 12 + i)))
            for i in range(0, 1)
        )
        node = Node(4, 0, entries=entries, owner_id=5, chained=True)
        back = Node.from_bytes(4, node.to_bytes(4096))
        assert back.entries == entries

    def test_payload_size_matches_serialisation(self):
        from repro.index.node import tb_leaf_payload_size

        entries = self.contiguous_entries(20)
        node = Node(0, 0, entries=entries, owner_id=5, chained=True)
        data = node.to_bytes(4096)
        # serialisation pads nothing itself; length = frame + node
        # header + payload
        assert len(data) == NODE_OVERHEAD_BYTES + tb_leaf_payload_size(entries)

    def test_chained_capacity_exceeds_flat_capacity(self):
        """The whole point: a 4 KB chained leaf holds ~167 contiguous
        segments vs 72 flat entries."""
        from repro.index import node_capacity

        entries = self.contiguous_entries(167)
        node = Node(0, 0, entries=entries, owner_id=5, chained=True)
        node.to_bytes(4096)  # fits
        assert len(entries) > 2 * node_capacity(4096)

    def test_chained_overflow_rejected(self):
        from repro.exceptions import PageOverflowError

        entries = self.contiguous_entries(168)
        node = Node(0, 0, entries=entries, owner_id=5, chained=True)
        with pytest.raises(PageOverflowError):
            node.to_bytes(4096)

    def test_corrupt_chain_rejected(self):
        entries = self.contiguous_entries(3)
        node = Node(0, 0, entries=entries, owner_id=5, chained=True)

        def poke(payload):
            payload[32] = 0  # chain length 0 is invalid
            payload[33] = 0

        with pytest.raises(IndexError_):
            Node.from_bytes(0, corrupt_payload(node, poke))

    def test_flipped_chain_byte_fails_checksum(self):
        """Tampering with the framed image (the old pre-frame attack)
        now dies at the frame, not in the chain decoder."""
        entries = self.contiguous_entries(3)
        node = Node(0, 0, entries=entries, owner_id=5, chained=True)
        data = bytearray(node.to_bytes(4096))
        data[48] ^= 0xFF  # first chain-layout byte of the payload
        with pytest.raises(ChecksumError):
            Node.from_bytes(0, bytes(data))
