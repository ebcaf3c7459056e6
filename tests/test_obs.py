"""Tests for the observability layer (repro.obs): instrument
semantics, registry JSON round-tripping, the
query-trace lifecycle, and the SearchStats enrichment a live trace
feeds through the whole stack."""

import json

import pytest

from repro import (
    MetricsRegistry,
    QueryTrace,
    RTree3D,
    generate_gstd,
    make_workload,
    query_trace,
)
from repro.obs import DEFAULT_HISTOGRAM_BOUNDS, Histogram, state
from repro.search.bfmst import bfmst_search
from repro.obs.trace import _resolve_io


class TestInstruments:
    def test_counter_increments(self):
        reg = MetricsRegistry()
        assert reg.counter("x").inc() == 1
        assert reg.counter("x").inc(4) == 5
        assert reg.value("x") == 5
        assert reg.value("never-touched") == 0

    def test_counter_identity_on_reuse(self):
        reg = MetricsRegistry()
        assert reg.counter("x") is reg.counter("x")
        assert reg.gauge("g") is reg.gauge("g")
        assert reg.timer("t") is reg.timer("t")
        assert reg.histogram("h") is reg.histogram("h")

    def test_gauge_set_and_high_water(self):
        reg = MetricsRegistry()
        reg.gauge("g").set(3.0)
        reg.record_max("g", 1.0)  # below: ignored
        assert reg.gauge("g").value == 3.0
        reg.record_max("g", 7.0)
        assert reg.gauge("g").value == 7.0

    def test_timer_accumulates(self):
        reg = MetricsRegistry()
        t = reg.timer("t")
        t.record(0.5)
        t.record(1.5)
        assert t.count == 2
        assert t.total_seconds == pytest.approx(2.0)
        assert t.max_seconds == pytest.approx(1.5)
        assert t.mean_seconds == pytest.approx(1.0)
        with reg.time("t"):
            pass
        assert t.count == 3

    def test_histogram_buckets_and_overflow(self):
        h = Histogram("h", bounds=(1.0, 10.0))
        for v in (0.5, 1.0, 5.0, 100.0):
            h.record(v)
        # bisect_right: a value equal to an edge lands in the next
        # bucket, so edges are exclusive upper bounds; 100 overflows.
        assert h.counts == [1, 2, 1]
        assert h.count == 4
        assert h.total == pytest.approx(106.5)
        assert h.min == 0.5 and h.max == 100.0
        assert h.mean == pytest.approx(106.5 / 4)

    def test_histogram_default_bounds_and_validation(self):
        assert Histogram("h").bounds == DEFAULT_HISTOGRAM_BOUNDS
        with pytest.raises(ValueError):
            Histogram("h", bounds=(5.0, 1.0))


class TestRegistry:
    def test_counters_view_and_snapshot_are_independent(self):
        reg = MetricsRegistry()
        reg.inc("a", 2)
        before = reg.snapshot()
        reg.inc("a", 3)
        assert before == {"a": 2}
        assert reg.counters == {"a": 5}

    def test_json_round_trip(self):
        reg = MetricsRegistry()
        reg.inc("c", 7)
        reg.gauge("g").set(2.5)
        reg.timer("t").record(0.25)
        reg.observe("h", 3.0)
        back = MetricsRegistry.from_json(reg.to_json())
        assert back.as_dict() == reg.as_dict()
        # the revived registry is live, not a frozen snapshot
        back.inc("c")
        assert back.value("c") == 8

    def test_empty_histogram_round_trips(self):
        reg = MetricsRegistry()
        reg.histogram("h")
        assert reg.as_dict()["histograms"]["h"]["min"] is None
        back = MetricsRegistry.from_json(reg.to_json())
        back.observe("h", 4.0)
        assert back.histogram("h").min == 4.0

    def test_reset(self):
        reg = MetricsRegistry()
        reg.inc("a")
        reg.reset()
        assert reg.counters == {}


def _tiny_index(seed=5, num_objects=12, samples=15):
    dataset = generate_gstd(num_objects, samples_per_object=samples, seed=seed)
    index = RTree3D(page_size=512)
    index.bulk_insert(dataset)
    index.finalize()
    (query, period), = make_workload(dataset, 1, 0.2, seed=seed)
    return dataset, index, query, period


class TestQueryTrace:
    def test_resolve_io_walks_to_the_stats_block(self):
        _dataset, index, _query, _period = _tiny_index()
        stats = index.pagefile.stats
        assert _resolve_io(index) is stats
        assert _resolve_io(index.pagefile) is stats
        assert _resolve_io(stats) is stats
        assert _resolve_io(None) is None
        with pytest.raises(TypeError):
            _resolve_io(object())

    def test_active_slot_installed_and_restored(self):
        assert state.ACTIVE is None
        with query_trace(name="outer") as outer:
            assert state.ACTIVE is outer
            with query_trace(name="inner") as inner:
                assert state.ACTIVE is inner
            assert state.ACTIVE is outer
        assert state.ACTIVE is None

    def test_active_restored_on_exception(self):
        with pytest.raises(RuntimeError):
            with query_trace():
                raise RuntimeError("boom")
        assert state.ACTIVE is None

    def test_io_diff_scopes_to_the_traced_window(self):
        _dataset, index, query, period = _tiny_index()
        bfmst_search(index, query, period, k=2)  # pre-trace traffic
        with query_trace(index) as trace:
            _matches, stats = bfmst_search(index, query, period, k=2)
        assert trace.io is not None
        assert trace.io.logical_reads == stats.node_accesses
        assert trace.io.buffer_hits == stats.buffer_hits
        assert trace.io.buffer_misses == stats.buffer_misses
        assert trace.buffer_hit_ratio == pytest.approx(stats.buffer_hit_ratio)
        assert trace.wall_time_s > 0.0

    def test_trace_without_io_source(self):
        trace = QueryTrace(name="bare").start().finish()
        assert trace.io is None
        assert trace.buffer_hit_ratio == 0.0
        assert trace.as_dict()["io"] is None

    def test_as_dict_round_trips_through_json(self):
        _dataset, index, query, period = _tiny_index()
        with query_trace(index, name="q") as trace:
            bfmst_search(index, query, period, k=2)
        doc = json.loads(trace.to_json())
        assert doc["name"] == "q"
        assert doc["io"]["logical_reads"] > 0
        assert doc["metrics"]["counters"]["search.bfmst.queries"] == 1
        revived = MetricsRegistry.from_dict(doc["metrics"])
        assert revived.counters == trace.counters


class TestTracedSearch:
    def test_counters_cover_every_layer(self):
        _dataset, index, query, period = _tiny_index()
        with query_trace(index) as trace:
            _matches, stats = bfmst_search(index, query, period, k=3)
        c = trace.counters
        # storage -> index -> search -> distance, all wired through
        assert c["storage.logical_reads"] == stats.node_accesses
        assert c["index.nodes_dequeued"] == stats.node_accesses
        assert c["index.mindist_evaluations"] > 0
        assert c["search.bfmst.queries"] == 1
        assert c["search.bfmst.h1_rejections"] == stats.candidates_rejected
        assert c["search.bfmst.refinements"] == stats.refinement_candidates
        assert c["distance.trapezoid_integrals"] > 0

    def test_search_stats_enrichment(self):
        _dataset, index, query, period = _tiny_index()
        with query_trace(index):
            _matches, stats = bfmst_search(index, query, period, k=3)
        assert stats.mindist_evaluations > 0
        assert stats.heap_high_water > 0
        assert stats.trapezoid_evals >= stats.dissim_evaluations
        if stats.terminated_early:
            assert 0 < stats.h2_termination_depth <= stats.node_accesses
        doc = stats.as_dict()
        assert doc["pruning_power"] == pytest.approx(stats.pruning_power)
        assert doc["buffer_hit_ratio"] == pytest.approx(stats.buffer_hit_ratio)
        assert json.loads(stats.to_json()) == json.loads(
            json.dumps(doc)
        )

    def test_untraced_search_leaves_enrichment_at_zero(self):
        _dataset, index, query, period = _tiny_index()
        _matches, stats = bfmst_search(index, query, period, k=3)
        assert state.ACTIVE is None
        assert stats.mindist_evaluations == 0
        assert stats.heap_high_water == 0
        assert stats.exact_integral_evals == 0

    def test_tracing_does_not_change_answers(self):
        _dataset, index, query, period = _tiny_index()
        plain, _ = bfmst_search(index, query, period, k=5)
        with query_trace(index):
            traced, _ = bfmst_search(index, query, period, k=5)
        assert [(m.trajectory_id, m.dissim) for m in plain] == [
            (m.trajectory_id, m.dissim) for m in traced
        ]
