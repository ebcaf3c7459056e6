"""The unified search API: single-form dispatch, SearchResult
envelopes and cross-algorithm stats parity."""

from __future__ import annotations

import warnings

import pytest

from repro.datagen import generate_gstd, make_workload
from repro.exceptions import QueryError
from repro.geometry import MBR2D, Point
from repro.index import RTree3D
from repro.search import (
    QuerySpec,
    SearchResult,
    SearchStats,
    bfmst_search,
    execute_spec,
    linear_scan_kmst,
    nearest_neighbours,
    range_query,
    time_relaxed_kmst,
)
from repro.search.bfmst import bfmst_search as raw_bfmst
from repro.search.linear_scan import linear_scan_kmst as raw_scan
from repro.search.nn import nearest_neighbours as raw_nn
from repro.search.range_query import range_query as raw_range
from repro.search.time_relaxed import time_relaxed_kmst as raw_trx


@pytest.fixture(scope="module")
def dataset():
    return generate_gstd(30, samples_per_object=50, seed=23)


@pytest.fixture(scope="module")
def index(dataset):
    idx = RTree3D(page_size=512)
    idx.bulk_insert(dataset)
    idx.finalize()
    return idx


@pytest.fixture(scope="module")
def qp(dataset):
    (q, p), = make_workload(dataset, 1, query_length=0.2, seed=4)
    return q, p


def _new(call):
    """Run a unified-form call asserting it does NOT warn."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        return call()


class TestUnifiedFormMatchesRaw:
    """The unified dispatchers return exactly what the raw algorithm
    implementations compute."""

    def test_bfmst(self, index, qp):
        q, p = qp
        raw_matches, raw_stats = raw_bfmst(index, q, p, 3)
        result = _new(lambda: bfmst_search(index, None, q, period=p, k=3))
        assert isinstance(result, SearchResult)
        assert result.algorithm == "bfmst"
        assert result.matches == raw_matches
        assert result.stats.node_accesses == raw_stats.node_accesses

    def test_linear_scan(self, dataset, qp):
        q, p = qp
        raw = raw_scan(dataset, q, p, 3, True)
        result = _new(
            lambda: linear_scan_kmst(
                None, dataset, q, period=p, k=3, exact=True
            )
        )
        assert result.algorithm == "linear_scan"
        assert result.matches == raw

    def test_dataset_accepted_in_context_slot(self, dataset, qp):
        q, p = qp
        result = _new(lambda: linear_scan_kmst(dataset, None, q, period=p, k=2))
        assert result.algorithm == "linear_scan" and len(result) == 2

    def test_nn(self, index, qp):
        _q, (lo, hi) = qp
        point = Point(0.5, 0.5)
        raw = raw_nn(index, point, lo, hi, 2)
        result = _new(
            lambda: nearest_neighbours(
                index, None, point, period=(lo, hi), k=2
            )
        )
        assert result.algorithm == "nn"
        assert [(m.trajectory_id, m.dissim) for m in result.matches] == raw

    def test_range(self, index, qp):
        _q, (lo, hi) = qp
        window = MBR2D(0.25, 0.25, 0.75, 0.75)
        raw = raw_range(index, window, lo, hi)
        result = _new(
            lambda: range_query(index, None, window, period=(lo, hi))
        )
        assert result.algorithm == "range"
        assert set(result.ids) == raw
        assert result.extras["hit_ids"] == sorted(raw)

    def test_time_relaxed(self, dataset, qp):
        q, (lo, hi) = qp
        short = q.sliced(lo, lo + (hi - lo) * 0.5)
        raw = raw_trx(dataset, short, 2)
        result = _new(lambda: time_relaxed_kmst(None, dataset, short, k=2))
        assert result.algorithm == "time_relaxed"
        assert result.ids == [m.trajectory_id for m, _s in raw]
        assert result.extras["shifts"] == {
            m.trajectory_id: s for m, s in raw
        }

    def test_new_form_requires_query(self, index):
        with pytest.raises(TypeError, match="query"):
            bfmst_search(index, None)

    def test_new_form_requires_period_where_mandatory(self, index):
        with pytest.raises(QueryError, match="period"):
            nearest_neighbours(index, None, Point(0, 0), k=1)
        with pytest.raises(QueryError, match="period"):
            range_query(index, None, MBR2D(0, 0, 1, 1))

    def test_index_required_for_index_algorithms(self, qp):
        q, p = qp
        with pytest.raises(QueryError, match="index"):
            bfmst_search(None, None, q, period=p)


class TestStatsParity:
    """Every algorithm reports the same SearchStats field set."""

    def test_all_algorithms_share_stats_fields(self, index, dataset, qp):
        q, p = qp
        want = set(SearchStats().as_dict())
        results = [
            _new(lambda: bfmst_search(index, None, q, period=p, k=2)),
            _new(lambda: linear_scan_kmst(None, dataset, q, period=p, k=2)),
            _new(lambda: nearest_neighbours(
                index, None, Point(0.5, 0.5), period=p, k=2)),
            _new(lambda: range_query(
                index, None, MBR2D(0.2, 0.2, 0.8, 0.8), period=p)),
            _new(lambda: time_relaxed_kmst(
                None, dataset, q.sliced(p[0], (p[0] + p[1]) / 2), k=1)),
        ]
        for result in results:
            assert set(result.stats.as_dict()) == want, result.algorithm

    def test_scan_stats_are_populated(self, dataset, qp):
        q, p = qp
        result = _new(
            lambda: linear_scan_kmst(None, dataset, q, period=p, k=3)
        )
        s = result.stats
        assert s.candidates_created == s.candidates_completed > 0
        assert s.dissim_evaluations == s.candidates_created
        assert s.entries_processed > 0
        assert "skipped_coverage" in s.extra

    def test_nn_and_range_count_node_accesses(self, index, qp):
        _q, p = qp
        nn_result = _new(lambda: nearest_neighbours(
            index, None, Point(0.5, 0.5), period=p, k=2))
        assert nn_result.stats.node_accesses > 0
        assert nn_result.stats.total_nodes == index.num_nodes
        range_result = _new(lambda: range_query(
            index, None, MBR2D(0.1, 0.1, 0.9, 0.9), period=p))
        assert range_result.stats.node_accesses > 0

    def test_result_serialises_to_json(self, index, qp):
        import json

        q, p = qp
        result = _new(lambda: bfmst_search(index, None, q, period=p, k=2))
        doc = json.loads(result.to_json())
        assert doc["algorithm"] == "bfmst"
        assert len(doc["matches"]) == 2
        assert "pruning_power" in doc["stats"]


class TestTraceParameter:
    def test_trace_kwarg_collects_counters(self, index, qp):
        from repro.obs import QueryTrace

        q, p = qp
        trace = QueryTrace(name="api-test", io=index)
        result = _new(
            lambda: bfmst_search(index, None, q, period=p, k=2, trace=trace)
        )
        assert result.stats.node_accesses > 0
        assert trace.counters.get("index.nodes_dequeued", 0) > 0
        assert trace.wall_time_s > 0
        # the global slot is restored afterwards
        from repro.obs.state import get_active

        assert get_active() is None


class TestInternalCodeIsWarningClean:
    """repro's own layers must never call the deprecated shims."""

    def test_engine_paths_are_clean(self, index, qp):
        from repro.engine import QueryEngine

        q, p = qp
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            with QueryEngine(index) as engine:
                engine.run_batch([
                    QuerySpec("mst", q, p, k=2),
                    QuerySpec("mst", q, p, k=1, options={"refine": False}),
                ])

    def test_experiment_workload_runner_is_clean(self, dataset):
        from repro.experiments.performance import build_index, run_workload

        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            index = build_index(dataset, "rtree", page_size=512)
            workload = list(make_workload(dataset, 2, 0.1, seed=1))
            run_workload(
                index, dataset, workload,
                k=2, variable="k", value=2, verify=True,
            )


class TestLegacyFormsRemoved:
    """The pre-unification positional forms are gone; the entry points
    are plain ``fn(ctx_or_index, dataset, query, *, ...)`` functions."""

    def test_error_carries_migration_hint(self, index, qp):
        """The old ``bfmst_search(index, query, period)`` form puts a
        period where the query goes: rejected, naming the slots, before
        the index is read."""
        q, p = qp
        reads = index.pagefile.stats.snapshot()
        with pytest.raises(TypeError) as err:
            bfmst_search(index, q, p, k=2)
        assert "(ctx_or_index, dataset, query)" in str(err.value)
        assert index.pagefile.stats.diff(reads).logical_reads == 0

    def test_raw_implementations_stay_importable(self, index, qp):
        q, p = qp
        matches, stats = raw_bfmst(index, q, p, 2)
        assert isinstance(stats, SearchStats)
        assert matches


class TestOptionTable:
    def test_table_names_the_entry_points_keywords(self):
        """What ``QuerySpec.from_dict`` accepts is what
        :func:`bfmst_search` takes: the table cannot drift from the
        signature it guards."""
        import inspect

        from repro.search.spec import OPTIONS

        # Spec fields, and the two k-MST keywords that stay off the
        # wire (the index decides the filter; kernels is reserved).
        not_options = {"period", "k", "kernels", "filter", "trace", "deadline"}
        keyword_only = {
            name
            for name, param in inspect.signature(bfmst_search).parameters.items()
            if param.kind is param.KEYWORD_ONLY
        }
        assert set(OPTIONS) == keyword_only - not_options
        # Nothing on the wire steers V_max or the filter.
        assert set(OPTIONS) == {
            "use_heuristic1", "use_heuristic2", "refine", "exclude_ids",
        }

    def test_wire_options_are_held_against_the_table(self, qp):
        q, p = qp
        doc = QuerySpec("mst", q, p).as_dict()
        good = {
            "use_heuristic1": False, "use_heuristic2": False,
            "refine": False, "exclude_ids": [3, "7"],
        }
        revived = QuerySpec.from_dict({**doc, "options": good})
        assert revived.options == {**good, "exclude_ids": frozenset({3, "7"})}
        for bad in [
            {"vmax": 2.5}, {"filter": "off"}, {"exact": True}, {"grid": 8},
            {"exclude_ids": 5}, {"exclude_ids": [[1]]},
        ]:
            (name,) = bad
            with pytest.raises(QueryError, match=name):
                QuerySpec.from_dict({**doc, "options": bad})


class TestSpecAttachment:
    """A k-MST answer carries its QuerySpec, and re-executing that spec
    reproduces the answer; the library calls carry none."""

    def test_only_kmst_attaches_a_spec(self, index, dataset, qp):
        q, p = qp
        result = bfmst_search(index, None, q, period=p, k=2)
        assert isinstance(result.spec, QuerySpec)
        again = execute_spec(index, None, QuerySpec.from_json(result.spec.to_json()))
        assert again.answer_json() == result.answer_json()
        for call in [
            linear_scan_kmst(None, dataset, q, period=p, k=2, exact=True),
            nearest_neighbours(index, None, Point(0.5, 0.5), period=p, k=2),
            range_query(index, None, MBR2D(0.2, 0.2, 0.8, 0.8), period=p),
            time_relaxed_kmst(
                None, dataset, q.sliced(p[0], (p[0] + p[1]) / 2), k=1
            ),
        ]:
            assert call.spec is None, call.algorithm
            assert call.as_dict()["spec"] is None

    def test_execute_spec_runs_only_kmst(self, index, qp):
        q, p = qp
        spec = QuerySpec("linear_scan", q, p, k=2)
        with pytest.raises(QueryError, match="'mst'"):
            execute_spec(index, None, spec)

    def test_spec_options_survive_the_wire(self, index, qp):
        q, p = qp
        result = bfmst_search(
            index, None, q, period=p, k=3, exclude_ids={q.object_id},
        )
        spec = QuerySpec.from_json(result.spec.to_json())
        assert spec.options["exclude_ids"] == frozenset({q.object_id})
        again = execute_spec(index, None, spec)
        assert again.answer_json() == result.answer_json()
