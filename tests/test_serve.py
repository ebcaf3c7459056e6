"""The serving tier: wire formats, admission control, answer fidelity.

Most tests run a real :class:`~repro.serve.BackgroundServer` over a
real engine and speak actual HTTP through :class:`ServeClient` — the
served path is only trusted if its answers are byte-identical to
in-process :meth:`QueryEngine.execute`.  The failure-mode tests
(deadline, backpressure) use stub engines so the timing is
deterministic.
"""

from __future__ import annotations

import concurrent.futures
import json
import math
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import RTree3D, Trajectory, generate_gstd, make_workload
from repro.engine import EngineConfig, QueryEngine
from repro.exceptions import DeadlineExceeded, QueryError, ServeError
from repro.obs import MetricsRegistry
from repro.search.results import SearchResult, SearchStats
from repro.search.spec import QuerySpec
from repro.serve import (
    AdmissionController,
    BackgroundServer,
    ResultCache,
    ServeClient,
    ServeConfig,
    TokenBucket,
)
from repro.serve.client import ServeRejected

from conftest import trajectories

#: A query trajectory for specs whose answer no test reads.
TINY = Trajectory(-1, [(0.0, 0.0, 0.0), (1.0, 1.0, 1.0)])

#: The kind spellings the wire took before k-MST became its one kind.
RETIRED_KINDS = (
    "bfmst", "kmst", "linear_scan", "scan", "nn", "range",
    "continuous_nn", "cnn", "time_relaxed",
)

# ----------------------------------------------------------------------
# wire formats (no server involved)
# ----------------------------------------------------------------------
class TestWireRoundTrips:
    @given(
        query=trajectories(id_=-1),
        k=st.integers(min_value=1, max_value=10),
        deadline_ms=st.one_of(
            st.none(), st.floats(min_value=1.0, max_value=60_000.0)
        ),
        kernels=st.sampled_from([None, "auto"]),
    )
    @settings(max_examples=40, deadline=None)
    def test_query_spec_round_trips(self, query, k, deadline_ms, kernels):
        period = (query.t_start, query.t_end)
        spec = QuerySpec(
            "mst", query, period, k=k,
            options={"exclude_ids": frozenset({3, 1})},
            deadline_ms=deadline_ms,
        )
        wire = spec.to_json()
        # the reserved field reads either way and writes null
        revived = QuerySpec.from_dict({**json.loads(wire), "kernels": kernels})
        assert revived.to_json() == wire
        assert revived.cache_key() == spec.cache_key()
        assert revived.k == k
        assert revived.options["exclude_ids"] == frozenset({3, 1})
        got = revived.query
        assert [(p.x, p.y, p.t) for p in got] == [
            (p.x, p.y, p.t) for p in query
        ]

    def test_reserved_kernels_field_is_one_cache_key(self):
        doc = QuerySpec("mst", TINY, (0.0, 1.0)).as_dict()
        assert doc["kernels"] is None
        auto = QuerySpec.from_dict({**doc, "kernels": "auto"})
        null = QuerySpec.from_dict({**doc, "kernels": None})
        assert auto.cache_key() == null.cache_key()
        assert auto.as_dict() == null.as_dict() == doc
        assert not hasattr(auto, "kernels")

    def test_cache_key_ignores_the_deadline_budget(self):
        a = QuerySpec("mst", TINY, (0.0, 1.0), deadline_ms=5.0)
        b = QuerySpec("mst", TINY, (0.0, 1.0), deadline_ms=5000.0)
        assert a.cache_key() == b.cache_key()
        assert a.to_json() != b.to_json()

    @pytest.mark.parametrize(
        "mutation",
        [
            {"spec": 2},
            {"kind": "teleport"},
            {"k": 0},
            {"k": True},
            {"period": [5.0, 1.0]},
            {"kernels": "fortran"},
            {"deadline_ms": -1.0},
            {"query": {"type": "wormhole"}},
            {"options": {"k": 2}},
            *({"kind": kind} for kind in RETIRED_KINDS),
            {"query": {"type": "point", "x": 0.0, "y": 0.0}},
            {"query": {"type": "window", "xmin": 0.0, "ymin": 0.0,
                       "xmax": 1.0, "ymax": 1.0}},
        ],
    )
    def test_malformed_specs_are_rejected(self, mutation):
        doc = QuerySpec("mst", TINY, (0.0, 1.0)).as_dict()
        doc.update(mutation)
        with pytest.raises(QueryError) as err:
            QuerySpec.from_dict(doc)
        if "kind" in mutation or "query" in mutation:
            # a retired kind or query type names what the wire takes
            assert "mst" in str(err.value)


# ----------------------------------------------------------------------
# a real served engine
# ----------------------------------------------------------------------
#: Every option a k-MST request may carry.
MST_OPTIONS = ("exclude_ids", "refine", "use_heuristic1", "use_heuristic2")


@pytest.fixture(scope="module")
def served_world():
    dataset = generate_gstd(15, samples_per_object=15, seed=11)
    index = RTree3D(page_size=1024)
    index.bulk_insert(dataset)
    index.finalize()
    engine = QueryEngine(index, config=EngineConfig(executor="thread"))
    config = ServeConfig(
        port=0, workers=2, max_body_bytes=64 * 1024, quota_rps=0.0
    )
    with BackgroundServer(engine, config) as bg:
        yield dataset, engine, bg
    engine.close()


def _specs(dataset, n=3, seed=2):
    for i, (query, period) in enumerate(
        make_workload(dataset, n, 0.2, seed=seed)
    ):
        yield QuerySpec("mst", query, period, k=3 + i)


class TestServedAnswers:
    def test_served_equals_in_process_byte_for_byte(self, served_world):
        dataset, engine, bg = served_world
        with ServeClient(*bg.address) as client:
            for spec in _specs(dataset):
                served = client.query(spec)
                inproc = engine.execute(spec)
                assert served.answer_json() == inproc.answer_json()
                assert served.spec.cache_key() == spec.cache_key()

    def test_result_envelope_round_trips(self, served_world):
        dataset, engine, _bg = served_world
        spec = next(_specs(dataset))
        result = engine.execute(spec)
        revived = SearchResult.from_json(result.to_json())
        assert revived.answer_json() == result.answer_json()
        assert revived.stats.node_accesses == result.stats.node_accesses
        assert revived.spec.cache_key() == spec.cache_key()

    def test_hot_query_hits_the_cache(self, served_world):
        dataset, _engine, bg = served_world
        spec = QuerySpec(
            "mst", *next(iter(make_workload(dataset, 1, 0.25, seed=33))), k=2
        )
        with ServeClient(*bg.address) as client:
            first = client.query(spec)
            again = client.query(spec)
            assert first.served_from_cache is False
            assert again.served_from_cache is True
            assert again.answer_json() == first.answer_json()
            counters = client.stats()["serve"]["counters"]
            assert counters["serve.cache.hits"] >= 1

    def test_deadline_budget_on_the_spec_is_clamped_not_rejected(
        self, served_world
    ):
        dataset, _engine, bg = served_world
        query, period = next(iter(make_workload(dataset, 1, 0.2, seed=5)))
        spec = QuerySpec(
            "mst", query, period, k=2, deadline_ms=10_000_000.0
        )
        with ServeClient(*bg.address) as client:
            assert len(client.query(spec).matches) > 0


class TestRejectionPaths:
    def test_malformed_body_is_400(self, served_world):
        *_x, bg = served_world
        with ServeClient(*bg.address) as client:
            status, _headers, payload = client.query_raw(b"{broken")
            assert status == 400
            assert b"malformed" in payload

    def test_wrong_spec_version_is_400(self, served_world):
        *_x, bg = served_world
        with ServeClient(*bg.address) as client:
            status, _headers, payload = client.query_raw(b'{"spec": 99}')
            assert status == 400

    def test_oversized_body_is_413(self, served_world):
        *_x, bg = served_world
        with ServeClient(*bg.address) as client:
            status, _headers, payload = client.query_raw(b"x" * (80 * 1024))
            assert status == 413
            assert b"too_large" in payload

    def test_unroutable_requests(self, served_world):
        *_x, bg = served_world
        with ServeClient(*bg.address) as client:
            status, _h, _p = client._request("GET", "/nope")
            assert status == 404
            status, _h, _p = client._request("GET", "/v1/query")
            assert status == 405

    def test_engine_rejection_is_422(self, served_world):
        dataset, _engine, bg = served_world
        query, _period = next(iter(make_workload(dataset, 1, 0.2, seed=6)))
        # a well-formed spec whose period the query does not cover:
        # the search refuses it (TemporalCoverageError) -> 422
        doc = QuerySpec("mst", query, (query.t_end, query.t_end + 1.0)).as_dict()
        with ServeClient(*bg.address) as client:
            status, _headers, payload = client.query_raw(
                json.dumps(doc).encode()
            )
            assert status == 422
            assert b"rejected" in payload

    def test_retired_kind_is_400(self, served_world):
        """Any kind but ``mst`` is refused at the boundary, naming the
        one the wire takes — a 400, not a 500."""
        dataset, _engine, bg = served_world
        query, period = next(iter(make_workload(dataset, 1, 0.2, seed=6)))
        doc = {**QuerySpec("mst", query, period).as_dict(), "kind": "range"}
        with ServeClient(*bg.address) as client:
            status, _h, payload = client.query_raw(json.dumps(doc).encode())
        body = json.loads(payload)
        assert (status, body["error"]) == (400, "malformed")
        assert "'mst'" in body["detail"]

    @pytest.mark.parametrize(
        "options, names",
        [
            ({"bogus": 1}, ("bogus", "exclude_ids")),
            ({"selected": [0]}, ("selected", "use_heuristic1")),
            ({"executor": 1}, ("executor", "use_heuristic2")),
            ({"deadline": 1}, ("deadline", "refine")),
            ({"vmax": "fast"}, ("unknown option 'vmax'",)),
            ({"refine": "no"}, ("refine", "true or false")),
            # V_max and the filter are the index's: a request that sets
            # either is refused, however well-typed the value.
            ({"vmax": 0}, ("unknown option 'vmax'", *MST_OPTIONS)),
            ({"filter": "off"}, ("unknown option 'filter'", *MST_OPTIONS)),
        ],
        ids=[
            "bogus", "selected", "executor", "deadline", "vmax", "refine",
            "vmax-zero", "filter-off",
        ],
    )
    def test_bad_option_is_400(self, options, names, served_world):
        """An option the kind does not take, or an ill-typed one, is
        refused at the boundary: the body names it and what is
        accepted, and shows nothing of the Python underneath."""
        dataset, _engine, bg = served_world
        query, period = next(iter(make_workload(dataset, 1, 0.2, seed=6)))
        doc = QuerySpec("mst", query, period, k=2).as_dict()
        doc["options"] = options
        with ServeClient(*bg.address) as client:
            malformed = lambda: client.stats()["serve"]["counters"].get(
                "serve.rejected.malformed", 0
            )
            before = malformed()
            status, _h, payload = client.query_raw(json.dumps(doc).encode())
            assert malformed() == before + 1
        body = json.loads(payload)
        assert (status, body["error"]) == (400, "malformed")
        assert all(name in body["detail"] for name in names)
        assert "TypeError" not in body["detail"]

    @pytest.mark.parametrize(
        "name, value",
        [
            ("vmax", math.nan),
            ("vmax", math.inf),
            ("deadline_ms", math.nan),
            ("deadline_ms", math.inf),
            ("period", math.inf),
            ("period", math.nan),
            ("period", True),
        ],
        ids=[
            "vmax-nan", "vmax-inf", "deadline-nan", "deadline-inf",
            "period-inf", "period-nan", "period-bool",
        ],
    )
    def test_non_finite_wire_number_is_400(self, name, value, served_world):
        """A NaN compares false, so a NaN deadline would never fire:
        every number on the wire must be finite (and a bool is no
        number).  ``vmax`` is not an option — the index decides it — so
        even a NaN one is refused by name."""
        dataset, _engine, bg = served_world
        query, period = next(iter(make_workload(dataset, 1, 0.2, seed=6)))
        doc = QuerySpec("mst", query, period, k=2).as_dict()
        expect = name
        if name == "vmax":
            doc["options"] = {"vmax": value}
            expect = "unknown option 'vmax'"
        elif name == "period":
            doc["period"] = [period[0], value] if value is not True else [
                value, period[1]
            ]
        else:
            doc[name] = value
        wire = json.dumps(doc)  # NaN / Infinity tokens, as json.loads reads
        with pytest.raises(QueryError, match=expect):
            QuerySpec.from_json(wire)
        with ServeClient(*bg.address) as client:
            status, _h, payload = client.query_raw(wire.encode())
        body = json.loads(payload)
        assert (status, body["error"]) == (400, "malformed")
        assert expect in body["detail"]

    def test_stats_and_health_endpoints(self, served_world):
        *_x, bg = served_world
        with ServeClient(*bg.address) as client:
            assert client.health() is True
            doc = client.stats()
            assert doc["engine"]["type"] == "QueryEngine"
            assert doc["config"]["max_inflight"] == 64
            assert doc["draining"] is False
            assert "serve.requests" in doc["serve"]["counters"]


# ----------------------------------------------------------------------
# deterministic failure modes via stub engines
# ----------------------------------------------------------------------
class _StubEngine:
    """Engine protocol stand-in with controllable execute()."""

    def __init__(self):
        self._signature = ("stub", 1)
        self.metrics = MetricsRegistry()

    def signature(self):
        return self._signature

    def execute(self, spec, *, deadline=None):
        return SearchResult(
            algorithm="stub", matches=[], stats=SearchStats(), spec=spec
        )


class _DeadlineEngine(_StubEngine):
    def execute(self, spec, *, deadline=None):
        if deadline is not None and time.monotonic() >= deadline:
            raise DeadlineExceeded("deadline expired before the query started")
        raise DeadlineExceeded("query exceeded its deadline budget")


class _BlockingEngine(_StubEngine):
    def __init__(self):
        super().__init__()
        self.gate = threading.Event()
        self.entered = threading.Semaphore(0)

    def execute(self, spec, *, deadline=None):
        self.entered.release()
        assert self.gate.wait(timeout=30.0), "test gate never opened"
        return super().execute(spec, deadline=deadline)


def _any_spec(k=1):
    return QuerySpec("mst", TINY, (0.0, 1.0), k=k)


class TestDeadlines:
    def test_deadline_exceeded_maps_to_504(self):
        with BackgroundServer(
            _DeadlineEngine(), ServeConfig(port=0, workers=1)
        ) as bg:
            with ServeClient(*bg.address) as client:
                with pytest.raises(ServeRejected) as info:
                    client.query(_any_spec())
                assert info.value.status == 504
                assert info.value.reason == "deadline_exceeded"
                counters = client.stats()["serve"]["counters"]
                assert counters["serve.deadline_misses"] == 1

    def test_real_engine_enforces_a_tiny_budget(self, served_world):
        dataset, _engine, bg = served_world
        query, period = next(iter(make_workload(dataset, 1, 0.2, seed=7)))
        spec = QuerySpec("mst", query, period, k=2, deadline_ms=0.001)
        with ServeClient(*bg.address) as client:
            with pytest.raises(ServeRejected) as info:
                client.query(spec)
            assert info.value.status == 504


class TestBackpressure:
    def test_overload_rejects_immediately_and_recovers(self):
        engine = _BlockingEngine()
        config = ServeConfig(
            port=0, workers=2, max_inflight=2, cache_entries=0
        )
        with BackgroundServer(engine, config) as bg:
            host, port = bg.address

            def one_request(i):
                with ServeClient(host, port, client_id=f"c{i}") as client:
                    try:
                        return ("ok", client.query(_any_spec()))
                    except ServeRejected as exc:
                        return ("rejected", exc)

            with concurrent.futures.ThreadPoolExecutor(8) as pool:
                futures = [pool.submit(one_request, i) for i in range(2)]
                # both slots must be occupied before the burst
                assert engine.entered.acquire(timeout=10.0)
                assert engine.entered.acquire(timeout=10.0)
                burst = [pool.submit(one_request, 10 + i) for i in range(6)]
                rejected = [f.result(timeout=10.0) for f in burst]
                # every extra request was shed *while* the slots were
                # still blocked -- nothing queued behind them
                assert all(kind == "rejected" for kind, _ in rejected)
                assert all(
                    exc.status == 429 and exc.reason == "overload"
                    for _, exc in rejected
                )
                engine.gate.set()
                admitted = [f.result(timeout=10.0) for f in futures]
                assert all(kind == "ok" for kind, _ in admitted)

            with ServeClient(host, port) as client:
                counters = client.stats()["serve"]["counters"]
                assert counters["serve.rejected.overload"] == 6
                assert client.stats()["inflight"] == 0

    def test_quota_rejections_carry_retry_after(self):
        config = ServeConfig(
            port=0, workers=1, quota_rps=0.5, quota_burst=1,
            cache_entries=0,
        )
        with BackgroundServer(_StubEngine(), config) as bg:
            with ServeClient(*bg.address, client_id="greedy") as client:
                client.query(_any_spec())
                with pytest.raises(ServeRejected) as info:
                    client.query(_any_spec())
                assert info.value.status == 429
                assert info.value.reason == "quota"
                assert info.value.retry_after > 0
            # a different client id has its own bucket
            with ServeClient(*bg.address, client_id="other") as client:
                assert client.query(_any_spec()).algorithm == "stub"

    def test_drained_server_stops_accepting(self):
        bg = BackgroundServer(_StubEngine(), ServeConfig(port=0, workers=1))
        bg.start()
        host, port = bg.address
        with ServeClient(host, port) as client:
            client.query(_any_spec())
        bg.stop()
        with pytest.raises(ServeError):
            with ServeClient(host, port, timeout=2.0) as client:
                client.query(_any_spec())


class TestClientTransport:
    def test_each_request_leaves_as_one_write(self, monkeypatch):
        """Headers and body go out in a single ``sendall`` that fits
        one TCP segment, so the server's loop wakes once per request
        (two writes cost a cache hit a second wake-up)."""
        import socket

        writes = []

        class RecordingSocket(socket.socket):
            def sendall(self, data, *flags):
                writes.append(bytes(data))
                return super().sendall(data, *flags)

            def send(self, data, *flags):
                writes.append(bytes(data))
                return super().send(data, *flags)

        connect = socket.create_connection

        def recording_connection(address, timeout=None, *args, **kwargs):
            plain = connect(address, timeout, *args, **kwargs)
            sock = RecordingSocket(fileno=plain.detach())
            sock.settimeout(timeout)
            return sock

        monkeypatch.setattr(socket, "create_connection", recording_connection)
        spec = _any_spec()
        with BackgroundServer(
            _StubEngine(), ServeConfig(port=0, workers=1)
        ) as bg:
            with ServeClient(*bg.address, client_id="one-write") as client:
                assert client.query(spec).algorithm == "stub"
                assert client.query(spec).served_from_cache
                assert client.health()
        assert len(writes) == 3
        body = spec.to_json().encode()
        for request in writes[:2]:
            head, _, sent_body = request.partition(b"\r\n\r\n")
            assert head.startswith(b"POST /v1/query HTTP/1.1\r\n")
            assert f"Content-Length: {len(body)}".encode() in head
            assert sent_body == body
            assert len(request) < 1400
        assert writes[2].startswith(b"GET /healthz HTTP/1.1\r\n")


# ----------------------------------------------------------------------
# admission / cache units
# ----------------------------------------------------------------------
class TestTokenBucket:
    def test_burst_then_refill(self):
        clock = [0.0]
        bucket = TokenBucket(rate=2.0, burst=2, now=clock[0])
        assert bucket.acquire(0.0) == 0.0
        assert bucket.acquire(0.0) == 0.0
        wait = bucket.acquire(0.0)
        assert wait == pytest.approx(0.5)
        assert bucket.acquire(0.5) == 0.0

    def test_controller_lru_caps_client_table(self):
        ctl = AdmissionController(
            4, quota_rps=1.0, quota_burst=1, max_clients=2
        )
        assert ctl.check_quota("a") == 0.0
        assert ctl.check_quota("b") == 0.0
        assert ctl.check_quota("c") == 0.0  # evicts "a"
        assert ctl.check_quota("a") == 0.0  # fresh bucket again
        assert len(ctl._buckets) == 2

    def test_inflight_slots(self):
        ctl = AdmissionController(2)
        assert ctl.try_admit() and ctl.try_admit()
        assert not ctl.try_admit()
        ctl.release()
        assert ctl.try_admit()


class TestResultCache:
    def test_signature_change_invalidates(self):
        cache = ResultCache(4)
        cache.put(("gen", 1), "key", b"old")
        assert cache.get(("gen", 1), "key") == b"old"
        assert cache.get(("gen", 2), "key") is None

    def test_lru_eviction_and_disable(self):
        cache = ResultCache(2)
        cache.put((1,), "a", b"a")
        cache.put((1,), "b", b"b")
        assert cache.get((1,), "a") == b"a"  # refresh "a"
        cache.put((1,), "c", b"c")  # evicts "b"
        assert cache.get((1,), "b") is None
        assert cache.get((1,), "a") == b"a"
        disabled = ResultCache(0)
        disabled.put((1,), "a", b"a")
        assert disabled.get((1,), "a") is None
