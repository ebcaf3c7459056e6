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
from repro.engine import QueryEngine, ShardedQueryEngine
from repro.exceptions import DeadlineExceeded, QueryError, ServeError
from repro.obs import MetricsRegistry
from repro.search.results import SearchResult, SearchStats
from repro.search.spec import QuerySpec
from repro.serve import (
    BackgroundServer,
    ResultCache,
    ServeClient,
    ServeConfig,
)
from repro.serve import server as server_module
from repro.serve.client import ServeRejected
from repro.serve.server import MAX_BODY_BYTES
from repro.sharding import (
    ShardedDataset,
    build_sharded_index,
    make_partitioner,
    save_sharded_index,
)

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
    engine = QueryEngine(index)
    with BackgroundServer(engine, ServeConfig(port=0, workers=2)) as bg:
        yield dataset, engine, bg
    engine.close()


def _specs(dataset, n=3, seed=2):
    for i, (query, period) in enumerate(
        make_workload(dataset, n, 0.2, seed=seed)
    ):
        yield QuerySpec("mst", query, period, k=3 + i)


def _post_head(length: int) -> bytes:
    return (
        f"POST /v1/query HTTP/1.1\r\nHost: x\r\n"
        f"Content-Length: {length}\r\n\r\n"
    ).encode("latin-1")


def _raw_exchange(address, request: bytes) -> tuple[int, bytes]:
    """Send raw request bytes on a fresh connection; return the reply's
    status and body."""
    import socket

    with socket.create_connection(address, timeout=10.0) as sock:
        sock.sendall(request)
        reader = sock.makefile("rb")
        status = int(reader.readline()[9:12])
        length = 0
        for line in iter(reader.readline, b"\r\n"):
            name, _, value = line.decode("latin-1").partition(":")
            if name.strip().lower() == "content-length":
                length = int(value)
        return status, reader.read(length)


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
        """The limit is judged from the declared length, before a byte
        of the body is read; a body of exactly 1 MiB is read (and is
        then merely malformed)."""
        *_x, bg = served_world
        over = _raw_exchange(
            bg.address, _post_head(MAX_BODY_BYTES + 1)
        )
        assert over[0] == 413 and b"too_large" in over[1]
        at = _raw_exchange(
            bg.address, _post_head(MAX_BODY_BYTES) + b"x" * MAX_BODY_BYTES
        )
        assert at[0] == 400 and b"malformed" in at[1]

    @pytest.mark.parametrize(
        "framing",
        ["+{n}", "{n_}", "{n}\r\nContent-Length: {n}", " {n} {n}", "-{n}"],
        ids=["plus-sign", "underscore", "repeated", "two-values", "negative"],
    )
    def test_content_length_is_ascii_digits_once(self, framing, served_world):
        """``int`` would read ``+345`` and ``3_45`` as a length, and a
        second header would silently win: each is a 400, even over a
        spec that is otherwise well formed."""
        dataset, _engine, bg = served_world
        body = next(_specs(dataset)).to_json().encode()
        n = str(len(body))
        value = framing.format(n=n, n_=f"{n[0]}_{n[1:]}")
        head = (
            f"POST /v1/query HTTP/1.1\r\nHost: x\r\n"
            f"Content-Length: {value}\r\n\r\n"
        ).encode("latin-1")
        status, payload = _raw_exchange(bg.address, head + body)
        assert status == 400 and b"malformed" in payload

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


class TestServedSerialEngine:
    """``repro serve`` opens a serial engine: the server hands it up to
    ``workers`` requests at once and the engine runs them one at a
    time."""

    def test_concurrent_misses_over_four_shards(self, tmp_path):
        dataset = generate_gstd(30, samples_per_object=20, seed=23)
        sharded = build_sharded_index(
            ShardedDataset.partition(dataset, make_partitioner("hash", 4)),
            RTree3D,
            page_size=1024,
        )
        directory = tmp_path / "shards"
        save_sharded_index(sharded, directory, signatures=True)
        sharded.close()
        specs = list(_specs(dataset, n=6, seed=4))
        oracle = ShardedQueryEngine.open(directory)
        want = {s.cache_key(): oracle.execute(s).answer_json() for s in specs}
        oracle.close()
        oracle.index.close()

        engine = ShardedQueryEngine.open(directory)
        config = ServeConfig(port=0, workers=2, cache_entries=0)
        try:
            with BackgroundServer(engine, config) as bg:

                def one(spec):
                    with ServeClient(*bg.address) as client:
                        return spec, client.query(spec)

                with concurrent.futures.ThreadPoolExecutor(4) as pool:
                    served = list(pool.map(one, specs * 2))
        finally:
            engine.close()
            engine.index.close()
        for spec, result in served:
            assert result.served_from_cache is False
            assert result.answer_json() == want[spec.cache_key()]
        assert engine.metrics.value("engine.queries") == 2 * len(specs)

    def test_waiting_for_the_engine_past_the_deadline_is_504(self):
        dataset = generate_gstd(15, samples_per_object=15, seed=11)
        index = RTree3D(page_size=1024)
        index.bulk_insert(dataset)
        index.finalize()
        query, period = next(iter(make_workload(dataset, 1, 0.2, seed=5)))
        spec = QuerySpec("mst", query, period, k=2, deadline_ms=50.0)
        with QueryEngine(index) as engine:
            with BackgroundServer(engine, ServeConfig(port=0, workers=2)) as bg:
                reads = index.buffer.stats.logical_reads
                engine._turn.acquire()  # the request before it is running
                try:
                    with ServeClient(*bg.address) as client:
                        with pytest.raises(ServeRejected) as info:
                            client.query(spec)
                finally:
                    engine._turn.release()
                assert info.value.status == 504
                assert info.value.reason == "deadline_exceeded"
                assert index.buffer.stats.logical_reads == reads
                assert engine.metrics.value("engine.deadline_misses") == 1
                assert engine.metrics.value("engine.queries") == 0


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


class _BudgetEngine(_StubEngine):
    """Records the budget each request arrives with."""

    def __init__(self):
        super().__init__()
        self.budgets = []

    def execute(self, spec, *, deadline=None):
        self.budgets.append(deadline - time.monotonic())
        return super().execute(spec, deadline=deadline)


class TestDeadlineBudgets:
    @pytest.mark.parametrize(
        "deadline_ms, low, high",
        [
            (None, 9.0, 10.0),  # no budget named: 10 s
            (10_000_000.0, 59.0, 60.0),  # clamped to 60 s
            (2_000.0, 1.0, 2.0),  # inside the clamp: its own
        ],
        ids=["default-10s", "clamped-60s", "own-2s"],
    )
    def test_budget(self, deadline_ms, low, high):
        engine = _BudgetEngine()
        config = ServeConfig(port=0, workers=1, cache_entries=0)
        with BackgroundServer(engine, config) as bg:
            with ServeClient(*bg.address) as client:
                spec = QuerySpec(
                    "mst", TINY, (0.0, 1.0), deadline_ms=deadline_ms
                )
                client.query(spec)
        (budget,) = engine.budgets
        assert low < budget <= high


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

    def test_drained_server_stops_accepting(self):
        bg = BackgroundServer(_StubEngine(), ServeConfig(port=0, workers=1))
        bg.start()
        host, port = bg.address
        with ServeClient(host, port) as client:
            client.query(_any_spec())
        bg.stop()
        assert bg.server.drain_summary() == (
            "drained; all admitted requests finished"
        )
        assert bg.server.metrics.value("serve.drain_abandoned") == 0
        with pytest.raises(ServeError):
            with ServeClient(host, port, timeout=2.0) as client:
                client.query(_any_spec())

    def test_drain_gives_up_after_the_grace(self, monkeypatch):
        """A request still running when the grace runs out is counted
        as abandoned, and the drain line says so."""
        monkeypatch.setattr(server_module, "DRAIN_GRACE_S", 0.2)
        engine = _BlockingEngine()
        bg = BackgroundServer(engine, ServeConfig(port=0, workers=1))
        bg.start()
        address = bg.address

        def stuck():
            with ServeClient(*address, timeout=10.0) as client:
                try:
                    client.query(_any_spec())
                except ServeError:
                    pass

        caller = threading.Thread(target=stuck, daemon=True)
        caller.start()
        try:
            assert engine.entered.acquire(timeout=10.0)
            started = time.monotonic()
            bg.stop()
            assert time.monotonic() - started < 5.0
            server = bg.server
            assert server.abandoned == 1
            assert server.metrics.value("serve.drain_abandoned") == 1
            assert server.drain_summary() == (
                "drained; 1 admitted requests abandoned after 0.2 s"
            )
        finally:
            engine.gate.set()
            caller.join(timeout=15.0)


class _CountingEngine(_BlockingEngine):
    """Counts its runs; the first ``fail_first`` of them are refused."""

    def __init__(self, fail_first=0):
        super().__init__()
        self.runs = 0
        self.fail_first = fail_first

    def execute(self, spec, *, deadline=None):
        self.runs += 1
        if self.runs <= self.fail_first:
            self.entered.release()
            assert self.gate.wait(timeout=30.0), "test gate never opened"
            raise QueryError("refused")
        return super().execute(spec, deadline=deadline)


class TestSingleFlight:
    """Two concurrent misses on one spec run the engine once while the
    cache is on: the second waits for the first, then reads the cache."""

    def _pair(self, engine):
        config = ServeConfig(port=0, workers=2, cache_entries=8)
        request = _post_head(len(body := _any_spec().to_json().encode())) + body
        with BackgroundServer(engine, config) as bg:
            with concurrent.futures.ThreadPoolExecutor(2) as pool:
                first = pool.submit(_raw_exchange, bg.address, request)
                assert engine.entered.acquire(timeout=10.0)
                second = pool.submit(_raw_exchange, bg.address, request)
                metrics = bg.server.metrics
                give_up = time.monotonic() + 10.0
                while metrics.value("serve.cache.coalesced") < 1:
                    assert time.monotonic() < give_up, "no follower waited"
                    time.sleep(0.005)
                engine.gate.set()
                replies = [first.result(timeout=10.0), second.result(timeout=10.0)]
            return replies, bg.server.metrics

    def test_one_execute_two_equal_bodies(self):
        engine = _CountingEngine()
        replies, metrics = self._pair(engine)
        assert engine.runs == 1
        (status_a, body_a), (status_b, body_b) = replies
        assert status_a == status_b == 200
        assert body_a == body_b
        assert metrics.value("serve.cache.misses") == 1
        assert metrics.value("serve.cache.hits") == 1

    def test_a_failed_leader_leaves_the_follower_its_own_run(self):
        engine = _CountingEngine(fail_first=1)
        replies, metrics = self._pair(engine)
        assert engine.runs == 2
        assert [status for status, _body in replies] == [422, 200]
        assert metrics.value("serve.cache.misses") == 2


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
# cache units
# ----------------------------------------------------------------------
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
