"""Tests for the serving layer: graph export parity, the ONNX-style backend,
the loopback fleet scoring server (hash routing, admission control) and the
coalescing remote client (per-graph lanes, shed retry, wire faults)."""

import http.client
import re
import socket
import struct
import threading
import time

import numpy as np
import pytest

from fairexp.exceptions import ValidationError
from fairexp.explanations import (
    AuditSession,
    BatchModelAdapter,
    CoalescingScoringClient,
    ComputeGraph,
    CounterfactualEngine,
    GrowingSpheresCounterfactual,
    OnnxExportBackend,
    RemoteScoringBackend,
    ScoringServer,
    export_model,
    serve_fleet,
    serve_model,
)
from fairexp.fairness.mitigation import (
    FairLogisticRegression,
    RecourseRegularizedClassifier,
)
from fairexp.models import (
    DecisionTreeClassifier,
    LogisticRegression,
    MLPClassifier,
    RandomForestClassifier,
)


def _model_zoo(train):
    """One fitted model per exportable family used across E1-E9."""
    return {
        "logistic": LogisticRegression(n_iter=600, random_state=0).fit(
            train.X, train.y),
        "fair_logistic": FairLogisticRegression(
            fairness_weight=3.0, n_iter=400, random_state=0
        ).fit(train.X, train.y, sensitive=train.sensitive_values),
        "recourse_regularized": RecourseRegularizedClassifier(
            recourse_weight=2.0, n_iter=400, random_state=0
        ).fit(train.X, train.y, sensitive=train.sensitive_values),
        "mlp": MLPClassifier(hidden_sizes=(12, 6), n_epochs=40, random_state=0).fit(
            train.X, train.y),
        "tree": DecisionTreeClassifier(max_depth=5, random_state=0).fit(
            train.X, train.y),
        "forest": RandomForestClassifier(n_estimators=7, max_depth=4,
                                         random_state=0).fit(train.X, train.y),
    }


@pytest.fixture(scope="module")
def zoo(loan_data):
    _, train, test = loan_data
    return _model_zoo(train), train, test


class TestExportParity:
    """The tentpole's acceptance criterion: bitwise-equal predict for every
    exportable model family E1-E9 audit."""

    @pytest.mark.parametrize("name", ["logistic", "fair_logistic",
                                      "recourse_regularized", "mlp", "tree",
                                      "forest"])
    def test_graph_predict_bitwise_equals_model_predict(self, zoo, name):
        models, train, test = zoo
        model = models[name]
        graph = export_model(model)
        for X in (test.X, train.X[:50], test.X[:1],
                  test.X + np.linspace(-0.5, 0.5, test.X.shape[1])):
            assert np.array_equal(graph.run(X), np.asarray(model.predict(X)))

    @pytest.mark.parametrize("name", ["logistic", "mlp", "forest"])
    def test_graph_roundtrips_through_npz(self, zoo, name, tmp_path):
        models, _, test = zoo
        graph = export_model(models[name])
        path = tmp_path / f"{name}.npz"
        graph.save(path)
        loaded = ComputeGraph.load(path)
        assert loaded.source == graph.source
        assert loaded.n_features == graph.n_features
        assert np.array_equal(loaded.run(test.X), graph.run(test.X))

    def test_export_rejects_unsupported_models(self):
        class OpaqueModel:
            def predict(self, X):
                return np.zeros(len(X), dtype=int)

        with pytest.raises(ValidationError, match="OpaqueModel"):
            export_model(OpaqueModel())

    def test_graph_rejects_wrong_feature_count(self, zoo):
        models, _, test = zoo
        graph = export_model(models["logistic"])
        with pytest.raises(ValidationError, match="features"):
            graph.run(test.X[:, :3])

    def test_load_rejects_non_graph_archive(self, tmp_path):
        path = tmp_path / "noise.npz"
        np.savez(path, junk=np.arange(3))
        with pytest.raises(ValidationError, match="not a compute-graph"):
            ComputeGraph.load(path)


class TestOnnxExportBackend:
    def test_backend_scores_without_the_model(self, zoo):
        models, _, test = zoo
        backend = OnnxExportBackend(models["logistic"])
        assert backend.releases_gil
        assert backend.name == "onnx"
        out = backend.predict(test.X)
        assert np.array_equal(out, models["logistic"].predict(test.X))
        assert backend.call_count == 1
        assert backend.row_count == test.X.shape[0]

    def test_backend_accepts_prebuilt_graph(self, zoo):
        models, _, test = zoo
        graph = export_model(models["forest"])
        backend = OnnxExportBackend(graph, name="forest-graph")
        assert np.array_equal(backend.predict(test.X),
                              models["forest"].predict(test.X))

    def test_verify_on_catches_unfaithful_graphs(self, zoo):
        models, _, test = zoo
        model = models["logistic"]
        OnnxExportBackend(model, verify_on=test.X)  # faithful: constructs
        graph = export_model(model)
        graph.ops[0]["b"] = graph.ops[0]["b"] + 10.0  # corrupt the intercept

        class Lying:
            pass

        backend = OnnxExportBackend(graph)  # graphs skip verification ...
        # ... but a model + corrupted-export combination must fail fast.
        lying = Lying()
        lying.coef_ = np.asarray(model.coef_) * -1.0
        lying.intercept_ = float(model.intercept_)
        lying.predict = model.predict
        with pytest.raises(ValidationError, match="diverges"):
            OnnxExportBackend(lying, verify_on=test.X)
        assert backend.predict(test.X).shape == (test.X.shape[0],)

    def test_engine_process_shards_ship_the_graph(self, zoo, loan_cf_generator):
        """The ONNX backend opts into process sharding: workers rebuild the
        (picklable, model-free) graph and their predict counts fold back."""
        models, train, test = zoo
        model = models["logistic"]
        rejected = test.X[model.predict(test.X) == 0][:8]
        constraints = loan_cf_generator.constraints

        sequential = CounterfactualEngine(
            GrowingSpheresCounterfactual(model, train.X, constraints=constraints,
                                         random_state=0)
        ).generate_aligned(rejected)

        backend = OnnxExportBackend(model)
        adapter = BatchModelAdapter(model, backend=backend, cache=False)
        generator = GrowingSpheresCounterfactual(adapter, train.X,
                                                 constraints=constraints,
                                                 random_state=0)
        engine = CounterfactualEngine(generator, n_jobs=2, executor="process")
        sharded = engine.generate_aligned(rejected)
        assert backend.row_count > 0  # workers' rows folded back via add_counts
        for seq, par in zip(sequential, sharded):
            assert (seq is None) == (par is None)
            if seq is not None:
                assert np.array_equal(seq.counterfactual, par.counterfactual)


class TestScoringServer:
    def test_serves_graph_over_loopback(self, zoo):
        models, _, test = zoo
        model = models["logistic"]
        with serve_model(model) as server:
            backend = RemoteScoringBackend(server.url, window=0.0)
            out = backend.predict(test.X)
            assert np.array_equal(out, model.predict(test.X))
            assert backend.call_count == 1
            assert backend.client.wire_call_count == 1
            assert server.request_count == 1
            assert server.row_count == test.X.shape[0]

    def test_server_close_is_idempotent(self, zoo):
        models, _, _ = zoo
        server = serve_model(models["logistic"])
        server.close()
        server.close()

    def test_bad_batch_raises_and_counts_nothing(self, zoo):
        """A server-side failure (wrong feature count -> 400) must raise in
        the caller WITHOUT inflating call/row accounting — the satellite
        counting fix, exercised over a real wire."""
        models, _, test = zoo
        with serve_model(models["logistic"]) as server:
            backend = RemoteScoringBackend(server.url, window=0.0)
            with pytest.raises(ValidationError, match="rejected"):
                backend.predict(test.X[:, :3])
            assert backend.call_count == 0
            assert backend.row_count == 0
            assert backend.client.wire_call_count == 0
            out = backend.predict(test.X)  # the backend stays usable
            assert out.shape == (test.X.shape[0],)
            assert backend.call_count == 1


class TestCoalescing:
    def test_concurrent_callers_share_one_wire_call(self, zoo):
        models, _, test = zoo
        model = models["logistic"]
        with serve_model(model) as server:
            client = CoalescingScoringClient(server.url, window=1.0)
            backends = [RemoteScoringBackend(client) for _ in range(4)]
            barrier = threading.Barrier(4)
            outputs: list = [None] * 4

            def score(k):
                barrier.wait(timeout=10)
                outputs[k] = backends[k].predict(test.X[k * 15:(k + 1) * 15])

            threads = [threading.Thread(target=score, args=(k,)) for k in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
            reference = model.predict(test.X)
            for k in range(4):
                assert np.array_equal(outputs[k], reference[k * 15:(k + 1) * 15])
            # Four registered callers, four concurrent batches -> ONE wire
            # call (the leader waits for every registered peer, so the first
            # wave coalesces deterministically, not by racing the window).
            assert client.wire_call_count == 1
            assert client.coalesced_count == 3
            assert server.request_count == 1
            # Per-caller accounting is untouched by the stacking.
            assert [b.call_count for b in backends] == [1, 1, 1, 1]
            assert [b.row_count for b in backends] == [15, 15, 15, 15]

    def test_sequential_caller_never_waits_for_absent_peers(self, zoo):
        models, _, test = zoo
        with serve_model(models["logistic"]) as server:
            backend = RemoteScoringBackend(server.url, window=0.05)
            for _ in range(3):
                backend.predict(test.X[:10])
            # One registered caller: each dispatch flushes as soon as its
            # own batch is pending — no window-long stalls, no merging.
            assert backend.client.wire_call_count == 3

    def test_failed_wire_call_raises_in_every_coalesced_caller(self, zoo):
        models, _, test = zoo
        model = models["logistic"]
        server = serve_model(model)
        client = CoalescingScoringClient(server.url, window=0.5)
        backends = [RemoteScoringBackend(client) for _ in range(2)]
        server.close()  # the wire call will fail for the whole batch
        errors: list = [None] * 2
        barrier = threading.Barrier(2)

        def score(k):
            barrier.wait(timeout=10)
            try:
                backends[k].predict(test.X[:5])
            except Exception as error:  # noqa: BLE001 - asserting propagation
                errors[k] = error

        threads = [threading.Thread(target=score, args=(k,)) for k in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert all(error is not None for error in errors)
        assert client.wire_call_count == 0
        assert [b.call_count for b in backends] == [0, 0]

    def test_unregister_releases_the_window(self, zoo):
        models, _, test = zoo
        with serve_model(models["logistic"]) as server:
            client = CoalescingScoringClient(server.url, window=5.0)
            stays = RemoteScoringBackend(client)
            leaves = RemoteScoringBackend(client)
            leaves.close()
            import time
            start = time.monotonic()
            stays.predict(test.X[:5])
            # With the peer gone, the single registered caller dispatches
            # immediately instead of waiting out the 5s window.
            assert time.monotonic() - start < 2.0


class TestFleetRouting:
    """One server, many graphs: requests route by content hash."""

    FLEET = ["logistic", "tree", "forest"]

    def test_fleet_routes_each_graph_bitwise_correctly(self, zoo):
        models, _, test = zoo
        fleet = {name: models[name] for name in self.FLEET}
        graphs = {name: export_model(model) for name, model in fleet.items()}
        with serve_fleet(list(graphs.values())) as server:
            assert server.graph_keys() == [g.signature()
                                           for g in graphs.values()]
            client = CoalescingScoringClient(server.url, window=0.0)
            for name, graph in graphs.items():
                backend = RemoteScoringBackend(client, graph=graph)
                out = backend.predict(test.X)
                assert np.array_equal(out, fleet[name].predict(test.X)), name
                backend.close()
            # Per-graph accounting on the server: every lane saw exactly
            # one request for the full test matrix, none of them mixed.
            stats = server.stats()
            assert stats["requests"] == len(graphs)
            for graph in graphs.values():
                entry = stats["graphs"][graph.signature()]
                assert entry["requests"] == 1
                assert entry["rows"] == test.X.shape[0]

    def test_unknown_hash_is_rejected_not_misrouted(self, zoo):
        models, _, test = zoo
        with serve_fleet([models["logistic"], models["tree"]]) as server:
            backend = RemoteScoringBackend(server.url, window=0.0,
                                           graph="0" * 64)
            with pytest.raises(ValidationError, match="unknown graph"):
                backend.predict(test.X[:4])
            assert backend.call_count == 0

    def test_fleet_requires_the_routing_header(self, zoo):
        """A multi-graph server must never guess: header-less requests are
        a 400, not a dispatch to whichever graph registered first."""
        models, _, test = zoo
        with serve_fleet([models["logistic"], models["tree"]]) as server:
            backend = RemoteScoringBackend(server.url, window=0.0)  # no graph
            with pytest.raises(ValidationError, match="X-Fairexp-Graph"):
                backend.predict(test.X[:4])

    def test_single_scorer_keeps_headerless_wire_shape(self, zoo):
        """A one-graph server still accepts the legacy header-less request
        (old clients keep working) AND the routed form."""
        models, _, test = zoo
        model = models["logistic"]
        graph = export_model(model)
        with ScoringServer(graph) as server:
            plain = RemoteScoringBackend(server.url, window=0.0)
            routed = RemoteScoringBackend(server.url, window=0.0, graph=graph)
            reference = model.predict(test.X)
            assert np.array_equal(plain.predict(test.X), reference)
            assert np.array_equal(routed.predict(test.X), reference)

    def test_lanes_never_share_a_wire_call_across_graphs(self, zoo):
        """Concurrent batches for DIFFERENT graphs must not coalesce: each
        graph's lane dispatches its own wire call even inside one window."""
        models, _, test = zoo
        graphs = [export_model(models[name]) for name in self.FLEET]
        with serve_fleet(graphs) as server:
            client = CoalescingScoringClient(server.url, window=1.0)
            backends = [RemoteScoringBackend(client, graph=g) for g in graphs]
            barrier = threading.Barrier(len(backends))
            outputs: list = [None] * len(backends)

            def score(k):
                barrier.wait(timeout=10)
                outputs[k] = backends[k].predict(test.X[:20])

            threads = [threading.Thread(target=score, args=(k,))
                       for k in range(len(backends))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
            for k, name in enumerate(self.FLEET):
                assert np.array_equal(outputs[k],
                                      models[name].predict(test.X[:20]))
            assert client.wire_call_count == len(graphs)
            assert client.coalesced_count == 0
            assert server.request_count == len(graphs)

    def test_audit_sessions_share_one_fleet_server(self, zoo, loan_cf_generator):
        """Two sessions over two different models route through ONE server
        and reproduce their in-process counterfactuals bitwise."""
        models, train, test = zoo
        constraints = loan_cf_generator.constraints
        fleet = [models["logistic"], models["tree"]]
        graphs = [export_model(model) for model in fleet]
        references = []
        for model in fleet:
            session = AuditSession(GrowingSpheresCounterfactual(
                model, train.X, constraints=constraints, random_state=0))
            idx = np.flatnonzero(model.predict(test.X) == 0)[:4]
            references.append(session.counterfactuals_for(test.X, idx))
        with serve_fleet(graphs) as server:
            client = CoalescingScoringClient(server.url, window=0.005)
            for model, graph, reference in zip(fleet, graphs, references):
                backend = RemoteScoringBackend(client, graph=graph)
                session = AuditSession(
                    GrowingSpheresCounterfactual(model, train.X,
                                                 constraints=constraints,
                                                 random_state=0),
                    backend=backend)
                idx = np.flatnonzero(model.predict(test.X) == 0)[:4]
                remote = session.counterfactuals_for(test.X, idx)
                backend.close()
                assert set(remote) == set(reference)
                for i in reference:
                    assert np.array_equal(remote[i].counterfactual,
                                          reference[i].counterfactual)


class TestDynamicWindow:
    """The dispatch window is a fixed number of seconds: there is no dynamic
    mode, so no arrival pattern resizes it."""

    def test_numeric_window_stays_fixed(self, zoo):
        models, _, test = zoo
        with serve_model(models["logistic"]) as server:
            backend = RemoteScoringBackend(server.url, window=0.02)
            client = backend.client
            for _ in range(5):
                backend.predict(test.X[:3])
            assert client.window == 0.02
            assert client.wire_call_count == 5


class TestAdmissionControl:
    def test_exhausted_retries_raise_and_count_nothing(self, zoo):
        """A server wedged past its admission limit sheds every attempt; the
        client gives up after max_retries with a clean error and ZERO
        call/row accounting."""
        models, _, test = zoo
        with serve_model(models["logistic"], max_inflight=0) as server:
            backend = RemoteScoringBackend(server.url, window=0.0,
                                           max_retries=2, backoff=0.001)
            with pytest.raises(ValidationError, match="shed"):
                backend.predict(test.X[:8])
            assert backend.call_count == 0
            assert backend.row_count == 0
            client = backend.client
            assert client.wire_call_count == 0
            assert client.shed_count == 3      # initial + 2 retries
            assert client.retry_count == 2
            assert server.shed_count == 3
            assert server.stats()["graphs"][next(iter(server.graph_keys()))][
                "shed"] == 3

    def test_shed_then_retry_succeeds_with_exact_accounting(self, zoo):
        """Transient overload: the first dispatch sheds, the backoff ladder
        retries, the batch eventually lands — counted exactly once."""
        models, _, test = zoo
        model = models["logistic"]
        with serve_model(model, max_inflight=0) as server:
            backend = RemoteScoringBackend(server.url, window=0.0,
                                           max_retries=8, backoff=0.02)

            def lift_limit():
                time.sleep(0.1)
                server.max_inflight = None

            lifter = threading.Thread(target=lift_limit)
            lifter.start()
            out = backend.predict(test.X[:12])
            lifter.join(timeout=10)
            assert np.array_equal(out, model.predict(test.X[:12]))
            client = backend.client
            assert client.shed_count >= 1
            assert client.retry_count >= 1
            assert server.shed_count >= 1
            # Exactly-once accounting despite the shed/retry churn.
            assert backend.call_count == 1
            assert backend.row_count == 12
            assert client.wire_call_count == 1
            assert client.wire_row_count == 12
            assert server.request_count == 1
            assert server.row_count == 12

    def test_admitted_requests_track_peak_inflight(self, zoo):
        models, _, test = zoo
        with serve_model(models["logistic"], max_inflight=4) as server:
            backend = RemoteScoringBackend(server.url, window=0.0)
            backend.predict(test.X[:5])
            stats = server.stats()
            assert stats["max_inflight"] == 4
            assert stats["peak_inflight"] >= 1
            assert stats["inflight"] == 0
            assert stats["shed"] == 0


class _RawStub:
    """Loopback raw-socket stand-in for a scoring server: it reads each
    request in full, then hands the connection to ``fault`` to write (or
    break) the response — the faults ``http.server`` never produces."""

    def __init__(self, fault):
        self.fault = fault
        self.sock = socket.create_server(("127.0.0.1", 0))
        self.sock.settimeout(0.1)
        self.url = f"http://127.0.0.1:{self.sock.getsockname()[1]}"
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self):
        while not self._stop.is_set():
            try:
                conn, _ = self.sock.accept()
            except TimeoutError:
                continue
            with conn:
                conn.settimeout(10)
                data = b""
                while b"\r\n\r\n" not in data:
                    data += conn.recv(65536)
                head, _, body = data.partition(b"\r\n\r\n")
                length = int(re.search(rb"(?i)content-length:\s*(\d+)",
                                       head).group(1))
                while len(body) < length:
                    body += conn.recv(65536)
                self.fault(conn)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join(timeout=10)
        self.sock.close()


_OK_HEAD = (b"HTTP/1.1 200 OK\r\nContent-Type: application/octet-stream\r\n"
            b"Content-Length: %d\r\n\r\n")


def _truncated_body(conn):
    conn.sendall(_OK_HEAD % 1000 + b"\x93NUMPY" + b"\x00" * 40)


def _not_npy_body(conn):
    body = b"this body is not a .npy array"
    conn.sendall(_OK_HEAD % len(body) + body)


def _reset_mid_body(conn):
    conn.sendall(_OK_HEAD % 1000 + b"\x93NUMPY")
    # SO_LINGER with a zero timeout: close() sends RST instead of FIN.
    conn.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
    conn.close()


class TestServerLifecycle:
    def test_context_manager_leaves_no_live_thread(self, zoo):
        """The satellite close() fix: after the context exits, the request
        loop thread has actually terminated — not merely been asked to."""
        models, _, _ = zoo
        with serve_model(models["logistic"]) as server:
            assert server._thread.is_alive()
        assert not server._thread.is_alive()
        server.close()  # idempotent after the context already closed

    def test_concurrent_close_is_safe_and_joins_once(self, zoo):
        models, _, _ = zoo
        server = serve_model(models["logistic"])
        threads = [threading.Thread(target=server.close) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=15)
        assert not any(thread.is_alive() for thread in threads)
        assert not server._thread.is_alive()

    def test_close_with_inflight_coalesced_batch_fails_clean(self, zoo):
        """Shutdown racing an open dispatch window: the leader's wire call
        hits the closed socket and every coalesced caller gets a clean
        backend exception — no hang, no call/row inflation."""
        models, _, test = zoo
        server = serve_model(models["logistic"])
        client = CoalescingScoringClient(server.url, window=0.75)
        backends = [RemoteScoringBackend(client) for _ in range(3)]
        # Only 2 of the 3 registered peers submit, so the leader holds the
        # window open (waiting for the third) while the server goes away.
        errors: list = [None, None]
        barrier = threading.Barrier(3)

        def score(k):
            barrier.wait(timeout=10)
            try:
                backends[k].predict(test.X[:5])
            except Exception as error:  # noqa: BLE001 - asserting propagation
                errors[k] = error

        threads = [threading.Thread(target=score, args=(k,)) for k in range(2)]
        for thread in threads:
            thread.start()
        barrier.wait(timeout=10)
        time.sleep(0.2)          # let the leader start waiting in-window
        server.close()           # returns only once the loop thread exited
        for thread in threads:
            thread.join(timeout=30)
        assert not any(thread.is_alive() for thread in threads)
        for error in errors:
            assert isinstance(error, ValidationError)
            assert "unreachable" in str(error)
        assert client.wire_call_count == 0
        assert client.wire_row_count == 0
        assert [b.call_count for b in backends] == [0, 0, 0]
        assert [b.row_count for b in backends] == [0, 0, 0]

    @pytest.mark.parametrize("fault, cause", [
        (_truncated_body, http.client.IncompleteRead),
        (_not_npy_body, ValueError),
        (_reset_mid_body, ConnectionResetError),
    ], ids=["truncated-body", "not-npy-body", "connection-reset"])
    def test_mid_response_fault_fails_clean(self, zoo, fault, cause):
        """A fault after the status line fails the coalesced dispatch with a
        ValidationError naming the server in every caller, and counts
        nothing — not the raw socket/HTTP/decode exception."""
        _, _, test = zoo
        with _RawStub(fault) as stub:
            client = CoalescingScoringClient(stub.url, window=5.0)
            backends = [RemoteScoringBackend(client) for _ in range(3)]
            errors: list = [None] * 3
            barrier = threading.Barrier(3)

            def score(k):
                barrier.wait(timeout=10)
                try:
                    backends[k].predict(test.X[:4])
                except Exception as error:  # noqa: BLE001 - asserting propagation
                    errors[k] = error

            threads = [threading.Thread(target=score, args=(k,))
                       for k in range(3)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
            assert not any(thread.is_alive() for thread in threads)
        for error in errors:
            assert isinstance(error, ValidationError), repr(error)
            assert stub.url in str(error)
            assert isinstance(error.__cause__, cause)
        assert client.wire_call_count == 0
        assert client.wire_row_count == 0
        assert [b.call_count for b in backends] == [0, 0, 0]
        assert [b.row_count for b in backends] == [0, 0, 0]


class TestStatsEndpoint:
    def test_stats_reports_per_graph_counters_over_http(self, zoo):
        import json
        import urllib.request

        models, _, test = zoo
        graphs = [export_model(models["logistic"]), export_model(models["tree"])]
        with serve_fleet(graphs) as server:
            client = CoalescingScoringClient(server.url, window=0.0)
            for graph in graphs:
                backend = RemoteScoringBackend(client, graph=graph)
                backend.predict(test.X[:10])
                backend.close()
            with urllib.request.urlopen(f"{server.url}/stats",
                                        timeout=10) as reply:
                stats = json.loads(reply.read().decode("utf-8"))
        assert stats["requests"] == 2
        assert stats["rows"] == 20
        assert stats["shed"] == 0
        assert stats["max_inflight"] is None
        for graph in graphs:
            entry = stats["graphs"][graph.signature()]
            assert entry["requests"] == 1
            assert entry["rows"] == 10
            assert entry["client_batches"] == 1
            assert entry["coalescing_factor"] == 1.0
            assert entry["source"] == graph.source

    def test_stats_fold_in_client_coalescing_and_window(self, zoo):
        """The X-Fairexp-Batches telemetry: a batch coalesced within the
        client's window raises the server-side coalescing factor above 1;
        the window itself is client configuration, not a server stat."""
        models, _, test = zoo
        model = models["logistic"]
        with serve_model(model) as server:
            client = CoalescingScoringClient(server.url, window=1.0)
            backends = [RemoteScoringBackend(client) for _ in range(3)]
            barrier = threading.Barrier(3)

            def score(k):
                barrier.wait(timeout=10)
                backends[k].predict(test.X[k * 5:(k + 1) * 5])

            threads = [threading.Thread(target=score, args=(k,))
                       for k in range(3)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
            entry = server.stats()["graphs"][server.graph_keys()[0]]
            assert entry["requests"] == 1
            assert entry["client_batches"] == 3
            assert entry["coalescing_factor"] == 3.0
            assert "window" not in entry


class TestServeCLI:
    """``python -m fairexp serve`` fleet flags and the /stats pretty-printer
    (exercised in-process through ``main``; the subprocess shape is covered
    by benchmarks/serving_workload.py and the CI smoke)."""

    @staticmethod
    def _save_graphs(zoo, tmp_path, names):
        models, _, _ = zoo
        paths = []
        for name in names:
            graph = export_model(models[name])
            path = tmp_path / f"{name}.npz"
            graph.save(path)
            paths.append((str(path), graph))
        return paths

    @pytest.fixture()
    def nonblocking_serve(self, monkeypatch):
        """Make serve_until_interrupted return immediately so the CLI path
        runs end to end (print + close) without parking a thread."""
        monkeypatch.setattr(ScoringServer, "serve_until_interrupted",
                            lambda self: None)

    def test_serve_single_graph_prints_legacy_parseable_line(
            self, zoo, tmp_path, capsys, nonblocking_serve):
        from fairexp.cli import main

        (path, graph), = self._save_graphs(zoo, tmp_path, ["logistic"])
        assert main(["serve", "--graph", path]) == 0
        lines = capsys.readouterr().out.splitlines()
        # First line keeps the launcher contract: URL is the last token.
        assert lines[0].startswith("serving LogisticRegression (")
        assert lines[0].rsplit(" ", 1)[-1].startswith("http://127.0.0.1:")
        assert graph.signature() in lines[1]

    def test_serve_fleet_prints_one_routing_line_per_graph(
            self, zoo, tmp_path, capsys, nonblocking_serve):
        from fairexp.cli import main

        saved = self._save_graphs(zoo, tmp_path, ["logistic", "tree"])
        assert main(["serve", "--graph-dir", str(tmp_path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("serving 2 graphs on http://")
        routed = "\n".join(lines[1:])
        for _, graph in saved:
            assert graph.signature() in routed

    def test_serve_requires_some_graph_source(self):
        from fairexp.cli import main

        with pytest.raises(SystemExit, match="--graph"):
            main(["serve"])

    def test_serve_rejects_missing_archive_and_dir(self, tmp_path):
        from fairexp.cli import main

        with pytest.raises(SystemExit, match="does not exist"):
            main(["serve", "--graph", str(tmp_path / "nope.npz")])
        with pytest.raises(SystemExit, match="does not exist"):
            main(["serve", "--graph-dir", str(tmp_path / "nope")])

    def test_stats_url_pretty_prints_a_running_fleet(self, zoo, capsys):
        from fairexp.cli import main

        models, _, test = zoo
        graphs = [export_model(models["logistic"]), export_model(models["tree"])]
        with serve_fleet(graphs) as server:
            backend = RemoteScoringBackend(server.url, window=0.0,
                                           graph=graphs[0])
            backend.predict(test.X[:7])
            backend.close()
            assert main(["serve", "--stats-url", server.url]) == 0
        out = capsys.readouterr().out
        assert "1 requests, 7 rows, 0 shed" in out
        assert "GRAPH" in out and "COALESCE" in out
        assert graphs[0].signature()[:12] in out
        assert "LogisticRegression" in out

    def test_stats_url_unreachable_is_an_error(self):
        from fairexp.cli import main

        with pytest.raises(SystemExit, match="could not fetch stats"):
            main(["serve", "--stats-url", "http://127.0.0.1:9"])


class TestRemoteSession:
    def test_audit_session_over_remote_backend_matches_in_process(
            self, zoo, loan_cf_generator):
        models, train, test = zoo
        model = models["logistic"]
        constraints = loan_cf_generator.constraints
        rejected_idx = np.flatnonzero(model.predict(test.X) == 0)[:6]

        reference_session = AuditSession(
            GrowingSpheresCounterfactual(model, train.X, constraints=constraints,
                                         random_state=0))
        reference = reference_session.counterfactuals_for(test.X, rejected_idx)

        with serve_model(model) as server:
            backend = RemoteScoringBackend(server.url, window=0.0)
            session = AuditSession(
                GrowingSpheresCounterfactual(model, train.X,
                                             constraints=constraints,
                                             random_state=0),
                backend=backend,
            )
            remote = session.counterfactuals_for(test.X, rejected_idx)
            backend.close()
        assert set(remote) == set(reference)
        for i in reference:
            assert np.array_equal(remote[i].counterfactual,
                                  reference[i].counterfactual)
        assert session.predict_row_count == reference_session.predict_row_count


class TestBackendClose:
    def test_double_close_keeps_peers_registered(self, zoo):
        """close() is idempotent: a second close (the natural finally-block
        pattern) must not decrement another live caller's registration."""
        models, _, test = zoo
        with serve_model(models["logistic"]) as server:
            client = CoalescingScoringClient(server.url, window=5.0)
            stays = RemoteScoringBackend(client)
            leaves = RemoteScoringBackend(client)
            leaves.close()
            leaves.close()  # idempotent: must not unregister `stays`
            assert client.registered_count == 1
            import time
            start = time.monotonic()
            stays.predict(test.X[:5])  # dispatches immediately, no 5s stall
            assert time.monotonic() - start < 2.0


class TestServingStoreIntegration:
    def test_onnx_sessions_persist_and_warm_start(self, zoo, loan_cf_generator,
                                                  tmp_path):
        """An ONNX-backed session stores its rows under the graph's content
        hash: a second session over the same graph warm-starts with zero
        engine predict calls, and in-process sessions key separately."""
        from fairexp.explanations import CounterfactualStore

        models, train, test = zoo
        model = models["logistic"]
        constraints = loan_cf_generator.constraints
        rejected_idx = np.flatnonzero(model.predict(test.X) == 0)[:5]

        def onnx_session():
            return AuditSession(
                GrowingSpheresCounterfactual(model, train.X,
                                             constraints=constraints,
                                             random_state=0),
                backend=OnnxExportBackend(model), store=tmp_path,
            )

        first = onnx_session()
        first.counterfactuals_for(test.X, rejected_idx)
        assert first.engine_predict_call_count > 0
        assert len(CounterfactualStore(tmp_path).entries()) == 1

        warm = onnx_session()
        warm.counterfactuals_for(test.X, rejected_idx)
        assert warm.engine_predict_call_count == 0      # pure store read
        assert warm.store_row_hits == len(rejected_idx)

        # An in-process session over the same population keys a NEW entry:
        # graph-backed and model-backed dispatch never alias by design.
        plain = AuditSession(
            GrowingSpheresCounterfactual(model, train.X, constraints=constraints,
                                         random_state=0),
            store=tmp_path,
        )
        plain.counterfactuals_for(test.X, rejected_idx)
        assert len(CounterfactualStore(tmp_path).entries()) == 2

    def test_remote_sessions_skip_the_store(self, zoo, loan_cf_generator,
                                            tmp_path):
        """A remote scorer has no reproducible identity (the model lives
        behind a URL), so store publishing is skipped — correctness first."""
        from fairexp.explanations import CounterfactualStore

        models, train, test = zoo
        model = models["logistic"]
        rejected_idx = np.flatnonzero(model.predict(test.X) == 0)[:3]
        with serve_model(model) as server:
            backend = RemoteScoringBackend(server.url, window=0.0)
            with AuditSession(
                GrowingSpheresCounterfactual(model, train.X,
                                             constraints=loan_cf_generator.constraints,
                                             random_state=0),
                backend=backend, store=tmp_path,
            ) as session:
                results = session.counterfactuals_for(test.X, rejected_idx)
            backend.close()
        assert results
        assert CounterfactualStore(tmp_path).entries() == []
