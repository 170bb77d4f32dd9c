"""Out-of-process serving: ONNX-style model export and remote scoring.

PRs 1–4 built the predict plumbing — the
:class:`~fairexp.explanations.backends.PredictBackend` protocol, process
sharding, the session-scoped executor pool — but every predict still ran
in-process against the from-scratch training classes.  This module supplies
the two real out-of-process backends the ROADMAP asks for:

* :class:`ComputeGraph` / :func:`export_model` — an "ONNX-style" export: a
  fitted linear / MLP / tree / forest model is compiled to a serializable
  list of NumPy ops (``standardize``, ``matvec``, ``matmul``, ``relu``,
  ``softmax``, ``forest`` …) that reproduces ``model.predict`` **bitwise**
  without importing :mod:`fairexp.models`.  Graphs pickle into process-shard
  specs and :meth:`~ComputeGraph.save` to ``.npz`` files a scoring server in
  another process can load.
* :class:`OnnxExportBackend` — a
  :class:`~fairexp.explanations.backends.CallablePredictBackend` over an
  exported graph (``releases_gil=True``: the graph is pure vectorized
  NumPy), verified against the source model at construction.
* :class:`ScoringServer` + :class:`RemoteScoringBackend` — a loopback HTTP
  scoring server (also shipped as ``python -m fairexp serve``) and its
  batched client.  One server hosts a whole model **fleet**: graphs are
  keyed by content hash (:meth:`ComputeGraph.signature`, the same identity
  the persistent store fingerprints by), requests carry the hash in an
  ``X-Fairexp-Graph`` header and are routed to the matching graph.  The
  client side is a :class:`CoalescingScoringClient`: predict batches from
  *concurrent* sessions that land within a dispatch window are stacked
  into **one** wire call per graph, while each caller's call/row
  accounting is folded back into its own backend only after the dispatch
  succeeds — N concurrent sessions issue strictly fewer wire calls than N
  independent ones (asserted in ``benchmarks/test_bench_serving.py`` and
  ``benchmarks/test_bench_serving_fleet.py``).  The window is a fixed
  number of seconds, and a lane's leader dispatches early once every
  registered peer has a batch pending.

Sustained overload degrades gracefully instead of queueing without bound:
the server tracks its in-flight batch count and, past ``max_inflight``,
answers new batches with a fast ``429`` *shed* reply that the client turns
into a bounded retry-with-backoff — rows are only counted after a dispatch
finally succeeds, so shed-then-retry never skews session accounting.

The wire format is deliberately boring: ``POST /score`` with a raw ``.npy``
payload of the candidate matrix, answered with a raw ``.npy`` payload of the
labels.  No pickle crosses the wire, so a server never executes anything a
client sends.
"""

from __future__ import annotations

import hashlib
import http.client
import io
import json
import threading
import time
import urllib.error
import urllib.request
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import numpy as np

from ..exceptions import ValidationError
from ..lint.tsan import guard_counters, make_condition, make_lock
from .backends import CallablePredictBackend, NumpyPredictBackend

__all__ = [
    "ComputeGraph",
    "export_model",
    "OnnxExportBackend",
    "CoalescingScoringClient",
    "RemoteScoringBackend",
    "ScoringServer",
    "serve_model",
    "serve_fleet",
]


# ---------------------------------------------------------------------------
# Compute-graph export
# ---------------------------------------------------------------------------
def _softmax_rows(z: np.ndarray) -> np.ndarray:
    # Bitwise mirror of fairexp.utils.softmax (axis=-1) so the exported MLP
    # graph reproduces predict_proba exactly without importing fairexp.utils.
    shifted = z - np.max(z, axis=-1, keepdims=True)
    exp_z = np.exp(shifted)
    return exp_z / np.sum(exp_z, axis=-1, keepdims=True)


def _run_packed_tree(tree: dict, X: np.ndarray) -> np.ndarray:
    """Evaluate one packed decision tree: per-row leaf value vectors.

    Nodes are stored as parallel arrays (``feature`` is ``-1`` at leaves);
    every row starts at the root and is routed ``x[feature] <= threshold``
    → left child, exactly the comparison ``TreeNode.predict_one`` makes, so
    each row lands on the identical leaf and returns its stored ``value``.
    """
    feature, threshold = tree["feature"], tree["threshold"]
    left, right, value = tree["left"], tree["right"], tree["value"]
    nodes = np.zeros(X.shape[0], dtype=np.int64)
    pending = feature[nodes] >= 0
    while np.any(pending):
        idx = nodes[pending]
        go_left = X[pending, feature[idx]] <= threshold[idx]
        nodes[pending] = np.where(go_left, left[idx], right[idx])
        pending = feature[nodes] >= 0
    return value[nodes]


def _apply_op(op: dict, X: np.ndarray) -> np.ndarray:
    """Apply one graph op.  Each arm mirrors the source model's own NumPy
    expression token for token — that equivalence is what makes the whole
    graph bitwise-equal to ``model.predict``."""
    kind = op["op"]
    if kind == "standardize":
        return (X - op["mean"]) / op["scale"]
    if kind == "matvec":
        return X @ op["w"] + op["b"]
    if kind == "matmul":
        return X @ op["w"]
    if kind == "add":
        return X + op["b"]
    if kind == "relu":
        return np.maximum(X, 0.0)
    if kind == "softmax":
        return _softmax_rows(X)
    if kind == "ge_zero":
        return (X >= 0).astype(int)
    if kind == "argmax_classes":
        return op["classes"][np.argmax(X, axis=1)]
    if kind == "forest":
        n_classes = int(op["n_classes"])
        total = np.zeros((X.shape[0], n_classes))
        for tree in op["trees"]:
            proba = _run_packed_tree(tree, X)
            aligned = np.zeros((X.shape[0], n_classes))
            for j, column in enumerate(tree["align"]):
                aligned[:, int(column)] = proba[:, j]
            total += aligned
        return total / float(op["divisor"])
    raise ValidationError(f"unknown compute-graph op {kind!r}")


class ComputeGraph:
    """A serializable op list evaluated with nothing but NumPy.

    This is the "ONNX-style" export target: :func:`export_model` compiles a
    fitted model into a graph, and :meth:`run` replays the model's own
    predict arithmetic op by op — bitwise-equal labels, no
    :mod:`fairexp.models` import required.  Graphs pickle (into
    process-shard specs) and round-trip through :meth:`save` /
    :meth:`load` ``.npz`` files (how ``python -m fairexp serve`` receives a
    model without receiving code).
    """

    FORMAT_VERSION = 1

    def __init__(self, ops: list[dict], *, n_features: int,
                 source: str = "unknown") -> None:
        self.ops = list(ops)
        self.n_features = int(n_features)
        self.source = str(source)

    def run(self, X) -> np.ndarray:
        """Labels for ``X``: every op applied in order."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        if X.shape[1] != self.n_features:
            raise ValidationError(
                f"graph expects {self.n_features} features, got {X.shape[1]}"
            )
        out = X
        for op in self.ops:
            out = _apply_op(op, out)
        return np.asarray(out)

    # Exported graphs slot directly into CallablePredictBackend(fn=graph).
    __call__ = run

    def signature(self) -> str:
        """Content digest of the graph (ops, shapes and every weight byte).

        This is the graph's identity for the persistent store's dispatch
        token: two sessions scoring through byte-identical graphs share
        counterfactual entries, any weight or topology difference keys them
        apart — reproducible across processes, unlike a pickled closure.
        """
        digest = hashlib.sha256()
        for key, array in sorted(self._flatten().items()):
            digest.update(key.encode())
            digest.update(str(array.dtype).encode() + str(array.shape).encode())
            digest.update(np.ascontiguousarray(array).tobytes())
        return digest.hexdigest()

    def __repr__(self) -> str:
        names = "->".join(op["op"] for op in self.ops)
        return f"ComputeGraph({self.source}: {names})"

    # ------------------------------------------------------------ round-trip
    def _flatten(self) -> dict[str, np.ndarray]:
        """Graph as flat ``{key: array}`` pairs (the ``.npz`` payload)."""
        arrays: dict[str, np.ndarray] = {
            "__meta__": np.frombuffer(json.dumps({
                "format_version": self.FORMAT_VERSION,
                "n_features": self.n_features,
                "source": self.source,
                "ops": [op["op"] for op in self.ops],
            }).encode("utf-8"), dtype=np.uint8),
        }
        for i, op in enumerate(self.ops):
            for key, val in op.items():
                if key == "op":
                    continue
                if key == "trees":
                    for t, tree in enumerate(val):
                        for tree_key, arr in tree.items():
                            arrays[f"op{i}.t{t}.{tree_key}"] = np.asarray(arr)
                else:
                    arrays[f"op{i}.{key}"] = np.asarray(val)
        return arrays

    def save(self, path) -> None:
        """Persist the graph to a compressed ``.npz`` archive."""
        np.savez_compressed(path, **self._flatten())

    @classmethod
    def load(cls, path) -> "ComputeGraph":
        """Load a graph previously written by :meth:`save`."""
        with np.load(path, allow_pickle=False) as payload:
            try:
                meta = json.loads(bytes(payload["__meta__"]).decode("utf-8"))
            except (KeyError, ValueError) as error:
                raise ValidationError(f"not a compute-graph archive: {path}") from error
            if meta.get("format_version") != cls.FORMAT_VERSION:
                raise ValidationError(
                    f"unsupported compute-graph format {meta.get('format_version')!r}"
                )
            ops: list[dict] = []
            for i, kind in enumerate(meta["ops"]):
                op: dict = {"op": kind}
                trees: dict[int, dict] = {}
                prefix = f"op{i}."
                for key in payload.files:
                    if not key.startswith(prefix):
                        continue
                    tail = key[len(prefix):]
                    if tail.startswith("t") and "." in tail:
                        index, _, tree_key = tail.partition(".")
                        trees.setdefault(int(index[1:]), {})[tree_key] = payload[key]
                    else:
                        value = payload[key]
                        op[tail] = value if value.ndim else value[()]
                if trees:
                    op["trees"] = [trees[t] for t in sorted(trees)]
                ops.append(op)
        return cls(ops, n_features=int(meta["n_features"]), source=meta["source"])


def _pack_tree(root, n_classes: int, align: np.ndarray) -> dict:
    """Flatten a fitted ``TreeNode`` tree into parallel node arrays."""
    feature: list[int] = []
    threshold: list[float] = []
    left: list[int] = []
    right: list[int] = []
    value: list[np.ndarray] = []

    def walk(node) -> int:
        index = len(feature)
        feature.append(-1 if node.is_leaf else int(node.feature))
        threshold.append(float(node.threshold))
        left.append(-1)
        right.append(-1)
        value.append(np.asarray(node.value, dtype=float))
        if not node.is_leaf:
            left[index] = walk(node.left)
            right[index] = walk(node.right)
        return index

    walk(root)
    return {
        "feature": np.asarray(feature, dtype=np.int64),
        "threshold": np.asarray(threshold, dtype=float),
        "left": np.asarray(left, dtype=np.int64),
        "right": np.asarray(right, dtype=np.int64),
        "value": np.vstack(value),
        "align": np.asarray(align, dtype=np.int64),
    }


def export_model(model) -> ComputeGraph:
    """Compile a fitted fairexp model to a :class:`ComputeGraph`.

    Dispatch is structural (duck-typed on fitted attributes), so the export
    covers every from-scratch family used by experiments E1–E9 without
    importing their classes:

    * linear (``coef_`` / ``intercept_`` with a ``>= 0`` decision):
      :class:`~fairexp.models.LogisticRegression` and the mitigation
      classifiers built on the same surface;
    * MLP (``weights_`` / ``biases_`` with internal standardization):
      :class:`~fairexp.models.MLPClassifier`;
    * decision trees and forests (``root_`` / ``estimators_``):
      :class:`~fairexp.models.DecisionTreeClassifier` and
      :class:`~fairexp.models.RandomForestClassifier`.

    The returned graph's :meth:`~ComputeGraph.run` is bitwise-equal to
    ``model.predict`` (asserted per model family in
    ``tests/explanations/test_serving.py``); anything else raises a
    :class:`~fairexp.exceptions.ValidationError` naming the model type.
    """
    name = type(model).__name__
    estimators = getattr(model, "estimators_", None)
    if estimators:
        classes = np.asarray(model.classes_)
        trees = []
        for tree in estimators:
            align = np.asarray([
                int(np.flatnonzero(classes == cls)[0]) for cls in tree.classes_
            ], dtype=np.int64)
            trees.append(_pack_tree(tree.root_, classes.shape[0], align))
        ops = [
            {"op": "forest", "n_classes": classes.shape[0],
             "divisor": float(len(trees)), "trees": trees},
            {"op": "argmax_classes", "classes": classes},
        ]
        return ComputeGraph(ops, n_features=int(estimators[0].n_features_),
                            source=name)
    if getattr(model, "root_", None) is not None:
        classes = np.asarray(model.classes_)
        align = np.arange(classes.shape[0], dtype=np.int64)
        ops = [
            {"op": "forest", "n_classes": classes.shape[0], "divisor": 1.0,
             "trees": [_pack_tree(model.root_, classes.shape[0], align)]},
            {"op": "argmax_classes", "classes": classes},
        ]
        return ComputeGraph(ops, n_features=int(model.n_features_), source=name)
    weights = getattr(model, "weights_", None)
    if weights:
        ops: list[dict] = [{
            "op": "standardize",
            "mean": np.asarray(model._mean, dtype=float),
            "scale": np.asarray(model._scale, dtype=float),
        }]
        for layer, (W, b) in enumerate(zip(weights, model.biases_)):
            ops.append({"op": "matmul", "w": np.asarray(W, dtype=float)})
            ops.append({"op": "add", "b": np.asarray(b, dtype=float)})
            ops.append({"op": "relu"} if layer < len(weights) - 1
                       else {"op": "softmax"})
        ops.append({"op": "argmax_classes", "classes": np.asarray(model.classes_)})
        return ComputeGraph(ops, n_features=weights[0].shape[0], source=name)
    coef = getattr(model, "coef_", None)
    if coef is not None:
        coef = np.asarray(coef, dtype=float)
        ops = [
            {"op": "matvec", "w": coef, "b": float(model.intercept_)},
            {"op": "ge_zero"},
        ]
        return ComputeGraph(ops, n_features=coef.shape[0], source=name)
    raise ValidationError(
        f"cannot export {name} to a compute graph: expected a fitted linear "
        "(coef_/intercept_), MLP (weights_/biases_), tree (root_) or forest "
        "(estimators_) model"
    )


class OnnxExportBackend(CallablePredictBackend):
    """Predict backend over an exported :class:`ComputeGraph`.

    Scoring never touches the training class: the graph is pure NumPy, so
    the backend declares ``releases_gil=True`` (BLAS/ufunc loops drop the
    GIL and thread-sharding scales), and the graph ships whole into
    process-shard specs — workers and remote processes score without
    importing :mod:`fairexp.models`.

    Parameters
    ----------
    model_or_graph:
        A fitted model (compiled via :func:`export_model`) or an existing
        :class:`ComputeGraph` (e.g. loaded from an ``.npz`` export).
    verify_on:
        Optional matrix checked at construction: the graph's labels must be
        bitwise-equal to ``model.predict`` on it, so an unfaithful export
        fails fast instead of silently skewing an audit.  Requires a model
        (ignored for pre-built graphs).
    """

    # The engine may rebuild this backend inside process-shard workers by
    # shipping ``fn`` (the picklable graph) — see engine._process_shard_spec.
    ships_fn_to_workers = True

    def __init__(self, model_or_graph, *, name: str = "onnx",
                 verify_on=None) -> None:
        if isinstance(model_or_graph, ComputeGraph):
            graph, model = model_or_graph, None
        else:
            graph, model = export_model(model_or_graph), model_or_graph
        super().__init__(graph, name=name, releases_gil=True)
        self.graph = graph
        if verify_on is not None and model is not None:
            reference = np.asarray(model.predict(verify_on))
            exported = graph.run(verify_on)
            if not np.array_equal(reference, exported):
                raise ValidationError(
                    f"exported graph diverges from {type(model).__name__}."
                    "predict on the verification matrix"
                )


# ---------------------------------------------------------------------------
# Wire format
# ---------------------------------------------------------------------------
def _encode_array(array: np.ndarray) -> bytes:
    buffer = io.BytesIO()
    np.save(buffer, np.ascontiguousarray(array), allow_pickle=False)
    return buffer.getvalue()


def _decode_array(blob: bytes) -> np.ndarray:
    return np.load(io.BytesIO(blob), allow_pickle=False)


# ---------------------------------------------------------------------------
# Scoring server
# ---------------------------------------------------------------------------
@guard_counters("request_count", "row_count", "shed_count",
                "peak_inflight", "_inflight")
class ScoringServer:
    """Loopback HTTP scoring server hosting a fleet of scorers.

    ``POST /score`` takes a raw ``.npy`` matrix and answers with a raw
    ``.npy`` label vector; ``GET /healthz`` answers ``ok``; ``GET /stats``
    reports the JSON from :meth:`stats` — global and per-graph request/row
    counters, shed counts and the server-side coalescing factor.  The
    server binds loopback only (scoring audits is not an internet service)
    and runs its request loop on a daemon thread; it is a context manager,
    and :meth:`close` is idempotent and thread-safe.

    **Fleet routing.**  ``scorer`` may be a single scorer, a list of
    :class:`ComputeGraph`\\ s, or a ``{key: scorer}`` mapping: every scorer
    is registered under a routing key — a graph's content hash
    (:meth:`ComputeGraph.signature`) when it has one — and requests carry
    the key in an ``X-Fairexp-Graph`` header.  A server hosting exactly one
    scorer also accepts header-less requests (the single-graph wire shape
    of earlier releases); a fleet rejects them with ``400``.

    **Admission control.**  ``max_inflight`` bounds concurrently admitted
    ``/score`` batches.  Past the bound, new batches get a fast ``429``
    reply with a ``Retry-After`` hint instead of deepening the queue — the
    client's bounded retry-with-backoff (see
    :class:`CoalescingScoringClient`) turns sustained overload into higher
    latency rather than unbounded server memory growth.  ``None`` (the
    default) disables shedding.  Scorers run on the request thread.

    ``python -m fairexp serve --graph a.npz --graph b.npz`` wraps this
    class around :class:`ComputeGraph` archives, which is how a scoring
    process serves a model fleet without importing (or even having) the
    training code.
    """

    def __init__(self, scorer, *, host: str = "127.0.0.1", port: int = 0,
                 max_inflight: int | None = None,
                 retry_after: float = 0.05) -> None:
        self.max_inflight = None if max_inflight is None else int(max_inflight)
        self.retry_after = float(retry_after)
        self.request_count = 0
        self.row_count = 0
        self.shed_count = 0
        self.peak_inflight = 0
        self._inflight = 0
        self._scorers: dict[str, object] = {}
        self._sources: dict[str, str] = {}
        self._graph_stats: dict[str, dict] = {}
        self._anonymous = 0
        self._closed = False
        self._lock = make_lock()
        self._close_lock = threading.Lock()
        if isinstance(scorer, dict):
            for key, item in scorer.items():
                self.add_scorer(item, key=key)
        elif isinstance(scorer, (list, tuple)):
            for item in scorer:
                self.add_scorer(item)
        else:
            self.add_scorer(scorer)
        if not self._scorers:
            raise ValidationError("ScoringServer needs at least one scorer")
        # Kept for single-scorer back-compat introspection.
        self.scorer = next(iter(self._scorers.values()))
        server = self

        class Handler(BaseHTTPRequestHandler):
            """Request handler bound to this server's fleet and counters."""

            def log_message(self, *args):
                """Silence per-request stderr noise (stats are on /stats)."""

            def _reply(self, status: int, body: bytes,
                       content_type: str = "application/octet-stream",
                       headers: dict | None = None) -> None:
                self.send_response(status)
                self.send_header("Content-Type", content_type)
                self.send_header("Content-Length", str(len(body)))
                for name, value in (headers or {}).items():
                    self.send_header(name, value)
                self.end_headers()
                self.wfile.write(body)

            def do_GET(self):
                """Serve the ``/healthz`` probe and the ``/stats`` counters."""
                if self.path == "/healthz":
                    self._reply(200, b"ok", "text/plain")
                elif self.path == "/stats":
                    self._reply(200, json.dumps(server.stats()).encode(),
                                "application/json")
                else:
                    self._reply(404, b"not found", "text/plain")

            def do_POST(self):
                """Score one ``/score`` batch: ``.npy`` matrix in, labels out."""
                if self.path != "/score":
                    self._reply(404, b"not found", "text/plain")
                    return
                key, refusal = server._route(self.headers.get("X-Fairexp-Graph"))
                if refusal is not None:
                    status, message = refusal
                    self._reply(status, message.encode(), "text/plain")
                    return
                if not server._admit(key):
                    # Fast shed: the client backs off and retries instead of
                    # this batch deepening an already-saturated queue.
                    self._reply(
                        429,
                        b"shed: server at its admission limit",
                        "text/plain",
                        headers={"Retry-After": f"{server.retry_after:.3f}"},
                    )
                    return
                # The inflight gauge covers decode + score + count — the
                # work admission control bounds — and is released BEFORE the
                # reply is written, so a client reading /stats right after
                # its response never observes its own finished batch as
                # still in flight.
                try:
                    try:
                        length = int(self.headers.get("Content-Length", "0"))
                        X = _decode_array(self.rfile.read(length))
                        labels = np.asarray(server._scorers[key](X))
                    except Exception as error:  # noqa: BLE001 - wire boundary
                        self._reply(400, str(error).encode(), "text/plain")
                        return
                    server._count(key, int(np.atleast_2d(X).shape[0]),
                                  self.headers.get("X-Fairexp-Batches"))
                finally:
                    server._leave()
                self._reply(200, _encode_array(labels))

        self._httpd = ThreadingHTTPServer((host, port), Handler)
        self._httpd.daemon_threads = True
        self._thread = threading.Thread(target=self._httpd.serve_forever,
                                        name="fairexp-scoring-server", daemon=True)
        self._thread.start()

    # ------------------------------------------------------------------ fleet
    def add_scorer(self, scorer, *, key: str | None = None) -> str:
        """Register one scorer and return its routing key.

        ``key`` defaults to the scorer's content hash
        (:meth:`ComputeGraph.signature`) when it has one — the identity the
        persistent store fingerprints by, so a client holding a graph can
        derive the route without asking the server — and a per-server
        ``scorer-N`` placeholder for bare callables.
        """
        fn = scorer if callable(scorer) else scorer.predict
        if key is None:
            signature = getattr(scorer, "signature", None)
            if callable(signature):
                key = signature()
            else:
                key = f"scorer-{self._anonymous}"
                self._anonymous += 1
        key = str(key)
        with self._lock:
            self._scorers[key] = fn
            self._sources[key] = str(getattr(scorer, "source",
                                             type(scorer).__name__))
            self._graph_stats.setdefault(key, {
                "requests": 0, "rows": 0, "shed": 0, "client_batches": 0,
            })
        return key

    def graph_keys(self) -> list[str]:
        """Routing keys of every hosted scorer, in registration order."""
        with self._lock:
            return list(self._scorers)

    def _route(self, header: str | None):
        """Resolve a request's routing key: ``(key, None)`` or
        ``(None, (status, message))`` when the request must be refused."""
        with self._lock:
            if header:
                if header in self._scorers:
                    return header, None
                known = ", ".join(key[:12] for key in self._scorers)
                return None, (404, f"unknown graph {header!r}; hosting: {known}")
            if len(self._scorers) == 1:
                return next(iter(self._scorers)), None
            return None, (400,
                          f"this server hosts {len(self._scorers)} graphs; "
                          "requests must carry an X-Fairexp-Graph header")

    # -------------------------------------------------------------- admission
    def _admit(self, key: str) -> bool:
        """Admit one batch, or count a shed when ``max_inflight`` admitted
        batches are already in flight."""
        with self._lock:
            if (self.max_inflight is not None
                    and self._inflight >= self.max_inflight):
                return self._shed_locked(key)
            self._inflight += 1
            self.peak_inflight = max(self.peak_inflight, self._inflight)
            return True

    def _shed_locked(self, key: str) -> bool:
        """Book one refused batch (global + per-graph); returns ``False``."""
        self.shed_count += 1
        stats = self._graph_stats.get(key)
        if stats is not None:
            stats["shed"] += 1
        return False

    def _leave(self) -> None:
        with self._lock:
            self._inflight -= 1

    def _count(self, key: str, rows: int, batches_header: str | None) -> None:
        """Fold one successfully scored batch into the global and per-graph
        counters (the client-reported coalesced-batch count along)."""
        try:
            batches = max(1, int(batches_header or "1"))
        except ValueError:
            batches = 1
        with self._lock:
            self.request_count += 1
            self.row_count += rows
            stats = self._graph_stats[key]
            stats["requests"] += 1
            stats["rows"] += rows
            stats["client_batches"] += batches

    def stats(self) -> dict:
        """Global and per-graph serving counters (the ``/stats`` payload).

        Per graph: ``requests`` / ``rows`` (successful wire batches and
        their rows), ``shed`` (batches refused at the admission limit),
        ``client_batches`` (caller batches the clients coalesced into those
        requests) and the derived ``coalescing_factor``.  Globals keep the
        legacy ``requests`` / ``rows`` names, plus ``shed`` (every
        refusal), ``inflight`` / ``peak_inflight`` and the configured
        ``max_inflight``.
        """
        with self._lock:
            graphs = {}
            for key in self._scorers:
                entry = dict(self._graph_stats[key])
                entry["source"] = self._sources[key]
                entry["coalescing_factor"] = (
                    entry["client_batches"] / entry["requests"]
                    if entry["requests"] else None
                )
                graphs[key] = entry
            return {
                "requests": self.request_count,
                "rows": self.row_count,
                "shed": self.shed_count,
                "inflight": self._inflight,
                "peak_inflight": self.peak_inflight,
                "max_inflight": self.max_inflight,
                "graphs": graphs,
            }

    # -------------------------------------------------------------- lifecycle
    @property
    def url(self) -> str:
        """Base URL of the running server (``http://host:port``)."""
        host, port = self._httpd.server_address[:2]
        return f"http://{host}:{port}"

    def serve_until_interrupted(self) -> None:
        """Block the calling thread until the server stops.

        Returns when :meth:`close` is called from another thread or the
        wait is interrupted (Ctrl-C) — this is what ``python -m fairexp
        serve`` parks its main thread on.
        """
        try:
            while self._thread.is_alive():
                self._thread.join(timeout=1.0)
        except KeyboardInterrupt:
            pass

    def close(self) -> None:
        """Stop serving, join the request loop and release the socket.

        Idempotent and thread-safe: concurrent closers serialize on a
        lock, so every ``close()`` call returns only once the request-loop
        thread has actually exited — racing ``close`` against interpreter
        shutdown can no longer leak a live daemon thread behind the first
        caller's back.  The thread is joined *before* the socket closes so
        the serve loop never touches a dead socket.
        """
        with self._close_lock:
            if self._closed:
                return
            self._closed = True
            self._httpd.shutdown()
            self._thread.join(timeout=10.0)
            self._httpd.server_close()

    def __enter__(self) -> "ScoringServer":
        """Use the server as a context manager; :meth:`close` on exit."""
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        """Stop the server on block exit."""
        self.close()


def serve_model(model, *, host: str = "127.0.0.1", port: int = 0,
                max_inflight: int | None = None) -> ScoringServer:
    """Start a loopback :class:`ScoringServer` over ``model``'s exported graph.

    Convenience for tests, benchmarks and the experiment runners'
    ``backend="remote"`` mode: the model is compiled with
    :func:`export_model` so the serving path is the same one a separate
    ``python -m fairexp serve`` process would run.
    """
    return ScoringServer(export_model(model), host=host, port=port,
                         max_inflight=max_inflight)


def serve_fleet(models_or_graphs, *, host: str = "127.0.0.1", port: int = 0,
                max_inflight: int | None = None) -> ScoringServer:
    """Start one loopback :class:`ScoringServer` hosting a whole model fleet.

    Each element of ``models_or_graphs`` is a fitted model (compiled via
    :func:`export_model`) or an existing :class:`ComputeGraph`; every graph
    is routed by its content hash.  This is the in-process twin of
    ``python -m fairexp serve --graph a.npz --graph b.npz``.
    """
    graphs = [graph if isinstance(graph, ComputeGraph) else export_model(graph)
              for graph in models_or_graphs]
    return ScoringServer(graphs, host=host, port=port,
                         max_inflight=max_inflight)


# ---------------------------------------------------------------------------
# Coalescing remote client
# ---------------------------------------------------------------------------
class _PendingScore:
    """One caller's batch waiting for a coalesced wire call."""

    __slots__ = ("X", "event", "result", "error")

    def __init__(self, X: np.ndarray) -> None:
        self.X = X
        self.event = threading.Event()
        self.result: np.ndarray | None = None
        self.error: Exception | None = None


class _ShedError(Exception):
    """A ``429`` shed reply from the server (internal to the retry loop)."""

    def __init__(self, retry_after: float, detail: str) -> None:
        super().__init__(detail)
        self.retry_after = retry_after


def _retry_backoff_sleep(delay: float) -> None:
    """Park the dispatching thread between shed retries.

    The one sanctioned ``time.sleep`` on the client path (lint rule FX007):
    naming the pause for its backoff role keeps it patchable in tests and
    visibly scoped to the retry ladder.
    """
    time.sleep(delay)


class _Lane:
    """One graph's dispatch lane: pending batches and leadership.

    Coalescing is per graph — batches bound for different graphs can never
    share a wire call — so the dispatch state (pending queue, leader flag,
    registered-peer count) lives on the lane, keyed by the graph's routing
    hash (``None`` for the header-less single-graph wire shape).
    """

    __slots__ = ("key", "pending", "leader_active", "registered")

    def __init__(self, key: str | None) -> None:
        self.key = key
        self.pending: list[_PendingScore] = []
        self.leader_active = False
        self.registered = 0


@guard_counters("wire_call_count", "wire_row_count", "coalesced_count",
                "shed_count", "retry_count", lock_attr="_cond")
class CoalescingScoringClient:
    """Batched scoring client with per-graph cross-caller request coalescing.

    Callers block in :meth:`score`; the first caller to arrive **on a
    graph's lane** becomes the *leader* of that lane's dispatch window.
    The leader waits until either every peer registered on the lane has a
    batch pending or the window elapses, then stacks all pending matrices
    into ONE ``POST /score`` wire call (carrying the graph hash) and fans
    the label slices back out.  Concurrent sessions sharing a client
    therefore issue strictly fewer wire calls than the same sessions with
    private clients — the tentpole's serving acceptance criterion — and a
    fleet of graphs multiplexes over one client without cross-graph
    batches ever mixing.

    A failed wire call raises in **every** coalesced caller; backends count
    calls/rows only after a successful dispatch (see
    :class:`~fairexp.explanations.backends.NumpyPredictBackend.predict`), so
    a scorer timeout never inflates session accounting.  A ``429`` shed
    reply (the server's admission limit) is retried with exponential
    backoff up to ``max_retries`` times before failing the batch — rows
    are still only counted once, after the dispatch that finally lands.

    Parameters
    ----------
    url:
        Base URL of a :class:`ScoringServer` (``http://127.0.0.1:PORT``).
    window:
        Seconds a lane's leader waits for peers before dispatching.  ``0``
        disables coalescing (every batch is its own wire call).
    timeout:
        Socket timeout for the wire call.
    max_retries, backoff:
        Shed handling: how many times a shed batch is re-dispatched, and
        the base backoff delay (doubled per attempt; the server's
        ``Retry-After`` hint overrides the base when larger).

    Attributes
    ----------
    wire_call_count, wire_row_count:
        Wire calls issued and total rows across them — the observable the
        coalescing benchmark asserts on.
    coalesced_count:
        Number of caller batches that shared another batch's wire call.
    shed_count, retry_count:
        Shed replies received and re-dispatches performed recovering from
        them.
    """

    def __init__(self, url: str, *, window: float = 0.02, timeout: float = 30.0,
                 max_retries: int = 8, backoff: float = 0.05) -> None:
        self.url = url.rstrip("/")
        self.window = float(window)
        self.timeout = float(timeout)
        self.max_retries = int(max_retries)
        self.backoff = float(backoff)
        self.wire_call_count = 0
        self.wire_row_count = 0
        self.coalesced_count = 0
        self.shed_count = 0
        self.retry_count = 0
        self._lanes: dict[str | None, _Lane] = {}
        self._cond = make_condition()

    # ---------------------------------------------------------------- lanes
    @staticmethod
    def _lane_key(graph) -> str | None:
        """Normalize a graph argument to a routing key: ``None``, a hash
        string, or anything exposing ``signature()`` (a ComputeGraph)."""
        if graph is None:
            return None
        signature = getattr(graph, "signature", None)
        if callable(signature):
            return signature()
        return str(graph)

    def _lane_locked(self, key: str | None) -> _Lane:
        lane = self._lanes.get(key)
        if lane is None:
            lane = _Lane(key)
            self._lanes[key] = lane
        return lane

    @property
    def registered_count(self) -> int:
        """Registered callers across every lane."""
        with self._cond:
            return sum(lane.registered for lane in self._lanes.values())

    # ----------------------------------------------------------- registration
    def register(self, graph=None) -> None:
        """Announce one more concurrent caller on a graph's lane.

        The lane's window leader stops waiting as soon as every registered
        caller has a batch pending, which makes the first wave of a
        concurrent sweep coalesce deterministically instead of racing the
        window.
        """
        with self._cond:
            self._lane_locked(self._lane_key(graph)).registered += 1

    def unregister(self, graph=None) -> None:
        """Detach one caller from a graph's lane (a backend closing)."""
        with self._cond:
            lane = self._lane_locked(self._lane_key(graph))
            lane.registered = max(0, lane.registered - 1)
            self._cond.notify_all()

    # -------------------------------------------------------------- scoring
    def score(self, X: np.ndarray, graph=None) -> np.ndarray:
        """Labels for ``X`` via a (possibly shared) wire call on the
        graph's lane."""
        request = _PendingScore(np.atleast_2d(np.asarray(X, dtype=float)))
        with self._cond:
            lane = self._lane_locked(self._lane_key(graph))
            lane.pending.append(request)
            self._cond.notify_all()
            lead = not lane.leader_active
            if lead:
                lane.leader_active = True
        if lead:
            self._lead_dispatch(lane)
        request.event.wait()
        if request.error is not None:
            raise request.error
        return request.result

    def _lead_dispatch(self, lane: _Lane) -> None:
        """Run one dispatch window on a lane: wait for peers, flush."""
        deadline = time.monotonic() + self.window
        with self._cond:
            while True:
                enough = (lane.registered > 0
                          and len(lane.pending) >= lane.registered)
                remaining = deadline - time.monotonic()
                if enough or remaining <= 0:
                    break
                self._cond.wait(timeout=remaining)
            batch, lane.pending = lane.pending, []
            lane.leader_active = False
        self._flush(lane, batch)

    def _flush(self, lane: _Lane, batch: list[_PendingScore]) -> None:
        """Dispatch one stacked batch, retrying through shed replies."""
        def fail(error: Exception) -> None:
            for request in batch:
                request.error = error
                request.event.set()

        stacked = np.vstack([request.X for request in batch])
        attempt = 0
        while True:
            try:
                labels = self._wire_call(stacked, lane, len(batch))
                if labels.shape[0] != stacked.shape[0]:
                    raise ValidationError(
                        f"scoring server returned {labels.shape[0]} labels "
                        f"for {stacked.shape[0]} rows"
                    )
                break
            except _ShedError as shed:
                with self._cond:
                    self.shed_count += 1
                if attempt >= self.max_retries:
                    fail(ValidationError(
                        f"scoring server shed the batch {attempt + 1} times "
                        f"(admission limit); giving up after "
                        f"{self.max_retries} retries"
                    ))
                    return
                # Exponential backoff from the server's Retry-After hint
                # (capped: a deep backoff ladder must not stall a session
                # for longer than the overload it is riding out).
                delay = min(max(shed.retry_after, self.backoff)
                            * (2.0 ** attempt), 1.0)
                _retry_backoff_sleep(delay)
                with self._cond:
                    self.retry_count += 1
                attempt += 1
            except Exception as error:  # noqa: BLE001 - fan the failure out
                fail(error)
                return
        with self._cond:
            self.wire_call_count += 1
            self.wire_row_count += int(stacked.shape[0])
            self.coalesced_count += len(batch) - 1
        offset = 0
        for request in batch:
            n = request.X.shape[0]
            request.result = labels[offset:offset + n]
            offset += n
            request.event.set()

    def _wire_call(self, X: np.ndarray, lane: _Lane, n_batches: int) -> np.ndarray:
        headers = {
            "Content-Type": "application/octet-stream",
            # The server folds this into its per-graph /stats: how many
            # caller batches this wire call coalesces.
            "X-Fairexp-Batches": str(n_batches),
        }
        if lane.key is not None:
            headers["X-Fairexp-Graph"] = lane.key
        request = urllib.request.Request(
            f"{self.url}/score", data=_encode_array(X),
            headers=headers, method="POST",
        )
        try:
            with urllib.request.urlopen(request, timeout=self.timeout) as response:
                return np.asarray(_decode_array(response.read()))
        except urllib.error.HTTPError as error:
            detail = error.read().decode(errors="replace")
            if error.code == 429:
                try:
                    retry_after = float(error.headers.get("Retry-After") or 0.0)
                except (TypeError, ValueError):
                    retry_after = 0.0
                raise _ShedError(retry_after, detail) from error
            raise ValidationError(
                f"scoring server rejected the batch ({error.code}): {detail}"
            ) from error
        except urllib.error.URLError as error:
            # Connection refused / reset (e.g. the server closed with this
            # batch in flight) surfaces as the library's own exception, not
            # a raw socket error — callers see a clean backend failure.
            raise ValidationError(
                f"scoring server unreachable at {self.url}: {error.reason}"
            ) from error
        except (http.client.HTTPException, OSError, EOFError, ValueError) as error:
            # A fault after the status line — a truncated body, a reset
            # socket, a body that is not a plain .npy array — is just as
            # much a failed dispatch: every coalesced caller sees one clean
            # backend error and nothing is counted.
            raise ValidationError(
                f"scoring server at {self.url} sent a broken response: "
                f"{type(error).__name__}: {error}"
            ) from error


class RemoteScoringBackend(NumpyPredictBackend):
    """Predict backend over a remote :class:`ScoringServer`.

    Concurrent sessions that share one :class:`CoalescingScoringClient`
    (pass the client instead of a URL) have their predict batches stacked
    into shared wire calls; each backend still counts **its own** calls and
    rows — and only after the dispatch succeeded — so per-session
    accounting sums to exactly what independent runs would report, shed
    retries included.

    Against a fleet server, ``graph`` selects which hosted graph this
    backend's batches route to: a :class:`ComputeGraph` (its content hash
    is derived), a hash string, or ``None`` for the single-graph wire
    shape.  Batches for different graphs ride different lanes of the
    shared client and never mix in a wire call.  The graph hash doubles as
    the backend's *store identity*: sessions driven through a graph-routed
    remote backend fingerprint by it (never by the ephemeral server
    endpoint), so their populations stay store-addressable across server
    restarts; a graph-less remote backend has no reproducible predictor
    identity and skips the persistent store.

    The backend declares ``releases_gil=True``: the wire call blocks on a
    socket, so thread-sharding across it scales (and is what lets the
    batches of several shards coalesce at all).
    """

    ships_fn_to_workers = False  # the client's locks must not cross processes

    def __init__(self, url_or_client, *, name: str = "remote", graph=None,
                 window: float = 0.02, timeout: float = 30.0,
                 max_retries: int = 8, backoff: float = 0.05) -> None:
        if isinstance(url_or_client, CoalescingScoringClient):
            client = url_or_client
        else:
            client = CoalescingScoringClient(str(url_or_client), window=window,
                                             timeout=timeout,
                                             max_retries=max_retries,
                                             backoff=backoff)
        super().__init__(model=None)
        self.name = name
        self.releases_gil = True
        self.client = client
        self.graph_key = CoalescingScoringClient._lane_key(graph)
        self._detached = False
        client.register(graph=self.graph_key)

    def _run(self, X: np.ndarray) -> np.ndarray:
        return np.asarray(self.client.score(X, graph=self.graph_key))

    def close(self) -> None:
        """Detach from the shared client (stops the leader waiting on us).

        Idempotent: a second close must not decrement ANOTHER live caller's
        registration — that would let the window leader believe every peer
        is gone and degrade coalescing to timeout-driven dispatch.
        """
        if self._detached:
            return
        self._detached = True
        self.client.unregister(graph=self.graph_key)
