"""Cross-process persistent counterfactual result store.

An :class:`~fairexp.explanations.session.AuditSession` already shares each
population's counterfactual matrix across every audit *inside* one process.
This module extends that sharing across process boundaries: CI runs,
dashboard refreshes and example scripts auditing the same frozen model over
the same population reuse the matrices a previous process already paid for.

The unit of persistence is one **population entry**: the aligned
counterfactual results (including rows remembered as infeasible) for one
population matrix under one model and one search configuration.  Entries are
keyed by a :func:`population_fingerprint` — a SHA-256 digest folding together

* the **dataset hash** (shape + bytes of the population matrix),
* the **model signature** (class plus every public attribute, fitted arrays
  included, so an in-place refit busts the key) and the **predict
  dispatch** (a custom callable backend — ONNX export, remote scorer — is
  part of the key: its decision boundary, not the bare model's, produced
  the results),
* the **engine config** (generator class, search parameters — the search
  schedule included — actionability constraints, background data, seed —
  via :func:`~fairexp.explanations.engine.generator_config`),
* the **fingerprint and fairexp release versions**, so semantic key changes
  and search-kernel changes retire old entries instead of serving them.

On disk each entry is a compressed ``.npz`` payload holding the columns of
a :class:`~fairexp.explanations.base.CounterfactualBatch` as they are, plus
a JSON manifest carrying the format version and the payload's checksum.  A
load hands the columns back as a batch without rebuilding any per-row
object.  A manifest of any other format version is a miss (recompute);
only rows with a non-empty ``meta`` are JSON-encoded.  Writes are
corruption-safe: payloads are
content-named and published with an atomic ``os.replace`` before the
manifest that references them, so concurrent writers of the same fingerprint
cannot interleave — a reader either sees a complete earlier entry or a
complete later one, and any torn or truncated state fails checksum
validation and is treated as a miss (recompute, then overwrite).  The store
directory is bounded: least-recently-used entries are evicted beyond
``max_entries`` / ``max_bytes``, and orphaned payloads are swept.

Generators seeded with a shared :class:`numpy.random.Generator` instance —
or not seeded at all (``random_state=None`` draws fresh OS entropy every
run) — have no reproducible fingerprint; :func:`population_fingerprint`
returns ``None`` for them and the session quietly skips the store.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import os
import pickle
import sys
import time
import re
from pathlib import Path

import numpy as np

from .backends import CallablePredictBackend, NumpyPredictBackend
from .base import CounterfactualBatch
from .engine import (
    BatchModelAdapter,
    effective_backend,
    generator_config,
    generator_config_is_faithful,
)

__all__ = [
    "STORE_FORMAT_VERSION",
    "CounterfactualStore",
    "model_signature",
    "population_fingerprint",
]

#: Format version written into every new manifest (version 3 writes a
#: ``CounterfactualBatch``'s columns compressed, with a ``metas`` member only
#: when some row carries a meta).  A manifest of any other version
#: is treated as corruption (recompute): every fingerprint folds the
#: package's source digest, so an entry written by another build can never
#: be addressed by this one anyway.
STORE_FORMAT_VERSION = 3

#: Version folded into population fingerprints.  Separate from
#: :data:`STORE_FORMAT_VERSION` on purpose: the payload encoding and what a
#: fingerprint covers change independently — a *semantic* change to what a
#: fingerprint covers must bump this one.
_FINGERPRINT_VERSION = 1

#: What an entry's file stem looks like: a (possibly truncated) hex digest.
#: Anything else in the directory — a sweep's ``SWEEP_JOURNAL.json``, editor
#: droppings — is a foreign file the store must leave alone.
_FINGERPRINT_STEM = re.compile(r"[0-9a-f]{16,64}")

#: Seconds a payload may sit unreferenced by any manifest before the orphan
#: sweep removes it — long enough for a concurrent writer to publish the
#: manifest that will reference it.
_ORPHAN_GRACE_SECONDS = 60.0


# --------------------------------------------------------------------------
# Fingerprinting
# --------------------------------------------------------------------------
def _hash_value(digest, value, _on_path: frozenset[int] = frozenset()) -> bool:
    """Fold ``value`` into ``digest`` deterministically.

    Returns ``False`` when the value has no reproducible byte representation
    — a live ``np.random.Generator`` stream, state without ``__dict__``, or
    a cyclic object graph (``_on_path`` tracks container/object ids on the
    current recursion path) — which poisons the whole fingerprint: callers
    skip the store rather than guess.
    """
    if isinstance(value, np.random.Generator):
        return False
    if isinstance(value, np.ndarray):
        if value.dtype.hasobject:
            # tobytes() on an object array serializes memory pointers, which
            # differ per process (never warm) and can collide after
            # reallocation (wrong warm hit) — poison instead.
            return False
        array = np.ascontiguousarray(value)
        digest.update(f"ndarray:{array.dtype}:{array.shape}:".encode())
        digest.update(array.tobytes())
        return True
    if isinstance(value, (bool, int, float, str, bytes,
                          np.bool_, np.integer, np.floating)) \
            or value is None:
        # Length-prefix framing: without it the concatenated reprs of
        # neighbouring items are ambiguous ([1, 23] vs [12, 3] would fold
        # to the same bytes) and distinct configs would share fingerprints.
        encoded = repr(value).encode()
        digest.update(f"scalar:{len(encoded)}:".encode())
        digest.update(encoded)
        return True
    if id(value) in _on_path:
        return False  # back-reference cycle: not reproducibly serializable
    _on_path = _on_path | {id(value)}
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        digest.update(f"dataclass:{type(value).__qualname__}:".encode())
        for field in dataclasses.fields(value):
            digest.update(f"field:{field.name}:".encode())
            if not _hash_value(digest, getattr(value, field.name), _on_path):
                return False
        return True
    if isinstance(value, dict):
        digest.update(f"dict:{len(value)}:".encode())
        for key in sorted(value, key=repr):
            encoded_key = repr(key).encode()
            digest.update(f"key:{len(encoded_key)}:".encode())
            digest.update(encoded_key)
            if not _hash_value(digest, value[key], _on_path):
                return False
        return True
    if isinstance(value, (list, tuple)):
        digest.update(f"seq:{len(value)}:".encode())
        return all(_hash_value(digest, item, _on_path) for item in value)
    if isinstance(value, (set, frozenset)):
        digest.update(f"set:{len(value)}:".encode())
        return all(_hash_value(digest, item, _on_path)
                   for item in sorted(value, key=repr))
    # Objects (e.g. nested estimators): class identity plus ALL instance
    # state — private attributes included, since from-scratch models keep
    # fitted state under leading underscores (KNN's ``_X``/``_y``, MLP's
    # normalizers) and skipping them would alias differently-fitted models.
    # Unreproducible members (locks, streams) poison the fingerprint via
    # the branches above, which is the safe direction: a skipped store,
    # never a wrong hit.  Anything without inspectable state at all has no
    # reproducible representation — poison rather than guess.
    if not hasattr(value, "__dict__"):
        return False
    digest.update(f"obj:{type(value).__qualname__}:".encode())
    return _hash_value(digest, dict(vars(value)), _on_path)


def model_signature(model) -> str | None:
    """Digest of a fitted model: class identity plus its entire instance state.

    Fitted arrays are hashed by content — public (``coef_`` and friends) and
    private (KNN's ``_X``/``_y``, MLP's normalizers) alike — so two fits on
    the same data agree and an in-place refit on different data produces a
    different signature, which is exactly what must bust a population
    fingerprint.  :class:`~fairexp.explanations.engine.BatchModelAdapter`
    wrappers are unwrapped first.  Returns ``None`` when the model carries
    state with no reproducible byte representation (locks, live random
    streams, ``__slots__``-only state invisible to ``vars()``, cyclic or
    unboundedly deep object graphs).
    """
    if isinstance(model, BatchModelAdapter):
        model = model.model
    if model is None:
        return None
    if not hasattr(model, "__dict__"):
        # A __slots__/extension model's state is invisible to vars();
        # hashing it as empty would alias differently-fitted models onto
        # one fingerprint and warm-serve wrong-model counterfactuals.
        return None
    digest = hashlib.sha256()
    digest.update(f"model:{type(model).__qualname__}:".encode())
    try:
        if not _hash_value(digest, dict(vars(model))):
            return None
    except RecursionError:
        # Deeper state than the interpreter can walk: no reproducible hash.
        return None
    return digest.hexdigest()


def _dispatch_token(model) -> bytes | None:
    """Bytes identifying the *effective predict dispatch* behind ``model``.

    The bare model's fitted state is hashed separately
    (:func:`model_signature`); this token captures which predictor turns a
    candidate matrix into labels.  A custom callable backend (ONNX export,
    remote scorer) can disagree with the bare model's own ``predict``, so
    two sessions differing only in that callable must not share store
    entries.

    The token folds in the callable's pickle (a bound method embeds its
    instance state; a module-level function pickles by reference only) AND,
    when available, its bytecode + constants — so editing a module-level
    scorer's body busts the key even though its import path is unchanged.
    Logic reached indirectly (globals, closures over mutable state) is
    beyond any static token; the folded-in fairexp version plus
    ``STORE_FORMAT_VERSION`` remain the backstop for such changes.
    ``None`` means the dispatch has no reproducible identity (unpicklable
    callables, unknown third-party backends) — skip the store.
    """
    backend = effective_backend(model)
    if backend is None or type(backend) is NumpyPredictBackend:
        return b"dispatch:model-predict"
    # Imported lazily to keep this module importable before serving.py
    # (package init order), and because only this branch needs it.
    from .serving import OnnxExportBackend, RemoteScoringBackend

    if isinstance(backend, OnnxExportBackend):
        # The exported graph carries its full predictor identity in its own
        # bytes: content-hash it instead of pickling (reproducible across
        # processes), so ONNX-backed sweeps can warm-start from the store —
        # keyed apart from in-process sweeps and from any other graph.
        return b"dispatch:onnx-graph:" + backend.graph.signature().encode()
    if isinstance(backend, RemoteScoringBackend):
        # A remote scorer's endpoint (host:port of a loopback or fleet
        # server) is ephemeral — folding it would fingerprint-miss on every
        # resume.  The graph content hash the backend routes by IS the
        # predictor identity (the server scores that exact graph), so
        # remote cells keyed on it are store-addressable across server
        # restarts and share entries with nothing else.  A graph-less
        # remote backend (bare URL, unknown server-side predictor) has no
        # reproducible identity: skip the store.
        if backend.graph_key:
            return b"dispatch:remote-graph:" + str(backend.graph_key).encode()
        return None
    if type(backend) is CallablePredictBackend:
        try:
            parts = [b"dispatch:callable:", pickle.dumps(backend.fn)]
        except Exception:
            return None
        code = getattr(backend.fn, "__code__", None)
        if code is None:  # bound methods carry code on __func__
            code = getattr(getattr(backend.fn, "__func__", None), "__code__", None)
        if code is not None:
            parts.append(_code_token(code))
        return b"".join(parts)
    return None


def _code_token(code) -> bytes:
    """Process-stable bytes for a code object: bytecode + constants.

    Two constant kinds need special care, both for the same reason — their
    default repr differs between processes, which would make the
    fingerprint miss in every fresh process and silently turn warm starts
    into permanent cold paths:

    * nested code objects (inner defs/lambdas) repr with a memory address —
      recursed into instead;
    * ``frozenset`` constants (compiled from set-membership literals)
      iterate in hash-seed-dependent order — repr'd sorted instead.
    """
    parts = [code.co_code]
    for const in code.co_consts:
        if hasattr(const, "co_code"):
            parts.append(_code_token(const))
        elif isinstance(const, (set, frozenset)):
            parts.append(repr(sorted(const, key=repr)).encode())
        else:
            parts.append(repr(const).encode())
    return b"".join(parts)


_PACKAGE_CODE_TOKEN: str | None = None


def _package_code_token() -> str:
    """Digest of every ``.py`` file in the installed fairexp package.

    Fingerprints hash config and data, not code — so a source change to any
    search kernel (or model predict logic) must retire existing store
    entries some other way.  Between releases ``__version__`` never moves
    (a dev checkout pulls kernel changes under one version string), so the
    package's own source bytes are folded into every fingerprint instead.
    Computed once per process; unreadable sources degrade to a stable
    placeholder rather than failing the audit.
    """
    global _PACKAGE_CODE_TOKEN
    if _PACKAGE_CODE_TOKEN is None:
        import fairexp

        digest = hashlib.sha256()
        root = Path(fairexp.__file__).resolve().parent
        for path in sorted(root.rglob("*.py")):
            digest.update(path.relative_to(root).as_posix().encode())
            try:
                digest.update(path.read_bytes())
            except OSError:
                digest.update(b"<unreadable>")
        _PACKAGE_CODE_TOKEN = digest.hexdigest()
    return _PACKAGE_CODE_TOKEN


def population_fingerprint(generator, X) -> str | None:
    """Fingerprint of one (population, model, engine config) combination.

    This is the store key: any change to the population matrix, the fitted
    model (or the predict backend standing in for it), the generator class,
    any of its search parameters (constraints, seed, schedule, metric,
    target class, background data), or the installed fairexp version yields
    a different fingerprint — see ``docs/architecture.md`` for the
    cache-invalidation story.  Returns ``None`` when no reproducible
    fingerprint exists (unseeded shared random streams, unhashable models,
    anonymous predict callables), in which case callers must skip the store.
    """
    if not generator_config_is_faithful(generator):
        return None  # the config hash would be blind to a hidden parameter
    dispatch = _dispatch_token(generator.model)
    if dispatch is None:
        return None
    signature = model_signature(generator.model)
    if signature is None:
        bare = generator.model
        if isinstance(bare, BatchModelAdapter):
            bare = bare.model
        if bare is not None:
            return None  # a model exists but has no reproducible hash
        # Pure-callable session: the pickled callable in the dispatch token
        # carries the full predictor identity on its own.
        signature = "callable-only"
    # Imported lazily: fairexp/__init__ imports this module during package
    # init, before __version__ is bound.
    import fairexp

    digest = hashlib.sha256()
    digest.update(f"format:{_FINGERPRINT_VERSION}:".encode())
    # Results are produced by code, and fingerprints hash config + data, not
    # code — folding the release version AND the package's source digest in
    # retires every entry on upgrade or on any source change to the search
    # kernels, so pre-change matrices can never be served warm.
    digest.update(f"version:{getattr(fairexp, '__version__', '0')}:".encode())
    digest.update(f"code:{_package_code_token()}:".encode())
    # The search also runs on numpy's RNG streams and ufuncs and the
    # interpreter's bytecode semantics — an upgrade of either can change
    # results without touching fairexp sources or fitted state.
    digest.update(
        f"deps:python{sys.version_info.major}.{sys.version_info.minor}"
        f":numpy{np.__version__}:".encode()
    )
    digest.update(f"generator:{type(generator).__qualname__}:".encode())
    digest.update(f"model:{signature}:".encode())
    digest.update(dispatch)
    config = generator_config(generator)
    if "random_state" in config and config["random_state"] is None:
        # An unseeded search draws fresh OS entropy every run: persisting one
        # run's draws and replaying them warm would silently turn a
        # nondeterministic audit into a sticky one.
        return None
    try:
        if not _hash_value(digest, np.asarray(generator.background, dtype=float)):
            return None
        if not _hash_value(digest, config):
            return None
    except RecursionError:
        return None  # a custom generator param deeper than the stack allows
    X = np.ascontiguousarray(np.atleast_2d(np.asarray(X, dtype=float)))
    digest.update(f"population:{X.shape}:".encode())
    digest.update(X.tobytes())
    return digest.hexdigest()


# --------------------------------------------------------------------------
# Serialization
# --------------------------------------------------------------------------
def _encode_metas(metas: np.ndarray) -> np.ndarray:
    """JSON text per row meta (``""`` for none).  Raises ``ValueError`` for
    a meta a JSON round trip would change (JSON turns int keys into
    strings): a warm load must not hand back other meta than the cold path."""
    encoded = [json.dumps(meta, sort_keys=True) if meta else "" for meta in metas]
    if any(text and json.loads(text) != meta for text, meta in zip(encoded, metas)):
        raise ValueError("meta does not survive a JSON round trip")
    return np.asarray(encoded)


def _unlink(*paths: Path) -> None:
    """Remove each path; one already gone (a concurrent process removed it)
    or not removable is skipped, and a leftover is swept later."""
    for path in paths:
        with contextlib.suppress(OSError):
            path.unlink()


def _latest_rows(batch: CounterfactualBatch) -> CounterfactualBatch:
    """One row per index, sorted by index; the last row wins for a repeated one."""
    if np.all(np.diff(batch.indices) > 0):
        return batch
    _, last = np.unique(batch.indices[::-1], return_index=True)
    return batch.take(len(batch) - 1 - last)


# --------------------------------------------------------------------------
# The store
# --------------------------------------------------------------------------
class CounterfactualStore:
    """Directory-backed LRU store of per-population counterfactual results.

    Parameters
    ----------
    directory:
        Where entries live.  Created on first use; safe to share between
        concurrent processes (all publishes are atomic renames).
    max_entries:
        Bound on the number of population entries kept; least-recently-used
        entries beyond it are evicted after every save.
    max_bytes:
        Bound on the directory's total payload + manifest size, enforced the
        same way.  An entry larger than the bound on its own is still kept
        (evicting everything would just thrash); the bound then holds again
        as soon as a smaller entry set returns.

    Attributes
    ----------
    hit_count, miss_count:
        Entry-level load outcomes for this process, surfaced through
        :meth:`AuditSession.stats` as the honest measure of warm starts.
    bytes_read:
        Total payload bytes this process read back from disk on validated
        entry loads — the I/O cost of warm starts, surfaced into the
        ``BENCH_*`` trajectories alongside the hit counters.
    """

    def __init__(self, directory, *, max_entries: int = 256,
                 max_bytes: int = 512 * 1024 * 1024) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.max_entries = int(max_entries)
        self.max_bytes = int(max_bytes)
        self.hit_count = 0
        self.miss_count = 0
        self.bytes_read = 0

    @classmethod
    def from_env(cls, env_var: str = "FAIREXP_STORE_DIR") -> "CounterfactualStore | None":
        """Store rooted at ``$FAIREXP_STORE_DIR``, or ``None`` when unset.

        This is how the experiment runners opt in: exporting the variable
        turns every E1–E9 session warm-startable with no code change.
        """
        directory = os.environ.get(env_var, "").strip()
        return cls(directory) if directory else None

    @staticmethod
    def ensure(store) -> "CounterfactualStore | None":
        """Coerce ``store`` (a store, a path, or ``None``) to a store.

        An empty path means "no store", matching :meth:`from_env` with an
        unset variable — it must not silently become a store rooted in the
        process's working directory.
        """
        if store is None or isinstance(store, CounterfactualStore):
            return store
        if not str(store).strip():
            return None
        return CounterfactualStore(store)

    # --------------------------------------------------------------- layout
    def _manifest_path(self, fingerprint: str) -> Path:
        return self.directory / f"{fingerprint}.json"

    def _payload_path(self, fingerprint: str, token: str) -> Path:
        return self.directory / f"{fingerprint}.{token}.npz"

    def _entry_manifests(self) -> list[Path]:
        """Manifests of actual entries: hex-fingerprint-named ``.json`` files.

        The store directory can host foreign bookkeeping files — a sweep's
        ``SWEEP_JOURNAL.json`` lives next to the entries it warms — and
        those must never be listed, counted, or (worst) LRU-evicted as if
        they were population entries.
        """
        return [path for path in self.directory.glob("*.json")
                if _FINGERPRINT_STEM.fullmatch(path.stem)]

    def entries(self) -> list[str]:
        """Fingerprints of every entry currently published in the directory."""
        return sorted(path.stem for path in self._entry_manifests())

    def entry_details(self) -> list[dict]:
        """Per-entry metadata for inspection: one dict per published entry.

        Each dict carries ``fingerprint``, ``payload`` (its file name),
        ``n_rows``, ``n_features``, ``bytes`` (manifest + payload),
        ``age_seconds`` (since the last
        recency bump — the quantity LRU eviction orders on),
        ``updated_at`` and ``format_version``.  Entries racing a concurrent
        writer are skipped rather than reported half-read; ordering is by
        age, oldest (next-to-evict) first.  This is what the
        ``python -m fairexp store inspect`` CLI prints.
        """
        now = time.time()
        details: list[dict] = []
        for manifest_path in self._entry_manifests():
            try:
                manifest = json.loads(manifest_path.read_text())
                size = manifest_path.stat().st_size
                payload_name = str(manifest.get("payload", ""))
                payload_path = self.directory / payload_name
                if payload_path.exists():
                    size += payload_path.stat().st_size
                age = max(0.0, now - manifest_path.stat().st_mtime)
            except (OSError, ValueError):
                continue  # torn concurrent write; the next call sees it settled
            details.append({
                "fingerprint": manifest_path.stem,
                "payload": payload_name,
                "n_rows": int(manifest.get("n_rows", 0)),
                "n_features": int(manifest.get("n_features", 0)),
                "bytes": int(size),
                "age_seconds": float(age),
                "updated_at": str(manifest.get("updated_at", "")),
                "format_version": manifest.get("format_version"),
            })
        details.sort(key=lambda d: (-d["age_seconds"], d["fingerprint"]))
        return details

    def evict(self, *, max_entries: int | None = None,
              max_bytes: int | None = None, fingerprint: str | None = None) -> int:
        """Explicitly evict entries; returns how many were removed.

        With ``fingerprint`` (a full fingerprint or an **unambiguous**
        prefix) exactly that entry is discarded; a prefix matching several
        entries raises ``ValueError`` instead of mass-deleting, and a prefix
        matching none removes nothing.  With ``max_entries`` / ``max_bytes``
        the oldest entries are discarded until the directory fits the given
        bounds (the store's own configured bounds are untouched).  The
        criteria compose: the fingerprint eviction runs first, then the
        bounds are enforced on what remains.  This is the
        ``python -m fairexp store evict`` CLI's backend.
        """
        removed = 0
        if fingerprint is not None:
            matches = [f for f in self.entries() if f.startswith(fingerprint)]
            if len(matches) > 1:
                previews = ", ".join(match[:16] for match in matches)
                raise ValueError(
                    f"fingerprint prefix {fingerprint!r} is ambiguous: "
                    f"matches {len(matches)} entries ({previews}, ...)"
                )
            if matches:
                self.discard(matches[0])
                removed += 1
        if max_entries is None and max_bytes is None:
            return removed
        details = self.entry_details()  # oldest first
        total_bytes = sum(d["bytes"] for d in details)
        while details and (
            (max_entries is not None and len(details) > max_entries)
            or (max_bytes is not None and total_bytes > max_bytes)
        ):
            oldest = details.pop(0)
            self.discard(oldest["fingerprint"])
            total_bytes -= oldest["bytes"]
            removed += 1
        return removed

    # ----------------------------------------------------------------- read
    def _read(self, fingerprint: str) -> CounterfactualBatch | None:
        """Validated read of one entry; ``None`` on absence or corruption.

        Corrupt state (unparsable manifest, missing payload, checksum or
        version mismatch) is discarded so the next save republishes cleanly.
        """
        manifest_path = self._manifest_path(fingerprint)
        try:
            manifest_text = manifest_path.read_text()
        except OSError:
            return None  # no entry published (or it was concurrently evicted)
        try:
            manifest = json.loads(manifest_text)
            if manifest["format_version"] != STORE_FORMAT_VERSION:
                raise ValueError(f"format version {manifest['format_version']}")
            if manifest["fingerprint"] != fingerprint:
                raise ValueError("fingerprint mismatch")
            payload_path = self.directory / manifest["payload"]
            # A manifest whose payload vanished is corruption, not absence:
            # (subject to the republish check below) discard it so the dead
            # manifest stops occupying an LRU slot and the next save
            # republishes cleanly.
            blob = payload_path.read_bytes()
            if hashlib.sha256(blob).hexdigest() != manifest["payload_sha256"]:
                raise ValueError("payload checksum mismatch")
            # Parse the checksummed bytes (not a second read of the file)
            # and inflate each member exactly once.
            with np.load(io.BytesIO(blob)) as payload:
                arrays = {name: payload[name] for name in payload.files}
            if "metas" in arrays:  # see _encode_metas
                arrays["metas"] = np.asarray([json.loads(text) if text else None
                                              for text in arrays["metas"].tolist()],
                                             dtype=object)
            results = CounterfactualBatch(**arrays)
            if len(results) != int(manifest["n_rows"]):
                raise ValueError("row count mismatch")
        except (OSError, KeyError, ValueError, TypeError, IndexError):
            self._discard_if_unchanged(fingerprint, manifest_text)
            return None
        self.bytes_read += len(blob)
        return results

    def _discard_if_unchanged(self, fingerprint: str, observed_text: str) -> None:
        """Discard a corrupt entry — unless it was republished meanwhile.

        A reader can fail on a *stale* view: it read manifest v1, a writer
        published v2, and the orphan sweep removed v1's payload under the
        reader's feet.  Discarding unconditionally would destroy the
        writer's fresh, valid entry, so the entry is only removed when the
        manifest on disk still reads exactly as the failing reader saw it.
        """
        try:
            current_text = self._manifest_path(fingerprint).read_text()
        except OSError:
            return  # already gone
        if current_text == observed_text:
            self.discard(fingerprint)

    def load(self, fingerprint: str) -> CounterfactualBatch | None:
        """Results for one fingerprint (rows sorted by index), or ``None``
        on a miss.

        A hit bumps the entry's recency (manifest mtime), which is what the
        LRU eviction orders on.
        """
        results = self._read(fingerprint)
        if results is None:
            self.miss_count += 1
            return None
        self.hit_count += 1
        try:
            os.utime(self._manifest_path(fingerprint))
        except OSError:
            pass  # entry may have been evicted by a concurrent process
        return results

    # ---------------------------------------------------------------- write
    def save(self, fingerprint: str, results: CounterfactualBatch, *,
             merge: bool = True) -> None:
        """Publish (or extend) one population entry atomically.

        The batch's columns are written as they are, one row per index
        (sorted; the last row wins for a repeated index).  With ``merge``
        (the default) rows already on disk are folded in first, so sessions that explain a population incrementally — burden
        first, a later audit adding rows — grow one entry instead of losing
        the earlier rows.  The payload is written and ``os.replace``-d
        before the manifest referencing it, so a concurrent reader never
        observes a half-written entry.

        Concurrency contract: publishes are atomic but the read-merge-write
        is not — when two *processes* extend the same fingerprint
        simultaneously, the last complete publish wins and the other's fresh
        rows may be absent from disk.  That is a cache miss, not corruption:
        the losing rows are recomputed (and re-merged) on the next touch.
        Within one process the session serializes its own saves.
        """
        if not len(results):
            return
        if merge:
            existing = self._read(fingerprint)
            if existing:
                results = CounterfactualBatch.concat([existing, results])
        results = _latest_rows(results)
        packed = results.columns()
        metas = packed.pop("metas")
        if any(metas):
            try:
                packed["metas"] = _encode_metas(metas)
            except (TypeError, ValueError):
                # Some row carries non-JSON-serializable meta: persisting it
                # would hand the warm path different objects than the cold
                # path returned.  Skip the save — a miss and recompute is
                # always safe.
                return
        token = os.urandom(4).hex()
        payload_path = self._payload_path(fingerprint, token)
        temp_payload = payload_path.with_suffix(f".tmp-{os.getpid()}-{token}")
        buffer = io.BytesIO()
        # Compressed since format version 2: counterfactual matrices are
        # mostly-unchanged copies of their originals plus boolean masks, so
        # deflate routinely halves the bytes on disk (the saving is recorded
        # in BENCH_STORE.json by benchmarks/test_bench_store.py).
        np.savez_compressed(buffer, **packed)
        blob = buffer.getvalue()  # checksummed in memory, written once
        manifest = {
            "format_version": STORE_FORMAT_VERSION,
            "fingerprint": fingerprint,
            "payload": payload_path.name,
            "payload_sha256": hashlib.sha256(blob).hexdigest(),
            "n_rows": len(results),
            "n_features": int(results.originals.shape[1]),
            "updated_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        }
        temp_manifest = self._manifest_path(fingerprint).with_suffix(
            f".json.tmp-{os.getpid()}-{token}"
        )
        try:
            temp_payload.write_bytes(blob)
            temp_manifest.write_text(json.dumps(manifest, indent=2) + "\n")
            os.replace(temp_payload, payload_path)
            os.replace(temp_manifest, self._manifest_path(fingerprint))
        except OSError:
            # Disk full / permissions lost mid-sweep: the audit's results
            # are already in memory — a skipped publish is a future miss,
            # never a reason to abort the audit.  The payload may already be
            # published under its token-derived name, which only this writer
            # owns, so it goes too: no manifest will ever reference it.
            _unlink(temp_payload, temp_manifest, payload_path)
            return
        self._enforce_bounds()

    def discard(self, fingerprint: str) -> None:
        """Remove one entry (manifest plus any payloads bearing its name)."""
        _unlink(self._manifest_path(fingerprint), *self.directory.glob(f"{fingerprint}.*.npz"))

    def clear(self) -> None:
        """Remove every entry (manifests, payloads, leftover temp files).

        Foreign files sharing the directory (a sweep journal, say) survive —
        clearing the *store* is not a license to delete someone else's
        bookkeeping.
        """
        _unlink(*self._entry_manifests(), *self.directory.glob("*.npz"),
                *self.directory.glob("*.tmp-*"))

    # ------------------------------------------------------------- eviction
    def _enforce_bounds(self) -> None:
        """Evict least-recently-used entries past the entry/byte bounds and
        sweep payloads no manifest references (superseded concurrent writes).

        Runs after every save, so a cheap stat-only pre-check short-circuits
        the common case: within bounds, one payload per manifest, no temp
        leftovers — no manifest needs parsing.
        """
        manifests = self._entry_manifests()
        quick_total = 0
        for path in (*manifests, *self.directory.glob("*.npz"),
                     *self.directory.glob("*.tmp-*")):
            try:
                quick_total += path.stat().st_size
            except OSError:
                quick_total = self.max_bytes + 1  # racing writer: full sweep
                break
        # Superseded payloads and abandoned temps count toward the byte
        # bound, so they cannot accumulate unswept past it — but their mere
        # presence (routine for 60 s after any re-save) does not force the
        # expensive full parse.
        if len(manifests) <= self.max_entries and quick_total <= self.max_bytes:
            return
        entries = self.entry_details()  # oldest first; racing writers skipped
        referenced = {entry["payload"] for entry in entries}
        total = sum(entry["bytes"] for entry in entries)
        while entries and (len(entries) > self.max_entries
                           or (total > self.max_bytes and len(entries) > 1)):
            oldest = entries.pop(0)
            self.discard(oldest["fingerprint"])
            total -= oldest["bytes"]
        now = time.time()
        # Orphans: payloads superseded by a concurrent writer, plus temp
        # files abandoned by a crashed one — both aged past the grace period.
        for pattern in ("*.npz", "*.tmp-*"):
            for stale_path in self.directory.glob(pattern):
                if stale_path.name in referenced:
                    continue
                with contextlib.suppress(OSError):
                    if now - stale_path.stat().st_mtime > _ORPHAN_GRACE_SECONDS:
                        stale_path.unlink()

    # ------------------------------------------------------------ reporting
    def reset_counts(self) -> None:
        """Zero this process's hit/miss/bytes counters (entries stay on disk)."""
        self.hit_count = 0
        self.miss_count = 0
        self.bytes_read = 0

    def stats(self) -> dict[str, int]:
        """Hit/miss/bytes counters plus the directory's entry/byte/age totals.

        ``store_bytes_read`` is this process's cumulative payload read
        volume; ``store_entry_age_seconds_max`` / ``_mean`` describe the
        current directory (0 when empty).  All of it is folded into the
        ``BENCH_*`` trajectory records by ``benchmarks/conftest.py``.
        """
        now = time.time()
        total_bytes = 0
        ages: list[float] = []
        for path in self._entry_manifests():
            try:
                stat = path.stat()
            except OSError:
                continue  # concurrently evicted by another process
            total_bytes += stat.st_size
            # Manifest mtime is the entry's recency stamp (loads bump it);
            # that is all the age aggregates need — no manifest parsing on
            # this hot, every-stats()-call path.
            ages.append(max(0.0, now - stat.st_mtime))
        for path in self.directory.glob("*.npz"):
            try:
                total_bytes += path.stat().st_size
            except OSError:
                continue  # concurrently evicted by another process
        return {
            "store_entries": len(ages),
            "store_bytes": int(total_bytes),
            "store_bytes_read": int(self.bytes_read),
            "store_hits": self.hit_count,
            "store_misses": self.miss_count,
            "store_entry_age_seconds_max": int(max(ages)) if ages else 0,
            "store_entry_age_seconds_mean": int(sum(ages) / len(ages)) if ages else 0,
        }

    def __repr__(self) -> str:
        return (f"CounterfactualStore({str(self.directory)!r}, "
                f"max_entries={self.max_entries}, max_bytes={self.max_bytes})")
