"""Span timing around calls into fairexp's layers, installed from outside.

The tracer replaces public functions and methods of the library with timing
wrappers for the duration of a traced pass and restores the originals
afterwards; nothing inside ``src/`` knows it is being traced.  Spans nest
per thread, so every span's *self* time is its duration minus the part of
it spent in child spans.

Where a hook is placed matters, and two placements are deliberate:

* predicts are timed on ``BatchModelAdapter.predict`` (a class method), not by
  swapping in a custom ``PredictBackend``: the store derives its dispatch
  token from the backend stack, and an unknown backend type has none, which
  silently detaches the store;
* ``counterfactual.py`` imports ``lockstep_candidate_search`` and
  ``greedy_sparsify_batch`` by name, so both are wrapped in every module
  that holds a reference, not only in ``explanations.engine``.

A hook whose target no longer exists is skipped and listed in
:attr:`Tracer.unhooked`, so a refactor of the library degrades the traced
run to zeros for that layer instead of breaking the benchmark.
"""

from __future__ import annotations

import functools
import threading
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np


class Tracer:
    """Nested wall-time spans plus per-span counters, kept in memory."""

    def __init__(self) -> None:
        self.enabled = False
        self.total = defaultdict(float)    # span name -> seconds inside it
        self.self_time = defaultdict(float)  # span name -> seconds minus children
        self.calls = defaultdict(int)
        self.counts = defaultdict(float)   # counter name -> summed value
        self.top_level = 0.0               # seconds inside outermost spans
        self.unhooked: list[str] = []
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        """Drop everything recorded so far (hooks stay installed)."""
        self.total.clear()
        self.self_time.clear()
        self.calls.clear()
        self.counts.clear()
        self.top_level = 0.0

    # ---------------------------------------------------------------- spans
    @contextmanager
    def span(self, name: str):
        """Time the block as span ``name`` (a no-op while disabled)."""
        if not self.enabled:
            yield
            return
        stack = self._local.__dict__.setdefault("stack", [])
        frame = [0.0]  # seconds spent in child spans
        stack.append(frame)
        start = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - start
            stack.pop()
            self.total[name] += elapsed
            self.self_time[name] += elapsed - frame[0]
            self.calls[name] += 1
            if stack:
                stack[-1][0] += elapsed
            else:
                self.top_level += elapsed

    def count(self, name: str, value: float) -> None:
        """Add ``value`` to counter ``name`` (a no-op while disabled)."""
        if self.enabled:
            self.counts[name] += value

    # ---------------------------------------------------------------- hooks
    def wrap(self, name: str, fn, on_return=None):
        """A wrapper timing ``fn`` as span ``name``.

        ``on_return(args, kwargs, result)`` runs after the call, outside the
        span, to book counters from the call's arguments and result.
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            with tracer.span(name):
                result = fn(*args, **kwargs)
            if on_return is not None:
                on_return(args, kwargs, result)
            return result

        return traced

    def patch(self, owner, attr: str, name: str, on_return=None, *, wrapper=None):
        """Replace ``owner.attr`` with a traced wrapper until :meth:`restore`.

        Returns the wrapper, or ``None`` (recorded in :attr:`unhooked`) when
        ``owner`` has no such attribute.
        """
        original = owner.__dict__.get(attr) if isinstance(owner, type) else \
            getattr(owner, attr, None)
        if original is None:
            self.unhooked.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return None
        traced = wrapper if wrapper is not None else self.wrap(name, original, on_return)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, traced)
        return traced

    def restore(self) -> None:
        """Put every patched attribute back, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def install_layer_hooks(tracer: Tracer) -> None:
    """Wrap the public entry points of every layer a workload passes through.

    Span names (``engine.search``, ``store.load``, ...) are the layer metric
    prefixes of ``layers.json``; counters booked here complement the
    session and store counters read after each pass.
    """
    from fairexp.core import burden, nawb, precof
    from fairexp.explanations import counterfactual, engine, kernels, serving, session, store

    def book_search(args, kwargs, result):
        tracer.count("engine.rows", len(result))
        tracer.count("engine.solved", sum(r is not None for r in result))

    def book_project(args, kwargs, result):
        # rows x candidates x d float64 values pass through the projection;
        # computed from the result's shape, not measured traffic.
        tracer.count("counterfactual.project_bytes", np.asarray(result).size * 8)

    def book_distance(args, kwargs, result):
        tracer.count("kernels.distance_rows", len(result))

    # Functions imported by name into other modules: wrap once and patch
    # every module that holds a reference.
    for attr, span, book in (("lockstep_candidate_search", "engine.search", book_search),
                             ("greedy_sparsify_batch", "engine.sparsify", None)):
        original = getattr(engine, attr, None) or getattr(counterfactual, attr, None)
        if original is None:
            tracer.unhooked.append(attr)
            continue
        traced = tracer.wrap(span, original, book)
        for module in (engine, counterfactual):
            if getattr(module, attr, None) is original:
                tracer.patch(module, attr, span, wrapper=traced)

    # The batched distance is reached through the resolved kernel set: hand
    # the engine and the generators a copy whose distance kernel is timed.
    kernel_set_cls = getattr(kernels, "KernelSet", None)
    proxies: dict[int, object] = {}  # id(resolved set) -> its traced copy

    def traced_resolve(resolve):
        @functools.wraps(resolve)
        def resolve_traced(choice=None):
            resolved = resolve(choice)
            if any(resolved is proxy for proxy in proxies.values()):
                return resolved  # a traced copy handed back in as a choice
            if id(resolved) in proxies:
                return proxies[id(resolved)]
            try:
                proxy = kernel_set_cls(
                    resolved.name,
                    tracer.wrap("kernels.distance", resolved.batch_counterfactual_distance,
                                book_distance),
                    resolved.project_candidates, resolved.build_prefix_revert_trials,
                    resolved.rank_changed_features, tier=resolved.tier,
                    fingerprint_token=resolved.fingerprint_token)
            except (AttributeError, TypeError):  # the kernel set changed shape
                tracer.unhooked.append("kernels.KernelSet")
                proxy = resolved
            proxies[id(resolved)] = proxy
            return proxy
        return resolve_traced

    for module in (engine, counterfactual):
        resolve = getattr(module, "resolve_kernels", None)
        if resolve is None or kernel_set_cls is None:
            tracer.unhooked.append(f"{module.__name__}.resolve_kernels")
            continue
        tracer.patch(module, "resolve_kernels", "kernels.distance",
                     wrapper=traced_resolve(resolve))

    tracer.patch(counterfactual.ActionabilityConstraints, "project",
                 "counterfactual.project", book_project)
    tracer.patch(engine.BatchModelAdapter, "predict", "backends.predict")
    tracer.patch(serving.CoalescingScoringClient, "score", "serving.wire")
    tracer.patch(store.CounterfactualStore, "load", "store.load")
    tracer.patch(store.CounterfactualStore, "save", "store.save")
    tracer.patch(session.AuditSession, "counterfactuals_for", "session.counterfactuals_for")
    tracer.patch(session.AuditSession, "predict", "session.predict")
    tracer.patch(burden.BurdenExplainer, "explain", "core.burden")
    tracer.patch(nawb.NAWBExplainer, "explain", "core.nawb")
    tracer.patch(precof.PreCoFExplainer, "explain", "core.precof")
