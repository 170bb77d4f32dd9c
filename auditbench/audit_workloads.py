"""The three audit workloads, built from fairexp's public classes only.

Each workload is closed-loop with one caller in one process: a *pass* runs
the workload's audits once, start to finish, and the next pass starts only
after it returned.  ``seed`` drives the dataset, the train/test split
(``seed + 1``) and the counterfactual generator's ``random_state``.

* ``e1-cold`` — burden then NAWB on a biased and a fair loan model, one
  ``AuditSession`` per model, every pass on an empty store in a fresh
  directory: the engine's candidate search does almost all the work.
* ``e1-warm`` — the same audits, but set-up publishes every population into
  a store with an untimed cold pass, and each timed pass reads them back
  through new sessions and a new ``CounterfactualStore`` on that directory
  (a resumed sweep): the engine never runs, the store's read path does.
* ``e3-remote`` — PreCoF explicit and implicit on the adult-like data, both
  models' exported graphs hosted by one loopback ``ScoringServer`` fleet and
  every predict routed over the wire by graph hash through one shared
  client; no store.

Every pass is checked: each returned counterfactual must be predicted as the
target class by the in-process model and pass the generator's
``ActionabilityConstraints.is_feasible``, and the audit's qualitative claims
must hold.  A per-row digest of the counterfactuals lets the caller compare
passes (and e1-warm against its own pre-population pass).
"""

from __future__ import annotations

import hashlib
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from fairexp.core import BurdenExplainer, NAWBExplainer, PreCoFExplainer
from fairexp.datasets import make_adult_like, make_loan_dataset
from fairexp.explanations import (
    ActionabilityConstraints,
    AuditSession,
    CoalescingScoringClient,
    CounterfactualStore,
    GrowingSpheresCounterfactual,
    RemoteScoringBackend,
    ScoringServer,
    export_model,
)
from fairexp.models import LogisticRegression

N_SAMPLES = 60000
E1_AUDITED = 8000          # first test rows audited per loan model
TEST_SIZE = 0.3
TARGET_CLASS = 1           # the generators' default favourable outcome

# The claims benchmarks/test_bench_scaling.py asserts for E1 and E3.
E3_PROXY_ATTRIBUTES = {"occupation_score", "hours_per_week", "education_years",
                       "capital_gain"}


def _fit(X, y) -> LogisticRegression:
    return LogisticRegression(n_iter=1200, random_state=0).fit(X, y)


@dataclass
class AuditCase:
    """One audited model: its data, its search space and its audit rows."""

    label: str
    model: object
    background: np.ndarray          # training matrix the generator scales by
    X: np.ndarray                   # audited rows
    y: np.ndarray
    sensitive: np.ndarray
    constraints: ActionabilityConstraints | None = None
    graph: object = None            # exported compute graph (e3-remote)
    feature_names: list = field(default_factory=list)
    mode: str = ""                  # PreCoF mode (e3-remote)
    rejected: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        # The rows a counterfactual audit is about: those the in-process
        # model rejects.  Burden and PreCoF explain all of them, NAWB a subset.
        self.rejected = np.flatnonzero(self.model.predict(self.X) != TARGET_CLASS)

    def generator(self, seed: int) -> GrowingSpheresCounterfactual:
        """A fresh growing-spheres generator over this case's model."""
        return GrowingSpheresCounterfactual(self.model, self.background,
                                            constraints=self.constraints,
                                            random_state=seed)


@dataclass
class PassResult:
    """What one pass did, measured and checked."""

    wall_s: float
    rows: int                       # audited (rejected) rows
    digest: str
    failed_rows: int                # counterfactuals failing a per-row check
    covered: int                    # audited rows given a counterfactual
    distance_sum: float
    counters: dict                  # summed session counters
    layer: dict                     # per-pass layer figures not in the tracer
    problems: list                  # failed claims and invariants, as text
    notes: list                     # reported, not gated


class Workload:
    """Set-up, one pass, checks and teardown of one named workload."""

    name = ""

    def __init__(self, seed: int, workdir: Path, tracer) -> None:
        self.seed = int(seed)
        self.workdir = Path(workdir)
        self.tracer = tracer
        self.cases: list[AuditCase] = []
        self.generate_s = 0.0
        self.fit_s = 0.0
        self.setup_problems: list[str] = []
        self._dirs = 0

    # ------------------------------------------------------------ set-up
    def setup(self) -> None:
        """Build every input of a pass from scratch (timed by the caller as
        ``setup_s``); call :meth:`close` first when setting up again."""
        self.generate_s = self.fit_s = 0.0
        self.setup_problems = []
        self.build()

    def build(self) -> None:
        """Generate the data, fit the models and start what a pass needs."""
        raise NotImplementedError

    def _timed_generate(self, fn, *args, **kwargs):
        start = time.perf_counter()
        out = fn(*args, **kwargs)
        self.generate_s += time.perf_counter() - start
        return out

    def _timed_fit(self, X, y):
        start = time.perf_counter()
        model = _fit(X, y)
        self.fit_s += time.perf_counter() - start
        return model

    def fresh_dir(self, prefix: str) -> Path:
        """A new, empty directory under the run's work directory."""
        self._dirs += 1
        path = self.workdir / f"{prefix}-{self._dirs}"
        path.mkdir(parents=True)
        return path

    def close(self) -> None:
        """Release what set-up started (servers, directories)."""

    @property
    def rows_per_pass(self) -> int:
        """Rows one pass audits: the rejected rows of every audited model."""
        return sum(case.rejected.size for case in self.cases)

    # ------------------------------------------------------------- a pass
    def run_pass(self, traced: bool) -> PassResult:
        """Run the audits once; only the audits themselves are timed."""
        raise NotImplementedError

    def _finish(self, wall_s, sessions, audits, store=None, layer=None) -> PassResult:
        """Collect counters, then check and digest every session's output.

        Runs after the timed region with tracing off.  The per-row results
        are read back with ``counterfactuals_for`` over every rejected row,
        which the audits have already searched, so it is a pure cache read;
        that is asserted through the engine predict counter.
        """
        self.tracer.enabled = False
        counters: dict[str, float] = {}
        for session in sessions:
            stats = session.stats()
            for key in ("predict_call_count", "predict_row_count", "predict_cache_hits",
                        "engine_predict_calls", "schedule_steps", "schedule_draws",
                        "store_row_hits", "n_results_reused"):
                counters[key] = counters.get(key, 0) + stats[key]
        layer = dict(layer or {})
        if store is not None:
            stats = store.stats()
            layer["store.bytes_read"] = stats["store_bytes_read"]
            layer["store.bytes"] = stats["store_bytes"]

        digest = hashlib.sha256()
        problems: list[str] = []
        failed = covered = 0
        distance_sum = 0.0
        for case, session, summary in zip(self.cases, sessions, audits):
            engine_calls = session.engine_predict_call_count
            found = session.counterfactuals_for(case.X, case.rejected)
            if session.engine_predict_call_count != engine_calls:
                problems.append(f"{case.label}: audits left rejected rows unsearched")
            covered += len(found)
            digest.update(f"{case.label}:{sorted(summary.items())!r}".encode())
            if not found:
                continue
            index = np.asarray(sorted(found), dtype=np.int64)
            cfs = np.stack([found[i].counterfactual for i in index])
            originals = np.stack([found[i].original for i in index])
            distances = np.asarray([found[i].distance for i in index], dtype=float)
            distance_sum += float(distances.sum())
            bad = case.model.predict(cfs) != TARGET_CLASS
            feasible = session.generator.constraints.is_feasible(case.X[index], cfs)
            bad |= ~np.asarray(feasible, dtype=bool)
            bad |= ~np.all(originals == case.X[index], axis=1)
            failed += int(bad.sum())
            for array in (index, cfs, distances):
                digest.update(np.ascontiguousarray(array).tobytes())
        problems += self.claims(audits)
        return PassResult(wall_s=wall_s, rows=self.rows_per_pass, digest=digest.hexdigest(),
                          failed_rows=failed, covered=covered,
                          distance_sum=distance_sum, counters=counters, layer=layer,
                          problems=problems, notes=self.notes(audits))

    def claims(self, audits) -> list[str]:
        """The audit's qualitative claims that failed on this pass."""
        return []

    def notes(self, audits) -> list[str]:
        """Observations worth reporting that do not fail the pass."""
        return []


# ----------------------------------------------------------------------------
# E1: burden [72] and NAWB [73] on a biased and a fair loan model
# ----------------------------------------------------------------------------
class E1Cold(Workload):
    """Burden + NAWB through one session per model, empty store each pass."""

    name = "e1-cold"

    def build(self) -> None:
        self.cases = []
        for label, direct_bias, recourse_gap in (("biased", 1.2, 1.0), ("fair", 0.0, 0.0)):
            dataset = self._timed_generate(
                make_loan_dataset, N_SAMPLES, direct_bias=direct_bias,
                recourse_gap=recourse_gap, random_state=self.seed)
            train, test = self._timed_generate(
                dataset.split, test_size=TEST_SIZE, random_state=self.seed + 1)
            model = self._timed_fit(train.X, train.y)
            audited = test.subset(np.arange(min(E1_AUDITED, test.n_samples)))
            self.cases.append(AuditCase(
                label=label, model=model, background=train.X, X=audited.X,
                y=audited.y, sensitive=audited.sensitive_values,
                constraints=ActionabilityConstraints.from_feature_specs(dataset.features),
            ))

    def _audit(self, store_dir: Path, traced: bool) -> PassResult:
        self.tracer.enabled = traced
        sessions, audits = [], []
        start = time.perf_counter()
        store = CounterfactualStore(store_dir)
        try:
            for case in self.cases:
                session = AuditSession(case.generator(self.seed), store=store)
                sessions.append(session)
                burden = BurdenExplainer(session=session).explain(case.X, case.sensitive)
                nawb = NAWBExplainer(session=session).explain(case.X, case.y,
                                                              case.sensitive)
                audits.append({"burden_gap": burden.gap, "burden_ratio": burden.ratio,
                               "nawb_gap": nawb.gap})
            wall = time.perf_counter() - start
            return self._finish(wall, sessions, audits, store=store)
        finally:
            self.tracer.enabled = False
            for session in sessions:
                session.close()

    def run_pass(self, traced: bool) -> PassResult:
        store_dir = self.fresh_dir("cold-store")
        try:
            return self._audit(store_dir, traced)
        finally:
            shutil.rmtree(store_dir, ignore_errors=True)

    def claims(self, audits) -> list[str]:
        biased, fair = audits
        problems = []
        if not biased["burden_gap"] > 0.5:
            problems.append(f"burden gap of the biased model {biased['burden_gap']:.3f} <= 0.5")
        if not biased["nawb_gap"] > 0.05:
            problems.append(f"NAWB gap of the biased model {biased['nawb_gap']:.3f} <= 0.05")
        if not abs(fair["burden_gap"]) < biased["burden_gap"] / 2:
            problems.append("burden gap of the fair model is not below half the biased one")
        return problems


class E1Warm(E1Cold):
    """E1 read back from a store that set-up populated with a cold pass."""

    name = "e1-warm"
    store_dir = None

    def build(self) -> None:
        super().build()
        # The store fingerprint folds in a digest of fairexp's sources, so an
        # entry written by another commit is a miss: populate here, in a
        # directory no other run or commit ever sees.
        self.store_dir = self.fresh_dir("warm-store")
        self.cold = self._audit(self.store_dir, traced=False)
        self.setup_problems = [f"pre-population: {problem}"
                               for problem in self.cold.problems]
        if self.cold.failed_rows:
            self.setup_problems.append(
                f"pre-population: {self.cold.failed_rows} counterfactuals failed a check")

    def run_pass(self, traced: bool) -> PassResult:
        result = self._audit(self.store_dir, traced)
        if result.digest != self.cold.digest:
            result.problems.append("warm output differs from its own cold pre-population")
        if result.counters["schedule_steps"] != 0:
            result.problems.append("the engine searched on a warm pass")
        if result.counters["store_row_hits"] <= 0:
            result.problems.append("no row came from the store on a warm pass")
        return result

    def close(self) -> None:
        if self.store_dir is not None:
            shutil.rmtree(self.store_dir, ignore_errors=True)
            self.store_dir = None


# ----------------------------------------------------------------------------
# E3: PreCoF [71] explicit and implicit, scored by a loopback server fleet
# ----------------------------------------------------------------------------
class E3Remote(Workload):
    """PreCoF over the wire: one server fleet, one shared coalescing client."""

    name = "e3-remote"
    server = None

    def build(self) -> None:
        dataset = self._timed_generate(make_adult_like, N_SAMPLES, direct_bias=1.2,
                                       proxy_bias=0.9, random_state=self.seed)
        train, test = self._timed_generate(dataset.split, test_size=TEST_SIZE,
                                           random_state=self.seed + 1)
        X_train_blind, _ = train.features_without_sensitive()
        X_test_blind, blind_specs = test.features_without_sensitive()
        explicit = self._timed_fit(train.X, train.y)
        blind = self._timed_fit(X_train_blind, train.y)
        self.cases = [
            AuditCase(label="explicit", model=explicit, background=train.X, X=test.X,
                      y=test.y, sensitive=test.sensitive_values,
                      graph=export_model(explicit), feature_names=dataset.feature_names,
                      mode="explicit"),
            AuditCase(label="implicit", model=blind, background=X_train_blind,
                      X=X_test_blind, y=test.y, sensitive=test.sensitive_values,
                      graph=export_model(blind),
                      feature_names=[spec.name for spec in blind_specs], mode="implicit"),
        ]
        self.sensitive_feature = dataset.sensitive
        self.server = ScoringServer([case.graph for case in self.cases])
        self.client = CoalescingScoringClient(self.server.url)

    def _serving_snapshot(self) -> dict:
        graphs = self.server.stats()["graphs"].values()
        return {
            "wire_calls": self.client.wire_call_count,
            "wire_rows": self.client.wire_row_count,
            "retries": self.client.retry_count,
            "shed": self.client.shed_count,
            "requests": sum(entry["requests"] for entry in graphs),
            "client_batches": sum(entry["client_batches"] for entry in graphs),
        }

    def run_pass(self, traced: bool) -> PassResult:
        before = self._serving_snapshot()
        self.tracer.enabled = traced
        sessions, audits, backends = [], [], []
        start = time.perf_counter()
        try:
            for case in self.cases:
                backend = RemoteScoringBackend(self.client, graph=case.graph)
                backends.append(backend)
                session = AuditSession(case.generator(self.seed), backend=backend)
                sessions.append(session)
                result = PreCoFExplainer(
                    feature_names=case.feature_names,
                    sensitive_feature=self.sensitive_feature,
                    mode=case.mode, session=session,
                ).explain(case.X, case.sensitive)
                top = result.implicit_bias_attributes(3)
                audits.append({
                    "sensitive_change_rate": result.sensitive_change_rate,
                    "explicit_bias_rate": result.explicit_bias_rate,
                    "top_attribute": top[0][0] if top else "",
                    "top_gap": top[0][1] if top else 0.0,
                })
            wall = time.perf_counter() - start
            self.tracer.enabled = False
            after = self._serving_snapshot()
            delta = {key: after[key] - before[key] for key in after}
            layer = {
                "serving.wire_calls": delta["wire_calls"],
                "serving.wire_rows": delta["wire_rows"],
                "serving.retries": delta["retries"],
                "serving.shed": delta["shed"],
                "serving.coalescing_factor": (
                    delta["client_batches"] / delta["requests"] if delta["requests"] else 0.0
                ),
            }
            return self._finish(wall, sessions, audits, layer=layer)
        finally:
            self.tracer.enabled = False
            for session in sessions:
                session.close()
            for backend in backends:
                backend.close()

    def claims(self, audits) -> list[str]:
        explicit, implicit = audits
        problems = []
        if not explicit["sensitive_change_rate"] > 0.1:
            problems.append("explicit PreCoF rarely changes the sensitive attribute "
                            f"({explicit['sensitive_change_rate']:.3f} <= 0.1)")
        return problems

    def notes(self, audits) -> list[str]:
        # The implicit-bias claim (a proxy attribute tops the change-frequency
        # gap by more than 0.1) is asserted by benchmarks/test_bench_scaling.py
        # on one seed at 6000 samples.  At this size it fails on most seeds,
        # seed 0 included: every row searches the same random directions, so
        # the gaps follow the generator's seed more than the model.  It is
        # reported, not gated.
        implicit = audits[1]
        if implicit["top_attribute"] in E3_PROXY_ATTRIBUTES and implicit["top_gap"] > 0.1:
            return []
        return [f"implicit PreCoF claim not met (not gated): top attribute "
                f"{implicit['top_attribute']!r}, gap {implicit['top_gap']:.3f}"]

    def close(self) -> None:
        if self.server is not None:
            self.server.close()
            self.server = None


WORKLOADS = {cls.name: cls for cls in (E1Cold, E1Warm, E3Remote)}
