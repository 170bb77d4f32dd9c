"""Tests for the ``python -m fairexp store`` operational CLI."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from fairexp.cli import main
from fairexp.explanations import Counterfactual, CounterfactualBatch, CounterfactualStore

SRC_DIR = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir, "src")


def _populate(directory, fingerprints=("a", "b")):
    store = CounterfactualStore(directory)
    counterfactual = Counterfactual(
        original=np.zeros(3), counterfactual=np.ones(3),
        original_prediction=0, counterfactual_prediction=1,
        changed_features=(0, 1, 2), distance=3.0,
    )
    for letter in fingerprints:
        store.save(letter * 64, CounterfactualBatch.from_counterfactuals(
            [0, 1], [counterfactual, None], 3))
    return store


class TestInspect:
    def test_lists_fingerprints_ages_and_sizes(self, tmp_path, capsys):
        _populate(tmp_path)
        assert main(["store", "inspect", "--dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "2 entries" in out
        assert "a" * 16 in out and "b" * 16 in out
        assert "FINGERPRINT" in out and "AGE" in out and "BYTES" in out

    def test_json_output_is_machine_readable(self, tmp_path, capsys):
        _populate(tmp_path)
        assert main(["store", "inspect", "--dir", str(tmp_path), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["directory"] == str(tmp_path)
        assert {entry["fingerprint"] for entry in payload["entries"]} \
            == {"a" * 64, "b" * 64}
        for entry in payload["entries"]:
            assert entry["bytes"] > 0
            assert entry["age_seconds"] >= 0
            assert entry["n_rows"] == 2

    def test_empty_store(self, tmp_path, capsys):
        assert main(["store", "inspect", "--dir", str(tmp_path)]) == 0
        assert "empty store" in capsys.readouterr().out

    def test_dir_falls_back_to_env(self, tmp_path, capsys, monkeypatch):
        _populate(tmp_path)
        monkeypatch.setenv("FAIREXP_STORE_DIR", str(tmp_path))
        assert main(["store", "inspect"]) == 0
        assert "2 entries" in capsys.readouterr().out

    def test_missing_dir_is_an_error(self, capsys, monkeypatch):
        monkeypatch.delenv("FAIREXP_STORE_DIR", raising=False)
        with pytest.raises(SystemExit):
            main(["store", "inspect"])

    def test_nonexistent_dir_is_an_error_not_an_empty_store(self, tmp_path):
        """A typo'd --dir must error, not be silently created and reported
        as an empty store."""
        typo = tmp_path / "stroe"
        with pytest.raises(SystemExit, match="does not exist"):
            main(["store", "inspect", "--dir", str(typo)])
        assert not typo.exists()  # read-only command left no side effects


class TestEvictAndClear:
    def test_evict_by_fingerprint_prefix(self, tmp_path, capsys):
        store = _populate(tmp_path)
        assert main(["store", "evict", "--dir", str(tmp_path),
                     "--fingerprint", "a"]) == 0
        assert "evicted 1 entries" in capsys.readouterr().out
        assert store.entries() == ["b" * 64]

    def test_evict_to_bounds(self, tmp_path, capsys):
        store = _populate(tmp_path, fingerprints=("a", "b", "c"))
        assert main(["store", "evict", "--dir", str(tmp_path),
                     "--max-entries", "1"]) == 0
        assert "evicted 2 entries" in capsys.readouterr().out
        assert len(store.entries()) == 1

    def test_evict_without_criteria_is_an_error(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["store", "evict", "--dir", str(tmp_path)])

    def test_evict_ambiguous_prefix_is_an_error(self, tmp_path):
        store = _populate(tmp_path, fingerprints=())
        counterfactual = Counterfactual(
            original=np.zeros(3), counterfactual=np.ones(3),
            original_prediction=0, counterfactual_prediction=1,
            changed_features=(0, 1, 2), distance=3.0,
        )
        batch = CounterfactualBatch.from_counterfactuals([0], [counterfactual], 3)
        store.save("ab" + "0" * 62, batch)
        store.save("ac" + "0" * 62, batch)
        with pytest.raises(SystemExit, match="ambiguous"):
            main(["store", "evict", "--dir", str(tmp_path), "--fingerprint", "a"])
        assert len(store.entries()) == 2

    def test_clear_removes_everything(self, tmp_path, capsys):
        store = _populate(tmp_path)
        assert main(["store", "clear", "--dir", str(tmp_path)]) == 0
        assert "cleared 2 entries" in capsys.readouterr().out
        assert store.entries() == []


class TestModuleEntryPoint:
    def test_python_dash_m_fairexp(self, tmp_path):
        """The documented invocation shape works end to end."""
        _populate(tmp_path)
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
        completed = subprocess.run(
            [sys.executable, "-m", "fairexp", "store", "inspect",
             "--dir", str(tmp_path), "--json"],
            capture_output=True, text=True, timeout=120, env=env,
        )
        assert completed.returncode == 0, completed.stderr
        assert len(json.loads(completed.stdout)["entries"]) == 2
