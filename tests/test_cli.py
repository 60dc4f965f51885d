from __future__ import annotations

import json

import numpy as np
import pytest

import taskprune as tp
from taskprune.cli import _write_json, main
from taskprune.linalg import derive_rng
from taskprune.search import TaskMode, TaskSpec, save_task


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """Model, corpus and task files for an end-to-end CLI run."""
    root = tmp_path_factory.mktemp("cli")
    cfg = tp.TransformerConfig(n_layers=2, d_model=16, n_heads=2, d_ff=32, max_seq_len=32)
    model = tp.random_model(cfg, seed=50, spectral_decay=0.6)
    tp.save_model(model, root / "model.siev")

    rng = derive_rng(950)
    letters = sorted(rng.choice(np.arange(1, 128), size=12, replace=False).tolist())
    (root / "corpus.bin").write_bytes(bytes(rng.choice(letters, size=2600).tolist()))

    prompts = [bytes(rng.choice(letters, size=8).tolist()).decode("utf-8")
               for _ in range(24)]
    task = {
        "schema": "taskprune-task-v1",
        "mode": "baseline_agreement",
        "prompts": prompts,
        "max_new_tokens": 3,
        "epsilon": 0.15,
    }
    (root / "task.json").write_text(json.dumps(task))
    return root


def run(argv) -> int:
    return main([str(a) for a in argv])


class TestPipeline:
    def test_capture(self, workdir):
        code = run(["capture", "--model", workdir / "model.siev",
                    "--corpus", workdir / "corpus.bin",
                    "--tokens", "2400", "--out", workdir / "cap.siev"])
        assert code == 0
        assert (workdir / "cap.siev").exists()

    def test_cache(self, workdir):
        code = run(["cache", "--model", workdir / "model.siev",
                    "--capture", workdir / "cap.siev",
                    "--out", workdir / "cache.siev",
                    "--epochs", "4", "--batch", "600", "--lr", "0.003",
                    "--seed", "1", "--workers", "4"])
        assert code == 0
        cache = tp.load_cache(workdir / "cache.siev")
        assert cache.built_entries() == 72

    def test_search_up(self, workdir):
        code = run(["search", "--mode", "up",
                    "--model", workdir / "model.siev",
                    "--cache", workdir / "cache.siev",
                    "--task", workdir / "task.json",
                    "--out", workdir / "run_up"])
        assert code in (0, 2)
        run_doc = json.loads((workdir / "run_up" / "run.json").read_text())
        assert run_doc["mode"] == "up"
        assert (workdir / "run_up" / "history.jsonl").exists()
        assert (workdir / "run_up" / "best.json").exists()

    def test_search_ga(self, workdir):
        code = run(["search", "--mode", "ga",
                    "--model", workdir / "model.siev",
                    "--cache", workdir / "cache.siev",
                    "--task", workdir / "task.json",
                    "--seed", "2", "--max-generations", "6",
                    "--out", workdir / "run_ga"])
        assert code in (0, 2)
        run_doc = json.loads((workdir / "run_ga" / "run.json").read_text())
        assert run_doc["mode"] == "ga"
        assert run_doc["generations"] >= 1
        history = (workdir / "run_ga" / "history.jsonl").read_text().splitlines()
        assert len(history) >= 100

    def test_eval_unpruned(self, workdir, capsys):
        code = run(["eval", "--model", workdir / "model.siev",
                    "--task", workdir / "task.json"])
        assert code == 0
        assert "accuracy=1.0000" in capsys.readouterr().out

    def test_eval_with_pruning_vector(self, workdir, capsys):
        code = run(["eval", "--model", workdir / "model.siev",
                    "--task", workdir / "task.json",
                    "--pruning", workdir / "run_ga" / "best.json",
                    "--cache", workdir / "cache.siev"])
        assert code == 0
        assert "accuracy=" in capsys.readouterr().out

    def test_eval_pruning_requires_cache(self, workdir, capsys):
        code = run(["eval", "--model", workdir / "model.siev",
                    "--task", workdir / "task.json",
                    "--pruning", workdir / "run_ga" / "best.json"])
        assert code == 3

    def test_report(self, workdir):
        code = run(["report", "--run", workdir / "run_ga",
                    "--out", workdir / "report_ga"])
        assert code == 0
        doc = json.loads((workdir / "report_ga" / "report.json").read_text())
        assert doc["schema"] == "taskprune-report-v1"
        assert (workdir / "report_ga" / "per_layer_retention.csv").exists()
        assert (workdir / "report_ga" / "bottlenecks.csv").exists()

    def test_sweep_uniform(self, workdir):
        code = run(["sweep", "--kind", "uniform",
                    "--model", workdir / "model.siev",
                    "--cache", workdir / "cache.siev",
                    "--task", workdir / "task.json",
                    "--out", workdir / "sweep.csv"])
        assert code == 0
        lines = (workdir / "sweep.csv").read_text().splitlines()
        assert lines[0] == "level,compression,accuracy"
        assert len(lines) == 11

    def test_sweep_calibration(self, workdir):
        code = run(["sweep", "--kind", "calibration",
                    "--model", workdir / "model.siev",
                    "--task", workdir / "task.json",
                    "--corpus", workdir / "corpus.bin",
                    "--sizes", "800,1600", "--level", "0.5",
                    "--epochs", "2", "--batch", "400",
                    "--out", workdir / "cal.csv"])
        assert code == 0
        assert len((workdir / "cal.csv").read_text().splitlines()) == 3


class TestErrorPaths:
    def test_missing_model_file(self, workdir):
        code = run(["eval", "--model", workdir / "nope.siev",
                    "--task", workdir / "task.json"])
        assert code == 3

    def test_corrupt_model(self, workdir, tmp_path):
        bad = tmp_path / "bad.siev"
        bad.write_bytes(b"garbage")
        code = run(["eval", "--model", bad, "--task", workdir / "task.json"])
        assert code == 3

    def test_corpus_too_small(self, workdir, tmp_path):
        code = run(["capture", "--model", workdir / "model.siev",
                    "--corpus", workdir / "corpus.bin",
                    "--tokens", "999999", "--out", tmp_path / "cap.siev"])
        assert code == 3

    def test_sweep_uniform_requires_cache(self, workdir, tmp_path):
        code = run(["sweep", "--kind", "uniform",
                    "--model", workdir / "model.siev",
                    "--task", workdir / "task.json",
                    "--out", tmp_path / "s.csv"])
        assert code == 3

    def test_infeasible_search_exits_2(self, workdir, tmp_path):
        # a model with nothing compressible collapses at the first pruning
        # level; with epsilon=0 the search must fall back to the dense model
        cfg = tp.TransformerConfig(n_layers=2, d_model=16, n_heads=2, d_ff=32,
                                   max_seq_len=32)
        model = tp.random_model(cfg, seed=51)  # no spectral decay
        tp.save_model(model, tmp_path / "dense.siev")
        rng = derive_rng(951)
        (tmp_path / "corpus.bin").write_bytes(bytes(rng.integers(1, 256, size=1300).tolist()))
        run(["capture", "--model", tmp_path / "dense.siev",
             "--corpus", tmp_path / "corpus.bin", "--tokens", "1200",
             "--out", tmp_path / "cap.siev"])
        run(["cache", "--model", tmp_path / "dense.siev",
             "--capture", tmp_path / "cap.siev", "--out", tmp_path / "cache.siev",
             "--epochs", "1", "--batch", "600"])
        prompts = [bytes(rng.integers(65, 91, size=6).tolist()).decode() for _ in range(16)]
        task = TaskSpec(TaskMode.BASELINE_AGREEMENT, [p.encode() for p in prompts],
                        None, 4, 0.0)
        save_task(task, tmp_path / "task.json")
        code = run(["search", "--mode", "up",
                    "--model", tmp_path / "dense.siev",
                    "--cache", tmp_path / "cache.siev",
                    "--task", tmp_path / "task.json",
                    "--out", tmp_path / "run"])
        assert code == 2
        run_doc = json.loads((tmp_path / "run" / "run.json").read_text())
        assert run_doc["feasible"] is False
        assert run_doc["best_indices"] == [0] * 8

    def test_failed_dump_keeps_earlier_run_json(self, tmp_path):
        path = tmp_path / "run.json"
        _write_json({"schema": "taskprune-run-v1", "accuracy": 1.0}, path)
        before = path.read_bytes()
        # json.dump has written part of the document when it meets the set
        with pytest.raises(TypeError):
            _write_json({"accuracy": 0.5, "zz": {1, 2}}, path)
        assert path.read_bytes() == before
