from __future__ import annotations

import dataclasses
import json
import os
import shutil
import struct

import numpy as np
import pytest

import taskprune as tp
from taskprune import calibrate, search
from taskprune.cli import _factorize_opts, build_parser, main
from taskprune.factorize import OutputAlignedSite
from taskprune.linalg import derive_rng
from taskprune.model import CAPTURE_VERSION, read_container, write_container, write_json
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


def no_decode(*args, **kwargs):
    raise AssertionError("decoded before the inputs were validated")


def rewrite_metadata(src, dst, edit) -> None:
    """Copy a SIEV container, applying edit(meta) to its JSON metadata."""
    raw = src.read_bytes()
    meta_len = struct.unpack("<Q", raw[8:16])[0]
    meta = json.loads(raw[16:16 + meta_len])
    edit(meta)
    meta_bytes = json.dumps(meta).encode()
    dst.write_bytes(raw[:8] + struct.pack("<Q", len(meta_bytes)) + meta_bytes
                    + raw[16 + meta_len:])


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
                    "--seed", "5", "--out", workdir / "run_up"])
        assert code in (0, 2)
        run_doc = json.loads((workdir / "run_up" / "run.json").read_text())
        assert run_doc["mode"] == "up"
        assert "seed" not in run_doc        # the bisection draws no random numbers
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
        assert run_doc["seed"] == 2
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
        # a manifest entry declaring a 2^40-row tensor
        rewrite_metadata(workdir / "model.siev", bad,
                         lambda meta: meta["tensors"][0].update(rows=2**40))
        code = run(["eval", "--model", bad, "--task", workdir / "task.json"])
        assert code == 3

    def test_bad_capture_metadata(self, workdir, tmp_path, capsys):
        cap = tmp_path / "cap.siev"
        assert run(["capture", "--model", workdir / "model.siev",
                    "--corpus", workdir / "corpus.bin",
                    "--tokens", "600", "--out", cap]) == 0
        rewrite_metadata(cap, cap, lambda meta: meta.update(tokens=None))
        code = run(["cache", "--model", workdir / "model.siev",
                    "--capture", cap, "--out", tmp_path / "cache.siev"])
        assert code == 3
        assert "bad capture metadata" in capsys.readouterr().err

    def test_corpus_too_small(self, workdir, tmp_path):
        code = run(["capture", "--model", workdir / "model.siev",
                    "--corpus", workdir / "corpus.bin",
                    "--tokens", "999999", "--out", tmp_path / "cap.siev"])
        assert code == 3

    @pytest.mark.parametrize("tokens", ["0", "-5"])
    def test_capture_rejects_fewer_than_one_token(self, workdir, tmp_path, capsys, tokens):
        code = run(["capture", "--model", workdir / "model.siev",
                    "--corpus", workdir / "corpus.bin",
                    "--tokens", tokens, "--out", tmp_path / "cap.siev"])
        assert code == 3
        assert "at least 1 token" in capsys.readouterr().err
        assert os.listdir(tmp_path) == []

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

    def test_unmatchable_task_exits_3_before_decoding(self, workdir, tmp_path, monkeypatch, capsys):
        task = json.loads((workdir / "task.json").read_text())
        task.update(mode="exact_match", expected=["abcd"] * len(task["prompts"]))
        (tmp_path / "task.json").write_text(json.dumps(task))
        monkeypatch.setattr(search, "greedy_decode_batch", no_decode)
        code = run(["search", "--mode", "ga",
                    "--model", workdir / "model.siev",
                    "--cache", workdir / "cache.siev",
                    "--task", tmp_path / "task.json",
                    "--out", tmp_path / "run"])
        assert code == 3
        assert "can never match" in capsys.readouterr().err

    def test_bad_epsilon_exits_3_before_decoding(self, workdir, tmp_path, monkeypatch, capsys):
        calls = []
        real_decode = search.greedy_decode_batch

        def counting_decode(*args, **kwargs):
            calls.append(1)
            return real_decode(*args, **kwargs)

        monkeypatch.setattr(search, "greedy_decode_batch", counting_decode)
        code = run(["search", "--mode", "ga",
                    "--model", workdir / "model.siev",
                    "--cache", workdir / "cache.siev",
                    "--task", workdir / "task.json",
                    "--epsilon", "1.5",
                    "--out", tmp_path / "run"])
        assert code == 3
        assert calls == []
        assert "epsilon must lie in [0, 1)" in capsys.readouterr().err

    def test_failed_dump_keeps_earlier_run_json(self, tmp_path):
        path = tmp_path / "run.json"
        write_json(path, {"schema": "taskprune-run-v1", "accuracy": 1.0})
        before = path.read_bytes()
        # the set fails the serialisation after "accuracy" is encoded
        with pytest.raises(TypeError):
            write_json(path, {"accuracy": 0.5, "zz": {1, 2}})
        assert path.read_bytes() == before

    def test_bad_cache_shape_exits_3_before_decoding(self, workdir, tmp_path, monkeypatch, capsys):
        cache = tp.load_cache(workdir / "cache.siev")
        key = (tp.sites(cache.config)[0], 1)
        fm = cache.entries[key]
        cache.entries[key] = dataclasses.replace(fm, b=fm.b[:, :1])
        tp.save_cache(cache, tmp_path / "cache.siev")
        monkeypatch.setattr(search, "greedy_decode_batch", no_decode)
        code = run(["search", "--mode", "up",
                    "--model", workdir / "model.siev",
                    "--cache", tmp_path / "cache.siev",
                    "--task", workdir / "task.json",
                    "--out", tmp_path / "run"])
        assert code == 3
        assert "e0.b" in capsys.readouterr().err

    def test_cache_rank_off_its_level_exits_3_before_decoding(
            self, workdir, tmp_path, monkeypatch, capsys):
        # b and c agree with the cut rank, so only the level can tell
        cache = tp.load_cache(workdir / "cache.siev")
        key = (tp.sites(cache.config)[0], 1)
        fm = cache.entries[key]
        cut = fm.rank - 1
        cache.entries[key] = dataclasses.replace(fm, b=fm.b[:, :cut], c=fm.c[:cut], rank=cut)
        tp.save_cache(cache, tmp_path / "cache.siev")
        monkeypatch.setattr(search, "greedy_decode_batch", no_decode)
        code = run(["search", "--mode", "up",
                    "--model", workdir / "model.siev",
                    "--cache", tmp_path / "cache.siev",
                    "--task", workdir / "task.json",
                    "--out", tmp_path / "run"])
        assert code == 3
        assert (f"layer0.qkv has rank {cut} at level 0.9, expected {fm.rank}"
                in capsys.readouterr().err)
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("lr", ["nan", "0", "-1", "inf"])
    def test_bad_learning_rate_exits_3(self, workdir, tmp_path, lr, capsys):
        code = run(["cache", "--model", workdir / "model.siev",
                    "--capture", workdir / "cap.siev",
                    "--out", tmp_path / "cache.siev", "--lr", lr])
        assert code == 3
        assert "learning_rate must be finite and > 0" in capsys.readouterr().err
        assert not (tmp_path / "cache.siev").exists()

    def test_wrong_task_schema_exits_3(self, workdir, tmp_path, monkeypatch, capsys):
        task = json.loads((workdir / "task.json").read_text())
        task["schema"] = "something-else-v9"
        (tmp_path / "task.json").write_text(json.dumps(task))
        monkeypatch.setattr(search, "greedy_decode_batch", no_decode)
        code = run(["search", "--mode", "ga",
                    "--model", workdir / "model.siev",
                    "--cache", workdir / "cache.siev",
                    "--task", tmp_path / "task.json",
                    "--out", tmp_path / "run"])
        assert code == 3
        assert "taskprune-task-v1" in capsys.readouterr().err

    def test_missing_pruning_schema_exits_3(self, workdir, tmp_path, capsys):
        vector = json.loads((workdir / "run_ga" / "best.json").read_text())
        del vector["schema"]
        (tmp_path / "best.json").write_text(json.dumps(vector))
        code = run(["eval", "--model", workdir / "model.siev",
                    "--task", workdir / "task.json",
                    "--pruning", tmp_path / "best.json",
                    "--cache", workdir / "cache.siev"])
        assert code == 3
        assert "taskprune-pruning-v1" in capsys.readouterr().err

    def test_wrong_run_schema_exits_3(self, workdir, tmp_path, capsys):
        shutil.copytree(workdir / "run_ga", tmp_path / "run")
        run_doc = json.loads((tmp_path / "run" / "run.json").read_text())
        run_doc["schema"] = "taskprune-run-v0"
        (tmp_path / "run" / "run.json").write_text(json.dumps(run_doc))
        code = run(["report", "--run", tmp_path / "run", "--out", tmp_path / "report"])
        assert code == 3
        assert "taskprune-run-v1" in capsys.readouterr().err
        assert not (tmp_path / "report").exists()

    def test_history_of_another_site_count_exits_3_before_writing(self, workdir, tmp_path,
                                                                 capsys):
        shutil.copytree(workdir / "run_ga", tmp_path / "run")
        search.write_history([search.EvalRecord(0, (1, 2, 3), 1.0, 0.5, 2.0)],
                             tmp_path / "run" / "history.jsonl")
        code = run(["report", "--run", tmp_path / "run", "--out", tmp_path / "report"])
        assert code == 3
        assert "history record 0 has 3 genes, but the config has 8 sites" in capsys.readouterr().err
        assert not (tmp_path / "report").exists()

    @pytest.mark.parametrize("command, option, message", [
        ("search", ["--seed", "-1"], "seed must be >= 0"),
        ("search", ["--max-generations", "0"], "max_generations must be >= 1"),
        ("search", ["--workers", "0"], "workers must be >= 1"),
        ("search", ["--workers", "-3"], "workers must be >= 1"),
        ("cache", ["--seed", "-1"], "seed must be >= 0"),
        ("cache", ["--workers", "0"], "workers must be >= 1"),
        ("cache", ["--workers", "-3"], "workers must be >= 1"),
        ("sweep", ["--seed", "-1"], "seed must be >= 0"),
        ("sweep", ["--workers", "0"], "workers must be >= 1"),
    ], ids=["search_seed", "search_max_generations", "search_workers_0", "search_workers_negative",
            "cache_seed", "cache_workers_0", "cache_workers_negative", "sweep_seed",
            "sweep_workers_0"])
    def test_bad_seed_or_stop_rule_exits_3_before_any_work(
            self, workdir, tmp_path, monkeypatch, capsys, command, option, message):
        inputs = {"search": ["search", "--mode", "ga", "--model", workdir / "model.siev",
                             "--cache", workdir / "cache.siev", "--task", workdir / "task.json"],
                  "cache": ["cache", "--model", workdir / "model.siev",
                            "--capture", workdir / "cap.siev"],
                  "sweep": ["sweep", "--kind", "calibration", "--model", workdir / "model.siev",
                            "--task", workdir / "task.json", "--corpus", workdir / "corpus.bin",
                            "--sizes", "800"]}[command]
        calls = []
        monkeypatch.setattr(search, "greedy_decode_batch", lambda *a, **k: calls.append(a))
        monkeypatch.setattr(OutputAlignedSite, "fit", lambda *args: calls.append(args))
        code = run(inputs + option + ["--out", tmp_path / "out"])
        assert code == 3
        assert message in capsys.readouterr().err
        assert calls == []
        assert os.listdir(tmp_path) == []

    def test_prompt_overflowing_the_context_exits_3_before_decoding(
            self, workdir, tmp_path, monkeypatch, capsys):
        task = json.loads((workdir / "task.json").read_text())
        task["prompts"][5] = "a" * 30          # 30 + 3 new tokens > max_seq_len 32
        (tmp_path / "task.json").write_text(json.dumps(task))
        monkeypatch.setattr(search, "greedy_decode_batch", no_decode)
        code = run(["search", "--mode", "up",
                    "--model", workdir / "model.siev",
                    "--cache", workdir / "cache.siev",
                    "--task", tmp_path / "task.json",
                    "--out", tmp_path / "run"])
        assert code == 3
        assert "prompt 5 has 30 bytes" in capsys.readouterr().err

    def test_prompt_outside_the_vocabulary_exits_3_before_decoding(
            self, workdir, tmp_path, monkeypatch, capsys):
        cfg = tp.TransformerConfig(n_layers=2, d_model=16, n_heads=2, d_ff=32,
                                   vocab_size=64, max_seq_len=32)
        tp.save_model(tp.random_model(cfg, seed=52), tmp_path / "small_vocab.siev")
        task = json.loads((workdir / "task.json").read_text())
        task["prompts"] = ["!!!!"] * 3 + ["!!d!"]       # "d" is byte 100
        (tmp_path / "task.json").write_text(json.dumps(task))
        monkeypatch.setattr(search, "greedy_decode_batch", no_decode)
        code = run(["eval", "--model", tmp_path / "small_vocab.siev",
                    "--task", tmp_path / "task.json"])
        assert code == 3
        assert "prompt 3 holds byte 100 >= vocab_size 64" in capsys.readouterr().err

    def test_corpus_outside_the_vocabulary_exits_3_before_capturing(
            self, workdir, tmp_path, monkeypatch, capsys):
        cfg = tp.TransformerConfig(n_layers=2, d_model=16, n_heads=2, d_ff=32,
                                   vocab_size=64, max_seq_len=32)
        tp.save_model(tp.random_model(cfg, seed=52), tmp_path / "small_vocab.siev")
        (tmp_path / "corpus.bin").write_bytes(b"!" * 40 + b"!d" + b"!" * 30)  # "d" is byte 100
        monkeypatch.setattr(calibrate, "_transformer", no_decode)
        code = run(["capture", "--model", tmp_path / "small_vocab.siev",
                    "--corpus", tmp_path / "corpus.bin", "--tokens", 72,
                    "--out", tmp_path / "cap.siev"])
        assert code == 3
        assert "prompt 1 holds byte 100 >= vocab_size 64" in capsys.readouterr().err
        assert not (tmp_path / "cap.siev").exists()

    @pytest.mark.parametrize("container", ["model", "cache", "capture"])
    def test_vocabulary_beyond_a_byte_exits_3_at_load(
            self, workdir, tmp_path, monkeypatch, capsys, container):
        inputs = {"model": workdir / "model.siev", "cache": workdir / "cache.siev",
                  "capture": workdir / "cap.siev"}
        bad = tmp_path / f"{container}.siev"
        rewrite_metadata(inputs[container], bad,
                         lambda meta: meta["config"].update(vocab_size=300))
        inputs[container] = bad
        argv = {
            "model": ["eval", "--model", inputs["model"], "--task", workdir / "task.json"],
            "cache": ["search", "--mode", "up", "--model", inputs["model"],
                      "--cache", inputs["cache"], "--task", workdir / "task.json",
                      "--out", tmp_path / "run"],
            "capture": ["cache", "--model", inputs["model"], "--capture", inputs["capture"],
                        "--out", tmp_path / "out.siev"],
        }[container]
        monkeypatch.setattr(search, "greedy_decode_batch", no_decode)
        assert run(argv) == 3
        assert "vocab_size 300 exceeds 256" in capsys.readouterr().err
        assert not (tmp_path / "run").exists() and not (tmp_path / "out.siev").exists()

    def test_cache_of_another_model_exits_3_before_decoding(
            self, workdir, tmp_path, monkeypatch, capsys):
        cfg = tp.load_model(workdir / "model.siev").config
        tp.save_model(tp.random_model(cfg, seed=53, spectral_decay=0.6), tmp_path / "other.siev")
        monkeypatch.setattr(search, "greedy_decode_batch", no_decode)
        code = run(["search", "--mode", "ga",
                    "--model", tmp_path / "other.siev",
                    "--cache", workdir / "cache.siev",
                    "--task", workdir / "task.json",
                    "--out", tmp_path / "run"])
        assert code == 3
        assert "cache was built for a different model" in capsys.readouterr().err

    # values that int() or truth would take: "no" is true, row 7 has rank 1
    # (layer0.qkv at level 0.1), which int(True) equals, and 2400 is the
    # capture's true token count
    @pytest.mark.parametrize("field, value, message", [
        ("flagged", "no", "CacheMeta.entries[7].flagged: expected bool, found str"),
        ("rank", True, "CacheMeta.entries[7].rank: expected int, found bool"),
        ("tokens", "2400", "CaptureMeta.tokens: expected int, found str"),
    ])
    def test_mistyped_container_metadata_exits_3(self, workdir, tmp_path, monkeypatch, capsys,
                                                 field, value, message):
        monkeypatch.setattr(search, "greedy_decode_batch", no_decode)
        monkeypatch.setattr(OutputAlignedSite, "fit", no_decode)
        if field == "tokens":
            rewrite_metadata(workdir / "cap.siev", tmp_path / "cap.siev",
                             lambda meta: meta.update(tokens=value))
            argv = ["cache", "--model", workdir / "model.siev", "--capture", tmp_path / "cap.siev"]
        else:
            rewrite_metadata(workdir / "cache.siev", tmp_path / "cache.siev",
                             lambda meta: meta["entries"][7].update({field: value}))
            argv = ["search", "--mode", "up", "--model", workdir / "model.siev",
                    "--cache", tmp_path / "cache.siev", "--task", workdir / "task.json"]
        assert run([*argv, "--out", tmp_path / "out"]) == 3
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("defect", ["short_x", "other_model", "missing_site",
                                        "repeated_site"])
    def test_malformed_capture_exits_3_before_fitting(
            self, workdir, tmp_path, monkeypatch, capsys, defect):
        model = tp.load_model(workdir / "model.siev")
        capture = tp.capture_calibration(model, (workdir / "corpus.bin").read_bytes(),
                                         min_tokens=400)
        last = tp.sites(model.config)[-1]
        if defect == "short_x":
            capture.inputs[last] = capture.inputs[last][:, :100]
        cap = tmp_path / "cap.siev"
        tp.save_capture(capture, model.config, cap)
        if defect == "other_model":
            rewrite_metadata(cap, cap, lambda meta: meta.update(model_fingerprint="0" * 64))
        if defect == "missing_site":
            # save_capture refuses such a capture, so the container of the
            # whole one is written again without its last site
            with open(cap, "rb") as fh:
                _, meta, tensors = read_container(fh)
            meta["sites"].pop()
            kept = [(name, tensors[name]) for name in tensors
                    if not name.startswith(f"s{len(meta['sites'])}.")]
            with open(cap, "wb") as fh:
                write_container(fh, CAPTURE_VERSION, meta, kept)
        if defect == "repeated_site":
            rewrite_metadata(cap, cap, lambda meta: meta["sites"][-1].update(meta["sites"][-2]))
        fits = []
        monkeypatch.setattr(OutputAlignedSite, "fit", lambda *args: fits.append(args))
        code = run(["cache", "--model", workdir / "model.siev", "--capture", cap,
                    "--out", tmp_path / "cache.siev"])
        assert code == 3
        assert fits == []
        assert {
            "short_x": "tensor 's7.x' has shape (32, 100), expected (32, 400)",
            "other_model": "capture was recorded from a different model",
            "missing_site": "capture manifest does not cover every site",
            "repeated_site": "capture manifest lists layer1.ffn1 twice",
        }[defect] in capsys.readouterr().err
        assert not (tmp_path / "cache.siev").exists()

    @pytest.mark.parametrize("level", [0, 1])
    def test_cache_entry_listed_twice_exits_3(self, workdir, tmp_path, monkeypatch, capsys, level):
        # a flagged copy of the first entry, a built one, at level 1; or a
        # row for level 0, which is dense and never stored
        def edit(meta):
            row = meta["entries"][0]
            assert (row["factor_index"], row["flagged"]) == (1, False)
            meta["entries"].append(dict(row, factor_index=level, flagged=True, reason="copy"))

        rewrite_metadata(workdir / "cache.siev", tmp_path / "cache.siev", edit)
        monkeypatch.setattr(search, "greedy_decode_batch", no_decode)
        code = run(["search", "--mode", "up",
                    "--model", workdir / "model.siev",
                    "--cache", tmp_path / "cache.siev",
                    "--task", workdir / "task.json",
                    "--out", tmp_path / "run"])
        assert code == 3
        assert f"cache manifest lists layer0.qkv at level {level} twice" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["cache", "sweep"])
def test_factorize_defaults_are_the_options_defaults(command):
    argv = {"cache": ["cache", "--model", "m", "--capture", "c", "--out", "o"],
            "sweep": ["sweep", "--kind", "calibration", "--model", "m", "--task", "t",
                      "--out", "o"]}[command]
    args = build_parser().parse_args(argv)
    assert _factorize_opts(args) == tp.FactorizeOptions()
