from __future__ import annotations

import csv
import dataclasses
import hashlib
import json
import os

import numpy as np
import pytest

import taskprune as tp
from taskprune import calibrate, report, search
from taskprune.calibrate import (FactorSet, PruningVector, compression_ratio,
                                 estimate_flops_per_token)
from taskprune.factorize import FactorizeOptions
from taskprune.linalg import derive_rng
from taskprune.model import site_dims, sites
from taskprune.report import (
    SweepPoint,
    build_report,
    calibration_sweep,
    emit_report,
    retention_tables,
    sweep_uniform,
    write_calibration_csv,
    write_sweep_csv,
)
from taskprune.search import EvalRecord, make_eval_fn


class TestSweepUniform:
    def test_first_point_is_unpruned_baseline(self, tiny_model, tiny_cache, tiny_task):
        points = sweep_uniform(tiny_model, tiny_cache, tiny_task)
        assert points[0].level == 1.0
        assert points[0].compression == 0.0
        assert points[0].accuracy == 1.0

    def test_csv_round_trip_replays(self, tiny_model, tiny_cache, tiny_task, tmp_path):
        points = sweep_uniform(tiny_model, tiny_cache, tiny_task)
        path = tmp_path / "sweep.csv"
        write_sweep_csv(points, path)
        with open(path, newline="") as fh:
            replayed = [SweepPoint(float(r["level"]), float(r["compression"]), float(r["accuracy"]))
                        for r in csv.DictReader(fh)]
        assert replayed == points
        # replaying the evaluations from the CSV matches fresh evaluations
        ev = make_eval_fn(tiny_model, tiny_cache, tiny_task)
        for p in replayed:
            idx = tiny_cache.factor_set.levels.index(p.level)
            vec = PruningVector.uniform(tiny_cache.factor_set, 8, idx)
            assert ev(vec).accuracy == p.accuracy


class TestRetentionTables:
    def test_means_recompute_from_per_site_rows(self, tiny_model):
        rng = derive_rng(80)
        vec = PruningVector(tuple(int(i) for i in rng.integers(0, 10, size=8)))
        rows, per_layer, per_kind = retention_tables(vec, tiny_model.config)
        assert len(rows) == 8
        for layer, mean in per_layer.items():
            vals = [r["retention"] for r in rows if r["layer"] == layer]
            assert mean == pytest.approx(sum(vals) / len(vals))
        for kind, mean in per_kind.items():
            vals = [r["retention"] for r in rows if r["kind"] == kind]
            assert mean == pytest.approx(sum(vals) / len(vals))

    def test_uniform_vector_aggregate_cross_check(self, tiny_model):
        # for a uniform vector the unweighted retention mean matches the
        # parameter-weighted retained fraction up to rank quantization
        vec = PruningVector.uniform(tp.DEFAULT_FACTOR_SET, 8, 4)
        rows, per_layer, _ = retention_tables(vec, tiny_model.config)
        mean_all = sum(per_layer.values()) / len(per_layer)
        cfg = tiny_model.config
        dense = PruningVector.all_ones(tp.DEFAULT_FACTOR_SET, 8)
        retained_frac = (estimate_flops_per_token(cfg, vec.levels())
                         / estimate_flops_per_token(cfg, dense.levels()))
        step = max((d_in + d_out) / (d_in * d_out)
                   for d_in, d_out in (site_dims(cfg, s) for s in sites(cfg)))
        assert abs(mean_all - retained_frac) <= step


class TestEmitReport:
    def make_report(self, tiny_model, history=None):
        vec = PruningVector((0, 3, 5, 2, 0, 4, 9, 1))
        return build_report(
            model=tiny_model, vector=vec, mode="ga",
            a_star=1.0, a0=0.95, accuracy=0.97, epsilon=0.05,
            model_fp="m" * 64, calib_fp="c" * 64,
            history=history, history_file="history.jsonl",
        )

    def test_emission_is_byte_identical(self, tiny_model, tmp_path):
        history = [EvalRecord(0, (0, 3, 5, 2, 0, 4, 9, 1), 0.97, 0.5, 10.0),
                   EvalRecord(0, (1, 1, 1, 1, 1, 1, 1, 1), 0.99, 0.1, 2.0)]
        report = self.make_report(tiny_model, history)
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        emit_report(report, out1)
        emit_report(report, out2)
        for name in ("report.json", "per_site_retention.csv",
                     "per_layer_retention.csv", "per_kind_retention.csv",
                     "bottlenecks.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_weights_and_config_give_identical_files(self, tiny_model, tmp_path):
        # perfbench passes the ModelWeights, `taskprune report` the config
        history = [EvalRecord(0, (0, 3, 5, 2, 0, 4, 9, 1), 0.97, 0.5, 10.0)]
        emit_report(self.make_report(tiny_model, history), tmp_path / "weights")
        emit_report(self.make_report(tiny_model.config, history), tmp_path / "config")
        names = sorted(os.listdir(tmp_path / "weights"))
        assert names == sorted(os.listdir(tmp_path / "config"))
        assert len(names) == 5
        for name in names:
            weights, config = tmp_path / "weights" / name, tmp_path / "config" / name
            assert weights.read_bytes() == config.read_bytes()

    def test_report_fields(self, tiny_model, tmp_path):
        report = self.make_report(tiny_model)
        assert report.compression == pytest.approx(
            compression_ratio(PruningVector((0, 3, 5, 2, 0, 4, 9, 1)), tiny_model.config))
        assert 0.0 < report.whole_model_compression < report.compression
        assert report.flops_pruned < report.flops_dense
        emit_report(report, tmp_path / "out")
        doc = json.loads((tmp_path / "out" / "report.json").read_text())
        assert doc["schema"] == "taskprune-report-v1"
        assert doc["a_star"] == 1.0
        assert not os.path.exists(tmp_path / "out" / "bottlenecks.csv")

    def test_bottleneck_csv_written_with_history(self, tiny_model, tmp_path):
        history = [EvalRecord(0, (0, 3, 5, 2, 0, 4, 9, 1), 0.97, 0.5, 10.0)]
        report = self.make_report(tiny_model, history)
        emit_report(report, tmp_path / "out")
        lines = (tmp_path / "out" / "bottlenecks.csv").read_text().splitlines()
        assert lines[0] == "layer,kind,prob_unpruned,bottleneck"
        assert len(lines) == 9


class TestCalibrationSweep:
    def test_curve_smoke(self, tiny_model, tiny_corpus, tiny_task, tmp_path):
        opts = FactorizeOptions(epochs=2, batch_tokens=500, learning_rate=0.003, seed=0)
        points = calibration_sweep(tiny_model, tiny_corpus, [800, 2000], tiny_task,
                                   level=0.5, opts=opts, workers=4)
        assert [p[0] for p in points] == [800, 2000]
        assert all(0.0 <= p[1] <= 1.0 for p in points)
        path = tmp_path / "cal.csv"
        write_calibration_csv(points, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "tokens,accuracy"
        assert len(lines) == 3

    def test_dense_model_is_decoded_once(self, tiny_model, tiny_corpus, tiny_task,
                                         monkeypatch):
        free = []
        real_decode = search.greedy_decode_batch

        def counting_decode(*args, **kwargs):
            if kwargs.get("expected") is None:
                free.append(args[0])
            return real_decode(*args, **kwargs)

        monkeypatch.setattr(search, "greedy_decode_batch", counting_decode)
        opts = FactorizeOptions(epochs=1, batch_tokens=500, learning_rate=0.003, seed=0)
        points = calibration_sweep(tiny_model, tiny_corpus, [800, 1200, 2000], tiny_task,
                                   level=0.5, opts=opts, workers=1)
        assert len(points) == 3
        assert free == [tiny_model]

    def test_captures_view_one_buffer_per_site(self, tiny_model, tiny_corpus, tiny_task,
                                               monkeypatch):
        # the sweep holds one buffer per site, max(sizes) tokens wide, and
        # every size's capture is a view of it, whatever the order of sizes
        captures = []
        real_capture = report.capture_calibration

        def recorded_capture(*args, **kwargs):
            captures.append(real_capture(*args, **kwargs))
            return captures[-1]

        monkeypatch.setattr(report, "capture_calibration", recorded_capture)
        opts = FactorizeOptions(epochs=1, batch_tokens=500, learning_rate=0.003, seed=0)
        sizes = [1000, 3000, 2000]
        points = calibration_sweep(tiny_model, tiny_corpus, sizes, tiny_task,
                                   level=0.5, opts=opts, workers=1)
        assert [size for size, _ in points] == sizes
        assert [capture.tokens for capture in captures] == sizes
        buffers = {site: x.base for site, x in captures[0].inputs.items()}
        assert len({id(buffer) for buffer in buffers.values()}) == len(buffers)
        for site, buffer in buffers.items():
            assert buffer.base is None and buffer.shape[1] == max(sizes)
            assert all(capture.inputs[site].base is buffer for capture in captures)

    @pytest.mark.parametrize("sizes", [
        [640, 1280, 2560],              # ascending, whole 32-token sequences
        [2560, 1280, 640],              # descending
        [1280, 1280, 2560],             # repeated
        [1000, 2999, 17, 3000],         # sizes with partial last sequences
    ])
    def test_captures_and_caches_equal_fresh_ones(self, tiny_model, tiny_corpus, tiny_task,
                                                  monkeypatch, sizes):
        opts = FactorizeOptions(epochs=1, batch_tokens=500, learning_rate=0.003, seed=0)
        real_capture, real_build = report.capture_calibration, report.build_cache
        fresh_fps, swept_fps = [], []

        def checked_capture(model, corpus, min_tokens, reuse=None):
            capture = real_capture(model, corpus, min_tokens, reuse=reuse)
            fresh = real_capture(model, tiny_corpus, min_tokens)
            assert capture.corpus_fingerprint == fresh.corpus_fingerprint
            for site, x in fresh.inputs.items():
                assert np.ascontiguousarray(capture.inputs[site]).tobytes() == x.tobytes()
            fresh_fps.append(real_build(model, fresh, FactorSet((1.0, 0.5)), opts,
                                        workers=1).fingerprint())
            return capture

        def recorded_build(*args, **kwargs):
            cache = real_build(*args, **kwargs)
            swept_fps.append(cache.fingerprint())
            return cache

        monkeypatch.setattr(report, "capture_calibration", checked_capture)
        monkeypatch.setattr(report, "build_cache", recorded_build)
        points = calibration_sweep(tiny_model, tiny_corpus, sizes, tiny_task,
                                   level=0.5, opts=opts, workers=2)
        assert [size for size, _ in points] == sizes
        assert swept_fps == fresh_fps and len(fresh_fps) == len(sizes)

    def test_each_sequence_runs_once(self, tiny_model, tiny_corpus, tiny_task, monkeypatch):
        rows = []
        real = calibrate._transformer

        def counting(model, ids, *args, **kwargs):
            rows.append(ids.shape[0])
            return real(model, ids, *args, **kwargs)

        monkeypatch.setattr(calibrate, "_transformer", counting)
        opts = FactorizeOptions(epochs=1, batch_tokens=500, learning_rate=0.003, seed=0)
        calibration_sweep(tiny_model, tiny_corpus, [1000, 2999, 640, 3000], tiny_task,
                          level=0.5, opts=opts, workers=1)
        # the 94 sequences of the 3000 tokens, the last padded, once each
        assert sum(rows) == 94

    def test_corpus_is_checked_once(self, tiny_model, tiny_corpus, tiny_task, monkeypatch):
        checked = []
        real = calibrate.check_prompts

        def counting(config, prompts, max_new):
            prompts = list(prompts)
            checked.append(len(prompts))
            return real(config, prompts, max_new)

        monkeypatch.setattr(calibrate, "check_prompts", counting)
        opts = FactorizeOptions(epochs=1, batch_tokens=500, learning_rate=0.003, seed=0)
        calibration_sweep(tiny_model, tiny_corpus, [1000, 2999, 640], tiny_task,
                          level=0.5, opts=opts, workers=1)
        # one check of the 94 sequences of the first 2999 tokens
        assert checked == [94]

    @pytest.mark.parametrize("level, sizes", [
        (1.0, [500]),           # a factor set (1.0, 1.0) is not descending
        (0.5, [500, 99999]),    # more tokens than the corpus holds
        (0.5, [500, 0]),
    ])
    def test_inputs_checked_before_any_work(self, tiny_model, tiny_corpus, tiny_task,
                                            monkeypatch, level, sizes):
        def forbidden(*args, **kwargs):
            raise AssertionError("work started before the inputs were checked")

        monkeypatch.setattr(report, "exact_match_task", forbidden)
        monkeypatch.setattr(report, "capture_calibration", forbidden)
        with pytest.raises(ValueError):
            calibration_sweep(tiny_model, tiny_corpus, sizes, tiny_task, level=level)

    def test_worker_count_checked_before_any_work(self, tiny_model, tiny_corpus, tiny_task,
                                                  monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("work started before the worker count was checked")

        monkeypatch.setattr(report, "exact_match_task", forbidden)
        with pytest.raises(ValueError, match="workers must be >= 1"):
            calibration_sweep(tiny_model, tiny_corpus, [500], tiny_task, workers=0)


class Unprintable:
    def __repr__(self):
        raise RuntimeError("cannot be printed")

    __str__ = __repr__


def write_fixed_artifacts(out) -> None:
    """A GA report bundle, a sweep CSV, a history and a task from fixed
    inputs. Eleven layers, so that layer "10" sorts before "2" in
    report.json; floats whose repr needs all 17 digits; prompt bytes
    outside ASCII."""
    cfg = tp.TransformerConfig(n_layers=11, d_model=8, n_heads=2, d_ff=16, max_seq_len=8)
    n_sites = len(sites(cfg))
    history = [EvalRecord(g, tuple((3 * i + g) % 10 for i in range(n_sites)),
                          1 / (g + 3), 0.1 * g, 30.0 - g)
               for g in range(4)]
    vec = PruningVector(history[0].genes)
    emit_report(build_report(
        model=cfg, vector=vec, mode="ga", a_star=1.0, a0=0.9, accuracy=1 / 3,
        epsilon=0.1, model_fp="m" * 64, calib_fp="c" * 64,
        history=history, history_file="history.jsonl",
    ), out / "report")
    write_sweep_csv([SweepPoint(level, compression_ratio(PruningVector.uniform(
        tp.DEFAULT_FACTOR_SET, n_sites, i), cfg), 1 / (i + 1))
        for i, level in enumerate(tp.DEFAULT_FACTOR_SET.levels)], out / "sweep.csv")
    search.write_history(history, out / "history.jsonl")
    search.save_task(search.TaskSpec(search.TaskMode.EXACT_MATCH, [b"ab\xff", b"\x80cd"],
                                     [b"x\x00", b"\xe9"], 3, 0.1), out / "task.json")


class TestTextArtifacts:
    # sha256 of write_fixed_artifacts's files, as the hand-written writers
    # before write_json and write_csv produced them
    PINNED = {
        "history.jsonl": "4bdaf20cc6dcd508a556e758ad5cf80108178d3ffd9ffa5d0ec354de34b89054",
        "report/bottlenecks.csv": "feeb5723dd86107b639028f7f749d0c4e433536e2cc9d4b41d433b3082ebaea4",
        "report/per_kind_retention.csv": "2dc3d5bf1686fd5e2f861e96edeab39a5a16790c856bb606b03043db717b0817",
        "report/per_layer_retention.csv": "9d267df40c86bcf22f104343ca468663672e0b593663bdfd97623fd760a26397",
        "report/per_site_retention.csv": "fb498b24b31993a40c895c90870cfc02f70ae4db228c60059e4cb2ce5be665f0",
        "report/report.json": "fcac6d2575004aefd27d2e7944caf316ac004d3c6fb9b6a7d0085340bfd8cc04",
        "sweep.csv": "4c1786055ff5b9557a751d7673b33ff7a1dca3b10974fa9b060d726ef9b2ef37",
        "task.json": "3be72631b4b79570f109c645d86429006b6d113a33290ef2b97b3c9702e1e20f",
    }

    def test_bytes_are_pinned(self, tmp_path):
        write_fixed_artifacts(tmp_path)
        digests = {str(path.relative_to(tmp_path)): hashlib.sha256(path.read_bytes()).hexdigest()
                   for path in sorted(tmp_path.rglob("*")) if path.is_file()}
        assert digests == self.PINNED

    def test_failed_emission_keeps_the_earlier_bundle(self, tiny_model, tmp_path):
        history = [EvalRecord(0, (0, 3, 5, 2, 0, 4, 9, 1), 0.97, 0.5, 10.0)]
        rep = TestEmitReport().make_report(tiny_model, history)
        emit_report(rep, tmp_path)
        before = {path.name: path.read_bytes() for path in tmp_path.iterdir()}
        # the set fails report.json after its first keys are encoded
        bad = dataclasses.replace(rep, bottleneck_probs=[*rep.bottleneck_probs[:-1], {0.5}])
        with pytest.raises(TypeError):
            emit_report(bad, tmp_path)
        assert {path.name: path.read_bytes() for path in tmp_path.iterdir()} == before

    def test_failed_sweep_csv_keeps_the_earlier_file(self, tmp_path):
        path = tmp_path / "sweep.csv"
        write_sweep_csv([SweepPoint(1.0, 0.0, 1.0)], path)
        before = path.read_bytes()
        with pytest.raises(RuntimeError):
            write_sweep_csv([SweepPoint(0.5, 0.4, Unprintable())], path)
        assert os.listdir(tmp_path) == ["sweep.csv"]
        assert path.read_bytes() == before
