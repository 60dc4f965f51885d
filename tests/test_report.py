from __future__ import annotations

import csv
import json
import os

import numpy as np
import pytest

import taskprune as tp
from taskprune import report, search
from taskprune.calibrate import FactorSet, PruningVector, compression_ratio, retained_site_params
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
        points = sweep_uniform(tiny_model, tiny_cache, tiny_task, level_indices=[0, 5])
        assert points[0].level == 1.0
        assert points[0].compression == 0.0
        assert points[0].accuracy == 1.0

    def test_csv_round_trip_replays(self, tiny_model, tiny_cache, tiny_task, tmp_path):
        points = sweep_uniform(tiny_model, tiny_cache, tiny_task, level_indices=[0, 4, 9])
        path = tmp_path / "sweep.csv"
        write_sweep_csv(points, path)
        with open(path, newline="") as fh:
            replayed = [SweepPoint(float(r["level"]), float(r["compression"]), float(r["accuracy"]))
                        for r in csv.DictReader(fh)]
        assert replayed == points
        # replaying the evaluations from the CSV matches fresh evaluations
        ev = make_eval_fn(tiny_model, tiny_cache, tiny_task)
        for p in replayed:
            idx = tiny_cache.factor_set.index(p.level)
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
        retained_frac = retained_site_params(vec, cfg) / retained_site_params(dense, cfg)
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
