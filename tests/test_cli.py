import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import beamgrid
from beamgrid import channel as ch
from beamgrid import cli
from beamgrid import gridio as io
from beamgrid import metrics as mt
from beamgrid import predictor as pr
from beamgrid import scene as sc
from beamgrid.cli import main

from conftest import los_class_reference


def run_cli(*args):
    """Invoke the CLI in-process, capturing the exit code."""
    return main([str(a) for a in args])


def write_config(path, **scene_overrides):
    doc = {"scene": {"rows": 32, "cols": 32, **scene_overrides}}
    path.write_text(json.dumps(doc))
    return path


@pytest.fixture()
def pipeline(tmp_path):
    """generate + trace on a small scene; returns the working dir paths."""
    cfg = write_config(tmp_path / "cfg.json")
    assert run_cli("generate", "--rows", 32, "--cols", 32, "--seed", 1,
                   "--out", tmp_path / "s.scene.bgrd", "--config", cfg,
                   "--tx-out", tmp_path / "s.tx.json") == 0
    assert run_cli("trace", "--scene", tmp_path / "s.scene.bgrd",
                   "--tx", tmp_path / "s.tx.json", "--config", cfg,
                   "--out", tmp_path / "s.paths.csv") == 0
    return tmp_path, cfg


class TestGenerate:
    def test_deterministic_files(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json")
        for stem in ("a", "b"):
            assert run_cli("generate", "--rows", 32, "--cols", 32, "--seed", 7,
                           "--out", tmp_path / f"{stem}.bgrd", "--config", cfg,
                           "--tx-out", tmp_path / f"{stem}.json") == 0
        assert (tmp_path / "a.bgrd").read_bytes() == (tmp_path / "b.bgrd").read_bytes()
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    def test_scene_seed_exit_code(self, tmp_path, capsys):
        # the scene comes from --seed alone; scene.seed is an unknown key
        cfg = write_config(tmp_path / "cfg.json", seed=1)
        assert run_cli("generate", "--rows", 32, "--cols", 32, "--seed", 3,
                       "--out", tmp_path / "s.bgrd", "--config", cfg,
                       "--tx-out", tmp_path / "s.json") == 3
        assert "['seed']" in capsys.readouterr().err
        assert not (tmp_path / "s.bgrd").exists()

    def test_round_trips_through_reader(self, tmp_path):
        assert run_cli("generate", "--rows", 32, "--cols", 32, "--seed", 3,
                       "--out", tmp_path / "x.bgrd") == 0
        grid = io.read_grid(tmp_path / "x.bgrd")
        assert grid.shape == (32, 32, 2)

    def test_unwritable_output_path(self, tmp_path):
        code = run_cli("generate", "--rows", 32, "--cols", 32, "--seed", 1,
                       "--out", tmp_path / "no" / "such" / "dir" / "x.bgrd")
        assert code == 3

    def test_zero_rows_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run_cli("generate", "--rows", 0, "--cols", 32,
                    "--out", tmp_path / "x.bgrd")
        assert exc.value.code == 2

    def test_prints_tx_site_json(self, tmp_path, capsys):
        run_cli("generate", "--rows", 32, "--cols", 32, "--seed", 3,
                "--out", tmp_path / "x.bgrd")
        doc = json.loads(capsys.readouterr().out)
        assert {"pixel", "height_m", "boresight_azimuth", "downtilt"} <= set(doc)


class TestTrace:
    def test_empty_map_one_path_per_pixel(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", building_fraction=0.0,
                           vegetation_fraction=0.0)
        # no buildings -> place a tx site by hand
        hm = np.zeros((32, 32, 2), dtype=np.float32)
        io.write_grid(tmp_path / "flat.bgrd", hm)
        io.save_tx_site(tmp_path / "tx.json",
                        sc.TxSite((16, 16), 12.0, ch.ArrayFrame(0.0, 0.7)))
        assert run_cli("trace", "--scene", tmp_path / "flat.bgrd",
                       "--tx", tmp_path / "tx.json", "--config", cfg,
                       "--out", tmp_path / "p.csv") == 0
        chans = io.read_paths_csv(tmp_path / "p.csv", 32, 32)
        assert (chans.counts == 1).all()

    def test_deterministic(self, pipeline):
        tmp, cfg = pipeline
        assert run_cli("trace", "--scene", tmp / "s.scene.bgrd",
                       "--tx", tmp / "s.tx.json", "--config", cfg,
                       "--out", tmp / "again.csv") == 0
        assert (tmp / "s.paths.csv").read_bytes() == (tmp / "again.csv").read_bytes()

    def test_path_count_bound(self, pipeline):
        tmp, cfg = pipeline
        grid = io.read_grid(tmp / "s.scene.bgrd")
        walls = sc.exterior_walls(grid[:, :, 0].astype(np.float64))
        chans = io.read_paths_csv(tmp / "s.paths.csv", 32, 32)
        assert chans.counts.max() <= 1 + walls.shape[0]

    def test_malformed_scene_exit_code(self, tmp_path):
        bad = tmp_path / "bad.bgrd"
        bad.write_bytes(b"garbage")
        io.save_tx_site(tmp_path / "tx.json",
                        sc.TxSite((0, 0), 5.0, ch.ArrayFrame(0, 0)))
        assert run_cli("trace", "--scene", bad, "--tx", tmp_path / "tx.json",
                       "--out", tmp_path / "p.csv") == 3

    @pytest.mark.parametrize("field, value", [
        ("height_m", float("nan")),
        ("height_m", float("inf")),
        ("boresight_azimuth", float("-inf")),
        ("downtilt", float("nan")),
        ("height_m", "12"),
        ("pixel", [3.7, 2]),
        ("pixel", [3]),
        ("pixel", None),  # key missing
    ])
    def test_bad_tx_site_exit_code(self, pipeline, field, value):
        tmp, cfg = pipeline
        doc = json.loads((tmp / "s.tx.json").read_text())
        if value is None:
            del doc[field]
        else:
            doc[field] = value
        (tmp / "bad.tx.json").write_text(json.dumps(doc))
        assert run_cli("trace", "--scene", tmp / "s.scene.bgrd",
                       "--tx", tmp / "bad.tx.json", "--config", cfg,
                       "--out", tmp / "bad.csv") == 3
        assert not (tmp / "bad.csv").exists()

    def test_one_channel_scene_exit_code(self, pipeline, capsys):
        tmp, cfg = pipeline
        grid = io.read_grid(tmp / "s.scene.bgrd")
        io.write_grid(tmp / "one.bgrd", grid[:, :, :1])
        assert run_cli("trace", "--scene", tmp / "one.bgrd", "--tx", tmp / "s.tx.json",
                       "--config", cfg, "--out", tmp / "bad.csv") == 3
        assert "scene grid has 1 channels; expected 2" in capsys.readouterr().err
        assert not (tmp / "bad.csv").exists()

    @pytest.mark.parametrize("channel", [0, 1])
    def test_non_finite_height_exit_code(self, pipeline, channel):
        tmp, cfg = pipeline
        grid = io.read_grid(tmp / "s.scene.bgrd")
        grid[3, 4, channel] = np.nan
        io.write_grid(tmp / "nan.bgrd", grid)
        assert run_cli("trace", "--scene", tmp / "nan.bgrd", "--tx", tmp / "s.tx.json",
                       "--config", cfg, "--out", tmp / "bad.csv") == 3
        assert not (tmp / "bad.csv").exists()

    @pytest.mark.parametrize("key, value", [("resolution_m", "1"),
                                            ("rx_height_m", float("nan"))])
    def test_bad_config_value_exit_code(self, pipeline, key, value):
        tmp, _ = pipeline
        cfg = write_config(tmp / "bad.json", **{key: value})
        assert run_cli("trace", "--scene", tmp / "s.scene.bgrd",
                       "--tx", tmp / "s.tx.json", "--config", cfg,
                       "--out", tmp / "bad.csv") == 3
        assert not (tmp / "bad.csv").exists()


class TestTensorize:
    def test_downscale_one_matches_in_process(self, pipeline, codebook):
        tmp, cfg = pipeline
        assert run_cli("tensorize", "--paths", tmp / "s.paths.csv",
                       "--tx", tmp / "s.tx.json", "--config", cfg,
                       "--out", tmp / "t", "--downscale", 1) == 0
        tensors = io.read_grid(tmp / "t.tensors.bgrd")
        assert tensors.shape == (32, 32, 128)
        chans = io.read_paths_csv(tmp / "s.paths.csv", 32, 32)
        tx = io.load_tx_site(tmp / "s.tx.json")
        expect = sc.effective_tensor_map(chans, codebook, tx.frame)
        np.testing.assert_array_equal(
            tensors, expect.reshape(32, 32, -1).astype(np.float32))

    def test_mask_excludes_zero_pixels(self, pipeline):
        tmp, cfg = pipeline
        run_cli("tensorize", "--paths", tmp / "s.paths.csv",
                "--tx", tmp / "s.tx.json", "--config", cfg,
                "--out", tmp / "t", "--downscale", 1)
        mask = io.read_grid(tmp / "t.mask.bgrd")[:, :, 0].astype(bool)
        tensors = io.read_grid(tmp / "t.tensors.bgrd")
        zero_pixels = ~tensors.any(axis=2)
        assert not mask[zero_pixels].any()

    def test_downscale_four_channel_count(self, pipeline):
        tmp, cfg = pipeline
        run_cli("tensorize", "--paths", tmp / "s.paths.csv",
                "--tx", tmp / "s.tx.json", "--config", cfg,
                "--out", tmp / "d4", "--downscale", 4)
        tensors = io.read_grid(tmp / "d4.tensors.bgrd")
        assert tensors.shape == (8, 8, 128)
        gt = io.read_grid(tmp / "d4.gt.bgrd")
        assert gt.shape == (8, 8, 1)
        flat = np.argmax(tensors, axis=2)
        assert np.array_equal(gt[:, :, 0].astype(int), flat)

    @pytest.mark.parametrize("column, value", [(2, "nan"), (4, "inf")])
    def test_non_finite_path_value_exit_code(self, pipeline, column, value):
        # column 2 is the amplitude, column 4 the departure azimuth
        tmp, cfg = pipeline
        lines = (tmp / "s.paths.csv").read_text().splitlines()
        fields = lines[1].split(",")
        fields[column] = value
        lines[1] = ",".join(fields)
        (tmp / "bad.paths.csv").write_text("\n".join(lines) + "\n")
        assert run_cli("tensorize", "--paths", tmp / "bad.paths.csv",
                       "--tx", tmp / "s.tx.json", "--config", cfg,
                       "--out", tmp / "bad", "--downscale", 1) == 3
        assert not (tmp / "bad.tensors.bgrd").exists()

    def test_string_grid_size_exit_code(self, pipeline):
        tmp, _ = pipeline
        cfg = write_config(tmp / "bad.json", rows="32")
        assert run_cli("tensorize", "--paths", tmp / "s.paths.csv",
                       "--tx", tmp / "s.tx.json", "--config", cfg,
                       "--out", tmp / "bad", "--downscale", 1) == 3
        assert not (tmp / "bad.tensors.bgrd").exists()

    @pytest.mark.parametrize("doc", [
        [],
        {"azimuth_re": "x"},
        {"nr": 4.5},
    ], ids=["list", "non_numeric", "fractional_nr"])
    def test_malformed_codebook_exit_code(self, pipeline, capsys, doc):
        tmp, _ = pipeline
        weights = tmp / "cb.json"
        if isinstance(doc, dict):
            io.save_codebook(weights, ch.dft_codebook(8, 4, 4))
            doc = {**json.loads(weights.read_text()), **doc}
        weights.write_text(json.dumps(doc))
        cfg = tmp / "cb_cfg.json"
        cfg.write_text(json.dumps({"scene": {"rows": 32, "cols": 32},
                                   "codebook": {"tx_weights": str(weights)}}))
        assert run_cli("tensorize", "--paths", tmp / "s.paths.csv",
                       "--tx", tmp / "s.tx.json", "--config", cfg,
                       "--out", tmp / "bad", "--downscale", 1) == 3
        assert "error: codebook" in capsys.readouterr().err
        assert not (tmp / "bad.tensors.bgrd").exists()

    def test_non_divisible_downscale_rejected(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", rows=18, cols=18)
        (tmp_path / "p.csv").write_text(io.PATH_HEADER + "\n")
        io.save_tx_site(tmp_path / "tx.json",
                        sc.TxSite((0, 0), 5.0, ch.ArrayFrame(0, 0)))
        assert run_cli("tensorize", "--paths", tmp_path / "p.csv",
                       "--tx", tmp_path / "tx.json", "--config", cfg,
                       "--out", tmp_path / "t", "--downscale", 4) == 3


class TestEvaluate:
    @pytest.fixture()
    def tensorized(self, pipeline):
        tmp, cfg = pipeline
        run_cli("tensorize", "--paths", tmp / "s.paths.csv",
                "--tx", tmp / "s.tx.json", "--config", cfg,
                "--out", tmp / "t", "--downscale", 4)
        return tmp, cfg

    def test_oracle_all_ones(self, tensorized):
        tmp, cfg = tensorized
        assert run_cli("evaluate", "--tensors", tmp / "t.tensors.bgrd",
                       "--pred", "oracle", "--config", cfg,
                       "--report", tmp / "r.json") == 0
        rep = io.load_report(tmp / "r.json")
        assert all(a == 1.0 for a in rep.accuracy)
        assert all(t == 1.0 for t in rep.tpr)

    def test_values_match_in_process_metrics(self, tensorized):
        tmp, cfg = tensorized
        rng = np.random.default_rng(0)
        logits = rng.normal(0, 1, (8, 8, 128)).astype(np.float32)
        io.write_grid(tmp / "pred.bgrd", logits)
        run_cli("evaluate", "--tensors", tmp / "t.tensors.bgrd",
                "--pred", tmp / "pred.bgrd", "--config", cfg,
                "--report", tmp / "r2.json")
        rep = io.load_report(tmp / "r2.json")
        tensors = io.read_grid(tmp / "t.tensors.bgrd").astype(np.float64)
        valid = io.read_grid(tmp / "t.mask.bgrd")[:, :, 0].astype(bool)
        pred = pr.PredictionMap(scores=logits.astype(np.float64), valid=valid,
                                dims=(8, 4, 4), kind="joint")
        rankings = pr.flat_ranking(pred)
        expect = mt.evaluate_ranking(tensors[valid], rankings,
                                     [1, 2, 4, 8, 16, 32], mt.LinkBudget())
        np.testing.assert_allclose(rep.accuracy, expect.accuracy, atol=1e-12)
        np.testing.assert_allclose(rep.tpr, expect.tpr, atol=1e-12)

    def test_emits_hit_maps_and_los_map(self, tensorized):
        tmp, cfg = tensorized
        run_cli("evaluate", "--tensors", tmp / "t.tensors.bgrd",
                "--pred", "oracle", "--config", cfg,
                "--report", tmp / "r3.json",
                "--scene", tmp / "s.scene.bgrd", "--tx", tmp / "s.tx.json")
        for k in (1, 2, 4, 8, 16, 32):
            data = (tmp / f"r3.top{k}.pgm").read_bytes()
            assert data.startswith(b"P5\n8 8\n255\n")
        los = (tmp / "r3.los.pgm").read_bytes()
        assert los.startswith(b"P5\n32 32\n255\n")

    def test_los_map_traces_direct_paths_only(self, tensorized, monkeypatch):
        tmp, cfg = tensorized
        conf = io.load_config(cfg)
        grid = io.read_grid(tmp / "s.scene.bgrd")
        grid[:16, :, 1] = np.where(grid[:16, :, 0] > 0, 0.0, 12.0)  # canopy: attenuated LoS
        io.write_grid(tmp / "veg.scene.bgrd", grid)
        grid = grid.astype(np.float64)
        hm = sc.HeightMap(grid[:, :, 0], grid[:, :, 1], conf.scene.resolution_m)
        tx = io.load_tx_site(tmp / "s.tx.json")
        full = sc.trace_paths(hm, tx, conf.scene.scene_config(),
                              rx_height_m=conf.scene.rx_height_m)
        classes = los_class_reference(full)
        assert set(np.unique(classes)) == {0, 1, 2}
        img = np.array([64, 160, 255], dtype=np.uint8)[classes]
        img[hm.building > 0] = 0

        def no_walls(*args, **kwargs):
            raise AssertionError("the LoS map needs no reflections")

        monkeypatch.setattr(sc, "exterior_walls", no_walls)
        assert run_cli("evaluate", "--tensors", tmp / "t.tensors.bgrd",
                       "--pred", "oracle", "--config", cfg,
                       "--report", tmp / "r6.json",
                       "--scene", tmp / "veg.scene.bgrd", "--tx", tmp / "s.tx.json") == 0
        assert (tmp / "r6.los.pgm").read_bytes() == b"P5\n32 32\n255\n" + img.tobytes()

    def test_tensors_without_suffix_need_mask(self, tensorized, capsys):
        tmp, cfg = tensorized
        (tmp / "x.bgrd").write_bytes((tmp / "t.tensors.bgrd").read_bytes())
        code = run_cli("evaluate", "--tensors", tmp / "x.bgrd", "--pred", "oracle",
                       "--config", cfg, "--report", tmp / "rx.json")
        assert code == 2
        assert "--mask" in capsys.readouterr().err
        assert not (tmp / "rx.json").exists()
        assert run_cli("evaluate", "--tensors", tmp / "x.bgrd",
                       "--mask", tmp / "t.mask.bgrd", "--pred", "oracle",
                       "--config", cfg, "--report", tmp / "rx.json") == 0
        valid = io.read_grid(tmp / "t.mask.bgrd")[:, :, 0].astype(bool)
        assert io.load_report(tmp / "rx.json").samples == int(valid.sum())

    def test_full_k_list_saturates(self, tensorized):
        tmp, _ = tensorized
        cfg2 = tmp / "cfg128.json"
        cfg2.write_text(json.dumps({"scene": {"rows": 32, "cols": 32},
                                    "eval": {"k_list": [1, 128]}}))
        rng = np.random.default_rng(1)
        logits = rng.normal(0, 1, (8, 8, 128)).astype(np.float32)
        io.write_grid(tmp / "rand.bgrd", logits)
        run_cli("evaluate", "--tensors", tmp / "t.tensors.bgrd",
                "--pred", tmp / "rand.bgrd", "--config", cfg2,
                "--report", tmp / "k128.json")
        rep = io.load_report(tmp / "k128.json")
        assert rep.accuracy[-1] == 1.0 and rep.tpr[-1] == 1.0

    def test_all_excluded_numeric_failure(self, tensorized):
        tmp, cfg = tensorized
        tensors = io.read_grid(tmp / "t.tensors.bgrd")
        io.write_grid(tmp / "nomask.bgrd",
                      np.zeros(tensors.shape[:2], dtype=np.uint8), "u8")
        code = run_cli("evaluate", "--tensors", tmp / "t.tensors.bgrd",
                       "--mask", tmp / "nomask.bgrd", "--pred", "oracle",
                       "--config", cfg, "--report", tmp / "r5.json")
        assert code == 4

    def test_sep_and_ir_prediction_grids(self, tensorized):
        tmp, cfg = tensorized
        rng = np.random.default_rng(2)
        sep = rng.normal(0, 1, (8, 8, 16)).astype(np.float32)   # 8+4+4 heads
        io.write_grid(tmp / "sep.bgrd", sep)
        assert run_cli("evaluate", "--tensors", tmp / "t.tensors.bgrd",
                       "--pred", tmp / "sep.bgrd", "--config", cfg,
                       "--report", tmp / "sep.json") == 0
        ir = rng.uniform(0, 4, (8, 8, 3)).astype(np.float32)
        io.write_grid(tmp / "ir.bgrd", ir)
        assert run_cli("evaluate", "--tensors", tmp / "t.tensors.bgrd",
                       "--pred", tmp / "ir.bgrd", "--config", cfg,
                       "--report", tmp / "ir.json") == 0
        for name in ("sep.json", "ir.json"):
            rep = io.load_report(tmp / name)
            assert all(0.0 <= a <= 1.0 for a in rep.accuracy)
            assert rep.tpr[-1] >= rep.tpr[0]

    @pytest.mark.parametrize("flag", ["--scene", "--tx"])
    def test_scene_and_tx_only_together(self, tensorized, capsys, flag):
        tmp, cfg = tensorized
        site = {"--scene": tmp / "s.scene.bgrd", "--tx": tmp / "s.tx.json"}
        assert run_cli("evaluate", "--tensors", tmp / "t.tensors.bgrd",
                       "--pred", "oracle", "--config", cfg,
                       "--report", tmp / "r.json", flag, site[flag]) == 2
        assert "--scene and --tx must be given together" in capsys.readouterr().err
        assert not (tmp / "r.json").exists()

    def test_tx_off_grid_writes_no_report(self, tensorized, capsys):
        tmp, cfg = tensorized
        doc = json.loads((tmp / "s.tx.json").read_text())
        doc["pixel"] = [-1, 5]
        (tmp / "off.tx.json").write_text(json.dumps(doc))
        assert run_cli("evaluate", "--tensors", tmp / "t.tensors.bgrd",
                       "--pred", "oracle", "--config", cfg, "--report", tmp / "r.json",
                       "--scene", tmp / "s.scene.bgrd", "--tx", tmp / "off.tx.json") == 3
        assert "tx pixel [-1, 5] is off the 32x32 scene grid" in capsys.readouterr().err
        assert not (tmp / "r.json").exists()

    def test_zero_channel_mask_exit_code(self, tensorized, capsys):
        tmp, cfg = tensorized
        io.write_grid(tmp / "empty.mask.bgrd", np.zeros((8, 8, 0)), "u8")
        assert run_cli("evaluate", "--tensors", tmp / "t.tensors.bgrd",
                       "--mask", tmp / "empty.mask.bgrd", "--pred", "oracle",
                       "--config", cfg, "--report", tmp / "r.json") == 3
        assert "mask grid has 0 channels; expected 1" in capsys.readouterr().err

    def test_shape_mismatch_names_shapes(self, tensorized, capsys):
        tmp, cfg = tensorized
        io.write_grid(tmp / "badpred.bgrd",
                      np.zeros((4, 4, 128), dtype=np.float32))
        code = run_cli("evaluate", "--tensors", tmp / "t.tensors.bgrd",
                       "--pred", tmp / "badpred.bgrd", "--config", cfg,
                       "--report", tmp / "r4.json")
        assert code == 3
        err = capsys.readouterr().err
        assert "(4, 4)" in err and "(8, 8)" in err


    def test_model_header_not_an_object_exit_code(self, tensorized):
        tmp, cfg = tensorized
        (tmp / "m.bgmdl").write_bytes(
            b'["BGMDL1"]\n' + io.grid_to_bytes(np.zeros((15, 128))))
        assert run_cli("evaluate", "--tensors", tmp / "t.tensors.bgrd",
                       "--pred", tmp / "m.bgmdl", "--config", cfg,
                       "--report", tmp / "m.json", "--scene", tmp / "s.scene.bgrd",
                       "--tx", tmp / "s.tx.json") == 3


class TestTrainCli:
    @pytest.fixture()
    def scene_dir(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json")
        scenes = tmp_path / "scenes"
        scenes.mkdir()
        for i in range(4):
            stem = scenes / f"c{i}"
            run_cli("generate", "--rows", 32, "--cols", 32, "--seed", i,
                    "--out", f"{stem}.scene.bgrd", "--config", cfg,
                    "--tx-out", f"{stem}.tx.json")
            run_cli("trace", "--scene", f"{stem}.scene.bgrd",
                    "--tx", f"{stem}.tx.json", "--config", cfg,
                    "--out", f"{stem}.paths.csv")
            run_cli("tensorize", "--paths", f"{stem}.paths.csv",
                    "--tx", f"{stem}.tx.json", "--config", cfg,
                    "--out", str(stem), "--downscale", 4)
        return tmp_path, cfg, scenes

    def test_deterministic_model_files(self, scene_dir):
        tmp, cfg, scenes = scene_dir
        for stem in ("m1", "m2"):
            assert run_cli("train", "--scenes", scenes, "--config", cfg,
                           "--model-out", tmp / f"{stem}.bgmdl") == 0
        assert (tmp / "m1.bgmdl").read_bytes() == (tmp / "m2.bgmdl").read_bytes()

    def test_history_and_best_epoch(self, scene_dir):
        tmp, cfg, scenes = scene_dir
        run_cli("train", "--scenes", scenes, "--config", cfg,
                "--model-out", tmp / "m.bgmdl",
                "--history-out", tmp / "h.csv")
        lines = (tmp / "h.csv").read_text().strip().splitlines()
        assert lines[0] == "epoch,train_loss,val_loss,lr"
        rows = [line.split(",") for line in lines[1:]]
        assert len(rows) >= 1
        val = [float(r[2]) for r in rows]
        # best-state selection: the reported minimum is the history minimum
        assert min(val) == min(val[int(r[0])] for r in rows)

    def test_insufficient_scenes(self, tmp_path):
        scenes = tmp_path / "scenes"
        scenes.mkdir()
        assert run_cli("train", "--scenes", scenes,
                       "--model-out", tmp_path / "m.bgmdl") == 3

    def test_scene_tensor_column_mismatch_exit_code(self, tmp_path, capsys):
        scenes = tmp_path / "scenes"
        scenes.mkdir()
        for i in range(3):
            stem = scenes / f"c{i}"
            run_cli("generate", "--rows", 32, "--cols", 32, "--seed", i,
                    "--out", f"{stem}.scene.bgrd", "--tx-out", f"{stem}.tx.json")
            io.write_grid(f"{stem}.tensors.bgrd", np.ones((32, 48, 128), dtype=np.float32))
            io.write_grid(f"{stem}.mask.bgrd", np.ones((32, 48), dtype=np.uint8), "u8")
        assert run_cli("train", "--scenes", scenes,
                       "--model-out", tmp_path / "m.bgmdl") == 3
        assert "not an integer multiple of the tensor grid 32x48" in capsys.readouterr().err

    def test_tx_off_grid_exit_code(self, scene_dir, capsys):
        tmp, cfg, scenes = scene_dir
        doc = json.loads((scenes / "c2.tx.json").read_text())
        doc["pixel"] = [-1, 5]  # would wrap to the last row of the features
        (scenes / "c2.tx.json").write_text(json.dumps(doc))
        assert run_cli("train", "--scenes", scenes, "--config", cfg,
                       "--model-out", tmp / "m.bgmdl") == 3
        assert "tx pixel [-1, 5] is off the 32x32 scene grid" in capsys.readouterr().err
        assert not (tmp / "m.bgmdl").exists()

    def test_tx_off_grid_in_test_scene_exit_code(self, scene_dir, capsys):
        # train reads no samples of a test scene, but checks its site
        tmp, cfg, scenes = scene_dir
        stems = sorted(str(p)[:-len(".scene.bgrd")] for p in scenes.glob("*.scene.bgrd"))
        stem = cli._split_scenes(stems, io.load_config(cfg).train.seed)[2][0]
        doc = json.loads(Path(f"{stem}.tx.json").read_text())
        doc["pixel"] = [-1, 5]
        Path(f"{stem}.tx.json").write_text(json.dumps(doc))
        assert run_cli("train", "--scenes", scenes, "--config", cfg,
                       "--model-out", tmp / "m.bgmdl") == 3
        assert "tx pixel [-1, 5] is off the 32x32 scene grid" in capsys.readouterr().err
        assert not (tmp / "m.bgmdl").exists()

    def test_loss_epsilon_exit_code(self, scene_dir, capsys):
        # the WS loss has no solver temperature: loss.epsilon is an unknown key
        tmp, _, scenes = scene_dir
        cfg = tmp / "eps.json"
        cfg.write_text(json.dumps({"scene": {"rows": 32, "cols": 32},
                                   "loss": {"kind": "WS", "epsilon": 0.1}}))
        assert run_cli("train", "--scenes", scenes, "--config", cfg,
                       "--model-out", tmp / "m.bgmdl") == 3
        assert "['epsilon']" in capsys.readouterr().err
        assert not (tmp / "m.bgmdl").exists()

    def test_model_evaluates_on_test_scene(self, scene_dir, capsys):
        tmp, cfg, scenes = scene_dir
        run_cli("train", "--scenes", scenes, "--config", cfg,
                "--model-out", tmp / "m.bgmdl")
        out = capsys.readouterr().out
        test_line = [ln for ln in out.splitlines() if ln.startswith("test_scenes=")]
        stem = test_line[0].split("=", 1)[1].split(",")[0]
        code = run_cli("evaluate", "--tensors", scenes / f"{stem}.tensors.bgrd",
                       "--pred", tmp / "m.bgmdl", "--config", cfg,
                       "--report", tmp / "mr.json",
                       "--scene", scenes / f"{stem}.scene.bgrd",
                       "--tx", scenes / f"{stem}.tx.json")
        assert code == 0
        rep = io.load_report(tmp / "mr.json")
        assert 0.0 <= rep.accuracy[0] <= 1.0


class TestImport:
    def test_cli_import_leaves_scipy_unloaded(self):
        env = dict(os.environ, PYTHONPATH=str(Path(beamgrid.__file__).parents[1]))
        res = subprocess.run(
            [sys.executable, "-c",
             "import sys, beamgrid.cli; print('scipy' in sys.modules)"],
            env=env, capture_output=True, text=True, check=True, timeout=120)
        assert res.stdout.strip() == "False"

    def test_cli_import_leaves_concurrent_futures_unloaded(self):
        # only train imports its thread pool
        env = dict(os.environ, PYTHONPATH=str(Path(beamgrid.__file__).parents[1]))
        res = subprocess.run(
            [sys.executable, "-c",
             "import sys, beamgrid.cli; print('concurrent.futures' in sys.modules)"],
            env=env, capture_output=True, text=True, check=True, timeout=120)
        assert res.stdout.strip() == "False"


class TestHelp:
    def test_subcommand_help_renders(self, capsys):
        for cmd in ("generate", "trace", "tensorize", "evaluate", "train", "report"):
            with pytest.raises(SystemExit) as exc:
                run_cli(cmd, "--help")
            assert exc.value.code == 0
            assert "--" in capsys.readouterr().out


class TestReportCommand:
    def test_renders_table(self, tmp_path, capsys):
        from beamgrid.metrics import EvalReport
        io.save_report(tmp_path / "r.json",
                       EvalReport([1, 2], [0.5, 0.6], [0.7, 0.8], 10, 2))
        assert run_cli("report", "--report", tmp_path / "r.json") == 0
        out = capsys.readouterr().out
        assert "accuracy" in out and "0.5000" in out

    @pytest.mark.parametrize("doc", [
        [],
        "x",
        {"accuracy": [None]},
        {"k_list": [1, 2]},
    ], ids=["list", "string", "null_accuracy", "k_list_longer"])
    def test_malformed_report_exit_code(self, tmp_path, capsys, doc):
        if isinstance(doc, dict):
            doc = {"schema": "beamgrid-report-v1", "k_list": [1], "accuracy": [0.5],
                   "tpr": [0.7], "samples": 10, "excluded": 2, **doc}
        path = tmp_path / "r.json"
        path.write_text(json.dumps(doc))
        assert run_cli("report", "--report", path) == 3
        assert "error:" in capsys.readouterr().err
