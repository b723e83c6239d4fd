import gc
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import beamgrid
from beamgrid import channel as ch
from beamgrid import cli
from beamgrid import gridio as io
from beamgrid import metrics as mt
from beamgrid import predictor as pr
from beamgrid import scene as sc
from beamgrid.cli import main

from conftest import assert_report_matches, evaluate_reference, flat_ranking_reference, \
    grid_to_bytes, los_class_reference, on_grid_direction, oracle_reference, predict_reference, tensor_grid, tensorize_reference, \
    trace_reference, validity_masks


def run_cli(*args):
    """Invoke the CLI in-process, capturing the exit code."""
    return main([str(a) for a in args])


def write_config(path, **scene_overrides):
    doc = {"scene": {"rows": 32, "cols": 32, **scene_overrides}}
    path.write_text(json.dumps(doc))
    return path


def write_los(path, rows, cols):
    """An all-NLoS LoS grid, for a hand-written path table or tensors set."""
    io.write_grid(path, np.zeros((rows, cols), dtype=np.uint8), "u8")


def assert_rank_grid_matches(path, k_list, images):
    """The rank grid evaluate wrote at path, thresholded at each k, is the
    reference top-k hit map of that k (evaluate_reference): its pixels of
    rank 1 to k are the image's hits (255), those of a rank above k its
    misses (64), and so its pixels of rank 0 those left out (0)."""
    grid = io.read_grid(path)
    assert grid.dtype == np.float32 and grid.shape[2] == 1
    rank = grid[:, :, 0]
    for k, img in zip(k_list, images):
        assert np.array_equal((rank > 0) & (rank <= k), img == 255), k
        assert np.array_equal(rank > k, img == 64), k


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

    @pytest.mark.parametrize("key, value, code, message", [
        ("tx_mast_m", -20.0, 3, "tx_mast_m must be >= 0"),
        ("block_size", -20, 3, "block_size must be > 0"),
        ("tx_mast_m", 1e300, 4, "path lengths overflow float64"),
        ("vegetation_height_min", -3.0, 3, "vegetation_height_min must be >= 0"),
        ("building_height_max", -1.0, 3, "building_height_max must be >= 0"),
    ], ids=["negative-mast", "negative-block", "overflowing-mast", "negative-canopy",
            "negative-roof"])
    def test_bad_scene_value_exit_code(self, tmp_path, capsys, key, value, code, message):
        cfg = write_config(tmp_path / "cfg.json", **{key: value})
        assert run_cli("generate", "--rows", 32, "--cols", 32, "--seed", 3,
                       "--out", tmp_path / "s.bgrd", "--config", cfg,
                       "--tx-out", tmp_path / "s.json") == code
        assert message in capsys.readouterr().err
        assert not (tmp_path / "s.bgrd").exists()
        assert not (tmp_path / "s.json").exists()

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

    def test_negative_seed_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli("generate", "--rows", 32, "--cols", 32, "--seed", -1,
                    "--out", tmp_path / "x.bgrd")
        assert exc.value.code == 2
        assert "--seed" in capsys.readouterr().err
        assert not (tmp_path / "x.bgrd").exists()

    def test_prints_tx_site_json(self, tmp_path, capsys):
        run_cli("generate", "--rows", 32, "--cols", 32, "--seed", 3,
                "--out", tmp_path / "x.bgrd")
        doc = json.loads(capsys.readouterr().out)
        assert set(doc) == {"pixel", "height_m", "boresight_azimuth", "downtilt"}


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
        # the LoS grid's stem is the whole --out unless it ends in .paths.csv
        assert (tmp / "s.los.bgrd").read_bytes() == (tmp / "again.csv.los.bgrd").read_bytes()

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
        ("height_m", -1.0),
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

    @pytest.mark.parametrize("what, data", [("tx", b'{"pixel": [3, 4'),
                                            ("config", b'{"scene": {"rows": "\xff"}}')],
                             ids=["invalid-json-tx-site", "invalid-utf8-config"])
    def test_unreadable_json_names_file(self, pipeline, capsys, what, data):
        # both exited 3 before, with a bare decoder message naming no file
        tmp, cfg = pipeline
        bad = tmp / f"bad.{what}.json"
        bad.write_bytes(data)
        args = {"tx": tmp / "s.tx.json", "config": cfg, what: bad}
        assert run_cli("trace", "--scene", tmp / "s.scene.bgrd", "--tx", args["tx"],
                       "--config", args["config"], "--out", tmp / "bad.csv") == 3
        assert str(bad) in capsys.readouterr().err
        assert not (tmp / "bad.csv").exists()

    def test_one_channel_scene_exit_code(self, pipeline, capsys):
        tmp, cfg = pipeline
        grid = io.read_grid(tmp / "s.scene.bgrd")
        io.write_grid(tmp / "one.bgrd", grid[:, :, :1])
        assert run_cli("trace", "--scene", tmp / "one.bgrd", "--tx", tmp / "s.tx.json",
                       "--config", cfg, "--out", tmp / "bad.csv") == 3
        assert f"scene grid {tmp / 'one.bgrd'}: 1 channels; expected 2" \
            in capsys.readouterr().err
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
                                            ("rx_height_m", float("nan")),
                                            ("rx_height_m", -5.0)])
    def test_bad_config_value_exit_code(self, pipeline, key, value):
        tmp, _ = pipeline
        cfg = write_config(tmp / "bad.json", **{key: value})
        assert run_cli("trace", "--scene", tmp / "s.scene.bgrd",
                       "--tx", tmp / "s.tx.json", "--config", cfg,
                       "--out", tmp / "bad.csv") == 3
        assert not (tmp / "bad.csv").exists()

    def test_scene_not_config_grid_exit_code(self, pipeline, capsys):
        # a 32x32 scene under the default 64x64 config: tensorize would read
        # its path table on the wrong grid and exit 0
        tmp, _ = pipeline
        (tmp / "empty.json").write_text("{}")
        assert run_cli("trace", "--scene", tmp / "s.scene.bgrd", "--tx", tmp / "s.tx.json",
                       "--config", tmp / "empty.json", "--out", tmp / "bad.csv") == 3
        assert f"scene grid {tmp / 's.scene.bgrd'}: 32x32; the config's scene is 64x64" \
            in capsys.readouterr().err
        assert not (tmp / "bad.csv").exists()

    @pytest.mark.parametrize("where", ["config", "tx_site"])
    def test_overflowing_height_exit_code(self, pipeline, capsys, where):
        tmp, cfg = pipeline
        tx = tmp / "s.tx.json"
        if where == "config":
            cfg = write_config(tmp / "big.json", rx_height_m=1e300)
        else:
            doc = json.loads(tx.read_text())
            doc["height_m"] = 1e300
            tx = tmp / "big.tx.json"
            tx.write_text(json.dumps(doc))
        assert run_cli("trace", "--scene", tmp / "s.scene.bgrd", "--tx", tx,
                       "--config", cfg, "--out", tmp / "bad.csv") == 4
        assert "path lengths overflow float64" in capsys.readouterr().err
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
        expect = tensor_grid(chans, codebook, tx.frame)
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

    def test_los_grid_not_rewritten_at_paths_stem(self, pipeline, monkeypatch):
        # at the paths stem the trace's LoS grid is both the input and the
        # output; rewriting it would truncate it first. At another stem
        # tensorize writes a copy of it.
        tmp, cfg = pipeline
        los = (tmp / "s.los.bgrd").read_bytes()
        written = []
        write_grid = io.write_grid

        def recorded(path, *args):
            written.append(Path(path).name)
            return write_grid(path, *args)

        monkeypatch.setattr(io, "write_grid", recorded)
        for stem in ("s", "t"):
            assert run_cli("tensorize", "--paths", tmp / "s.paths.csv",
                           "--tx", tmp / "s.tx.json", "--config", cfg,
                           "--out", tmp / stem) == 0
        assert written == ["s.tensors.bgrd", "s.gt.bgrd", "s.mask.bgrd",
                           "t.tensors.bgrd", "t.gt.bgrd", "t.mask.bgrd", "t.los.bgrd"]
        assert (tmp / "s.los.bgrd").read_bytes() == los
        assert (tmp / "t.los.bgrd").read_bytes() == los

    @pytest.mark.parametrize("column, value", [(2, "nan"), (4, "inf")])
    def test_non_finite_path_value_exit_code(self, pipeline, column, value):
        # column 2 is the amplitude, column 4 the departure azimuth
        tmp, cfg = pipeline
        lines = (tmp / "s.paths.csv").read_text().splitlines()
        fields = lines[1].split(",")
        fields[column] = value
        lines[1] = ",".join(fields)
        (tmp / "bad.paths.csv").write_text("\n".join(lines) + "\n")
        (tmp / "bad.los.bgrd").write_bytes((tmp / "s.los.bgrd").read_bytes())
        assert run_cli("tensorize", "--paths", tmp / "bad.paths.csv",
                       "--tx", tmp / "s.tx.json", "--config", cfg,
                       "--out", tmp / "bad", "--downscale", 1) == 3
        assert not (tmp / "bad.tensors.bgrd").exists()

    def test_malformed_line_names_file(self, pipeline, capsys):
        # the error names the path file, not only the line
        tmp, cfg = pipeline
        bad = tmp / "bad.paths.csv"
        bad.write_text(io.PATH_HEADER + "\n1,2,3\n")
        (tmp / "bad.los.bgrd").write_bytes((tmp / "s.los.bgrd").read_bytes())
        assert run_cli("tensorize", "--paths", bad, "--tx", tmp / "s.tx.json",
                       "--config", cfg, "--out", tmp / "bad", "--downscale", 1) == 3
        assert f"path file {bad}: line 2: expected 7 fields, got 3" \
            in capsys.readouterr().err
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

    @staticmethod
    def _beam_paths(tmp, paths):
        """A 32x32 config, a tx site with an identity array frame and a path
        file of (row, col, magnitude, azimuth beam, arrival azimuth) paths
        that depart exactly on the given azimuth beam of the 8x4x4 default
        codebook (elevation beam 0), with its 32x32 LoS grid."""
        cfg = write_config(tmp / "cfg.json")
        io.save_tx_site(tmp / "tx.json", sc.TxSite((0, 0), 5.0, ch.ArrayFrame(0.0, 0.0)))
        lines = [io.PATH_HEADER]
        for r, c, mag, ia, aoa in paths:
            az, el = on_grid_direction(ia, 0, 8, 4)
            lines.append(f"{r},{c},{mag!r},0.0,{az!r},{el!r},{aoa!r}")
        (tmp / "p.csv").write_text("\n".join(lines) + "\n")
        write_los(tmp / "p.csv.los.bgrd", 32, 32)
        return cfg

    def test_block_mean_below_threshold_excluded(self, tmp_path):
        # each pixel peaks 1 dB above the threshold; the two pixels of block
        # (0, 0) peak in different beams, so its mean peaks ~2 dB below and
        # is excluded after downscaling, while block (0, 1), whose pixels
        # share a beam, keeps its peak and stays valid
        threshold_db = mt.LinkBudget().exclusion_threshold_db
        mag = float(np.sqrt(10.0 ** ((threshold_db + 1.0) / 10.0) / 32.0))
        cfg = self._beam_paths(tmp_path, [(0, 0, mag, 0, 0.1), (0, 1, mag, 1, 0.1),
                                          (0, 2, mag, 0, 0.1), (1, 3, mag, 0, 0.1)])
        assert run_cli("tensorize", "--paths", tmp_path / "p.csv",
                       "--tx", tmp_path / "tx.json", "--config", cfg,
                       "--out", tmp_path / "t", "--downscale", 2) == 0
        mask = io.read_grid(tmp_path / "t.mask.bgrd")[:, :, 0]
        tensors = io.read_grid(tmp_path / "t.tensors.bgrd")
        peak_db = 10.0 * np.log10(tensors[0, :2].max(axis=1).astype(np.float64))
        assert peak_db[0] < threshold_db - 1.0 and peak_db[1] > threshold_db
        assert mask[0, 0] == 0 and mask[0, 1] == 1
        assert int(mask.sum()) == 1

    def test_gt_from_stored_f32_values(self, tmp_path):
        # two paths of one pixel share a departure beam and land in receive
        # sectors 0 and 1; their powers differ by ~1e-12, a tie in f32, so
        # the stored ground truth is sector 0, the first of the tied beams,
        # while the f64 tensors peak in sector 1
        mag = 1e-5
        cfg = self._beam_paths(tmp_path, [(3, 4, mag, 2, 0.1),
                                          (3, 4, mag * (1.0 + 1e-12), 2, 2.0)])
        assert run_cli("tensorize", "--paths", tmp_path / "p.csv",
                       "--tx", tmp_path / "tx.json", "--config", cfg,
                       "--out", tmp_path / "t", "--downscale", 1) == 0
        tensors = io.read_grid(tmp_path / "t.tensors.bgrd")[3, 4]
        gt = io.read_grid(tmp_path / "t.gt.bgrd")[3, 4, 0]
        tied = 2 * 16 + np.arange(2)  # flat beams (2, 0, 0) and (2, 0, 1)
        assert tensors[tied[0]] == tensors[tied[1]] == tensors.max()
        assert gt == tied[0]

    @given(st.data())
    @settings(deadline=None, max_examples=100)
    def test_matches_dense_reference_bitwise(self, codebook, data):
        # each factor x factor block gets 0 to factor^2 pixels with strong
        # paths; its other pixels have no path, or paths whose peak lies far
        # below the exclusion threshold or near it (-147 dB at magnitude
        # ~4.5e-8 straight into a beam, ~15 dB lower off the beams)
        factor = data.draw(st.sampled_from([1, 2, 4]))
        br, bc = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))
        rows, cols = br * factor, bc * factor
        strong_per_block = data.draw(st.lists(st.integers(0, factor * factor),
                                              min_size=br * bc, max_size=br * bc))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**16)))
        scale = np.zeros((br, bc, factor * factor))
        for b, k in enumerate(strong_per_block):
            order = rng.permutation(factor * factor)
            scale[b // bc, b % bc, order[:k]] = 1e-2
            scale[b // bc, b % bc, order[k:]] = rng.choice([0.0, 1e-12, 4.5e-8],
                                                           factor * factor - k)
        scale = scale.reshape(br, bc, factor, factor).transpose(0, 2, 1, 3).ravel()
        lines = [io.PATH_HEADER]
        for pix in np.flatnonzero(scale):
            for _ in range(rng.integers(1, 4)):
                mag, az, el, aoa = map(float, (scale[pix] * rng.uniform(0.3, 3.0),
                                               rng.uniform(0, 2 * np.pi),
                                               rng.uniform(-1.5, 1.5),
                                               rng.uniform(0, 2 * np.pi)))
                lines.append(f"{pix // cols},{pix % cols},{mag!r},0.0,{az!r},{el!r},{aoa!r}")
        frame = ch.ArrayFrame(rng.uniform(0, 2 * np.pi), rng.uniform(0, np.pi / 2))
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            cfg = write_config(tmp / "cfg.json", rows=rows, cols=cols)
            io.save_tx_site(tmp / "tx.json", sc.TxSite((0, 0), 5.0, frame))
            (tmp / "p.csv").write_text("\n".join(lines) + "\n")
            write_los(tmp / "p.csv.los.bgrd", rows, cols)
            assert run_cli("tensorize", "--paths", tmp / "p.csv", "--tx", tmp / "tx.json",
                           "--config", cfg, "--out", tmp / "t",
                           "--downscale", factor) == 0
            tensors, gt, valid = tensorize_reference(
                io.read_paths_csv(tmp / "p.csv", rows, cols), codebook, frame,
                mt.LinkBudget(), factor)
            assert io.read_grid(tmp / "t.tensors.bgrd").tobytes() == tensors.tobytes()
            assert np.array_equal(io.read_grid(tmp / "t.gt.bgrd")[:, :, 0], gt)
            assert np.array_equal(io.read_grid(tmp / "t.mask.bgrd")[:, :, 0], valid)

    def test_non_divisible_downscale_rejected(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", rows=18, cols=18)
        (tmp_path / "p.csv").write_text(io.PATH_HEADER + "\n")
        write_los(tmp_path / "p.csv.los.bgrd", 18, 18)
        io.save_tx_site(tmp_path / "tx.json",
                        sc.TxSite((0, 0), 5.0, ch.ArrayFrame(0, 0)))
        assert run_cli("tensorize", "--paths", tmp_path / "p.csv",
                       "--tx", tmp_path / "tx.json", "--config", cfg,
                       "--out", tmp_path / "t", "--downscale", 4) == 3

    def test_grid_from_the_trace_not_the_config(self, tmp_path):
        # the grid was the config's scene.rows/cols: under {} (64x64) a 32x32
        # trace gave a 16x16 tensors set, whose oracle report excluded 217
        # blocks instead of 25
        cfg = write_config(tmp_path / "cfg.json")
        (tmp_path / "empty.json").write_text("{}")
        s = tmp_path / "s"
        assert run_cli("generate", "--rows", 32, "--cols", 32, "--seed", 2, "--config", cfg,
                       "--out", f"{s}.scene.bgrd", "--tx-out", f"{s}.tx.json") == 0
        assert run_cli("trace", "--scene", f"{s}.scene.bgrd", "--tx", f"{s}.tx.json",
                       "--config", cfg, "--out", f"{s}.paths.csv") == 0
        for out, config in (("a", cfg), ("b", tmp_path / "empty.json")):
            assert run_cli("tensorize", "--paths", f"{s}.paths.csv", "--tx", f"{s}.tx.json",
                           "--config", config, "--out", tmp_path / out) == 0
        for kind in ("tensors", "gt", "mask", "los"):
            assert (tmp_path / f"a.{kind}.bgrd").read_bytes() \
                == (tmp_path / f"b.{kind}.bgrd").read_bytes(), kind
        assert io.read_grid(tmp_path / "b.tensors.bgrd").shape == (8, 8, 128)
        assert (tmp_path / "b.los.bgrd").read_bytes() == (tmp_path / "s.los.bgrd").read_bytes()

    def test_missing_los_grid_names_file(self, pipeline, capsys):
        tmp, cfg = pipeline
        (tmp / "s.los.bgrd").unlink()
        assert run_cli("tensorize", "--paths", tmp / "s.paths.csv", "--tx", tmp / "s.tx.json",
                       "--config", cfg, "--out", tmp / "t") == 3
        assert str(tmp / "s.los.bgrd") in capsys.readouterr().err
        assert not (tmp / "t.tensors.bgrd").exists()


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
        rankings = pr.flat_ranking(logits[valid].astype(np.float64), (8, 4, 4), "joint")
        expect, _ = mt.evaluate_ranking(tensors[valid], rankings,
                                        [1, 2, 4, 8, 16, 32], mt.LinkBudget())
        np.testing.assert_allclose(rep.accuracy, expect.accuracy, atol=1e-12)
        np.testing.assert_allclose(rep.tpr, expect.tpr, atol=1e-12)

    def test_emits_hit_maps_and_los_map(self, tensorized):
        # the hit maps are one rank grid: the oracle ranks every valid
        # pixel's optimal beam first, and the other pixels read 0
        tmp, cfg = tensorized
        run_cli("evaluate", "--tensors", tmp / "t.tensors.bgrd",
                "--pred", "oracle", "--config", cfg,
                "--report", tmp / "r3.json",
                "--scene", tmp / "s.scene.bgrd", "--tx", tmp / "s.tx.json")
        rank = io.read_grid(tmp / "r3.rank.bgrd")
        valid = io.read_grid(tmp / "t.mask.bgrd")
        assert rank.shape == (8, 8, 1) and rank.dtype == np.float32
        assert valid.any() and np.array_equal(rank, valid.astype(np.float32))
        assert sorted(p.name for p in tmp.glob("r3.*")) == \
            ["r3.json", "r3.los.pgm", "r3.rank.bgrd"]
        los = (tmp / "r3.los.pgm").read_bytes()
        assert los.startswith(b"P5\n32 32\n255\n")

    def test_los_map_comes_from_the_trace(self, tensorized, monkeypatch):
        tmp, cfg = tensorized
        conf = io.load_config(cfg)
        grid = io.read_grid(tmp / "s.scene.bgrd")
        grid[:16, :, 1] = np.where(grid[:16, :, 0] > 0, 0.0, 12.0)  # canopy: attenuated LoS
        io.write_grid(tmp / "veg.scene.bgrd", grid)
        assert run_cli("trace", "--scene", tmp / "veg.scene.bgrd", "--tx", tmp / "s.tx.json",
                       "--config", cfg, "--out", tmp / "veg.paths.csv") == 0
        assert run_cli("tensorize", "--paths", tmp / "veg.paths.csv", "--tx", tmp / "s.tx.json",
                       "--config", cfg, "--out", tmp / "vt") == 0
        grid = grid.astype(np.float64)
        hm = sc.HeightMap(grid[:, :, 0], grid[:, :, 1], conf.scene.resolution_m)
        classes = los_class_reference(trace_reference(hm, io.load_tx_site(tmp / "s.tx.json"),
                                                      conf.scene))
        assert set(np.unique(classes)) == {0, 1, 2}
        img = np.array([64, 160, 255], dtype=np.uint8)[classes]
        img[hm.building > 0] = 0

        def no_trace(*args, **kwargs):
            raise AssertionError("evaluate reads the trace's LoS grid")

        monkeypatch.setattr(sc, "trace_paths", no_trace)
        assert run_cli("evaluate", "--tensors", tmp / "vt.tensors.bgrd",
                       "--pred", "oracle", "--config", cfg,
                       "--report", tmp / "r6.json",
                       "--scene", tmp / "veg.scene.bgrd", "--tx", tmp / "s.tx.json") == 0
        assert (tmp / "r6.los.pgm").read_bytes() == b"P5\n32 32\n255\n" + img.tobytes()

    @pytest.mark.parametrize("override", [{"rx_height_m": 6.0}, {"vegetation_db_per_m": 0.0}],
                             ids=["rx-height", "no-vegetation-loss"])
    def test_los_map_ignores_the_evaluate_config(self, tmp_path, override):
        # evaluate re-traced the direct paths under its own config, so either
        # value gave another LoS map of this scene at exit 0
        cfg = write_config(tmp_path / "cfg.json")
        other = write_config(tmp_path / "other.json", **override)
        s = tmp_path / "s"
        assert run_cli("generate", "--rows", 32, "--cols", 32, "--seed", 2, "--config", cfg,
                       "--out", f"{s}.scene.bgrd", "--tx-out", f"{s}.tx.json") == 0
        assert run_cli("trace", "--scene", f"{s}.scene.bgrd", "--tx", f"{s}.tx.json",
                       "--config", cfg, "--out", f"{s}.paths.csv") == 0
        assert run_cli("tensorize", "--paths", f"{s}.paths.csv", "--tx", f"{s}.tx.json",
                       "--config", cfg, "--out", s) == 0
        for report, config in (("a", cfg), ("b", other)):
            assert run_cli("evaluate", "--tensors", f"{s}.tensors.bgrd", "--pred", "oracle",
                           "--config", config, "--report", tmp_path / f"{report}.json",
                           "--scene", f"{s}.scene.bgrd", "--tx", f"{s}.tx.json") == 0
        assert (tmp_path / "a.los.pgm").read_bytes() == (tmp_path / "b.los.pgm").read_bytes()

    @pytest.mark.parametrize("fault", ["missing", "two-channels", "class-3", "f32", "shape"])
    def test_bad_los_grid_writes_nothing(self, tensorized, capsys, fault):
        tmp, cfg = tensorized
        los = tmp / "t.los.bgrd"
        if fault == "missing":
            los.unlink()
        elif fault == "two-channels":
            io.write_grid(los, np.zeros((32, 32, 2), dtype=np.uint8), "u8")
        elif fault == "class-3":
            grid = io.read_grid(los)
            grid[5, 7] = 3
            io.write_grid(los, grid, "u8")
        elif fault == "f32":
            io.write_grid(los, io.read_grid(los), "f32")
        else:
            write_los(los, 16, 16)
        assert run_cli("evaluate", "--tensors", tmp / "t.tensors.bgrd", "--pred", "oracle",
                       "--config", cfg, "--report", tmp / "r.json",
                       "--scene", tmp / "s.scene.bgrd", "--tx", tmp / "s.tx.json") == 3
        assert str(los) in capsys.readouterr().err
        assert sorted(p.name for p in tmp.glob("r*")) == []

    @pytest.mark.parametrize("pred", ["oracle", "grid", "model"])
    def test_beam_count_mismatch_exit_code(self, pipeline, capsys, pred):
        # 64-channel tensors (Na 4) scored under the default 128-beam codebook
        tmp, cfg = pipeline
        cfg64 = tmp / "cfg64.json"
        cfg64.write_text(json.dumps({"scene": {"rows": 32, "cols": 32},
                                     "codebook": {"Na": 4}}))
        assert run_cli("tensorize", "--paths", tmp / "s.paths.csv", "--tx", tmp / "s.tx.json",
                       "--config", cfg64, "--out", tmp / "t64") == 0
        site = []
        if pred == "grid":
            pred = tmp / "p.bgrd"
            io.write_grid(pred, np.zeros((8, 8, 128), dtype=np.float32))
        elif pred == "model":
            pred = tmp / "m.bgmdl"
            io.save_model(pred, pr.SoftmaxModel.create(len(pr.FEATURE_NAMES), (8, 4, 4)))
            site = ["--scene", tmp / "s.scene.bgrd", "--tx", tmp / "s.tx.json"]
        assert run_cli("evaluate", "--tensors", tmp / "t64.tensors.bgrd", "--pred", pred,
                       "--config", cfg, "--report", tmp / "r.json", *site) == 3
        assert f"beam power grid {tmp / 't64.tensors.bgrd'}: 64 channels; expected 128 " \
            "(codebook dims [8, 4, 4])" in capsys.readouterr().err
        assert not (tmp / "r.json").exists()

    def test_ambiguous_grid_kind_exit_code(self, pipeline, capsys):
        # with a 3x1x1 codebook a 3-channel grid may be joint scores or an
        # index triple; this one holds the oracle's joint dB scores
        tmp, _ = pipeline
        cfg = tmp / "cfg3.json"
        cfg.write_text(json.dumps({"scene": {"rows": 32, "cols": 32},
                                   "codebook": {"Na": 3, "Ne": 1, "Nr": 1},
                                   "eval": {"k_list": [1, 3]}}))
        assert run_cli("tensorize", "--paths", tmp / "s.paths.csv", "--tx", tmp / "s.tx.json",
                       "--config", cfg, "--out", tmp / "t3") == 0
        tensors = io.read_grid(tmp / "t3.tensors.bgrd").astype(np.float64)
        io.write_grid(tmp / "p.bgrd", 10.0 * np.log10(tensors + 1e-30))
        assert run_cli("evaluate", "--tensors", tmp / "t3.tensors.bgrd", "--pred", tmp / "p.bgrd",
                       "--config", cfg, "--report", tmp / "r.json") == 3
        assert "fits more than one kind (joint and ir)" in capsys.readouterr().err
        assert not (tmp / "r.json").exists()

    def test_tensors_without_suffix_need_mask(self, tensorized, capsys):
        # a tensors set is <stem>.tensors.bgrd beside <stem>.mask.bgrd; no
        # option names a mask elsewhere
        tmp, cfg = tensorized
        (tmp / "x.bgrd").write_bytes((tmp / "t.tensors.bgrd").read_bytes())
        code = run_cli("evaluate", "--tensors", tmp / "x.bgrd", "--pred", "oracle",
                       "--config", cfg, "--report", tmp / "rx.json")
        assert code == 2
        assert "--tensors must name a <stem>.tensors.bgrd file" in capsys.readouterr().err
        assert not (tmp / "rx.json").exists()
        with pytest.raises(SystemExit) as exc:
            run_cli("evaluate", "--tensors", tmp / "x.bgrd",
                    "--mask", tmp / "t.mask.bgrd", "--pred", "oracle",
                    "--config", cfg, "--report", tmp / "rx.json")
        assert exc.value.code == 2
        assert not (tmp / "rx.json").exists()
        (tmp / "x.tensors.bgrd").write_bytes((tmp / "x.bgrd").read_bytes())
        (tmp / "x.mask.bgrd").write_bytes((tmp / "t.mask.bgrd").read_bytes())
        assert run_cli("evaluate", "--tensors", tmp / "x.tensors.bgrd", "--pred", "oracle",
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
        io.write_grid(tmp / "nomask.tensors.bgrd", tensors)
        io.write_grid(tmp / "nomask.mask.bgrd",
                      np.zeros(tensors.shape[:2], dtype=np.uint8), "u8")
        code = run_cli("evaluate", "--tensors", tmp / "nomask.tensors.bgrd",
                       "--pred", "oracle", "--config", cfg, "--report", tmp / "r5.json")
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
        (tmp / "empty.tensors.bgrd").write_bytes((tmp / "t.tensors.bgrd").read_bytes())
        io.write_grid(tmp / "empty.mask.bgrd", np.zeros((8, 8, 0)), "u8")
        assert run_cli("evaluate", "--tensors", tmp / "empty.tensors.bgrd",
                       "--pred", "oracle", "--config", cfg, "--report", tmp / "r.json") == 3
        assert f"mask grid {tmp / 'empty.mask.bgrd'}: 0 channels; expected 1" \
            in capsys.readouterr().err

    @pytest.mark.parametrize("fault", ["f32", "nan", "value-2"])
    def test_bad_mask_writes_nothing(self, tensorized, capsys, fault):
        # read with astype(bool), each was scored at exit 0: a NaN pixel
        # counted as valid
        tmp, cfg = tensorized
        mask = tmp / "t.mask.bgrd"
        grid = io.read_grid(mask)
        if fault == "value-2":
            grid[0, 0] = 2
            io.write_grid(mask, grid, "u8")
        else:
            grid = grid.astype(np.float32)
            if fault == "nan":
                grid[grid == 0] = np.nan
            io.write_grid(mask, grid, "f32")
        assert run_cli("evaluate", "--tensors", tmp / "t.tensors.bgrd", "--pred", "oracle",
                       "--config", cfg, "--report", tmp / "r.json") == 3
        assert f"mask grid {mask}: expected u8 values 0 to 1" in capsys.readouterr().err
        assert sorted(p.name for p in tmp.glob("r*")) == []

    def test_garbage_mask_names_file(self, tensorized, capsys):
        # the error names the mask, not only the byte offset
        tmp, cfg = tensorized
        (tmp / "t.mask.bgrd").write_bytes(b"garbage")
        assert run_cli("evaluate", "--tensors", tmp / "t.tensors.bgrd", "--pred", "oracle",
                       "--config", cfg, "--report", tmp / "r.json") == 3
        assert f"grid {tmp / 't.mask.bgrd'}: bad magic at byte offset 0" \
            in capsys.readouterr().err
        assert not (tmp / "r.json").exists()

    def test_mask_magic_is_the_whole_first_token(self, tensorized, capsys):
        # a header that only starts with BGRD1 was read as a BGRD1 grid
        tmp, cfg = tensorized
        mask = tmp / "t.mask.bgrd"
        mask.write_bytes(b"BGRD10" + mask.read_bytes()[len(b"BGRD1"):])
        assert run_cli("evaluate", "--tensors", tmp / "t.tensors.bgrd", "--pred", "oracle",
                       "--config", cfg, "--report", tmp / "r.json") == 3
        assert f"grid {mask}: bad magic at byte offset 0: expected b'BGRD1', got b'BGRD10'" \
            in capsys.readouterr().err
        assert sorted(p.name for p in tmp.glob("r*")) == []

    def test_overflowing_link_budget_numeric_failure(self, tensorized, capsys):
        # the oracle's rates overflowed to inf and the report held NaN tpr
        # values at exit 0, which `report` then rejected
        tmp, _ = tensorized
        cfg = tmp / "loud.json"
        cfg.write_text(json.dumps({"scene": {"rows": 32, "cols": 32},
                                   "budget": {"tx_power_dbm": 4000}}))
        assert run_cli("evaluate", "--tensors", tmp / "t.tensors.bgrd", "--pred", "oracle",
                       "--config", cfg, "--report", tmp / "r.json",
                       "--scene", tmp / "s.scene.bgrd", "--tx", tmp / "s.tx.json") == 4
        assert "numeric failure: the summed optimal rate is not finite" \
            in capsys.readouterr().err
        assert sorted(p.name for p in tmp.glob("r*")) == []

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

    def test_non_finite_logits_grid_exit_code(self, tensorized, capsys):
        # NaN ranks last, so a NaN channel gave a plausible report at exit 0
        tmp, cfg = tensorized
        logits = np.random.default_rng(3).normal(0, 1, (8, 8, 128)).astype(np.float32)
        logits[:, :, 5] = np.nan
        io.write_grid(tmp / "nan.bgrd", logits)
        assert run_cli("evaluate", "--tensors", tmp / "t.tensors.bgrd",
                       "--pred", tmp / "nan.bgrd", "--config", cfg,
                       "--report", tmp / "nan.json") == 3
        assert "holds a non-finite score" in capsys.readouterr().err
        assert not (tmp / "nan.json").exists()

    def test_non_finite_model_weight_exit_code(self, tensorized, capsys):
        tmp, cfg = tensorized
        model = pr.SoftmaxModel.create(len(pr.FEATURE_NAMES), (8, 4, 4))
        model.weights[3, 7] = np.inf
        io.save_model(tmp / "inf.bgmdl", model)
        assert run_cli("evaluate", "--tensors", tmp / "t.tensors.bgrd",
                       "--pred", tmp / "inf.bgmdl", "--config", cfg,
                       "--report", tmp / "inf.json", "--scene", tmp / "s.scene.bgrd",
                       "--tx", tmp / "s.tx.json") == 3
        assert "holds a non-finite weight" in capsys.readouterr().err
        assert not (tmp / "inf.json").exists()

    @pytest.mark.parametrize("where, value", [
        ("one_valid", np.nan), ("one_valid", -1e-3), ("one_valid", np.inf), ("all", np.nan),
        ("all", np.uint8(7)),
    ], ids=["nan", "negative", "inf", "all-nan", "u8"])
    def test_bad_beam_power_exit_code(self, tensorized, capsys, where, value):
        # before: NaN scored a top-1 accuracy below 1 at exit 0, -1e-3 gave a
        # log10 warning at exit 0, an all-NaN grid exited 4, and a u8 grid
        # of 7s wrote a full report at exit 0
        tmp, cfg = tensorized
        tensors = io.read_grid(tmp / "t.tensors.bgrd")
        valid = io.read_grid(tmp / "t.mask.bgrd")[:, :, 0].astype(bool)
        if where == "all":
            tensors = np.full(tensors.shape, value)
        else:
            r, c = np.argwhere(valid)[0]
            tensors[r, c, 9] = value
        u8 = tensors.dtype == np.uint8
        io.write_grid(tmp / "bad.tensors.bgrd", tensors, "u8" if u8 else "f32")
        (tmp / "bad.mask.bgrd").write_bytes((tmp / "t.mask.bgrd").read_bytes())
        assert run_cli("evaluate", "--tensors", tmp / "bad.tensors.bgrd",
                       "--pred", "oracle", "--config", cfg,
                       "--report", tmp / "bad.json") == 3
        assert ("bad.tensors.bgrd: expected f32 powers" if u8 else
                "bad.tensors.bgrd holds a NaN, infinite or negative power") \
            in capsys.readouterr().err
        assert not (tmp / "bad.json").exists()

    def test_model_header_not_an_object_exit_code(self, tensorized):
        tmp, cfg = tensorized
        (tmp / "m.bgmdl").write_bytes(
            b'["BGMDL1"]\n' + grid_to_bytes(np.zeros((15, 128))))
        assert run_cli("evaluate", "--tensors", tmp / "t.tensors.bgrd",
                       "--pred", tmp / "m.bgmdl", "--config", cfg,
                       "--report", tmp / "m.json", "--scene", tmp / "s.scene.bgrd",
                       "--tx", tmp / "s.tx.json") == 3

    def test_model_outputs_not_score_columns_exit_code(self, tensorized, capsys):
        # a CE (joint) model over the 8x4x4 codebook ranks 128 columns; this
        # header says 5 outputs and its weight grid has 5, so before the
        # check the run scored 5 columns as if they were beams at exit 0
        tmp, cfg = tensorized
        header = {"magic": "BGMDL1", "dims": [8, 4, 4], "loss_kind": "CE", "sep": False,
                  "seed": 0, "epsilon": None, "floor_db": -30.0,
                  "feature_version": pr.FEATURE_VERSION,
                  "features": len(pr.FEATURE_NAMES), "outputs": 5}
        weights = np.random.default_rng(0).normal(0, 1, (len(pr.FEATURE_NAMES) + 1, 5))
        (tmp / "m.bgmdl").write_bytes(json.dumps(header).encode("ascii") + b"\n"
                                      + grid_to_bytes(weights))
        assert run_cli("evaluate", "--tensors", tmp / "t.tensors.bgrd",
                       "--pred", tmp / "m.bgmdl", "--config", cfg,
                       "--report", tmp / "m.json", "--scene", tmp / "s.scene.bgrd",
                       "--tx", tmp / "s.tx.json") == 3
        assert "outputs 5 is not the 128 score columns" in capsys.readouterr().err
        assert not (tmp / "m.json").exists()

    def test_model_dims_not_config_dims_exit_code(self, tensorized, capsys):
        # a CE-sep model over (4, 8, 4) ranks 128 beams, as many as the
        # 8x4x4 tensors hold, but in its own (Na, Ne, Nr) layout; before the
        # check the run scored it at exit 0
        tmp, cfg = tensorized
        model = pr.SoftmaxModel.create(len(pr.FEATURE_NAMES), (4, 8, 4),
                                       pr.LossConfig("CE", sep=True))
        io.save_model(tmp / "m.bgmdl", model)
        assert run_cli("evaluate", "--tensors", tmp / "t.tensors.bgrd",
                       "--pred", tmp / "m.bgmdl", "--config", cfg,
                       "--report", tmp / "m.json", "--scene", tmp / "s.scene.bgrd",
                       "--tx", tmp / "s.tx.json") == 3
        assert "codebook dims [4, 8, 4]; the config's are [8, 4, 4]" in capsys.readouterr().err
        assert not (tmp / "m.json").exists()

    def test_grid_with_model_magic_in_payload_is_scored(self, tmp_path):
        # a u8 logits grid whose payload starts with the model magic within
        # the file's first 22 bytes is still a grid, not a model file
        dims, k_list = (6, 1, 1), [1, 2]
        (tmp_path / "cfg.json").write_text(json.dumps({
            "codebook": dict(zip(("Na", "Ne", "Nr"), dims)), "eval": {"k_list": k_list}}))
        tensors = np.random.default_rng(3).uniform(1e-12, 1e-10, (2, 2, 6)).astype(np.float32)
        valid = np.ones((2, 2), dtype=bool)
        io.write_grid(tmp_path / "t.tensors.bgrd", tensors)
        io.write_grid(tmp_path / "t.mask.bgrd", valid.astype(np.uint8), "u8")
        grid = np.arange(24, dtype=np.uint8).reshape(2, 2, 6)
        grid[0, 0] = list(io.MODEL_MAGIC)
        io.write_grid(tmp_path / "p.bgrd", grid, "u8")
        assert run_cli("evaluate", "--tensors", tmp_path / "t.tensors.bgrd",
                       "--pred", tmp_path / "p.bgrd", "--config", tmp_path / "cfg.json",
                       "--report", tmp_path / "r.json") == 0
        report, images = evaluate_reference(tensors, valid, grid.astype(np.float64), dims,
                                            "joint", k_list, mt.LinkBudget())
        assert_report_matches(io.load_report(tmp_path / "r.json"), report)
        assert_rank_grid_matches(tmp_path / "r.rank.bgrd", k_list, images)


@st.composite
def evaluate_inputs(draw, source):
    """Inputs of one evaluate run of the given prediction source: (dims,
    tensors, valid, factor, seed). Every pixel has a positive peak power
    (f32, with zeros and ties), and no, one, some or every pixel is valid."""
    dims = tuple(draw(st.integers(1, 3)) for _ in range(3))
    b = math.prod(dims)
    counts = [b, sum(dims), 3]
    if source in ("joint", "sep", "ir"):
        # a grid whose channel count fits more than one kind is rejected
        assume(counts.count(counts[("joint", "sep", "ir").index(source)]) == 1)
    rows, cols = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    tensors = np.round(rng.uniform(0, 3, (rows, cols, b))) * 1e-9
    tensors[rng.uniform(size=(rows, cols, b)) < 0.3] = 0.0
    tensors[:, :, 0] += 1e-9 * (tensors.max(axis=2) == 0)
    valid = draw(validity_masks(rows, cols))
    return dims, tensors.astype(np.float32), valid, draw(st.sampled_from([1, 2, 3])), seed


class TestEvaluateMatchesReference:
    """evaluate scores and ranks the valid pixels alone; its report must
    keep the bytes of the whole-grid code it replaced (conftest), and its
    rank grid the hit maps of that code at every k, for every kind of
    prediction and with no, one or every pixel valid: the rank grid
    thresholded at each k the hit map and the report those of the
    sample-by-sample reference scorer (the throughput ratios to its
    tolerance), and the report's bytes those of metrics.evaluate_ranking on
    the whole-grid ranking."""

    @pytest.mark.parametrize("source", ["oracle", "joint", "sep", "ir",
                                        "model-CE", "model-CE-sep", "model-IR"])
    @given(data=st.data())
    @settings(deadline=None, max_examples=40)
    def test_same_report_bytes(self, source, data):
        dims, tensors, valid, factor, seed = data.draw(evaluate_inputs(source))
        rows, cols, b = tensors.shape
        rng = np.random.default_rng(seed + 1)
        k_list = list(range(1, b + 1))
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            (tmp / "cfg.json").write_text(json.dumps({
                "codebook": dict(zip(("Na", "Ne", "Nr"), dims)), "eval": {"k_list": k_list}}))
            io.write_grid(tmp / "t.tensors.bgrd", tensors)
            io.write_grid(tmp / "t.mask.bgrd", valid.astype(np.uint8), "u8")
            write_los(tmp / "t.los.bgrd", rows * factor, cols * factor)
            site = []
            if source == "oracle":
                pred, kind = "oracle", "joint"
                scores = oracle_reference(tensors.astype(np.float64))
            elif source.startswith("model"):
                loss = pr.LossConfig(source.split("-")[1], source.endswith("sep"))
                model = pr.SoftmaxModel.create(len(pr.FEATURE_NAMES), dims, loss)
                model.weights = rng.normal(0, 1, model.weights.shape)
                model.bias = rng.normal(0, 1, model.bias.shape)
                pred = tmp / "m.bgmdl"
                io.save_model(pred, model)
                model, kind = io.load_model(pred), model.kind
                heights = np.round(rng.uniform(0, 20, (rows * factor, cols * factor)))
                heights[rng.uniform(size=heights.shape) < 0.5] = 0.0
                io.write_grid(tmp / "s.scene.bgrd",
                              np.stack([heights, np.zeros_like(heights)], axis=-1))
                tx = sc.TxSite((int(rng.integers(rows * factor)), int(rng.integers(cols * factor))),
                               25.0, ch.ArrayFrame(0.3, 0.2))
                io.save_tx_site(tmp / "s.tx.json", tx)
                site = ["--scene", tmp / "s.scene.bgrd", "--tx", tmp / "s.tx.json"]
                hm = sc.HeightMap(heights, np.zeros_like(heights))
                scores = predict_reference(model, pr.build_features(
                    sc.pool_heightmap(hm, factor), sc.pool_tx(tx, factor)))
            else:
                kind = source
                c = {"joint": b, "sep": sum(dims), "ir": 3}[kind]
                grid = (np.round(rng.normal(0, 2, (rows, cols, c)) * 2) / 2).astype(np.float32)
                pred = tmp / "p.bgrd"
                io.write_grid(pred, grid)
                scores = grid.astype(np.float64)
            code = run_cli("evaluate", "--tensors", tmp / "t.tensors.bgrd", "--pred", pred,
                           "--config", tmp / "cfg.json", "--report", tmp / "r.json", *site)
            if not valid.any():
                assert code == 4 and not (tmp / "r.json").exists()
                return
            assert code == 0
            report, images = evaluate_reference(tensors, valid, scores, dims, kind,
                                                k_list, mt.LinkBudget())
            assert_report_matches(io.load_report(tmp / "r.json"), report)
            # the bytes of the scorer's report on the whole-grid ranking
            ref, _ = mt.evaluate_ranking(
                tensors.astype(np.float64)[valid],
                flat_ranking_reference(scores, valid, dims, kind), k_list, mt.LinkBudget(),
                excluded=int((~valid).sum()))
            io.save_report(tmp / "ref.json", ref)
            assert (tmp / "r.json").read_bytes() == (tmp / "ref.json").read_bytes()
            assert_rank_grid_matches(tmp / "r.rank.bgrd", k_list, images)


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

    def test_history_and_best_epoch(self, scene_dir, capsys):
        # the history always goes beside the model
        tmp, cfg, scenes = scene_dir
        with pytest.raises(SystemExit) as exc:
            run_cli("train", "--scenes", scenes, "--config", cfg,
                    "--model-out", tmp / "m.bgmdl", "--history-out", tmp / "h.csv")
        assert exc.value.code == 2
        assert not (tmp / "h.csv").exists()
        capsys.readouterr()
        assert run_cli("train", "--scenes", scenes, "--config", cfg,
                       "--model-out", tmp / "m.bgmdl") == 0
        best_epoch = int(capsys.readouterr().out.split("best_epoch=")[1].split()[0])
        lines = (tmp / "m.bgmdl.history.csv").read_text().strip().splitlines()
        assert lines[0] == "epoch,train_loss,val_loss,lr"
        rows = [line.split(",") for line in lines[1:]]
        assert [int(r[0]) for r in rows] == list(range(len(rows)))
        val = [float(r[2]) for r in rows]
        # best-state selection: the printed best epoch is the first minimum
        # of the history's val_loss, and the model holds that epoch's
        # weights, so training stopped right after it writes the same file
        assert best_epoch == val.index(min(val)) and best_epoch + 1 < len(rows)
        doc = json.loads(cfg.read_text())
        doc["train"] = {"epochs": best_epoch + 1}
        (tmp / "stop.json").write_text(json.dumps(doc))
        assert run_cli("train", "--scenes", scenes, "--config", tmp / "stop.json",
                       "--model-out", tmp / "stop.bgmdl") == 0
        assert (tmp / "stop.bgmdl").read_bytes() == (tmp / "m.bgmdl").read_bytes()

    def test_tensors_of_another_codebook_exit_code(self, scene_dir, capsys):
        # 8x4x4 tensors (128 beams) trained under a 4x4x4 codebook: each row
        # was read as two samples of 64 beams, and a model was written at
        # exit 0
        tmp, _, scenes = scene_dir
        cfg = tmp / "cb64.json"
        cfg.write_text(json.dumps({"scene": {"rows": 32, "cols": 32},
                                   "codebook": {"Na": 4, "Ne": 4, "Nr": 4}}))
        stem = self._first_train_stem(cfg, scenes)
        assert run_cli("train", "--scenes", scenes, "--config", cfg,
                       "--model-out", tmp / "m.bgmdl") == 3
        assert f"beam power grid {stem}.tensors.bgrd: 128 channels; expected 64 " \
            "(codebook dims [4, 4, 4])" in capsys.readouterr().err
        assert sorted(p.name for p in tmp.glob("m.*")) == []

    @pytest.mark.parametrize("n, sizes", [(3, (1, 1, 1)), (12, (9, 1, 2)), (20, (16, 2, 2))])
    def test_split_sizes(self, n, sizes):
        # 80/10/10 rounded down, every split non-empty
        stems = [f"c{i:02d}" for i in range(n)]
        splits = cli._split_scenes(stems, 0)
        assert tuple(map(len, splits)) == sizes
        assert sorted(sum(splits, [])) == stems

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

    @staticmethod
    def _first_train_stem(cfg, scenes):
        stems = sorted(str(p)[:-len(".scene.bgrd")] for p in scenes.glob("*.scene.bgrd"))
        return cli._split_scenes(stems, io.load_config(cfg).train.seed)[0][0]

    def test_garbage_mask_named_once(self, scene_dir, capsys):
        # the grid reader names the file; no scene stem is put before it
        tmp, cfg, scenes = scene_dir
        stem = self._first_train_stem(cfg, scenes)
        Path(f"{stem}.mask.bgrd").write_bytes(b"garbage")
        assert run_cli("train", "--scenes", scenes, "--config", cfg,
                       "--model-out", tmp / "m.bgmdl") == 3
        assert f"error: grid {stem}.mask.bgrd: bad magic at byte offset 0" \
            in capsys.readouterr().err
        assert not (tmp / "m.bgmdl").exists()

    def test_nan_mask_exit_code(self, scene_dir, capsys):
        tmp, cfg, scenes = scene_dir
        stem = self._first_train_stem(cfg, scenes)
        grid = io.read_grid(f"{stem}.mask.bgrd").astype(np.float32)
        grid[grid == 0] = np.nan
        io.write_grid(f"{stem}.mask.bgrd", grid, "f32")
        assert run_cli("train", "--scenes", scenes, "--config", cfg,
                       "--model-out", tmp / "m.bgmdl") == 3
        assert f"mask grid {stem}.mask.bgrd: expected u8 values 0 to 1" \
            in capsys.readouterr().err
        assert not (tmp / "m.bgmdl").exists()

    @pytest.mark.parametrize("kind, message", [
        ("GR", "no epoch gave a finite validation loss"),
        ("CE", "the trained weights overflow the model file's f32"),
    ], ids=["no-finite-val-loss", "f32-overflow"])
    def test_unusable_training_numeric_failure(self, scene_dir, capsys, kind, message):
        # GR saved the untrained weights as best_epoch=0 val_loss=inf, CE
        # wrote inf weights that evaluate rejects, both at exit 0
        tmp, _, scenes = scene_dir
        cfg = tmp / "huge-lr.json"
        cfg.write_text(json.dumps({"scene": {"rows": 32, "cols": 32},
                                   "train": {"lr": 1e300}, "loss": {"kind": kind}}))
        assert run_cli("train", "--scenes", scenes, "--config", cfg,
                       "--model-out", tmp / "m.bgmdl") == 4
        assert message in capsys.readouterr().err
        assert sorted(p.name for p in tmp.glob("m.*")) == []

    @pytest.mark.parametrize("tensor_rows, mask_rows, message", [
        (8, 4, "mask grid {stem}.mask.bgrd (4, 4) vs tensor grid {stem}.tensors.bgrd (8, 8)"),
        (5, 5, "scene grid {stem}.scene.bgrd 32x32 is not an integer multiple "
               "of the tensor grid 5x5"),
    ], ids=["mask-vs-tensors", "scene-vs-tensors"])
    def test_grid_mismatch_names_files(self, scene_dir, capsys, tensor_rows, mask_rows,
                                       message):
        tmp, cfg, scenes = scene_dir
        stem = self._first_train_stem(cfg, scenes)
        io.write_grid(f"{stem}.tensors.bgrd",
                      np.ones((tensor_rows, tensor_rows, 128), dtype=np.float32))
        io.write_grid(f"{stem}.mask.bgrd", np.ones((mask_rows, mask_rows), dtype=np.uint8), "u8")
        assert run_cli("train", "--scenes", scenes, "--config", cfg,
                       "--model-out", tmp / "m.bgmdl") == 3
        assert f"error: {message.format(stem=stem)}\n" == capsys.readouterr().err
        assert not (tmp / "m.bgmdl").exists()

    @pytest.mark.parametrize("value", [np.nan, -1e-3, np.uint8(7)],
                             ids=["nan", "negative", "u8"])
    def test_bad_beam_power_exit_code(self, scene_dir, capsys, value):
        # a scene that train reads samples of; a u8 grid of 7s trained a
        # model at exit 0
        tmp, cfg, scenes = scene_dir
        stem = self._first_train_stem(cfg, scenes)
        tensors = io.read_grid(f"{stem}.tensors.bgrd")
        valid = io.read_grid(f"{stem}.mask.bgrd")[:, :, 0].astype(bool)
        u8 = isinstance(value, np.uint8)
        if u8:
            tensors = np.full(tensors.shape, value)
        else:
            r, c = np.argwhere(valid)[0]
            tensors[r, c, 0] = value
        io.write_grid(f"{stem}.tensors.bgrd", tensors, "u8" if u8 else "f32")
        assert run_cli("train", "--scenes", scenes, "--config", cfg,
                       "--model-out", tmp / "m.bgmdl") == 3
        assert (f"{stem}.tensors.bgrd: expected f32 powers" if u8 else
                f"{stem}.tensors.bgrd holds a NaN, infinite or negative power") \
            in capsys.readouterr().err
        assert not (tmp / "m.bgmdl").exists()

    def test_empty_validation_split_exit_code(self, scene_dir, capsys):
        # the epoch was chosen by the train loss, printed as val_loss, and
        # the model written at exit 0
        tmp, cfg, scenes = scene_dir
        stems = sorted(str(p).removesuffix(".scene.bgrd") for p in scenes.glob("*.scene.bgrd"))
        stem = cli._split_scenes(stems, io.load_config(cfg).train.seed)[1][0]
        mask = io.read_grid(f"{stem}.mask.bgrd")
        io.write_grid(f"{stem}.mask.bgrd", np.zeros_like(mask), "u8")
        assert run_cli("train", "--scenes", scenes, "--config", cfg,
                       "--model-out", tmp / "m.bgmdl") == 3
        assert "error: no valid pixels to validate on" in capsys.readouterr().err
        assert sorted(p.name for p in tmp.glob("m.*")) == []

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

    def test_non_finite_height_names_scene(self, scene_dir, capsys):
        # the error names the corpus scene whose height is not finite
        tmp, cfg, scenes = scene_dir
        grid = io.read_grid(scenes / "c1.scene.bgrd")
        grid[3, 4, 0] = np.nan
        io.write_grid(scenes / "c1.scene.bgrd", grid)
        assert run_cli("train", "--scenes", scenes, "--config", cfg,
                       "--model-out", tmp / "m.bgmdl") == 3
        assert f"scene grid {scenes / 'c1.scene.bgrd'}: heights must be finite" \
            in capsys.readouterr().err
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


class TestConfigFaults:
    @pytest.fixture(scope="class")
    def inputs(self, tmp_path_factory):
        """A generated, traced and tensorized scene; the stages below run
        on it under a bad config."""
        tmp = tmp_path_factory.mktemp("faults")
        cfg = write_config(tmp / "cfg.json")
        for argv in (("generate", "--rows", 32, "--cols", 32, "--seed", 1,
                      "--out", tmp / "s.scene.bgrd", "--tx-out", tmp / "s.tx.json"),
                     ("trace", "--scene", tmp / "s.scene.bgrd", "--tx", tmp / "s.tx.json",
                      "--out", tmp / "s.paths.csv"),
                     ("tensorize", "--paths", tmp / "s.paths.csv", "--tx", tmp / "s.tx.json",
                      "--out", tmp / "s")):
            assert run_cli(*argv, "--config", cfg) == 0
        return tmp

    STAGES = {
        "generate": lambda t: (("--rows", 32, "--cols", 32, "--seed", 1,
                                "--out", t / "out.scene.bgrd"), t / "out.scene.bgrd"),
        "trace": lambda t: (("--scene", t / "s.scene.bgrd", "--tx", t / "s.tx.json",
                             "--out", t / "out.csv"), t / "out.csv"),
        "tensorize": lambda t: (("--paths", t / "s.paths.csv", "--tx", t / "s.tx.json",
                                 "--out", t / "out"), t / "out.tensors.bgrd"),
        "evaluate": lambda t: (("--tensors", t / "s.tensors.bgrd", "--pred", "oracle",
                                "--report", t / "out.json"), t / "out.json"),
        "train": lambda t: (("--scenes", t, "--model-out", t / "out.bgmdl"),
                            t / "out.bgmdl"),
    }

    @pytest.mark.parametrize("stage", sorted(STAGES))
    @pytest.mark.parametrize("doc, message", [
        ({"eval": {"k_list": []}}, "k_list must not be empty"),
        ({"eval": {"k_list": [2, 1, 2]}}, "k_list must be strictly increasing"),
        ({"eval": {"k_list": [0]}}, "k_list must be strictly increasing from k >= 1"),
        ({"eval": {"k_list": [1, 129]}}, "k=129, beyond the codebook's 128 beams"),
        ({"codebook": {"Na": 0}}, "codebook dimensions must be >= 1"),
        ({"scene": {"rows": 0}}, "rows must be > 0, got 0"),
        ({"scene": {"rows": -4}}, "rows must be > 0, got -4"),
        ({"scene": {"cols": 0}}, "cols must be > 0, got 0"),
        ({"loss": {"kind": "foo"}}, "unknown loss kind 'FOO'"),
        ({"loss": {"floor_db": 0}}, "floor_db must be below the 0 dB peak, got 0"),
        ({"loss": {"floor_db": 5}}, "floor_db must be below the 0 dB peak, got 5"),
    ], ids=["empty-k-list", "unsorted-k-list", "zero-k", "k-beyond-beams", "zero-Na",
            "zero-rows", "negative-rows", "zero-cols", "unknown-loss-kind", "zero-floor",
            "positive-floor"])
    def test_bad_value_exit_code(self, inputs, capsys, stage, doc, message):
        # every stage loads the whole config, so each rejects the value
        # before it reads an input or writes an output
        cfg = inputs / "bad.json"
        cfg.write_text(json.dumps({"scene": {"rows": 32, "cols": 32}, **doc}))
        argv, output = self.STAGES[stage](inputs)
        assert run_cli(stage, *argv, "--config", cfg) == 3
        assert message in capsys.readouterr().err
        assert not output.exists()


class TestImport:
    def test_cli_import_leaves_scipy_unloaded(self):
        env = dict(os.environ, PYTHONPATH=str(Path(beamgrid.__file__).parents[1]))
        res = subprocess.run(
            [sys.executable, "-c",
             "import sys, beamgrid.cli; print('scipy' in sys.modules)"],
            env=env, capture_output=True, text=True, check=True, timeout=120)
        assert res.stdout.strip() == "False"

    def test_cli_import_leaves_hashlib_unloaded(self):
        # hashlib maps OpenSSL (~3.5 MB of resident memory) into the process;
        # only train's scene split uses it
        env = dict(os.environ, PYTHONPATH=str(Path(beamgrid.__file__).parents[1]))
        res = subprocess.run(
            [sys.executable, "-c",
             "import sys, beamgrid.cli; "
             "print(sorted({'hashlib', '_hashlib'} & set(sys.modules)))"],
            env=env, capture_output=True, text=True, check=True, timeout=120)
        assert res.stdout.strip() == "[]"

    def test_cli_import_leaves_concurrent_futures_unloaded(self):
        # only train imports its thread pool
        env = dict(os.environ, PYTHONPATH=str(Path(beamgrid.__file__).parents[1]))
        res = subprocess.run(
            [sys.executable, "-c",
             "import sys, beamgrid.cli; print('concurrent.futures' in sys.modules)"],
            env=env, capture_output=True, text=True, check=True, timeout=120)
        assert res.stdout.strip() == "False"


class TestEntryPoint:
    """python -m beamgrid.cli, the way the stage benchmark runs each stage:
    a child interpreter whose stdout is a pipe, ended through cli.run()."""

    @staticmethod
    def child(*args, cwd):
        env = dict(os.environ, PYTHONPATH=str(Path(beamgrid.__file__).parents[1]))
        return subprocess.run([sys.executable, *map(str, args)], cwd=cwd, env=env,
                              capture_output=True, text=True, timeout=120)

    def test_piped_stdout_is_complete(self, pipeline, capsys):
        tmp, cfg = pipeline
        res = self.child("-m", "beamgrid.cli", "trace", "--scene", "s.scene.bgrd",
                         "--tx", "s.tx.json", "--config", cfg, "--out", "p.csv", cwd=tmp)
        assert res.returncode == 0, res.stderr
        capsys.readouterr()
        assert run_cli("trace", "--scene", tmp / "s.scene.bgrd", "--tx", tmp / "s.tx.json",
                       "--config", cfg, "--out", tmp / "q.csv") == 0
        assert res.stdout == capsys.readouterr().out
        assert res.stdout.startswith("pixels=1024 street_pixels=")
        assert (tmp / "p.csv").read_bytes() == (tmp / "q.csv").read_bytes()

        report = mt.EvalReport([1, 2, 4], [0.5, 0.625, 0.75], [0.7, 0.8, 0.9], 10, 2)
        io.save_report(tmp / "r.json", report)
        res = self.child("-m", "beamgrid.cli", "report", "--report", "r.json", cwd=tmp)
        assert res.returncode == 0, res.stderr
        assert res.stdout == io.render_table(report) + "\n"

    @pytest.mark.parametrize("args, code, message", [
        ((), 2, "usage: beamgrid"),
        (("report", "--report", "missing.json"), 3, "error:"),
        (("generate", "--rows", 32, "--cols", 32, "--out", "s.bgrd", "--config", "big.json"),
         4, "numeric failure: "),
    ], ids=["usage", "data", "numeric"])
    def test_exit_codes(self, tmp_path, args, code, message):
        write_config(tmp_path / "big.json", tx_mast_m=1e300)
        res = self.child("-m", "beamgrid.cli", *args, cwd=tmp_path)
        assert res.returncode == code
        assert message in res.stderr
        assert res.stdout == ""

    def test_run_freezes_the_collector(self, tmp_path):
        io.save_report(tmp_path / "r.json", mt.EvalReport([1], [0.5], [0.7], 10, 2))
        res = self.child("-c", "import gc, sys; from beamgrid import cli; "
                         "sys.argv = ['beamgrid', 'report', '--report', 'r.json']; "
                         "code = cli.run(); print(code, gc.get_freeze_count() > 0)",
                         cwd=tmp_path)
        assert res.returncode == 0, res.stderr
        assert res.stdout.splitlines()[-1] == "0 True"

    def test_main_leaves_the_collector_unfrozen(self, tmp_path):
        before = gc.get_freeze_count()
        assert run_cli("generate", "--rows", 32, "--cols", 32,
                       "--out", tmp_path / "s.bgrd") == 0
        assert gc.get_freeze_count() == before


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
