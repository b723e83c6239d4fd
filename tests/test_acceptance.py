"""Acceptance suite: one test per release criterion, each printing a
PASS line with the measured figure once its assertions hold."""

import json
import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from beamgrid import channel as ch
from beamgrid import losses as lo
from beamgrid import metrics as mt
from beamgrid import predictor as pr
from beamgrid import scene as sc

from conftest import (FLOOR_DB, beam_tensor_reference, beam_weights, block_grid, ce_loss,
                      cep_loss, cep_target_reference,
                      downscale_consistency, downscale_grid, gr_loss, grad_check,
                      instantaneous_gain_reference, ir_loss, one_pixel_tensor,
                      path_gains_reference, pixel_exclusion, tensor_grid, ws_loss)

K_LIST = [1, 2, 4, 8, 16, 32]


def make_scene(seed, rows=64, cols=64):
    hm = sc.generate_city(rows, cols, seed=seed)
    tx = sc.place_tx(hm, seed=seed)
    return hm, tx


def scene_tensors(hm, tx, codebook, budget, downscale=None):
    chans = sc.trace_paths(hm, tx, sc.SceneConfig())
    if not downscale:
        tensors = tensor_grid(chans, codebook, tx.frame)
        return tensors, ~pixel_exclusion(tensors, budget)
    pixel_ids, rows = sc.effective_tensor_map(chans, codebook, tx.frame)
    kept = ~mt.exclusion_mask(rows.reshape(pixel_ids.size, -1), budget)
    tensors, blocks = block_grid(*sc.downscale_tensor_map(
        pixel_ids, rows, (hm.rows, hm.cols), kept, downscale))
    return tensors, blocks & ~pixel_exclusion(tensors, budget)


def test_oracle_identity_and_runtime(codebook):
    budget = mt.LinkBudget()
    elapsed = None
    samples = 0
    for seed in (100, 101, 102):
        hm, tx = make_scene(seed=seed)
        start = time.perf_counter()
        chans = sc.trace_paths(hm, tx, sc.SceneConfig())
        tensors = tensor_grid(chans, codebook, tx.frame)
        valid = ~pixel_exclusion(tensors, budget)
        samples = tensors[valid].reshape(int(valid.sum()), -1)
        rankings = pr.flat_ranking(pr.oracle_predictor(samples), (8, 4, 4), "joint")
        report, _ = mt.evaluate_ranking(samples, rankings, K_LIST, budget)
        if elapsed is None:
            elapsed = time.perf_counter() - start
        assert all(a == 1.0 for a in report.accuracy)
        assert all(t == 1.0 for t in report.tpr)
        samples += report.samples
    assert elapsed < 10.0
    print(f"\nPASS  oracle identity: acc=tpr=1.0 for k={K_LIST} on 3 scenes "
          f"({samples} samples), 64x64 runtime {elapsed:.2f}s < 10s")


def test_single_path_energy_conservation(codebook):
    rng = np.random.default_rng(200)
    worst = 0.0
    frame = ch.ArrayFrame(0.9, math.pi / 4)
    for _ in range(1000):
        mag = rng.uniform(0.1, 3.0, 1)
        tensor = one_pixel_tensor(mag, rng.uniform(0, 2 * np.pi, 1),
                                  rng.uniform(0, 2 * np.pi, 1), rng.uniform(-1.2, 1.2, 1),
                                  rng.uniform(0, 2 * np.pi, 1), codebook, frame)
        expect = mag[0] ** 2 * codebook.na * codebook.ne
        worst = max(worst, abs(tensor.sum() - expect) / expect)
    assert worst < 1e-9
    print(f"\nPASS  conservation: 1000 single-path tensors sum to "
          f"c^2*Na*Ne, worst rel dev {worst:.2e} < 1e-9")


def test_effective_tensor_bruteforce_equivalence():
    cb = ch.dft_codebook(2, 2, 2)
    rng = np.random.default_rng(300)
    frame = ch.ArrayFrame(0.4, 0.5)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 6))
        mag = rng.uniform(0.1, 2.0, n)
        phase = rng.uniform(0, 2 * np.pi, n)
        az = rng.uniform(0, 2 * np.pi, n)
        el = rng.uniform(-1.2, 1.2, n)
        aoa = rng.uniform(0, 2 * np.pi, n)
        fast = one_pixel_tensor(mag, phase, az, el, aoa, cb, frame)
        brute = beam_tensor_reference(mag, az, el, aoa, cb, frame)
        scale = max(brute.max(), 1e-300)
        worst = max(worst, (np.abs(fast - brute) / scale).max())
    assert worst < 1e-10
    print(f"\nPASS  brute-force equivalence: 100 channels at 2x2x2, "
          f"worst rel dev {worst:.2e} < 1e-10")


def test_metric_dominance_and_monotonicity():
    rng = np.random.default_rng(400)
    budget = mt.LinkBudget()
    m, b = 100, 128
    # equal per-sample peak keeps the rate weights comparable across samples
    tensors = rng.uniform(0.05, 0.6, (m, b)) * 1e-12
    tensors[np.arange(m), rng.integers(0, b, m)] = 1e-12
    ks = list(range(1, b + 1))
    for trial in range(50):
        preds = np.array([rng.permutation(b) for _ in range(m)])
        report, _ = mt.evaluate_ranking(tensors, preds, ks, budget)
        accs, tprs = np.array(report.accuracy), np.array(report.tpr)
        assert np.all(np.diff(accs) >= 0)
        assert np.all(np.diff(tprs) >= 0)
        assert np.all(tprs >= accs)
        assert accs[-1] == 1.0 and tprs[-1] == 1.0
    print("\nPASS  metric dominance: 50 random predictor outputs, "
          "T_k >= Acc_k and both nondecreasing over k=1..128, both exactly 1 at k=128")


def test_gradient_suite():
    rng = np.random.default_rng(500)
    step = 1e-5
    results = {}

    devs = [grad_check(lambda z, t=int(rng.integers(128)):
                       ce_loss(z, t), rng.normal(0, 1, 128), step)
            for _ in range(100)]
    results["CE"] = max(devs)

    devs = []
    for _ in range(100):
        soft = cep_target_reference(rng.uniform(0.01, 1.0, (1, 128)), FLOOR_DB)[0]
        devs.append(grad_check(lambda z, s=soft: cep_loss(z, s),
                               rng.normal(0, 1, 128), step))
    results["CEP"] = max(devs)

    devs = []
    for _ in range(100):
        tensor = rng.uniform(0.01, 1.0, 128)
        devs.append(grad_check(lambda z, t=tensor: gr_loss(z, t),
                               rng.normal(-10, 5, 128), step))
    results["GR"] = max(devs)

    devs = []
    for _ in range(100):
        target = rng.integers(0, (8, 4, 4), size=3).astype(np.float64)
        devs.append(grad_check(lambda z, t=target: ir_loss(z, t),
                               rng.normal(0, 2, 3), step))
    results["IR"] = max(devs)

    dmat = lo.beam_distance_matrix((2, 2, 2))
    devs = [grad_check(lambda z, t=int(rng.integers(8)):
                       ws_loss(z, t, dmat), rng.normal(0, 1, 8), step)
            for _ in range(100)]
    results["WS"] = max(devs)

    assert all(v < 1e-4 for v in results.values()), results
    detail = "  ".join(f"{k}={v:.2e}" for k, v in results.items())
    print(f"\nPASS  gradient suite: 100 random points each, "
          f"max rel deviation {detail} (all < 1e-4)")


def test_downscale_consistency_statistic(codebook):
    budget = mt.LinkBudget()
    preds_all, tensors_all = [], []
    per_scene = []
    for seed in range(20):
        hm, tx = make_scene(seed=seed)
        chans = sc.trace_paths(hm, tx, sc.SceneConfig())
        hi = tensor_grid(chans, codebook, tx.frame)
        hi_valid = ~pixel_exclusion(hi, budget)
        lo_t, _ = downscale_grid(hi, hi_valid, 4)
        acc, tpr = downscale_consistency(hi, lo_t, 1, budget, hi_valid)
        per_scene.append((acc, tpr))
        assert tpr >= acc
        hi_flat = hi.reshape(64, 64, -1)
        lo_rank = pr.flat_ranking(lo_t.reshape(16 * 16, -1), (8, 4, 4), "joint")
        block = (np.arange(64)[:, None] // 4) * 16 + np.arange(64)[None, :] // 4
        preds_all.append(lo_rank[block[hi_valid]])
        tensors_all.append(hi_flat[hi_valid])
    report, _ = mt.evaluate_ranking(np.concatenate(tensors_all), np.concatenate(preds_all),
                                    [1], budget)
    acc1, tpr1 = report.accuracy[0], report.tpr[0]
    assert 0.0 < acc1 < 1.0
    assert tpr1 >= acc1

    # block-constant map: the statistic is exactly perfect
    rng = np.random.default_rng(700)
    lo_c = rng.uniform(0.5, 1.0, (4, 4, 8))
    hi_c = np.repeat(np.repeat(lo_c, 4, axis=0), 4, axis=1)
    wide = mt.LinkBudget(exclusion_threshold_db=-300.0)
    acc_c, tpr_c = downscale_consistency(hi_c, lo_c, 1, wide)
    assert acc_c == 1.0 and tpr_c == 1.0
    print(f"\nPASS  downscale consistency: 20 scenes pooled acc1={acc1:.3f} "
          f"in (0,1), tpr1={tpr1:.3f} >= acc1; block-constant maps exactly 1/1")


def test_trained_model_and_geometric_baseline(codebook):
    budget = mt.LinkBudget()
    start = time.perf_counter()
    xs, ts = [], []
    for seed in range(20):
        hm, tx = make_scene(seed=seed)
        tensors, valid = scene_tensors(hm, tx, codebook, budget, downscale=4)
        feats = pr.build_features(sc.pool_heightmap(hm, 4), sc.pool_tx(tx, 4))
        xs.append(feats[valid])
        ts.append(tensors[valid])
    # scene-level split: 16 train, 2 val, 2 test
    x_train = np.concatenate(xs[:16])
    t_train = np.concatenate(ts[:16])
    x_val = np.concatenate(xs[16:18])
    t_val = np.concatenate(ts[16:18])
    x_test = np.concatenate(xs[18:])
    t_test = np.concatenate(ts[18:])
    model = pr.SoftmaxModel.create(x_train.shape[1], (8, 4, 4), seed=0)
    hyper = pr.TrainConfig(lr=0.5, epochs=150, batch=128)
    trained, _ = pr.train(model, x_train, pr.targets(model, t_train), hyper,
                          x_val, pr.targets(model, t_val))
    elapsed = time.perf_counter() - start
    z = x_test @ trained.weights + trained.bias
    preds = pr.flat_ranking(z, (8, 4, 4), "joint")
    report, _ = mt.evaluate_ranking(t_test, preds, [1, 8], budget)
    acc1, acc8 = report.accuracy
    tpr8 = report.tpr[1]
    assert acc1 > 5 / 128
    assert tpr8 > acc8
    assert elapsed < 300.0

    # geometric baseline on an obstacle-free map
    flat_hm = sc.HeightMap(np.zeros((64, 64)), np.zeros((64, 64)))
    tx = sc.TxSite((32, 32), 18.0, ch.ArrayFrame(0.8, math.pi / 4))
    chans = sc.trace_paths(flat_hm, tx, sc.SceneConfig(vegetation_db_per_m=0.0))
    tensors = tensor_grid(chans, codebook, tx.frame)
    valid = tensors.reshape(64, 64, -1).max(axis=-1) > 0
    logits = pr.geometric_predictor(flat_hm, tx, codebook, 1.5)
    rankings = pr.flat_ranking(logits[valid], (8, 4, 4), "joint")
    report, _ = mt.evaluate_ranking(tensors[valid], rankings, [1], budget)
    geo_acc = report.accuracy[0]
    assert geo_acc >= 0.9
    print(f"\nPASS  trained model: held-out top-1 {acc1:.3f} > {5 / 128:.3f}, "
          f"top-8 tpr {tpr8:.3f} > top-8 acc {acc8:.3f}, "
          f"training {elapsed:.0f}s < 300s; geometric baseline top-1 "
          f"{geo_acc:.3f} >= 0.9 on {len(rankings)} pixels")


def test_phase_free_power_is_mean_of_instantaneous(codebook):
    rng = np.random.default_rng(800)
    mag = rng.uniform(0.5, 2.0, 3)
    az = rng.uniform(0, 2 * np.pi, 3)
    el = rng.uniform(-1.0, 0.5, 3)
    aoa = np.full(3, 0.3)
    frame = ch.ArrayFrame(0.5, math.pi / 4)
    index = (3, 1, ch.sector_index(0.3, codebook.nr))
    beam = beam_weights(codebook, *index)
    g = path_gains_reference(az, el, aoa, *beam, frame)
    m = 100_000
    phases = rng.uniform(0, 2 * np.pi, (m, 3))
    draws = np.abs((mag * np.exp(1j * phases)) @ g) ** 2
    # the vectorised draws are exactly the instantaneous gains, checked on a sample
    for i in rng.integers(0, m, 500):
        assert instantaneous_gain_reference(mag, phases[i], az, el, aoa, *beam,
                                            frame) == pytest.approx(draws[i], rel=1e-12)
    rss = one_pixel_tensor(mag, np.zeros(3), az, el, aoa, codebook, frame)[index]
    rel = abs(draws.mean() - rss) / rss
    assert rel < 0.02
    print(f"\nPASS  phase-freeness: mean of 1e5 instantaneous gains vs "
          f"phase-averaged power, rel dev {rel:.4f} < 2%")


def test_cli_pipeline_byte_identical(tmp_path):
    def run_pipeline(workdir):
        workdir.mkdir()
        cfg = workdir / "cfg.json"
        cfg.write_text(json.dumps({"scene": {"rows": 32, "cols": 32}}))
        env = dict(os.environ)
        steps = [
            ["generate", "--rows", "32", "--cols", "32", "--seed", "5",
             "--out", str(workdir / "s.scene.bgrd"),
             "--tx-out", str(workdir / "s.tx.json"), "--config", str(cfg)],
            ["trace", "--scene", str(workdir / "s.scene.bgrd"),
             "--tx", str(workdir / "s.tx.json"), "--config", str(cfg),
             "--out", str(workdir / "s.paths.csv")],
            ["tensorize", "--paths", str(workdir / "s.paths.csv"),
             "--tx", str(workdir / "s.tx.json"), "--config", str(cfg),
             "--out", str(workdir / "s"), "--downscale", "4"],
            ["evaluate", "--tensors", str(workdir / "s.tensors.bgrd"),
             "--pred", "oracle", "--config", str(cfg),
             "--report", str(workdir / "report.json"),
             "--scene", str(workdir / "s.scene.bgrd"),
             "--tx", str(workdir / "s.tx.json")],
        ]
        for step in steps:
            subprocess.run([sys.executable, "-m", "beamgrid.cli", *step],
                           check=True, env=env, capture_output=True,
                           timeout=300)
        return workdir

    a = run_pipeline(tmp_path / "run_a")
    b = run_pipeline(tmp_path / "run_b")
    names = ["s.scene.bgrd", "s.tx.json", "s.paths.csv", "s.los.bgrd",
             "s.tensors.bgrd", "s.gt.bgrd", "s.mask.bgrd", "report.json",
             "report.rank.bgrd", "report.los.pgm"]
    for name in names:
        assert (a / name).read_bytes() == (b / name).read_bytes(), name
    print("\nPASS  determinism: two full pipeline runs byte-identical "
          f"across {len(names)} artifacts")
