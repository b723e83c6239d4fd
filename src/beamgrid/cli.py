"""Command-line pipeline: generate -> trace -> tensorize -> evaluate/train.

Exit codes: 0 ok, 2 usage error, 3 data error (unreadable/malformed/
inconsistent inputs), 4 numeric failure (solver or undefined statistic).
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from . import gridio, metrics, predictor, scene
from .errors import BeamgridError, GridParseError, InsufficientDataError, NumericError


def _dim(value):
    iv = int(value)
    if iv < 16:
        raise argparse.ArgumentTypeError(f"grid dimension must be >= 16, got {iv}")
    return iv


def _positive(value):
    iv = int(value)
    if iv < 1:
        raise argparse.ArgumentTypeError(f"value must be >= 1, got {iv}")
    return iv


def _load_config(path):
    return gridio.load_config(path) if path else gridio.parse_config({})


def _heightmap_from_grid(grid, resolution_m):
    return scene.HeightMap(grid[:, :, 0].astype(np.float64),
                           grid[:, :, 1].astype(np.float64),
                           resolution_m=resolution_m)


def cmd_generate(args):
    cfg = _load_config(args.config)
    style = cfg.scene.city_style()
    hm = scene.generate_city(args.rows, args.cols, args.seed, style)
    gridio.write_grid(args.out, np.stack([hm.building, hm.vegetation], axis=-1), "f32")
    tx = scene.place_tx(hm, args.seed, mast_m=cfg.scene.tx_mast_m)
    print(json.dumps(gridio.tx_site_to_dict(tx)))
    if args.tx_out:
        gridio.save_tx_site(args.tx_out, tx)
    return 0


def cmd_trace(args):
    cfg = _load_config(args.config)
    hm = _heightmap_from_grid(gridio.read_grid(args.scene), cfg.scene.resolution_m)
    tx = gridio.load_tx_site(args.tx)
    channels = scene.trace_paths(hm, tx, cfg.scene.scene_config(),
                                 rx_height_m=cfg.scene.rx_height_m)
    gridio.write_paths_csv(args.out, channels)
    streets = int(np.count_nonzero(hm.building == 0))
    mean_paths = channels.n_paths / streets if streets else 0.0
    print(f"pixels={hm.rows * hm.cols} street_pixels={streets} "
          f"paths={channels.n_paths} mean_paths={mean_paths:.3f}")
    return 0


def cmd_tensorize(args):
    cfg = _load_config(args.config)
    rows, cols = cfg.scene.rows, cfg.scene.cols
    channels = gridio.read_paths_csv(args.paths, rows, cols)
    tx = gridio.load_tx_site(args.tx)
    codebook = gridio.codebook_from_config(cfg)
    tensors = scene.effective_tensor_map(channels, codebook, tx.frame)
    valid = ~metrics.exclusion_mask(tensors, cfg.budget)
    if args.downscale > 1:
        tensors, block_valid = scene.downscale_tensor_map(tensors, valid, args.downscale)
        valid = block_valid & ~metrics.exclusion_mask(tensors, cfg.budget)
    flat = tensors.reshape(tensors.shape[0], tensors.shape[1], -1)
    # ground truth from the stored (f32-quantised) values, so the emitted
    # artifacts stay mutually consistent under quantisation ties
    gt = np.argmax(flat.astype(np.float32), axis=-1).astype(np.float64)
    out = Path(args.out)
    gridio.write_grid(str(out) + ".tensors.bgrd", flat, "f32")
    gridio.write_grid(str(out) + ".gt.bgrd", gt, "f32")
    gridio.write_grid(str(out) + ".mask.bgrd", valid.astype(np.uint8), "u8")
    print(f"tensors={flat.shape[0]}x{flat.shape[1]}x{flat.shape[2]} "
          f"valid={int(valid.sum())} excluded={int((~valid).sum())}")
    return 0


def _read_site(scene_path, tx_path, cfg):
    """The height map and tx site of one scene."""
    hm = _heightmap_from_grid(gridio.read_grid(scene_path), cfg.scene.resolution_m)
    return hm, gridio.load_tx_site(tx_path)


def _read_tensors(tensors_path, mask_path):
    """Beam tensors and their validity mask, checked to share one grid."""
    tensors = gridio.read_grid(tensors_path).astype(np.float64)
    valid = gridio.read_grid(mask_path)[:, :, 0].astype(bool)
    if valid.shape != tensors.shape[:2]:
        raise GridParseError(
            f"mask grid {valid.shape} vs tensor grid {tensors.shape[:2]}")
    return tensors, valid


def _site_features(hm, tx, shape):
    """Model features of a scene pooled onto a tensor grid of the given shape."""
    rows, cols = shape
    factor = hm.rows // rows if rows else 0
    if factor < 1 or (factor * rows, factor * cols) != (hm.rows, hm.cols):
        raise GridParseError(
            f"scene grid {hm.rows}x{hm.cols} is not an integer multiple of "
            f"the tensor grid {rows}x{cols}")
    return predictor.build_features(scene.pool_heightmap(hm, factor),
                                    scene.pool_tx(tx, factor))


def _prediction_from_args(args, cfg, tensors, valid, site):
    """Resolve --pred: 'oracle', a logits grid, or a model file (which
    needs site, the (height map, tx site) pair)."""
    dims = cfg.codebook.dims
    b = dims[0] * dims[1] * dims[2]
    if args.pred == "oracle":
        return predictor.oracle_predictor(
            tensors.reshape(*tensors.shape[:2], *dims), valid)
    path = Path(args.pred)
    if not path.exists():
        raise GridParseError(f"prediction input {path} does not exist")
    if gridio.is_model_file(path):
        if site is None:
            raise GridParseError(
                "evaluating a model file needs --scene and --tx to build features")
        model = gridio.load_model(path)
        return predictor.predict(model, _site_features(*site, tensors.shape[:2]), valid)
    grid = gridio.read_grid(path).astype(np.float64)
    if grid.shape[:2] != tensors.shape[:2]:
        raise GridParseError(
            f"prediction grid {grid.shape[:2]} vs tensor grid {tensors.shape[:2]}")
    c = grid.shape[2]
    kinds = {b: "joint", dims[0] + dims[1] + dims[2]: "sep", 3: "ir"}
    if c not in kinds:
        raise GridParseError(
            f"prediction grid has {c} channels; expected {b} (joint), "
            f"{dims[0] + dims[1] + dims[2]} (sep), or 3 (index regression)")
    return predictor.PredictionMap(scores=grid, valid=valid, dims=dims,
                                   kind=kinds[c])


def cmd_evaluate(args):
    cfg = _load_config(args.config)
    if args.mask is None and not args.tensors.endswith(".tensors.bgrd"):
        print("error: --mask is required unless --tensors ends in .tensors.bgrd",
              file=sys.stderr)
        return 2
    mask_path = args.mask or args.tensors[:-len(".tensors.bgrd")] + ".mask.bgrd"
    tensors, valid = _read_tensors(args.tensors, mask_path)
    site = _read_site(args.scene, args.tx, cfg) if args.scene and args.tx else None
    pred = _prediction_from_args(args, cfg, tensors, valid, site)
    rankings = predictor.flat_ranking(pred)
    sample_tensors = tensors[valid]
    report = metrics.evaluate_ranking(sample_tensors, rankings, cfg.eval.k_list,
                                      cfg.budget, excluded=int((~valid).sum()))
    gridio.save_report(args.report, report)
    print(gridio.render_table(report))
    stem = args.report[:-5] if args.report.endswith(".json") else args.report
    truths = np.argmax(sample_tensors.reshape(len(rankings), -1), axis=1)
    for k in cfg.eval.k_list:
        hit = (rankings[:, :k] == truths[:, None]).any(axis=1)
        img = np.zeros(valid.shape, dtype=np.uint8)
        img[valid] = np.where(hit, 255, 64)
        gridio.write_pgm(f"{stem}.top{k}.pgm", img)
    if site is not None:
        hm, tx = site
        direct_only = dataclasses.replace(cfg.scene.scene_config(), max_reflections=0)
        channels = scene.trace_paths(hm, tx, direct_only,  # LoS needs no reflections
                                     rx_height_m=cfg.scene.rx_height_m)
        los = metrics.los_class_map(hm, tx, channels)
        shades = np.array([64, 160, 255], dtype=np.uint8)  # nlos, attenuated, dominant
        img = shades[los]
        img[hm.building > 0] = 0
        gridio.write_pgm(f"{stem}.los.pgm", img)
    return 0


def _split_scenes(stems, seed):
    """Deterministic 80/10/10 scene split: order by seeded hash, then cut
    with every split guaranteed non-empty."""
    def key(stem):
        return hashlib.sha256(f"{stem}:{seed}".encode()).hexdigest()

    ordered = sorted(stems, key=key)
    n = len(ordered)
    n_train = min(max(1, int(0.8 * n)), n - 2)
    n_val = min(max(1, int(0.1 * n)), n - n_train - 1)
    return (ordered[:n_train], ordered[n_train:n_train + n_val],
            ordered[n_train + n_val:])


def _load_scene_samples(stem, cfg):
    """Features and tensors of one scene's valid pixels (tensor resolution)."""
    try:
        tensors, valid = _read_tensors(f"{stem}.tensors.bgrd", f"{stem}.mask.bgrd")
        site = _read_site(f"{stem}.scene.bgrd", f"{stem}.tx.json", cfg)
        feats = _site_features(*site, valid.shape)
    except GridParseError as exc:
        raise GridParseError(f"{stem}: {exc}") from exc
    return feats.flat()[valid.ravel()], tensors[valid]


def cmd_train(args):
    cfg = _load_config(args.config)
    stems = sorted(str(p)[:-len(".scene.bgrd")]
                   for p in Path(args.scenes).glob("*.scene.bgrd"))
    if len(stems) < 3:
        raise InsufficientDataError(
            f"need at least 3 scenes to populate train/val/test, found {len(stems)}")
    train_stems, val_stems, test_stems = _split_scenes(stems, cfg.train.seed)

    def gather(group):
        xs, ts = [], []
        for stem in group:
            x, t = _load_scene_samples(stem, cfg)
            xs.append(x)
            ts.append(t)
        return np.concatenate(xs), np.concatenate(ts)

    x_train, t_train = gather(train_stems)
    x_val, t_val = gather(val_stems)
    model = predictor.SoftmaxModel.create(
        x_train.shape[1], cfg.codebook.dims, loss_kind=cfg.loss.kind,
        sep=cfg.loss.sep, seed=cfg.train.seed, epsilon=cfg.loss.epsilon,
        floor_db=cfg.loss.floor_db)
    trained, history = predictor.train(model, x_train, t_train,
                                       cfg.train.train_config(), x_val, t_val)
    gridio.save_model(args.model_out, trained)
    history_path = args.history_out or args.model_out + ".history.csv"
    with open(history_path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("epoch,train_loss,val_loss,lr\n")
        for epoch, tr, va, lr in history:
            fh.write(f"{epoch},{tr!r},{va!r},{lr!r}\n")
    best_epoch = min(range(len(history)), key=lambda i: history[i][2])
    print(f"scenes train={len(train_stems)} val={len(val_stems)} "
          f"test={len(test_stems)} samples={x_train.shape[0]}")
    print(f"test_scenes={','.join(Path(s).name for s in test_stems)}")
    print(f"best_epoch={best_epoch} val_loss={history[best_epoch][2]:.6f} "
          f"epochs_run={len(history)}")
    return 0


def cmd_report(args):
    report = gridio.load_report(args.report)
    print(gridio.render_table(report))
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="beamgrid",
        description="beam-training simulation and evaluation over city grids")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="synthesise a city height map and tx site")
    p.add_argument("--rows", type=_dim, required=True)
    p.add_argument("--cols", type=_dim, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="scene grid output (.scene.bgrd)")
    p.add_argument("--config", default=None)
    p.add_argument("--tx-out", default=None, help="also save the tx site JSON here")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("trace", help="trace multipath to every street pixel")
    p.add_argument("--scene", required=True)
    p.add_argument("--tx", required=True)
    p.add_argument("--config", default=None)
    p.add_argument("--out", required=True, help="path CSV output")
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser("tensorize", help="beam power tensors + ground truth + mask")
    p.add_argument("--paths", required=True)
    p.add_argument("--tx", required=True)
    p.add_argument("--config", default=None)
    p.add_argument("--out", required=True, help="output prefix")
    p.add_argument("--downscale", type=_positive, default=4)
    p.set_defaults(func=cmd_tensorize)

    p = sub.add_parser("evaluate", help="score predictions against ground truth")
    p.add_argument("--tensors", required=True)
    p.add_argument("--mask", default=None,
                   help="validity mask grid (default: sibling .mask.bgrd)")
    p.add_argument("--pred", required=True,
                   help="'oracle', a logits grid, or a model file")
    p.add_argument("--config", default=None)
    p.add_argument("--report", required=True, help="report JSON output")
    p.add_argument("--scene", default=None, help="scene grid (model input / LoS map)")
    p.add_argument("--tx", default=None, help="tx site JSON (model input / LoS map)")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("train", help="train the per-pixel softmax predictor")
    p.add_argument("--scenes", required=True,
                   help="directory of <stem>.scene.bgrd/.tx.json/.tensors.bgrd/.mask.bgrd")
    p.add_argument("--config", default=None)
    p.add_argument("--model-out", required=True)
    p.add_argument("--history-out", default=None)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("report", help="render a report JSON as a text table")
    p.add_argument("--report", required=True)
    p.set_defaults(func=cmd_report)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 4
    except (BeamgridError, ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
