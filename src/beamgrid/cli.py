"""Command-line pipeline: generate -> trace -> tensorize -> evaluate/train.

Exit codes: 0 ok, 2 usage error, 3 data error (unreadable/malformed/
inconsistent inputs, or a config value its section rejects), 4 numeric
failure (an undefined statistic, or path lengths beyond the float64 range).
"""

from __future__ import annotations

import argparse
import gc
import json
import math
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


def _non_negative(value):
    iv = int(value)
    if iv < 0:
        raise argparse.ArgumentTypeError(f"value must be >= 0, got {iv}")
    return iv


def _load_config(path):
    return gridio.load_config(path) if path else gridio.parse_config({})


def _read_plane(path, what, top):
    """The one channel of a u8 grid file of values <= top."""
    grid = gridio.read_grid(path)
    if grid.shape[2] != 1:
        raise GridParseError(f"{what} grid {path}: {grid.shape[2]} channels; expected 1")
    if grid.dtype != np.uint8 or grid.max(initial=0) > top:
        raise GridParseError(f"{what} grid {path}: expected u8 values 0 to {top}")
    return grid[:, :, 0]


def cmd_generate(args):
    cfg = _load_config(args.config)
    hm = scene.generate_city(args.rows, args.cols, args.seed, cfg.scene)
    tx = scene.place_tx(hm, args.seed, cfg.scene)
    gridio.write_grid(args.out, np.stack([hm.building, hm.vegetation], axis=-1), "f32")
    print(json.dumps(gridio.tx_site_to_dict(tx)))
    if args.tx_out:
        gridio.save_tx_site(args.tx_out, tx)
    return 0


def cmd_trace(args):
    cfg = _load_config(args.config)
    hm, tx = _read_site(args.scene, args.tx, cfg)
    if (hm.rows, hm.cols) != (cfg.scene.rows, cfg.scene.cols):
        raise GridParseError(f"scene grid {args.scene}: {hm.rows}x{hm.cols}; the config's "
                             f"scene is {cfg.scene.rows}x{cfg.scene.cols}")
    channels = scene.trace_paths(hm, tx, cfg.scene)
    gridio.write_paths_csv(args.out, channels)
    gridio.write_grid(args.out.removesuffix(".paths.csv") + ".los.bgrd", channels.los, "u8")
    streets = int(np.count_nonzero(hm.building == 0))
    mean_paths = channels.n_paths / streets if streets else 0.0
    print(f"pixels={hm.rows * hm.cols} street_pixels={streets} "
          f"paths={channels.n_paths} mean_paths={mean_paths:.3f}")
    return 0


def cmd_tensorize(args):
    """Write <out>.tensors/.gt/.mask/.los.bgrd: the rows of the pixels with
    paths (of the blocks, at --downscale above 1) scattered once into one f32
    grid, the mask of the rows that pass the exclusion threshold, and the
    trace's LoS grid unless <out> is the paths stem, where it is already."""
    cfg = _load_config(args.config)
    los_path = args.paths.removesuffix(".paths.csv") + ".los.bgrd"
    los = _read_plane(los_path, "LoS", scene.LOS_DOMINANT)
    grid = los.shape  # the traced grid
    channels = gridio.read_paths_csv(args.paths, *grid)
    tx = gridio.load_tx_site(args.tx)
    codebook = gridio.codebook_from_config(cfg)
    ids, rows = scene.effective_tensor_map(channels, codebook, tx.frame)
    rows = rows.reshape(ids.size, math.prod(rows.shape[1:]))
    if args.downscale > 1:
        ids, rows, grid = scene.downscale_tensor_map(
            ids, rows, grid, ~metrics.exclusion_mask(rows, cfg.budget), args.downscale)
    flat = np.zeros((*grid, rows.shape[1]), dtype=np.float32)
    flat.reshape(-1, rows.shape[1])[ids] = rows
    valid = np.zeros(grid, dtype=bool)
    valid.flat[ids] = ~metrics.exclusion_mask(rows, cfg.budget)
    # ground truth from the stored (f32-quantised) values, so the emitted
    # artifacts stay mutually consistent under quantisation ties
    gt = np.argmax(flat, axis=-1)
    out = Path(args.out)
    gridio.write_grid(str(out) + ".tensors.bgrd", flat, "f32")
    gridio.write_grid(str(out) + ".gt.bgrd", gt, "f32")
    gridio.write_grid(str(out) + ".mask.bgrd", valid.astype(np.uint8), "u8")
    los_out = Path(str(out) + ".los.bgrd")
    if not (los_out.exists() and los_out.samefile(los_path)):
        gridio.write_grid(los_out, los, "u8")
    print(f"tensors={flat.shape[0]}x{flat.shape[1]}x{flat.shape[2]} "
          f"valid={int(valid.sum())} excluded={int((~valid).sum())}")
    return 0


def _read_site(scene_path, tx_path, cfg):
    """The height map and tx site of one scene, the tx on the scene grid;
    every error names the file at fault."""
    grid = gridio.read_grid(scene_path)
    if grid.shape[2] != 2:
        raise GridParseError(f"scene grid {scene_path}: {grid.shape[2]} channels; "
                             "expected 2 (building, vegetation height)")
    try:
        hm = scene.HeightMap(grid[:, :, 0].astype(np.float64),
                             grid[:, :, 1].astype(np.float64),
                             resolution_m=cfg.scene.resolution_m)
    except ValueError as exc:  # a negative or non-finite height
        raise GridParseError(f"scene grid {scene_path}: {exc}") from exc
    tx = gridio.load_tx_site(tx_path)
    r, c = tx.pixel
    if not (0 <= r < hm.rows and 0 <= c < hm.cols):
        raise GridParseError(f"tx site {tx_path}: tx pixel {list(tx.pixel)} is off the "
                             f"{hm.rows}x{hm.cols} scene grid of {scene_path}")
    return hm, tx


def _read_tensors(stem, dims):
    """The beam tensors of the tensors set <stem>.tensors.bgrd as stored
    (f32), one channel per beam of dims, and its mask <stem>.mask.bgrd (a
    u8 grid of 0 and 1), checked to share one grid and to hold only finite,
    non-negative powers. A caller converts to float64 only the valid rows."""
    tensors_path, mask_path = f"{stem}.tensors.bgrd", f"{stem}.mask.bgrd"
    tensors = gridio.read_grid(tensors_path)
    if tensors.shape[2] != math.prod(dims):
        raise GridParseError(f"beam power grid {tensors_path}: {tensors.shape[2]} channels; "
                             f"expected {math.prod(dims)} (codebook dims {list(dims)})")
    # min and max propagate NaN, and make no grid-sized temporary
    if tensors.size and not (tensors.min() >= 0.0 and tensors.max() < np.inf):
        raise GridParseError(f"beam power grid {tensors_path} holds a NaN, "
                             "infinite or negative power")
    valid = _read_plane(mask_path, "mask", 1).astype(bool)
    if valid.shape != tensors.shape[:2]:
        raise GridParseError(f"mask grid {mask_path} {valid.shape} vs tensor grid "
                             f"{tensors_path} {tensors.shape[:2]}")
    return tensors, valid


def _site_features(hm, tx, valid, scene_path):
    """Model features of the valid pixels of a tensor grid, one row each in
    row-major order, from the scene at scene_path pooled onto that grid."""
    rows, cols = valid.shape
    factor = hm.rows // rows if rows else 0
    if factor < 1 or (factor * rows, factor * cols) != (hm.rows, hm.cols):
        raise GridParseError(
            f"scene grid {scene_path} {hm.rows}x{hm.cols} is not an integer multiple "
            f"of the tensor grid {rows}x{cols}")
    return predictor.build_features(scene.pool_heightmap(hm, factor),
                                    scene.pool_tx(tx, factor))[valid]


def _prediction_from_args(args, cfg, valid, samples, site):
    """Resolve --pred ('oracle', a logits grid, or a model file, which needs
    site, the (height map, tx site) pair) to (scores, kind): a row of scores
    per valid pixel, row-major, made under the config's codebook dims.
    samples are the valid pixels' beam power rows."""
    dims = cfg.codebook.dims
    if args.pred == "oracle":
        return predictor.oracle_predictor(samples), "joint"
    path = Path(args.pred)
    if not path.exists():
        raise GridParseError(f"prediction input {path} does not exist")
    if gridio.is_model_file(path):
        model = gridio.load_model(path)
        if model.dims != dims:
            # a model's flat beam indices follow its own (Na, Ne, Nr) layout
            raise GridParseError(f"model {path} was made for codebook dims "
                                 f"{list(model.dims)}; the config's are {list(dims)}")
        if site is None:
            raise GridParseError(
                "evaluating a model file needs --scene and --tx to build features")
        scores = predictor.predict(model, _site_features(*site, valid, args.scene))
        kind = model.kind
    else:
        grid = gridio.read_grid(path)
        if grid.shape[:2] != valid.shape:
            raise GridParseError(
                f"prediction grid {grid.shape[:2]} vs tensor grid {valid.shape}")
        columns, c = predictor.score_columns(dims), grid.shape[2]
        kinds = [kind for kind, n in columns.items() if n == c]
        if not kinds:
            raise GridParseError(
                f"prediction grid has {c} channels; expected "
                + ", ".join(f"{n} ({kind})" for kind, n in columns.items()))
        if len(kinds) > 1:
            raise GridParseError(
                f"prediction grid has {c} channels, which fits more than one kind "
                f"({' and '.join(kinds)}) of the {dims} codebook")
        scores, kind = grid[valid].astype(np.float64), kinds[0]
    if not np.isfinite(scores).all():
        raise GridParseError(f"prediction {path} holds a non-finite score")
    return scores, kind


def cmd_evaluate(args):
    """Write the report, <report stem>.rank.bgrd and, with --scene/--tx,
    <report stem>.los.pgm. The f32 rank grid holds each valid pixel's rank of
    its optimal beam in the predicted order (a top-k hit: 1 to k), else 0."""
    cfg = _load_config(args.config)
    if not args.tensors.endswith(".tensors.bgrd"):
        print("error: --tensors must name a <stem>.tensors.bgrd file, beside its "
              "<stem>.mask.bgrd", file=sys.stderr)
        return 2
    if (args.scene is None) != (args.tx is None):
        print("error: --scene and --tx must be given together", file=sys.stderr)
        return 2
    stem = args.tensors.removesuffix(".tensors.bgrd")
    tensors, valid = _read_tensors(stem, cfg.codebook.dims)
    samples = tensors[valid].astype(np.float64)
    site = _read_site(args.scene, args.tx, cfg) if args.scene else None
    if site is not None:  # the trace's LoS classes, read before any output is written
        los_path = stem + ".los.bgrd"
        los = _read_plane(los_path, "LoS", scene.LOS_DOMINANT)
        if los.shape != site[0].building.shape:
            raise GridParseError(f"LoS grid {los_path} {los.shape} vs scene grid "
                                 f"{args.scene} {site[0].building.shape}")
    scores, kind = _prediction_from_args(args, cfg, valid, samples, site)
    rankings = predictor.flat_ranking(scores, cfg.codebook.dims, kind)
    report, rank = metrics.evaluate_ranking(samples, rankings, cfg.eval.k_list,
                                            cfg.budget, excluded=int((~valid).sum()))
    gridio.save_report(args.report, report)
    print(gridio.render_table(report))
    out = args.report.removesuffix(".json")
    ranks = np.zeros(valid.shape, dtype=np.float32)
    ranks[valid] = rank
    gridio.write_grid(f"{out}.rank.bgrd", ranks, "f32")
    if site is not None:
        # the shades of scene.NLOS, LOS_ATTENUATED and LOS_DOMINANT
        shades = np.array([64, 160, 255], dtype=np.uint8)
        img = shades[los]
        img[site[0].building > 0] = 0
        gridio.write_pgm(f"{out}.los.pgm", img)
    return 0


def _split_scenes(stems, seed):
    """Deterministic 80/10/10 scene split: order by seeded hash, then cut
    with every split guaranteed non-empty."""
    import hashlib  # here only: it loads OpenSSL, which no other stage needs

    def key(stem):
        return hashlib.sha256(f"{stem}:{seed}".encode()).hexdigest()

    ordered = sorted(stems, key=key)
    n = len(ordered)
    n_train = min(max(1, int(0.8 * n)), n - 2)
    n_val = min(max(1, int(0.1 * n)), n - n_train - 1)
    return (ordered[:n_train], ordered[n_train:n_train + n_val],
            ordered[n_train + n_val:])


def _load_scene_samples(stem, site, model):
    """Features and training targets of one scene's valid pixels (tensor
    resolution); the scene's tensors are dropped once its targets are built."""
    tensors, valid = _read_tensors(stem, model.dims)
    x = _site_features(*site, valid, f"{stem}.scene.bgrd")
    return x, predictor.targets(model, tensors[valid].astype(np.float64))


def cmd_train(args):
    cfg = _load_config(args.config)
    stems = sorted(str(p).removesuffix(".scene.bgrd")
                   for p in Path(args.scenes).glob("*.scene.bgrd"))
    if len(stems) < 3:
        raise InsufficientDataError(
            f"need at least 3 scenes to populate train/val/test, found {len(stems)}")
    train_stems, val_stems, test_stems = _split_scenes(stems, cfg.train.seed)
    # every scene's site is read before any samples load, so a bad scene
    # anywhere in the corpus fails the run; test scenes are only checked
    unused = set(test_stems)
    sites = {}
    for stem in stems:
        site = _read_site(f"{stem}.scene.bgrd", f"{stem}.tx.json", cfg)
        if stem not in unused:
            sites[stem] = site

    model = predictor.SoftmaxModel.create(len(predictor.FEATURE_NAMES), cfg.codebook.dims,
                                          cfg.loss, seed=cfg.train.seed)

    def gather(group):
        xs, ts = [], []
        for stem in group:
            x, t = _load_scene_samples(stem, sites.pop(stem), model)
            xs.append(x)
            ts.append(t)
        return np.concatenate(xs), np.concatenate(ts)

    x_train, t_train = gather(train_stems)
    x_val, t_val = gather(val_stems)
    trained, history = predictor.train(model, x_train, t_train, cfg.train, x_val, t_val)
    with np.errstate(over="ignore"):  # the model file holds f32 weights
        stored = [a.astype(np.float32) for a in (trained.weights, trained.bias)]
    if not all(np.isfinite(a).all() for a in stored):
        raise NumericError("the trained weights overflow the model file's f32")
    gridio.save_model(args.model_out, trained)
    with open(args.model_out + ".history.csv", "w", encoding="ascii", newline="\n") as fh:
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
    p.add_argument("--seed", type=_non_negative, default=0)
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
    p.add_argument("--tensors", required=True,
                   help="<stem>.tensors.bgrd; <stem>.mask.bgrd is its mask")
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
    p.add_argument("--model-out", required=True,
                   help="model file; the loss history goes to <model-out>.history.csv")
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


def run():
    """Process entry point (the ``beamgrid`` script and ``python -m
    beamgrid.cli``): main()'s exit code, for sys.exit."""
    code = main()
    # At exit the interpreter's final collections would sweep the ~22.7 k
    # objects NumPy and the package leave behind: a median 29-30 ms of a
    # 0.26-0.46 s stage (128x128 scene, 2-core VM). Freezing moves them
    # to the permanent generation, which no collection visits, and the
    # OS reclaims their memory with the process. Shutdown still flushes
    # stdout and stderr, runs atexit handlers and deallocates by
    # reference count; it took 9 ms. main() does not freeze, so
    # in-process callers keep a working collector.
    gc.freeze()
    return code


if __name__ == "__main__":
    sys.exit(run())
