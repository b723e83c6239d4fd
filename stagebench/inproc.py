#!/usr/bin/env python3
"""Run beamgrid CLI stages in one interpreter through ``beamgrid.cli.main``.

    python3 stagebench/inproc.py --mode plain|spans|counts --steps STEPS.json --out OUT.json

STEPS.json is a list of argv lists, run in order from the current working
directory. The summary written to OUT.json holds each stage's return code,
the wall time of the whole list and, by mode:

* ``spans``: every public function of the package modules is wrapped in a
  span (name, start, end, parent); the summary holds the per-layer metrics
  derived from them. ``_kernels.march`` and ``_kernels.mirror_hit`` are left
  unwrapped: they run millions of times per trace and a span on each would
  dominate the times of the kernels that call them.
* ``counts``: those two kernels are wrapped in call counters instead, and
  every ``scene.trace_paths`` result is summarised (walls, street pixels,
  direct and reflected paths). With numba the JIT kernels call each other
  directly, so the kernel counts are left out rather than reported as zero.
* ``plain``: nothing is wrapped (set-up builds and the untraced reference).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from collections import defaultdict

LAYERS = {"cli": "cli", "gridio": "gridio", "scene": "scene", "_kernels": "kernels",
          "channel": "channel", "metrics": "metrics", "predictor": "predictor",
          "losses": "losses"}
COUNTED = {"march", "mirror_hit"}
TARGET_FUNCS = {"losses.cep_target", "losses.cep_target_sep",
                "losses.gr_target_db", "losses.gr_target_db_sep"}
GRID_FUNCS = {"gridio.read_grid", "gridio.write_grid"}
CSV_FUNCS = {"gridio.read_paths_csv", "gridio.write_paths_csv"}


def _package_modules():
    return [m for name, m in sys.modules.items()
            if m is not None and (name == "beamgrid" or name.startswith("beamgrid."))]


def patch_functions(make_wrapper, select):
    """Replace each selected function with make_wrapper(name, fn) in every
    package module that refers to it, including `from x import f` copies."""
    modules = _package_modules()
    targets = {}
    for modname, layer in LAYERS.items():
        mod = sys.modules["beamgrid." + modname]
        for attr, fn in vars(mod).items():
            if (callable(fn) and not isinstance(fn, type)
                    and getattr(fn, "__module__", None) == mod.__name__
                    and select(attr)):
                targets[id(fn)] = make_wrapper(f"{layer}.{attr}", fn)
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            if id(value) in targets:
                setattr(mod, attr, targets[id(value)])


class SpanRecorder:
    """Spans as [name, start, end, parent index], kept in memory."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.nbytes = defaultdict(int)
        self.trainings = []  # (samples, epochs run) per predictor.train call

    def wrap(self, name, fn):
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, time.perf_counter(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                spans[idx][2] = time.perf_counter()
                stack.pop()
            if name in GRID_FUNCS or name in CSV_FUNCS:
                self.nbytes[name] += os.path.getsize(args[0])
            elif name == "predictor.train":
                self.trainings.append((len(args[1]), len(out[1])))
            return out

        return traced

    def metrics(self):
        total = defaultdict(float)
        calls = defaultdict(int)
        layer_self = dict.fromkeys(LAYERS.values(), 0.0)
        child = [0.0] * len(self.spans)
        in_train = [False] * len(self.spans)
        for i, (name, start, end, parent) in enumerate(self.spans):
            if parent >= 0:
                child[parent] += end - start
                in_train[i] = in_train[parent]
            if name == "predictor.train":
                in_train[i] = True
        target_s = 0.0
        target_calls = 0
        for i, (name, start, end, parent) in enumerate(self.spans):
            total[name] += end - start
            calls[name] += 1
            layer_self[name.split(".")[0]] += end - start - child[i]
            # the _sep targets call the joint ones: count the outer call only
            if (name in TARGET_FUNCS and in_train[i]
                    and (parent < 0 or self.spans[parent][0] not in TARGET_FUNCS)):
                target_s += end - start
                target_calls += 1
        samples = sum(s for s, _ in self.trainings)
        epochs = sum(e for _, e in self.trainings)
        out = {
            "scene.generate_city_s": total["scene.generate_city"],
            "scene.place_tx_s": total["scene.place_tx"],
            "scene.exterior_walls_s": total["scene.exterior_walls"],
            "scene.trace_paths_s": total["scene.trace_paths"],
            "scene.trace_paths_calls": calls["scene.trace_paths"],
            "scene.effective_tensor_map_s": total["scene.effective_tensor_map"],
            "scene.downscale_tensor_map_s": total["scene.downscale_tensor_map"],
            "kernels.trace_count_s": total["kernels.trace_count"],
            "kernels.trace_fill_s": total["kernels.trace_fill"],
            "kernels.accumulate_tensors_s": total["kernels.accumulate_tensors"],
            "channel.angles_s": (total["channel.global_to_array_frame"]
                                 + total["channel.beamspace_angles"]),
            "channel.gain_profiles_s": total["channel.gain_profiles"],
            "gridio.write_paths_csv_s": total["gridio.write_paths_csv"],
            "gridio.read_paths_csv_s": total["gridio.read_paths_csv"],
            "gridio.paths_csv_bytes": sum(self.nbytes[n] for n in CSV_FUNCS),
            "gridio.grid_io_s": total["gridio.read_grid"] + total["gridio.write_grid"],
            "gridio.grid_bytes": sum(self.nbytes[n] for n in GRID_FUNCS),
            "metrics.exclusion_mask_s": total["metrics.exclusion_mask"],
            "metrics.evaluate_ranking_s": total["metrics.evaluate_ranking"],
            "metrics.los_class_map_s": total["metrics.los_class_map"],
            "predictor.flat_ranking_s": total["predictor.flat_ranking"],
            "predictor.build_features_s": total["predictor.build_features"],
            "predictor.train_s": total["predictor.train"],
            "predictor.epochs_run": epochs,
            "predictor.samples": samples,
            "predictor.epoch_s": total["predictor.train"] / epochs if epochs else 0.0,
            "losses.target_calls": target_calls,
            "losses.target_s": target_s,
        }
        out.update({f"{layer}.self_s": s for layer, s in layer_self.items()})
        return out


class KernelCounter:
    """Call counts of the visibility march and the reflection screen, plus a
    summary of every traced scene."""

    def __init__(self):
        self.n = defaultdict(int)

    def wrap(self, name, fn):
        n = self.n
        if name == "kernels.march":
            def counted(*args):
                clear, veg = fn(*args)
                n["march_calls"] += 1
                n["march_clear"] += bool(clear)
                return clear, veg
        elif name == "kernels.mirror_hit":
            def counted(*args):
                out = fn(*args)
                n["mirror_hit_calls"] += 1
                n["mirror_hit_ok"] += bool(out[0])
                return out
        else:  # scene.trace_paths
            def counted(hm, tx, cfg, *args, **kwargs):
                channels = fn(hm, tx, cfg, *args, **kwargs)
                self._summarise(hm, cfg, channels)
                return channels
        return counted

    def _summarise(self, hm, cfg, channels):
        from beamgrid import scene
        n = self.n
        street = hm.building == 0
        walls = len(scene.exterior_walls(hm.building, hm.resolution_m)) \
            if cfg.max_reflections >= 1 else 0
        direct = int(channels.has_direct.sum())
        n["walls"] += walls
        n["street_px"] += int(street.sum())
        n["pairs_screened"] += int(street.sum()) * walls
        n["paths_direct"] += direct
        n["paths_reflected"] += channels.n_paths - direct
        n["covered_px"] += int((channels.counts[street] > 0).sum())
        n["los_px"] += int(channels.has_direct[street].sum())

    def metrics(self, use_numba):
        n = self.n
        street = max(n["street_px"], 1)
        out = {
            "scene.walls": n["walls"],
            "scene.street_px": n["street_px"],
            "scene.pairs_screened": n["pairs_screened"],
            "scene.paths_direct": n["paths_direct"],
            "scene.paths_reflected": n["paths_reflected"],
            "scene.coverage_frac": n["covered_px"] / street,
            "scene.los_frac": n["los_px"] / street,
        }
        if not use_numba:
            out.update({
                "kernels.mirror_hit_calls": n["mirror_hit_calls"],
                "kernels.mirror_hit_ok_ratio":
                    n["mirror_hit_ok"] / max(n["mirror_hit_calls"], 1),
                "kernels.march_calls": n["march_calls"],
                "kernels.march_clear_ratio": n["march_clear"] / max(n["march_calls"], 1),
            })
        return out


def run_steps(steps):
    from beamgrid import cli
    codes = []
    for argv in steps:
        try:
            codes.append(cli.main(list(argv)))
        except SystemExit as exc:  # argparse rejected the arguments
            codes.append(exc.code if isinstance(exc.code, int) else 2)
    return codes


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mode", choices=("plain", "spans", "counts"), required=True)
    parser.add_argument("--steps", required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    with open(args.steps, encoding="utf-8") as fh:
        steps = json.load(fh)

    from beamgrid import _kernels, cli  # noqa: F401  (loads every layer module)
    recorder = counter = None
    if args.mode == "spans":
        recorder = SpanRecorder()
        patch_functions(recorder.wrap, lambda attr: not attr.startswith("_")
                        and attr not in COUNTED)
    elif args.mode == "counts":
        counter = KernelCounter()
        patch_functions(counter.wrap, lambda attr: attr in COUNTED or attr == "trace_paths")

    t0 = time.perf_counter()
    codes = run_steps(steps)
    summary = {"codes": codes, "wall_s": time.perf_counter() - t0}
    if recorder is not None:
        summary["metrics"] = recorder.metrics()
    if counter is not None:
        summary["metrics"] = counter.metrics(_kernels.USE_NUMBA)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(summary, fh)


if __name__ == "__main__":
    main()
