#!/usr/bin/env python3
"""Stage-and-layer benchmark for the beamgrid CLI pipeline.

    python3 stagebench/run.py --workload city128 --seed 0 --seconds 20 --trace 0

Every workload is a closed loop with one client: each CLI stage runs as a
fresh child process (``python3 -m beamgrid.cli``) that starts only when the
previous one has exited, so process start is paid as users pay it. The
timed phase repeats passes of the workload's pipeline while the projected
end stays within ``--seconds`` (at least one pass); each pass works on a
new scene. Scene seeds derive from ``--seed``, except where a workload's
work would then vary more from seed to seed than from run to run: the
128x128 scenes and the training corpus are the same for every seed. After
the passes the short stages of the first pass run twice more; their times
join the stage samples.

* ``city128``: one 128x128 scene per pass: generate, trace, tensorize
  --downscale 4, evaluate --pred oracle --scene --tx (LoS map). Tracing
  dominates: ``trace`` runs ``scene.trace_paths`` and ``evaluate --scene``
  runs it again.
* ``corpus64``: one 64x64 scene per pass through the same stages, evaluated
  without --scene. Process start and file I/O dominate; the tracer works on
  a small scene.
* ``train64``: set-up builds 12 scenes of 64x64 at --downscale 1 in one
  interpreter. A pass builds one held-out scene, trains CE, CEP-sep, WS and
  GR-sep on the corpus, and evaluates each model on the held-out scene.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` runs one pass in
one interpreter through ``beamgrid.cli.main``, twice: plain and with a span
around every public function of each module (see ``inproc.py``), then once
more with call counters on the tracer's kernels; it prints the per-layer
metrics. Both modes check every output: every stage exits 0, oracle reports
score exactly 1.0, a re-run stage (a replay, or the traced and counted
passes) reproduces the original bytes, and at the default seed every
artifact matches the digests in ``reference.json``.

The last line of stdout is one JSON object (correct, attempted, failed,
metrics). A fuller record, with the run environment, every metric, sample
counts and failed checks, goes to ``.stagebench/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
STATE = ROOT / ".stagebench"
REFERENCE = HERE / "reference.json"
PY = sys.executable
DEFAULT_SEED = 0
DEADLINE_S = 170.0  # a run must end within 180 s

STAGES = ("generate", "trace", "tensorize", "evaluate")
END_TO_END = [("run_s", "s"), *[(f"{s}_s", "s") for s in STAGES],
              ("peak_rss_mb", "MB"), ("setup_s", "s")]
PER_LAYER = [
    ("cli.import_s", "s"), ("cli.scipy_loaded", "flag"), ("cli.invocations", "count"),
    ("scene.generate_city_s", "s"), ("scene.place_tx_s", "s"),
    ("scene.exterior_walls_s", "s"), ("scene.walls", "count"),
    ("scene.trace_paths_s", "s"), ("scene.trace_paths_calls", "count"),
    ("scene.effective_tensor_map_s", "s"), ("scene.downscale_tensor_map_s", "s"),
    ("scene.street_px", "count"), ("scene.pairs_screened", "count"),
    ("scene.paths_direct", "count"), ("scene.paths_reflected", "count"),
    ("scene.coverage_frac", "ratio"), ("scene.los_frac", "ratio"),
    ("kernels.trace_count_s", "s"), ("kernels.trace_fill_s", "s"),
    ("kernels.mirror_hit_calls", "count"), ("kernels.mirror_hit_ok_ratio", "ratio"),
    ("kernels.march_calls", "count"), ("kernels.march_clear_ratio", "ratio"),
    ("kernels.accumulate_tensors_s", "s"),
    ("channel.angles_s", "s"), ("channel.gain_profiles_s", "s"),
    ("gridio.write_paths_csv_s", "s"), ("gridio.read_paths_csv_s", "s"),
    ("gridio.paths_csv_bytes", "bytes"), ("gridio.grid_io_s", "s"),
    ("gridio.grid_bytes", "bytes"),
    ("metrics.exclusion_mask_s", "s"), ("metrics.evaluate_ranking_s", "s"),
    ("metrics.los_class_map_s", "s"),
    ("predictor.flat_ranking_s", "s"), ("predictor.build_features_s", "s"),
    ("predictor.train_s", "s"), ("predictor.epochs_run", "count"),
    ("predictor.samples", "count"), ("predictor.epoch_s", "s"),
    ("losses.target_calls", "count"), ("losses.target_s", "s"),
    *[(f"{layer}.self_s", "s") for layer in
      ("cli", "gridio", "scene", "kernels", "channel", "metrics", "predictor", "losses")],
    ("tracing.run_s", "s"), ("tracing.overhead_s", "s"),
]
UNITS = dict(END_TO_END + PER_LAYER + [("train_s", "s"), ("failed_frac", "ratio")])


@dataclass(frozen=True)
class Workload:
    name: str
    size: int                # scene rows = cols
    downscale: int
    eval_scene: bool = False  # evaluate --scene/--tx (re-trace + LoS map)
    fixed_scenes: bool = False  # pass scenes ignore --seed (steady tracer work)
    replays: tuple = ("generate", "tensorize")  # short stages re-run twice after the passes
    corpus: int = 0          # scenes built in set-up for training, same for every seed
    losses: tuple = ()       # (kind, sep) trained per pass on the corpus
    setup_repeats: int = 3


WORKLOADS = {
    "city128": Workload("city128", 128, 4, eval_scene=True, fixed_scenes=True),
    "corpus64": Workload("corpus64", 64, 4),
    "train64": Workload("train64", 64, 1, corpus=12,
                        losses=(("CE", False), ("CEP", True), ("WS", False), ("GR", True)),
                        setup_repeats=1, replays=("generate", "trace", "tensorize")),
}
# --tiny shrinks every workload for the smoke test: 32x32 scenes, 3-scene
# corpus, 2 training epochs
TINY = {"size": 32, "corpus": 3, "epochs": 2}


@dataclass(frozen=True)
class Step:
    stage: str
    argv: tuple
    outputs: tuple
    oracle: bool = False     # the report must score exactly 1.0 everywhere


@dataclass
class Invocation:
    step: Step
    cwd: Path
    code: int
    wall_s: float
    maxrss_kb: int = 0
    problems: list = field(default_factory=list)


# ---------------------------------------------------------------------------
# steps


def generate(stem, seed, n):
    return Step("generate", ("generate", "--rows", str(n), "--cols", str(n),
                             "--seed", str(seed), "--out", f"{stem}.scene.bgrd",
                             "--tx-out", f"{stem}.tx.json", "--config", "../cfg/base.json"),
                (f"{stem}.scene.bgrd", f"{stem}.tx.json"))


def trace(stem, out=None):
    out = out or stem
    return Step("trace", ("trace", "--scene", f"{stem}.scene.bgrd", "--tx", f"{stem}.tx.json",
                          "--config", "../cfg/base.json", "--out", f"{out}.paths.csv"),
                (f"{out}.paths.csv",))


def tensorize(stem, downscale, out=None):
    out = out or stem
    return Step("tensorize", ("tensorize", "--paths", f"{stem}.paths.csv",
                              "--tx", f"{stem}.tx.json", "--config", "../cfg/base.json",
                              "--out", out, "--downscale", str(downscale)),
                tuple(f"{out}.{kind}.bgrd" for kind in ("tensors", "gt", "mask")))


def evaluate(stem, pred, scene, out=None):
    out = out or stem
    argv = ["evaluate", "--tensors", f"{stem}.tensors.bgrd", "--pred", pred,
            "--config", "../cfg/base.json", "--report", f"{out}.report.json"]
    outputs = [f"{out}.report.json"]
    if scene:
        argv += ["--scene", f"{stem}.scene.bgrd", "--tx", f"{stem}.tx.json"]
        outputs.append(f"{out}.report.los.pgm")
    return Step("evaluate", tuple(argv), tuple(outputs), oracle=pred == "oracle")


def loss_name(kind, sep):
    return kind + ("-sep" if sep else "")


def train(kind, sep, out=None):
    model = f"{out or loss_name(kind, sep)}.bgmdl"
    return Step("train", ("train", "--scenes", "../corpus",
                          "--config", f"../cfg/{loss_name(kind, sep)}.json",
                          "--model-out", model),
                (model, model + ".history.csv"))


def pass_steps(wl, size, seed):
    stem = "s"
    steps = [generate(stem, seed, size), trace(stem), tensorize(stem, wl.downscale)]
    if wl.losses:
        names = [loss_name(kind, sep) for kind, sep in wl.losses]
        steps += [train(kind, sep) for kind, sep in wl.losses]
        steps += [evaluate(stem, f"{name}.bgmdl", scene=True, out=f"{stem}-{name}")
                  for name in names]
    else:
        steps.append(evaluate(stem, "oracle", scene=wl.eval_scene))
    return steps


def replay_steps(wl, size, seed):
    """(replay, original) pairs re-run after the timed phase beside the first
    pass's outputs: the workload's short stages twice, whose times also join
    the stage samples, and the last training when the workload trains."""
    def step(stage, out=None):
        return {"generate": lambda: generate(out or "s", seed, size),
                "trace": lambda: trace("s", out=out),
                "tensorize": lambda: tensorize("s", wl.downscale, out=out)}[stage]()

    pairs = [(step(stage, f"replay{r}-s"), step(stage)) for r in range(2)
             for stage in wl.replays]
    if wl.losses:
        kind, sep = wl.losses[-1]
        pairs.append((train(kind, sep, out="replay-" + loss_name(kind, sep)), train(kind, sep)))
    return pairs


def corpus_steps(wl, n_scenes, size):
    steps = []
    for i in range(n_scenes):
        stem = f"c{i:02d}"
        steps += [generate(stem, 500 + i, size), trace(stem),
                  tensorize(stem, wl.downscale)]
    return steps


def scene_seed(wl, seed, index):
    """Scene seed of pass `index`. The 128x128 scenes are fixed, because the
    tracer's work differs by scene far more than run-to-run noise."""
    return index if wl.fixed_scenes else seed * 1000 + index


# ---------------------------------------------------------------------------
# processes


class Runner:
    """Starts children one at a time and keeps every run under the deadline."""

    def __init__(self, env):
        self.env = env
        self.deadline = time.monotonic() + DEADLINE_S

    def run(self, argv, cwd, log):
        """Run argv to completion; returns (exit code, wall s, peak RSS kB)."""
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise TimeoutError("benchmark deadline passed")
        with open(log, "ab") as out:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=cwd, env=self.env, stdout=out,
                                    stderr=subprocess.STDOUT)
            timer = threading.Timer(timeout, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, wall, usage.ru_maxrss

    def stage(self, step, cwd):
        code, wall, rss = self.run([PY, "-m", "beamgrid.cli", *step.argv], cwd,
                                   cwd / "stages.log")
        return Invocation(step, cwd, code, wall, rss)

    def inproc(self, mode, steps, cwd):
        """Run steps in one interpreter (see inproc.py); returns its summary."""
        spec = cwd / f"{mode}.steps.json"
        spec.write_text(json.dumps([list(s.argv) for s in steps]))
        out = cwd / f"{mode}.summary.json"
        code, wall, _ = self.run([PY, str(HERE / "inproc.py"), "--mode", mode,
                                  "--steps", spec.name, "--out", out.name],
                                 cwd, cwd / "inproc.log")
        if code != 0 or not out.exists():
            return {"codes": [code] * len(steps), "wall_s": wall, "metrics": {}}
        return json.loads(out.read_text())

    def python(self, code, cwd):
        """Run a snippet in a fresh interpreter; returns its last stdout line."""
        out = subprocess.run([PY, "-c", code], cwd=cwd, env=self.env, capture_output=True,
                             text=True, timeout=max(1.0, self.deadline - time.monotonic()))
        out.check_returncode()
        return (out.stdout.strip().splitlines() or [""])[-1]


def child_env(nproc):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"]
                                    if env.get("PYTHONPATH") else "")
    # one BLAS thread per usable core, so training does not oversubscribe
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(nproc)
    return env


ENV_PROBE = """
import json, platform, numpy, scipy
from beamgrid import _kernels
blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
print(json.dumps({"backend": "numba" if _kernels.USE_NUMBA else "python",
                  "python": platform.python_version(), "numpy": numpy.__version__,
                  "scipy": scipy.__version__,
                  "blas": f"{blas.get('name')} {blas.get('version')}"}))
"""

IMPORT_PROBE = """
import json, sys, time
t0 = time.perf_counter()
import beamgrid.cli
print(json.dumps({"import_s": time.perf_counter() - t0,
                  "scipy_loaded": int("scipy" in sys.modules)}))
"""


def environment(runner, work, nproc):
    env = json.loads(runner.python(ENV_PROBE, work))
    env["nproc"] = nproc
    env["blas_threads"] = nproc
    env["commit"] = None
    if (ROOT / ".git").exists() and shutil.which("git"):
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True)
        env["commit"] = out.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "beamgrid").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    env["src_sha256"] = digest.hexdigest()
    return env


# ---------------------------------------------------------------------------
# set-up, passes, checks


def write_configs(work, wl, size, tiny):
    cfg = work / "cfg"
    cfg.mkdir(exist_ok=True)
    base = {"scene": {"rows": size, "cols": size}}
    if tiny:
        base["train"] = {"epochs": TINY["epochs"]}
    (cfg / "base.json").write_text(json.dumps(base))
    for kind, sep in wl.losses:
        doc = dict(base, loss={"kind": kind, "sep": sep})
        (cfg / f"{loss_name(kind, sep)}.json").write_text(json.dumps(doc))


def setup(runner, work, wl, size, corpus_size, tiny):
    """Build the workload's inputs; returns (wall s, corpus invocations)."""
    t0 = time.perf_counter()
    write_configs(work, wl, size, tiny)
    # the first import also writes the package's bytecode cache
    runner.python("import beamgrid.cli", work)
    invocations = []
    if wl.corpus:
        corpus = work / "corpus"
        shutil.rmtree(corpus, ignore_errors=True)
        corpus.mkdir()
        steps = corpus_steps(wl, corpus_size, size)
        summary = runner.inproc("plain", steps, corpus)
        invocations = [Invocation(s, corpus, c, 0.0) for s, c in zip(steps, summary["codes"])]
    return time.perf_counter() - t0, invocations


def flip_last_byte(path):
    data = bytearray(path.read_bytes())
    data[-1] ^= 0xFF
    path.write_bytes(bytes(data))


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def check_outputs(inv):
    """Exit status, presence of outputs and the oracle invariant."""
    if inv.code != 0:
        inv.problems.append(f"exit code {inv.code}")
        return
    for name in inv.step.outputs:
        if not (inv.cwd / name).is_file():
            inv.problems.append(f"missing output {name}")
    if inv.step.oracle and not inv.problems:
        try:
            report = json.loads((inv.cwd / inv.step.outputs[0]).read_text())
            scores = report["accuracy"] + report["tpr"]
        except (ValueError, KeyError, TypeError) as exc:
            inv.problems.append(f"unreadable report: {exc}")
            return
        if any(v != 1.0 for v in scores):
            inv.problems.append("oracle report scores below 1.0")


def outputs(inv, base):
    """(path relative to base, path) of every output of inv."""
    return [(str((inv.cwd / name).relative_to(base)), inv.cwd / name)
            for name in inv.step.outputs]


def digests(invocations, base):
    return {rel: sha256(path) for inv in invocations
            for rel, path in outputs(inv, base) if path.is_file()}


def check_reference(invocations, base, expected):
    for inv in invocations:
        for rel, path in outputs(inv, base):
            if rel in expected and (not path.is_file() or sha256(path) != expected[rel]):
                inv.problems.append(f"{rel} differs from the reference digest")


def check_same_bytes(inv, original):
    """inv re-ran original's stage: every output must repeat byte for byte."""
    for name, ref in zip(inv.step.outputs, original.step.outputs):
        a, b = inv.cwd / name, original.cwd / ref
        if not (a.is_file() and b.is_file()) or a.read_bytes() != b.read_bytes():
            inv.problems.append(f"{name} does not repeat {ref}")


def run_untraced(runner, work, wl, size, args):
    """Set-up, then timed passes of CLI children, then the replay.

    Returns (metrics, every invocation, sample counts, first-pass invocations).
    """
    setups, corpus = [], []
    for _ in range(wl.setup_repeats):
        wall, corpus = setup(runner, work, wl, size, args.corpus_size, args.tiny)
        setups.append(wall)

    timed, pass_walls = [], []
    t_start = time.perf_counter()
    while not pass_walls or (
            time.perf_counter() - t_start + statistics.median(pass_walls) <= args.seconds):
        cwd = work / f"p{len(pass_walls)}"
        cwd.mkdir()
        t0 = time.perf_counter()
        for step in pass_steps(wl, size, scene_seed(wl, args.seed, len(pass_walls))):
            timed.append(runner.stage(step, cwd))
            if args.corrupt and len(pass_walls) == 0:
                for name in step.outputs:
                    if name.endswith(args.corrupt):
                        flip_last_byte(cwd / name)
        pass_walls.append(time.perf_counter() - t0)

    first = [inv for inv in timed if inv.cwd == work / "p0"]
    replays = []
    for replay, original in replay_steps(wl, size, scene_seed(wl, args.seed, 0)):
        replays.append(runner.stage(replay, work / "p0"))
        check_outputs(replays[-1])
        check_same_bytes(replays[-1], next(i for i in first if i.step == original))
    for inv in corpus + timed:
        check_outputs(inv)
    walls = {}
    for inv in timed + replays:
        walls.setdefault(inv.step.stage, []).append(inv.wall_s)
    metrics = {
        "run_s": statistics.median(pass_walls),
        **{f"{stage}_s": statistics.median(w) for stage, w in walls.items()},
        "peak_rss_mb": max(i.maxrss_kb for i in timed) / 1024.0,
        "setup_s": statistics.median(setups),
    }
    samples = {"passes": len(pass_walls), "setups": len(setups),
               **{stage: len(w) for stage, w in walls.items()}}
    return metrics, corpus + timed + replays, samples, first


def run_traced(runner, work, wl, size, args):
    """One pass in-process: plain, with spans, with kernel counters.

    Returns (metrics, every invocation, sample counts, traced invocations).
    """
    _, corpus = setup(runner, work, wl, size, args.corpus_size, args.tiny)
    steps = pass_steps(wl, size, scene_seed(wl, args.seed, 0))
    # the counting pass repeats only the stages that trace
    mode_steps = {"plain": steps, "spans": steps,
                  "counts": [s for s in steps if s.stage in ("generate", "trace")]}
    summaries, runs = {}, {}
    for mode, dirname in (("plain", "inproc"), ("spans", "p0"), ("counts", "counts")):
        cwd = work / dirname
        cwd.mkdir()
        summaries[mode] = runner.inproc(mode, mode_steps[mode], cwd)
        runs[mode] = [Invocation(s, cwd, code, 0.0)
                      for s, code in zip(mode_steps[mode], summaries[mode]["codes"])]

    probes = [json.loads(runner.python(IMPORT_PROBE, work)) for _ in range(3)]
    for inv in corpus + runs["plain"] + runs["spans"] + runs["counts"]:
        check_outputs(inv)
    for mode in ("spans", "counts"):  # wrappers must not change a byte
        for inv, ref in zip(runs[mode], runs["plain"]):
            check_same_bytes(inv, ref)
    metrics = {
        "cli.import_s": statistics.median(p["import_s"] for p in probes),
        "cli.scipy_loaded": max(p["scipy_loaded"] for p in probes),
        "cli.invocations": len(steps),
        **summaries["spans"].get("metrics", {}),
        **summaries["counts"].get("metrics", {}),
        "tracing.run_s": summaries["spans"]["wall_s"],
        "tracing.overhead_s": summaries["spans"]["wall_s"] - summaries["plain"]["wall_s"],
    }
    invocations = corpus + runs["plain"] + runs["spans"] + runs["counts"]
    return metrics, invocations, {"passes": 1}, runs["spans"]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="32x32 scenes and a 3-scene corpus (smoke test)")
    parser.add_argument("--corrupt", metavar="SUFFIX", default=None,
                        help="flip a byte of the first pass's output ending in SUFFIX "
                             "(checks that the output checks catch it)")
    parser.add_argument("--update-reference", action="store_true",
                        help="record this run's digests as the reference "
                             f"(only at --seed {DEFAULT_SEED})")
    parser.add_argument("--out", default=None, help="result record path")
    args = parser.parse_args(argv)

    if not (SRC / "beamgrid" / "cli.py").is_file():
        print(f"error: {SRC / 'beamgrid'} not found; run from a beamgrid checkout",
              file=sys.stderr)
        return 2
    if args.update_reference and args.seed != DEFAULT_SEED:
        parser.error(f"--update-reference needs --seed {DEFAULT_SEED}")

    wl = WORKLOADS[args.workload]
    size = TINY["size"] if args.tiny else wl.size
    args.corpus_size = TINY["corpus"] if args.tiny else wl.corpus
    size_key = "tiny" if args.tiny else "full"
    nproc = len(os.sched_getaffinity(0))
    runner = Runner(child_env(nproc))
    work = STATE / f"work-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        env = environment(runner, work, nproc)
        mode = run_traced if args.trace else run_untraced
        metrics, invocations, samples, first = mode(runner, work, wl, size, args)

        produced = digests([i for i in invocations if i.cwd.name == "corpus"] + first, work)
        references = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
        if args.update_reference:
            references.setdefault(wl.name, {})[size_key] = produced
            REFERENCE.write_text(json.dumps(references, indent=1, sort_keys=True) + "\n")
        elif args.seed == DEFAULT_SEED:
            check_reference(invocations, work, references.get(wl.name, {}).get(size_key, {}))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = [i for i in invocations if i.problems]
    attempted = len(invocations)
    metrics["failed_frac"] = len(failed) / attempted
    names = [n for n, _ in (PER_LAYER if args.trace else END_TO_END)]
    reported = {n: {"value": metrics[n], "unit": UNITS[n]} for n in names if n in metrics}

    print(f"workload={wl.name} seed={args.seed} trace={args.trace} size={size} "
          f"backend={env['backend']} nproc={nproc} samples={samples}")
    for name, value in metrics.items():
        print(f"  {name:<34} {value:>14.6g} {UNITS[name]}")
    for inv in failed:
        print(f"  FAILED {inv.step.stage} {' '.join(inv.step.argv)}: "
              f"{'; '.join(inv.problems)}", file=sys.stderr)

    record = {
        "workload": wl.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": size, "environment": env, "samples": samples,
        "metrics": {n: {"value": v, "unit": UNITS[n]} for n, v in metrics.items()},
        "invocations": [{"dir": i.cwd.name, "stage": i.step.stage, "code": i.code,
                         "wall_s": i.wall_s} for i in invocations],
        "digests": produced, "attempted": attempted, "failed": len(failed),
        "failures": [{"stage": i.step.stage, "argv": list(i.step.argv),
                      "problems": i.problems} for i in failed],
    }
    stamp = time.strftime("%Y%m%dT%H%M%SZ", time.gmtime())
    out = Path(args.out) if args.out else (
        STATE / "results" / f"BENCH_{stamp}_{wl.name}_seed{args.seed}_trace{args.trace}.json")
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({"correct": not failed, "attempted": attempted,
                      "failed": len(failed), "metrics": reported}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
