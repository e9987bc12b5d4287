"""Benchmark of the cuisine-infer batch pipeline.

    python3 bench/run.py --workload paper_default --seed 1 --seconds 25 --trace 0

Run it from the root of a source checkout: it imports the package from
`src/` of that checkout and of no other place. One process serves one
client in a closed loop: it calls the `cuisine_infer.pipeline` stage
functions, one pipeline run at a time, until `--seconds` are used up, and
checks the files of every run. The last line of standard output is the
result: `correct`, `attempted` and `failed` stage calls, and the metrics
(end-to-end with `--trace 0`, per layer with `--trace 1`). The line before
it is a report with the environment, per-run timings, digests and any
problems found. bench/README.md explains the workloads and metrics.
"""

from __future__ import annotations

import os

# Pin BLAS to one thread before numpy loads, here and in every child, so
# that times on a small machine measure the program and not the scheduler.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import outputs  # noqa: E402
import tracing  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "bench"
MODULES = ("pipeline", "txn_core", "synthgen", "weak_label", "btm", "stat_features",
           "embed", "nnet", "eval_harness")

# Set-up is repeated this many times per run and its median reported.
SETUP_REPEATS = 3
# Manifests print duration_s in milliseconds; a larger gap to the
# benchmark's own stage time is flagged in the report.
MANIFEST_RESOLUTION_S = 1e-3

END_TO_END_UNITS = {
    "wall_s": "s", "restaurants_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB",
    "top3_accuracy": "fraction", "label_precision": "fraction",
}
# Quality figures that differ between seeds by more than any bound of 0.25
# could hold at the volume one run affords. They repeat exactly for a seed,
# so the traced run reports them, without a bound.
PER_LAYER_UNITS = {
    **tracing.PER_LAYER_UNITS,
    "test_accuracy": "fraction", "truth_accuracy": "fraction", "label_coverage": "fraction",
}


@dataclass(frozen=True)
class Workload:
    shape: dict          # knobs that define the workload at any scale
    scale: dict          # data volume and training length of a benchmark run
    setup: tuple = ()    # stages run before timing; their cost counts in setup_s
    timed: tuple = tracing.STAGES
    gates: bool = False  # apply the criterion-7 gates that hold at any volume


# Every workload keeps 500 or more restaurants: with fewer, some seeds leave
# a cuisine with a single weak label and the stratified split refuses it.
# Half of the labelled restaurants go to the test split, not a fifth, so
# that the accuracy of one seed rests on ~180 restaurants instead of ~70.
STEADY = {"train.train_frac": 0.5}

WORKLOADS = {
    # The paper's configuration (DEFAULT_CONFIG) at a tenth of its volume:
    # ~10 transactions per restaurant instead of 225.
    "paper_default": Workload(
        shape={},
        scale={"synth.n_restaurants": 500, "synth.n_customers": 1500, "synth.days": 14,
               **STEADY},
        gates=True),
    # Many restaurants with few transactions each, plus the biterm topic
    # model: per-restaurant work (GMM, nnet rows, BTM) dominates. Five topics
    # for ten cuisines leave mixed topics unmapped; with ten, topic labels
    # reach every restaurant and no metrics_truth.tsv is written. Fifty
    # epochs keep training at about a fifth of the run; at 150 its row count,
    # which varies with label coverage between seeds, sets the time.
    "wide_shallow": Workload(
        shape={"label.topic_augment": True, "label.btm.k": 5},
        scale={"synth.n_restaurants": 1000, "synth.n_customers": 1000, "synth.days": 10,
               "train.epochs": 50, **STEADY}),
    # Retrain and evaluate (with leave-one-block-out ablation) on artifacts
    # an earlier set-up produced; ingest, features and embed are set-up only.
    "retrain_ablation": Workload(
        shape={"eval.ablation": True},
        scale={"synth.n_restaurants": 500, "synth.n_customers": 750, "synth.days": 10,
               "train.epochs": 10, **STEADY},
        setup=("synth", "label", "features", "embed"),
        timed=("train", "eval")),
}

# Acceptance criterion 10's volume and dimensions, for the self-test.
SMOKE_SCALE = {
    "synth.n_restaurants": 150, "synth.n_customers": 750, "synth.days": 14,
    "embed.micro.dim": 8, "embed.micro.window": 4, "embed.micro.negative": 4,
    "embed.micro.epochs": 1, "embed.macro.dim": 8, "embed.macro.window": 20,
    "embed.macro.negative": 4, "embed.macro.epochs": 1, "embed.name_dim": 10,
    "train.branch_hidden": 8, "train.trunk_hidden": [16, 8], "train.epochs": 10,
}

SETUP_CHILD = """\
import json, sys
sys.path.insert(0, sys.argv[1])
from cuisine_infer import pipeline
cfg = pipeline.load_config(None, json.loads(sys.argv[2]))
for stage in json.loads(sys.argv[3]):
    pipeline.STAGES[stage](cfg)
"""


def import_package() -> dict:
    """The cuisine_infer modules, imported from this checkout's src/."""
    if not (SRC / "cuisine_infer" / "pipeline.py").is_file():
        raise SystemExit(f"bench: no cuisine_infer sources under {SRC}")
    sys.path.insert(0, str(SRC))
    pkg = {name: importlib.import_module(f"cuisine_infer.{name}") for name in MODULES}
    where = Path(pkg["pipeline"].__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise SystemExit(f"bench: imported cuisine_infer from {where}, not from {SRC}")
    return pkg


def _file_digests(out: Path, names) -> dict[str, str]:
    return {n: hashlib.sha256((out / n).read_bytes()).hexdigest() for n in names}


def combined_digest(files: dict[str, str]) -> str:
    return hashlib.sha256(json.dumps(files, sort_keys=True).encode()).hexdigest()


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "cuisine_infer").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split(" ")[0]
    return None


def environment(seed: int, src_digest: str) -> dict:
    import numpy as np

    cpu = platform.processor()
    with contextlib.suppress(OSError), open("/proc/cpuinfo", encoding="utf-8") as fh:
        cpu = next((line.split(":", 1)[1].strip() for line in fh
                    if line.startswith("model name")), cpu)
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu, "python": platform.python_version(), "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version', '')}".strip(),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "git_commit": git_commit(), "src_sha256": src_digest, "seed": seed,
    }


class DigestStore:
    """Digests of earlier runs in this checkout, keyed by config and sources,
    so a run whose files differ from another run of the same seed fails."""

    def __init__(self, key_material: dict):
        self.path = WORK / "digests.json"
        self.key = hashlib.sha256(json.dumps(key_material, sort_keys=True).encode()).hexdigest()

    def reference(self, files: dict[str, str]) -> dict[str, str]:
        """The stored digests for this key, storing `files` if there are none."""
        stored = json.loads(self.path.read_text()) if self.path.is_file() else {}
        if self.key not in stored:
            stored[self.key] = files
            tmp = self.path.with_suffix(f".{os.getpid()}.tmp")
            tmp.write_text(json.dumps(stored, indent=0, sort_keys=True))
            os.replace(tmp, self.path)
        return stored[self.key]


class Bench:
    """One benchmark process: runs stages, checks their files, counts failures."""

    def __init__(self, pkg: dict, cfg: dict, workload: Workload, overrides: dict,
                 store: DigestStore):
        self.pkg = pkg
        self.cfg = cfg
        self.workload = workload
        self.overrides = overrides
        self.out = Path(cfg["out_dir"])
        self.checker = outputs.Checker(pkg, cfg)
        self.store = store
        self.reference: dict[str, str] | None = None
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def fail(self, stages, problems) -> None:
        self.failed += len(stages)
        self.problems.extend(problems)

    def check_files(self, stages) -> None:
        for stage in stages:
            problems = self.checker.check(self.out, stage)
            if problems:
                self.fail([stage], problems)

    def check_digest(self) -> str:
        """Digest of the tracked files. A file that differs from an earlier
        run of the same seed fails the stage that wrote it."""
        files = _file_digests(self.out, outputs.TRACKED)
        if self.reference is None:
            self.reference = self.store.reference(files)
        differ = [n for n in outputs.TRACKED if self.reference[n] != files[n]]
        if differ:
            self.fail({outputs.TRACKED_BY[n] for n in differ},
                      [f"{outputs.TRACKED_BY[n]}: {n} differs from another run of this seed"
                       for n in differ])
        return combined_digest(files)

    def setup_in_children(self) -> list[float]:
        """Start fresh interpreters that import the package, load the config
        and run the set-up stages; return each one's start-to-exit time."""
        overrides = {**self.overrides, "seed": self.cfg["seed"], "out_dir": self.cfg["out_dir"]}
        stages = list(self.workload.setup)
        upstream = [n for n in outputs.TRACKED if outputs.TRACKED_BY[n] in stages]
        samples, first = [], None
        for _ in range(SETUP_REPEATS):
            self.attempted += len(stages)
            t0 = time.perf_counter()
            child = subprocess.run(
                [sys.executable, "-c", SETUP_CHILD, str(SRC), json.dumps(overrides),
                 json.dumps(stages)], cwd=ROOT, stdout=subprocess.DEVNULL)
            samples.append(time.perf_counter() - t0)
            if child.returncode != 0:
                self.fail(stages, [f"set-up exited with code {child.returncode}"])
                return samples
            files = _file_digests(self.out, upstream)
            first = first or files
            if files != first:
                self.fail(stages, ["set-up: files differ between set-up runs"])
        self.check_files(stages)
        return samples

    def iteration(self, stages, tracer: tracing.Tracer | None = None) -> dict | None:
        """One pipeline run over `stages`, then the checks of their files.
        Returns the run's timings, or None when anything failed."""
        for stage in stages:
            for name in self.checker.artifacts(stage):
                (self.out / name).unlink(missing_ok=True)
        stage_fns = self.pkg["pipeline"].STAGES
        times = {}
        with tracer.installed(self.pkg) if tracer else contextlib.nullcontext():
            start = time.perf_counter()
            for stage in stages:
                self.attempted += 1
                t0 = time.perf_counter()
                try:
                    if tracer:
                        with tracer.span(f"pipeline.{stage}"):
                            stage_fns[stage](self.cfg)
                    else:
                        stage_fns[stage](self.cfg)
                except Exception:  # a failing stage is a measured outcome
                    self.fail([stage], [f"{stage} raised:\n{traceback.format_exc()}"])
                    return None
                times[stage] = time.perf_counter() - t0
            wall = time.perf_counter() - start
        self.check_files(stages)
        if self.problems:
            return None
        gaps = {st: abs(times[st] - outputs.manifest_duration(self.out, st)) for st in stages}
        return {"wall_s": wall, "stages_s": times, "manifest_gaps_s": gaps}

    def checked_iteration(self, tracer: tracing.Tracer | None = None) -> dict | None:
        """A timed pipeline run whose tracked files must match other runs."""
        run = self.iteration(self.workload.timed, tracer)
        if run is not None:
            run["digest"] = self.check_digest()
        return None if self.problems else run


def measure(seconds: float, step) -> list:
    """Call `step` while the next call is expected to end less than half a
    call after `seconds`, and at least once, so a run lasts `seconds` on
    average. Stops early when `step` returns None."""
    done = []
    start = time.perf_counter()
    while True:
        result = step()
        if result is None:
            break
        done.append(result)
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(done) / 2 >= seconds:
            break
    return done


def flagged_gaps(runs) -> list[str]:
    """Stages whose manifest duration_s differs from the benchmark's own
    stage time by more than the manifest's resolution."""
    return sorted({st for run in runs for st, gap in run["manifest_gaps_s"].items()
                   if gap > MANIFEST_RESOLUTION_S})


def metric_values(values: dict, units: dict) -> dict:
    return {name: {"value": values[name], "unit": units[name]} for name in units}


def plain_run(bench: Bench, seconds: float) -> tuple[dict, dict]:
    """End-to-end metrics; no tracer is installed."""
    setups = bench.setup_in_children()
    runs = [] if bench.problems else measure(seconds, bench.checked_iteration)
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    report = {"setup_samples_s": setups, "iterations": runs,
              "manifest_gap_flagged": flagged_gaps(runs)}
    if not runs:
        return {}, report
    wall = statistics.median(r["wall_s"] for r in runs)
    values = {"wall_s": wall,
              "restaurants_per_s": outputs.feature_rows(bench.out) / wall,
              "setup_s": statistics.median(setups), "peak_rss_mb": peak_kib / 1024,
              **outputs.quality(bench.out)}
    if bench.workload.gates:
        problems = outputs.gate_problems(bench.out, values)
        if problems:
            bench.fail({p.split(":")[0] for p in problems}, problems)
    return metric_values(values, END_TO_END_UNITS), report


def trace_run(bench: Bench, seconds: float, tracer: tracing.Tracer) -> tuple[dict, dict]:
    """Per-layer metrics from traced pipeline runs, each paired with an
    untraced run of the same stages to give the tracing overhead. On a
    workload with set-up stages the set-up is traced too, once."""
    if bench.workload.setup:
        tracer.run = "setup"
        bench.iteration(bench.workload.setup, tracer)
    setup_spans = list(tracer.spans)
    run_ids = itertools.count()

    def pair():
        plain = bench.checked_iteration()
        if plain is None:
            return None
        tracer.run = next(run_ids)
        traced = bench.checked_iteration(tracer)
        if traced is None:
            return None
        micro, macro = outputs.margins(bench.pkg, bench.out)
        spans = setup_spans + [s for s in tracer.spans if s.run == tracer.run]
        layers = tracing.layer_metrics(spans, {
            "topic_labels": outputs.topic_labels(bench.out),
            "micro_margin": micro, "macro_margin": macro,
            "artifact_bytes": outputs.artifact_bytes(bench.out),
            "manifest_gap_s": max(traced["manifest_gaps_s"].values()),
        })
        return plain, traced, {**layers, **outputs.quality(bench.out)}

    runs = [] if bench.problems else measure(seconds, pair)
    negative = tracing.negative_self_times(tracer.spans)
    if negative:
        bench.problems.append(f"negative self time in spans: {negative}")
    report = {"iterations": [{"untraced": p, "traced": t} for p, t, _ in runs],
              "manifest_gap_flagged": flagged_gaps(r for p, t, _ in runs for r in (p, t))}
    if not runs:
        return {}, report
    values = tracing.median_metrics([layers for _p, _t, layers in runs])
    values["trace.overhead_s"] = (statistics.median(t["wall_s"] for _p, t, _l in runs)
                                  - statistics.median(p["wall_s"] for p, _t, _l in runs))
    return metric_values(values, PER_LAYER_UNITS), report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--smoke", action="store_true",
                        help="criterion-10 volume and dimensions, for the self-test")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    # On SIGTERM, unwind: subprocess.run kills and reaps a running set-up
    # child, and the pipeline output is removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    pkg = import_package()
    workload = WORKLOADS[args.workload]
    overrides = {**workload.shape, **(SMOKE_SCALE if args.smoke else workload.scale)}
    out = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    WORK.mkdir(parents=True, exist_ok=True)
    shutil.rmtree(out, ignore_errors=True)
    cfg = pkg["pipeline"].load_config(None, {**overrides, "seed": args.seed,
                                             "out_dir": str(out)})
    src_digest = source_digest()
    store = DigestStore({"workload": args.workload, "seed": args.seed,
                         "overrides": overrides, "src": src_digest})
    bench = Bench(pkg, cfg, workload, overrides, store)
    try:
        if args.trace:
            tracer = tracing.Tracer()
            metrics, report = trace_run(bench, args.seconds, tracer)
            tracer.write(WORK / f"spans-{args.workload}-{args.seed}.jsonl")
        else:
            metrics, report = plain_run(bench, args.seconds)
    finally:
        shutil.rmtree(out, ignore_errors=True)

    report.update({"workload": args.workload, "smoke": args.smoke,
                   "environment": environment(args.seed, src_digest),
                   "failed_frac": bench.failed / max(1, bench.attempted),
                   "problems": bench.problems})
    print(json.dumps({"report": report}))
    print(json.dumps({"correct": not bench.problems and bench.failed == 0,
                      "attempted": max(1, bench.attempted), "failed": bench.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
