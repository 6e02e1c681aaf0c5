"""oiekit benchmark: drives ``oiekit.cli.main`` in-process on seeded
synthetic corpora and prints one JSON result line.

Run from the repository root:

    python3 bench/run.py --workload pretrain --seed 0 --seconds 20 --trace 0

Workloads (see bench/README.md): ``pretrain``, ``rl`` and ``extract``.
With ``--trace 0`` the result holds the end-to-end metrics; with
``--trace 1`` it holds the per-layer metrics of a traced run. The line
before the result is a JSON detail record: environment, output
fingerprints, sizes and per-pass stage times.
"""

from __future__ import annotations

import os

# One BLAS thread, set before numpy loads: every number comes from one
# single-threaded process, and the matrices (64x256) are too small to gain
# from more on a two-core machine.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import contextlib
import hashlib
import io
import json
import platform
import resource
import shutil
import statistics
import sys
from dataclasses import asdict, dataclass
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("pretrain", "rl", "extract")


@dataclass(frozen=True)
class Sizes:
    train: int          # training sentences (every workload)
    dev: int            # dev sentences split off the same corpus (pretrain, rl)
    heldout: int        # held-out sentences from a separate seed stream (extract)
    epochs: int         # pretrain epochs, timed (pretrain) or in set-up (rl, extract)
    rl_epochs: int      # rl-train epochs in the timed part of `rl`
    setup_reps: int     # timed set-ups per run, at least; setup_s is their median
    setup_seconds: float  # and set up again until this much set-up time is timed


FULL = Sizes(train=120, dev=180, heldout=500, epochs=5, rl_epochs=1, setup_reps=3,
             setup_seconds=0.5)

# Adam step for pretraining. The default (1e-3) needs far more epochs than
# a run can afford before dev F1 settles; at 2e-2 five epochs reach the
# labelling functions' own F1 on every seed tried.
PRETRAIN_STEP_SIZE = 0.02

# On a two-vCPU Xeon virtual machine (2.1 GHz) the same pass runs up to 35%
# slower for minutes at a time, so raw times of ten consecutive runs
# spread past any usable bound. Each pass and each set-up is therefore
# bracketed by CAL_SECONDS of a fixed numpy/Python kernel that does not use
# oiekit, and the timing metrics divide by its mean time per call before
# and after. REF_CAL_S, one call on that machine at its usual speed,
# scales the result back to seconds.
CAL_SECONDS = 0.25
REF_CAL_S = 5.5e-4


class StageFailed(Exception):
    pass


class Run:
    """One benchmark run: CLI invocations, output checks and their tally."""

    def __init__(self, work: Path, sizes: Sizes, seed: int):
        self.work = work
        self.sizes = sizes
        self.seed = seed
        self.attempted = 0
        self.failures: list[str] = []
        self.tracer = None
        self.steps = 0  # (sentence, predicate) pairs per rl-train run

    def path(self, name: str) -> str:
        return str(self.work / name)

    def cli(self, command: str, *args) -> float:
        """Run one oiekit command in-process; returns its wall time."""
        from oiekit import cli

        self.attempted += 1
        argv = [command, *map(str, args)]
        captured = io.StringIO()
        span = self.tracer.span(f"cli.{command}") if self.tracer else contextlib.nullcontext()
        start = perf_counter()
        with span, contextlib.redirect_stdout(captured):
            code = cli.main(argv)
        elapsed = perf_counter() - start
        if code != 0:
            self.failures.append(f"oiekit {' '.join(argv)} exited {code}")
            raise StageFailed(self.failures[-1])
        return elapsed

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


def sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def count_lines(path) -> int:
    with open(path, encoding="utf-8") as handle:
        return sum(1 for line in handle if line.strip())


def _cal_kernel(np, x, wx, wh, moments):
    """LSTM-like recurrence with a transposed product, an Adam-like
    in-place update and a beam-like Python loop: the operation mix of the
    tagger at its sizes."""
    h = np.zeros(64)
    c = np.zeros(64)
    xw = x @ wx
    for t in range(len(x)):
        z = xw[t] + h @ wh
        gates = 1.0 / (1.0 + np.exp(-z[:192]))
        c = gates[64:128] * c + gates[:64] * np.tanh(z[192:])
        h = gates[128:] * np.tanh(c) + 1e-3 * (wh @ z)
    for m, g in moments:
        m *= 0.9
        m += 0.1 * g * g
    beams = {"O": [(0.0, ())]}
    for t in range(len(x)):
        beams = {label: sorted(((score - t, prefix + (label,)) for score, prefix in beams["O"]),
                               key=lambda entry: (-entry[0], entry[1]))[:3]
                 for label in ("O", "B-ARG1", "I-ARG1", "B-P")}


def calibrate(seconds: float = CAL_SECONDS) -> float:
    """Seconds per call of the calibration kernel, timed over ``seconds``."""
    import numpy as np

    rng = np.random.default_rng(0)
    moments = [(np.zeros(shape), rng.uniform(-0.1, 0.1, shape)) for shape in ((300, 32), (128, 256))]
    args = (rng.uniform(-1, 1, (14, 40)), rng.uniform(-0.1, 0.1, (40, 256)),
            rng.uniform(-0.1, 0.1, (64, 256)), moments)
    calls = 0
    start = perf_counter()
    while True:
        _cal_kernel(np, *args)
        calls += 1
        elapsed = perf_counter() - start
        if elapsed >= seconds:
            return elapsed / calls


def heldout_seed(seed: int) -> int:
    import numpy as np

    return int(np.random.SeedSequence([seed, 1]).generate_state(1)[0])


# ---------------------------------------------------------------------------
# Set-up: inputs (and, for rl/extract, the starting checkpoint)
# ---------------------------------------------------------------------------


def write_config(run: Run) -> None:
    # patience > epochs: early stopping never changes the amount of work.
    Path(run.path("pretrain.cfg")).write_text(
        f"epochs = {run.sizes.epochs}\npatience = {run.sizes.epochs + 1}\n"
        f"step_size = {PRETRAIN_STEP_SIZE}\n", encoding="utf-8")


def synth_split(run: Run) -> None:
    total = run.sizes.train + run.sizes.dev
    run.cli("synth", "--n", total, "--seed", run.seed, "--dev-fraction", run.sizes.dev / total,
            "--out-conllu", run.path("train.conllu"), "--out-gold", run.path("train.gold"),
            "--dev-conllu", run.path("dev.conllu"), "--dev-gold", run.path("dev.gold"))


def short_pretrain(run: Run) -> None:
    """label + pretrain of the starting checkpoint."""
    run.cli("label", "--conllu", run.path("train.conllu"), "--out", run.path("setup.inst"))
    write_config(run)
    run.cli("pretrain", "--instances", run.path("setup.inst"),
            "--config", run.path("pretrain.cfg"), "--out", run.path("start.ckpt"))


def setup_pretrain(run: Run) -> list[str]:
    synth_split(run)
    write_config(run)
    return ["train.conllu", "train.gold", "dev.conllu", "dev.gold"]


def setup_rl(run: Run) -> list[str]:
    from oiekit import corpus_io, patterns

    synth_split(run)
    short_pretrain(run)
    sentences = corpus_io.read_conllu(run.path("train.conllu"))
    run.steps = run.sizes.rl_epochs * sum(len(patterns.identify_predicates(s)) for s in sentences)
    return ["train.conllu", "dev.conllu", "dev.gold", "setup.inst", "start.ckpt"]


def setup_extract(run: Run) -> list[str]:
    run.cli("synth", "--n", run.sizes.train, "--seed", run.seed,
            "--out-conllu", run.path("train.conllu"), "--out-gold", run.path("train.gold"))
    short_pretrain(run)
    run.cli("synth", "--n", run.sizes.heldout, "--seed", heldout_seed(run.seed),
            "--out-conllu", run.path("heldout.conllu"), "--out-gold", run.path("heldout.gold"))
    return ["train.conllu", "setup.inst", "start.ckpt", "heldout.conllu", "heldout.gold"]


# ---------------------------------------------------------------------------
# Timed part: one pass; returns (main-stage items per second, stage times)
# ---------------------------------------------------------------------------


def extract_and_eval(run: Run, model: str, conllu: str, gold: str, *extra) -> dict:
    times = {"extract": run.cli("extract", "--model", model, "--conllu", conllu,
                                "--out", run.path("out.jsonl"), *extra)}
    times["eval"] = run.cli("eval", "--extractions", run.path("out.jsonl"), "--gold", gold,
                            "--report", run.path("report.json"), "--pr-out", run.path("pr.tsv"))
    return times


def pass_pretrain(run: Run):
    times = {"label": run.cli("label", "--conllu", run.path("train.conllu"),
                              "--out", run.path("train.inst"))}
    times["pretrain"] = run.cli("pretrain", "--instances", run.path("train.inst"),
                                "--config", run.path("pretrain.cfg"),
                                "--out", run.path("model.ckpt"))
    times.update(extract_and_eval(run, run.path("model.ckpt"), run.path("dev.conllu"),
                                  run.path("dev.gold")))
    items = count_lines(run.path("train.inst")) * run.sizes.epochs
    return items / times["pretrain"], times


def pass_rl(run: Run):
    # No baseline: every step updates. Under the mean baseline only steps
    # whose candidates' rewards differ update (5-21% of steps, depending on
    # the seed), and each update costs about one more step, so the rl-train
    # throughput spread ~15% across seeds from that alone.
    times = {"rl-train": run.cli("rl-train", "--model", run.path("start.ckpt"),
                                 "--conllu", run.path("train.conllu"),
                                 "--scorer", "surrogate", "--beam", 3, "--baseline", "off",
                                 "--epochs", run.sizes.rl_epochs,
                                 "--out", run.path("model.ckpt"))}
    times.update(extract_and_eval(run, run.path("model.ckpt"), run.path("dev.conllu"),
                                  run.path("dev.gold")))
    return run.steps / times["rl-train"], times


def pass_extract(run: Run):
    times = extract_and_eval(run, run.path("start.ckpt"), run.path("heldout.conllu"),
                             run.path("heldout.gold"), "--rerank", "combined",
                             "--scorer", "surrogate")
    return run.sizes.heldout / times["extract"], times


SETUP = {"pretrain": setup_pretrain, "rl": setup_rl, "extract": setup_extract}
PASS = {"pretrain": pass_pretrain, "rl": pass_rl, "extract": pass_extract}
CHECKPOINT = {"pretrain": "model.ckpt", "rl": "model.ckpt", "extract": "start.ckpt"}


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------


def check_outputs(run: Run, checkpoint: str) -> dict:
    """Checks one pass's outputs; returns its fingerprint."""
    from oiekit import corpus_io

    report = json.loads(Path(run.path("report.json")).read_text(encoding="utf-8"))
    extractions = corpus_io.read_extractions(run.path("out.jsonl"))
    run.check(len(extractions) == report["num_predictions"],
              f"{len(extractions)} extractions re-read, report counts "
              f"{report['num_predictions']}")
    run.check(len(extractions) > 0, "no extractions")
    return {"extractions_sha256": sha256(run.path("out.jsonl")),
            "checkpoint_sha256": sha256(checkpoint),
            "report_sha256": sha256(run.path("report.json")),
            "best_f1": report["best_f1"], "auc": report["auc"]}


def check_checkpoint(run: Run, checkpoint: str) -> None:
    """The checkpoint reloads, re-saves to identical bytes and reloads to
    identical arrays."""
    import numpy as np
    from oiekit import tagger

    model = tagger.load_model(checkpoint)
    copy = run.path("resaved.ckpt")
    tagger.save_model(model, copy)
    again = tagger.load_model(copy)
    same = (sha256(copy) == sha256(checkpoint)
            and list(model.params) == list(again.params)
            and all(a.dtype == b.dtype and np.array_equal(a, b)
                    for a, b in zip(model.params.values(), again.params.values())))
    run.check(same, f"checkpoint {checkpoint} does not reload to identical arrays")


# ---------------------------------------------------------------------------
# Environment record
# ---------------------------------------------------------------------------


def git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def source_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def environment(seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "git_commit": git_commit(),
        "source_sha256": source_sha256(),
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------


def run_workload(run: Run, workload: str, seconds: float, trace: bool):
    """Set up, then repeat the timed pass for ``seconds``. Returns
    (metrics, detail)."""
    import tracing
    from oiekit import cli  # noqa: F401  (import cost stays out of setup_s)

    work, sizes = run.work, run.sizes
    # The first set-up warms up and is not timed. The rest are timed until
    # there are setup_reps of them and setup_seconds in all, each between
    # two calibrations. A traced run sets up once.
    setup_times, setup_cals, setup_prints = [], [], []
    reps = 0 if trace else sizes.setup_reps
    cal = calibrate()
    while (not setup_prints or len(setup_times) < reps
           or (reps and sum(setup_times) < sizes.setup_seconds)):
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        start = perf_counter()
        made = SETUP[workload](run)
        elapsed = perf_counter() - start
        after = calibrate()
        if setup_prints:
            setup_times.append(elapsed)
            setup_cals.append((cal + after) / 2)
        cal = after
        setup_prints.append({name: sha256(run.path(name)) for name in made})
    run.check(all(p == setup_prints[0] for p in setup_prints),
              "repeated set-ups made different files")

    untraced, traced, layers, prints = [], [], [], []
    begin = perf_counter()
    while not untraced or perf_counter() - begin < seconds or (trace and not traced):
        tracer = tracing.Tracer() if trace and len(untraced) > len(traced) else None
        patches = tracing.install(tracer) if tracer else []
        run.tracer = tracer
        try:
            start = perf_counter()
            rate, times = PASS[workload](run)
            wall = perf_counter() - start
        finally:
            run.tracer = None
            tracing.remove(patches)
        after = calibrate()
        if tracer:
            traced.append(wall)
            layers.append(tracing.layer_metrics(tracer))
        else:
            untraced.append((wall, rate, dict(times, cal_s=(cal + after) / 2)))
        cal = after
        prints.append(check_outputs(run, run.path(CHECKPOINT[workload])))
    fingerprint = prints[0]
    run.check(all(p == fingerprint for p in prints),
              "repeated passes gave different outputs")
    check_checkpoint(run, run.path(CHECKPOINT[workload]))

    if trace:
        metrics = {name: statistics.median(row[name] for row in layers) for name in layers[0]}
        metrics["trace.overhead"] = (statistics.median(traced)
                                     / statistics.median(w for w, _, _ in untraced))
    else:
        metrics = {
            "setup_s": statistics.median(
                t / c for t, c in zip(setup_times, setup_cals)) * REF_CAL_S,
            "wall_ref_s": statistics.median(w / t["cal_s"] for w, _, t in untraced) * REF_CAL_S,
            "stage_items_per_ref_s": statistics.median(
                r * t["cal_s"] for _, r, t in untraced) / REF_CAL_S,
            "dev_best_f1": fingerprint["best_f1"],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ok_frac": 1.0 - len(run.failures) / run.attempted,
        }
    detail = {
        "workload": workload,
        "environment": environment(run.seed),
        "sizes": asdict(sizes),
        "fingerprint": fingerprint,
        "setup_s": setup_times,
        "setup_cal_s": setup_cals,
        "passes": [times for _, _, times in untraced],
        "traced_wall_s": traced,
        "failures": run.failures,
    }
    return metrics, detail


def result_line(run: Run, metrics: dict, units: dict) -> str:
    return json.dumps({
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    })


def load_units(trace: bool) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "oiekit" / "__init__.py").is_file():
        print(f"error: no oiekit sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    units = load_units(bool(args.trace))

    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    run = Run(work, FULL, args.seed)
    metrics, detail = {}, {"failures": run.failures}
    try:
        metrics, detail = run_workload(run, args.workload, args.seconds, bool(args.trace))
    except StageFailed:
        pass
    missing = sorted(set(units) - set(metrics))
    if missing and not run.failures:
        run.failures.append(f"metrics not measured: {missing}")
    print(json.dumps(detail, sort_keys=True))
    print(result_line(run, metrics, units))
    if run.failures:
        return 1
    shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
