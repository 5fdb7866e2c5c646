"""contspan benchmark: three workloads through the contspan CLI.

    python3 perfbench/run.py --workload full_cdac --seed 1 --seconds 12 --trace 0

Run from the root of a checkout. The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``. An
operation is one stream step (``run``) or one domain's test set scored
(``eval``); each round runs the whole command, so it attempts three. See
README.md in this directory for the workloads and the metrics.
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
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import reference as ref  # noqa: E402

ROOT = HERE.parent
# set-up runs at least SETUP_REPEATS times and until SETUP_SECONDS have
# passed; setup_s is the median, since one short set-up is noisy
SETUP_REPEATS = 2
SETUP_SECONDS = 2.0
MAX_ANSWER_LEN = 8  # the CLI's default for both run and eval


# Every workload trains on the seed-0 desk stream's training split (the
# ROADMAP's reference stream), and --seed draws the test split it is scored
# on. F1 after continual training swings by tens of points between training
# streams, so varying them would leave the F1 metrics without a usable bound.
TRAIN_SEED = 0


@dataclass(frozen=True)
class Workload:
    name: str
    setting: str
    train_size: int                   # per domain, from the TRAIN_SEED stream
    test_size: int                    # per domain, from the --seed stream
    command: tuple[str, ...]          # after `contspan`; {w} is the work dir
    pretrain: tuple[str, ...] = ()    # set-up training on {w}/train, for eval
    pretrain_test: int = 1            # test rows per domain of {w}/train
    memory: int = 0                   # capacity whose saved files are checked

    @property
    def is_eval(self) -> bool:
        return self.command[0] == "eval"


def workloads(size: str = "desk") -> dict[str, Workload]:
    """The benchmark's workloads; ``tiny`` runs the same code in seconds."""
    desk = size == "desk"
    mem = "30" if desk else "6"
    seq = ["--lr", "1.5e-3", "--epochs", "3" if desk else "1", "--seed", "0"]
    joint = ["--lr", "1e-3", "--epochs", "5" if desk else "1", "--seed", "0"]
    return {w.name: w for w in (
        Workload(
            "full_cdac", "cdac", 512 if desk else 24, 128 if desk else 16,
            ("run", "--data", "{w}/stream", "--method", "ma_mrc", "--memory-size", mem,
             *seq, "--report", "{w}/report.json", "--out-dir", "{w}/ckpt"),
            memory=int(mem)),
        Workload(
            "joint_cdac", "cdac", 256 if desk else 16, 128 if desk else 16,
            ("run", "--data", "{w}/stream", "--method", "upper", *joint,
             "--report", "{w}/report.json")),
        Workload(
            "eval_cdaq", "cdaq", 128 if desk else 48, 1024 if desk else 32,
            ("eval", "--checkpoint", "{w}/ckpt/step3.ckpt", "--data", "{w}/stream",
             "--report", "{w}/report.json"),
            pretrain=("run", "--data", "{w}/train", "--method", "lower", "--lr", "3e-3",
                      "--epochs", "2", "--seed", "0", "--report", "{w}/train_report.json",
                      "--out-dir", "{w}/ckpt"),
            pretrain_test=32 if desk else 8),
    )}


# ---------------------------------------------------------------------------
# running the CLI

class SetupError(RuntimeError):
    pass


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    # one BLAS thread (never more than nproc); at the desk encoder's shapes
    # it is as fast as two here and steadier on a shared host
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


@dataclass
class Proc:
    code: int
    seconds: float
    maxrss_mb: float
    log: Path


def run_proc(args: list[str], log: Path, spans: Path | None = None,
             alloc: bool = False) -> Proc:
    """Run one contspan CLI command to its end, timing it and reading its
    peak RSS from its own rusage."""
    if spans is None:
        cmd = [sys.executable, "-m", "contspan.cli", *args]
    else:
        cmd = [sys.executable, str(HERE / "traced.py"), str(spans),
               *(["--alloc"] if alloc else []), "--", *args]
    with open(log, "wb") as out:
        tic = time.perf_counter()
        p = subprocess.Popen(cmd, stdout=out, stderr=subprocess.STDOUT, env=child_env(),
                             cwd=ROOT)
        try:
            _, status, usage = os.wait4(p.pid, 0)
        except BaseException:
            p.kill()
            p.wait()
            raise
        seconds = time.perf_counter() - tic
    p.returncode = os.waitstatus_to_exitcode(status)
    return Proc(p.returncode, seconds, usage.ru_maxrss / 1024.0, log)


def fill(args, work: Path) -> list[str]:
    return [a.replace("{w}", str(work)) for a in args]


def setup(wl: Workload, seed: int, work: Path, spans: list[Path] | None = None) -> float:
    """Generate the streams in a fresh work dir: {w}/train from TRAIN_SEED,
    {w}/stream with --seed's test split. A ``run`` workload's stream takes
    its training split from {w}/train; an ``eval`` workload trains its
    checkpoint on {w}/train instead."""
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    tic = time.perf_counter()
    for out, train, test, s in (("train", wl.train_size, wl.pretrain_test, TRAIN_SEED),
                                ("stream", 1, wl.test_size, seed)):
        span_file = None
        if spans is not None:
            span_file = work / f"gen_{out}.npz"
            spans.append(span_file)
        args = ["gen", "--setting", wl.setting, "--domains", "3", "--train-size", str(train),
                "--test-size", str(test), "--seed", str(s), "--out", str(work / out)]
        if run_proc(args, work / f"gen_{out}.log", span_file).code != 0:
            raise SetupError(f"`contspan gen` failed; see {work / f'gen_{out}.log'}")
    for name in ("vocab.txt", "manifest.json"):
        if (work / "train" / name).read_bytes() != (work / "stream" / name).read_bytes():
            raise SetupError(f"the two generated streams differ in {name}")
    if wl.pretrain:
        if run_proc(fill(wl.pretrain, work), work / "train.log").code != 0:
            raise SetupError(f"set-up training failed; see {work / 'train.log'}")
    else:
        for path in (work / "train").glob("*.train.jsonl"):
            shutil.copyfile(path, work / "stream" / path.name)
    return time.perf_counter() - tic


# ---------------------------------------------------------------------------
# checks

class Checker:
    """Independent checks on one workload's outputs (see reference.py)."""

    def __init__(self, wl: Workload, work: Path):
        self.wl = wl
        self.work = work
        man = ref.read_manifest(work / "stream")
        self.order = list(range(len(man["domains"])))
        self.l_max = man["l_max"]
        self.tests = ref.read_stream_split(work / "stream", "test")
        self.n_ops = len(self.order)

    def op_index(self, f: ref.Failure) -> int:
        """0-based operation index: step t -> t-1, domain d -> d."""
        return f.op if self.wl.is_eval else f.op - 1

    def full(self, report: dict) -> list[ref.Failure]:
        wl, w = self.wl, self.work
        steps = 1 if wl.is_eval else self.n_ops
        fails = ref.check_report(report, self.order, [len(t) for t in self.tests],
                                 steps, wl.is_eval)
        if fails:
            return fails
        ckpt_dir = w / "ckpt"
        if not ckpt_dir.exists():  # joint_cdac writes no checkpoints
            return fails
        final = report["steps"][-1]["per_domain"]
        # a wrong final F1 fails the domain's scoring (eval) or the last step (run)
        op_of = (lambda d: d) if wl.is_eval else (lambda d: steps)
        ckpt = ckpt_dir / f"step{len(self.order)}.ckpt"
        fails += ref.check_f1(ckpt, self.tests, final, op_of, MAX_ANSWER_LEN)
        # the trained domains: the set-up training stream's, if there is one
        trained = ref.read_stream_split(w / "train", "test") if wl.pretrain else self.tests
        fails += ref.check_beats_init(ckpt_dir / "init.ckpt", ckpt, trained, op_of,
                                      MAX_ANSWER_LEN)
        if wl.memory:
            trains = ref.read_stream_split(w / "stream", "train")
            for t in range(1, steps + 1):
                fails += ref.check_memory(ckpt_dir / f"step{t}.memory.jsonl", wl.memory, t,
                                          self.order, trains, self.l_max)
        return fails


def report_digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def program_digest(wl: Workload) -> str:
    """Identifies the sources and the workload, so that an edited program
    is not held to an earlier program's report bytes."""
    h = hashlib.sha256(repr(wl).encode())
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


class Digests:
    """report.json digests by workload and seed, kept in the output dir, so
    a later run of the same seed must give the same bytes."""

    def __init__(self, path: Path):
        self.path = path
        self.data = json.loads(path.read_text()) if path.exists() else {}

    def check(self, key: str, digest: str) -> bool:
        known = self.data.setdefault(key, digest)
        self.path.write_text(json.dumps(self.data, sort_keys=True, indent=1))
        return known == digest


# ---------------------------------------------------------------------------
# one run

@dataclass
class Round:
    proc: Proc
    failed_ops: set[int]


def run_round(wl: Workload, work: Path, checker: Checker, digests: Digests, key: str,
              spans: Path | None = None, alloc: bool = False,
              first: Round | None = None) -> Round:
    """One run of the measured command. The first round of a run is checked
    in full; a later one must repeat its report bytes, and then shares its
    verdict, so the failed share is the same however many rounds run."""
    for stale in ("report.json",) + (() if wl.is_eval else ("ckpt",)):
        p = work / stale
        if p.is_dir():
            shutil.rmtree(p)
        elif p.exists():
            p.unlink()
    proc = run_proc(fill(wl.command, work), work / "command.log", spans, alloc)
    all_ops = set(range(checker.n_ops))
    if proc.code != 0:
        print(f"{wl.name}: command exited {proc.code}; see {proc.log}", file=sys.stderr)
        return Round(proc, all_ops)
    if not digests.check(key, report_digest(work / "report.json")):
        print(f"{wl.name}: report.json differs from an earlier run of {key}",
              file=sys.stderr)
        return Round(proc, all_ops)
    if first is not None:
        return Round(proc, first.failed_ops)
    fails = checker.full(json.loads((work / "report.json").read_text()))
    for f in fails:
        print(f"{wl.name}: check failed: {f.what}", file=sys.stderr)
    return Round(proc, {checker.op_index(f) for f in fails})


def measure(wl: Workload, seed: int, seconds: float, trace: bool, out: Path) -> dict:
    work = out / wl.name
    digests = Digests(out / "digests.json")
    key = f"{wl.name}/{seed}/{program_digest(wl)}"
    rounds: list[Round] = []
    metrics: dict[str, dict] = {}
    if not trace:
        setups: list[float] = []
        while len(setups) < SETUP_REPEATS or sum(setups) < SETUP_SECONDS:
            setups.append(setup(wl, seed, work))
        checker = Checker(wl, work)
        # whole rounds until the commands have run for `seconds`; the checks
        # after the first round do not count
        while not rounds or sum(r.proc.seconds for r in rounds) < seconds:
            rounds.append(run_round(wl, work, checker, digests, key,
                                    first=rounds[0] if rounds else None))
        report = json.loads((work / "report.json").read_text()) \
            if (work / "report.json").exists() else None
        metrics = end_to_end(setups, rounds, report)
    else:
        span_files: list[Path] = []
        setup(wl, seed, work, span_files)
        checker = Checker(wl, work)
        plain = run_round(wl, work, checker, digests, key)
        traced = run_round(wl, work, checker, digests, key, spans=work / "spans.npz",
                           first=plain)
        alloc = run_round(wl, work, checker, digests, key, spans=work / "alloc.npz",
                          alloc=True, first=plain)
        rounds = [plain, traced, alloc]
        metrics = per_layer(span_files + [work / "spans.npz"], work / "alloc.npz")
        metrics["trace.run_s"] = {"value": traced.proc.seconds, "unit": "s"}
        metrics["trace.overhead_s"] = {"value": traced.proc.seconds - plain.proc.seconds,
                                       "unit": "s"}
    failed = sum(len(r.failed_ops) for r in rounds)
    return {"correct": failed == 0, "attempted": checker.n_ops * len(rounds),
            "failed": failed, "metrics": metrics}


def end_to_end(setups: list[float], rounds: list[Round], report: dict | None) -> dict:
    def m(value, unit):
        return {"value": value, "unit": unit}

    out = {
        "setup_s": m(statistics.median(setups), "s"),
        "run_s": m(statistics.median(r.proc.seconds for r in rounds), "s"),
        "peak_rss_mb": m(statistics.median(r.proc.maxrss_mb for r in rounds), "MB"),
    }
    if report is not None:
        final = report["steps"][-1]
        out["f1_avg_final"] = m(final["f1_avg"], "F1")
        out["f1_d0_final"] = m(next(e["f1"] for e in final["per_domain"]
                                    if e["domain"] == 0), "F1")
    return out


# ---------------------------------------------------------------------------
# per-layer metrics from spans

SPAN_METRICS = {  # metric -> (span name, total or self time)
    "autodiff.backward.self_s": ("autodiff.backward", "self"),
    "autodiff.adam.step_s": ("autodiff.adam.step", "total"),
    "backbone.forward.s": ("backbone.forward", "total"),
    "backbone.decode.s": ("backbone.decode", "total"),
    "backbone.span_loss.s": ("backbone.span_loss", "total"),
    "backbone.save.s": ("backbone.save", "total"),
    "backbone.load.s": ("backbone.load", "total"),
    "engine.fit.self_s": ("engine.fit", "self"),
    "engine.step.self_s": ("engine.step", "self"),
    "engine.evaluate.s": ("engine.evaluate", "total"),
    "memory.update.s": ("memory.update", "total"),
    "memory.save.s": ("memory.save", "total"),
    "adversarial.game.s": ("adversarial.game", "total"),
    "adversarial.probe.s": ("adversarial.probe", "total"),
    "distill.kl.s": ("distill.kl", "total"),
    "distill.teacher.s": ("distill.teacher", "total"),
    "data.generate.s": ("data.generate", "total"),
    "data.write.s": ("data.write", "total"),
    "data.load.s": ("data.load", "total"),
    "metrics.em_f1.s": ("metrics.em_f1", "total"),
    "metrics.report_save.s": ("metrics.report_save", "total"),
}
COUNT_METRICS = ("autodiff.nodes", "backbone.forward.rows", "engine.evaluate.rows",
                 "memory.forward_rows", "memory.evicted", "adversarial.probe.steps",
                 "distill.teacher_rows")
ALLOC_METRICS = ("engine.evaluate.peak_alloc_mb", "engine.fit.peak_alloc_mb")


def span_totals(files: list[Path]):
    """Per span name: summed duration, summed self time, and span count.
    Self time is a span's duration minus the durations of its children."""
    total: dict[str, float] = {}
    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    counts: dict[str, float] = {}
    ops: list[str] = []
    for path in files:
        z = np.load(path)
        names = json.loads(str(z["names"]))
        dur, parent, name_of = z["dur"], z["parent"], z["name_of"]
        child = np.bincount(parent[parent >= 0], weights=dur[parent >= 0],
                            minlength=len(dur)) if len(dur) else np.zeros(0)
        own = dur - child
        for i, name in enumerate(names):
            sel = name_of == i
            total[name] = total.get(name, 0.0) + float(dur[sel].sum())
            self_s[name] = self_s.get(name, 0.0) + float(own[sel].sum())
            calls[name] = calls.get(name, 0) + int(sel.sum())
        for k, v in json.loads(str(z["counts"])).items():
            counts[k] = counts.get(k, 0.0) + v
        ops = ops or json.loads(str(z["ops"]))
    return total, self_s, calls, counts, ops


def per_layer(span_files: list[Path], alloc_file: Path) -> dict:
    total, self_s, calls, counts, ops = span_totals([p for p in span_files if p.exists()])
    out: dict[str, dict] = {}
    for op in ops:
        out[f"autodiff.op.{op}.fwd_s"] = {"value": total.get(f"autodiff.op.{op}.fwd", 0.0),
                                          "unit": "s"}
        out[f"autodiff.op.{op}.bwd_s"] = {"value": total.get(f"autodiff.op.{op}.bwd", 0.0),
                                          "unit": "s"}
        out[f"autodiff.op.{op}.calls"] = {"value": calls.get(f"autodiff.op.{op}.fwd", 0),
                                          "unit": "count"}
    for metric, (span, kind) in SPAN_METRICS.items():
        out[metric] = {"value": (self_s if kind == "self" else total).get(span, 0.0),
                       "unit": "s"}
    out["autodiff.adam.steps"] = {"value": calls.get("autodiff.adam.step", 0),
                                  "unit": "count"}
    for metric in COUNT_METRICS:
        out[metric] = {"value": int(counts.get(metric, 0)), "unit": "count"}
    padded = counts.get("backbone.forward.padded_tokens", 0)
    out["backbone.forward.pad_useful"] = {
        "value": counts.get("backbone.forward.valid_tokens", 0) / padded if padded else 0.0,
        "unit": "ratio"}
    alloc = span_totals([alloc_file])[3] if alloc_file.exists() else {}
    for metric in ALLOC_METRICS:
        out[metric] = {"value": alloc.get(metric, 0.0), "unit": "MB"}
    return out


# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads()))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "contspan" / "cli.py").is_file():
        print(f"error: no contspan sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    try:
        result = measure(workloads()[args.workload], args.seed, args.seconds,
                         bool(args.trace), ROOT / ".perfbench_out")
    except SetupError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
