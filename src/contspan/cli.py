"""Command-line surface: gen, run, eval, gradcheck, report."""

from __future__ import annotations

import argparse
import json
import logging
import sys
from dataclasses import asdict

from . import data as dat
from . import gradcheck
from .engine import ContinualConfig, ContinualEngine, METHODS
from .backbone import BackboneModel
from .metrics import EvalReport

log = logging.getLogger("contspan")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="contspan",
                                 description="continual span-extraction engine")
    sub = ap.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate a synthetic domain stream")
    g.add_argument("--setting", choices=["cdac", "cdaq"], required=True)
    g.add_argument("--domains", type=int, default=3)
    g.add_argument("--train-size", type=int, default=512)
    g.add_argument("--test-size", type=int, default=256)
    g.add_argument("--vocab-size", type=int, default=200)
    g.add_argument("--l-max", type=int, default=64)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", required=True, help="output directory")

    r = sub.add_parser("run", help="run a continual-learning method over a stream")
    r.add_argument("--config", help="JSON run manifest; flags override its values")
    r.add_argument("--method", choices=METHODS)
    r.add_argument("--data", help="dataset directory from `gen`")
    r.add_argument("--memory-size", type=int)
    r.add_argument("--norm", choices=["norm1", "norm2"])
    r.add_argument("--uncertainty", choices=["entropy", "prob", "random"])
    r.add_argument("--order", help="comma-separated domain permutation, e.g. 2,0,1")
    r.add_argument("--seed", type=int)
    r.add_argument("--epochs", type=int)
    r.add_argument("--batch-size", type=int)
    r.add_argument("--lr", type=float)
    r.add_argument("--adv-weight", type=float)
    r.add_argument("--kl-weight", type=float)
    r.add_argument("--report", required=True, help="output report path (JSON)")
    r.add_argument("--out-dir", help="checkpoint directory (enables resume)")
    r.add_argument("--resume", action="store_true")

    e = sub.add_parser("eval", help="evaluate a checkpoint on a stream's test sets")
    e.add_argument("--checkpoint", required=True)
    e.add_argument("--data", required=True)
    e.add_argument("--report", required=True)
    e.add_argument("--max-answer-len", type=int, default=8)

    sub.add_parser("gradcheck", help="run the finite-difference gradient suite")

    p = sub.add_parser("report", help="render a report file as a table and CSV")
    p.add_argument("--input", required=True)
    p.add_argument("--csv", help="also write the F1-vs-step curve as CSV")

    return ap


def cmd_gen(args) -> int:
    cfg = dat.GenConfig(setting=args.setting, n_domains=args.domains,
                        train_size=args.train_size, test_size=args.test_size,
                        vocab_size=args.vocab_size, l_max=args.l_max,
                        seed=args.seed)
    gen = dat.generate_cdaq_stream if args.setting == "cdaq" else dat.generate_cdac_stream
    stream = gen(cfg)
    dat.write_stream(stream, args.out)
    print(f"wrote {len(stream)} domains to {args.out}")
    return 0


_RUN_FLAG_MAP = {
    "method": "method", "memory_size": "memory_size", "norm": "norm_strategy",
    "uncertainty": "uncertainty_kind", "seed": "seed", "epochs": "epochs",
    "batch_size": "batch_size", "lr": "lr", "adv_weight": "adv_weight",
    "kl_weight": "kl_weight",
}


def cmd_run(args) -> int:
    manifest: dict = {}
    if args.config:
        with open(args.config, encoding="utf-8") as f:
            manifest = json.load(f)
    data_dir = args.data or manifest.pop("data", None)
    if not data_dir:
        print("error: no data directory (use --data or a 'data' manifest key)",
              file=sys.stderr)
        return 2
    known = {f.name for f in ContinualConfig.__dataclass_fields__.values()}
    unknown = set(manifest) - known
    if unknown:
        print(f"error: unknown manifest keys: {sorted(unknown)}", file=sys.stderr)
        return 2
    cfg = ContinualConfig(**manifest)
    for flag, field in _RUN_FLAG_MAP.items():
        val = getattr(args, flag, None)
        if val is not None:
            setattr(cfg, field, val)
    if args.order:
        cfg.domain_order = [int(x) for x in args.order.split(",")]

    stream = dat.load_stream(data_dir)
    engine = ContinualEngine(stream, cfg)
    _, report = engine.run(out_dir=args.out_dir, resume=args.resume)
    report.save(args.report)
    total = sum(engine.timings)
    print(report.format_table())
    print(f"total training time: {total:.1f}s "
          f"(per step: {', '.join(f'{x:.1f}s' for x in engine.timings)})")
    print(f"report written to {args.report}")
    return 0


def cmd_eval(args) -> int:
    stream = dat.load_stream(args.data)
    model = BackboneModel.load(args.checkpoint)
    cfg = ContinualConfig(max_answer_len=args.max_answer_len)
    engine = ContinualEngine(stream, cfg)
    seen = list(range(len(stream)))
    per_domain, pooled = engine.evaluate(model, seen)
    from .metrics import f1_avg, f1_all, StepResult
    report = EvalReport(metadata={
        "config": asdict(cfg), "config_hash": "", "method": "eval",
        "seed": cfg.seed, "order": seen,
        "domains": [d.name for d in stream.domains], "setting": stream.setting})
    report.steps.append(StepResult(
        step=1, trained_domain=-1, per_domain=per_domain,
        f1_avg=f1_avg([e["f1"] for e in per_domain]), f1_all=f1_all(pooled)))
    report.save(args.report)
    for e in per_domain:
        print(f"domain {e['domain']}: EM={e['em'] * 100:.2f} F1={e['f1'] * 100:.2f}")
    print(f"F1_avg={report.steps[0].f1_avg * 100:.2f} "
          f"F1_all={report.steps[0].f1_all * 100:.2f}")
    return 0


def cmd_gradcheck(args) -> int:
    ok = True
    for name, err, passed in gradcheck.run_all():
        print(f"{'PASS' if passed else 'FAIL'}  {name:<20} max rel err {err:.3e}")
        ok = ok and passed
    return 0 if ok else 1


def cmd_report(args) -> int:
    report = EvalReport.load(args.input)
    print(report.format_table())
    if args.csv:
        report.write_csv(args.csv)
        print(f"CSV written to {args.csv}")
    return 0


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    ap = build_parser()
    args = ap.parse_args(argv)
    handler = {
        "gen": cmd_gen, "run": cmd_run, "eval": cmd_eval,
        "gradcheck": cmd_gradcheck, "report": cmd_report,
    }[args.command]
    try:
        return handler(args)
    except (FileNotFoundError, ValueError, NotImplementedError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
