"""Command-line surface: gen, run, eval, gradcheck, report."""

from __future__ import annotations

import argparse
import logging
import sys

from . import data as dat
from . import gradcheck
from .engine import ContinualConfig, ContinualEngine, METHODS, NORM_STRATEGIES, \
    UNCERTAINTY_KINDS
from .backbone import BackboneModel, MAX_ANSWER_LEN, _keep_freed_heap
from .metrics import EvalReport, parse_json

log = logging.getLogger("contspan")


def domain_order(text: str) -> list[int]:
    return [int(x) for x in text.split(",")]


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="contspan",
                                 description="continual span-extraction engine")
    sub = ap.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate a synthetic domain stream")
    g.add_argument("--setting", choices=dat.GEN_RULES["setting"], required=True)
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
    r.add_argument("--norm", dest="norm_strategy", choices=NORM_STRATEGIES)
    r.add_argument("--uncertainty", dest="uncertainty_kind", choices=UNCERTAINTY_KINDS)
    r.add_argument("--order", dest="domain_order", type=domain_order,
                   help="comma-separated domain permutation, e.g. 2,0,1")
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


def cmd_run(args) -> int:
    if args.resume and not args.out_dir:
        print("error: --resume needs --out-dir (the run's checkpoint directory)", file=sys.stderr)
        return 2
    manifest: dict = {}
    if args.config:
        with open(args.config, "rb") as f:
            manifest = parse_json(f.read(), args.config)
        if not isinstance(manifest, dict):
            raise ValueError(f"{args.config}: the manifest is not a JSON object")
    keys = set(ContinualConfig.__dataclass_fields__) | {"data"}  # the run flags' names
    settings = {**manifest, **{k: v for k, v in vars(args).items() if k in keys and v is not None}}
    data_dir = settings.pop("data", None)
    if not (data_dir and isinstance(data_dir, str)):
        print("error: no data directory (use --data or a 'data' manifest key)", file=sys.stderr)
        return 2
    if unknown := set(settings) - keys:
        print(f"error: unknown manifest keys: {sorted(unknown)}", file=sys.stderr)
        return 2
    cfg = ContinualConfig(**settings)

    stream = dat.load_stream(data_dir)
    engine = ContinualEngine(stream, cfg)
    _, report = engine.run(out_dir=args.out_dir, resume=args.resume)
    report.save(args.report)
    print(report.format_table())
    # a step restored by --resume was not timed: "-", and out of the total
    print(f"total training time: {sum(x for x in engine.timings if x is not None):.1f}s "
          f"(per step: {', '.join('-' if x is None else f'{x:.1f}s' for x in engine.timings)})")
    print(f"report written to {args.report}")
    return 0


def cmd_eval(args) -> int:
    stream = dat.load_stream(args.data)
    stream.require("test")
    model = BackboneModel.load(args.checkpoint)
    engine = ContinualEngine(stream, ContinualConfig())
    seen = list(range(len(stream)))
    report = EvalReport(metadata={
        "checkpoint": args.checkpoint, "max_answer_len": MAX_ANSWER_LEN,
        "method": "eval", "order": seen,
        "domains": [d.name for d in stream.domains], "setting": stream.setting})
    result = report.add_step(-1, *engine.evaluate(model, seen))
    report.save(args.report)
    for e in result.per_domain:
        print(f"domain {e['domain']}: EM={e['em'] * 100:.2f} F1={e['f1'] * 100:.2f}")
    print(f"F1_avg={result.f1_avg * 100:.2f} F1_all={result.f1_all * 100:.2f}")
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
    _keep_freed_heap()  # before any stream or checkpoint loads
    handler = {
        "gen": cmd_gen, "run": cmd_run, "eval": cmd_eval,
        "gradcheck": cmd_gradcheck, "report": cmd_report,
    }[args.command]
    try:
        return handler(args)
    except (OSError, ValueError, MemoryError) as e:
        print(f"error: {str(e) or type(e).__name__}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
