"""Run the contspan CLI with spans recorded around each layer's functions.

    python perfbench/traced.py SPANS.npz [--alloc] -- <contspan arguments>

Every wrapper is installed from here, on the name its caller looks up: a
module attribute (``ad.matmul``), a class attribute (``BackboneModel.save``)
or a name one module imported from another (``engine.decode_answer``).
``src/`` has no flag or hook for this.

Spans and counters stay in memory and are written to SPANS.npz when the
command ends. With ``--alloc`` no spans are recorded; instead tracemalloc
runs only inside ``engine.evaluate`` and ``engine.fit``, and the peak of
what each allocated is kept, since tracing every allocation would distort
the timings of a span run.
"""

from __future__ import annotations

import functools
import json
import sys
import time
import tracemalloc
from collections import defaultdict
from pathlib import Path

import numpy as np

clock = time.perf_counter


class Recorder:
    """Spans as (name, start, duration, parent); parent -1 is the root.

    Spans nest strictly: the process is single-threaded and every span
    closes before its caller resumes. A tape backward closure is the one
    exception to contiguity: it runs piecewise between the walk's gradient
    accumulations, so its span holds the summed time of its iteration
    steps, starting at the first.
    """

    def __init__(self):
        self.names: dict[str, int] = {}
        self.name_of: list[int] = []
        self.start: list[float] = []
        self.dur: list[float] = []
        self.parent: list[int] = []
        self.stack = [-1]
        self.open_names: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)
        self.ops: list[str] = []

    def _new(self, name: str, start: float, dur: float) -> int:
        nid = self.names.setdefault(name, len(self.names))
        self.name_of.append(nid)
        self.start.append(start)
        self.dur.append(dur)
        self.parent.append(self.stack[-1])
        return len(self.dur) - 1

    def span(self, fn, name: str):
        """Wrap fn in a span; a call nested in an open span of the same
        name folds into it (forward_batch calls encode_batch, for one)."""
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if rec.open_names[name]:
                return fn(*args, **kwargs)
            rec.open_names[name] += 1
            idx = rec._new(name, clock(), 0.0)
            rec.stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                rec.dur[idx] = clock() - rec.start[idx]
                rec.stack.pop()
                rec.open_names[name] -= 1

        return wrapper

    def timed_backward(self, bw, name: str):
        rec = self

        def gen(g):
            it = bw(g)
            first, total = None, 0.0
            while True:
                t0 = clock()
                first = t0 if first is None else first
                try:
                    item = next(it)
                except StopIteration:
                    rec._new(name, first, total + clock() - t0)
                    return
                total += clock() - t0
                yield item

        return gen

    def save(self, path):
        np.savez(path, names=np.array(json.dumps(list(self.names))),
                 name_of=np.array(self.name_of, dtype=np.int32),
                 start=np.array(self.start), dur=np.array(self.dur),
                 parent=np.array(self.parent, dtype=np.int64),
                 counts=np.array(json.dumps(dict(self.counts))),
                 ops=np.array(json.dumps(self.ops)))


def primitives(ad) -> dict[str, object]:
    """Public autodiff functions that record a tape node: every primitive,
    including any added later."""
    return {name: fn for name, fn in vars(ad).items()
            if callable(fn) and not name.startswith("_") and not isinstance(fn, type)
            and getattr(fn, "__module__", None) == ad.__name__
            and "_make" in getattr(getattr(fn, "__code__", None), "co_names", ())}


def counted(rec: Recorder, fn, key: str, amount):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        rec.counts[key] += amount(*args, **kwargs)
        return fn(*args, **kwargs)
    return wrapper


def install_spans(rec: Recorder):
    from contspan import adversarial as adv
    from contspan import autodiff as ad
    from contspan import backbone as bb
    from contspan import data as dat
    from contspan import distill
    from contspan import engine as eng
    from contspan import memory as mem
    from contspan import metrics as met

    # autodiff: forward and backward of every primitive, the graph walk, Adam
    for name, fn in primitives(ad).items():
        rec.ops.append(name)
        setattr(ad, name, _primitive(rec, fn, name))
    ad.backward = rec.span(ad.backward, "autodiff.backward")
    ad.Adam.step = rec.span(ad.Adam.step, "autodiff.adam.step")

    # backbone
    M = bb.BackboneModel
    M.forward_batch = rec.span(M.forward_batch, "backbone.forward")
    encode = rec.span(M.encode_batch, "backbone.forward")

    @functools.wraps(M.encode_batch)
    def encode_batch(self, id_lists):
        lens = [len(ids) for ids in id_lists]
        rec.counts["backbone.forward.rows"] += len(lens)
        rec.counts["backbone.forward.valid_tokens"] += sum(lens)
        rec.counts["backbone.forward.padded_tokens"] += len(lens) * max(lens)
        return encode(self, id_lists)

    M.encode_batch = encode_batch
    M.save = rec.span(M.save, "backbone.save")
    M.load = staticmethod(rec.span(M.load, "backbone.load"))
    eng.decode_answer = rec.span(eng.decode_answer, "backbone.decode")
    eng.span_loss_batch = rec.span(eng.span_loss_batch, "backbone.span_loss")

    # engine: the training loop, each method's step, evaluation
    E = eng.ContinualEngine
    E._fit = rec.span(E._fit, "engine.fit")
    for step in ("train_initial", "lower_bound_step", "upper_bound_step", "ewc_step",
                 "agem_step", "der_step", "incremental_step"):
        setattr(E, step, rec.span(getattr(E, step), "engine.step"))
    E.evaluate = counted(rec, rec.span(E.evaluate, "engine.evaluate"), "engine.evaluate.rows",
                         lambda self, model, seen: sum(len(self.stream.domains[d].test)
                                                       for d in seen))

    # memory
    update = rec.span(mem.update_memory, "memory.update")

    @functools.wraps(mem.update_memory)
    def update_memory(memory, *args, **kwargs):
        before = {id(it) for it in memory.items}
        out = update(memory, *args, **kwargs)
        rec.counts["memory.evicted"] += len(before - {id(it) for it in memory.items})
        return out

    mem.update_memory = update_memory
    mem.init_memory = rec.span(mem.init_memory, "memory.update")
    for fn in ("_observe", "_cache_teacher_logits"):
        setattr(mem, fn, counted(rec, getattr(mem, fn), "memory.forward_rows",
                                 lambda model, items, *a, **k: len(items)))
    mem.save_memory = rec.span(mem.save_memory, "memory.save")

    # adversarial: the game's two halves, the separability probe
    adv.discriminator_step = rec.span(adv.discriminator_step, "adversarial.game")
    adv.encoder_adversarial_loss = rec.span(adv.encoder_adversarial_loss, "adversarial.game")
    adv.train_probe_discriminator = rec.span(adv.train_probe_discriminator,
                                             "adversarial.probe")
    adv._probe_step = counted(rec, adv._probe_step, "adversarial.probe.steps",
                              lambda *a, **k: 1)

    # distill: the teacher snapshot and its forwards, the KL term
    snapshot = distill.snapshot_teacher

    def snapshot_teacher(model):
        teacher = snapshot(model)
        forward = rec.span(teacher.forward_batch, "distill.teacher")
        teacher.forward_batch = counted(rec, forward, "distill.teacher_rows",
                                        lambda id_lists: len(id_lists))
        return teacher

    distill.snapshot_teacher = rec.span(snapshot_teacher, "distill.teacher")
    distill.kl_distill_loss_batch = rec.span(distill.kl_distill_loss_batch, "distill.kl")

    # data and metrics
    dat.generate_cdac_stream = rec.span(dat.generate_cdac_stream, "data.generate")
    dat.generate_cdaq_stream = rec.span(dat.generate_cdaq_stream, "data.generate")
    dat.write_stream = rec.span(dat.write_stream, "data.write")
    dat.load_stream = rec.span(dat.load_stream, "data.load")
    eng.em_f1 = rec.span(eng.em_f1, "metrics.em_f1")
    met.EvalReport.save = rec.span(met.EvalReport.save, "metrics.report_save")


def _primitive(rec: Recorder, fn, name: str):
    fwd, bwd = f"autodiff.op.{name}.fwd", f"autodiff.op.{name}.bwd"
    timed = rec.span(fn, fwd)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        out = timed(*args, **kwargs)
        if out._backward is not None:
            rec.counts["autodiff.nodes"] += 1
            out._backward = rec.timed_backward(out._backward, bwd)
        return out

    return wrapper


def install_alloc(rec: Recorder):
    from contspan import engine as eng

    def peak(fn, key):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracemalloc.start()
            try:
                return fn(*args, **kwargs)
            finally:
                top = tracemalloc.get_traced_memory()[1] / 2 ** 20
                tracemalloc.stop()
                rec.counts[key] = max(rec.counts[key], top)
        return wrapper

    E = eng.ContinualEngine
    E.evaluate = peak(E.evaluate, "engine.evaluate.peak_alloc_mb")
    E._fit = peak(E._fit, "engine.fit.peak_alloc_mb")


def main(argv: list[str]) -> int:
    if len(argv) < 2 or "--" not in argv:
        print(__doc__, file=sys.stderr)
        return 2
    sep = argv.index("--")
    out, flags, cli_args = Path(argv[0]), argv[1:sep], argv[sep + 1:]
    rec = Recorder()
    (install_alloc if "--alloc" in flags else install_spans)(rec)
    from contspan import cli
    try:
        return cli.main(cli_args)
    finally:
        rec.save(out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
