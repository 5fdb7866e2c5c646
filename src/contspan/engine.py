"""Continual-learning engine: the full method plus six baselines.

One engine instance owns one run: a domain stream, a config, a backbone,
and (for replay methods) the fixed-capacity memory. Training is strictly
single-threaded; every random choice comes from per-purpose substreams of
the run seed, so identical configs reproduce bit-identical trajectories.
"""

from __future__ import annotations

import json
import logging
import math
import time
from dataclasses import dataclass, asdict
from pathlib import Path

import numpy as np

from . import autodiff as ad
from . import adversarial as adv
from . import distill
from . import memory as mem
from .autodiff import Tensor
from .backbone import BackboneModel, ModelConfig, NEG_INF, decode_answer, \
    span_loss_batch
from .data import DomainStream, Sample
from .metrics import EvalReport, StepResult, em_f1, f1_avg, f1_all, config_hash

log = logging.getLogger(__name__)

METHODS = ("ma_mrc", "lower", "upper", "ewc", "online_ewc", "agem", "der", "derpp")

# rng substream ids
_S_INIT, _S_TRAIN, _S_MEM, _S_FISHER, _S_DISC, _S_PROBE = 0, 1, 2, 3, 4, 5


@dataclass
class ContinualConfig:
    method: str = "ma_mrc"
    memory_size: int = 60
    norm_strategy: str = "norm1"         # norm1 | norm2
    uncertainty_kind: str = "entropy"    # entropy | prob | random
    epochs: int = 3
    batch_size: int = 16
    lr: float = 3e-3                     # from-scratch desk preset; 3e-5 suits pretrained
    disc_lr: float = 3e-3
    domain_order: list[int] | None = None
    seed: int = 0
    adv_weight: float = 1.0
    kl_weight: float = 1.0
    kl_temperature: float = 1.0
    mmd_kernel: str = "linear"           # linear | rbf
    ewc_lambda: float = 10.0
    online_ewc_gamma: float = 0.95
    der_alpha: float = 0.5
    derpp_beta: float = 0.5
    n_fisher: int = 256
    max_answer_len: int = 8
    memory_frac: float = 0.25
    hidden: int = 64
    n_layers: int = 2
    n_heads: int = 2
    eval_batch: int = 64

    def validate(self, n_domains: int):
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}; choose from {METHODS}")
        order = self.order(n_domains)
        if sorted(order) != list(range(n_domains)):
            raise ValueError(f"domain_order {order} is not a permutation of "
                             f"0..{n_domains - 1}")

    def order(self, n_domains: int) -> list[int]:
        return list(self.domain_order) if self.domain_order else list(range(n_domains))


@dataclass
class FisherState:
    fisher: dict[str, np.ndarray]
    anchor: dict[str, np.ndarray]


def agem_project(g: np.ndarray, g_ref: np.ndarray) -> np.ndarray:
    """Project g off g_ref when they conflict; pass through otherwise."""
    if g.shape != g_ref.shape:
        raise ValueError("gradient length mismatch")
    denom = float(g_ref @ g_ref)
    if denom == 0.0:
        return g
    dot = float(g @ g_ref)
    if dot >= 0.0:
        return g
    return g - (dot / denom) * g_ref


def ewc_penalty(model: BackboneModel, states: list[FisherState], lam: float) -> Tensor:
    """(lam/2) * sum over recorded tasks of F * (theta - anchor)^2."""
    if not states:
        raise ValueError("no Fisher state recorded")
    total = Tensor(0.0)
    for st in states:
        for name, p in model.params.items():
            total = total + ad.tsum(Tensor(st.fisher[name])
                                    * ad.square(p - Tensor(st.anchor[name])))
    return total * (lam / 2.0)


def der_replay_mse(items: list[mem.MemoryItem], m_sl: Tensor, m_el: Tensor,
                   m_mask: np.ndarray) -> Tensor:
    """Mean squared error between cached and current logits, both heads.

    Averaged over valid positions per sample, then over the batch; padded
    positions carry zero weight.
    """
    k, l = m_mask.shape
    teach_s = np.full((k, l), NEG_INF)
    teach_e = np.full((k, l), NEG_INF)
    inv_n = np.zeros(k)
    for i, it in enumerate(items):
        n = it.teacher_start_logits.size
        teach_s[i, :n] = it.teacher_start_logits
        teach_e[i, :n] = it.teacher_end_logits
        inv_n[i] = 1.0 / n
    w = Tensor(m_mask * inv_n[:, None])
    return ad.tmean(ad.tsum(ad.square(m_sl - Tensor(teach_s)) * w, axis=1)) \
        + ad.tmean(ad.tsum(ad.square(m_el - Tensor(teach_e)) * w, axis=1))


class ContinualEngine:
    def __init__(self, stream: DomainStream, config: ContinualConfig):
        config.validate(len(stream))
        self.stream = stream
        self.cfg = config
        self.l_max = stream.l_max
        self.model_cfg = ModelConfig(vocab_size=len(stream.vocab),
                                     hidden=config.hidden,
                                     n_layers=config.n_layers,
                                     n_heads=config.n_heads,
                                     l_max=stream.l_max)
        self.memory: mem.Memory | None = None
        self.fisher_states: list[FisherState] = []
        self.online_fisher: FisherState | None = None
        self.init_model: BackboneModel | None = None
        self.timings: list[float] = []

    def _rng(self, stream_id: int, t: int = 0) -> np.random.Generator:
        return ad.seeded_rng(self.cfg.seed, stream_id, t)

    # -- public entry -------------------------------------------------------

    def run(self, out_dir=None, resume: bool = False,
            on_step=None) -> tuple[BackboneModel, EvalReport]:
        """Train over the whole stream; returns the final model and report.

        ``on_step(t, model, memory, step_result)`` runs after each step's
        evaluation, before checkpointing.
        """
        cfg = self.cfg
        order = cfg.order(len(self.stream))
        report = EvalReport(metadata={
            "config": asdict(cfg),
            "config_hash": config_hash(asdict(cfg)),
            "method": cfg.method,
            "seed": cfg.seed,
            "order": order,
            "domains": [d.name for d in self.stream.domains],
            "setting": self.stream.setting,
        })
        out = Path(out_dir) if out_dir is not None else None
        if out is not None:
            out.mkdir(parents=True, exist_ok=True)

        model = BackboneModel(self.model_cfg, self._rng(_S_INIT))
        self.init_model = model.copy()
        start_t = 1
        if resume and out is not None:
            start_t, model, report = self._try_resume(out, model, report)
        elif out is not None:
            self.init_model.save(out / "init.ckpt")

        uses_memory = cfg.method in ("ma_mrc", "agem", "der", "derpp")

        for t in range(start_t, len(order) + 1):
            dom = self.stream.domains[order[t - 1]]
            tic = time.perf_counter()
            extra: dict = {}
            if t == 1:
                self.train_initial(model, dom.train, t)
            else:
                step_fn = {
                    "lower": self.lower_bound_step,
                    "upper": self.upper_bound_step,
                    "ewc": self.ewc_step,
                    "online_ewc": self.ewc_step,
                    "agem": self.agem_step,
                    "der": self.der_step,
                    "derpp": self.der_step,
                    "ma_mrc": self.incremental_step,
                }[cfg.method]
                step_extra = step_fn(model, dom.train, t, order)
                if step_extra:
                    extra.update(step_extra)

            # post-step bookkeeping: memory, fisher
            if uses_memory and cfg.memory_size >= 0:
                kind = cfg.uncertainty_kind
                if cfg.method in ("agem", "der", "derpp"):
                    kind = "random"
                if t == 1:
                    self.memory = mem.init_memory(dom.train, cfg.memory_size, model,
                                                  self._rng(_S_MEM, t), kind)
                else:
                    mem.update_memory(self.memory, dom.train, model, t,
                                      self._rng(_S_MEM, t), cfg.norm_strategy, kind)
            if cfg.method in ("ewc", "online_ewc"):
                self._record_fisher(model, dom.train, t)

            self.timings.append(time.perf_counter() - tic)

            seen = [order[i] for i in range(t)]
            per_domain, pooled = self.evaluate(model, seen)
            report.steps.append(StepResult(
                step=t, trained_domain=dom.index, per_domain=per_domain,
                f1_avg=f1_avg([e["f1"] for e in per_domain]),
                f1_all=f1_all(pooled), extra=extra))
            if on_step is not None:
                on_step(t, model, self.memory, report.steps[-1])

            if out is not None:
                model.save(out / f"step{t}.ckpt")
                if self.memory is not None:
                    mem.save_memory(self.memory, out / f"step{t}.memory.jsonl")
                report.save(out / "report.partial.json")

        if out is not None:
            report.save(out / "report.json")
            with open(out / "timing.json", "w", encoding="utf-8") as f:
                json.dump({"step_seconds": self.timings}, f, indent=2)
        return model, report

    def _try_resume(self, out: Path, model: BackboneModel, report: EvalReport):
        done = sorted(int(p.stem[4:].split(".")[0]) for p in out.glob("step*.ckpt"))
        partial = out / "report.partial.json"
        if not done or not partial.exists():
            self.init_model.save(out / "init.ckpt")
            return 1, model, report
        t_last = done[-1]
        self.init_model = BackboneModel.load(out / "init.ckpt")
        model = BackboneModel.load(out / f"step{t_last}.ckpt")
        saved = EvalReport.load(partial)
        if saved.metadata["config_hash"] != report.metadata["config_hash"]:
            raise ValueError("resume config does not match the saved run")
        mem_path = out / f"step{t_last}.memory.jsonl"
        if mem_path.exists():
            self.memory = mem.load_memory(mem_path, self.l_max)
        if self.cfg.method in ("ewc", "online_ewc"):
            raise NotImplementedError("resume for Fisher-penalty methods is not supported")
        log.info("resuming after completed step %d", t_last)
        return t_last + 1, model, saved

    # -- shared machinery ---------------------------------------------------

    def _fit(self, model: BackboneModel, samples: list[Sample],
             rng: np.random.Generator, batch_hook=None, loss_hook=None,
             mix_hook=None) -> list[float]:
        """Adam epochs over shuffled batches of the span loss.

        mix_hook(batch_samples) may return the batch extended by replayed
        rows, which then share the forward pass and the span loss;
        loss_hook(batch_samples, loss, sl, el, h, mask) returns the loss to
        minimise, built on the span loss; batch_hook(grads_flat) may rewrite
        the flat gradient before the optimizer step (gradient-projection
        methods).
        """
        cfg = self.cfg
        opt = ad.Adam(model.parameters(), lr=cfg.lr)
        params = model.parameters()
        epoch_losses = []
        for _ in range(cfg.epochs):
            perm = rng.permutation(len(samples))
            running = 0.0
            nb = 0
            for lo in range(0, len(samples), cfg.batch_size):
                batch = [samples[i] for i in perm[lo:lo + cfg.batch_size]]
                if mix_hook is not None:
                    batch = mix_hook(batch)
                h, mask, sl, el = model.forward_batch([s.input_ids for s in batch])
                y_s = np.array([s.answer_start for s in batch])
                y_e = np.array([s.answer_end for s in batch])
                loss = span_loss_batch(sl, el, y_s, y_e)
                if loss_hook is not None:
                    loss = loss_hook(batch, loss, sl, el, h, mask)
                opt.zero_grad()
                ad.backward(loss)
                if batch_hook is not None:
                    flat = np.concatenate([p.grad.reshape(-1) for p in params])
                    flat = batch_hook(flat)
                    pos = 0
                    for p in params:
                        n = p.data.size
                        p.grad = flat[pos:pos + n].reshape(p.data.shape)
                        pos += n
                opt.step()
                running += loss.item()
                nb += 1
            epoch_losses.append(running / max(nb, 1))
        return epoch_losses

    def _span_grad(self, model: BackboneModel, batch: list[Sample]) -> np.ndarray:
        """Flat gradient of the mean span loss on a batch."""
        _, _, sl, el = model.forward_batch([s.input_ids for s in batch])
        loss = span_loss_batch(sl, el,
                               np.array([s.answer_start for s in batch]),
                               np.array([s.answer_end for s in batch]))
        model.zero_grad()
        ad.backward(loss)
        return np.concatenate([p.grad.reshape(-1) for p in model.parameters()])

    # -- per-method steps ---------------------------------------------------

    def train_initial(self, model: BackboneModel, d1_train: list[Sample], t: int):
        """Step 1 for every method: plain span-loss training."""
        losses = self._fit(model, d1_train, self._rng(_S_TRAIN, t))
        log.info("initial training losses per epoch: %s",
                 [f"{x:.3f}" for x in losses])
        return losses

    def lower_bound_step(self, model, d_train, t, order):
        self._fit(model, d_train, self._rng(_S_TRAIN, t))

    def upper_bound_step(self, model, d_train, t, order):
        """Joint-training ceiling: restart from the initial parameters and
        train on every seen domain's full training data."""
        model.load_state(self.init_model)
        union: list[Sample] = []
        for i in range(t):
            union.extend(self.stream.domains[order[i]].train)
        self._fit(model, union, self._rng(_S_TRAIN, t))

    def ewc_step(self, model, d_train, t, order):
        states = ([self.online_fisher] if self.cfg.method == "online_ewc"
                  else self.fisher_states)
        lam = self.cfg.ewc_lambda

        def hook(batch, loss, sl, el, h, mask):
            return loss + ewc_penalty(model, states, lam)

        self._fit(model, d_train, self._rng(_S_TRAIN, t), loss_hook=hook)

    def _record_fisher(self, model: BackboneModel, d_train: list[Sample], t: int):
        """Diagonal Fisher from squared span-loss gradients on small batches."""
        rng = self._rng(_S_FISHER, t)
        n = min(self.cfg.n_fisher, len(d_train))
        idx = rng.choice(len(d_train), size=n, replace=False)
        fisher = {k: np.zeros_like(p.data) for k, p in model.params.items()}
        bs = 8
        nb = 0
        for lo in range(0, n, bs):
            batch = [d_train[i] for i in idx[lo:lo + bs]]
            self._span_grad(model, batch)
            for k, p in model.params.items():
                fisher[k] += p.grad * p.grad
            nb += 1
        for k in fisher:
            fisher[k] /= max(nb, 1)
        anchor = {k: p.data.copy() for k, p in model.params.items()}
        state = FisherState(fisher=fisher, anchor=anchor)
        self.fisher_states.append(state)
        if self.online_fisher is None:
            self.online_fisher = state
        else:
            g = self.cfg.online_ewc_gamma
            merged = {k: g * self.online_fisher.fisher[k] + fisher[k] for k in fisher}
            self.online_fisher = FisherState(fisher=merged, anchor=anchor)

    def agem_step(self, model, d_train, t, order):
        rng = self._rng(_S_TRAIN, t)
        mem_items = self.memory.items if self.memory else []
        if not mem_items:
            log.warning("empty memory at step %d; A-GEM degenerates to fine-tuning", t)
            self._fit(model, d_train, rng)
            return

        def hook(flat):
            k = min(self.cfg.batch_size, len(mem_items))
            pick = rng.choice(len(mem_items), size=k, replace=False)
            g_ref = self._span_grad(model, [mem_items[i].sample for i in pick])
            return agem_project(flat, g_ref)

        self._fit(model, d_train, rng, batch_hook=hook)

    def der_step(self, model, d_train, t, order):
        """Logit replay; the plus-plus variant adds gold-label replay."""
        rng = self._rng(_S_TRAIN, t)
        mem_items = [it for it in (self.memory.items if self.memory else [])
                     if it.teacher_start_logits is not None]
        skipped = (len(self.memory.items) - len(mem_items)) if self.memory else 0
        if skipped:
            log.warning("%d memory items lack cached logits; skipped", skipped)
        if not mem_items:
            log.warning("empty memory at step %d; DER degenerates to fine-tuning", t)
            self._fit(model, d_train, rng)
            return
        alpha = self.cfg.der_alpha
        beta = self.cfg.derpp_beta if self.cfg.method == "derpp" else 0.0

        def hook(batch, loss, sl, el, h, mask):
            k = min(self.cfg.batch_size, len(mem_items))
            pick = rng.choice(len(mem_items), size=k, replace=False)
            items = [mem_items[i] for i in pick]
            _, m_mask, m_sl, m_el = model.forward_batch(
                [it.sample.input_ids for it in items])
            extra = der_replay_mse(items, m_sl, m_el, m_mask) * alpha
            if beta != 0.0:
                replay = span_loss_batch(
                    m_sl, m_el,
                    np.array([it.sample.answer_start for it in items]),
                    np.array([it.sample.answer_end for it in items]))
                extra = extra + replay * beta
            return loss + extra

        self._fit(model, d_train, rng, loss_hook=hook)

    def incremental_step(self, model, d_train, t, order) -> dict:
        """Full method: mixed-batch replay + adversarial game + distillation."""
        cfg = self.cfg
        mem_items = self.memory.items if self.memory else []
        if not mem_items:
            log.warning("empty memory at step %d; degenerating to plain fine-tuning", t)
            self.lower_bound_step(model, d_train, t, order)
            return {}

        rng = self._rng(_S_TRAIN, t)
        teacher = distill.snapshot_teacher(model)
        disc = adv.Discriminator(cfg.hidden, self._rng(_S_DISC, t))
        disc_opt = ad.Adam(disc.parameters(), lr=cfg.disc_lr)
        k = min(max(1, math.ceil(cfg.batch_size * cfg.memory_frac)), len(mem_items))

        def mix(cur):
            pick = rng.choice(len(mem_items), size=k, replace=False)
            return cur + [mem_items[i].sample for i in pick]

        def hook(batch, loss, sl, el, h, mask):
            # the replayed memory rows are the batch's last k
            n = len(batch) - k
            if cfg.adv_weight != 0.0:
                pooled = ad.index(h, (slice(None), 0))
                cur_pooled = ad.index(pooled, slice(0, n))
                mem_pooled = ad.index(pooled, slice(n, len(batch)))
                adv.discriminator_step(disc, disc_opt, mem_pooled.data, cur_pooled.data)
                l_t = adv.encoder_adversarial_loss(disc, mem_pooled, cur_pooled,
                                                   kernel=cfg.mmd_kernel)
                loss = loss + l_t * cfg.adv_weight
            if cfg.kl_weight != 0.0:
                _, t_mask, t_sl, t_el = teacher.forward_batch(
                    [s.input_ids for s in batch[n:]])
                pad_s = np.full((k, mask.shape[1]), NEG_INF)
                pad_e = np.full((k, mask.shape[1]), NEG_INF)
                pad_s[:, :t_mask.shape[1]] = t_sl.data
                pad_e[:, :t_mask.shape[1]] = t_el.data
                l_kl = distill.kl_distill_loss_batch(
                    pad_s, pad_e, ad.index(sl, slice(n, len(batch))),
                    ad.index(el, slice(n, len(batch))), cfg.kl_temperature)
                loss = loss + l_kl * cfg.kl_weight
            return loss

        self._fit(model, d_train, rng, loss_hook=hook, mix_hook=mix)
        extra = {}
        if cfg.adv_weight != 0.0:
            disc_acc, probe_acc = self._disc_holdout_accuracy(model, disc, t, order)
            extra["disc_accuracy"] = disc_acc
            extra["probe_accuracy"] = probe_acc
        return extra

    def _disc_holdout_accuracy(self, model, disc, t, order) -> tuple[float, float]:
        """Separability of memory vs unseen current-test representations.

        Returns the game discriminator's accuracy on held-out data and, as
        the sharper measure, the accuracy of a fresh probe discriminator
        trained on these representations from scratch.
        """
        cur_dom = order[t - 1]
        test = self.stream.domains[cur_dom].test
        rng = self._rng(_S_PROBE, t)
        # during the step memory holds no current-domain items; after an
        # update it does, and those must not dilute the separability probe
        mem_items = [it for it in self.memory.items if it.origin_domain != cur_dom]
        k = min(len(mem_items), len(test), 64)
        mem_pick = rng.choice(len(mem_items), size=k, replace=False)
        cur_pick = rng.choice(len(test), size=k, replace=False)
        mem_reprs = self._pooled_reprs(model,
                                       [mem_items[i].sample for i in mem_pick])
        cur_reprs = self._pooled_reprs(model, [test[i] for i in cur_pick])
        disc_acc = adv.discriminator_accuracy(disc, mem_reprs, cur_reprs)
        _, probe_acc = adv.train_probe_discriminator(self.cfg.hidden, mem_reprs,
                                                     cur_reprs, rng)
        return disc_acc, probe_acc

    def probe_separability(self, model: BackboneModel, t: int,
                           order: list[int]) -> float:
        """Fresh-probe accuracy on this engine's memory vs current-test reps.

        Usable on any replay-carrying run (the non-adversarial reference
        point for judging how much the minimax game aligned the spaces).
        """
        if self.memory is None or not self.memory.items:
            raise ValueError("probe_separability needs a populated memory")
        _, probe_acc = self._disc_holdout_accuracy(
            model, adv.Discriminator(self.cfg.hidden, self._rng(_S_PROBE, t)),
            t, order)
        return probe_acc

    def _pooled_reprs(self, model: BackboneModel, samples: list[Sample]) -> np.ndarray:
        model = model.copy(requires_grad=False)  # forward only: record no tape
        out = []
        for lo in range(0, len(samples), self.cfg.eval_batch):
            chunk = samples[lo:lo + self.cfg.eval_batch]
            h, _ = model.encode_batch([s.input_ids for s in chunk])
            out.append(h.data[:, 0, :])
        return np.concatenate(out, axis=0)

    # -- evaluation ---------------------------------------------------------

    def evaluate(self, model: BackboneModel, seen_domains: list[int]):
        """Per-domain EM/F1 over the seen test sets, in introduction order."""
        model = model.copy(requires_grad=False)  # forward only: record no tape
        per_domain = []
        pooled = []
        for d in seen_domains:
            dom = self.stream.domains[d]
            ems, f1s = [], []
            for lo in range(0, len(dom.test), self.cfg.eval_batch):
                chunk = dom.test[lo:lo + self.cfg.eval_batch]
                _, mask, sl, el = model.forward_batch([s.input_ids for s in chunk])
                starts, ends = decode_answer(ad.softmax(sl).data, ad.softmax(el).data,
                                             mask, self.cfg.max_answer_len)
                for s, i0, j0 in zip(chunk, starts, ends):
                    e, f = em_f1(s.input_ids[i0:j0 + 1], s.answer_ids)
                    ems.append(e)
                    f1s.append(f)
            per_domain.append({"domain": d,
                               "em": float(np.mean(ems)),
                               "f1": float(np.mean(f1s))})
            pooled.append(f1s)
        return per_domain, pooled


def run_stream(stream: DomainStream, config: ContinualConfig,
               out_dir=None, resume: bool = False):
    """Convenience wrapper: build an engine and run the whole stream."""
    engine = ContinualEngine(stream, config)
    model, report = engine.run(out_dir=out_dir, resume=resume)
    return model, report, engine
