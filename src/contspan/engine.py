"""Continual-learning engine: the full method plus six baselines.

One engine instance owns one run: a domain stream, a config, a backbone,
and (for replay methods) the fixed-capacity memory. Training runs on one
thread; a large forward-only pass (evaluation, memory scoring, teacher
logits, the probe's representations) runs half its rows on one worker
thread, with the bytes of the unsplit pass (BackboneModel.encode_batch).
Every random choice comes from per-purpose substreams of the run seed, so
identical configs reproduce bit-identical trajectories.
"""

from __future__ import annotations

import json
import logging
import math
import time
from dataclasses import dataclass, asdict, fields
from pathlib import Path

import numpy as np

from . import autodiff as ad
from . import adversarial as adv
from . import distill
from . import memory as mem
from .autodiff import Tensor
from .backbone import BackboneModel, ModelConfig, MAX_ANSWER_LEN, NEG_INF, \
    decode_answer, span_loss_batch
from .data import DomainData, DomainStream, Sample
from .metrics import JSON_TYPES, EvalReport, StepResult, em_f1, f1_avg, f1_all, config_hash

log = logging.getLogger(__name__)

# Each method's step from step 2 on; step 1 is train_initial for every method
STEPS = {"ma_mrc": "incremental_step", "lower": "lower_bound_step",
         "upper": "upper_bound_step", "ewc": "ewc_step", "online_ewc": "ewc_step",
         "agem": "agem_step", "der": "der_step", "derpp": "der_step"}
METHODS = tuple(STEPS)
REPLAY_METHODS = ("ma_mrc", "agem", "der", "derpp")
NORM_STRATEGIES = ("norm1", "norm2")
UNCERTAINTY_KINDS = ("entropy", "prob", "random")

# rng substream ids
_S_INIT, _S_TRAIN, _S_MEM, _S_FISHER, _S_DISC, _S_PROBE = 0, 1, 2, 3, 4, 5

# Every caller uses one value of these, so they are constants, not config.
# (Likewise the KL runs at temperature 1 and the MMD kernel is linear.)
DISC_LR = 3e-3           # discriminator Adam step size
EWC_LAMBDA = 10.0        # Fisher-penalty strength
N_FISHER = 256           # training rows behind each Fisher estimate (at most)
ONLINE_EWC_GAMMA = 0.95  # decay of the running Fisher
DER_ALPHA = 0.5          # weight of DER's logit replay
MEMORY_FRAC = 0.25       # share of a mixed batch replayed from memory


# Each run setting's one rule beyond its type: its values, or its least value
FIELD_RULES = {"method": METHODS, "norm_strategy": NORM_STRATEGIES,
               "uncertainty_kind": UNCERTAINTY_KINDS, "memory_size": 0, "seed": 0,
               "adv_weight": 0, "kl_weight": 0, "derpp_beta": 0, "epochs": 1,
               "batch_size": 1, "hidden": 1, "n_layers": 1, "n_heads": 1}


@dataclass
class ContinualConfig:
    method: str = "ma_mrc"
    memory_size: int = 60
    norm_strategy: str = "norm1"         # norm1 | norm2
    uncertainty_kind: str = "entropy"    # entropy | prob | random
    epochs: int = 3
    batch_size: int = 16
    lr: float = 3e-3                     # from-scratch desk preset; 3e-5 suits pretrained
    domain_order: list[int] | None = None
    seed: int = 0
    adv_weight: float = 1.0
    kl_weight: float = 1.0
    derpp_beta: float = 0.5
    hidden: int = 64
    n_layers: int = 2
    n_heads: int = 2

    def validate(self, n_domains: int):
        for f in fields(self):
            name, value, rule = f.name, getattr(self, f.name), FIELD_RULES.get(f.name)
            what, typed = JSON_TYPES[f.type]
            if name == "lr" and not (typed(value) and value > 0):
                raise ValueError(f"lr must be positive and finite, got {value!r}")
            if not typed(value):
                raise ValueError(f"{name} must be {what}, got {value!r}")
            if isinstance(rule, tuple) and value not in rule:
                raise ValueError(f"unknown {name} {value!r}; choose from {rule}")
            if type(rule) is int and value < rule:
                raise ValueError(f"{name} must be >= {rule}, got {value}")
        if sorted(order := self.order(n_domains)) != list(range(n_domains)):
            raise ValueError(f"domain_order {order} is not a permutation of 0..{n_domains - 1}")

    def order(self, n_domains: int) -> list[int]:
        return list(range(n_domains)) if self.domain_order is None else list(self.domain_order)


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


def gold_span_loss(sl: Tensor, el: Tensor, samples: list[Sample]) -> Tensor:
    """Mean span cross-entropy of (B, l) logits against the samples' gold spans."""
    return span_loss_batch(sl, el, np.array([s.answer_start for s in samples]),
                           np.array([s.answer_end for s in samples]))


def span_loss(model: BackboneModel, samples: list[Sample]) -> Tensor:
    """The model's mean span loss on the samples: a forward pass plus
    gold_span_loss."""
    _, _, sl, el = model.forward_batch([s.input_ids for s in samples])
    return gold_span_loss(sl, el, samples)


def _pad_logits(rows, width: int) -> np.ndarray:
    """Logit rows right-padded with NEG_INF into one (len(rows), width) array."""
    out = np.full((len(rows), width), NEG_INF)
    for i, row in enumerate(rows):
        out[i, :len(row)] = row
    return out


def der_replay_mse(items: list[mem.MemoryItem], m_sl: Tensor, m_el: Tensor,
                   m_mask: np.ndarray) -> Tensor:
    """Mean squared error between cached and current logits, both heads.

    Averaged over valid positions per sample, then over the batch; padded
    positions carry zero weight.
    """
    width = m_mask.shape[1]
    teach_s = _pad_logits([it.teacher_start_logits for it in items], width)
    teach_e = _pad_logits([it.teacher_end_logits for it in items], width)
    inv_n = np.array([1.0 / it.teacher_start_logits.size for it in items])
    w = Tensor(m_mask * inv_n[:, None])
    return ad.tmean(ad.tsum(ad.square(m_sl - Tensor(teach_s)) * w, axis=1)) \
        + ad.tmean(ad.tsum(ad.square(m_el - Tensor(teach_e)) * w, axis=1))


def der_replay_loss(model: BackboneModel, items: list[mem.MemoryItem],
                    beta: float) -> Tensor:
    """DER's replay term on a batch of memory items: their cached-logit MSE
    times DER_ALPHA, plus (DER++) their gold span loss times beta."""
    _, mask, sl, el = model.forward_batch([it.sample.input_ids for it in items])
    loss = der_replay_mse(items, sl, el, mask) * DER_ALPHA
    if beta != 0.0:
        loss = loss + gold_span_loss(sl, el, [it.sample for it in items]) * beta
    return loss


def adversarial_term(disc: adv.Discriminator, h: Tensor, n: int) -> Tensor:
    """Encoder-side game loss of a mixed batch's (B, l, h) encodings, whose
    pooled rows from n on are memory and the first n current."""
    pooled = ad.index(h, (slice(None), 0))
    return adv.encoder_adversarial_loss(disc, ad.index(pooled, slice(n, None)),
                                        ad.index(pooled, slice(0, n)))


def distill_term(teacher: BackboneModel, mem_rows: list[list[int]], sl: Tensor,
                 el: Tensor, n: int) -> Tensor:
    """KL from the teacher to the student on a mixed batch's memory rows.

    The teacher forwards the memory rows (input ids) alone; its logits are
    padded with NEG_INF to the width of the student's (B, l) logits, whose
    rows from n on are those memory rows.
    """
    _, _, t_sl, t_el = teacher.forward_batch(mem_rows)
    width = sl.data.shape[1]
    return distill.kl_distill_loss_batch(
        _pad_logits(t_sl.data, width), _pad_logits(t_el.data, width),
        ad.index(sl, slice(n, None)), ad.index(el, slice(n, None)))


class ContinualEngine:
    def __init__(self, stream: DomainStream, config: ContinualConfig):
        config.validate(len(stream))
        self.stream = stream
        self.cfg = config
        self.order = config.order(len(stream))
        self.model_cfg = ModelConfig(vocab_size=len(stream.vocab),
                                     hidden=config.hidden,
                                     n_layers=config.n_layers,
                                     n_heads=config.n_heads,
                                     l_max=stream.l_max)
        self.memory: mem.Memory | None = None
        self.fisher_states: list[FisherState] = []
        self.timings: list[float] = []

    def _rng(self, stream_id: int, t: int = 0) -> np.random.Generator:
        return ad.seeded_rng(self.cfg.seed, stream_id, t)

    def _domain(self, t: int) -> DomainData:
        """The domain trained at step t (1-based)."""
        return self.stream.domains[self.order[t - 1]]

    # -- public entry -------------------------------------------------------

    def run(self, out_dir=None, resume: bool = False,
            on_step=None) -> tuple[BackboneModel, EvalReport]:
        """Train over the whole stream; returns the final model and report.

        ``on_step(t, model, memory, step_result)`` runs after each step's
        evaluation, before checkpointing.
        """
        cfg = self.cfg
        self.stream.require("train", "test")
        report = EvalReport(metadata={
            "config": asdict(cfg),
            "config_hash": config_hash(asdict(cfg)),
            "method": cfg.method,
            "seed": cfg.seed,
            "order": self.order,
            "domains": [d.name for d in self.stream.domains],
            "setting": self.stream.setting,
        })
        out = Path(out_dir) if out_dir is not None else None
        if out is not None:
            out.mkdir(parents=True, exist_ok=True)

        model = BackboneModel(self.model_cfg, self._rng(_S_INIT))
        if out is not None:
            model.save(out / "init.ckpt")
            if resume and (out / "report.partial.json").exists():
                model, report = self._replay_committed(out, report)

        uses_memory = cfg.method in REPLAY_METHODS

        for t in range(len(report.steps) + 1, len(self.order) + 1):
            tic = time.perf_counter()
            extra = {}
            if t == 1:
                self.train_initial(model, t)
            else:
                step_fn = getattr(self, STEPS[cfg.method])
                if uses_memory and not self.memory.items:
                    log.warning("empty memory at step %d; degenerating to plain "
                                "fine-tuning", t)
                    step_fn = self.lower_bound_step
                extra = step_fn(model, t) or {}
            self._after_step(model, t)
            self.timings.append(time.perf_counter() - tic)

            per_domain, pooled = self.evaluate(model, self.order[:t])
            report.steps.append(StepResult(
                step=t, trained_domain=self.order[t - 1], per_domain=per_domain,
                f1_avg=f1_avg([e["f1"] for e in per_domain]),
                f1_all=f1_all(pooled), extra=extra))
            if on_step is not None:
                on_step(t, model, self.memory, report.steps[-1])

            # report.partial.json goes last: it commits the step for --resume
            if out is not None:
                model.save(out / f"step{t}.ckpt")
                if uses_memory:
                    mem.save_memory(self.memory, out / f"step{t}.memory.jsonl")
                report.save(out / "report.partial.json")

        if out is not None:
            report.save(out / "report.json")
            with open(out / "timing.json", "w", encoding="utf-8") as f:
                json.dump({"step_seconds": self.timings}, f, indent=2)
        return model, report

    def _after_step(self, model: BackboneModel, t: int):
        """Post-step bookkeeping on the model trained at step t: the replay
        memory's update and the Fisher record. Its rng substreams depend on
        the run seed and t alone, so replaying it on the saved checkpoints
        rebuilds the same state bit for bit."""
        cfg = self.cfg
        train = self._domain(t).train
        if cfg.method in REPLAY_METHODS:
            kind = cfg.uncertainty_kind if cfg.method == "ma_mrc" else "random"
            if t == 1:
                self.memory = mem.init_memory(train, cfg.memory_size, model,
                                              self._rng(_S_MEM, t), kind)
            else:
                mem.update_memory(self.memory, train, model, t, self._rng(_S_MEM, t),
                                  cfg.norm_strategy, kind, self.order)
        if cfg.method in ("ewc", "online_ewc"):
            self._record_fisher(model, train, t)

    def _replay_committed(self, out: Path, report: EvalReport):
        """Restore the steps that report.partial.json commits: their saved
        results, and the memory and Fisher state replayed from each step's
        checkpoint. Returns the last committed model and the saved report."""
        saved = EvalReport.load(path := out / "report.partial.json")
        if saved.metadata.get("config_hash") != report.metadata["config_hash"]:
            raise ValueError(f"{path}: resume config does not match the saved run")
        for t in range(1, len(saved.steps) + 1):
            model = BackboneModel.load(out / f"step{t}.ckpt")
            self._after_step(model, t)
        log.info("resuming after completed step %d", len(saved.steps))
        return model, saved

    # -- shared machinery ---------------------------------------------------

    def _fit(self, model: BackboneModel, samples: list[Sample],
             rng: np.random.Generator, loss_fn=None, grad_hook=None) -> list[float]:
        """Adam epochs over shuffled batches, minimising loss_fn(batch), the
        batch's whole loss (by default its span loss). grad_hook() may rewrite
        the parameters' gradients before the optimizer step (A-GEM)."""
        cfg = self.cfg
        loss_fn = loss_fn or (lambda batch: span_loss(model, batch))
        opt = ad.Adam(model.parameters(), lr=cfg.lr)
        epoch_losses = []
        for _ in range(cfg.epochs):
            perm = rng.permutation(len(samples))
            losses = []
            for lo in range(0, len(samples), cfg.batch_size):
                loss = loss_fn([samples[i] for i in perm[lo:lo + cfg.batch_size]])
                opt.zero_grad()
                ad.backward(loss)
                if grad_hook is not None:
                    grad_hook()
                opt.step()
                losses.append(loss.item())
            epoch_losses.append(sum(losses) / max(len(losses), 1))
        return epoch_losses

    # -- per-method steps ---------------------------------------------------

    def train_initial(self, model: BackboneModel, t: int):
        """Step 1 for every method: plain span-loss training."""
        losses = self._fit(model, self._domain(t).train, self._rng(_S_TRAIN, t))
        log.info("initial training losses per epoch: %s",
                 [f"{x:.3f}" for x in losses])
        return losses

    def lower_bound_step(self, model, t):
        self._fit(model, self._domain(t).train, self._rng(_S_TRAIN, t))

    def upper_bound_step(self, model, t):
        """Joint-training ceiling: restart from the seed's initial parameters
        and train on every seen domain's full training data, in stream order."""
        model.params = BackboneModel(self.model_cfg, self._rng(_S_INIT)).params
        union = [s for i in range(1, t + 1) for s in self._domain(i).train]
        self._fit(model, union, self._rng(_S_TRAIN, t))

    def ewc_step(self, model, t):
        def loss_fn(batch):
            return span_loss(model, batch) + ewc_penalty(model, self.fisher_states, EWC_LAMBDA)

        self._fit(model, self._domain(t).train, self._rng(_S_TRAIN, t), loss_fn=loss_fn)

    def _record_fisher(self, model: BackboneModel, d_train: list[Sample], t: int):
        """Diagonal Fisher from squared span-loss gradients on small batches.

        EWC keeps one state per step; online EWC keeps a single state, the
        decayed running Fisher anchored at the latest parameters.
        """
        rng = self._rng(_S_FISHER, t)
        n = min(N_FISHER, len(d_train))
        idx = rng.choice(len(d_train), size=n, replace=False)
        fisher = {k: np.zeros_like(p.data) for k, p in model.params.items()}
        batches = [idx[lo:lo + 8] for lo in range(0, n, 8)]
        for batch in batches:
            model.zero_grad()
            ad.backward(span_loss(model, [d_train[i] for i in batch]))
            for k, p in model.params.items():
                fisher[k] += p.grad * p.grad
        for k in fisher:
            fisher[k] /= len(batches)
        if self.cfg.method == "online_ewc" and self.fisher_states:
            prev = self.fisher_states.pop()
            fisher = {k: ONLINE_EWC_GAMMA * prev.fisher[k] + fisher[k] for k in fisher}
        anchor = {k: p.data.copy() for k, p in model.params.items()}
        self.fisher_states.append(FisherState(fisher=fisher, anchor=anchor))

    def agem_step(self, model, t):
        rng = self._rng(_S_TRAIN, t)
        mem_items = self.memory.items
        params = model.parameters()

        def project():
            g = np.concatenate([p.grad.reshape(-1) for p in params])
            k = min(self.cfg.batch_size, len(mem_items))
            pick = rng.choice(len(mem_items), size=k, replace=False)
            model.zero_grad()
            ad.backward(span_loss(model, [mem_items[i].sample for i in pick]))
            g = agem_project(g, np.concatenate([p.grad.reshape(-1) for p in params]))
            for p, part in zip(params, np.split(g, np.cumsum([p.data.size for p in params]))):
                p.grad = part.reshape(p.data.shape)

        self._fit(model, self._domain(t).train, rng, grad_hook=project)

    def der_step(self, model, t):
        """Logit replay; the plus-plus variant adds gold-label replay."""
        rng = self._rng(_S_TRAIN, t)
        mem_items = self.memory.items
        beta = self.cfg.derpp_beta if self.cfg.method == "derpp" else 0.0

        def loss_fn(batch):
            loss = span_loss(model, batch)
            k = min(self.cfg.batch_size, len(mem_items))
            pick = rng.choice(len(mem_items), size=k, replace=False)
            return loss + der_replay_loss(model, [mem_items[i] for i in pick], beta)

        self._fit(model, self._domain(t).train, rng, loss_fn=loss_fn)

    def incremental_step(self, model, t) -> dict:
        """Full method: mixed-batch replay + adversarial game + distillation."""
        cfg = self.cfg
        mem_items = self.memory.items
        rng = self._rng(_S_TRAIN, t)
        teacher = distill.snapshot_teacher(model)
        disc = adv.Discriminator(cfg.hidden, self._rng(_S_DISC, t))
        disc_opt = ad.Adam(disc.parameters(), lr=DISC_LR)
        k = min(max(1, math.ceil(cfg.batch_size * MEMORY_FRAC)), len(mem_items))

        def loss_fn(cur):
            # the mixed batch: the n current rows, then k replayed memory rows
            n = len(cur)
            pick = rng.choice(len(mem_items), size=k, replace=False)
            batch = cur + [mem_items[i].sample for i in pick]
            h, _, sl, el = model.forward_batch([s.input_ids for s in batch])
            loss = gold_span_loss(sl, el, batch)
            if cfg.adv_weight != 0.0:
                adv.discriminator_step(disc, disc_opt, h.data[n:, 0], h.data[:n, 0])
                loss = loss + adversarial_term(disc, h, n) * cfg.adv_weight
            if cfg.kl_weight != 0.0:
                loss = loss + distill_term(teacher, [s.input_ids for s in batch[n:]],
                                           sl, el, n) * cfg.kl_weight
            return loss

        self._fit(model, self._domain(t).train, rng, loss_fn=loss_fn)
        if cfg.adv_weight == 0.0:
            return {}
        # the game discriminator's held-out accuracy and, as the sharper
        # measure, that of a fresh probe trained on the same representations
        mem_reprs, cur_reprs, rng = self._probe_reprs(model, t)
        extra = {"disc_accuracy": adv.discriminator_accuracy(disc, mem_reprs, cur_reprs)}
        if min(len(mem_reprs), len(cur_reprs)) < 2:  # the probe would hold out no row
            log.warning("step %d: no probe_accuracy, the probe has %d row(s) a side",
                        t, len(mem_reprs))
        else:
            extra["probe_accuracy"] = adv.train_probe_discriminator(
                cfg.hidden, mem_reprs, cur_reprs, rng)[1]
        return extra

    def _probe_reprs(self, model, t):
        """Pooled representations of up to 64 memory items and as many unseen
        current-domain test rows, plus the probe's rng, which drew them."""
        test = self._domain(t).test
        rng = self._rng(_S_PROBE, t)
        # during the step memory holds no current-domain items; after an
        # update it does, and those must not dilute the separability probe
        mem_items = [it for it in self.memory.items if it.sample.domain != self.order[t - 1]]
        k = min(len(mem_items), len(test), 64)
        mem_pick = rng.choice(len(mem_items), size=k, replace=False)
        cur_pick = rng.choice(len(test), size=k, replace=False)
        mem_reprs = self._pooled_reprs(model,
                                       [mem_items[i].sample for i in mem_pick])
        cur_reprs = self._pooled_reprs(model, [test[i] for i in cur_pick])
        return mem_reprs, cur_reprs, rng

    def _pooled_reprs(self, model: BackboneModel, samples: list[Sample]) -> np.ndarray:
        return np.concatenate([h.data[:, 0, :] for _, h, _, _, _ in
                               model.forward_chunks([s.input_ids for s in samples])])

    # -- evaluation ---------------------------------------------------------

    def evaluate(self, model: BackboneModel, seen_domains: list[int]):
        """Per-domain EM/F1 over the seen test sets, in introduction order."""
        per_domain = []
        pooled = []
        for d in seen_domains:
            test = self.stream.domains[d].test
            ems, f1s = [], []
            for rows, _, mask, sl, el in model.forward_chunks([s.input_ids for s in test]):
                starts, ends = decode_answer(ad.softmax(sl).data, ad.softmax(el).data,
                                             mask, MAX_ANSWER_LEN)
                for s, i0, j0 in zip(test[rows], starts, ends):
                    e, f = em_f1(s.input_ids[i0:j0 + 1], s.answer_ids)
                    ems.append(e)
                    f1s.append(f)
            per_domain.append({"domain": d,
                               "em": float(np.mean(ems)),
                               "f1": float(np.mean(f1s))})
            pooled.append(f1s)
        return per_domain, pooled
