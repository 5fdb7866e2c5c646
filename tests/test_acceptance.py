"""End-to-end acceptance gate: eleven numbered criteria, one verdict each.

Criteria 5-8 share one desk-scale protocol: five seeded 3-domain
passage-shift streams (512 train / 128 test per domain), each trained
with the sequential baseline, the joint-training ceiling, the full
method, the replay-only ablation, and random eviction. Every criterion
prints a single PASS/FAIL line with its measured numbers.

Criterion 5's time budget is scaled to the host: before each seed's timed
block the protocol times a fixed numpy reference workload, and the core
seconds must stay under BUDGET_RATIO times the summed reference seconds.
"""

import gc
import statistics
import time
from collections import Counter

import numpy as np
import pytest

from contspan import adversarial as adv
from contspan import gradcheck
from contspan import memory as mem
from contspan.autodiff import seeded_rng
from contspan.cli import main as cli_main
from contspan.data import GenConfig, generate_cdac_stream, generate_cdaq_stream
from contspan.engine import ContinualConfig, ContinualEngine, agem_project
from contspan.metrics import f1_avg

SEEDS = range(5)
SEQ = dict(lr=1.5e-3, epochs=3)       # sequential methods
JOINT = dict(lr=1e-3, epochs=5)       # joint-training ceiling

# Criterion 5's core-time budget in units of reference seconds. The bound
# was first set as 300 s on a host where the core took 252 s (19% headroom).
# On a 2-vCPU host (OpenBLAS 0.3.31, numpy 2.4) whose criterion 5-8 and 11
# numbers match that run exactly, three protocol runs measured core /
# reference ratios of 421.9/3.273 = 128.9, 502.8/3.712 = 135.4 and
# 456.6/3.338 = 136.8 (median 135.4). The record host's reference time was
# never measured: it is assumed to share that ratio, which puts it at
# 252 / 135.4 s. The ratio that keeps its budget at 300 s is then:
BUDGET_RATIO = 300.0 / 252.0 * 135.4


def verdict(num: int, ok: bool, detail: str):
    print(f"\ncriterion {num:2d}: {'PASS' if ok else 'FAIL'}  ({detail})")
    assert ok, f"criterion {num} failed: {detail}"


def reference_seconds() -> float:
    """Best-of-three time of a fixed float64 numpy workload, after one
    warm-up pass. It runs no contspan code: GEMMs, batched attention-shaped
    matmuls, exp/tanh and row reductions at the desk encoder's shapes
    (batch 16, length 64, hidden 64, 2 heads, feed-forward 256).
    BUDGET_RATIO was measured against exactly this workload.
    """
    repeats, iters = 3, 20
    rng = np.random.default_rng(0)
    b, l, h, heads, ff = 16, 64, 64, 2, 256
    d = h // heads
    x = rng.standard_normal((b * l, h))
    w_qkv = rng.standard_normal((h, 3 * h)) * 0.1
    w_o = rng.standard_normal((h, h)) * 0.1
    w_1 = rng.standard_normal((h, ff)) * 0.1
    w_2 = rng.standard_normal((ff, h)) * 0.1

    def heads_first(a):
        return a.reshape(b, l, heads, d).transpose(0, 2, 1, 3)

    def one_pass():
        for _ in range(iters):
            q, k, v = map(heads_first, np.split(x @ w_qkv, 3, axis=1))
            s = q @ k.transpose(0, 1, 3, 2) / np.sqrt(d)
            e = np.exp(s - s.max(axis=-1, keepdims=True))
            p = e / e.sum(axis=-1, keepdims=True)
            u = (p @ v).transpose(0, 2, 1, 3).reshape(b * l, h) @ w_o
            z = u @ w_1
            g = 0.5 * z * (1.0 + np.tanh(0.7978845608 * (z + 0.044715 * z ** 3)))
            y = g @ w_2
            y = (y - y.mean(axis=1, keepdims=True)) / np.sqrt(
                y.var(axis=1, keepdims=True) + 1e-5)
            # backward-shaped products: weight and input gradients
            g_g = y @ w_2.T
            g_w2 = g.T @ y
            g_w1 = u.T @ g_g
            g_s = heads_first(g_g @ w_1.T) @ v.transpose(0, 1, 3, 2)
        return g_w1, g_w2, g_s

    one_pass()
    best = np.inf
    for _ in range(repeats):
        tic = time.perf_counter()
        one_pass()
        best = min(best, time.perf_counter() - tic)
    return best


def bounds_check(med: dict, core_seconds: float,
                 ref_seconds: float) -> tuple[bool, str]:
    """Criterion 5's verdict: ordering, a >= 3-point gap, and core time
    within the host-scaled budget."""
    gap = med["ma_mrc"] - med["lower"]
    budget = BUDGET_RATIO * ref_seconds
    ok = (med["upper"] >= med["ma_mrc"] >= med["lower"]
          and gap >= 0.03 and core_seconds < budget)
    return ok, (f"median F1_avg upper {med['upper']:.3f} >= full "
                f"{med['ma_mrc']:.3f} >= lower {med['lower']:.3f}, "
                f"gap {gap * 100:.1f} pts, {core_seconds:.0f}s of "
                f"{budget:.0f}s budget, reference {ref_seconds:.1f}s")


def desk_stream(seed):
    return generate_cdac_stream(GenConfig(
        setting="cdac", n_domains=3, train_size=512, test_size=128,
        vocab_size=200, l_max=64, seed=seed))


def tiny_stream(seed=0, n_domains=3, train=24, test=8):
    return generate_cdaq_stream(GenConfig(
        setting="cdaq", n_domains=n_domains, train_size=train, test_size=test,
        vocab_size=200, l_max=64, seed=seed))


def tiny_config(method, **over):
    kw = dict(method=method, hidden=16, n_layers=1, n_heads=2, epochs=1,
              batch_size=8, memory_size=6, seed=0)
    kw.update(over)
    return ContinualConfig(**kw)


@pytest.fixture(scope="module")
def protocol():
    finals = {m: [] for m in ("lower", "upper", "ma_mrc", "replay", "random")}
    disc_steps, ref_steps, upper_deltas, matrix_rows = [], [], [], []
    core_seconds = ref_seconds = 0.0
    for seed in SEEDS:
        stream = desk_stream(seed)
        ref_seconds += reference_seconds()
        gc.collect()  # keep prior seeds' garbage out of the timed section

        tic = time.perf_counter()
        _, rep = ContinualEngine(stream, ContinualConfig(
            method="lower", seed=seed, **SEQ)).run()
        finals["lower"].append(rep.steps[-1].f1_avg)

        _, rep = ContinualEngine(stream, ContinualConfig(
            method="upper", seed=seed, **JOINT)).run()
        finals["upper"].append(rep.steps[-1].f1_avg)
        upper_deltas.append(max(rep.forgetting_deltas()))
        matrix_rows.append([len(r) for r in rep.forgetting_matrix()])

        _, rep = ContinualEngine(stream, ContinualConfig(
            method="ma_mrc", memory_size=30, seed=seed, **SEQ)).run()
        finals["ma_mrc"].append(rep.steps[-1].f1_avg)
        disc_steps.append([s.extra["disc_accuracy"] for s in rep.steps
                           if "disc_accuracy" in s.extra])
        core_seconds += time.perf_counter() - tic

        # replay-only ablation, with a fresh separability probe on its
        # encoder after each step (its memory against the current test rows)
        engine = ContinualEngine(stream, ContinualConfig(
            method="ma_mrc", memory_size=30, adv_weight=0.0, kl_weight=0.0,
            seed=seed, **SEQ))
        refs = []

        def probe(t, model, memory, step, _e=engine, _r=refs):
            if t >= 2:
                reprs = _e._probe_reprs(model, t)
                _r.append(adv.train_probe_discriminator(_e.cfg.hidden, *reprs)[1])

        _, rep = engine.run(on_step=probe)
        finals["replay"].append(rep.steps[-1].f1_avg)
        ref_steps.append(refs)

        _, rep = ContinualEngine(stream, ContinualConfig(
            method="ma_mrc", memory_size=30, uncertainty_kind="random",
            seed=seed, **SEQ)).run()
        finals["random"].append(rep.steps[-1].f1_avg)

    return dict(finals=finals, disc=disc_steps, refs=ref_steps,
                upper_deltas=upper_deltas, matrix_rows=matrix_rows,
                core_seconds=core_seconds, ref_seconds=ref_seconds)


def test_criterion_01_gradient_suite():
    tic = time.perf_counter()
    results = gradcheck.run_all()
    elapsed = time.perf_counter() - tic
    worst = max(err for _, err, _ in results)
    ok = all(passed for _, _, passed in results) and elapsed < 30.0
    verdict(1, ok, f"{len(results)} losses, max rel err {worst:.2e}, "
                   f"{elapsed:.1f}s")


def test_criterion_02_metric_constants():
    a = f1_avg([78.24, 68.66, 68.03, 58.63, 63.47])
    b = f1_avg([83.86, 85.16, 81.03, 92.36, 83.36, 65.30, 84.22, 88.82])
    ok = abs(a - 67.41) < 0.005 and abs(b - 83.01) < 0.005
    verdict(2, ok, f"reference rows give F1_avg {a:.4f} and {b:.4f}")


def test_criterion_03_memory_invariants():
    stream = tiny_stream(n_domains=5, train=96)
    checked = []

    def expected_counts(capacity, t):
        base, rem = divmod(capacity, t)
        return [base + 1] * rem + [base] * (t - rem)

    for capacity in (30, 60, 90):
        engine = ContinualEngine(stream, tiny_config("ma_mrc",
                                                     memory_size=capacity))

        def check(t, model, memory, step, _cap=capacity):
            assert len(memory.items) <= _cap
            counts = Counter(it.sample.domain for it in memory.items)
            got = [counts.get(d, 0) for d in range(t)]
            assert got == expected_counts(_cap, t), (t, _cap, got)
            checked.append((_cap, t))

        engine.run(on_step=check)
    ok = len(checked) == 15
    verdict(3, ok, f"capacity and quota rule held at {len(checked)} "
                   "(capacity, step) points over a 5-domain run")


def test_criterion_04_algorithm_reductions():
    stream = tiny_stream()

    def params(config):
        model, _ = ContinualEngine(stream, config).run()
        return model

    a = params(tiny_config("lower"))
    b = params(tiny_config("ma_mrc", memory_size=0, adv_weight=0.0,
                           kl_weight=0.0))
    red1 = all(np.array_equal(a.params[k].data, b.params[k].data)
               for k in a.params)
    c = params(tiny_config("der"))
    d = params(tiny_config("derpp", derpp_beta=0.0))
    red2 = all(np.array_equal(c.params[k].data, d.params[k].data)
               for k in c.params)
    verdict(4, red1 and red2,
            f"full method minus memory/adv/kl == sequential: {red1}; "
            f"logit replay with beta=0 == plain logit replay: {red2}")


def test_criterion_05_bounds_ordering(protocol):
    med = {m: statistics.median(protocol["finals"][m])
           for m in ("lower", "upper", "ma_mrc")}
    verdict(5, *bounds_check(med, protocol["core_seconds"],
                             protocol["ref_seconds"]))


def test_criterion_05_budget_scales_with_reference():
    med = dict(upper=0.944, ma_mrc=0.834, lower=0.642)
    # 300 s on a host with the record's derived reference time
    record_ref = 300.0 / BUDGET_RATIO
    assert bounds_check(med, 299.0, record_ref)[0]
    assert not bounds_check(med, 301.0, record_ref)[0]
    # linear in the reference time
    for scale in (0.5, 2.0, 3.0):
        ref = scale * record_ref
        assert bounds_check(med, 0.99 * 300.0 * scale, ref)[0]
        assert not bounds_check(med, 1.01 * 300.0 * scale, ref)[0]
    # a core time 25% over budget fails, and the verdict names the budget
    ok, detail = bounds_check(med, 1.25 * 300.0, record_ref)
    assert not ok
    assert detail.endswith(
        f"375s of 300s budget, reference {record_ref:.1f}s")


def test_criterion_06_ablation_direction(protocol):
    full = statistics.median(protocol["finals"]["ma_mrc"])
    ablated = statistics.median(protocol["finals"]["replay"])
    verdict(6, ablated < full,
            f"median F1_avg replay-only {ablated:.3f} < full {full:.3f}")


def test_criterion_07_uncertainty_vs_random(protocol):
    pairs = zip(protocol["finals"]["ma_mrc"], protocol["finals"]["random"])
    wins = sum(a >= b for a, b in pairs)
    verdict(7, wins >= 3, f"entropy eviction >= random on {wins}/5 seeds")


def test_criterion_08_adversarial_effect(protocol):
    disc = np.array(protocol["disc"])   # (seeds, incremental steps)
    refs = np.array(protocol["refs"])
    disc_med = np.median(disc, axis=0)
    ref_med = np.median(refs, axis=0)
    ok = bool((disc_med <= 0.75).all() and (ref_med >= 0.85).all())
    verdict(8, ok, "per-step median held-out accuracy: game discriminator "
                   f"{[round(float(x), 3) for x in disc_med]} <= 0.75, "
                   f"non-adversarial probe {[round(float(x), 3) for x in ref_med]}"
                   " >= 0.85")


def test_criterion_09_agem_projection():
    rng = seeded_rng(17)
    worst = np.inf
    for _ in range(10_000):
        g = rng.normal(size=32)
        g_ref = rng.normal(size=32)
        worst = min(worst, agem_project(g, g_ref) @ g_ref)
    verdict(9, worst >= -1e-10,
            f"min projected dot over 1e4 random pairs: {worst:.2e}")


def test_criterion_10_run_determinism(tmp_path):
    data = tmp_path / "ds"
    cli_main(["gen", "--setting", "cdaq", "--domains", "2",
              "--train-size", "16", "--test-size", "8", "--vocab-size", "100",
              "--l-max", "32", "--seed", "5", "--out", str(data)])
    reports = []
    for name in ("a.json", "b.json"):
        rc = cli_main(["run", "--data", str(data), "--method", "ma_mrc",
                       "--memory-size", "4", "--epochs", "1",
                       "--batch-size", "8", "--seed", "9",
                       "--report", str(tmp_path / name)])
        assert rc == 0
        reports.append((tmp_path / name).read_bytes())
    verdict(10, reports[0] == reports[1],
            f"repeated run produced identical {len(reports[0])}-byte reports")


def test_criterion_11_forgetting_bookkeeping(protocol):
    rows_ok = all(rows == [1, 2, 3] for rows in protocol["matrix_rows"])
    worst = max(protocol["upper_deltas"]) * 100
    verdict(11, rows_ok and worst < 5.0,
            f"matrix rows lower-triangular on all seeds: {rows_ok}; "
            f"joint-training max forgetting delta {worst:.2f} F1 pts")
