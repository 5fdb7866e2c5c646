import json
import weakref
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from contspan import autodiff as ad
from contspan import distill
from contspan import memory as mem
from contspan import metrics
from contspan.autodiff import Tensor
from contspan.backbone import BackboneModel, ModelConfig
from contspan.data import GenConfig, Sample, generate_cdaq_stream
from contspan.engine import (METHODS, ONLINE_EWC_GAMMA, REPLAY_METHODS, ContinualConfig,
                             ContinualEngine, FisherState, agem_project, ewc_penalty,
                             der_replay_mse, distill_term)
from contspan.metrics import EvalReport


def small_stream(seed=0, n_domains=3):
    cfg = GenConfig(setting="cdaq", n_domains=n_domains, train_size=24,
                    test_size=8, vocab_size=100, l_max=32, seed=seed,
                    passage_len=(10, 18))
    return generate_cdaq_stream(cfg)


def small_config(method, **over):
    kw = dict(method=method, hidden=16, n_layers=1, n_heads=2, epochs=1,
              batch_size=8, lr=3e-3, memory_size=6, seed=0)
    kw.update(over)
    return ContinualConfig(**kw)


def params_equal(a: BackboneModel, b: BackboneModel) -> bool:
    return all(np.array_equal(a.params[k].data, b.params[k].data)
               for k in a.params)


# -- pure helpers -----------------------------------------------------------

def test_agem_project_cases():
    g = np.array([1.0, 0.0])
    np.testing.assert_array_equal(agem_project(g, np.array([1.0, 1.0])), g)
    np.testing.assert_allclose(agem_project(g, np.array([-1.0, 0.0])),
                               [0.0, 0.0], atol=1e-15)
    np.testing.assert_array_equal(agem_project(g, np.zeros(2)), g)
    with pytest.raises(ValueError, match="length mismatch"):
        agem_project(g, np.zeros(3))


def test_agem_projection_never_conflicts():
    rng = ad.seeded_rng(0)
    for _ in range(1000):
        g = rng.normal(size=16)
        g_ref = rng.normal(size=16)
        assert agem_project(g, g_ref) @ g_ref >= -1e-10


def test_ewc_penalty_cases():
    model = BackboneModel(ModelConfig(vocab_size=10, hidden=4, n_layers=1,
                                      n_heads=2, l_max=8), ad.seeded_rng(0))
    anchor = model.flat.data.copy()
    state = FisherState(fisher=np.ones_like(anchor), anchor=anchor)
    assert ewc_penalty(model, [state], lam=2.0).item() == pytest.approx(0.0)

    # w_start is the last parameter but one, 4 floats wide
    w_start = slice(-8, -4)
    np.testing.assert_array_equal(anchor[w_start], model.params["w_start"].data)
    zero_f = np.zeros_like(anchor)
    zero_f[w_start] = 1.0
    anchor2 = anchor.copy()
    anchor2[w_start] -= 1.0  # theta - anchor = [1,1,1,1]
    pen = ewc_penalty(model, [FisherState(zero_f, anchor2)], lam=2.0)
    assert pen.item() == pytest.approx(4.0, abs=1e-12)  # (2/2) * sum of 1s
    with pytest.raises(ValueError, match="no Fisher"):
        ewc_penalty(model, [], 1.0)


def _der_item(teacher_s, teacher_e):
    s = Sample(id="x", domain=0, question_ids=[10], passage_ids=[20],
               answer_start=3, answer_end=3).assemble(8)
    return mem.MemoryItem(sample=s,
                          teacher_start_logits=np.asarray(teacher_s, float),
                          teacher_end_logits=np.asarray(teacher_e, float))


def test_der_replay_mse_zero_when_logits_match():
    item = _der_item([1.0, -2.0], [0.5, 0.5])
    m_sl = Tensor(np.array([[1.0, -2.0]]))
    m_el = Tensor(np.array([[0.5, 0.5]]))
    got = der_replay_mse([item], m_sl, m_el, np.ones((1, 2)))
    assert got.item() == pytest.approx(0.0, abs=1e-12)


def test_der_replay_mse_hand_case():
    # cached [1, 0] vs current [0, 0]: MSE 0.5 per head
    item = _der_item([1.0, 0.0], [1.0, 0.0])
    zeros = Tensor(np.zeros((1, 2)))
    got = der_replay_mse([item], zeros, zeros, np.ones((1, 2)))
    assert got.item() == pytest.approx(1.0, abs=1e-12)


# -- config validation ------------------------------------------------------

def test_config_rejects_unknown_method_and_bad_order():
    with pytest.raises(ValueError, match="unknown method"):
        ContinualEngine(small_stream(), small_config("sgd"))
    with pytest.raises(ValueError, match="permutation"):
        ContinualEngine(small_stream(), small_config("lower", domain_order=[0, 0, 1]))


@pytest.mark.parametrize("field, value", [("memory_size", -1), ("batch_size", 0),
                                          ("epochs", 0), ("hidden", 0), ("n_layers", 0),
                                          ("n_heads", 0), ("lr", -5.0), ("lr", 0.0),
                                          ("lr", float("nan")), ("seed", -1),
                                          ("adv_weight", -1), ("kl_weight", -1),
                                          ("derpp_beta", -1)])
def test_config_rejects_out_of_range_sizes(field, value):
    expected = "lr must be positive and finite" if field == "lr" \
        else f"{field} must be >= {value + 1}"
    with pytest.raises(ValueError, match=expected):
        ContinualEngine(small_stream(), small_config("ma_mrc", **{field: value}))


def test_run_beyond_the_host_memory_is_rejected_before_any_file(tmp_path, monkeypatch):
    """The size bound holds for library callers too: on a host made 1 MiB
    here, below the small model's estimate, run raises before it writes."""
    monkeypatch.setattr("os.sysconf", lambda name: 1024)  # 1024 pages of 1 KiB
    engine = ContinualEngine(small_stream(), small_config("lower"))
    with pytest.raises(ValueError, match=r"more than the host's 0\.000977 GiB of memory: "
                                         r"lower hidden \(16\), n_layers \(1\), l_max"):
        engine.run(out_dir=tmp_path / "out")
    assert not (tmp_path / "out").exists()


# -- reductions -------------------------------------------------------------

def test_ma_mrc_without_memory_reduces_to_lower():
    stream = small_stream()
    m1, _ = ContinualEngine(stream, small_config("lower")).run()
    m2, _ = ContinualEngine(stream, small_config("ma_mrc", memory_size=0, adv_weight=0.0,
                                                 kl_weight=0.0)).run()
    assert params_equal(m1, m2)


def test_derpp_beta_zero_reduces_to_der():
    stream = small_stream()
    m1, _ = ContinualEngine(stream, small_config("der")).run()
    m2, _ = ContinualEngine(stream, small_config("derpp", derpp_beta=0.0)).run()
    assert params_equal(m1, m2)
    m3, _ = ContinualEngine(stream, small_config("derpp")).run()
    assert not params_equal(m1, m3)


def test_ewc_equals_online_ewc_over_two_domains():
    stream = small_stream(n_domains=2)
    e1 = ContinualEngine(stream, small_config("ewc"))
    m1, _ = e1.run()
    e2 = ContinualEngine(stream, small_config("online_ewc"))
    m2, _ = e2.run()
    assert params_equal(m1, m2)
    # EWC keeps a state per step; online EWC one running state
    first, second = e1.fisher_states
    [merged] = e2.fisher_states
    np.testing.assert_array_equal(merged.fisher, ONLINE_EWC_GAMMA * first.fisher
                                  + second.fisher)
    np.testing.assert_array_equal(merged.anchor, second.anchor)


def test_lower_equals_upper_on_single_domain():
    stream = small_stream(n_domains=1)
    m1, r1 = ContinualEngine(stream, small_config("lower")).run()
    m2, r2 = ContinualEngine(stream, small_config("upper")).run()
    assert params_equal(m1, m2)
    assert len(r1.steps) == 1
    assert r1.forgetting_matrix() == r2.forgetting_matrix()
    assert r1.forgetting_deltas() == []


# -- orchestration ----------------------------------------------------------

def test_upper_step_trains_on_seen_union():
    stream = small_stream()
    engine = ContinualEngine(stream, small_config("upper"))
    sizes = []
    orig = engine._fit

    def spy(model, samples, rng, **kw):
        sizes.append(len(samples))
        return orig(model, samples, rng, **kw)

    engine._fit = spy
    engine.run()
    assert sizes == [24, 48, 72]


def test_upper_restarts_each_step_from_the_seeds_initial_parameters():
    """Step t of upper starts from the parameters the run seed draws before
    step 1 and trains on the first t domains of the order, in stream order."""
    stream = small_stream()
    engine = ContinualEngine(stream, small_config("upper", domain_order=[2, 0, 1]))
    init = BackboneModel(engine.model_cfg, ad.seeded_rng(0, 0, 0))
    calls = []
    orig = engine._fit

    def spy(model, samples, rng, **kw):
        calls.append((params_equal(model, init), [s.id for s in samples]))
        return orig(model, samples, rng, **kw)

    engine._fit = spy
    model, _ = engine.run()
    assert not params_equal(model, init)
    ids = [[s.id for s in stream.domains[d].train] for d in (2, 0, 1)]
    assert calls == [(True, ids[0]), (True, ids[0] + ids[1]),
                     (True, ids[0] + ids[1] + ids[2])]


def test_order_permutation_is_respected():
    stream = small_stream()
    _, report = ContinualEngine(stream, small_config("lower", domain_order=[2, 0, 1])).run()
    assert report.metadata["order"] == [2, 0, 1]
    assert [s.trained_domain for s in report.steps] == [2, 0, 1]
    assert [e["domain"] for e in report.steps[-1].per_domain] == [2, 0, 1]


def test_forgetting_matrix_shape_after_run():
    _, report = ContinualEngine(small_stream(), small_config("ma_mrc")).run()
    assert [len(row) for row in report.forgetting_matrix()] == [1, 2, 3]
    assert len(report.forgetting_deltas()) == 3


def test_memory_quotas_across_run():
    engine = ContinualEngine(small_stream(), small_config("ma_mrc"))
    engine.run()
    counts = Counter(it.sample.domain for it in engine.memory.items)
    assert counts == {0: 2, 1: 2, 2: 2}
    assert len(engine.memory.items) <= 6


def test_memory_quotas_follow_stream_position():
    """Each domain holds the quota of its stream position, whatever the order."""
    order = [2, 0, 1]
    counts = []

    def record(t, model, memory, step):
        by_domain = Counter(it.sample.domain for it in memory.items)
        counts.append([by_domain.get(d, 0) for d in order[:t]])

    engine = ContinualEngine(small_stream(), small_config("ma_mrc", memory_size=12,
                                                          domain_order=order))
    engine.run(on_step=record)
    assert counts == [mem._quotas(12, t) for t in (1, 2, 3)] == [[12], [6, 6], [4, 4, 4]]


def _reject_constant(name):
    raise ValueError(f"{name} is not strict JSON")


@pytest.mark.parametrize("method, kind", [
    ("ma_mrc", "entropy"), ("ma_mrc", "prob"), ("ma_mrc", "random"),
    ("agem", "random"), ("der", "random"), ("derpp", "random")])
def test_memory_files_are_strict_json(tmp_path, method, kind):
    """A random-kind memory, which never scores its items, once wrote their
    -inf uncertainties as -Infinity, which a strict JSON parser rejects: they
    are null now, and a scored kind's stay floats."""
    cfg = small_config(method, uncertainty_kind=kind)
    ContinualEngine(small_stream(n_domains=2), cfg).run(out_dir=tmp_path)
    paths = sorted(tmp_path.glob("step*.memory.jsonl"))
    assert [p.name for p in paths] == ["step1.memory.jsonl", "step2.memory.jsonl"]
    for path in paths:
        _, *items = [json.loads(line, parse_constant=_reject_constant)
                     for line in path.read_text().splitlines()]
        assert items
        for it in items:
            us = [it["_memory"][f"{k}_uncertainty"] for k in ("best", "last")]
            assert all(u is None if kind == "random" else type(u) is float for u in us)


def test_rerun_is_byte_identical(tmp_path):
    stream = small_stream()
    for name in ("a", "b"):
        ContinualEngine(stream, small_config("ma_mrc")).run(out_dir=tmp_path / name)
    assert (tmp_path / "a" / "report.json").read_bytes() \
        == (tmp_path / "b" / "report.json").read_bytes()


def test_timings_live_in_sidecar_not_report(tmp_path):
    ContinualEngine(small_stream(), small_config("lower")).run(out_dir=tmp_path)
    report_text = (tmp_path / "report.json").read_text()
    assert "step_seconds" not in report_text
    timing = json.loads((tmp_path / "timing.json").read_text())
    assert len(timing["step_seconds"]) == 3


def test_old_train_data_is_unreachable_after_its_step():
    """After step t, earlier domains' training lists are never touched;
    replay must go through the memory's own sample references."""

    class Poison:
        def __getattr__(self, name):
            raise AssertionError("engine touched a past domain's training data")

    stream = small_stream()
    engine = ContinualEngine(stream, small_config("ma_mrc"))

    def poison_done(t, model, memory, step):
        dom = stream.domains[engine.cfg.order(3)[t - 1]]
        dom.train[:] = [Poison()] * len(dom.train)

    engine.run(on_step=poison_done)


class Crash(Exception):
    pass


def crash_at_3(t, model, memory, step):
    if t == 3:
        raise Crash


def test_resume_reproduces_uninterrupted_run(tmp_path):
    stream = small_stream()

    full_dir = tmp_path / "full"
    ContinualEngine(stream, small_config("ma_mrc")).run(out_dir=full_dir)

    crash_dir = tmp_path / "crash"
    engine = ContinualEngine(stream, small_config("ma_mrc"))
    with pytest.raises(Crash):
        engine.run(out_dir=crash_dir, on_step=crash_at_3)

    resumed = ContinualEngine(stream, small_config("ma_mrc"))
    resumed.run(out_dir=crash_dir, resume=True)
    assert (crash_dir / "report.json").read_bytes() \
        == (full_dir / "report.json").read_bytes()


def test_timing_writes_null_for_each_step_restored_by_resume(tmp_path):
    """The restored steps were not timed. timing.json once listed only the
    re-run steps' seconds, so step 3's read as step 1's."""
    stream = small_stream()
    with pytest.raises(Crash):
        ContinualEngine(stream, small_config("lower")).run(out_dir=tmp_path, on_step=crash_at_3)
    ContinualEngine(stream, small_config("lower")).run(out_dir=tmp_path, resume=True)
    seconds = json.loads((tmp_path / "timing.json").read_text())["step_seconds"]
    assert seconds[:2] == [None, None] and seconds[2] > 0


@pytest.mark.parametrize("method", ["ma_mrc", "upper", "ewc"])
def test_resume_reads_only_the_partial_report_and_step_checkpoints(tmp_path, method):
    """Memory and Fisher state are replayed from the step checkpoints, and
    the initial model comes from the seed: neither init.ckpt nor a memory
    file is read back."""
    stream = small_stream()
    full_dir = tmp_path / "full"
    ContinualEngine(stream, small_config(method)).run(out_dir=full_dir)

    crash_dir = tmp_path / "crash"
    with pytest.raises(Crash):
        ContinualEngine(stream, small_config(method)).run(out_dir=crash_dir,
                                                          on_step=crash_at_3)
    (crash_dir / "init.ckpt").unlink()
    for path in crash_dir.glob("*.memory.jsonl"):
        path.unlink()
    ContinualEngine(stream, small_config(method)).run(out_dir=crash_dir, resume=True)
    names = ["report.json", "init.ckpt", "step3.ckpt"]
    if method == "ma_mrc":
        names.append("step3.memory.jsonl")  # built on the replayed step-2 memory
    for name in names:
        assert (crash_dir / name).read_bytes() == (full_dir / name).read_bytes(), name


@pytest.mark.parametrize("method", ["ma_mrc", "der", "ewc", "online_ewc", "lower", "upper",
                                    "agem", "derpp"])
def test_resume_after_a_crash_at_any_write_matches_uninterrupted_run(
        tmp_path, monkeypatch, method):
    """Crash just before and just after every checkpoint, memory and report
    write, and in the middle of step 2's partial report, checkpoint and
    memory file; each resumed run writes the uninterrupted run's report.json
    byte for byte. A crash mid-write leaves no truncated file at the final
    path: the partial report keeps step 1's whole, the others are absent."""
    stream = small_stream()
    writes = [0]
    crash_at = [None]
    opens = Counter()

    def crashing(write):
        def wrapper(*args, **kwargs):
            writes[0] += 1
            if crash_at[0] == (writes[0], "before"):
                raise Crash
            write(*args, **kwargs)
            if crash_at[0] == (writes[0], "after"):
                raise Crash
        return wrapper

    monkeypatch.setattr(BackboneModel, "save", crashing(BackboneModel.save))
    monkeypatch.setattr(mem, "save_memory", crashing(mem.save_memory))
    monkeypatch.setattr(EvalReport, "save", crashing(EvalReport.save))

    class CutFile:
        """Takes half of its first write, then crashes."""
        def __init__(self, f):
            self.f = f

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.f.close()

        def write(self, data):
            self.f.write(data[:len(data) // 2])
            raise Crash

    def cut_open(file, *args, **kwargs):
        f = open(file, *args, **kwargs)
        opens[Path(file).name] += 1
        return CutFile(f) if crash_at[0] == (Path(file).name, opens[Path(file).name]) else f

    # every checkpoint, memory and report write opens its file here
    monkeypatch.setattr(metrics, "open", cut_open, raising=False)

    ContinualEngine(stream, small_config(method)).run(out_dir=tmp_path / "full")
    expected = (tmp_path / "full" / "report.json").read_bytes()
    points = [(k, when) for k in range(1, writes[0] + 1) for when in ("before", "after")]
    # (temp file, its nth open): step 2's partial report, checkpoint and memory
    mid_write = [("report.partial.json.tmp", 2), ("step2.ckpt.tmp", 1)]
    if method in REPLAY_METHODS:
        mid_write.append(("step2.memory.jsonl.tmp", 1))
    for i, point in enumerate(points + mid_write):
        out = tmp_path / f"crash{i}"
        writes[0] = 0
        opens.clear()
        crash_at[0] = point
        with pytest.raises(Crash):
            ContinualEngine(stream, small_config(method)).run(out_dir=out)
        crash_at[0] = None
        if point in mid_write:
            final = out / point[0].removesuffix(".tmp")
            if final.name == "report.partial.json":
                assert len(EvalReport.load(final).steps) == 1
            else:
                assert not final.exists(), point
        ContinualEngine(stream, small_config(method)).run(out_dir=out, resume=True)
        assert (out / "report.json").read_bytes() == expected, point


@pytest.mark.parametrize("split", ["train", "test"])
def test_empty_split_is_rejected_before_training(tmp_path, split):
    stream = small_stream()
    setattr(stream.domains[1], split, [])
    engine = ContinualEngine(stream, small_config("lower"))
    with pytest.raises(ValueError, match=f"domain cdaq_d1 has no {split} samples"):
        engine.run(out_dir=tmp_path / "out")
    assert not (tmp_path / "out").exists()


def test_resume_rejects_config_mismatch(tmp_path):
    stream = small_stream()
    ContinualEngine(stream, small_config("lower")).run(out_dir=tmp_path)
    other = ContinualEngine(stream, small_config("lower", lr=1e-3))
    with pytest.raises(ValueError, match="resume config"):
        other.run(out_dir=tmp_path, resume=True)


def test_fisher_estimates_are_nonnegative_and_shaped():
    stream = small_stream(n_domains=2)
    engine = ContinualEngine(stream, small_config("ewc"))
    model, _ = engine.run()
    assert len(engine.fisher_states) == 2
    for st in engine.fisher_states:
        assert st.fisher.shape == st.anchor.shape == model.flat.data.shape
        assert (st.fisher >= 0.0).all()


def test_teacher_constant_during_incremental_step(monkeypatch):
    from contspan import distill
    stream = small_stream(n_domains=2)
    engine = ContinualEngine(stream, small_config("ma_mrc"))
    probe = stream.domains[0].test[0].input_ids
    seen = {}
    orig = distill.snapshot_teacher

    def spy(model):
        teacher = orig(model)
        seen["before"] = teacher.encode_batch([probe])[0].data.copy()
        seen["teacher"] = teacher
        return teacher

    monkeypatch.setattr(distill, "snapshot_teacher", spy)
    engine.run()
    np.testing.assert_array_equal(seen["teacher"].encode_batch([probe])[0].data,
                                  seen["before"])


def test_probe_accuracy_left_out_when_a_side_has_one_row(caplog):
    """One memory item gives the probe one row a side, none to hold out:
    the step records disc_accuracy alone and says why."""
    stream = generate_cdaq_stream(GenConfig(n_domains=2, train_size=6, test_size=2,
                                            seed=1))
    with caplog.at_level("WARNING"):
        _, report = ContinualEngine(stream, small_config("ma_mrc", memory_size=1)).run()
    assert set(report.steps[1].extra) == {"disc_accuracy"}
    assert "no probe_accuracy" in caplog.text


def test_tape_holds_and_differentiates_only_tracked_tensors(monkeypatch):
    """Over a run with an ma_mrc incremental step, whose tape meets constants
    (attention and span biases, the frozen discriminator copy, detached
    representations, teacher logits): no node keeps an untracked input, so
    none enters backward's walk, and no backward yields a gradient for one."""
    faults, constants = [], []
    make = ad._make

    def checked(bw, op):
        def gen(g):
            for inp, gin in bw(g):
                if not ad._tracked(inp):
                    faults.append(f"{op} yields to a constant")
                yield inp, gin
        return gen

    def checking_make(data, op, inputs, backward):
        out = make(data, op, inputs, backward)
        if out._backward is not None:
            constants.extend(t for t in inputs if not ad._tracked(t))
            faults.extend(f"{op} keeps a constant" for t in out._inputs
                          if not ad._tracked(t))
            out._backward = checked(out._backward, op)
        return out

    monkeypatch.setattr(ad, "_make", checking_make)
    ContinualEngine(small_stream(n_domains=2), small_config("ma_mrc")).run()
    assert constants  # the tape did meet constants
    assert not faults, sorted(set(faults))


def test_empty_memory_incremental_step_warns_and_finetunes(caplog):
    stream = small_stream(n_domains=2)
    cfg = small_config("ma_mrc", memory_size=0)
    with caplog.at_level("WARNING"):
        ContinualEngine(stream, cfg).run()
    assert "empty memory" in caplog.text


@pytest.mark.parametrize("method", METHODS)
def test_every_step_logs_its_epoch_losses(caplog, method):
    """The one training loop logs each step's epoch losses with the step
    number. They were once logged by plain fine-tuning alone, and before
    that at step 1 alone."""
    with caplog.at_level("INFO", logger="contspan.engine"):
        ContinualEngine(small_stream(), small_config(method, epochs=2)).run()
    logged = [r for r in caplog.records if "training losses per epoch" in r.getMessage()]
    assert [r.args[0] for r in logged] == [1, 2, 3]
    assert all(len(r.args[1]) == 2 for r in logged)


def test_distill_term_pads_short_memory_rows_exactly():
    """Memory rows shorter than the mixed batch's widest row get the KL
    they have when each is forwarded alone at its own width."""
    model = BackboneModel(ModelConfig(vocab_size=40, hidden=16, n_layers=1,
                                      n_heads=2, l_max=16), ad.seeded_rng(0))
    teacher = distill.snapshot_teacher(model)
    for p in teacher.params.values():
        p.data += 0.05
    rng = ad.seeded_rng(1)
    ids = [rng.integers(3, 40, size=n).tolist() for n in (12, 5, 8)]
    _, _, sl, el = model.forward_batch(ids)
    got = distill_term(teacher, ids[1:], sl, el).item()
    alone = []
    for row in ids[1:]:
        _, _, t_sl, t_el = teacher.forward_batch([row])
        _, _, s_sl, s_el = model.forward_batch([row])
        alone.append(distill.kl_distill_loss_batch(t_sl.data, t_el.data,
                                                   s_sl, s_el).item())
    assert got == pytest.approx(np.mean(alone), abs=1e-12)


def test_forward_only_passes_record_no_tape(monkeypatch):
    """Scoring, memory and probe passes forward without building a graph."""
    nodes = []
    make = ad._make

    def counting_make(*args):
        out = make(*args)
        if out._backward is not None:
            nodes.append(out._op)
        return out

    monkeypatch.setattr(ad, "_make", counting_make)
    stream = small_stream(n_domains=2)
    engine = ContinualEngine(stream, small_config("ma_mrc"))
    model = BackboneModel(engine.model_cfg, ad.seeded_rng(0))
    model.forward_batch([stream.domains[0].test[0].input_ids])
    assert nodes  # a tracked model does record a tape
    nodes.clear()

    d0, d1 = stream.domains[0].train, stream.domains[1].train
    memory = mem.init_memory(d0, 6, model, ad.seeded_rng(0, 1))
    mem.update_memory(memory, d1, model, 2, ad.seeded_rng(0, 2))
    engine.evaluate(model, [0, 1])
    engine._pooled_reprs(model, stream.domains[1].test)
    # the distillation teacher's forward of the memory rows
    rows = [s.input_ids for s in d1[:3]] + [it.sample.input_ids for it in memory.items[:2]]
    _, _, sl, el = model.copy().forward_batch(rows)
    distill_term(distill.snapshot_teacher(model), rows[3:], sl, el)
    assert nodes == []


def test_fit_frees_each_batch_graph_before_the_next(monkeypatch):
    """While a batch's forward runs, no tape node of an earlier batch still
    holds its graph; only the loop's loss survives, consumed."""
    graphs = [weakref.WeakSet()]
    stale = []
    make, backward = ad._make, ad.backward

    def counting_make(*args):
        if not graphs[-1] and len(graphs) > 1:  # the first node of a batch
            alive = [n for earlier in graphs[:-1] for n in earlier]
            stale.append(([n._op for n in alive if n._inputs], len(alive)))
        out = make(*args)
        if out._backward is not None:
            graphs[-1].add(out)
        return out

    def counting_backward(root):
        backward(root)
        graphs.append(weakref.WeakSet())

    monkeypatch.setattr(ad, "_make", counting_make)
    monkeypatch.setattr(ad, "backward", counting_backward)
    stream = small_stream()
    engine = ContinualEngine(stream, small_config("lower"))
    model = BackboneModel(engine.model_cfg, ad.seeded_rng(0))
    engine._fit(model, stream.domains[0].train, ad.seeded_rng(1), t=1)
    assert len(stale) == 2  # 24 rows in batches of 8
    for holding, n_alive in stale:
        assert holding == []
        assert n_alive <= 1  # the loss


def test_evaluate_reports_per_domain_in_seen_order():
    stream = small_stream()
    engine = ContinualEngine(stream, small_config("lower"))
    model = BackboneModel(engine.model_cfg, ad.seeded_rng(0))
    per_domain, pooled = engine.evaluate(model, [1, 0])
    assert [e["domain"] for e in per_domain] == [1, 0]
    assert len(pooled) == 2 and len(pooled[0]) == 8
    for e in per_domain:
        assert 0.0 <= e["em"] <= 1.0 and 0.0 <= e["f1"] <= 1.0
