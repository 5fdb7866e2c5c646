import json

import numpy as np
import pytest

from contspan import autodiff as ad
from contspan import memory as mem
from contspan.autodiff import Tensor
from contspan.backbone import BackboneModel, ModelConfig
from contspan.data import GenConfig, Sample, generate_cdaq_stream
from contspan.engine import (ContinualConfig, ContinualEngine, FisherState,
                             agem_project, ewc_penalty, der_replay_mse,
                             run_stream)


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
    anchor = {k: p.data.copy() for k, p in model.params.items()}
    fisher = {k: np.ones_like(p.data) for k, p in model.params.items()}
    state = FisherState(fisher=fisher, anchor=anchor)
    assert ewc_penalty(model, [state], lam=2.0).item() == pytest.approx(0.0)

    zero_f = {k: np.zeros_like(p.data) for k, p in model.params.items()}
    zero_f["w_start"] = np.ones_like(model.params["w_start"].data)
    anchor2 = {k: v.copy() for k, v in anchor.items()}
    anchor2["w_start"] = anchor["w_start"] - 1.0  # theta - anchor = [1,1,1,1]
    pen = ewc_penalty(model, [FisherState(zero_f, anchor2)], lam=2.0)
    assert pen.item() == pytest.approx(4.0, abs=1e-12)  # (2/2) * sum of 1s
    with pytest.raises(ValueError, match="no Fisher"):
        ewc_penalty(model, [], 1.0)


def _der_item(teacher_s, teacher_e):
    s = Sample(id="x", domain=0, question_ids=[10], passage_ids=[20],
               answer_start=3, answer_end=3).assemble(8)
    return mem.MemoryItem(sample=s, origin_domain=0,
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


# -- reductions -------------------------------------------------------------

def test_ma_mrc_without_memory_reduces_to_lower():
    stream = small_stream()
    m1, _, _ = run_stream(stream, small_config("lower"))
    m2, _, _ = run_stream(stream, small_config("ma_mrc", memory_size=0,
                                               adv_weight=0.0, kl_weight=0.0))
    assert params_equal(m1, m2)


def test_derpp_beta_zero_reduces_to_der():
    stream = small_stream()
    m1, _, _ = run_stream(stream, small_config("der"))
    m2, _, _ = run_stream(stream, small_config("derpp", derpp_beta=0.0))
    assert params_equal(m1, m2)
    m3, _, _ = run_stream(stream, small_config("derpp"))
    assert not params_equal(m1, m3)


def test_ewc_equals_online_ewc_over_two_domains():
    stream = small_stream(n_domains=2)
    m1, _, _ = run_stream(stream, small_config("ewc"))
    m2, _, _ = run_stream(stream, small_config("online_ewc"))
    assert params_equal(m1, m2)


def test_lower_equals_upper_on_single_domain():
    stream = small_stream(n_domains=1)
    m1, r1, _ = run_stream(stream, small_config("lower"))
    m2, r2, _ = run_stream(stream, small_config("upper"))
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


def test_order_permutation_is_respected():
    stream = small_stream()
    _, report, _ = run_stream(stream, small_config("lower", domain_order=[2, 0, 1]))
    assert report.metadata["order"] == [2, 0, 1]
    assert [s.trained_domain for s in report.steps] == [2, 0, 1]
    assert [e["domain"] for e in report.steps[-1].per_domain] == [2, 0, 1]


def test_forgetting_matrix_shape_after_run():
    _, report, _ = run_stream(small_stream(), small_config("ma_mrc"))
    assert [len(row) for row in report.forgetting_matrix()] == [1, 2, 3]
    assert len(report.forgetting_deltas()) == 3


def test_memory_quotas_across_run():
    _, report, engine = run_stream(small_stream(), small_config("ma_mrc"))
    counts = engine.memory.domain_counts()
    assert counts == {0: 2, 1: 2, 2: 2}
    assert len(engine.memory) <= 6


def test_rerun_is_byte_identical(tmp_path):
    stream = small_stream()
    for name in ("a", "b"):
        run_stream(stream, small_config("ma_mrc"), out_dir=tmp_path / name)
    assert (tmp_path / "a" / "report.json").read_bytes() \
        == (tmp_path / "b" / "report.json").read_bytes()


def test_timings_live_in_sidecar_not_report(tmp_path):
    run_stream(small_stream(), small_config("lower"), out_dir=tmp_path)
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


def test_resume_reproduces_uninterrupted_run(tmp_path):
    stream = small_stream()

    full_dir = tmp_path / "full"
    run_stream(stream, small_config("ma_mrc"), out_dir=full_dir)

    crash_dir = tmp_path / "crash"

    class Crash(Exception):
        pass

    def crash_at_3(t, model, memory, step):
        if t == 3:
            raise Crash

    engine = ContinualEngine(stream, small_config("ma_mrc"))
    with pytest.raises(Crash):
        engine.run(out_dir=crash_dir, on_step=crash_at_3)

    resumed = ContinualEngine(stream, small_config("ma_mrc"))
    resumed.run(out_dir=crash_dir, resume=True)
    assert (crash_dir / "report.json").read_bytes() \
        == (full_dir / "report.json").read_bytes()


def test_resume_rejects_config_mismatch(tmp_path):
    stream = small_stream()
    run_stream(stream, small_config("lower"), out_dir=tmp_path)
    other = ContinualEngine(stream, small_config("lower", lr=1e-3))
    with pytest.raises(ValueError, match="resume config"):
        other.run(out_dir=tmp_path, resume=True)


def test_resume_unsupported_for_fisher_methods(tmp_path):
    stream = small_stream(n_domains=2)
    run_stream(stream, small_config("ewc"), out_dir=tmp_path)
    again = ContinualEngine(stream, small_config("ewc"))
    with pytest.raises(NotImplementedError, match="Fisher"):
        again.run(out_dir=tmp_path, resume=True)


def test_fisher_estimates_are_nonnegative_and_shaped():
    stream = small_stream(n_domains=2)
    _, _, engine = run_stream(stream, small_config("ewc", n_fisher=16))
    assert len(engine.fisher_states) == 2
    for st in engine.fisher_states:
        for k, f in st.fisher.items():
            assert f.shape == engine.init_model.params[k].data.shape
            assert (f >= 0.0).all()


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


def test_empty_memory_incremental_step_warns_and_finetunes(caplog):
    stream = small_stream(n_domains=2)
    cfg = small_config("ma_mrc", memory_size=0)
    with caplog.at_level("WARNING"):
        run_stream(stream, cfg)
    assert "empty memory" in caplog.text


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
    assert nodes == []


def test_evaluate_reports_per_domain_in_seen_order():
    stream = small_stream()
    engine = ContinualEngine(stream, small_config("lower"))
    model = BackboneModel(engine.model_cfg, ad.seeded_rng(0))
    per_domain, pooled = engine.evaluate(model, [1, 0])
    assert [e["domain"] for e in per_domain] == [1, 0]
    assert len(pooled) == 2 and len(pooled[0]) == 8
    for e in per_domain:
        assert 0.0 <= e["em"] <= 1.0 and 0.0 <= e["f1"] <= 1.0
