import json

import pytest
from hypothesis import given, settings, strategies as st

from contspan.metrics import (em_f1, f1_avg, f1_all, EvalReport, StepResult,
                              config_hash)


def test_em_f1_exact_match():
    assert em_f1([5, 9], [5, 9]) == (1, 1.0)


def test_em_f1_partial_overlap():
    em, f1 = em_f1(["a", "b", "c"], ["b", "c", "d"])
    assert em == 0
    assert f1 == pytest.approx(2 / 3, abs=1e-12)


def test_em_f1_disjoint_and_empty_pred():
    assert em_f1([1, 2], [3, 4]) == (0, 0.0)
    assert em_f1([], [3]) == (0, 0.0)


def test_em_f1_multiset_semantics():
    # repeated tokens only count up to their multiplicity in each side
    em, f1 = em_f1([7, 7, 7], [7])
    assert em == 0
    assert f1 == pytest.approx(2 * (1 / 3) * 1.0 / (1 / 3 + 1.0), abs=1e-12)


def test_em_f1_rejects_empty_gold():
    with pytest.raises(ValueError, match="non-empty"):
        em_f1([1], [])


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 20), min_size=1, max_size=10))
def test_em_f1_self_score_is_perfect(ids):
    assert em_f1(ids, ids) == (1, 1.0)


def test_f1_avg_published_table2_row():
    assert f1_avg([78.24, 68.66, 68.03, 58.63, 63.47]) \
        == pytest.approx(67.41, abs=0.005)


def test_f1_avg_published_table3_row():
    assert f1_avg([83.86, 85.16, 81.03, 92.36, 83.36, 65.30, 84.22, 88.82]) \
        == pytest.approx(83.01, abs=0.005)


def test_f1_avg_singleton_and_empty():
    assert f1_avg([0.42]) == 0.42
    with pytest.raises(ValueError):
        f1_avg([])


def test_f1_all_equal_sizes_equals_f1_avg():
    by_domain = [[1.0, 0.5], [0.0, 0.5]]
    assert f1_all(by_domain) == pytest.approx(f1_avg([0.75, 0.25]), abs=1e-12)


def test_f1_all_weighted_case():
    by_domain = [[1.0] * 100, [0.0] * 300]
    assert f1_all(by_domain) == pytest.approx(0.25, abs=1e-12)
    assert f1_avg([1.0, 0.0]) == pytest.approx(0.5, abs=1e-12)


def test_f1_all_order_invariant():
    a = f1_all([[0.2, 0.4], [0.9]])
    b = f1_all([[0.9], [0.4, 0.2]])
    assert a == pytest.approx(b, abs=1e-12)


def _report(n_steps=3):
    report = EvalReport(metadata={"method": "x", "seed": 0,
                                  "order": list(range(n_steps))})
    for t in range(1, n_steps + 1):
        per = [{"domain": d, "em": 0.5, "f1": 0.1 * (t + d)} for d in range(t)]
        f1s = [e["f1"] for e in per]
        report.steps.append(StepResult(step=t, trained_domain=t - 1,
                                       per_domain=per, f1_avg=f1_avg(f1s),
                                       f1_all=f1_avg(f1s)))
    return report


def test_forgetting_matrix_is_lower_triangular():
    m = _report(4).forgetting_matrix()
    assert [len(row) for row in m] == [1, 2, 3, 4]


def test_forgetting_deltas_single_step_empty():
    assert _report(1).forgetting_deltas() == []


def test_forgetting_deltas_intro_minus_final():
    r = _report(3)
    deltas = r.forgetting_deltas()
    # domain 0: intro at step 1 (f1 .1), final step 3 (f1 .3)
    assert deltas[0] == pytest.approx(0.1 - 0.3, abs=1e-12)
    assert deltas[-1] == pytest.approx(0.0, abs=1e-12)


def test_forgetting_delta_published_example():
    r = EvalReport(metadata={"order": [0, 1]})
    for t, f1_d1 in ((1, 80.13), (2, 70.11)):
        per = [{"domain": 0, "em": 0, "f1": f1_d1}]
        if t == 2:
            per.append({"domain": 1, "em": 0, "f1": 50.0})
        r.steps.append(StepResult(step=t, trained_domain=t - 1, per_domain=per,
                                  f1_avg=0.0, f1_all=0.0))
    assert r.forgetting_deltas()[0] == pytest.approx(10.02, abs=1e-9)


def test_report_roundtrip_and_byte_stability(tmp_path):
    r = _report(3)
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    r.save(p1)
    loaded = EvalReport.load(p1)
    assert loaded.metadata == r.metadata
    assert [s.per_domain for s in loaded.steps] == [s.per_domain for s in r.steps]
    loaded.save(p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_report_rejects_unknown_schema():
    with pytest.raises(ValueError, match="schema"):
        EvalReport.from_dict({"schema_version": 99, "metadata": {}, "steps": []}, "r.json")


def test_csv_has_one_row_per_domain_entry(tmp_path):
    r = _report(3)
    path = tmp_path / "curve.csv"
    r.write_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "step,domain,f1,em,f1_avg,f1_all"
    assert len(lines) - 1 == 1 + 2 + 3


def test_format_table_mentions_method_and_steps():
    text = _report(2).format_table()
    assert "method=x" in text and "F1_avg" in text


def test_config_hash_stable_and_sensitive():
    a = {"lr": 0.1, "method": "x"}
    assert config_hash(a) == config_hash({"method": "x", "lr": 0.1})
    assert config_hash(a) != config_hash({"method": "x", "lr": 0.2})
    assert len(config_hash(a)) == 16
