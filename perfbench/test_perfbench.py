"""Fast tests of the benchmark itself: every workload at a tiny size through
the same code, and every output check shown to fail on corrupted output.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import struct
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import reference as ref  # noqa: E402
import run as bench  # noqa: E402

TINY = bench.workloads("tiny")
SEED = 3


@pytest.fixture(scope="module")
def measured(tmp_path_factory):
    """Each tiny workload measured once untraced; its work dir is kept."""
    out = tmp_path_factory.mktemp("bench")
    return out, {name: bench.measure(wl, SEED, 0, False, out) for name, wl in TINY.items()}


def copy_work(measured, name, tmp_path) -> tuple[bench.Workload, Path, dict]:
    """A private copy of a workload's outputs, to corrupt."""
    out, _ = measured
    work = tmp_path / name
    shutil.copytree(out / name, work)
    return TINY[name], work, json.loads((work / "report.json").read_text())


def check(wl, work, report) -> list[ref.Failure]:
    return bench.Checker(wl, work).full(report)


@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_workload_runs_clean(measured, name):
    result = measured[1][name]
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == 3
    e2e = {m["name"] for m in json.loads((bench.ROOT / "BENCHMARK.json").read_text())
           ["end_to_end"]}
    assert set(result["metrics"]) == e2e
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_traced_run_reports_every_layer_metric(tmp_path, name):
    result = bench.measure(TINY[name], SEED, 0, True, tmp_path)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == 9  # plain, traced and allocation rounds
    m = {k: v["value"] for k, v in result["metrics"].items()}
    names = [x["name"] for x in json.loads((bench.ROOT / "BENCHMARK.json").read_text())
             ["per_layer"]]
    assert not set(names) - set(m)
    assert m["backbone.forward.rows"] > 0 and 0 < m["backbone.forward.pad_useful"] <= 1
    assert m["data.generate.s"] > 0 and m["data.load.s"] > 0
    assert m["engine.evaluate.peak_alloc_mb"] > 0
    if name == "eval_cdaq":
        # forward only: no tape walk, no optimizer
        assert m["autodiff.adam.steps"] == 0 and m["autodiff.backward.self_s"] == 0
        assert m["engine.evaluate.rows"] == 3 * 32 and m["backbone.load.s"] > 0
    else:
        assert m["autodiff.adam.steps"] > 0 and m["autodiff.nodes"] > 0
        assert m["autodiff.op.matmul.bwd_s"] > 0 and m["engine.fit.peak_alloc_mb"] > 0
    if name == "full_cdac":
        for k in ("memory.forward_rows", "memory.evicted", "distill.teacher_rows",
                  "adversarial.probe.steps", "adversarial.game.s", "memory.save.s"):
            assert m[k] > 0, k
    else:
        for k in ("memory.forward_rows", "distill.teacher_rows", "adversarial.probe.steps"):
            assert m[k] == 0, k


def test_checks_pass_on_clean_outputs(measured, tmp_path):
    for name in TINY:
        assert check(*copy_work(measured, name, tmp_path)) == []


@pytest.mark.parametrize("name", sorted(TINY))
def test_report_check_fails_on_inconsistent_report(measured, tmp_path, name):
    wl, work, report = copy_work(measured, name, tmp_path)
    report["steps"][-1]["per_domain"][0]["f1"] += 0.01
    assert check(wl, work, report)


@pytest.mark.parametrize("name", ["full_cdac", "eval_cdaq"])
def test_f1_check_fails_on_consistently_corrupted_report(measured, tmp_path, name):
    """A report whose aggregates agree with a wrong domain F1 is still caught
    by reproducing the F1 from the checkpoint."""
    wl, work, report = copy_work(measured, name, tmp_path)
    final = report["steps"][-1]
    final["per_domain"][0]["f1"] = min(1.0, final["per_domain"][0]["f1"] + 0.01)
    f1s = [e["f1"] for e in final["per_domain"]]
    sizes = [len(t) for t in ref.read_stream_split(work / "stream", "test")]
    final["f1_avg"] = sum(f1s) / len(f1s)
    final["f1_all"] = sum(f * n for f, n in zip(f1s, sizes)) / sum(sizes)
    report["forgetting_matrix"][-1] = f1s
    fails = check(wl, work, report)
    assert fails and all("reported F1" in f.what for f in fails)


def test_report_check_fails_when_matrix_is_not_lower_triangular(measured, tmp_path):
    wl, work, report = copy_work(measured, "joint_cdac", tmp_path)
    report["forgetting_matrix"][0].append(0.5)
    assert any("lower-triangular" in f.what for f in check(wl, work, report))


def negate_param(path: Path, name: str):
    """Flip the sign of one parameter in place, through the byte layout."""
    blob = bytearray(path.read_bytes())
    hlen = struct.unpack_from("<IQ", blob, len(ref.MAGIC))[1]
    pos = len(ref.MAGIC) + 12
    header = json.loads(blob[pos:pos + hlen])
    pos += hlen
    for entry in header["params"]:
        n = int(np.prod(entry["shape"])) if entry["shape"] else 1
        if entry["name"] == name:
            arr = np.frombuffer(bytes(blob[pos:pos + 8 * n]), "<f8")
            blob[pos:pos + 8 * n] = (-arr).tobytes()
            path.write_bytes(bytes(blob))
            return
        pos += 8 * n
    raise KeyError(name)


@pytest.mark.parametrize("name", ["full_cdac", "eval_cdaq"])
def test_f1_check_fails_on_perturbed_checkpoint(measured, tmp_path, name):
    wl, work, report = copy_work(measured, name, tmp_path)
    negate_param(work / "ckpt" / "step3.ckpt", "w_start")
    assert any("reported F1" in f.what for f in check(wl, work, report))


def test_init_check_fails_when_the_model_did_not_learn(measured, tmp_path):
    wl, work, _ = copy_work(measured, "full_cdac", tmp_path)
    tests = ref.read_stream_split(work / "stream", "test")
    init = work / "ckpt" / "init.ckpt"
    assert len(ref.check_beats_init(init, init, tests, lambda d: 3, 8)) == 3


def test_memory_check_fails_over_capacity(measured, tmp_path):
    wl, work, report = copy_work(measured, "full_cdac", tmp_path)
    path = work / "ckpt" / "step3.memory.jsonl"
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines + [lines[-1]]) + "\n")
    assert any("holds 7 items" in f.what for f in check(wl, work, report))


def test_memory_check_fails_on_foreign_item(measured, tmp_path):
    wl, work, report = copy_work(measured, "full_cdac", tmp_path)
    path = work / "ckpt" / "step2.memory.jsonl"
    lines = path.read_text().splitlines()
    item = json.loads(lines[-1])
    item["answer_end"] += 1
    item["_memory"]["teacher_start_logits"].pop()
    path.write_text("\n".join(lines[:-1] + [json.dumps(item)]) + "\n")
    assert any("not a training sample" in f.what for f in check(wl, work, report))


def test_repeat_check_fails_on_changed_report(measured, tmp_path):
    wl, work, _ = copy_work(measured, "joint_cdac", tmp_path)
    digests = bench.Digests(tmp_path / "digests.json")
    digests.check("joint_cdac/3", "0" * 64)
    checker = bench.Checker(wl, work)
    clean = bench.Round(None, set())
    rnd = bench.run_round(wl, work, checker, digests, "joint_cdac/3", first=clean)
    assert rnd.proc.code == 0 and rnd.failed_ops == {0, 1, 2}


def test_later_round_shares_the_first_rounds_verdict(measured, tmp_path):
    """A later round repeating the first's report bytes fails the same
    operations, so the failed share does not depend on the round count."""
    wl, work, _ = copy_work(measured, "joint_cdac", tmp_path)
    checker = bench.Checker(wl, work)
    digests = bench.Digests(tmp_path / "digests.json")
    first = bench.run_round(wl, work, checker, digests, "k")
    assert first.failed_ops == set()
    again = bench.run_round(wl, work, checker, digests, "k", first=bench.Round(None, {1}))
    assert again.failed_ops == {1}

