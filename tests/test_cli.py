import json
import math
import os
import re
import shutil
import struct
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from contspan import autodiff as ad
from contspan import cli
from contspan.autodiff import seeded_rng
from contspan.backbone import BackboneModel, ModelConfig, param_spec, training_bytes
from contspan.cli import main
from contspan.data import load_stream
from contspan.engine import METHODS, NORM_STRATEGIES, UNCERTAINTY_KINDS
from contspan.metrics import EvalReport, StepResult


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    out = tmp_path_factory.mktemp("ds") / "stream"
    rc = main(["gen", "--setting", "cdaq", "--domains", "2",
               "--train-size", "16", "--test-size", "8",
               "--vocab-size", "100", "--l-max", "32",
               "--seed", "3", "--out", str(out)])
    assert rc == 0
    return out


def run_args(dataset, report, **extra):
    args = ["run", "--data", str(dataset), "--method", "lower",
            "--epochs", "1", "--batch-size", "8", "--seed", "0",
            "--report", str(report)]
    for k, v in extra.items():
        args += [f"--{k.replace('_', '-')}", str(v)]
    return args


GEN_FIELDS = {"--domains": "n_domains", "--train-size": "train_size",
              "--test-size": "test_size", "--seed": "seed"}


@pytest.mark.parametrize("flag", sorted(GEN_FIELDS))
def test_gen_rejects_sizes_below_one(tmp_path, capsys, flag):
    """gen's values meet GenConfig's field check, whose error names the field."""
    least = 0 if flag == "--seed" else 1
    out = tmp_path / "stream"
    rc = main(["gen", "--setting", "cdac", flag, str(least - 1), "--out", str(out)])
    assert rc == 1
    (line,) = error_lines(capsys.readouterr().err)
    assert line == f"error: {GEN_FIELDS[flag]} must be >= {least}, got {least - 1}"
    assert not out.exists()


def test_gen_l_max_too_small_exits_1(tmp_path, capsys):
    rc = main(["gen", "--setting", "cdac", "--domains", "1", "--train-size", "4",
               "--test-size", "4", "--l-max", "8", "--out", str(tmp_path / "s")])
    assert rc == 1
    assert "error: could not generate a sample that fits l_max" in capsys.readouterr().err


def test_gen_is_deterministic(tmp_path, dataset):
    other = tmp_path / "again"
    main(["gen", "--setting", "cdaq", "--domains", "2",
          "--train-size", "16", "--test-size", "8",
          "--vocab-size", "100", "--l-max", "32",
          "--seed", "3", "--out", str(other)])
    for f in sorted(dataset.iterdir()):
        assert f.read_bytes() == (other / f.name).read_bytes()


def test_gen_rejects_bad_setting(capsys):
    with pytest.raises(SystemExit):
        main(["gen", "--setting", "squad", "--out", "/tmp/x"])


def test_run_writes_report_and_table(dataset, tmp_path, capsys):
    report_path = tmp_path / "r.json"
    assert main(run_args(dataset, report_path)) == 0
    report = EvalReport.load(report_path)
    assert len(report.steps) == 2
    assert report.metadata["method"] == "lower"
    out = capsys.readouterr().out
    assert "F1_avg" in out and "report written" in out


def test_run_and_eval_write_into_missing_directories(dataset, tmp_path):
    """A run whose --report lay in a missing directory once trained every
    step and then exited 1 on writing the report's temp file."""
    report_path, ckpt_dir = tmp_path / "new" / "r.json", tmp_path / "a" / "ck"
    assert main(run_args(dataset, report_path, out_dir=ckpt_dir)) == 0
    assert len(EvalReport.load(report_path).steps) == 2
    assert (ckpt_dir / "report.json").read_bytes() == report_path.read_bytes()
    eval_path = tmp_path / "e" / "eval.json"
    assert main(["eval", "--checkpoint", str(ckpt_dir / "step2.ckpt"), "--data", str(dataset),
                 "--report", str(eval_path)]) == 0
    assert len(EvalReport.load(eval_path).steps) == 1


def test_run_order_flag_recorded(dataset, tmp_path):
    report_path = tmp_path / "r.json"
    assert main(run_args(dataset, report_path, order="1,0")) == 0
    report = EvalReport.load(report_path)
    assert report.metadata["order"] == [1, 0]


def test_run_manifest_with_flag_override(dataset, tmp_path):
    manifest = tmp_path / "m.json"
    manifest.write_text(json.dumps({"method": "ma_mrc", "epochs": 1,
                                    "batch_size": 8, "memory_size": 4,
                                    "data": str(dataset)}))
    report_path = tmp_path / "r.json"
    rc = main(["run", "--config", str(manifest), "--method", "lower",
               "--report", str(report_path)])
    assert rc == 0
    assert EvalReport.load(report_path).metadata["method"] == "lower"


def test_run_data_flag_overrides_the_manifest_data_key(dataset, tmp_path):
    manifest = tmp_path / "m.json"
    manifest.write_text(json.dumps({"data": str(tmp_path / "nowhere"), "epochs": 1}))
    assert main(run_args(dataset, tmp_path / "r.json", config=manifest)) == 0


def test_run_rejects_unknown_manifest_key(dataset, tmp_path, capsys):
    manifest = tmp_path / "m.json"
    manifest.write_text(json.dumps({"data": str(dataset), "warmup": 3}))
    rc = main(["run", "--config", str(manifest), "--report", str(tmp_path / "r.json")])
    assert rc == 2
    assert "unknown manifest keys" in capsys.readouterr().err


def error_lines(err: str) -> list[str]:
    assert "Traceback" not in err
    return [line for line in err.splitlines() if line.startswith("error:")]


FLAG_TYPES = {"memory_size": int, "batch_size": int, "epochs": int, "lr": float}


@pytest.mark.parametrize("flag, value", [
    ("memory_size", -1), ("batch_size", 0), ("epochs", 0), ("lr", -5.0), ("hidden", 0),
    ("n_layers", 0), ("n_heads", 0),
    # JSON values that once ended in a traceback, trained a non-finite model,
    # or ran and recorded a string or a bool
    ("epochs", "3"), ("domain_order", [0, "1"]), ("domain_order", [0, 1.0]),
    ("memory_size", 2.5), ("seed", 1.5), ("hidden", 16.0), ("lr", "0.1"),
    ("adv_weight", None), ("adv_weight", float("nan")), ("kl_weight", float("inf")),
    ("kl_weight", None), ("kl_weight", "0"), ("epochs", True), ("memory_size", True),
    ("seed", -1), pytest.param("kl_weight", 10 ** 400, id="kl_weight-10**400")])
def test_run_rejects_out_of_range_setting(dataset, tmp_path, capsys, flag, value):
    # a number of its flag's type goes as that flag, any other value as a
    # manifest key
    as_flag = type(value) is FLAG_TYPES.get(flag)
    manifest = tmp_path / "m.json"
    base = {"method": "ma_mrc", "epochs": 1, "batch_size": 8, "seed": 0}
    manifest.write_text(json.dumps(base if as_flag else {**base, flag: value}))
    args = ["run", "--data", str(dataset), "--config", str(manifest),
            "--report", str(tmp_path / "r.json"), "--out-dir", str(tmp_path / "ck")]
    rc = main(args + ([f"--{flag.replace('_', '-')}", str(value)] if as_flag else []))
    assert rc == 1
    expected = "lr must be positive and finite" if flag == "lr" \
        else f"{flag} must be >=" if type(value) is int and value < 1 else f"{flag} must be"
    (line,) = error_lines(capsys.readouterr().err)
    assert line.startswith(f"error: {expected}")
    assert not (tmp_path / "r.json").exists() and not (tmp_path / "ck").exists()


def test_run_rejects_an_order_that_is_not_integers(dataset, tmp_path, capsys):
    with pytest.raises(SystemExit) as exit_:
        main(run_args(dataset, tmp_path / "r.json", order="0,x"))
    assert exit_.value.code == 2
    assert "argument --order: invalid domain_order value: '0,x'" in capsys.readouterr().err
    assert not (tmp_path / "r.json").exists()


VALID_MANIFEST = {"method": "ma_mrc", "memory_size": 4, "norm_strategy": "norm2",
                  "uncertainty_kind": "prob", "epochs": 1, "batch_size": 8, "lr": 3e-3,
                  "domain_order": [1, 0], "seed": 0, "adv_weight": 1.0, "kl_weight": 0.5,
                  "derpp_beta": 0.5, "hidden": 16, "n_layers": 1, "n_heads": 2}
CHOICES = {"method": METHODS, "norm_strategy": NORM_STRATEGIES,
           "uncertainty_kind": UNCERTAINTY_KINDS}
DROP = object()


@st.composite
def mutations(draw):
    """One manifest key (a config field, or data) and what a mutation makes
    of it: DROP, or a value of another JSON type, a negative or non-finite
    number, or a list. Only mutations that leave the manifest invalid."""
    key = draw(st.sampled_from(["data", *VALID_MANIFEST]))
    kinds = [st.just(DROP), st.text(max_size=8), st.booleans(), st.none(),
             st.lists(st.one_of(st.integers(-1, 2), st.floats(0, 2), st.text(max_size=1)),
                      max_size=3),
             st.integers(max_value=-1), st.floats(max_value=-1e-9, allow_infinity=False),
             st.sampled_from([math.nan, math.inf, -math.inf])]
    if type(VALID_MANIFEST.get(key)) is int:
        kinds.append(st.floats(allow_nan=False, allow_infinity=False))
    value = draw(st.one_of(kinds))
    if key == "data":  # a path string is the stream loader's to judge
        assume(not isinstance(value, str))
    else:  # a dropped field takes its valid default
        assume(value is not DROP and value not in CHOICES.get(key, ()))
    if key == "domain_order":  # None, or a permutation of int ids, is valid
        assume(not (value is None or isinstance(value, list)
                    and sorted(map(repr, value)) == ["0", "1"]))
    return key, value


@settings(max_examples=120, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(mutations())
def test_run_rejects_every_mutated_manifest_before_writing(dataset, capsys, mutation):
    key, value = mutation
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        manifest = {**VALID_MANIFEST, "data": str(dataset)}
        if value is DROP:
            del manifest[key]
        else:
            manifest[key] = value
        (tmp / "m.json").write_text(json.dumps(manifest))
        capsys.readouterr()
        rc = main(["run", "--config", str(tmp / "m.json"), "--report", str(tmp / "r.json"),
                   "--out-dir", str(tmp / "ck")])
        (line,) = error_lines(capsys.readouterr().err)
        if key == "data":
            assert rc == 2 and line.startswith("error: no data directory")
        else:
            assert rc == 1 and key in line
        assert sorted(tmp.iterdir()) == [tmp / "m.json"]


@pytest.mark.parametrize("field, value, allowed", [
    ("uncertainty_kind", "entopy", "('entropy', 'prob', 'random')"),
    ("norm_strategy", "norm3", "('norm1', 'norm2')"),
])
def test_run_rejects_unknown_rule_before_training(dataset, tmp_path, capsys, field,
                                                  value, allowed):
    manifest = tmp_path / "m.json"
    manifest.write_text(json.dumps({"data": str(dataset), "method": "ma_mrc",
                                    "epochs": 1, field: value}))
    rc = main(["run", "--config", str(manifest), "--memory-size", "0",
               "--report", str(tmp_path / "r.json"), "--out-dir", str(tmp_path / "ck")])
    assert rc == 1
    assert f"unknown {field} {value!r}; choose from {allowed}" in capsys.readouterr().err
    assert not (tmp_path / "r.json").exists() and not (tmp_path / "ck").exists()


def test_run_rejects_a_manifest_that_is_not_an_object(dataset, tmp_path, capsys):
    manifest = tmp_path / "m.json"
    manifest.write_text("[1, 2]")
    rc = main(["run", "--config", str(manifest), "--data", str(dataset),
               "--report", str(tmp_path / "r.json")])
    assert rc == 1
    assert f"error: {manifest}: the manifest is not a JSON object" in capsys.readouterr().err


@pytest.mark.parametrize("key", ["setting", "l_max", "domains"])
def test_run_stream_manifest_missing_key_exits_1(dataset, tmp_path, capsys, key):
    bad = tmp_path / "stream"
    shutil.copytree(dataset, bad)
    path = bad / "manifest.json"
    manifest = json.loads(path.read_text())
    del manifest[key]
    path.write_text(json.dumps(manifest))
    assert main(run_args(bad, tmp_path / "r.json")) == 1
    assert f"error: {path}: missing field {key!r}" in capsys.readouterr().err


def test_run_stream_vocab_line_without_tab_exits_1(dataset, tmp_path, capsys):
    bad = tmp_path / "stream"
    shutil.copytree(dataset, bad)
    path = bad / "vocab.txt"
    lines = path.read_text().splitlines(keepends=True)
    lines[3] = lines[3].replace("\t", " ")
    path.write_text("".join(lines))
    assert main(run_args(bad, tmp_path / "r.json")) == 1
    assert f"error: {path}:4: expected a token, a tab and an integer id" \
        in capsys.readouterr().err


def test_run_stream_record_missing_field_exits_1(dataset, tmp_path, capsys):
    bad = tmp_path / "stream"
    shutil.copytree(dataset, bad)
    path = bad / "cdaq_d1.train.jsonl"
    lines = path.read_text().splitlines(keepends=True)
    rec = json.loads(lines[2])
    del rec["answer_start"]
    lines[2] = json.dumps(rec) + "\n"
    path.write_text("".join(lines))
    assert main(run_args(bad, tmp_path / "r.json")) == 1
    assert f"{path}:3: missing field 'answer_start'" in capsys.readouterr().err


TEXT_RECORD = {"id": "t1", "domain": 1, "question": "who sleeps",
               "passage": "the old keeper sleeps", "answer_text": "keeper",
               "answer_char_start": 8}


def mutate_stream(dataset, out, name, field, value, lineno=3):
    """Copy the stream to out and set field to value in its file name: the
    manifest, or line lineno of a JSONL file. value DROP deletes the field;
    field None replaces the whole line with value, and a field only a text
    record has turns the line into TEXT_RECORD first. Returns the path."""
    shutil.copytree(dataset, out)
    path = out / name
    if name == "manifest.json":
        rec = json.loads(path.read_text())
    else:
        lines = path.read_text().splitlines(keepends=True)
        rec = json.loads(lines[lineno - 1])
        rec = dict(TEXT_RECORD) if field in TEXT_RECORD and field not in rec else rec
    if value is DROP:
        del rec[field]
    elif field is not None:
        rec[field] = value
    text = json.dumps(rec if field is not None else value)
    if name != "manifest.json":
        lines[lineno - 1] = text + "\n"
        text = "".join(lines)
    path.write_text(text)
    return path


@pytest.mark.parametrize("name, field, value, expected", [
    ("cdaq_d1.train.jsonl", "answer_start", None, "answer_start must be an int, got None"),
    ("cdaq_d1.train.jsonl", "passage_ids", None,
     "passage_ids must be a list of ints, got None"),
    ("cdaq_d1.train.jsonl", "answer_start", 1.7, "answer_start must be an int, got 1.7"),
    ("cdaq_d1.train.jsonl", "passage_ids", [1.5, 2],
     "passage_ids must be a list of ints, got [1.5, 2]"),
    ("cdaq_d1.train.jsonl", "domain", "x", "domain must be an int, got 'x'"),
    ("cdaq_d1.train.jsonl", "question_ids", "abc",
     "question_ids must be a list of ints, got 'abc'"),
    ("cdaq_d1.train.jsonl", "id", 1.5, "id must be a str or an int, got 1.5"),
    ("cdaq_d1.train.jsonl", "question", 5, "question must be a str, got 5"),
    ("cdaq_d1.train.jsonl", None, [1, 2], "not a JSON object"),
    ("manifest.json", "domains", 5, "domains must be a non-empty list of strs, got 5"),
    ("manifest.json", "domains", [], "domains must be a non-empty list of strs, got []"),
    ("cdaq_d1.train.jsonl", "passage_ids", [5, 100],
     "token id 100 is outside the vocab's ids 0..99"),
    ("cdaq_d1.train.jsonl", "question_ids", [-1], "token id -1 is outside the vocab's ids 0..99"),
    ("manifest.json", "l_max", "64", "l_max must be an int, got '64'"),
    ("manifest.json", "l_max", None, "l_max must be an int, got None"),
])
def test_run_stream_value_of_the_wrong_type_exits_1(dataset, tmp_path, capsys, name, field,
                                                    value, expected):
    """Each of these once ended in a traceback, ran on values cut to ints,
    or failed with a message that named no file."""
    path = mutate_stream(dataset, tmp_path / "stream", name, field, value)
    assert main(run_args(tmp_path / "stream", tmp_path / "r.json",
                         out_dir=tmp_path / "ck")) == 1
    where = path if name == "manifest.json" else f"{path}:3"
    (line,) = error_lines(capsys.readouterr().err)
    assert line == f"error: {where}: {expected}"
    assert not (tmp_path / "r.json").exists() and not (tmp_path / "ck").exists()


@pytest.mark.parametrize("name, old, new, expected", [
    ("vocab.txt", "w99\t99", "w99\t100", "the ids must be 0..99, each once"),
    ("vocab.txt", "w99\t99", "w99\t3", "the ids must be 0..99, each once"),
    ("manifest.json", '"l_max"', "l_max", "malformed JSON: Expecting property name"),
])
def test_run_stream_file_with_bad_ids_or_json_exits_1(dataset, tmp_path, capsys, name, old,
                                                      new, expected):
    """A vocab whose ids are not 0..n-1 once gave two tokens one id; a
    malformed manifest once failed with a message that named no file."""
    shutil.copytree(dataset, tmp_path / "stream")
    path = tmp_path / "stream" / name
    path.write_text(path.read_text().replace(old, new, 1))
    assert main(run_args(tmp_path / "stream", tmp_path / "r.json",
                         out_dir=tmp_path / "ck")) == 1
    (line,) = error_lines(capsys.readouterr().err)
    assert line.startswith(f"error: {path}: {expected}")
    assert not (tmp_path / "r.json").exists() and not (tmp_path / "ck").exists()


@pytest.fixture(scope="module")
def stream3(tmp_path_factory):
    out = tmp_path_factory.mktemp("ds3") / "stream"
    assert main(["gen", "--setting", "cdac", "--domains", "3", "--train-size", "16",
                 "--test-size", "8", "--seed", "0", "--out", str(out)]) == 0
    return out


def relabel(stream, out, domains: dict[str, int]):
    """Copy the stream to out, setting the domain of every record of each
    named domain's files to the given value."""
    shutil.copytree(stream, out)
    for name, domain in domains.items():
        for split in ("train", "test"):
            path = out / f"{name}.{split}.jsonl"
            path.write_text("".join(json.dumps({**json.loads(line), "domain": domain}) + "\n"
                                    for line in path.read_text().splitlines()))


# the relabelled domains, and the first file and record domain a load meets
MISLABELLED = {"all_zero": ({"cdac_d1": 0, "cdac_d2": 0}, "cdac_d1", 0, 1),
               "d0_five": ({"cdac_d0": 5}, "cdac_d0", 5, 0)}


@pytest.mark.parametrize("case", sorted(MISLABELLED))
@pytest.mark.parametrize("command", ["eval", *METHODS])
def test_stream_record_of_another_domain_exits_1_at_load(stream3, tmp_path, capsys, case,
                                                         command):
    """A record's domain must be its file's manifest position. Labelled all
    0, a stream once ran der with memory quotas of 1, 1 and 4 items for
    2, 2 and 2; with d0 labelled 5, a run once committed step 1 and then
    failed with a message that named no file."""
    domains, name, got, position = MISLABELLED[case]
    data = tmp_path / "stream"
    relabel(stream3, data, domains)
    args = (["eval", "--checkpoint", str(tmp_path / "none.ckpt")] if command == "eval"
            else ["run", "--method", command, "--memory-size", "6", "--epochs", "1",
                  "--out-dir", str(tmp_path / "ck")])
    assert main(args + ["--data", str(data), "--report", str(tmp_path / "r.json")]) == 1
    (line,) = error_lines(capsys.readouterr().err)
    assert line == (f"error: {data / name}.train.jsonl:1: domain {got} is not {position}, "
                    f"the file's position in the stream manifest")
    assert sorted(tmp_path.iterdir()) == [data]


@pytest.mark.parametrize("saved,resumed", [(3, 2), (2, 3)])
def test_resume_with_a_stream_of_another_length_exits_1(stream3, tmp_path, capsys, saved,
                                                         resumed):
    """The config hash records nothing about the stream, and resume once
    compared only it: a finished 3-domain run resumed with the stream's first
    two domains ended in an IndexError traceback, and a 2-domain run resumed
    with all three exited 0 after training domain 2 under a report whose
    order was [0, 1]. Now the saved metadata must be the run's, and nothing
    is written."""
    two = tmp_path / "two"
    shutil.copytree(stream3, two)
    manifest = json.loads((two / "manifest.json").read_text())
    (two / "manifest.json").write_text(json.dumps({**manifest,
                                                   "domains": manifest["domains"][:2]}))
    data = {3: stream3, 2: two}
    ckpt_dir = tmp_path / "ck"
    args = ["run", "--method", "lower", "--epochs", "1", "--out-dir", str(ckpt_dir)]
    assert main(args + ["--data", str(data[saved]), "--report", str(tmp_path / "r.json")]) == 0
    files = {path.name: path.read_bytes() for path in ckpt_dir.iterdir()}
    capsys.readouterr()
    assert main(args + ["--data", str(data[resumed]), "--report", str(tmp_path / "again.json"),
                        "--resume"]) == 1
    (line,) = error_lines(capsys.readouterr().err)
    assert line == (f"error: {ckpt_dir / 'report.partial.json'}: resume config does not "
                    f"match the saved run")
    assert {path.name: path.read_bytes() for path in ckpt_dir.iterdir()} == files
    assert not (tmp_path / "again.json").exists()


def test_run_config_that_is_not_json_exits_1(dataset, tmp_path, capsys):
    manifest = tmp_path / "m.json"
    manifest.write_text("{'method': 'lower'}")
    rc = main(["run", "--config", str(manifest), "--data", str(dataset),
               "--report", str(tmp_path / "r.json"), "--out-dir", str(tmp_path / "ck")])
    assert rc == 1
    (line,) = error_lines(capsys.readouterr().err)
    assert line.startswith(f"error: {manifest}: malformed JSON: Expecting property name")
    assert not (tmp_path / "r.json").exists() and not (tmp_path / "ck").exists()


def test_run_stream_with_int_ids_loads_them_as_strings(dataset, tmp_path):
    mutate_stream(dataset, tmp_path / "stream", "cdaq_d1.train.jsonl", "id", 7)
    assert load_stream(tmp_path / "stream").domains[1].train[2].id == "7"
    assert main(run_args(tmp_path / "stream", tmp_path / "r.json")) == 0


RECORD_KINDS = {"id": "str | int", "domain": "int", "question_ids": "list[int]",
                "passage_ids": "list[int]", "answer_start": "int", "answer_end": "int"}


@st.composite
def record_mutations(draw):
    """One field of one token record in the dataset's stream files and what a
    mutation makes of it: DROP, or a JSON value not of the field's kind."""
    name = draw(st.sampled_from([f"cdaq_d{d}.{split}.jsonl" for d in (0, 1)
                                 for split in ("train", "test")]))
    lineno = draw(st.integers(1, 16 if "train" in name else 8))
    field = draw(st.sampled_from(sorted(RECORD_KINDS)))
    value = draw(st.one_of(
        st.just(DROP), st.text(max_size=4), st.booleans(), st.none(),
        st.integers(-3, 3), st.floats(allow_nan=False, allow_infinity=False),
        st.lists(st.one_of(st.integers(0, 9), st.floats(0, 9), st.text(max_size=1),
                           st.none()), max_size=3),
        st.dictionaries(st.text(max_size=2), st.integers(), max_size=2)))
    kind = RECORD_KINDS[field]
    if kind == "int":
        assume(type(value) is not int)
    elif kind == "str | int":
        assume(type(value) not in (str, int))
    else:
        assume(not (type(value) is list and all(type(i) is int for i in value)))
    return name, lineno, field, value


@settings(max_examples=120, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(record_mutations())
def test_run_rejects_every_mutated_stream_record_before_writing(dataset, capsys, mutation):
    name, lineno, field, value = mutation
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        path = mutate_stream(dataset, tmp / "stream", name, field, value, lineno)
        capsys.readouterr()
        rc = main(run_args(tmp / "stream", tmp / "r.json", out_dir=tmp / "ck"))
        (line,) = error_lines(capsys.readouterr().err)
        assert rc == 1
        assert line.startswith(f"error: {path}:{lineno}: ") and field in line
        assert sorted(tmp.iterdir()) == [tmp / "stream"]


def test_run_requires_data(tmp_path, capsys):
    rc = main(["run", "--method", "lower", "--report", str(tmp_path / "r.json")])
    assert rc == 2
    assert "no data directory" in capsys.readouterr().err


def test_run_missing_dataset_errors_cleanly(tmp_path, capsys):
    rc = main(run_args(tmp_path / "nope", tmp_path / "r.json"))
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_run_data_that_is_a_file_exits_1(dataset, tmp_path, capsys):
    rc = main(run_args(dataset / "manifest.json", tmp_path / "r.json"))
    assert rc == 1
    (line,) = error_lines(capsys.readouterr().err)
    assert "manifest.json" in line


def test_resume_without_a_committed_checkpoint_exits_1(dataset, tmp_path, capsys):
    ckpt_dir = tmp_path / "ckpts"
    args = run_args(dataset, tmp_path / "r.json", out_dir=ckpt_dir, method="ma_mrc",
                    memory_size=4)
    assert main(args) == 0
    # report.partial.json commits both steps; resume replays step 1's memory
    # from step1.ckpt
    (ckpt_dir / "step1.ckpt").unlink()
    assert main(args + ["--resume"]) == 1
    assert "step1.ckpt" in capsys.readouterr().err


def test_resume_from_a_checkpoint_with_trailing_bytes_exits_1(dataset, tmp_path, capsys):
    ckpt_dir = tmp_path / "ckpts"
    args = run_args(dataset, tmp_path / "r.json", out_dir=ckpt_dir)
    assert main(args) == 0
    with open(ckpt_dir / "step2.ckpt", "ab") as f:
        f.write(b"\n")
    capsys.readouterr()
    assert main(args + ["--resume"]) == 1
    (line,) = error_lines(capsys.readouterr().err)
    assert line == f"error: malformed checkpoint: {ckpt_dir / 'step2.ckpt'} (1 trailing bytes)"


def test_resume_without_an_out_dir_exits_2(dataset, tmp_path, capsys):
    """--resume has nothing to resume from without --out-dir: an error, not a
    silent run from scratch."""
    rc = main(run_args(dataset, tmp_path / "r.json") + ["--resume"])
    (line,) = error_lines(capsys.readouterr().err)
    assert rc == 2 and "--out-dir" in line
    assert list(tmp_path.iterdir()) == []


def test_eval_checkpoint_roundtrip(dataset, tmp_path, capsys):
    ckpt_dir = tmp_path / "ckpts"
    assert main(run_args(dataset, tmp_path / "r.json", out_dir=ckpt_dir)) == 0
    report_path = tmp_path / "eval.json"
    rc = main(["eval", "--checkpoint", str(ckpt_dir / "step2.ckpt"),
               "--data", str(dataset), "--report", str(report_path)])
    assert rc == 0
    report = EvalReport.load(report_path)
    assert len(report.steps[0].per_domain) == 2
    assert "F1_avg=" in capsys.readouterr().out
    # the evaluation's own settings, not a training config it never used
    assert report.metadata == {
        "checkpoint": str(ckpt_dir / "step2.ckpt"), "max_answer_len": 8,
        "method": "eval", "order": [0, 1], "domains": ["cdaq_d0", "cdaq_d1"],
        "setting": "cdaq"}


def test_eval_checkpoint_with_float_shapes_exits_1(dataset, tmp_path, capsys):
    ckpt_dir = tmp_path / "ckpts"
    assert main(run_args(dataset, tmp_path / "r.json", out_dir=ckpt_dir)) == 0
    path = ckpt_dir / "step2.ckpt"
    raw = path.read_bytes()
    (hlen,) = struct.unpack("<Q", raw[12:20])
    header = json.loads(raw[20:20 + hlen])
    header["params"][0]["shape"] = [float(d) for d in header["params"][0]["shape"]]
    hb = json.dumps(header).encode("utf-8")
    path.write_bytes(raw[:12] + struct.pack("<Q", len(hb)) + hb + raw[20 + hlen:])
    capsys.readouterr()
    rc = main(["eval", "--checkpoint", str(path), "--data", str(dataset),
               "--report", str(tmp_path / "eval.json")])
    assert rc == 1
    (line,) = error_lines(capsys.readouterr().err)
    assert line.startswith(f"error: malformed checkpoint header: {path}")
    assert not (tmp_path / "eval.json").exists()


def test_eval_checkpoint_header_that_is_not_json_exits_1(dataset, tmp_path, capsys):
    ckpt_dir = tmp_path / "ckpts"
    assert main(run_args(dataset, tmp_path / "r.json", out_dir=ckpt_dir)) == 0
    path = ckpt_dir / "step2.ckpt"
    raw = path.read_bytes()
    (hlen,) = struct.unpack("<Q", raw[12:20])
    hb = raw[20:20 + hlen].replace(b'"config"', b"config", 1)
    path.write_bytes(raw[:12] + struct.pack("<Q", len(hb)) + hb + raw[20 + hlen:])
    capsys.readouterr()
    rc = main(["eval", "--checkpoint", str(path), "--data", str(dataset),
               "--report", str(tmp_path / "eval.json")])
    assert rc == 1
    (line,) = error_lines(capsys.readouterr().err)
    assert line.startswith(f"error: {path}: malformed JSON: Expecting property name")
    assert not (tmp_path / "eval.json").exists()


@pytest.mark.parametrize("config, tail, expected", [
    ({"vocab_size": 50_000}, b"", "truncated checkpoint: {path}"),
    ({"vocab_size": 100.0}, b"", "malformed checkpoint header: {path} (ValueError('vocab_size "
                                 "must be an int, got 100.0'))"),
    ({"l_max": -1}, b"", "malformed checkpoint header: {path} (ValueError('l_max must be >= "
                         "1, got -1'))"),
    ({}, bytes(22), "malformed checkpoint: {path} (22 trailing bytes)")],
    ids=["vocab-50000", "float-vocab", "negative-l_max", "trailing-bytes"])
def test_eval_checkpoint_header_beyond_its_file_exits_1_before_allocating(
        dataset, tmp_path, capsys, config, tail, expected):
    """A 1.3 KB checkpoint whose header claimed a vocab of 400,000 once drew a
    random model of that size (about 440 MB) before its size was checked. A
    file that goes on past its vector once loaded, and eval wrote its report."""
    path = tmp_path / "big.ckpt"
    BackboneModel(ModelConfig(vocab_size=100, hidden=16, n_layers=1, n_heads=2, l_max=32),
                  seeded_rng(0)).save(path)
    raw = path.read_bytes()
    (hlen,) = struct.unpack("<Q", raw[12:20])
    header = json.loads(raw[20:20 + hlen])
    header["config"].update(config)
    header["params"][0]["shape"][0] = header["config"]["vocab_size"]
    header["params"][1]["shape"][0] = header["config"]["l_max"]
    hb = json.dumps(header).encode("utf-8")
    path.write_bytes(raw[:12] + struct.pack("<Q", len(hb)) + hb + raw[20 + hlen:] + tail)
    expected = expected.format(path=path)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=re.escape(expected)):
            BackboneModel.load(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20  # the claimed tok_emb alone would take 6.4 MB
    rc = main(["eval", "--checkpoint", str(path), "--data", str(dataset),
               "--report", str(tmp_path / "eval.json")])
    assert rc == 1
    (line,) = error_lines(capsys.readouterr().err)
    assert line == f"error: {expected}"
    assert not (tmp_path / "eval.json").exists()


# A checkpoint config in which every field differs from ModelConfig's
# default, so a dropped field changes the config. hidden is odd, so a dropped
# n_heads (default 2) no longer divides it; no parameter dimension is 1, so a
# shape dimension retyped as true (index 1) is another shape.
HEADER_CONFIG = {"vocab_size": 100, "hidden": 15, "n_layers": 1, "n_heads": 3, "l_max": 32,
                 "ff_mult": 2}
HEADER_PARAMS = (0, 2, 8, 16, 21)  # tok_emb, ln_emb_g, blk0.bq, blk0.w2, w_end
# The JSON kind of each header field a mutation may change, by its path of keys
HEADER_KINDS = {("config",): dict, ("params",): list}
HEADER_KINDS.update({("config", k): int for k in HEADER_CONFIG})
HEADER_KINDS.update({path: kind for i in HEADER_PARAMS for path, kind in (
    (("params", i), dict), (("params", i, "name"), str), (("params", i, "shape"), list),
    (("params", i, "shape", 0), int))})
HEADER_SHAPES = [shape for _, shape, _ in param_spec(ModelConfig(**HEADER_CONFIG))]
RESHAPE = object()


def with_header(raw: bytes, edit) -> bytes:
    """The checkpoint raw with edit(header) applied to its JSON header."""
    (hlen,) = struct.unpack("<Q", raw[12:20])
    header = json.loads(raw[20:20 + hlen])
    edit(header)
    hb = json.dumps(header).encode("utf-8")
    return raw[:12] + struct.pack("<Q", len(hb)) + hb + raw[20 + hlen:]


@pytest.fixture(scope="module")
def header_checkpoint(tmp_path_factory):
    path = tmp_path_factory.mktemp("ckpt") / "m.ckpt"
    BackboneModel(ModelConfig(**HEADER_CONFIG), seeded_rng(0)).save(path)
    return path.read_bytes()


@st.composite
def header_mutations(draw):
    """One checkpoint header field and what a mutation makes of it: DROP, a
    JSON value of another type, or (for a parameter's shape) another shape."""
    path = draw(st.sampled_from(sorted(HEADER_KINDS, key=repr)))
    kind = HEADER_KINDS[path]
    kinds = [st.just(DROP), st.none(), st.booleans(), st.integers(-2, 40),
             st.floats(allow_nan=False, allow_infinity=False), st.text(max_size=4),
             st.lists(st.integers(0, 40), max_size=2),
             st.dictionaries(st.text(max_size=2), st.integers(0, 3), max_size=2)]
    if path[-1] == "shape":
        kinds.append(st.just(RESHAPE))
    value = draw(st.one_of(kinds))
    if value is RESHAPE:
        value = draw(st.lists(st.integers(1, 40), max_size=3))
        assume(tuple(value) != HEADER_SHAPES[path[1]])
    else:
        assume(value is DROP or type(value) is not kind)
    return path, value


def test_eval_of_the_unmutated_header_checkpoint_runs(dataset, header_checkpoint, tmp_path):
    (tmp_path / "m.ckpt").write_bytes(header_checkpoint)
    assert main(["eval", "--checkpoint", str(tmp_path / "m.ckpt"), "--data", str(dataset),
                 "--report", str(tmp_path / "eval.json")]) == 0


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(header_mutations())
def test_eval_rejects_every_mutated_checkpoint_header_before_allocating(
        dataset, header_checkpoint, capsys, monkeypatch, mutation):
    path, value = mutation

    def no_parameters(*args, **kwargs):
        raise AssertionError("parameters allocated for a malformed header")

    monkeypatch.setattr(ad, "flat_leaves", no_parameters)

    def mutate(header):
        parent = header
        for key in path[:-1]:
            parent = parent[key]
        if value is DROP:
            del parent[path[-1]]
        else:
            parent[path[-1]] = value

    with tempfile.TemporaryDirectory() as tmp:
        ckpt = Path(tmp) / "m.ckpt"
        ckpt.write_bytes(with_header(header_checkpoint, mutate))
        capsys.readouterr()
        rc = main(["eval", "--checkpoint", str(ckpt), "--data", str(dataset),
                   "--report", str(Path(tmp) / "eval.json")])
        (line,) = error_lines(capsys.readouterr().err)
        assert rc == 1 and line.startswith(f"error: malformed checkpoint header: {ckpt} (")
        assert sorted(Path(tmp).iterdir()) == [ckpt]


# Every field differs from its default. hidden is even, so a dropped n_heads
# (default 2) still divides it, and no parameter shape depends on n_heads.
FULL_HEADER_CONFIG = {"vocab_size": 100, "hidden": 16, "n_layers": 1, "n_heads": 4,
                      "l_max": 32, "ff_mult": 2}


@pytest.mark.parametrize("field", sorted(FULL_HEADER_CONFIG))
def test_eval_rejects_a_header_that_lacks_a_config_field(dataset, tmp_path, capsys, field):
    """A field missing from the header's config is an error, not its default:
    a checkpoint without n_heads would otherwise load as another model."""
    saved = tmp_path / "saved.ckpt"
    BackboneModel(ModelConfig(**FULL_HEADER_CONFIG), seeded_rng(0)).save(saved)
    ckpt = tmp_path / "m.ckpt"
    ckpt.write_bytes(with_header(saved.read_bytes(), lambda h: h["config"].pop(field)))
    capsys.readouterr()
    rc = main(["eval", "--checkpoint", str(ckpt), "--data", str(dataset),
               "--report", str(tmp_path / "eval.json")])
    (line,) = error_lines(capsys.readouterr().err)
    assert rc == 1 and line.startswith(f"error: malformed checkpoint header: {ckpt} (")
    assert not (tmp_path / "eval.json").exists()


# Runs the CLI with its address space limited to 1 GiB, which a small run fits
LIMITED_CLI = ("import resource, runpy, sys\n"
               "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
               "runpy.run_module('contspan.cli', run_name='__main__')")


@pytest.mark.parametrize("hidden, bound", [
    pytest.param(10 ** 12, True, id="1000000000000"), pytest.param(10 ** 6, True, id="1000000"),
    pytest.param(2500, False, id="2500")])
def test_run_out_of_memory_exits_1(dataset, tmp_path, hidden, bound):
    """A model too large for the host ends the run with one error line, not a
    traceback. The run is a subprocess under a 1 GiB address-space limit, so
    no size can exhaust the host. Hidden 10**12 and 10**6 need more than any
    host's memory to train (10**6: about 96 TB for one block's weights,
    though its 0.8 GB embedding alone would fit many), and are rejected
    before any allocation, naming the sizes. Hidden 2500 needs about 2.7 GB,
    within the host, but its 0.6 GB parameter vector (and as much again for
    its pieces) does not fit the limit, and numpy's allocation fails."""
    config = {"hidden": hidden, "n_heads": 1, "n_layers": 1}
    need = training_bytes(ModelConfig(vocab_size=100, l_max=32, **config), 20)
    host = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if need > host and not bound:
        pytest.skip(f"the host has less memory than the run's estimate ({need} bytes)")
    (tmp_path / "c.json").write_text(json.dumps(config))
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1]),
           "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
    proc = subprocess.run([sys.executable, "-c", LIMITED_CLI, "run", "--config",
                           str(tmp_path / "c.json"), "--data", str(dataset),
                           "--report", str(tmp_path / "r.json")],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 1, proc.stderr
    (line,) = error_lines(proc.stderr)
    if bound:
        assert line.startswith("error: the run needs about ") and line.endswith(
            f"lower hidden ({hidden}), n_layers (1), l_max (32), batch_size (16) or the "
            f"vocab size (100)")
    else:
        assert line.startswith("error: Unable to allocate")
    assert not (tmp_path / "r.json").exists()


def test_a_memory_error_without_a_message_is_named(monkeypatch, capsys):
    def out_of_memory(args):
        raise MemoryError()

    monkeypatch.setattr(cli, "cmd_report", out_of_memory)
    assert main(["report", "--input", "r.json"]) == 1
    assert error_lines(capsys.readouterr().err) == ["error: MemoryError"]


def test_eval_rejects_an_empty_test_split(dataset, tmp_path, capsys):
    ckpt_dir = tmp_path / "ckpts"
    assert main(run_args(dataset, tmp_path / "r.json", out_dir=ckpt_dir)) == 0
    data = tmp_path / "stream"
    shutil.copytree(dataset, data)
    (data / "cdaq_d1.test.jsonl").write_text("")
    capsys.readouterr()
    report_path = tmp_path / "eval.json"
    rc = main(["eval", "--checkpoint", str(ckpt_dir / "step2.ckpt"),
               "--data", str(data), "--report", str(report_path)])
    assert rc == 1
    out = capsys.readouterr()
    assert "domain cdaq_d1 has no test samples" in out.err
    assert "F1" not in out.out
    assert not report_path.exists()


def test_report_renders_table_and_csv(dataset, tmp_path, capsys):
    report_path = tmp_path / "r.json"
    main(run_args(dataset, report_path))
    csv_path = tmp_path / "curve.csv"
    rc = main(["report", "--input", str(report_path), "--csv", str(csv_path)])
    assert rc == 0
    lines = csv_path.read_text().strip().splitlines()
    assert len(lines) == 4  # header + one row per (step, seen domain)
    assert lines[0] == "step,domain,f1,em,f1_avg,f1_all"


def test_report_csv_writes_into_a_missing_directory(dataset, tmp_path):
    """--csv in a missing directory once exited 1 with ENOENT, though --report
    makes its directory."""
    report_path = tmp_path / "r.json"
    assert main(run_args(dataset, report_path)) == 0
    csv_path = tmp_path / "new" / "curve.csv"
    assert main(["report", "--input", str(report_path), "--csv", str(csv_path)]) == 0
    assert csv_path.read_text().splitlines()[0] == "step,domain,f1,em,f1_avg,f1_all"
    assert os.listdir(csv_path.parent) == ["curve.csv"]


# Two well-formed steps numbered 1 and 5: a report cut back and renumbered
# by hand, which once loaded, rendered and resumed
MISNUMBERED = {"schema_version": 1, "metadata": {}, "steps": [
    {"step": t, "trained_domain": 0, "per_domain": [{"domain": 0, "em": 0.5, "f1": 0.5}],
     "f1_avg": 0.5, "f1_all": 0.5, "extra": {}} for t in (1, 5)]}


@pytest.mark.parametrize("doc, expected", [
    ([1], "not a report of schema 1"),
    ({"schema_version": 1, "metadata": {}, "steps": [{"x": 1}]},
     "malformed report (StepResult.__init__() got an unexpected keyword argument 'x')"),
    ({"schema_version": 1, "metadata": [], "steps": []}, "not a report of schema 1"),
    ({"schema_version": 1, "metadata": {}}, "malformed report ('steps')"),
    ({"schema_version": 1, "metadata": {}, "steps": [1]}, "malformed report ("),
    ({"schema_version": 1, "metadata": {}, "steps": [
        {"step": 1, "trained_domain": 0, "per_domain": 5, "f1_avg": 0.5, "f1_all": 0.5,
         "extra": {}}]},
     "malformed report (steps[0]: per_domain must be a non-empty list of objects, got 5)"),
    ({"schema_version": 1, "metadata": {"order": 5}, "steps": []},
     "malformed report (metadata: order must be a list of ints, got 5)"),
    (MISNUMBERED, "malformed report (steps[1].step is 5, not 2)")],
    ids=["list", "unknown-step-key", "metadata-list", "no-steps", "step-int",
         "per-domain-int", "order-int", "misnumbered-steps"])
def test_report_of_another_shape_exits_1(tmp_path, capsys, doc, expected):
    """[1] once ended in an AttributeError traceback, a step with key x, an
    int per_domain or an int metadata.order in a TypeError traceback."""
    path = tmp_path / "r.json"
    path.write_text(json.dumps(doc))
    assert main(["report", "--input", str(path)]) == 1
    (line,) = error_lines(capsys.readouterr().err)
    assert line.startswith(f"error: {path}: {expected}")


def valid_report() -> dict:
    """A two-step report as EvalReport.to_dict writes it."""
    report = EvalReport(metadata={"method": "ma_mrc", "seed": 0, "order": [1, 0]})
    for t in (1, 2):
        per = [{"domain": d, "em": 0.5, "f1": 0.25 * t} for d in (1, 0)[:t]]
        report.steps.append(StepResult(step=t, trained_domain=(1, 0)[t - 1], per_domain=per,
                                       f1_avg=0.25 * t, f1_all=0.25 * t,
                                       extra={"probe_acc": 0.5}))
    return report.to_dict()


# The JSON kind of each report field a mutation may change; a path is the
# keys from the document's root
REPORT_KINDS = {("schema_version",): "1", ("metadata",): "object", ("steps",): "steps",
                ("metadata", "order"): "list[int]"}
REPORT_KINDS.update({("steps", i, f): kind for i in (0, 1) for f, kind in (
    ("step", "int"), ("trained_domain", "int"), ("per_domain", "non-empty list[object]"),
    ("f1_avg", "float"), ("f1_all", "float"), ("extra", "object"))})
REPORT_KINDS.update({("steps", 1, "per_domain", j, f): kind for j in (0, 1)
                     for f, kind in (("domain", "int"), ("em", "float"), ("f1", "float"))})


def still_valid(kind, value) -> bool:
    if value is DROP:
        return kind == "list[int]"  # metadata.order is optional
    return {"1": lambda v: type(v) is int and v == 1,
            "object": lambda v: type(v) is dict,
            "steps": lambda v: v == [],
            "int": lambda v: type(v) is int,
            "float": lambda v: type(v) in (int, float) and math.isfinite(v),
            "list[int]": lambda v: type(v) is list and all(type(i) is int for i in v),
            "non-empty list[object]": lambda v: False}[kind](value)


@st.composite
def report_mutations(draw):
    """One field of a valid report and what a mutation makes of it: DROP,
    or a JSON value not of the field's kind (null, NaN and lists included)."""
    path = draw(st.sampled_from(sorted(REPORT_KINDS, key=repr)))
    value = draw(st.one_of(
        st.just(DROP), st.text(max_size=4), st.booleans(), st.none(), st.integers(-3, 3),
        st.floats(), st.just(math.nan),
        st.lists(st.one_of(st.integers(0, 9), st.floats(0, 9), st.text(max_size=1),
                           st.none(), st.dictionaries(st.text(max_size=2), st.integers(),
                                                      max_size=1)), max_size=3),
        st.dictionaries(st.text(max_size=2), st.integers(), max_size=2)))
    assume(not still_valid(REPORT_KINDS[path], value))
    return path, value


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(report_mutations())
def test_report_rejects_every_mutated_report(capsys, mutation):
    path, value = mutation
    doc = valid_report()
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if value is DROP:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    with tempfile.TemporaryDirectory() as tmp:
        report = Path(tmp) / "r.json"
        report.write_text(json.dumps(doc))
        capsys.readouterr()
        rc = main(["report", "--input", str(report), "--csv", str(Path(tmp) / "c.csv")])
        out, err = capsys.readouterr()
        (line,) = error_lines(err)
        assert rc == 1 and line.startswith(f"error: {report}: ")
        assert out == "" and sorted(Path(tmp).iterdir()) == [report]


def test_report_of_the_valid_document_renders(tmp_path, capsys):
    """The document the mutations start from is a valid report."""
    (tmp_path / "r.json").write_text(json.dumps(valid_report()))
    assert main(["report", "--input", str(tmp_path / "r.json")]) == 0
    assert "method=ma_mrc seed=0 order=[1, 0]" in capsys.readouterr().out


@pytest.mark.parametrize("doc, expected", [
    ([1], "not a report of schema 1"),
    ({"schema_version": 1, "metadata": {}, "steps": []},
     "resume config does not match the saved run"),
    (MISNUMBERED, "malformed report (steps[1].step is 5, not 2)")],
    ids=["list", "no-config-hash", "misnumbered-steps"])
def test_resume_from_a_partial_report_of_another_shape_exits_1(dataset, tmp_path, capsys, doc,
                                                               expected):
    """A partial report without metadata.config_hash once ended in a KeyError
    traceback."""
    ckpt_dir = tmp_path / "ckpts"
    args = run_args(dataset, tmp_path / "r.json", out_dir=ckpt_dir)
    assert main(args) == 0
    (ckpt_dir / "report.partial.json").write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(args + ["--resume"]) == 1
    (line,) = error_lines(capsys.readouterr().err)
    assert line == f"error: {ckpt_dir / 'report.partial.json'}: {expected}"


def test_resume_prints_a_dash_for_each_restored_step(dataset, tmp_path, capsys):
    """A step restored by --resume was not timed: it prints "-" and stays out
    of the total. The re-run steps' seconds once printed as steps 1, 2, ..."""
    ckpt_dir = tmp_path / "ckpts"
    args = run_args(dataset, tmp_path / "r.json", out_dir=ckpt_dir)
    assert main(args) == 0
    partial = ckpt_dir / "report.partial.json"
    doc = json.loads(partial.read_text())
    doc["steps"] = doc["steps"][:1]
    partial.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(args + ["--resume"]) == 0
    (line,) = [x for x in capsys.readouterr().out.splitlines() if x.startswith("total")]
    timed = re.fullmatch(r"total training time: (\d+\.\d)s \(per step: -, (\d+\.\d)s\)", line)
    assert timed and timed[1] == timed[2], line


def test_gradcheck_exits_zero(capsys):
    assert main(["gradcheck"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out

