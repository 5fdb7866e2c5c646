import json
import re

import numpy as np
import pytest

from contspan import data as dat
from contspan.autodiff import seeded_rng
from contspan.data import (GenConfig, Sample, VocabLayout, build_input_sequence,
                           generate_cdaq_stream, generate_cdac_stream,
                           passage_offset, write_stream, load_stream, CLS_ID, SEP_ID,
                           UNK_ID)
from contspan.metrics import em_f1

SMALL = dict(n_domains=3, train_size=40, test_size=20, vocab_size=200, l_max=64)


def reserved_vocab():
    return {dat.CLS_TOKEN: CLS_ID, dat.SEP_TOKEN: SEP_ID, dat.UNK_TOKEN: UNK_ID}


def token_vocab():
    """A vocab with ids 0..29, so the token records below hold known ids."""
    return dat.synthetic_vocab(GenConfig(vocab_size=30))


def small_cfg(setting, seed=0, **over):
    kw = {**SMALL, **over}
    return GenConfig(setting=setting, seed=seed, **kw)


# -- assembly ---------------------------------------------------------------

def test_build_input_sequence_arithmetic():
    s = build_input_sequence([10, 11, 12], [20, 21, 22, 23, 24], 64)
    offset = passage_offset([10, 11, 12])
    assert len(s) == 11 and offset == 5 and s[offset:-1] == [20, 21, 22, 23, 24]
    assert s[0] == CLS_ID and s[4] == SEP_ID and s[-1] == SEP_ID
    # passage-local answer [0, 1] lands at S-indices [5, 6]
    assert s[5:7] == [20, 21]
    # the shortest input, a 1-token question and passage, has 5 tokens
    s = build_input_sequence([10], [20], 64)
    assert s == [CLS_ID, 10, SEP_ID, 20, SEP_ID] and passage_offset([10]) == 3


def test_build_input_sequence_truncates_tail_keeps_final_sep():
    s = build_input_sequence([10, 11, 12], [20, 21, 22, 23, 24], 9)
    # 3 of the 5 passage tokens are kept, after the offset of 5
    assert len(s) == 9 and s[passage_offset([10, 11, 12]):-1] == [20, 21, 22]
    assert s[-1] == SEP_ID and s[5:8] == [20, 21, 22]


def test_build_input_sequence_rejects_degenerate():
    with pytest.raises(ValueError, match="non-empty"):
        build_input_sequence([], [1], 16)
    with pytest.raises(ValueError, match="no room"):
        build_input_sequence(list(range(10, 24)), [30], 16)


def test_sample_assemble_rejects_truncated_span():
    s = Sample(id="x", domain=0, question_ids=[10, 11],
               passage_ids=list(range(20, 40)), answer_start=18, answer_end=19)
    with pytest.raises(ValueError, match="truncated away"):
        s.assemble(12)


@pytest.mark.parametrize("start,end", [(-1, 5), (6, 5)])
def test_sample_assemble_rejects_malformed_span(start, end):
    s = Sample(id="x", domain=0, question_ids=[10, 11],
               passage_ids=list(range(20, 30)), answer_start=start, answer_end=end)
    with pytest.raises(ValueError, match="malformed answer span"):
        s.assemble(16)


def test_ingest_drops_malformed_token_span(tmp_path):
    path = tmp_path / "d.jsonl"
    rec = {"id": "t", "domain": 0, "question_ids": [10, 11],
           "passage_ids": list(range(20, 30)), "answer_start": 4, "answer_end": 5}
    _write_jsonl(path, [rec, dict(rec, id="neg", answer_start=-1),
                        dict(rec, id="rev", answer_start=6)])
    samples, dropped = dat.read_jsonl_samples(path, 0, 64, token_vocab())
    assert [s.id for s in samples] == ["t"] and dropped == 2


def test_sample_answer_ids_is_input_slice():
    s = Sample(id="x", domain=0, question_ids=[10], passage_ids=[20, 21, 22],
               answer_start=4, answer_end=5).assemble(16)
    assert s.answer_ids == s.input_ids[4:6] == [21, 22]


# -- generators -------------------------------------------------------------

@pytest.mark.parametrize("setting", ["cdaq", "cdac"])
def test_generator_sizes_and_disjointness(setting):
    stream = dat._generate_stream(small_cfg(setting))
    assert len(stream) == 3
    for dom in stream.domains:
        assert len(dom.train) == 40 and len(dom.test) == 20
        train_ids = {s.id for s in dom.train}
        assert train_ids.isdisjoint({s.id for s in dom.test})
    ids_a = {s.id for d in stream.domains for s in d.train}
    other = dat._generate_stream(small_cfg(setting, seed=1))
    ids_b = {s.id for d in other.domains for s in d.train}
    assert ids_a.isdisjoint(ids_b)


def oracle_answer(sample: Sample, cfg: GenConfig) -> tuple[int, int]:
    """Rule-based extractor; exact on generated data by construction.

    Reads the question-type token, locates the matching marker in the
    passage region of S, and returns the run of payload-range tokens that
    follows it.
    """
    layout = VocabLayout.build(cfg)
    s = sample.input_ids
    ask = s[1]
    k = ask - layout.qtype.start if cfg.setting == "cdaq" else 0
    marker = layout.marker.start + k
    pos = s.index(marker, 2 + len(sample.question_ids))
    start = pos + 1
    end = start
    while end + 1 < len(s) and s[end + 1] in layout.payload:
        end += 1
    return start, end


@pytest.mark.parametrize("setting", ["cdaq", "cdac"])
def test_oracle_scores_exact_match_everywhere(setting):
    cfg = small_cfg(setting)
    stream = dat._generate_stream(cfg)
    for dom in stream.domains:
        for s in dom.train + dom.test:
            i, j = oracle_answer(s, cfg)
            assert (i, j) == (s.answer_start, s.answer_end)
            em, f1 = em_f1(s.input_ids[i:j + 1], s.answer_ids)
            assert (em, f1) == (1, 1.0)


@pytest.mark.parametrize("gen, setting", [(generate_cdac_stream, "cdac"),
                                          (generate_cdaq_stream, "cdaq")])
def test_generators_leave_the_callers_config_alone(gen, setting):
    other = "cdaq" if setting == "cdac" else "cdac"
    cfg = small_cfg(other, n_domains=1, train_size=2, test_size=1)
    assert gen(cfg).setting == setting
    assert cfg == small_cfg(other, n_domains=1, train_size=2, test_size=1)


@pytest.mark.parametrize("field, value", [
    ("n_domains", 0), ("n_domains", True), ("train_size", -3), ("test_size", 0),
    ("train_size", 2.0), ("seed", -1), ("setting", "cdax"), ("passage_len", (5, 2))])
def test_gen_config_rejects_a_bad_field(tmp_path, field, value):
    """A generator config is checked as it is built, so a bad value raises
    one ValueError that names its field and no stream file is written."""
    with pytest.raises(ValueError) as e:
        write_stream(generate_cdac_stream(GenConfig(**{field: value})), tmp_path / "s")
    assert re.match(rf"(unknown )?{field} ", str(e.value)), str(e.value)
    assert not (tmp_path / "s").exists()


def test_generated_spans_live_in_passage_region():
    stream = dat._generate_stream(small_cfg("cdac"))
    for dom in stream.domains:
        for s in dom.train:
            offset = 1 + len(s.question_ids) + 1
            assert offset <= s.answer_start <= s.answer_end < len(s.input_ids) - 1


def test_generation_deterministic_files(tmp_path):
    for name in ("a", "b"):
        write_stream(dat._generate_stream(small_cfg("cdaq", seed=7)), tmp_path / name)
    for f in sorted((tmp_path / "a").iterdir()):
        assert f.read_bytes() == (tmp_path / "b" / f.name).read_bytes()


def test_cdac_domains_separable_by_random_projection():
    """A frozen random projection on bag-of-ids tells any two domains apart."""
    cfg = small_cfg("cdac", train_size=100)
    stream = dat._generate_stream(cfg)
    rng = seeded_rng(99)
    w = rng.normal(size=(cfg.vocab_size, 32))

    def feats(samples):
        bags = np.zeros((len(samples), cfg.vocab_size))
        for i, s in enumerate(samples):
            for tid in s.input_ids:
                bags[i, tid] += 1
        bags /= bags.sum(axis=1, keepdims=True)
        return bags @ w

    for a in range(3):
        for b in range(a + 1, 3):
            fa, fb = feats(stream.domains[a].train), feats(stream.domains[b].train)
            x = np.vstack([fa, fb])
            y = np.array([1] * len(fa) + [0] * len(fb))
            # nearest-centroid rule on the projected features
            ca, cb = fa.mean(axis=0), fb.mean(axis=0)
            pred = (np.linalg.norm(x - ca, axis=1)
                    < np.linalg.norm(x - cb, axis=1)).astype(int)
            assert (pred == y).mean() > 0.9


def test_cdac_passage_lengths_track_config():
    cfg = small_cfg("cdac", train_size=1000, test_size=2)
    stream = dat._generate_stream(cfg)
    for k, dom in enumerate(stream.domains):
        frac = k / (cfg.n_domains - 1)
        lo = round(dat.CDAC_LEN_LO[0] + frac * (dat.CDAC_LEN_HI[0] - dat.CDAC_LEN_LO[0]))
        hi = round(dat.CDAC_LEN_LO[1] + frac * (dat.CDAC_LEN_HI[1] - dat.CDAC_LEN_LO[1]))
        want = (lo + hi) / 2
        got = np.mean([len(s.passage_ids) for s in dom.train])
        assert abs(got - want) / want < 0.05


# -- stream round trip ------------------------------------------------------

def test_write_then_load_stream(tmp_path):
    stream = dat._generate_stream(small_cfg("cdaq", seed=2))
    write_stream(stream, tmp_path / "ds")
    loaded = load_stream(tmp_path / "ds")
    assert loaded.setting == "cdaq" and len(loaded) == 3
    for dom, ldom in zip(stream.domains, loaded.domains):
        assert [s.id for s in dom.train] == [s.id for s in ldom.train]
        assert [s.input_ids for s in dom.test] == [s.input_ids for s in ldom.test]


def test_load_stream_warns_about_dropped_records(tmp_path, caplog):
    stream = dat._generate_stream(small_cfg("cdaq", seed=2))
    write_stream(stream, tmp_path / "ds")
    path = tmp_path / "ds" / f"{stream.domains[1].name}.test.jsonl"
    bad = {**stream.domains[1].test[0].record(), "id": "bad", "answer_start": 9,
           "answer_end": 8}
    with open(path, "a", encoding="utf-8") as f:
        f.write(json.dumps(bad) + "\n")
    with caplog.at_level("WARNING", logger="contspan.data"):
        loaded = load_stream(tmp_path / "ds")
    assert len(loaded.domains[1].test) == len(stream.domains[1].test)
    assert [r.getMessage() for r in caplog.records] == [f"{path}: 1 record(s) dropped"]


# -- ingestion --------------------------------------------------------------

def _write_jsonl(path, records):
    with open(path, "w", encoding="utf-8") as f:
        for rec in records:
            f.write(json.dumps(rec) + "\n")


def test_ingest_recovers_answer_span(tmp_path):
    path = tmp_path / "d.jsonl"
    _write_jsonl(path, [{
        "id": "r1", "domain": 0,
        "question": "who holds the key",
        "passage": "the old keeper holds the key now",
        "answer_text": "the key", "answer_char_start": 21,
    }])
    vocab = reserved_vocab()
    samples, dropped = dat.read_jsonl_samples(path, 0, 64, vocab)
    assert dropped == 0 and len(samples) == 1
    s = samples[0]
    tokens = {v: k for k, v in vocab.items()}
    recovered = " ".join(tokens[t] for t in s.answer_ids)
    assert recovered == "the key"


def test_ingest_snaps_mid_token_offset(tmp_path):
    path = tmp_path / "d.jsonl"
    # char 5 points inside "keeper"; the span snaps to the token start
    _write_jsonl(path, [{
        "id": "r1", "domain": 0, "question": "who",
        "passage": "old keeper sleeps", "answer_text": "eeper",
        "answer_char_start": 5,
    }])
    vocab = reserved_vocab()
    samples, _ = dat.read_jsonl_samples(path, 0, 64, vocab)
    assert len(samples) == 1
    tokens = {v: k for k, v in vocab.items()}
    assert [tokens[t] for t in samples[0].answer_ids] == ["keeper"]


def test_ingest_drops_irrecoverable_span(tmp_path):
    path = tmp_path / "d.jsonl"
    _write_jsonl(path, [{
        "id": "r1", "domain": 0, "question": "who",
        "passage": "short text", "answer_text": "absent words",
        "answer_char_start": 0,
    }])
    samples, dropped = dat.read_jsonl_samples(path, 0, 64, reserved_vocab())
    assert samples == [] and dropped == 1


def test_both_record_kinds_assemble_and_drop_alike(tmp_path):
    """A token record and the text record of the same words load to the
    same sample; a record of either kind whose answer the l_max truncation
    cuts away is dropped, and counted with a text record whose answer is not
    in its passage."""
    path = tmp_path / "d.jsonl"
    tok = {"id": "tok", "domain": 0, "question_ids": [10, 11],
           "passage_ids": list(range(20, 30)), "answer_start": 6, "answer_end": 7}
    text = {"id": "text", "domain": 0, "question": "w10 w11",
            "passage": " ".join(f"w{i}" for i in range(20, 30)), "answer_text": "w22 w23",
            "answer_char_start": 8}
    _write_jsonl(path, [tok, dict(tok, id="cut", answer_start=13, answer_end=13), text,
                        dict(text, id="cut", answer_text="w29", answer_char_start=36),
                        dict(text, id="absent", answer_text="w99")])
    vocab = token_vocab()
    samples, dropped = dat.read_jsonl_samples(path, 0, 12, vocab)
    assert [s.id for s in samples] == ["tok", "text"] and dropped == 3
    assert samples[0].input_ids == samples[1].input_ids == [0, 10, 11, 1, *range(20, 27), 1]
    assert samples[0].answer_ids == samples[1].answer_ids == [22, 23]
    assert vocab == token_vocab()


def test_ingest_empty_file_warns_not_raises(tmp_path, caplog):
    path = tmp_path / "d.jsonl"
    path.write_text("")
    with caplog.at_level("WARNING"):
        samples, dropped = dat.read_jsonl_samples(path, 0, 64, reserved_vocab())
    assert samples == [] and dropped == 0
    assert "no usable samples" in caplog.text


def test_ingest_malformed_json_names_line(tmp_path):
    path = tmp_path / "d.jsonl"
    good = json.dumps({"id": "a", "domain": 0, "question": "q",
                       "passage": "p q r", "answer_text": "p",
                       "answer_char_start": 0})
    path.write_text(good + "\nnot json\n")
    with pytest.raises(ValueError, match="malformed JSON"):
        dat.read_jsonl_samples(path, 0, 64, reserved_vocab())
    try:
        dat.read_jsonl_samples(path, 0, 64, reserved_vocab())
    except ValueError as e:
        assert ":2:" in str(e)


def test_ingest_missing_field_rejected(tmp_path):
    path = tmp_path / "d.jsonl"
    _write_jsonl(path, [{"id": "a", "domain": 0, "question": "q"}])
    with pytest.raises(ValueError, match="missing field"):
        dat.read_jsonl_samples(path, 0, 64, reserved_vocab())


def test_ingest_token_record_missing_field_names_path_and_line(tmp_path):
    path = tmp_path / "d.jsonl"
    rec = {"id": "t", "domain": 0, "question_ids": [10, 11],
           "passage_ids": list(range(20, 30)), "answer_start": 4, "answer_end": 5}
    _write_jsonl(path, [rec, {k: v for k, v in rec.items() if k != "answer_start"}])
    with pytest.raises(ValueError, match=re.escape(f"{path}:2: missing field 'answer_start'")):
        dat.read_jsonl_samples(path, 0, 64, token_vocab())


@pytest.mark.parametrize("field, ids, bad", [("question_ids", [10, 30], 30),
                                             ("passage_ids", [20, -1, 40], -1)])
def test_ingest_token_id_outside_the_vocab_names_path_and_line(tmp_path, field, ids, bad):
    """An id the vocab does not hold once loaded, and the run failed mid-run."""
    path = tmp_path / "d.jsonl"
    rec = {"id": "t", "domain": 0, "question_ids": [10, 11],
           "passage_ids": list(range(20, 30)), "answer_start": 4, "answer_end": 5}
    _write_jsonl(path, [rec, dict(rec, **{field: ids})])
    with pytest.raises(ValueError, match=re.escape(
            f"{path}:2: token id {bad} is outside the vocab's ids 0..29")):
        dat.read_jsonl_samples(path, 0, 64, token_vocab())


TOKEN_REC = {"id": "t", "domain": 1, "question_ids": [10, 11],
             "passage_ids": list(range(20, 30)), "answer_start": 4, "answer_end": 5}
TEXT_REC = {"id": "r", "domain": 1, "question": "who sleeps",
            "passage": "the old keeper sleeps", "answer_text": "keeper",
            "answer_char_start": 8}


@pytest.mark.parametrize("rec", [TOKEN_REC, TEXT_REC,
                                 dict(TEXT_REC, answer_text="absent")],
                         ids=["token", "text", "text-dropped"])
def test_load_rejects_a_record_of_another_domain(tmp_path, rec):
    """A record's domain is its file's position in the manifest; another
    value once reached the replay memory and skewed its per-domain quotas.
    A record the load would drop is rejected as well."""
    for name in ("a", "b"):
        for split in ("train", "test"):
            _write_jsonl(tmp_path / f"{name}.{split}.jsonl", [dict(TOKEN_REC, domain=0)]
                         if name == "a" else [TOKEN_REC, dict(rec, domain=0)])
    (tmp_path / "vocab.txt").write_text("".join(f"w{i}\t{i}\n" for i in range(30)))
    (tmp_path / "manifest.json").write_text(json.dumps(
        {"setting": "cdac", "l_max": 64, "domains": ["a", "b"]}))
    with pytest.raises(ValueError, match=re.escape(
            f"{tmp_path / 'b.train.jsonl'}:2: domain 0 is not 1, the file's position "
            f"in the stream manifest")):
        load_stream(tmp_path)
    _write_jsonl(tmp_path / "b.train.jsonl", [TOKEN_REC, rec])
    _write_jsonl(tmp_path / "b.test.jsonl", [TOKEN_REC, rec])
    stream = load_stream(tmp_path)
    assert [s.domain for d in stream.domains for s in d.train] == \
        [0, 1] + [1] * (rec.get("answer_text") != "absent")


@pytest.mark.parametrize("ids", [[0, 1, 2, 4], [0, 1, 1, 2], [1, 2, 3]])
def test_read_vocab_requires_ids_0_to_n_minus_1_each_once(tmp_path, ids):
    """With ids 0, 1, 2 and 4, the text tokens a and b once both read as id 4."""
    path = tmp_path / "vocab.txt"
    path.write_text("".join(f"t{i}\t{tid}\n" for i, tid in enumerate(ids)))
    with pytest.raises(ValueError, match=re.escape(
            f"{path}: the ids must be 0..{len(ids) - 1}, each once")):
        dat.read_vocab(path)
    path.write_text("".join(f"t{i}\t{i}\n" for i in range(len(ids))))
    assert dat.read_vocab(path) == {f"t{i}": i for i in range(len(ids))}


def test_ingest_unknown_tokens_with_frozen_vocab(tmp_path):
    path = tmp_path / "d.jsonl"
    _write_jsonl(path, [{
        "id": "r1", "domain": 0, "question": "who went",
        "passage": "alice went home", "answer_text": "home",
        "answer_char_start": 11,
    }])
    vocab = {dat.CLS_TOKEN: CLS_ID, dat.SEP_TOKEN: SEP_ID, dat.UNK_TOKEN: UNK_ID,
             "went": 3, "home": 4}
    samples, dropped = dat.read_jsonl_samples(path, 0, 64, vocab)
    # frozen-vocab reads are only used for the pre-tokenized format; the
    # text path always extends, so the new words gain fresh ids
    assert dropped == 0 and "alice" in vocab
