"""Synthetic domain streams, real-format ingestion, and input assembly.

Tokenization is whitespace-level with a corpus-built vocabulary; ids 0, 1, 2
are reserved for the sequence-start token, the separator, and unknown.
Generated streams come in two flavors: question-type shift (each domain asks
about a different planted marker) and passage-distribution shift (fixed
question task, per-domain filler vocabularies and passage lengths).
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .autodiff import seeded_rng
from .metrics import parse_json, require_fields

log = logging.getLogger(__name__)

CLS_ID = 0
SEP_ID = 1
UNK_ID = 2

CLS_TOKEN = "<cls>"
SEP_TOKEN = "<sep>"
UNK_TOKEN = "<unk>"

# generator lengths, inclusive (lo, hi) ranges in tokens
QUESTION_NOISE_LEN = (4, 7)  # question filler after the question-type token
PAYLOAD_LEN = (1, 4)  # answer payload after its marker
# cdac passage lengths, interpolated from the first domain's to the last's
CDAC_LEN_LO = (15, 25)
CDAC_LEN_HI = (40, 55)


# The kind of each field of a token record, a text record and a stream manifest
RECORD_FIELDS = {"id": "str | int", "domain": "int", "question_ids": "list[int]",
                 "passage_ids": "list[int]", "answer_start": "int", "answer_end": "int"}
TEXT_FIELDS = {"id": "str | int", "domain": "int", "question": "str", "passage": "str",
               "answer_text": "str", "answer_char_start": "int"}
MANIFEST_FIELDS = {"setting": "str", "l_max": "int", "domains": "non-empty list[str]"}


@dataclass
class Sample:
    """One passage/question/answer-span triple, token-level.

    ``answer_start``/``answer_end`` are inclusive indices into the assembled
    input sequence S = [cls] Q [sep] P [sep]; ``answer_ids`` is the S-slice.
    """
    id: str
    domain: int
    question_ids: list[int]
    passage_ids: list[int]
    answer_start: int
    answer_end: int
    answer_ids: list[int] = field(default_factory=list)
    input_ids: list[int] = field(default_factory=list)

    def assemble(self, l_max: int) -> "Sample":
        if not 0 <= self.answer_start <= self.answer_end:
            raise ValueError(f"sample {self.id}: malformed answer span "
                             f"({self.answer_start}, {self.answer_end})")
        s = build_input_sequence(self.question_ids, self.passage_ids, l_max)
        if self.answer_end >= len(s) - 1:
            raise ValueError(f"sample {self.id}: answer span truncated away")
        self.input_ids = s
        self.answer_ids = s[self.answer_start:self.answer_end + 1]
        return self

    def record(self) -> dict:
        """The JSON record of stream and memory files: the six token-level
        fields, without the assembled sequence."""
        return {"id": self.id, "domain": self.domain,
                "question_ids": self.question_ids, "passage_ids": self.passage_ids,
                "answer_start": self.answer_start, "answer_end": self.answer_end}

    @classmethod
    def from_record(cls, rec: dict) -> "Sample":
        """Inverse of ``record``, for a record ``require_fields`` has checked."""
        return cls(**{k: rec[k] for k in RECORD_FIELDS} | {"id": str(rec["id"])})


@dataclass
class DomainData:
    name: str
    train: list[Sample]
    test: list[Sample]


@dataclass
class DomainStream:
    setting: str
    domains: list[DomainData]
    vocab: dict[str, int]
    l_max: int

    def __len__(self):
        return len(self.domains)

    def require(self, *splits: str):
        """Reject a stream in which a domain has an empty split, naming it."""
        for dom in self.domains:
            for split in splits:
                if not getattr(dom, split):
                    raise ValueError(f"domain {dom.name} has no {split} samples")


@dataclass
class GenConfig:
    setting: str = "cdaq"  # cdaq | cdac
    n_domains: int = 3
    train_size: int = 512
    test_size: int = 256
    vocab_size: int = 200
    l_max: int = 64
    seed: int = 0
    # cdaq passage length range; cdac uses CDAC_LEN_LO..CDAC_LEN_HI
    passage_len: tuple[int, int] = (20, 40)


@dataclass
class VocabLayout:
    """Id ranges for the synthetic vocabulary; everything below is disjoint."""
    n_domains: int
    qtype: range
    marker: range
    payload: range
    qnoise: range
    filler: range

    @classmethod
    def build(cls, cfg: GenConfig) -> "VocabLayout":
        t = cfg.n_domains
        n_qtype = t if cfg.setting == "cdaq" else 1
        n_marker = t if cfg.setting == "cdaq" else 1
        base = 3
        qtype = range(base, base + n_qtype)
        marker = range(qtype.stop, qtype.stop + n_marker)
        n_payload = 40
        payload = range(marker.stop, marker.stop + n_payload)
        qnoise = range(payload.stop, payload.stop + 16)
        filler = range(qnoise.stop, cfg.vocab_size)
        if len(filler) < 4 * t:
            raise ValueError(f"vocab_size={cfg.vocab_size} too small for layout")
        return cls(t, qtype, marker, payload, qnoise, filler)

    def domain_share(self, ids: range, domain: int) -> range:
        """The domain's disjoint equal slice of ids (passage-shift setting)."""
        width = len(ids) // self.n_domains
        return ids[domain * width:(domain + 1) * width]


def token_string(tid: int) -> str:
    if tid == CLS_ID:
        return CLS_TOKEN
    if tid == SEP_ID:
        return SEP_TOKEN
    if tid == UNK_ID:
        return UNK_TOKEN
    return f"w{tid}"


def synthetic_vocab(cfg: GenConfig) -> dict[str, int]:
    return {token_string(i): i for i in range(cfg.vocab_size)}


# ---------------------------------------------------------------------------
# input assembly

def passage_offset(question_ids) -> int:
    """Index of the passage's first token in [cls] Q [sep] P [sep]: the shift
    from passage-local answer indices to sequence indices."""
    return 1 + len(question_ids) + 1


def build_input_sequence(question_ids, passage_ids, l_max) -> list[int]:
    """Assemble [cls] Q [sep] P [sep], truncating the passage tail to fit."""
    if not len(question_ids) or not len(passage_ids):
        raise ValueError("question and passage must be non-empty")
    budget = l_max - passage_offset(question_ids) - 1
    if budget < 1:
        raise ValueError(f"question of length {len(question_ids)} leaves no room "
                         f"for a passage at l_max={l_max}")
    return [CLS_ID] + list(question_ids) + [SEP_ID] + list(passage_ids[:budget]) + [SEP_ID]


# ---------------------------------------------------------------------------
# generators

def _build_passage(rng, markers: list[int], length: int, filler_pool: np.ndarray,
                   payload_pool: np.ndarray, payload_lens: list[int],
                   position_window=None):
    """Passage with each marker followed by its payload, fillers elsewhere.

    Returns (passage_ids, spans) where spans[i] is the passage-local
    (start, end) of marker i's payload. ``position_window`` biases a
    single-marker passage so the marker lands in that fraction band.
    """
    segments = []
    for m, plen in zip(markers, payload_lens):
        payload = rng.choice(payload_pool, size=plen).tolist()
        segments.append([m] + payload)
    order = rng.permutation(len(segments))
    seg_total = sum(len(s) for s in segments)
    n_fill = max(0, length - seg_total)
    if position_window is not None and len(segments) == 1:
        u = rng.uniform(*position_window)
        gaps = np.array([int(round(u * n_fill)), 0])
        gaps[1] = n_fill - gaps[0]
    else:
        # split filler tokens into len(segments)+1 gaps
        cuts = np.sort(rng.integers(0, n_fill + 1, size=len(segments)))
        gaps = np.diff(np.concatenate([[0], cuts, [n_fill]]))
    fill = rng.choice(filler_pool, size=n_fill).tolist()

    passage: list[int] = []
    spans: dict[int, tuple[int, int]] = {}
    fi = 0
    for gi, si in enumerate(order):
        g = int(gaps[gi])
        passage.extend(fill[fi:fi + g])
        fi += g
        seg = segments[si]
        start = len(passage) + 1  # skip the marker itself
        passage.extend(seg)
        spans[int(si)] = (start, start + len(seg) - 2)
    passage.extend(fill[fi:])
    return passage, spans


def _gen_split(cfg: GenConfig, layout: VocabLayout, domain: int, split: str,
               size: int, rng) -> list[Sample]:
    samples = []
    position_window = None
    if cfg.setting == "cdaq":
        filler_pool = np.array(layout.filler)
        payload_pool = np.array(layout.payload)
        markers = [layout.marker.start + k for k in range(cfg.n_domains)]
        ask = layout.qtype.start + domain
        target = domain
        plen_range = cfg.passage_len
    else:
        filler_pool = np.array(layout.domain_share(layout.filler, domain))
        payload_pool = np.array(layout.domain_share(layout.payload, domain))
        markers = [layout.marker.start]
        ask = layout.qtype.start
        target = 0
        frac = domain / max(1, cfg.n_domains - 1)
        lo = round(CDAC_LEN_LO[0] + frac * (CDAC_LEN_HI[0] - CDAC_LEN_LO[0]))
        hi = round(CDAC_LEN_LO[1] + frac * (CDAC_LEN_HI[1] - CDAC_LEN_LO[1]))
        plen_range = (lo, hi)
        # marker position drifts across domains as well, so an under-trained
        # model that leans on positional priors genuinely has to re-adapt
        position_window = (0.7 * frac, 0.7 * frac + 0.3)

    for i in range(size):
        # long passages can push the gold span past the l_max truncation
        # point; redraw until the span survives so split sizes stay exact
        for _ in range(50):
            q_noise = rng.choice(np.array(layout.qnoise),
                                 size=int(rng.integers(*QUESTION_NOISE_LEN))).tolist()
            question = [ask] + q_noise
            length = int(rng.integers(plen_range[0], plen_range[1] + 1))
            payload_lens = [int(rng.integers(PAYLOAD_LEN[0], PAYLOAD_LEN[1] + 1))
                            for _ in markers]
            passage, spans = _build_passage(rng, markers, length, filler_pool,
                                            payload_pool, payload_lens, position_window)
            p_start, p_end = spans[target]
            offset = passage_offset(question)
            sample = Sample(
                id=f"{cfg.setting}-s{cfg.seed}-d{domain}-{split}-{i}",
                domain=domain,
                question_ids=question,
                passage_ids=passage,
                answer_start=p_start + offset,
                answer_end=p_end + offset,
            )
            try:
                samples.append(sample.assemble(cfg.l_max))
                break
            except ValueError:
                continue
        else:
            raise ValueError("could not generate a sample that fits l_max")
    return samples


def _generate_stream(cfg: GenConfig) -> DomainStream:
    layout = VocabLayout.build(cfg)
    domains = []
    for k in range(cfg.n_domains):
        rng_tr = seeded_rng(cfg.seed, k, 0)
        rng_te = seeded_rng(cfg.seed, k, 1)
        train = _gen_split(cfg, layout, k, "train", cfg.train_size, rng_tr)
        test = _gen_split(cfg, layout, k, "test", cfg.test_size, rng_te)
        domains.append(DomainData(name=f"{cfg.setting}_d{k}", train=train, test=test))
    return DomainStream(cfg.setting, domains, synthetic_vocab(cfg), cfg.l_max)


def generate_cdaq_stream(cfg: GenConfig) -> DomainStream:
    """Question-type shift: shared passages, per-domain question markers."""
    return _generate_stream(replace(cfg, setting="cdaq"))


def generate_cdac_stream(cfg: GenConfig) -> DomainStream:
    """Passage shift: fixed question task, per-domain fillers and lengths."""
    return _generate_stream(replace(cfg, setting="cdac"))


# ---------------------------------------------------------------------------
# file I/O

def write_stream(stream: DomainStream, out_dir) -> None:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for dom in stream.domains:
        for split, samples in (("train", dom.train), ("test", dom.test)):
            with open(out / f"{dom.name}.{split}.jsonl", "w", encoding="utf-8") as f:
                for s in samples:
                    f.write(json.dumps(s.record(), sort_keys=True) + "\n")
    with open(out / "vocab.txt", "w", encoding="utf-8") as f:
        for tok, tid in sorted(stream.vocab.items(), key=lambda kv: kv[1]):
            f.write(f"{tok}\t{tid}\n")
    with open(out / "manifest.json", "w", encoding="utf-8") as f:
        json.dump({
            "setting": stream.setting,
            "l_max": stream.l_max,
            "vocab_size": len(stream.vocab),
            "domains": [d.name for d in stream.domains],
        }, f, sort_keys=True, indent=2)
        f.write("\n")


def load_stream(data_dir) -> DomainStream:
    root = Path(data_dir)
    where = root / "manifest.json"
    manifest = parse_json(where.read_bytes(), where)
    require_fields(manifest, MANIFEST_FIELDS, where)
    vocab = read_vocab(root / "vocab.txt")
    domains = []
    for idx, name in enumerate(manifest["domains"]):
        splits = {}
        for split in ("train", "test"):
            path = root / f"{name}.{split}.jsonl"
            splits[split], dropped = read_jsonl_samples(path, idx, manifest["l_max"], vocab)
            if dropped and splits[split]:  # read_jsonl_samples warns when none are left
                log.warning("%s: %d record(s) dropped", path, dropped)
        domains.append(DomainData(name=name, train=splits["train"], test=splits["test"]))
    return DomainStream(manifest["setting"], domains, vocab, manifest["l_max"])


def read_vocab(path) -> dict[str, int]:
    vocab = {}
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            if line.strip():
                try:
                    tok, tid = line.rstrip("\n").split("\t")
                    vocab[tok] = int(tid)
                except ValueError:
                    raise ValueError(f"{path}:{lineno}: expected a token, a tab "
                                     f"and an integer id") from None
    if sorted(vocab.values()) != list(range(len(vocab))):
        raise ValueError(f"{path}: the ids must be 0..{len(vocab) - 1}, each once")
    return vocab


def read_jsonl_samples(path, domain: int, l_max: int, vocab: dict[str, int]):
    """Read one domain file of JSON objects: token records, which hold token
    ids (question_ids or passage_ids), or text records.

    Each record's ``domain`` must be domain, the file's manifest position.
    Text records are tokenized against vocab, which gains their unseen
    tokens. Returns (samples, dropped_count); records that fail span
    recovery or assembly are dropped and counted, never raised.
    """
    samples: list[Sample] = []
    dropped = 0
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            if not line.strip():
                continue
            where = f"{path}:{lineno}"
            rec = parse_json(line, where)
            token = type(rec) is dict and rec.keys() & {"question_ids", "passage_ids"}
            require_fields(rec, RECORD_FIELDS if token else TEXT_FIELDS, where)
            if rec["domain"] != domain:
                raise ValueError(f"{where}: domain {rec['domain']} is not {domain}, the "
                                 f"file's position in the stream manifest")
            if token:
                sample = Sample.from_record(rec)
                if bad := [i for i in sample.question_ids + sample.passage_ids
                           if not 0 <= i < len(vocab)]:
                    raise ValueError(f"{where}: token id {bad[0]} is outside the "
                                     f"vocab's ids 0..{len(vocab) - 1}")
                try:
                    samples.append(sample.assemble(l_max))
                except ValueError:
                    dropped += 1
            else:
                sample = _sample_from_text(rec, vocab, l_max)
                if sample is None:
                    dropped += 1
                else:
                    samples.append(sample)
    if not samples:
        log.warning("%s: no usable samples (%d dropped)", path, dropped)
    return samples, dropped


def _tokenize(text: str, vocab: dict[str, int]):
    """Whitespace tokens as ids, adding unseen tokens to the vocab."""
    ids = []
    spans = []  # (char_start, char_end) per token
    pos = 0
    for tok in text.split():
        start = text.index(tok, pos)
        spans.append((start, start + len(tok)))
        pos = start + len(tok)
        ids.append(vocab.setdefault(tok, len(vocab)))
    return ids, spans


def _sample_from_text(rec, vocab, l_max):
    q_ids, _ = _tokenize(rec["question"], vocab)
    p_ids, p_spans = _tokenize(rec["passage"], vocab)
    char_start = rec["answer_char_start"]
    char_end = char_start + len(rec["answer_text"])
    tok_start = tok_end = None
    for i, (a, b) in enumerate(p_spans):
        if tok_start is None and b > char_start:
            tok_start = i  # snaps mid-token offsets to the containing token
        if a < char_end:
            tok_end = i
    if tok_start is None or tok_end is None or tok_start > tok_end:
        return None
    recovered = " ".join(rec["passage"][a:b] for a, b in p_spans[tok_start:tok_end + 1])
    if rec["answer_text"].split() and rec["answer_text"] not in recovered \
            and " ".join(rec["answer_text"].split()) not in recovered:
        return None
    offset = passage_offset(q_ids)
    sample = Sample(id=str(rec["id"]), domain=rec["domain"],
                    question_ids=q_ids, passage_ids=p_ids,
                    answer_start=tok_start + offset, answer_end=tok_end + offset)
    try:
        return sample.assemble(l_max)
    except ValueError:
        return None
