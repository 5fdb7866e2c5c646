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
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .autodiff import seeded_rng

log = logging.getLogger(__name__)

CLS_ID = 0
SEP_ID = 1
UNK_ID = 2

CLS_TOKEN = "<cls>"
SEP_TOKEN = "<sep>"
UNK_TOKEN = "<unk>"


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
        s, offset, kept = build_input_sequence(self.question_ids, self.passage_ids, l_max)
        if self.answer_end >= len(s) - 1:
            raise ValueError(f"sample {self.id}: answer span truncated away")
        self.input_ids = s
        self.answer_ids = s[self.answer_start:self.answer_end + 1]
        return self


@dataclass
class DomainData:
    name: str
    index: int
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


@dataclass
class GenConfig:
    setting: str = "cdaq"  # cdaq | cdac
    n_domains: int = 3
    train_size: int = 512
    test_size: int = 256
    vocab_size: int = 200
    l_max: int = 64
    seed: int = 0
    question_noise_len: tuple[int, int] = (4, 7)
    payload_len: tuple[int, int] = (1, 4)
    # cdaq: shared passage length range; cdac: interpolated per domain
    passage_len: tuple[int, int] = (20, 40)
    cdac_len_lo: tuple[int, int] = (15, 25)
    cdac_len_hi: tuple[int, int] = (40, 55)


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

    def filler_subrange(self, domain: int) -> range:
        """Disjoint per-domain filler slice (passage-shift setting)."""
        width = len(self.filler) // self.n_domains
        lo = self.filler.start + domain * width
        return range(lo, lo + width)

    def payload_subrange(self, domain: int) -> range:
        """Disjoint per-domain payload slice (passage-shift setting)."""
        width = len(self.payload) // self.n_domains
        lo = self.payload.start + domain * width
        return range(lo, lo + width)


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

def build_input_sequence(question_ids, passage_ids, l_max):
    """Assemble [cls] Q [sep] P [sep], truncating the passage tail to fit.

    Returns (sequence, passage_offset, kept_passage_len). Passage-local
    answer indices shift by the offset, which is 1 + |Q| + 1.
    """
    if not len(question_ids) or not len(passage_ids):
        raise ValueError("question and passage must be non-empty")
    offset = 1 + len(question_ids) + 1
    budget = l_max - offset - 1
    if budget < 1:
        raise ValueError(f"question of length {len(question_ids)} leaves no room "
                         f"for a passage at l_max={l_max}")
    kept = min(len(passage_ids), budget)
    s = ([CLS_ID] + list(question_ids) + [SEP_ID]
         + list(passage_ids[:kept]) + [SEP_ID])
    return s, offset, kept


# ---------------------------------------------------------------------------
# generators

def _build_passage(rng, layout: VocabLayout, markers: list[int], length: int,
                   filler_pool: np.ndarray, payload_pool: np.ndarray,
                   payload_lens: list[int], position_window=None):
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
        filler_pool = np.array(layout.filler_subrange(domain))
        payload_pool = np.array(layout.payload_subrange(domain))
        markers = [layout.marker.start]
        ask = layout.qtype.start
        target = 0
        frac = domain / max(1, cfg.n_domains - 1)
        lo = round(cfg.cdac_len_lo[0] + frac * (cfg.cdac_len_hi[0] - cfg.cdac_len_lo[0]))
        hi = round(cfg.cdac_len_lo[1] + frac * (cfg.cdac_len_hi[1] - cfg.cdac_len_lo[1]))
        plen_range = (lo, hi)
        # marker position drifts across domains as well, so an under-trained
        # model that leans on positional priors genuinely has to re-adapt
        position_window = (0.7 * frac, 0.7 * frac + 0.3)

    for i in range(size):
        # long passages can push the gold span past the l_max truncation
        # point; redraw until the span survives so split sizes stay exact
        for _ in range(50):
            q_noise = rng.choice(np.array(layout.qnoise),
                                 size=int(rng.integers(*cfg.question_noise_len))).tolist()
            question = [ask] + q_noise
            length = int(rng.integers(plen_range[0], plen_range[1] + 1))
            payload_lens = [int(rng.integers(cfg.payload_len[0], cfg.payload_len[1] + 1))
                            for _ in markers]
            passage, spans = _build_passage(rng, layout, markers, length,
                                            filler_pool, payload_pool,
                                            payload_lens, position_window)
            p_start, p_end = spans[target]
            offset = 1 + len(question) + 1
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
            raise RuntimeError("could not generate a sample that fits l_max")
    return samples


def _generate_stream(cfg: GenConfig) -> DomainStream:
    layout = VocabLayout.build(cfg)
    domains = []
    for k in range(cfg.n_domains):
        rng_tr = seeded_rng(cfg.seed, k, 0)
        rng_te = seeded_rng(cfg.seed, k, 1)
        train = _gen_split(cfg, layout, k, "train", cfg.train_size, rng_tr)
        test = _gen_split(cfg, layout, k, "test", cfg.test_size, rng_te)
        domains.append(DomainData(name=f"{cfg.setting}_d{k}", index=k,
                                  train=train, test=test))
    return DomainStream(cfg.setting, domains, synthetic_vocab(cfg), cfg.l_max)


def generate_cdaq_stream(cfg: GenConfig) -> DomainStream:
    """Question-type shift: shared passages, per-domain question markers."""
    cfg.setting = "cdaq"
    return _generate_stream(cfg)


def generate_cdac_stream(cfg: GenConfig) -> DomainStream:
    """Passage shift: fixed question task, per-domain fillers and lengths."""
    cfg.setting = "cdac"
    return _generate_stream(cfg)


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


# ---------------------------------------------------------------------------
# file I/O

def write_stream(stream: DomainStream, out_dir) -> None:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for dom in stream.domains:
        for split, samples in (("train", dom.train), ("test", dom.test)):
            with open(out / f"{dom.name}.{split}.jsonl", "w", encoding="utf-8") as f:
                for s in samples:
                    f.write(json.dumps({
                        "id": s.id, "domain": s.domain,
                        "question_ids": s.question_ids,
                        "passage_ids": s.passage_ids,
                        "answer_start": s.answer_start,
                        "answer_end": s.answer_end,
                    }, sort_keys=True) + "\n")
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
    with open(root / "manifest.json", encoding="utf-8") as f:
        manifest = json.load(f)
    vocab = read_vocab(root / "vocab.txt")
    domains = []
    for idx, name in enumerate(manifest["domains"]):
        splits = {}
        for split in ("train", "test"):
            path = root / f"{name}.{split}.jsonl"
            splits[split], dropped = read_jsonl_samples(path, manifest["l_max"], vocab)
        domains.append(DomainData(name=name, index=idx,
                                  train=splits["train"], test=splits["test"]))
    return DomainStream(manifest["setting"], domains, vocab, manifest["l_max"])


def read_vocab(path) -> dict[str, int]:
    vocab = {}
    with open(path, encoding="utf-8") as f:
        for line in f:
            if line.strip():
                tok, tid = line.rstrip("\n").split("\t")
                vocab[tok] = int(tid)
    return vocab


def read_jsonl_samples(path, l_max: int, vocab: dict[str, int] | None = None):
    """Read one domain file, token-level or text records by field presence.

    Returns (samples, dropped_count); text records that fail span recovery
    are dropped and counted, never raised.
    """
    samples: list[Sample] = []
    dropped = 0
    if vocab is None:
        vocab = {CLS_TOKEN: CLS_ID, SEP_TOKEN: SEP_ID, UNK_TOKEN: UNK_ID}
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            if not line.strip():
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as e:
                raise ValueError(f"{path}:{lineno}: malformed JSON: {e}") from None
            if "question_ids" in rec:
                sample = Sample(id=str(rec["id"]), domain=int(rec["domain"]),
                                question_ids=list(rec["question_ids"]),
                                passage_ids=list(rec["passage_ids"]),
                                answer_start=int(rec["answer_start"]),
                                answer_end=int(rec["answer_end"]))
                try:
                    samples.append(sample.assemble(l_max))
                except ValueError:
                    dropped += 1
            else:
                sample = _sample_from_text(rec, vocab, l_max, path, lineno)
                if sample is None:
                    dropped += 1
                else:
                    samples.append(sample)
    if not samples:
        log.warning("%s: no usable samples (%d dropped)", path, dropped)
    return samples, dropped


def ingest_jsonl(path, l_max: int = 64, vocab: dict[str, int] | None = None):
    """Ingest a text-record file as one domain; extends the vocab in place."""
    if vocab is None:
        vocab = {CLS_TOKEN: CLS_ID, SEP_TOKEN: SEP_ID, UNK_TOKEN: UNK_ID}
    samples, dropped = read_jsonl_samples(path, l_max, vocab)
    return samples, vocab, dropped


def _tokenize(text: str, vocab: dict[str, int], extend: bool):
    ids = []
    spans = []  # (char_start, char_end) per token
    pos = 0
    for tok in text.split():
        start = text.index(tok, pos)
        spans.append((start, start + len(tok)))
        pos = start + len(tok)
        if tok not in vocab:
            if extend:
                vocab[tok] = len(vocab)
            else:
                ids.append(UNK_ID)
                continue
        ids.append(vocab[tok])
    return ids, spans


def _sample_from_text(rec, vocab, l_max, path, lineno):
    for key in ("id", "domain", "question", "passage", "answer_text", "answer_char_start"):
        if key not in rec:
            raise ValueError(f"{path}:{lineno}: missing field {key!r}")
    q_ids, _ = _tokenize(rec["question"], vocab, extend=True)
    p_ids, p_spans = _tokenize(rec["passage"], vocab, extend=True)
    if not q_ids or not p_ids:
        return None
    char_start = int(rec["answer_char_start"])
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
    offset = 1 + len(q_ids) + 1
    sample = Sample(id=str(rec["id"]), domain=int(rec["domain"]),
                    question_ids=q_ids, passage_ids=p_ids,
                    answer_start=tok_start + offset, answer_end=tok_end + offset)
    try:
        return sample.assemble(l_max)
    except ValueError:
        return None
