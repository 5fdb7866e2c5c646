"""EM/F1 scoring, continual-learning aggregates, and report files.

A report is a single JSON document with a stable schema; identical runs
produce byte-identical files (timings live in a sidecar, never in the
canonical report).
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
import sys
from collections import Counter
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field

SCHEMA_VERSION = 1


def _list_of(kind):
    return lambda v: type(v) is list and all(type(i) is kind for i in v)


# The JSON values each annotation or field kind takes: an int is no bool, a float is finite
JSON_TYPES = {"int": ("an int", lambda v: type(v) is int),
              "float": ("a finite float",
                        lambda v: type(v) in (int, float) and abs(v) <= sys.float_info.max),
              "str": ("a str", lambda v: type(v) is str),
              "str | int": ("a str or an int", lambda v: type(v) in (str, int)),
              "list[int]": ("a list of ints", _list_of(int)),
              "non-empty list[str]": ("a non-empty list of strs",
                                      lambda v: v != [] and _list_of(str)(v)),
              "list[int] | None": ("a list of ints or None",
                                   lambda v: v is None or _list_of(int)(v)),
              "object": ("an object", lambda v: type(v) is dict),
              "list[object]": ("a list of objects", _list_of(dict)),
              "non-empty list[object]": ("a non-empty list of objects",
                                         lambda v: v != [] and _list_of(dict)(v))}
# The kind of each field of a report step and of a step's per-domain entry
STEP_FIELDS = {"step": "int", "trained_domain": "int",
               "per_domain": "non-empty list[object]", "f1_avg": "float",
               "f1_all": "float", "extra": "object"}
SCORE_FIELDS = {"domain": "int", "em": "float", "f1": "float"}


def require_fields(rec, kinds: dict[str, str], where: str):
    """Reject a record that is not a JSON object, lacks a field of kinds or
    holds a value not of the field's JSON_TYPES kind, naming where it came from."""
    if type(rec) is not dict:
        raise ValueError(f"{where}: not a JSON object")
    for key, kind in kinds.items():
        if key not in rec:
            raise ValueError(f"{where}: missing field {key!r}")
        what, typed = JSON_TYPES[kind]
        if not typed(rec[key]):
            raise ValueError(f"{where}: {key} must be {what}, got {rec[key]!r}")


@contextmanager
def atomic_write(path, mode="w", **kwargs):
    """Open a temp file beside path and rename it onto path once the block
    ends, so a crash mid-write leaves no truncated file at path."""
    with open(f"{path}.tmp", mode, **kwargs) as f:
        yield f
    os.replace(f"{path}.tmp", path)


def parse_json(raw, where):
    """json.loads(raw); malformed JSON raises a ValueError that names where."""
    try:
        return json.loads(raw)
    except ValueError as e:
        raise ValueError(f"{where}: malformed JSON: {e}") from None


def em_f1(pred_ids, gold_ids) -> tuple[int, float]:
    """Exact match and token-multiset F1 between two id sequences."""
    if not gold_ids:
        raise ValueError("gold answer must be non-empty")
    pred = list(pred_ids)
    gold = list(gold_ids)
    em = 1 if pred == gold else 0
    if not pred:
        return 0, 0.0
    overlap = sum((Counter(pred) & Counter(gold)).values())
    if overlap == 0:
        return em, 0.0
    precision = overlap / len(pred)
    recall = overlap / len(gold)
    return em, 2 * precision * recall / (precision + recall)


def f1_avg(per_domain_f1) -> float:
    """Unweighted mean of per-domain F1 scores."""
    vals = list(per_domain_f1)
    if not vals:
        raise ValueError("f1_avg of empty list")
    return sum(vals) / len(vals)


def f1_all(per_sample_f1_by_domain) -> float:
    """Sample-weighted F1 over the pooled union of all seen test sets."""
    return f1_avg(f for dom in per_sample_f1_by_domain for f in dom)


@dataclass
class StepResult:
    step: int                      # 1-based position in the stream
    trained_domain: int            # domain index trained at this step
    per_domain: list[dict]         # [{domain, em, f1}] for every seen domain
    f1_avg: float
    f1_all: float
    extra: dict = field(default_factory=dict)


@dataclass
class EvalReport:
    metadata: dict
    steps: list[StepResult] = field(default_factory=list)

    def forgetting_matrix(self) -> list[list[float]]:
        """Lower-triangular per-step rows of per-domain F1."""
        return [[e["f1"] for e in s.per_domain] for s in self.steps]

    def forgetting_deltas(self) -> list[float]:
        """F1 at each domain's introduction step minus F1 at the final step."""
        if len(self.steps) < 2:
            return []
        final = {e["domain"]: e["f1"] for e in self.steps[-1].per_domain}
        deltas = []
        for s in self.steps:
            intro = s.per_domain[-1]
            if intro["domain"] in final:
                deltas.append(intro["f1"] - final[intro["domain"]])
        return deltas

    def to_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "metadata": self.metadata,
            "steps": [asdict(s) for s in self.steps],
            "forgetting_matrix": self.forgetting_matrix(),
            "forgetting_deltas": self.forgetting_deltas(),
        }

    def save(self, path):
        with atomic_write(path, encoding="utf-8") as f:
            json.dump(self.to_dict(), f, sort_keys=True, indent=2)
            f.write("\n")

    @classmethod
    def from_dict(cls, d, where) -> "EvalReport":
        """Inverse of ``to_dict``; a report that is not of schema 1, or whose
        steps, per-domain scores or metadata.order hold a value of another
        JSON kind, raises an error naming where."""
        version = d.get("schema_version") if type(d) is dict else None
        if type(version) is not int or version != SCHEMA_VERSION \
                or type(d.get("metadata")) is not dict:
            raise ValueError(f"{where}: not a report of schema {SCHEMA_VERSION}")
        try:
            report = cls(metadata=d["metadata"], steps=[StepResult(**s) for s in d["steps"]])
            require_fields(d, {"steps": "list[object]"}, "top level")
            require_fields({"order": d["metadata"].get("order", [])}, {"order": "list[int]"},
                           "metadata")
            for i, s in enumerate(d["steps"]):
                require_fields(s, STEP_FIELDS, f"steps[{i}]")
                for j, e in enumerate(s["per_domain"]):
                    require_fields(e, SCORE_FIELDS, f"steps[{i}].per_domain[{j}]")
        except (KeyError, TypeError, ValueError) as e:
            raise ValueError(f"{where}: malformed report ({e})") from None
        return report

    @classmethod
    def load(cls, path) -> "EvalReport":
        with open(path, "rb") as f:
            return cls.from_dict(parse_json(f.read(), path), path)

    def write_csv(self, path):
        """F1-vs-step curve: step, domain, f1, em, f1_avg, f1_all."""
        with open(path, "w", newline="", encoding="utf-8") as f:
            writer = csv.writer(f)
            writer.writerow(["step", "domain", "f1", "em", "f1_avg", "f1_all"])
            for s in self.steps:
                for e in s.per_domain:
                    writer.writerow([s.step, e["domain"], f"{e['f1']:.6f}",
                                     f"{e['em']:.6f}", f"{s.f1_avg:.6f}",
                                     f"{s.f1_all:.6f}"])

    def format_table(self) -> str:
        """Human-readable forgetting-matrix table."""
        lines = []
        md = self.metadata
        lines.append(f"method={md.get('method')} seed={md.get('seed')} "
                     f"order={md.get('order')}")
        header = ["step"] + [f"D{d}" for d in md.get("order", [])] + ["F1_avg", "F1_all"]
        lines.append("  ".join(f"{h:>8}" for h in header))
        for s in self.steps:
            by_dom = {e["domain"]: e["f1"] for e in s.per_domain}
            cells = [f"{s.step:>8}"]
            for d in md.get("order", []):
                cells.append(f"{by_dom[d] * 100:8.2f}" if d in by_dom else f"{'-':>8}")
            cells.append(f"{s.f1_avg * 100:8.2f}")
            cells.append(f"{s.f1_all * 100:8.2f}")
            lines.append("  ".join(cells))
        deltas = self.forgetting_deltas()
        if len(deltas) > 1:
            lines.append("forgetting deltas (F1 points): "
                         + ", ".join(f"{d * 100:.2f}" for d in deltas))
        return "\n".join(lines)


def config_hash(config_dict: dict) -> str:
    blob = json.dumps(config_dict, sort_keys=True).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()[:16]
