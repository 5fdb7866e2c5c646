"""EM/F1 scoring, continual-learning aggregates, and report files.

A report is a single JSON document with a stable schema; identical runs
produce byte-identical files (timings live in a sidecar, never in the
canonical report).
"""

from __future__ import annotations

import csv
import hashlib
import json
from collections import Counter
from dataclasses import dataclass, field

SCHEMA_VERSION = 1


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
    pooled = [f for dom in per_sample_f1_by_domain for f in dom]
    if not pooled:
        raise ValueError("f1_all of empty pool")
    return sum(pooled) / len(pooled)


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
            "steps": [{
                "step": s.step,
                "trained_domain": s.trained_domain,
                "per_domain": s.per_domain,
                "f1_avg": s.f1_avg,
                "f1_all": s.f1_all,
                "extra": s.extra,
            } for s in self.steps],
            "forgetting_matrix": self.forgetting_matrix(),
            "forgetting_deltas": self.forgetting_deltas(),
        }

    def save(self, path):
        with open(path, "w", encoding="utf-8") as f:
            json.dump(self.to_dict(), f, sort_keys=True, indent=2)
            f.write("\n")

    @classmethod
    def from_dict(cls, d: dict) -> "EvalReport":
        if d.get("schema_version") != SCHEMA_VERSION:
            raise ValueError(f"unsupported report schema {d.get('schema_version')}")
        report = cls(metadata=d["metadata"])
        for s in d["steps"]:
            report.steps.append(StepResult(
                step=s["step"], trained_domain=s["trained_domain"],
                per_domain=s["per_domain"], f1_avg=s["f1_avg"],
                f1_all=s["f1_all"], extra=s.get("extra", {})))
        return report

    @classmethod
    def load(cls, path) -> "EvalReport":
        with open(path, encoding="utf-8") as f:
            return cls.from_dict(json.load(f))

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
