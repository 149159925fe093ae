"""Namespace quality of one pipeline output against the generator's truth.

Every ratio keeps its base (numerator and denominator) so a report can
print it as, for example, "29/30".
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

SATURATED = 0.999


@dataclass(frozen=True)
class Ratio:
    num: int
    den: int

    @property
    def value(self) -> float:
        return self.num / self.den if self.den else 0.0

    def __str__(self) -> str:
        return f"{self.num}/{self.den}"


@dataclass(frozen=True)
class Quality:
    n_pure: int
    purity: float
    def_accuracy: Ratio
    score_saturation: Ratio
    n_namespaces: int


def _key(entry: dict) -> str:
    sub = entry.get("subscript")
    return entry["identifier"] if sub is None else f"{entry['identifier']}_{sub}"


def score(purity: dict, namespaces: dict, truth: dict[str, dict[str, str]]) -> Quality:
    """Score parsed ``purity.json`` and ``namespaces.json`` documents.

    ``n_pure`` and ``purity`` come from the selected combo.  An entry is
    in-topic when its identifier belongs to the topic the namespace is
    named after; it is correct when its definition is the ground truth.
    """
    selected = next(row for row in purity["rows"] if row["combo"] == purity["selected"])
    in_topic = correct = saturated = total = 0
    for ns in namespaces["namespaces"]:
        defs = truth.get(ns["name"], {})
        for entry in ns["entries"]:
            total += 1
            saturated += entry["score"] > SATURATED
            expected = defs.get(_key(entry))
            if expected is not None:
                in_topic += 1
                correct += entry["definition"] == expected
    return Quality(
        n_pure=int(selected["n_pure"]),
        purity=float(selected["overall"]),
        def_accuracy=Ratio(correct, in_topic),
        score_saturation=Ratio(saturated, total),
        n_namespaces=len(namespaces["namespaces"]),
    )


def score_dir(out_dir: Path, truth_path: Path) -> Quality:
    """Score the artifacts of one pipeline output directory."""

    def read(path: Path):
        return json.loads(path.read_text(encoding="utf-8"))

    return score(
        read(out_dir / "purity.json"), read(out_dir / "namespaces.json"), read(truth_path)
    )
