"""Offline and online evaluation.

Boundary-overlap accuracy: a decision counts as correct when it matches the
truth label, or when the truth target column lies within p pixels of a region
boundary (columns 12 and 24) and the decision names either adjacent region,
or within p of an outer edge (columns 0 and 36) and the decision is the edge
region or N. A visible decision against a non-visible truth is always wrong.
Margins are inclusive (|target - boundary| <= p) but engage only for p >= 1:
at p=0 correctness reduces exactly to label equality.

Of the decision timing a report gives only the median decision rate; the
1 ms interval histogram is `wire.LinkStats.intervals_ms`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from evsteer.frames import FRAME_SIZE, REGION_WIDTH, SOURCE_NAMES
from evsteer.nnet import Decision

INNER_BOUNDARIES = (REGION_WIDTH, 2 * REGION_WIDTH)  # 12, 24
OUTER_EDGES = (0, FRAME_SIZE)  # 0, 36
_REGIONS_AT = {REGION_WIDTH: (Decision.L, Decision.C),
               2 * REGION_WIDTH: (Decision.C, Decision.R)}
_EDGE_REGION = {0: Decision.L, FRAME_SIZE: Decision.R}


@dataclass
class EvalRecord:
    decision: Decision
    truth_label: Decision
    truth_target_x: int | None = None
    source: int | None = None  # frames.SOURCE_APS / SOURCE_DVS
    t: int = 0


def is_correct(rec: EvalRecord, p: int = 0) -> bool:
    if rec.decision == rec.truth_label:
        return True
    if rec.truth_label is Decision.N:
        return False  # a visible decision against truth N is a false positive
    x = rec.truth_target_x
    if x is None or p <= 0:
        return False
    for boundary, regions in _REGIONS_AT.items():
        if abs(x - boundary) <= p and rec.decision in regions:
            return True
    for edge, region in _EDGE_REGION.items():
        if abs(x - edge) <= p and rec.decision in (region, Decision.N):
            return True
    return False


def accuracy(records, p: int = 0) -> float:
    if not records:
        raise ValueError("no records to evaluate")
    return sum(is_correct(r, p) for r in records) / len(records)


def accuracy_curve(records, ps=range(0, 4)):
    """[(p, accuracy)] pairs; non-decreasing in p by construction."""
    return [(int(p), accuracy(records, int(p))) for p in ps]


def confusion_matrix(records) -> np.ndarray:
    """4x4 counts, rows are truth, columns are the decision."""
    mat = np.zeros((4, 4), dtype=np.int64)
    for r in records:
        mat[int(r.truth_label), int(r.decision)] += 1
    return mat


def source_split_errors(records):
    """Raw p=0 error rate per source tag; None when a source is absent."""
    rates = {}
    for src, name in SOURCE_NAMES.items():
        subset = [r for r in records if r.source == src]
        if not subset:
            rates[name] = None
        else:
            rates[name] = 1.0 - accuracy(subset, 0)
    return rates


def class_distribution(records):
    n = max(len(records), 1)
    return {d.name: sum(1 for r in records if r.truth_label is d) / n
            for d in Decision}


def median_decision_rate(timestamps_us):
    """Median decision rate over the positive inter-decision intervals.

    None when there is no positive interval (fewer than two timestamps).
    """
    intervals = np.diff(np.asarray(timestamps_us, dtype=np.int64))
    intervals = intervals[intervals > 0]
    if intervals.size == 0:
        return None
    return 1e6 / float(np.median(intervals))


@dataclass
class Report:
    curve: list
    per_source_error: dict
    confusion: np.ndarray
    class_mix: dict
    n_records: int
    median_rate_hz: float | None = None
    extra: dict = field(default_factory=dict)

    def text(self) -> str:
        lines = [f"records: {self.n_records}"]
        for p, acc in self.curve:
            lines.append(f"accuracy p={p}: {acc:.4f}")
        for name, rate in sorted(self.per_source_error.items()):
            shown = "undefined" if rate is None else f"{rate:.4f}"
            lines.append(f"error rate {name}: {shown}")
        lines.append("class mix: " + " ".join(
            f"{k}={v:.3f}" for k, v in self.class_mix.items()))
        lines.append("confusion (rows truth L C R N):")
        for row in self.confusion:
            lines.append("  " + " ".join(f"{v:6d}" for v in row))
        if self.median_rate_hz is not None:
            lines.append(f"median decision rate: {self.median_rate_hz:.1f} Hz")
        for key in sorted(self.extra):
            lines.append(f"{key}: {self.extra[key]}")
        return "\n".join(lines) + "\n"

    def curve_csv(self) -> str:
        rows = ["p,accuracy"]
        rows += [f"{p},{acc:.6f}" for p, acc in self.curve]
        return "\n".join(rows) + "\n"


def evaluate_records(records, ps=range(0, 4), timestamps=None, extra=None) -> Report:
    """Report over records; with no records it has no accuracy rows."""
    rate = None if timestamps is None else median_decision_rate(timestamps)
    return Report(curve=accuracy_curve(records, ps) if records else [],
                  per_source_error=source_split_errors(records),
                  confusion=confusion_matrix(records),
                  class_mix=class_distribution(records),
                  n_records=len(records),
                  median_rate_hz=rate,
                  extra=dict(extra or {}))


def dataset_records(dataset, decisions):
    """Pair network decisions with a Dataset's ground truth."""
    out = []
    for i, dec in enumerate(decisions):
        x = int(dataset.target_x[i])
        out.append(EvalRecord(decision=Decision(int(dec)),
                              truth_label=Decision(int(dataset.labels[i])),
                              truth_target_x=None if x < 0 else x,
                              source=int(dataset.source[i]), t=i))
    return out
