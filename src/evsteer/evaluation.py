"""Offline and online evaluation.

Scores are computed over per-frame columns: decisions, truth labels, truth
target columns and sources, as a dataset stores them and a run log's DEC/GT
pairs give them. A target column of -1 means the target is absent.

Boundary-overlap accuracy: a decision counts as correct when it matches the
truth label, or when the truth target column lies within p pixels of a region
boundary (columns 12 and 24) and the decision names either adjacent region,
or within p of an outer edge (columns 0 and 36) and the decision is the edge
region or N. A visible decision against a non-visible truth is always wrong.
Margins are inclusive (|target - boundary| <= p) but engage only for p >= 1:
at p=0 correctness reduces exactly to label equality. `correct` is the one
place a decision is compared with its truth.

Of the decision timing a report gives only the median decision rate; the
1 ms interval histogram is `wire.LinkStats.intervals_ms`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from evsteer.frames import FRAME_SIZE, REGION_WIDTH, SOURCE_NAMES, class_mix
from evsteer.nnet import N_CLASSES, Decision

_REGIONS_AT = {REGION_WIDTH: (Decision.L, Decision.C),
               2 * REGION_WIDTH: (Decision.C, Decision.R)}
_EDGE_REGION = {0: Decision.L, FRAME_SIZE: Decision.R}
MARGINS = range(0, 4)  # the p of a report's accuracy rows


def correct(decisions, labels, target_x, p: int = 0) -> np.ndarray:
    """Bool column: is each decision correct under the overlap rule at p?"""
    decisions, labels, x = (np.asarray(c) for c in (decisions, labels, target_x))
    ok = decisions == labels
    if p <= 0:
        return ok
    # a visible decision against truth N is a false positive
    visible = (labels != Decision.N) & (x >= 0)
    for boundary, regions in _REGIONS_AT.items():
        ok |= visible & (np.abs(x - boundary) <= p) & np.isin(decisions, regions)
    for edge, region in _EDGE_REGION.items():
        ok |= visible & (np.abs(x - edge) <= p) & np.isin(decisions, (region, Decision.N))
    return ok


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


def evaluate_records(decisions, labels, target_x, source, timestamps=None,
                     extra=None) -> Report:
    """Report over per-frame columns; with no frames it has no accuracy rows."""
    decisions, labels, target_x, source = (np.asarray(c, dtype=np.int64) for c in
                                           (decisions, labels, target_x, source))
    n = len(decisions)
    curve = [(p, float(np.mean(correct(decisions, labels, target_x, p))))
             for p in MARGINS] if n else []
    ok = correct(decisions, labels, target_x)
    per_source = {}  # raw p=0 error rate per source; None when it is absent
    for src, name in SOURCE_NAMES.items():
        mine = source == src
        per_source[name] = 1.0 - float(np.mean(ok[mine])) if mine.any() else None
    confusion = np.bincount(labels * N_CLASSES + decisions,
                            minlength=N_CLASSES ** 2).reshape(N_CLASSES, N_CLASSES)
    rate = None if timestamps is None else median_decision_rate(timestamps)
    return Report(curve=curve, per_source_error=per_source, confusion=confusion,
                  class_mix=class_mix(labels), n_records=n, median_rate_hz=rate,
                  extra=dict(extra or {}))
