import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evsteer.evaluation import (EvalRecord, accuracy, accuracy_curve,
                                class_distribution, confusion_matrix,
                                evaluate_records, is_correct, median_decision_rate,
                                source_split_errors)
from evsteer.frames import SOURCE_APS, SOURCE_DVS, label_from_target
from evsteer.nnet import Decision

L, C, R, N = Decision.L, Decision.C, Decision.R, Decision.N


def rec(decision, target_x, source=SOURCE_DVS, t=0):
    truth = N if target_x is None else label_from_target(target_x)
    return EvalRecord(decision=decision, truth_label=truth,
                      truth_target_x=target_x, source=source, t=t)


def brute_force_correct(decision, target_x, p):
    """Independent enumeration of the overlap rule for cross-checking."""
    truth = N if target_x is None else label_from_target(target_x)
    if decision == truth:
        return True
    if truth is N or p <= 0:
        return False  # p=0 must reduce exactly to label equality
    ok = set()
    if abs(target_x - 12) <= p:
        ok |= {L, C}
    if abs(target_x - 24) <= p:
        ok |= {C, R}
    if abs(target_x - 0) <= p:
        ok |= {L, N}
    if abs(target_x - 36) <= p:
        ok |= {R, N}
    return decision in ok


class TestIsCorrect:
    def test_p0_reduces_to_label_equality(self):
        for x in list(range(36)) + [None]:
            truth = N if x is None else label_from_target(x)
            for d in Decision:
                assert is_correct(rec(d, x), 0) == (d == truth)

    def test_boundary_example_x12_decision_L_p1(self):
        assert label_from_target(12) is C
        assert is_correct(rec(L, 12), 1)
        assert not is_correct(rec(L, 12), 0)

    def test_truth_nonvisible_never_excused(self):
        for d in (L, C, R):
            for p in range(6):
                assert not is_correct(rec(d, None), p)

    def test_outer_edge_accepts_n(self):
        assert is_correct(rec(N, 1), 1)  # truth L near left edge
        assert is_correct(rec(N, 35), 1)  # truth R near right edge
        assert not is_correct(rec(N, 5), 1)

    def test_exhaustive_against_brute_force(self):
        for x in list(range(36)) + [None]:
            for d in Decision:
                for p in range(4):
                    assert is_correct(rec(d, x), p) == brute_force_correct(d, x, p), \
                        (d, x, p)


class TestAccuracyCurve:
    def test_all_correct_flat_one(self):
        records = [rec(label_from_target(x), x) for x in range(36)]
        assert accuracy_curve(records) == [(0, 1.0), (1, 1.0), (2, 1.0), (3, 1.0)]

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2 ** 31 - 1))
    def test_monotone_nondecreasing(self, seed):
        rng = np.random.default_rng(seed)
        records = []
        for _ in range(100):
            x = None if rng.random() < 0.3 else int(rng.integers(36))
            records.append(rec(Decision(int(rng.integers(4))), x))
        curve = accuracy_curve(records, range(0, 6))
        for (_, a0), (_, a1) in zip(curve, curve[1:]):
            assert a1 >= a0

    def test_empty_records_error(self):
        with pytest.raises(ValueError):
            accuracy([], 0)


class TestConfusion:
    def test_row_sums_match_truth_counts(self, rng):
        records = []
        for _ in range(200):
            x = None if rng.random() < 0.5 else int(rng.integers(36))
            records.append(rec(Decision(int(rng.integers(4))), x))
        mat = confusion_matrix(records)
        assert mat.sum() == len(records)
        for d in Decision:
            assert mat[int(d)].sum() == sum(1 for r in records
                                            if r.truth_label is d)


class TestSourceSplit:
    def test_identical_records_equal_rates(self):
        records = [rec(C, 30, SOURCE_APS), rec(C, 30, SOURCE_DVS)]
        rates = source_split_errors(records)
        assert rates["APS"] == rates["DVS"] == 1.0

    def test_all_correct_dvs_all_wrong_aps(self):
        records = [rec(label_from_target(20), 20, SOURCE_DVS) for _ in range(5)]
        records += [rec(L, 30, SOURCE_APS) for _ in range(5)]
        rates = source_split_errors(records)
        assert (rates["APS"], rates["DVS"]) == (1.0, 0.0)

    def test_absent_source_is_undefined_not_zero(self):
        records = [rec(C, 20, SOURCE_DVS)]
        rates = source_split_errors(records)
        assert rates["APS"] is None


class TestIntervals:
    def test_uniform_10ms_gives_100hz(self):
        ts = np.arange(50) * 10_000
        assert median_decision_rate(ts) == pytest.approx(100.0)

    def test_fewer_than_two_timestamps(self):
        assert median_decision_rate([123]) is None
        assert median_decision_rate([]) is None

    def test_nonpositive_intervals_are_skipped(self):
        assert median_decision_rate([0, 10_000, 10_000, 5_000, 15_000]) == pytest.approx(100.0)
        assert median_decision_rate([7, 7, 7]) is None


class TestReport:
    def test_report_text_contains_curve_and_sources(self, rng):
        records = [rec(label_from_target(x), x,
                       SOURCE_APS if i % 2 else SOURCE_DVS, t=i * 11_000)
                   for i, x in enumerate(rng.integers(0, 36, 40))]
        rep = evaluate_records(records, timestamps=[r.t for r in records])
        text = rep.text()
        assert "accuracy p=0" in text
        assert "error rate APS" in text
        assert "median decision rate" in text
        assert rep.curve_csv().startswith("p,accuracy")

    def test_no_records_give_a_report_without_accuracy_rows(self):
        rep = evaluate_records([], timestamps=[], extra={"decisions": 0})
        text = rep.text()
        assert text.startswith("records: 0\n")
        assert "accuracy" not in text and "median decision rate" not in text
        assert "error rate DVS: undefined" in text and "decisions: 0" in text
        assert rep.curve_csv() == "p,accuracy\n"

    def test_class_distribution_sums_to_one(self, rng):
        records = [rec(Decision(int(rng.integers(4))), None) for _ in range(50)]
        assert sum(class_distribution(records).values()) == pytest.approx(1.0)
