import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evsteer.evaluation import correct, evaluate_records, median_decision_rate
from evsteer.frames import SOURCE_APS, SOURCE_DVS, class_mix, label_from_target
from evsteer.nnet import Decision

L, C, R, N = Decision.L, Decision.C, Decision.R, Decision.N


def truth(target_x):
    """(label, target column) of a target, with -1 for an absent one."""
    if target_x is None:
        return N, -1
    return label_from_target(target_x), target_x


def columns(pairs, source=SOURCE_DVS):
    """(decisions, labels, target_x, source) columns of (decision, target) pairs."""
    truths = [truth(x) for _, x in pairs]
    return ([d for d, _ in pairs], [lab for lab, _ in truths], [x for _, x in truths],
            [source] * len(pairs))


def report(pairs, source=SOURCE_DVS, **kwargs):
    return evaluate_records(*columns(pairs, source), **kwargs)


def score(decision, target_x, p):
    label, x = truth(target_x)
    return bool(correct([decision], [label], [x], p)[0])


def brute_force_correct(decision, target_x, p):
    """Independent enumeration of the overlap rule for cross-checking."""
    label = truth(target_x)[0]
    if decision == label:
        return True
    if label is N or p <= 0:
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


# every (target, decision) pair: x in 0..35 or absent, times the four decisions
GRID = [(d, x) for x in list(range(36)) + [None] for d in Decision]


class TestIsCorrect:
    def test_p0_reduces_to_label_equality(self):
        decisions, labels, target_x, _ = columns(GRID)
        ok = correct(decisions, labels, target_x, 0)
        assert ok.dtype == bool and ok.shape == (len(GRID),)
        assert ok.tolist() == [d == lab for d, lab in zip(decisions, labels)]

    def test_boundary_example_x12_decision_L_p1(self):
        assert label_from_target(12) is C
        assert score(L, 12, 1)
        assert not score(L, 12, 0)

    def test_truth_nonvisible_never_excused(self):
        for d in (L, C, R):
            for p in range(6):
                assert not score(d, None, p)

    def test_truth_needs_both_a_visible_label_and_a_target(self):
        # a dataset file may pair a label with an absent target, or N with a column
        assert not correct([N, L], [L, N], [-1, 1], 3).any()

    def test_outer_edge_accepts_n(self):
        assert score(N, 1, 1)  # truth L near left edge
        assert score(N, 35, 1)  # truth R near right edge
        assert not score(N, 5, 1)

    def test_exhaustive_against_brute_force(self):
        cols = columns(GRID)[:3]
        for p in range(4):
            assert correct(*cols, p).tolist() == \
                [brute_force_correct(d, x, p) for d, x in GRID], p


class TestAccuracyCurve:
    def test_all_correct_flat_one(self):
        rep = report([(label_from_target(x), x) for x in range(36)])
        assert rep.curve == [(0, 1.0), (1, 1.0), (2, 1.0), (3, 1.0)]

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2 ** 31 - 1))
    def test_monotone_nondecreasing(self, seed):
        rng = np.random.default_rng(seed)
        pairs = []
        for _ in range(100):
            x = None if rng.random() < 0.3 else int(rng.integers(36))
            pairs.append((Decision(int(rng.integers(4))), x))
        # the report's rows are the first margins of the curve
        curve = [float(np.mean(correct(*columns(pairs)[:3], p))) for p in range(6)]
        assert report(pairs).curve == list(enumerate(curve[:4]))
        for a0, a1 in zip(curve, curve[1:]):
            assert a1 >= a0


class TestConfusion:
    def test_row_sums_match_truth_counts(self, rng):
        pairs = []
        for _ in range(200):
            x = None if rng.random() < 0.5 else int(rng.integers(36))
            pairs.append((Decision(int(rng.integers(4))), x))
        mat = report(pairs).confusion
        assert mat.sum() == len(pairs)
        for d in Decision:
            assert mat[int(d)].sum() == sum(1 for _, x in pairs if truth(x)[0] is d)


class TestSourceSplit:
    def test_identical_records_equal_rates(self):
        rates = evaluate_records([C, C], [R, R], [30, 30],
                                 [SOURCE_APS, SOURCE_DVS]).per_source_error
        assert rates["APS"] == rates["DVS"] == 1.0

    def test_all_correct_dvs_all_wrong_aps(self):
        dvs = columns([(label_from_target(20), 20)] * 5, SOURCE_DVS)
        aps = columns([(L, 30)] * 5, SOURCE_APS)
        rates = evaluate_records(*(a + b for a, b in zip(dvs, aps))).per_source_error
        assert (rates["APS"], rates["DVS"]) == (1.0, 0.0)

    def test_absent_source_is_undefined_not_zero(self):
        rates = report([(C, 20)]).per_source_error
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


def random_columns(seed):
    """0-60 frames with absent targets; every fourth set has one source only."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(0, 61))
    target_x = np.where(rng.random(n) < 0.3, -1, rng.integers(0, 36, n))
    labels = np.array([int(truth(None if x < 0 else int(x))[0]) for x in target_x],
                      dtype=np.uint8)
    decisions = rng.integers(0, 4, n)
    source = rng.integers(0, 2, n) if seed % 4 else np.full(n, seed % 8 // 4)
    timestamps = np.cumsum(rng.integers(0, 20_000, n))
    return decisions, labels, target_x, source, timestamps


# sha256 of text() + curve_csv() of the reports of random_columns(0..299),
# hashed while reports were scored frame by frame from per-frame records
RANDOM_REPORTS_SHA256 = "78d50dc029ca19f1e9551de2d4f59ffe57f1665a4cd545c4ffba480b0459d9f7"


class TestReport:
    def test_report_text_contains_curve_and_sources(self, rng):
        xs = [int(x) for x in rng.integers(0, 36, 40)]
        sources = [SOURCE_APS if i % 2 else SOURCE_DVS for i in range(len(xs))]
        decisions, labels, target_x, _ = columns([(label_from_target(x), x) for x in xs])
        rep = evaluate_records(decisions, labels, target_x, sources,
                               timestamps=[i * 11_000 for i in range(len(xs))])
        text = rep.text()
        assert "accuracy p=0" in text
        assert "error rate APS" in text
        assert "median decision rate" in text
        assert rep.curve_csv().startswith("p,accuracy")

    def test_no_records_give_a_report_without_accuracy_rows(self):
        rep = evaluate_records([], [], [], [], timestamps=[], extra={"decisions": 0})
        text = rep.text()
        assert text.startswith("records: 0\n")
        assert "accuracy" not in text and "median decision rate" not in text
        assert "error rate DVS: undefined" in text and "decisions: 0" in text
        assert rep.curve_csv() == "p,accuracy\n"

    def test_class_distribution_sums_to_one(self, rng):
        labels = rng.integers(0, 4, 50)
        assert sum(class_mix(labels).values()) == pytest.approx(1.0)
        assert report([(Decision(int(d)), None) for d in labels]).class_mix == class_mix([N] * 50)
        assert class_mix([]) == {"L": 0.0, "C": 0.0, "R": 0.0, "N": 0.0}

    def test_random_column_reports_are_pinned(self):
        digest = hashlib.sha256()
        for seed in range(300):
            decisions, labels, target_x, source, timestamps = random_columns(seed)
            rep = evaluate_records(decisions, labels, target_x, source,
                                   timestamps=timestamps)
            digest.update((rep.text() + rep.curve_csv()).encode())
        assert digest.hexdigest() == RANDOM_REPORTS_SHA256
