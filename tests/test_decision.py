import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evsteer.behavior import Mode
from evsteer.decision import (ConstraintGate, DecisionFilter, FilterConfig,
                              LowPass)
from evsteer.nnet import Decision

from oracles import replay_lowpass

L, C, R, N = Decision.L, Decision.C, Decision.R, Decision.N


class TestLowPass:
    def test_worked_example_two_c_decisions_flip_the_winner(self):
        lp = LowPass(alpha=0.25)
        lp.states = np.array([1.0, 0.25, 0.0, 0.0])
        lp.winner = L
        assert lp.update(C) is L
        np.testing.assert_allclose(lp.states[:2], [0.75, 0.5])
        assert lp.update(C) is C
        np.testing.assert_allclose(lp.states[:2], [0.5, 0.75])

    def test_from_zero_states_first_decision_wins(self):
        for d in (L, C, R, N):
            lp = LowPass(alpha=0.25)
            lp.states = np.zeros(4)
            lp.winner = N
            assert lp.update(d) is d
            assert lp.states[int(d)] == 0.25

    def test_states_stay_bounded(self, rng):
        lp = LowPass(alpha=0.4)
        for _ in range(2000):
            lp.update(Decision(int(rng.integers(4))))
            assert np.all(lp.states >= 0.0) and np.all(lp.states <= 1.0)

    def test_alpha_one_is_passthrough(self, rng):
        lp = LowPass(alpha=1.0)
        for _ in range(200):
            d = Decision(int(rng.integers(4)))
            assert lp.update(d) is d

    def test_matches_replay_oracle_100k(self):
        rng = np.random.default_rng(7)
        raws = rng.integers(0, 4, 100_000)
        lp = LowPass(alpha=0.25)
        got = [int(lp.update(Decision(int(d)))) for d in raws]
        expect = replay_lowpass(raws, 0.25)
        assert got == expect

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2 ** 31 - 1),
           st.sampled_from([0.1, 0.25, 0.4, 0.5, 1.0]))
    def test_oracle_equivalence_property(self, seed, alpha):
        rng = np.random.default_rng(seed)
        raws = rng.integers(0, 4, 500)
        lp = LowPass(alpha=alpha)
        got = [int(lp.update(Decision(int(d)))) for d in raws]
        assert got == replay_lowpass(raws, alpha)

    def test_k_consecutive_with_alpha_at_least_one_over_k(self):
        # exhaustive over a discretized state grid: k decisions d with
        # alpha >= 1/k force winner d from any start state
        grid = np.linspace(0.0, 1.0, 11)
        alpha, k = 0.25, 4
        states0 = np.stack(np.meshgrid(grid, grid, grid, grid,
                                       indexing="ij"), axis=-1).reshape(-1, 4)
        for d in range(4):
            s = states0.copy()
            for _ in range(k):
                delta = np.full(4, -alpha)
                delta[d] = alpha
                s = np.clip(s + delta, 0.0, 1.0)
            assert np.all(s[:, d] == 1.0)
            others = np.delete(s, d, axis=1)
            assert np.all(others < 1.0)

    def test_equals_the_np_clip_update(self):
        # the update was np.clip(states + delta, 0, 1), then argmax when the
        # winner's state fell below the maximum; arbitrary assigned states,
        # NaN among them, must step the same
        def clip_update(states, winner, raw, alpha):
            delta = np.full(4, -alpha)
            delta[raw] = alpha
            states = np.clip(states + delta, 0.0, 1.0)
            if states[winner] < states.max():
                winner = int(np.argmax(states))
            return states, winner

        rng = np.random.default_rng(51)
        picks = np.array([0.0, 0.25, 0.5, 1.0, -0.0, 1.5, -0.3, np.nan, np.inf])
        for _ in range(3000):
            alpha = float(rng.choice([0.1, 0.25, 0.4, 1.0]))
            states = np.where(rng.random(4) < 0.5, rng.choice(picks, 4), rng.random(4))
            lp = LowPass(alpha)
            lp.states, lp.winner = states.copy(), Decision(int(rng.integers(4)))
            want_states, want_winner = states, int(lp.winner)
            for raw in rng.integers(0, 4, 5):
                want_states, want_winner = clip_update(want_states, want_winner, raw, alpha)
                assert int(lp.update(Decision(int(raw)))) == want_winner
                assert lp.states.dtype == np.float64 and lp.states.shape == (4,)
                assert lp.states.tobytes() == want_states.tobytes()

    def test_invalid_alpha(self):
        with pytest.raises(ValueError):
            LowPass(alpha=0.0)
        with pytest.raises(ValueError):
            LowPass(alpha=1.5)


class TestConstraints:
    def test_single_step_c_to_n_suppressed_second_passes(self):
        gate = ConstraintGate()
        assert gate.apply(C) is C
        assert gate.apply(N) is C  # first N suppressed
        assert gate.apply(N) is N  # second consecutive N passes

    def test_c_to_n_then_visible_resets_suppression(self):
        gate = ConstraintGate()
        gate.apply(C)
        assert gate.apply(N) is C
        assert gate.apply(C) is C
        assert gate.apply(N) is C  # suppression applies afresh

    def test_left_right_swap_blocked(self):
        gate = ConstraintGate()
        assert gate.apply(L) is L
        assert gate.apply(R) is L
        assert gate.apply(R) is L  # still blocked until something else happens

    def test_right_left_swap_blocked(self):
        gate = ConstraintGate()
        assert gate.apply(R) is R
        assert gate.apply(L) is R

    def test_swap_allowed_through_center(self):
        gate = ConstraintGate()
        assert gate.apply(L) is L
        assert gate.apply(C) is C
        assert gate.apply(R) is R

    def test_opposite_side_discarded_in_rotate_mode(self):
        gate = ConstraintGate()
        gate.apply(L)
        gate.apply(N)  # prey lost after being on the left
        assert gate.last_side is L
        assert gate.apply(R, mode=Mode.ROTATE) is N
        assert gate.apply(L, mode=Mode.ROTATE) is L  # same side is fine

    def test_side_not_set_when_lost_from_center(self):
        gate = ConstraintGate()
        gate.apply(C)
        gate.apply(N)
        assert gate.apply(N) is N
        assert gate.last_side is None


def filter_stream(decisions, config=None):
    """The winner stream of one DecisionFilter fed the raw decisions in order."""
    filt = DecisionFilter(config)
    return [filt.update(Decision(d)) for d in decisions]


class TestPipeline:
    def test_constraints_off_alpha_one_is_identity(self, rng):
        filt = DecisionFilter(FilterConfig(alpha=1.0, constraints=False))
        raws = [Decision(int(rng.integers(4))) for _ in range(300)]
        assert [filt.update(d) for d in raws] == raws

    def test_alternating_lr_never_transitions_directly(self):
        out = filter_stream([L, R, L, R, L, R, L, R],
                            FilterConfig(alpha=1.0, constraints=True))
        for a, b in zip(out, out[1:]):
            assert not (a is L and b is R) and not (a is R and b is L)

    def test_filtered_stream_has_fewer_winner_changes(self):
        # noisy slow signal: long runs with random flips sprinkled in
        rng = np.random.default_rng(3)
        raw = []
        for block in range(40):
            true = Decision(int(rng.integers(4)))
            for _ in range(25):
                raw.append(Decision(int(rng.integers(4))) if rng.random() < 0.2
                           else true)
        out = filter_stream(raw, FilterConfig(alpha=0.4, constraints=False))

        def changes(seq):
            return sum(1 for a, b in zip(seq, seq[1:]) if a != b)

        assert changes(out) < changes(raw)

    def test_deterministic(self, rng):
        raws = [Decision(int(rng.integers(4))) for _ in range(500)]
        a = filter_stream(raws, FilterConfig(alpha=0.25))
        b = filter_stream(raws, FilterConfig(alpha=0.25))
        assert a == b

    def test_one_output_per_input(self, rng):
        raws = [Decision(int(rng.integers(4))) for _ in range(100)]
        assert len(filter_stream(raws)) == len(raws)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.integers(0, 3), min_size=1, max_size=200))
    def test_no_forbidden_transitions_in_constrained_output(self, seq):
        gate = ConstraintGate()
        out = [gate.apply(Decision(d)) for d in seq]
        for i in range(1, len(out)):
            a, b = out[i - 1], out[i]
            assert not (a is L and b is R)
            assert not (a is R and b is L)
            if a is C and b is N:
                # only reachable through two consecutive raw Ns
                assert seq[i] == int(N) and seq[i - 1] == int(N)
