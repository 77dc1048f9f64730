import math

import numpy as np
import pytest

from evsteer.behavior import (BehaviorConfig, BehaviorController, LaserScan,
                              Mode, VelocityCmd, potential_field_scale)
from evsteer.nnet import Decision

L, C, R, N = Decision.L, Decision.C, Decision.R, Decision.N


def scan_with(ranges=10.0, center=None, n=181):
    angles = np.radians(np.linspace(-90, 90, n))
    r = np.full(n, float(ranges))
    if center is not None:
        r[np.abs(angles) <= math.radians(20.0)] = center
    return LaserScan(angles=angles, ranges=r)


class TestPotentialField:
    def test_clear_scan_full_speed(self):
        assert potential_field_scale(scan_with(10.0), BehaviorConfig()) == 1.0

    def test_at_stop_distance_zero(self):
        cfg = BehaviorConfig()
        assert potential_field_scale(scan_with(center=cfg.safety_distance), cfg) == 0.0

    def test_midway_half(self):
        cfg = BehaviorConfig()
        mid = cfg.safety_distance * (1 + cfg.slow_factor) / 2
        assert potential_field_scale(scan_with(center=mid), cfg) == pytest.approx(0.5)

    def test_equals_np_clip_of_the_ramp(self):
        # the scale was float(np.clip(ramp, 0, 1)); NaN, signed zero and the
        # ends must come out the same
        cfg = BehaviorConfig()
        d_stop, d_slow = cfg.safety_distance, cfg.slow_factor * cfg.safety_distance
        ranges = [0.0, -0.0, d_stop, d_slow, math.inf, math.nan, 1e-300, -5.0]
        ranges += list(np.random.default_rng(41).uniform(0, 3, 200))
        for r in ranges:
            got = potential_field_scale(scan_with(center=r), cfg)
            want = float(np.clip((float(r) - d_stop) / (d_slow - d_stop), 0.0, 1.0))
            assert type(got) is float
            assert (math.isnan(got) and math.isnan(want)) or (
                got == want and math.copysign(1, got) == math.copysign(1, want)), r


class TestChase:
    def test_left_turns_ccw_at_full_speed(self):
        ctrl = BehaviorController()
        cmd = ctrl.step(L, scan_with(10.0), now=0.0)
        assert ctrl.mode is Mode.CHASE
        assert cmd.angular == pytest.approx(math.pi / 3)
        assert cmd.linear == pytest.approx(1.5)

    def test_right_turns_cw(self):
        ctrl = BehaviorController()
        cmd = ctrl.step(R, scan_with(10.0), now=0.0)
        assert cmd.angular == pytest.approx(-math.pi / 3)

    def test_center_drives_straight(self):
        ctrl = BehaviorController()
        cmd = ctrl.step(C, scan_with(10.0), now=0.0)
        assert cmd.angular == 0.0 and cmd.linear == pytest.approx(1.5)

    def test_linear_speed_respects_obstacle_scale(self):
        ctrl = BehaviorController()
        cfg = ctrl.cfg
        mid = cfg.safety_distance * (1 + cfg.slow_factor) / 2
        cmd = ctrl.step(C, scan_with(center=mid), now=0.0)
        assert cmd.linear == pytest.approx(0.5 * cfg.max_linear)


class TestRotate:
    def test_lost_after_right_spins_clockwise(self):
        ctrl = BehaviorController()
        ctrl.step(R, scan_with(), now=0.0)
        cmd = ctrl.step(N, scan_with(), now=0.1)
        assert ctrl.mode is Mode.ROTATE
        assert cmd.linear == 0.0
        assert cmd.angular == pytest.approx(-1.5)

    def test_lost_after_left_spins_counterclockwise(self):
        ctrl = BehaviorController()
        ctrl.step(L, scan_with(), now=0.0)
        cmd = ctrl.step(N, scan_with(), now=0.1)
        assert cmd.angular == pytest.approx(+1.5)

    def test_rotate_linear_exactly_zero_for_whole_episode(self):
        ctrl = BehaviorController()
        ctrl.step(L, scan_with(), now=0.0)
        for k in range(40):
            cmd = ctrl.step(N, scan_with(), now=0.1 + k * 0.1)
            if ctrl.mode is Mode.ROTATE:
                assert cmd.linear == 0.0
                assert cmd.angular == pytest.approx(+1.5)

    def test_times_out_to_wander_after_five_seconds(self):
        ctrl = BehaviorController()
        ctrl.step(L, scan_with(), now=0.0)
        ctrl.step(N, scan_with(), now=1.0)
        assert ctrl.mode is Mode.ROTATE
        ctrl.step(N, scan_with(), now=5.9)
        assert ctrl.mode is Mode.ROTATE  # 4.9 s of N so far
        ctrl.step(N, scan_with(), now=6.0)
        assert ctrl.mode is Mode.WANDER

    def test_no_chase_to_wander_without_timeout(self):
        ctrl = BehaviorController()
        ctrl.step(C, scan_with(), now=0.0)
        prev = ctrl.mode
        for k in range(49):
            ctrl.step(N, scan_with(), now=0.1 * (k + 1))
            if prev is Mode.CHASE:
                assert ctrl.mode is not Mode.WANDER
            prev = ctrl.mode
        ctrl.step(N, scan_with(), now=5.2)
        assert ctrl.mode is Mode.WANDER


class TestPreyCaught:
    def test_triggered_only_by_center_and_close_range(self):
        ctrl = BehaviorController()
        close = scan_with(center=0.5)
        cmd = ctrl.step(C, close, now=0.0)
        assert ctrl.mode is Mode.PREY_CAUGHT
        assert cmd == VelocityCmd(0.0, 0.0)

    def test_not_triggered_by_left_decision(self):
        ctrl = BehaviorController()
        ctrl.step(L, scan_with(center=0.5), now=0.0)
        assert ctrl.mode is not Mode.PREY_CAUGHT

    def test_not_triggered_by_side_obstacle(self):
        angles = np.radians(np.linspace(-90, 90, 181))
        ranges = np.full(181, 10.0)
        ranges[np.abs(np.degrees(angles) - 60) < 5] = 0.3  # off-center
        ctrl = BehaviorController()
        ctrl.step(C, LaserScan(angles, ranges), now=0.0)
        assert ctrl.mode is Mode.CHASE

    def test_pause_then_resume(self):
        ctrl = BehaviorController()
        ctrl.step(L, scan_with(), now=0.0)
        ctrl.step(C, scan_with(center=0.5), now=0.2)
        assert ctrl.mode is Mode.PREY_CAUGHT
        assert ctrl.step(C, scan_with(), now=1.0) == VelocityCmd(0.0, 0.0)
        cmd = ctrl.step(C, scan_with(), now=3.5)  # pause expired, prey ahead
        assert ctrl.mode is Mode.CHASE
        assert cmd.linear > 0


class TestWander:
    def test_initial_mode_is_wander(self):
        ctrl = BehaviorController()
        ctrl.step(N, scan_with(), now=0.0)
        assert ctrl.mode is Mode.WANDER

    def test_same_seed_same_commands(self):
        cmds = []
        for _ in range(2):
            ctrl = BehaviorController(seed=42)
            cmds.append([ctrl.step(N, scan_with(), now=t * 0.5)
                         for t in range(40)])
        assert cmds[0] == cmds[1]

    def test_heading_coverage_over_minute(self):
        ctrl = BehaviorController(seed=1)
        heading = 0.0
        quadrants = set()
        t, dt = 0.0, 0.1
        while t < 60.0:
            cmd = ctrl.step(N, scan_with(), now=t)
            heading = (heading + cmd.angular * dt) % (2 * math.pi)
            quadrants.add(int(heading // (math.pi / 2)))
            t += dt
        assert len(quadrants) >= 3

    def test_obstacle_zeroes_linear(self):
        ctrl = BehaviorController(seed=2)
        cmd = ctrl.step(N, scan_with(center=0.2), now=0.0)
        assert ctrl.mode is Mode.WANDER
        assert cmd.linear == 0.0

    def test_linear_capped_at_half_max(self):
        ctrl = BehaviorController(seed=3)
        for t in range(50):
            cmd = ctrl.step(N, scan_with(), now=t * 0.5)
            assert cmd.linear <= 0.5 * ctrl.cfg.max_linear + 1e-12


class TestInvariants:
    def test_linear_never_exceeds_scaled_max(self, rng):
        ctrl = BehaviorController(seed=4)
        for k in range(500):
            d = Decision(int(rng.integers(4)))
            center = float(rng.uniform(0.1, 6.0))
            scan = scan_with(center=center)
            cmd = ctrl.step(d, scan, now=0.05 * k)
            scale = potential_field_scale(scan, ctrl.cfg)
            assert cmd.linear <= ctrl.cfg.max_linear * scale + 1e-12

    def test_replaying_decisions_reproduces_commands(self, rng):
        seq = [(Decision(int(rng.integers(4))), float(rng.uniform(0.3, 8.0)))
               for _ in range(300)]
        runs = []
        for _ in range(2):
            ctrl = BehaviorController(seed=9)
            runs.append([ctrl.step(d, scan_with(center=c), now=0.05 * i)
                         for i, (d, c) in enumerate(seq)])
        assert runs[0] == runs[1]

    def test_max_linear_validation(self):
        with pytest.raises(ValueError):
            BehaviorConfig(max_linear=2.5)
