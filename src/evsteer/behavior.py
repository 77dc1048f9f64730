"""Pursuit behavior state machine and potential-field speed regulation.

The controller turns filtered LCRN decisions plus a forward laser scan into
(linear, angular) velocity commands. Left/right decisions turn at pi/3 rad/s
while driving at the obstacle-scaled maximum linear speed; center drives
straight; a lost prey triggers a spin toward the side it was last seen
(rotate mode) and, after a 5 s timeout, a seeded random walk (wander mode).
Closing within the safety distance while centered counts as a catch.

Timers run off the timestamps handed to step(), so tests control the clock.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import IntEnum

import numpy as np

from evsteer.nnet import Decision


class Mode(IntEnum):
    """Wire encoding for the feedback channel; values must not change."""

    CHASE = 0
    WANDER = 1
    ROTATE = 2
    PREY_CAUGHT = 3


@dataclass
class BehaviorConfig:
    max_linear: float = 1.5  # m/s
    chase_angular: float = math.pi / 3.0  # rad/s
    rotate_angular: float = 1.5  # rad/s
    lost_timeout: float = 5.0  # s of continuous N before wandering
    caught_pause: float = 3.0  # s to hold still after a catch
    safety_distance: float = 0.8  # m, catch trigger and potential-field stop
    slow_factor: float = 2.5  # d_slow = slow_factor * safety_distance
    center_laser_fov: float = 40.0  # deg, catch-detection sector
    wander_interval: float = 2.0  # s between random heading changes
    wander_linear_factor: float = 0.5  # of max_linear

    def __post_init__(self):
        if self.max_linear <= 0 or self.max_linear > 2.0:
            raise ValueError("max_linear must be in (0, 2] m/s")
        # the speed ramp runs from safety_distance up to slow_factor times it
        if not self.safety_distance > 0:
            raise ValueError("safety_distance must be positive")
        if not self.slow_factor > 1:
            raise ValueError("slow_factor must be greater than 1")
        if not (0 <= self.chase_angular < math.inf and 0 <= self.rotate_angular < math.inf):
            raise ValueError("chase_angular and rotate_angular must be finite and not negative")
        if not 0 < self.center_laser_fov <= 180:
            raise ValueError("center_laser_fov must be in (0, 180] deg")


@dataclass
class VelocityCmd:
    linear: float = 0.0  # m/s, forward
    angular: float = 0.0  # rad/s, positive is counterclockwise


@dataclass
class LaserScan:
    """Forward-sector ranges; angles in radians, positive to the left."""

    angles: np.ndarray
    ranges: np.ndarray
    _min_ranges: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def min_range(self, fov_deg):
        """Nearest range within the centred sector fov_deg wide, taken once per fov."""
        d_min = self._min_ranges.get(fov_deg)
        if d_min is None:
            r = self.ranges[np.abs(self.angles) <= math.radians(fov_deg) / 2.0]
            d_min = self._min_ranges[fov_deg] = float(r.min()) if r.size else math.inf
        return d_min


def potential_field_scale(scan: LaserScan, cfg: BehaviorConfig) -> float:
    """Linear-speed scale in [0, 1] from the nearest obstacle in the catch cone.

    Full speed beyond d_slow, zero at the safety distance, linear between.
    """
    d_stop = cfg.safety_distance
    d_slow = cfg.slow_factor * d_stop
    d_min = scan.min_range(cfg.center_laser_fov)
    return min(max((d_min - d_stop) / (d_slow - d_stop), 0.0), 1.0)


class BehaviorController:
    """Single-owner sequential controller, stepped once per decision."""

    def __init__(self, cfg: BehaviorConfig | None = None, seed: int = 0):
        self.cfg = cfg or BehaviorConfig()
        self.mode = Mode.WANDER  # starts searching until the prey is seen
        self.last_side: Decision | None = None
        self.n_since: float | None = None
        self.caught_at: float | None = None
        self.rng = np.random.default_rng(seed)
        self._wander_next = -math.inf
        self._wander_cmd = VelocityCmd()

    def _wander(self, now: float, scale: float) -> VelocityCmd:
        if now >= self._wander_next:
            self._wander_next = now + self.cfg.wander_interval
            ang = float(self.rng.uniform(-self.cfg.rotate_angular,
                                         self.cfg.rotate_angular))
            self._wander_cmd = VelocityCmd(
                linear=self.cfg.wander_linear_factor * self.cfg.max_linear,
                angular=ang)
        return VelocityCmd(self._wander_cmd.linear * scale,
                           self._wander_cmd.angular)

    def step(self, decision: Decision, scan: LaserScan, now: float) -> VelocityCmd:
        """Advance one decision tick; updates self.mode, returns the command."""
        cfg = self.cfg
        scale = potential_field_scale(scan, cfg)

        if self.mode is Mode.PREY_CAUGHT:
            if now - self.caught_at < cfg.caught_pause:
                return VelocityCmd(0.0, 0.0)
            self.mode = Mode.ROTATE if self.last_side is not None else Mode.WANDER
            self.n_since = now  # lost-timeout restarts at the pause's end

        if decision is not Decision.N:
            self.n_since = None
            if (decision is Decision.C
                    and scan.min_range(cfg.center_laser_fov) < cfg.safety_distance):
                self.mode = Mode.PREY_CAUGHT
                self.caught_at = now
                return VelocityCmd(0.0, 0.0)
            if decision is Decision.L:
                self.last_side = Decision.L
                self.mode = Mode.CHASE
                return VelocityCmd(cfg.max_linear * scale, cfg.chase_angular)
            if decision is Decision.R:
                self.last_side = Decision.R
                self.mode = Mode.CHASE
                return VelocityCmd(cfg.max_linear * scale, -cfg.chase_angular)
            self.mode = Mode.CHASE
            return VelocityCmd(cfg.max_linear * scale, 0.0)

        # non-visible
        if self.n_since is None:
            self.n_since = now
        if self.mode is Mode.WANDER or now - self.n_since >= cfg.lost_timeout:
            self.mode = Mode.WANDER
            return self._wander(now, scale)
        if self.last_side is not None:
            self.mode = Mode.ROTATE
            sign = 1.0 if self.last_side is Decision.L else -1.0
            return VelocityCmd(0.0, sign * cfg.rotate_angular)
        # never saw the prey off-center: hold position until the timeout
        return VelocityCmd(0.0, 0.0)
