"""Post-CNN decision smoothing.

Two stages, run constraints first (they encode what the physics allows, the
low-pass removes noise):

* heuristic constraints that replace impossible raw decisions with the last
  valid one: no reappearance on the opposite side while rotating after a
  loss, no single-step center-to-nonvisible flip, no direct left/right swap;
* a bounded analog low-pass over the four LCRN states: the raw decision's
  state gains alpha, the other three lose alpha, all clamped to [0, 1], and
  the winner is the largest state with ties keeping the previous winner.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from evsteer.behavior import Mode
from evsteer.nnet import Decision


@dataclass
class FilterConfig:
    alpha: float = 0.25
    constraints: bool = True

    def __post_init__(self):
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError("alpha must be in (0, 1]")


class LowPass:
    """Bounded LCRN state filter. Initial state: N=1, others 0."""

    def __init__(self, alpha: float = 0.25):
        if not 0.0 < alpha <= 1.0:
            raise ValueError("alpha must be in (0, 1]")
        self.alpha = alpha
        self.states = np.array([0.0, 0.0, 0.0, 1.0])
        self.winner = Decision.N

    def update(self, raw: Decision) -> Decision:
        # on Python floats: the same sums and clamps as np.clip(states +
        # delta, 0, 1), NaN included, since max and min keep their first
        # argument; four elements are too few to pay numpy's call overhead
        a, r = self.alpha, int(raw)
        states = [min(max(v + a if i == r else v - a, 0.0), 1.0)
                  for i, v in enumerate(self.states.tolist())]
        self.states = np.array(states)
        best = max(states)
        # a NaN state makes numpy's max NaN, and nothing compares below it
        if states[self.winner] < best and not math.isnan(sum(states)):
            self.winner = Decision(states.index(best))  # the first maximum
        return self.winner


_OPPOSITE = {Decision.L: Decision.R, Decision.R: Decision.L}


class ConstraintGate:
    """Replaces physically impossible raw decisions with the last valid one.

    Rules, checked against the last decision that passed the gate:
      (a) while rotating after losing the prey on side S, a decision naming
          the opposite side is discarded;
      (b) a single-step C -> N flip is discarded; a second consecutive raw N
          passes, otherwise a vanished prey could never be declared lost;
      (c) direct L <-> R swaps are discarded.
    """

    def __init__(self):
        self.last_valid = Decision.N
        self.last_side: Decision | None = None  # side seen just before an N
        self._prev_visible: Decision | None = None
        self._pending_n = False

    def apply(self, raw: Decision, mode: Mode = Mode.CHASE) -> Decision:
        last = self.last_valid

        if (mode is Mode.ROTATE and self.last_side is not None
                and raw is _OPPOSITE.get(self.last_side)):
            self._pending_n = False
            return last
        if raw is Decision.N and last is Decision.C and not self._pending_n:
            self._pending_n = True
            return last
        if raw in (Decision.L, Decision.R) and last is _OPPOSITE.get(raw):
            self._pending_n = False
            return last

        self._pending_n = False
        if raw is Decision.N:
            if last is not Decision.N:
                self.last_side = (self._prev_visible
                                  if self._prev_visible in (Decision.L, Decision.R)
                                  else None)
        else:
            self._prev_visible = raw
        self.last_valid = raw
        return raw


class DecisionFilter:
    """constraints -> low-pass pipeline; one instance per control loop."""

    def __init__(self, config: FilterConfig | None = None):
        self.config = config or FilterConfig()
        self.lowpass = LowPass(self.config.alpha)
        self.gate = ConstraintGate()

    def update(self, raw: Decision, mode: Mode = Mode.CHASE) -> Decision:
        if self.config.constraints:
            raw = self.gate.apply(raw, mode)
        return self.lowpass.update(raw)

