"""Synthetic recording generation.

Each seeded recording drives the predator with a scripted operator-style
policy, whose chase phases are the closed loop's `BehaviorController` on the
oracle's label, while the prey wanders between random waypoints, with
per-recording randomized lighting gain, speeds, start poses, and distractor
placement. Ground-truth label lines come from the true prey bearing, written
every render step, so dataset labels need no hand work. Recordings land on
disk in the event/APS/label formats of evsteer.frames.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from evsteer.behavior import BehaviorController, VelocityCmd
from evsteer.config import DatagenConfig, steps_for_duration
from evsteer.frames import Recording, aps_resize, concat_events, label_from_target
from evsteer.sim import (START_MARGIN, RobotState, WaypointPolicy, WorldSim, wall_distance,
                         wrap_angle)


class ChaseScript:
    """Operator-style predator driver with phase variety for label coverage.

    track:  steer proportional to the prey bearing, close distance
    offset: track while holding the prey deliberately off-center (L/R labels)
    chase:  the closed loop's controller, stepped on the oracle's label and
            the world's laser, so training covers the closed loop's pursuit
    spin:   rotate in place at the controller's rotate rate, prey sweeping by
    sweep:  constant turn across the prey, producing L/C/R transitions
    lose:   turn away until the prey leaves the view (non-visible labels)
    pause:  full stop, letting leak noise fill DVS histograms
    """

    def __init__(self, rng, arena, base_speed, controller: BehaviorController):
        self.rng = rng
        self.arena = arena
        self.base_speed = self.phase_speed = base_speed
        self.controller = controller
        self.phase = "track"
        self.until = float(rng.uniform(1.5, 3.0))
        self.sweep_sign = 1.0
        self.offset = 0.0

    def _next_phase(self, t_s):
        r = self.rng.random()
        if r < 0.20:
            self.phase, dur = "track", self.rng.uniform(1.5, 3.0)
        elif r < 0.42:
            self.phase, dur = "offset", self.rng.uniform(1.5, 3.0)
            side = 1.0 if self.rng.random() < 0.5 else -1.0
            self.offset = side * float(self.rng.uniform(0.28, 0.62))
        elif r < 0.60:
            self.phase, dur = "chase", self.rng.uniform(1.5, 3.0)
        elif r < 0.72:
            self.phase, dur = "spin", self.rng.uniform(1.2, 2.6)
            self.sweep_sign = 1.0 if self.rng.random() < 0.5 else -1.0
        elif r < 0.80:
            self.phase, dur = "sweep", self.rng.uniform(0.8, 1.8)
            self.sweep_sign = 1.0 if self.rng.random() < 0.5 else -1.0
        elif r < 0.93:
            self.phase, dur = "lose", self.rng.uniform(2.0, 3.5)
            self.sweep_sign = 1.0 if self.rng.random() < 0.5 else -1.0
        else:
            self.phase, dur = "pause", self.rng.uniform(1.0, 1.8)
        self.phase_speed = self.base_speed * float(self.rng.uniform(0.6, 1.25))
        self.until = t_s + float(dur)

    def command(self, world: WorldSim, target) -> VelocityCmd:
        """The predator's command at world's render step, whose ground truth is target."""
        t_s = world.t_us / 1e6
        if t_s >= self.until:
            self._next_phase(t_s)
        if self.phase == "chase":
            return self.controller.step(label_from_target(target), world.laser(), now=t_s)
        if self.phase == "pause":
            return VelocityCmd(0.0, 0.0)
        if self.phase == "spin":
            return VelocityCmd(0.0, self.sweep_sign * self.controller.cfg.rotate_angular)
        state, prey = world.predator, world.prey
        bearing = wrap_angle(math.atan2(prey.y - state.y, prey.x - state.x) - state.heading)
        # damp forward speed near walls and when closing on the prey
        d_fwd = wall_distance(self.arena, state.x, state.y, state.heading)
        wall_scale = min(max((d_fwd - 0.6) / 1.5, 0.0), 1.0)
        if self.phase == "sweep":
            return VelocityCmd(0.35 * self.phase_speed * wall_scale,
                               self.sweep_sign * float(self.rng.uniform(0.8, 1.4)))
        if self.phase == "lose":
            away = -math.copysign(1.2, bearing if bearing != 0 else self.sweep_sign)
            return VelocityCmd(0.3 * self.phase_speed * wall_scale, away)
        aim = bearing - (self.offset if self.phase == "offset" else 0.0)
        ang = max(-1.05, min(1.05, 1.4 * aim + float(self.rng.normal(0.0, 0.22))))
        dist = math.hypot(prey.x - state.x, prey.y - state.y)
        approach_scale = min(max((dist - 0.9) / 1.2, 0.0), 1.0)
        return VelocityCmd(self.phase_speed * wall_scale * approach_scale, ang)


def _random_start(rng, arena):
    px = float(rng.uniform(START_MARGIN, arena.width - START_MARGIN))
    py = float(rng.uniform(START_MARGIN, arena.depth - START_MARGIN))
    heading = float(rng.uniform(-math.pi, math.pi))
    dist = float(rng.uniform(1.5, 4.5))
    bearing = heading + float(rng.uniform(-0.5, 0.5))
    qx = min(max(px + dist * math.cos(bearing), 1.0), arena.width - 1.0)
    qy = min(max(py + dist * math.sin(bearing), 1.0), arena.depth - 1.0)
    predator = RobotState(x=px, y=py, heading=heading)
    prey = RobotState(x=qx, y=qy, heading=float(rng.uniform(-math.pi, math.pi)))
    return predator, prey


def generate_recording(cfg: DatagenConfig, seed: int) -> Recording:
    """One deterministic scripted chase; returns the in-memory recording."""
    n_steps = steps_for_duration(cfg.duration, cfg.sim.timestep_us)
    seq = np.random.SeedSequence(seed)
    # a fifth child leaves the first four, and every draw from them, as they were
    world_seed, script_seed, prey_seed, scene_seed, behavior_seed = seq.spawn(5)
    scene_rng = np.random.default_rng(scene_seed)

    sim_cfg = replace(cfg.sim,
                      light_gain=float(scene_rng.uniform(cfg.light_min, cfg.light_max)))
    predator, prey = _random_start(scene_rng, sim_cfg.arena)
    # scene_rng draws stay in their pinned order: light, start, box, speeds
    depth = sim_cfg.arena.depth
    box = ((float(scene_rng.uniform(0.7, 1.6)), float(scene_rng.uniform(depth - 1.6, depth - 0.7)))
           if sim_cfg.arena.distractors else None)
    script = ChaseScript(np.random.default_rng(script_seed), sim_cfg.arena,
                         float(scene_rng.uniform(cfg.predator_speed_min, cfg.predator_speed_max)),
                         BehaviorController(cfg.behavior, int(behavior_seed.generate_state(1)[0])))
    prey_policy = WaypointPolicy(np.random.default_rng(prey_seed), sim_cfg.arena,
                                 speed=float(scene_rng.uniform(cfg.prey_speed_min,
                                                               cfg.prey_speed_max)))
    world = WorldSim(sim_cfg, world_seed, predator, prey, prey_policy)
    if box is not None:
        world.scene.distractors[0].x, world.scene.distractors[0].y = box

    event_chunks, aps_t, aps_raw = [], [], []
    label_t, targets = [0], [world.ground_truth()]

    for batch in world.run(n_steps):
        targets.append(world.ground_truth())
        world.set_command(script.command(world, targets[-1]))
        if len(batch.events):
            event_chunks.append(batch.events)
        aps_t += batch.aps_t
        aps_raw += [aps_resize(image) for image in batch.aps]
        label_t.append(world.t_us)

    return Recording(events=concat_events(event_chunks),
                     aps_t=np.array(aps_t, dtype=np.uint32),
                     aps_raw=(np.stack(aps_raw) if aps_raw
                              else np.zeros((0, 36, 36), dtype=np.float32)),
                     label_t=np.array(label_t, dtype=np.uint32),
                     label_x=np.array([-1 if x is None else x for x in targets],
                                      dtype=np.int16))
