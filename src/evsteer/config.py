"""Plain-text key=value configuration shared by every command.

Lines look like `filter.alpha = 0.25`; `#` starts a comment. Unknown keys are
rejected. Every default that has a counterpart in the deployed system it
mirrors is that system's value: 5000-event histograms, alpha 0.25, pi/3 rad/s
chase turn, 1.5 rad/s rotate, 5 s lost timeout, ~15 fps APS, 240 Hz
processing cap, 81 degree field of view, 9.5 x 6.7 m arena, 1.5 m/s top
speed, 0.1 Hz per-pixel leak.
"""

from __future__ import annotations

import math
from dataclasses import replace

from evsteer.behavior import BehaviorConfig
from evsteer.decision import FilterConfig
from evsteer.sim import ArenaConfig, CameraConfig, NoiseConfig, SimConfig


class ConfigError(Exception):
    """Bad key, bad value, or unreadable config file."""


U32_MAX_US = 2**32 - 1  # event, APS, label and run-log stamps are u32 microseconds


def steps_for_duration(duration_s, timestep_us):
    """Kinematics steps in a run; refuses runs whose u32 stamps would wrap."""
    n_steps = int(round(duration_s * 1e6 / timestep_us))
    if n_steps * timestep_us > U32_MAX_US:
        raise ConfigError(f"duration {duration_s} s ends past {U32_MAX_US / 1e6} s, "
                          f"where u32 microsecond timestamps wrap")
    return n_steps


DEFAULTS = {
    "arena.width": 9.5,
    "arena.depth": 6.7,
    "arena.wall_height": 0.5,
    "arena.distractors": True,
    "arena.moving_distractor": False,
    "camera.fov_deg": 81.0,
    "noise.leak_rate": 0.1,
    "noise.aps_burst": 150,
    "noise.threshold": 0.15,
    "sim.timestep_us": 1000,
    "sim.render_every": 5,
    "sim.aps_period_us": 66_667,
    "sim.light_gain": 1.0,
    "sim.corrupt_aps_prob": 0.0,
    "sim.scenario": "chase",
    "sim.rate_profile": "",  # "dur_s:events_per_s,..." cycled leak override
    "sim.duration": 30.0,
    "sim.prey_policy": "circle",
    "sim.prey_speed": 0.5,
    "sim.circle_radius": 1.8,
    "frames.capacity": 5000,
    "frames.aps_target_fraction": 0.45,
    "filter.alpha": 0.25,
    "filter.constraints": True,
    "behavior.max_linear": 1.5,
    "behavior.chase_angular": math.pi / 3.0,
    "behavior.rotate_angular": 1.5,
    "behavior.lost_timeout": 5.0,
    "behavior.caught_pause": 3.0,
    "behavior.safety_distance": 0.8,
    "behavior.slow_factor": 2.5,
    "behavior.center_laser_fov": 40.0,
    "behavior.center_vision_fov": 27.0,
    "behavior.wander_interval": 2.0,
    "behavior.wander_linear_factor": 0.5,
    "wire.peer": "127.0.0.1:9770",
    "wire.listen": 9771,
    "wire.rate_cap_hz": 240.0,
    "train.iterations": 20_000,
    "train.batch": 64,
    "train.lr": 1e-3,
    "train.dropout": 0.25,
    "train.eval_every": 500,
    "train.seed": 0,
    "gen.recordings": 20,
    "gen.duration": 8.0,
    "gen.seed_base": 1000,
    "gen.prey_speed_min": 0.25,
    "gen.prey_speed_max": 0.7,
    "gen.predator_speed_min": 0.5,
    "gen.predator_speed_max": 1.3,
    "gen.light_min": 0.65,
    "gen.light_max": 1.3,
}


def _coerce(key, text):
    default = DEFAULTS[key]
    text = text.strip()
    try:
        if isinstance(default, bool):
            low = text.lower()
            if low in ("true", "1", "yes", "on"):
                return True
            if low in ("false", "0", "no", "off"):
                return False
            raise ValueError(text)
        if isinstance(default, int):
            return int(text)
        if isinstance(default, float):
            return float(text)
        return text
    except ValueError:
        raise ConfigError(f"bad value for {key}: {text!r}") from None


class Config:
    """Immutable-ish view over DEFAULTS plus overrides."""

    def __init__(self, values=None):
        self.values = dict(DEFAULTS)
        for key, val in (values or {}).items():
            self.set(key, val)

    def set(self, key, value):
        if key not in DEFAULTS:
            raise ConfigError(f"unknown config key: {key}")
        if isinstance(value, str) and not isinstance(DEFAULTS[key], str):
            value = _coerce(key, value)
        self.values[key] = value

    def __getitem__(self, key):
        if key not in DEFAULTS:
            raise ConfigError(f"unknown config key: {key}")
        return self.values[key]

    def snapshot(self):
        return dict(sorted(self.values.items()))

    def dump(self) -> str:
        return "\n".join(f"{k} = {v}" for k, v in self.snapshot().items()) + "\n"


def load_config(path=None, overrides=()) -> Config:
    """Config from an optional file plus `key=value` override strings."""
    cfg = Config()
    if path is not None:
        try:
            with open(path) as fh:
                lines = fh.readlines()
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from None
        for lineno, line in enumerate(lines, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key = value")
            key, _, value = line.partition("=")
            cfg.set(key.strip(), value.strip())
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override must be key=value, got {item!r}")
        key, _, value = item.partition("=")
        cfg.set(key.strip(), value.strip())
    return cfg


def parse_rate_profile(text):
    """'10:470000,3:80000' -> ((10.0, 470000.0), (3.0, 80000.0))."""
    if not text:
        return ()
    phases = []
    for part in text.split(","):
        dur, _, rate = part.partition(":")
        try:
            phases.append((float(dur), float(rate)))
        except ValueError:
            raise ConfigError(f"bad rate profile segment {part!r}") from None
    return tuple(phases)


def build_sim_config(cfg: Config) -> SimConfig:
    arena = ArenaConfig(width=cfg["arena.width"], depth=cfg["arena.depth"],
                        wall_height=cfg["arena.wall_height"],
                        distractors=cfg["arena.distractors"],
                        moving_distractor=cfg["arena.moving_distractor"])
    camera = CameraConfig(hfov_deg=cfg["camera.fov_deg"])
    noise = NoiseConfig(leak_rate=cfg["noise.leak_rate"],
                        aps_burst=cfg["noise.aps_burst"],
                        threshold=cfg["noise.threshold"])
    return SimConfig(arena=arena, camera=camera, noise=noise,
                     timestep_us=cfg["sim.timestep_us"],
                     render_every=cfg["sim.render_every"],
                     aps_period_us=cfg["sim.aps_period_us"],
                     light_gain=cfg["sim.light_gain"],
                     corrupt_aps_prob=cfg["sim.corrupt_aps_prob"],
                     static_scene=cfg["sim.scenario"] in ("static", "rate_test"),
                     rate_profile=parse_rate_profile(cfg["sim.rate_profile"]))


def build_behavior_config(cfg: Config) -> BehaviorConfig:
    return BehaviorConfig(max_linear=cfg["behavior.max_linear"],
                          chase_angular=cfg["behavior.chase_angular"],
                          rotate_angular=cfg["behavior.rotate_angular"],
                          lost_timeout=cfg["behavior.lost_timeout"],
                          caught_pause=cfg["behavior.caught_pause"],
                          safety_distance=cfg["behavior.safety_distance"],
                          slow_factor=cfg["behavior.slow_factor"],
                          center_laser_fov=cfg["behavior.center_laser_fov"],
                          center_vision_fov=cfg["behavior.center_vision_fov"],
                          wander_interval=cfg["behavior.wander_interval"],
                          wander_linear_factor=cfg["behavior.wander_linear_factor"])


def build_filter_config(cfg: Config) -> FilterConfig:
    return FilterConfig(alpha=cfg["filter.alpha"],
                        constraints=cfg["filter.constraints"])


def build_runner_config(cfg: Config):
    from evsteer.runner import RunnerConfig

    return RunnerConfig(sim=build_sim_config(cfg),
                        behavior=build_behavior_config(cfg),
                        filter=build_filter_config(cfg),
                        capacity=cfg["frames.capacity"],
                        rate_cap_hz=cfg["wire.rate_cap_hz"],
                        scenario=cfg["sim.scenario"],
                        prey_policy=cfg["sim.prey_policy"],
                        prey_speed=cfg["sim.prey_speed"],
                        circle_radius=cfg["sim.circle_radius"],
                        duration_s=cfg["sim.duration"])


def build_datagen_config(cfg: Config):
    from evsteer.datagen import DatagenConfig

    return DatagenConfig(sim=build_sim_config(cfg),
                         duration_s=cfg["gen.duration"],
                         prey_speed_range=(cfg["gen.prey_speed_min"],
                                           cfg["gen.prey_speed_max"]),
                         predator_speed_range=(cfg["gen.predator_speed_min"],
                                               cfg["gen.predator_speed_max"]),
                         light_gain_range=(cfg["gen.light_min"],
                                           cfg["gen.light_max"]))
