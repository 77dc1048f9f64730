"""Plain-text key=value configuration shared by every command.

Lines look like `filter.alpha = 0.25`; `#` starts a comment. Unknown keys are
rejected. The defaults live on the config dataclass fields under `Settings`,
and nowhere else: a field whose default is a config dataclass names a
section, and each plain field under it is the key `<section>.<field>`, so
`Settings.sim.filter.alpha` is `filter.alpha` and `Settings.sim.duration` is
`sim.duration`. Text values are coerced to the type of the default.
`simulate --dry-run` lists every key with its value. Every default that has a
counterpart in the deployed system it mirrors is that system's value:
5000-event histograms, alpha 0.25, pi/3 rad/s chase turn, 1.5 rad/s rotate,
5 s lost timeout, ~15 fps APS, 240 Hz processing cap, 81 degree field of
view, 9.5 x 6.7 m arena, 1.5 m/s top speed, 0.1 Hz per-pixel leak.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, is_dataclass

from evsteer.behavior import BehaviorConfig
from evsteer.decision import FilterConfig
from evsteer.frames import DEFAULT_CAPACITY
from evsteer.sim import SimConfig
from evsteer.wire import PROCESSING_RATE_HZ


class ConfigError(Exception):
    """Bad key, bad value, or unreadable config file."""


U32_MAX_US = 2**32 - 1  # event, APS, label and run-log stamps are u32 microseconds


def steps_for_duration(duration_s, timestep_us):
    """Kinematics steps in a run; refuses runs whose u32 stamps would wrap,
    and negative or non-finite durations."""
    if not 0 <= duration_s < math.inf:
        raise ConfigError(f"duration {duration_s} s must be finite and not negative")
    n_steps = int(round(duration_s * 1e6 / timestep_us))
    if n_steps * timestep_us > U32_MAX_US:
        raise ConfigError(f"duration {duration_s} s ends past {U32_MAX_US / 1e6} s, "
                          f"where u32 microsecond timestamps wrap")
    return n_steps


PREY_POLICIES = ("circle", "waypoint", "parked")


@dataclass
class FramesConfig:
    capacity: int = DEFAULT_CAPACITY  # events per DVS frame
    aps_target_fraction: float = 0.45  # gen-data: APS share of the training split

    def __post_init__(self):
        if self.capacity < 1:
            raise ValueError("capacity must be positive")


@dataclass
class WireConfig:
    rate_cap_hz: float = float(PROCESSING_RATE_HZ)
    peer: str = "127.0.0.1:9770"  # serve: decision datagram destination
    listen: int = 9771  # serve: feedback port

    def __post_init__(self):
        if self.rate_cap_hz <= 0:
            raise ValueError("rate_cap_hz must be positive")


@dataclass
class RunnerConfig:
    """One closed-loop run: `simulate` and `serve --sim`."""

    sim: SimConfig = field(default_factory=SimConfig)
    behavior: BehaviorConfig = field(default_factory=BehaviorConfig)
    filter: FilterConfig = field(default_factory=FilterConfig)
    frames: FramesConfig = field(default_factory=FramesConfig)
    wire: WireConfig = field(default_factory=WireConfig)
    prey_policy: str = "circle"  # one of PREY_POLICIES
    prey_speed: float = 0.5
    circle_radius: float = 1.8
    duration: float = 30.0  # s

    def __post_init__(self):
        if self.prey_policy not in PREY_POLICIES:
            raise ValueError(f"prey_policy must be one of {', '.join(PREY_POLICIES)}")
        if not (0 <= self.prey_speed < math.inf and 0 < self.circle_radius < math.inf):
            raise ValueError("prey_speed must be finite and not negative, "
                             "circle_radius finite and positive")


@dataclass
class DatagenConfig:
    """Scripted recordings for `gen-data`."""

    sim: SimConfig = field(default_factory=SimConfig)
    recordings: int = 20  # gen-data: seeds seed_base, seed_base + 1, ...
    seed_base: int = 1000
    duration: float = 8.0  # s per recording
    prey_speed_min: float = 0.25  # per-recording uniform draws
    prey_speed_max: float = 0.7
    predator_speed_min: float = 0.5
    predator_speed_max: float = 1.3
    light_min: float = 0.65
    light_max: float = 1.3

    def __post_init__(self):
        if not self.duration > 0:
            raise ValueError("duration must be positive")
        if self.seed_base < 0:
            raise ValueError("seed_base must not be negative")
        if min(self.light_min, self.prey_speed_min, self.predator_speed_min) < 0:
            raise ValueError("light_min, prey_speed_min and predator_speed_min "
                             "must not be negative")
        if (self.prey_speed_min > self.prey_speed_max or self.light_min > self.light_max
                or self.predator_speed_min > self.predator_speed_max):
            raise ValueError("each gen.*_min must not exceed its gen.*_max")


@dataclass
class TrainConfig:
    iterations: int = 20_000
    batch: int = 64
    lr: float = 1e-3
    dropout: float = 0.25
    eval_every: int = 500
    seed: int = 0

    def __post_init__(self):
        if self.batch < 1 or self.eval_every < 1:
            raise ValueError("batch and eval_every must be positive")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError("dropout must be in [0, 1)")
        if not 0.0 < self.lr < math.inf:
            raise ValueError("lr must be finite and positive")


@dataclass
class Settings:
    """Root of every key. Each field is named for its key section, so the
    closed loop's own fields are sim.* keys, like those of its SimConfig."""

    sim: RunnerConfig = field(default_factory=RunnerConfig)
    gen: DatagenConfig = field(default_factory=DatagenConfig)
    train: TrainConfig = field(default_factory=TrainConfig)


def _is_section(f):
    return is_dataclass(f.default_factory)


def _walk_keys(cls, section=None):
    for f in fields(cls):
        if _is_section(f):
            yield from _walk_keys(f.default_factory, f.name)
        else:
            yield f"{section}.{f.name}", f.default


KEYS = dict(_walk_keys(Settings))  # key -> default


def _build(cls, values, section=None):
    return cls(**{f.name: _build(f.default_factory, values, f.name) if _is_section(f)
                  else values[f"{section}.{f.name}"] for f in fields(cls)})


def _coerce(key, text):
    default = KEYS[key]
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
    """Every key's value, and the `Settings` built from them.

    pairs are (key, value) overrides applied in order; text is coerced to
    the type of the key's default. A value its dataclass rejects is a
    ConfigError here, before any command runs.
    """

    def __init__(self, pairs=()):
        self.values = dict(KEYS)
        for key, value in pairs:
            if key not in KEYS:
                raise ConfigError(f"unknown config key: {key}")
            if isinstance(value, str) and not isinstance(KEYS[key], str):
                value = _coerce(key, value)
            self.values[key] = value
        try:
            self.settings = _build(Settings, self.values)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None

    def snapshot(self):
        return dict(sorted(self.values.items()))

    def dump(self) -> str:
        return "\n".join(f"{k} = {v}" for k, v in self.snapshot().items()) + "\n"


def _pair(item, error):
    if "=" not in item:
        raise ConfigError(error)
    key, _, value = item.partition("=")
    return key.strip(), value.strip()


def load_config(path=None, overrides=()) -> Config:
    """Config from an optional file plus `key=value` override strings."""
    pairs = []
    if path is not None:
        try:
            with open(path) as fh:
                lines = fh.readlines()
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from None
        for lineno, line in enumerate(lines, 1):
            line = line.split("#", 1)[0].strip()
            if line:
                pairs.append(_pair(line, f"{path}:{lineno}: expected key = value"))
    pairs += [_pair(item, f"override must be key=value, got {item!r}")
              for item in overrides]
    return Config(pairs)
