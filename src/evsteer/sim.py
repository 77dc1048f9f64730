"""Deterministic 2-D arena simulator.

A schematic world: a 9.5 x 6.7 m arena with a striped specular floor, walls,
background clutter above the walls, an optional dark box and high-contrast
poster as distractors, and two robots. The predator carries a 240x180 camera
with an 81 degree horizontal field of view mounted at wheel-top height; the
projection is equiangular (column position linear in bearing), which matches
a wide-angle lens well enough at this fidelity.

Event synthesis is the standard log-intensity threshold model: per pixel, the
log intensity is compared against a memory value; each theta crossing emits
one ON/OFF event with a timestamp interpolated inside the render interval and
moves the memory by theta. Reset-switch leakage adds Poisson ON events, and
each APS capture can inject a burst of scan-line-band events (shutter
coupling). Everything is a pure function of (config, seed).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from evsteer.behavior import LaserScan, VelocityCmd
from evsteer.frames import EVENT_DTYPE, SENSOR_HEIGHT, SENSOR_WIDTH, concat_events

ROBOT_RADIUS = 0.375  # half the 0.75 m footprint length
PREY_RADIUS = 0.33
PREY_HEIGHT = 0.37
CAMERA_HEIGHT = 0.37  # mount height of the SENSOR_WIDTH x SENSOR_HEIGHT camera
SCENARIOS = ("chase", "rate_test")  # sim.scenario values
START_MARGIN = 1.2  # m from each wall to a scripted recording's start pose


@dataclass
class ArenaConfig:
    width: float = 9.5
    depth: float = 6.7
    wall_height: float = 0.5
    distractors: bool = True
    moving_distractor: bool = False

    def __post_init__(self):
        if not all(2 * START_MARGIN <= v < math.inf for v in (self.width, self.depth)):
            raise ValueError(f"arena width and depth must be finite and at least "
                             f"{2 * START_MARGIN} m")
        if not 0 < self.wall_height < math.inf:
            raise ValueError("wall_height must be finite and positive")


@dataclass
class CameraConfig:
    fov_deg: float = 81.0  # horizontal

    def __post_init__(self):
        if not 0.0 < self.fov_deg < 180.0:
            raise ValueError("fov_deg must be in (0, 180)")


@dataclass
class NoiseConfig:
    leak_rate: float = 0.1  # ON events per pixel per second
    aps_burst: int = 150  # events injected at each APS capture
    threshold: float = 0.15  # log-intensity units per event

    def __post_init__(self):
        if not (0 <= self.leak_rate < math.inf and 0 < self.threshold < math.inf
                and self.aps_burst >= 0):
            raise ValueError("leak_rate and aps_burst must be >= 0 and threshold positive, "
                             "both finite")


@dataclass
class SimConfig:
    arena: ArenaConfig = field(default_factory=ArenaConfig)
    camera: CameraConfig = field(default_factory=CameraConfig)
    noise: NoiseConfig = field(default_factory=NoiseConfig)
    timestep_us: int = 1000  # kinematics step
    render_every: int = 5  # render/event-synthesis cadence in timesteps
    aps_period_us: int = 66_667  # ~15 fps, quantized onto the render grid
    light_gain: float = 1.0
    corrupt_aps_prob: float = 0.0  # blank-stripe fault injection
    scenario: str = "chase"  # one of SCENARIOS; rate_test is the static scene
    rate_profile: str = ""  # "dur_s:events_per_s,..." cycled leak override

    def __post_init__(self):
        if self.timestep_us < 1 or self.render_every < 1 or self.aps_period_us < 1:
            raise ValueError("timestep_us, render_every and aps_period_us must be positive")
        if not 0.0 <= self.corrupt_aps_prob <= 1.0:
            raise ValueError("corrupt_aps_prob must be in [0, 1]")
        if not 0.0 <= self.light_gain < math.inf:
            raise ValueError("light_gain must be finite and not negative")
        if self.scenario not in SCENARIOS:
            raise ValueError(f"scenario must be one of {', '.join(SCENARIOS)}")
        if self.rate_profile:
            RateProfile(self.rate_profile)

    @property
    def static_scene(self):
        """Render once, then emit noise events only."""
        return self.scenario != "chase"


@dataclass
class RobotState:
    x: float
    y: float
    heading: float
    linear: float = 0.0
    angular: float = 0.0

    @property
    def pose(self):
        return (self.x, self.y, self.heading)


def wrap_angle(a):
    return (a + math.pi) % (2.0 * math.pi) - math.pi


def kinematics_step(state: RobotState, dt: float, arena: ArenaConfig) -> RobotState:
    """Integrate one step: turn first, then advance along the new heading.

    Wall contact clamps position (zero restitution), robots never exit.
    """
    heading = wrap_angle(state.heading + state.angular * dt)
    x = state.x + state.linear * dt * math.cos(heading)
    y = state.y + state.linear * dt * math.sin(heading)
    x = min(max(x, ROBOT_RADIUS), arena.width - ROBOT_RADIUS)
    y = min(max(y, ROBOT_RADIUS), arena.depth - ROBOT_RADIUS)
    return RobotState(x=x, y=y, heading=heading,
                      linear=state.linear, angular=state.angular)


class CirclePolicy:
    """Scripted counter-clockwise orbit: P-control onto the tangent of a fixed circle."""

    def __init__(self, center, radius, speed):
        self.center = center
        self.radius = radius
        self.speed = speed

    def command(self, state: RobotState, t_s: float) -> VelocityCmd:
        cx, cy = self.center
        pos_ang = math.atan2(state.y - cy, state.x - cx)
        r_err = math.hypot(state.x - cx, state.y - cy) - self.radius
        desired = pos_ang + (math.pi / 2.0 + max(-0.8, min(0.8, 0.9 * r_err)))
        ang = max(-2.0, min(2.0, 2.5 * wrap_angle(desired - state.heading)))
        return VelocityCmd(self.speed, ang)


class WaypointPolicy:
    """Wall-avoiding wander: waypoints 1 m inside the walls, resampled every 3-6 s."""

    def __init__(self, rng, arena, speed):
        self.rng = rng
        self.arena = arena
        self.speed = speed
        self.waypoint = self._sample()
        self.next_resample = float(rng.uniform(3.0, 6.0))

    def _sample(self):
        return (float(self.rng.uniform(1.0, self.arena.width - 1.0)),
                float(self.rng.uniform(1.0, self.arena.depth - 1.0)))

    def command(self, state: RobotState, t_s: float) -> VelocityCmd:
        if t_s >= self.next_resample or \
                math.hypot(self.waypoint[0] - state.x, self.waypoint[1] - state.y) < 0.3:
            self.waypoint = self._sample()
            self.next_resample = t_s + float(self.rng.uniform(3.0, 6.0))
        err = wrap_angle(math.atan2(self.waypoint[1] - state.y,
                                    self.waypoint[0] - state.x) - state.heading)
        ang = max(-1.8, min(1.8, 2.0 * err))
        lin = self.speed * max(0.15, math.cos(err))
        return VelocityCmd(lin, ang)


# ---------------------------------------------------------------------------
# scene description and rendering
# ---------------------------------------------------------------------------


@dataclass
class Distractor:
    x: float
    y: float
    radius: float = 0.35
    height: float = 0.5
    shade: float = 0.12  # dark box, deliberately prey-like at distance


@dataclass
class Poster:
    """High-contrast bar pattern mounted on the north wall (y = depth)."""

    x0: float = 6.0
    x1: float = 7.6
    bar_width: float = 0.22


@dataclass
class Scene:
    arena: ArenaConfig
    prey: RobotState
    distractors: list = field(default_factory=list)
    poster: Poster | None = None
    light_gain: float = 1.0
    moving_distractor: Distractor | None = None

    def obstacles(self):
        """The distractors, then the moving one: what can hide the prey."""
        moving = [] if self.moving_distractor is None else [self.moving_distractor]
        return self.distractors + moving

    def obstacle_circles(self):
        """(x, y, radius) of everything the laser can hit besides walls."""
        return [(self.prey.x, self.prey.y, PREY_RADIUS)] + [
            (d.x, d.y, d.radius) for d in self.obstacles()]


class Camera:
    """Equiangular projection helpers shared by the renderer and labeling.

    Also owns the renderer's per-frame scratch buffers, so a render step
    allocates no full-frame temporaries besides the image it returns; one
    Camera therefore renders in one thread at a time. A forked process
    renders with its own copy of the buffers, so a chase's renderer and the
    loop it renders ahead of may both render at once.
    """

    FLOOR_BLOBS = ((2.6, 2.1), (6.8, 4.4))  # specular highlights, 0.6 m radius
    BLOB_REACH = 0.7  # a ray passing farther from a blob centre gets exactly +0.0

    def __init__(self, cfg: CameraConfig):
        self.hfov = math.radians(cfg.fov_deg)
        self.vfov = self.hfov * SENSOR_HEIGHT / SENSOR_WIDTH
        w, h = SENSOR_WIDTH, SENSOR_HEIGHT
        # column bearings: +hfov/2 at column 0 (left), -hfov/2 at the right
        self.col_phi = (0.5 - (np.arange(w) + 0.5) / w) * self.hfov
        self.k_v = h / self.vfov  # rows per radian
        self.horizon = (h - 1) / 2.0
        self.rows = np.arange(h, dtype=np.float32)
        # background block pattern: value = 0.40 + 0.16 * ((a_idx + r_idx) % 3)
        # with a_idx the column's angle block and r_idx the row's 24-row band;
        # bg_bands[r_idx, a_idx] holds it per band.
        self.bg_row_band = (np.arange(h) // 24) % 3
        self.bg_bands = (0.40 + 0.16 * ((np.arange(3)[:, None] + np.arange(3)) % 3)
                         ).astype(np.float32)
        # ground distance per floor row: rows strictly below the horizon
        self.r_floor0 = int(self.horizon) + 1
        psi = ((self.rows[self.r_floor0:] + 0.5) - h / 2.0) / self.k_v  # > 0
        g = CAMERA_HEIGHT / np.tan(psi)
        self.floor_dist = np.minimum(g, 60.0)[:, None].astype(np.float32)
        n_floor = h - self.r_floor0
        self._wx = np.empty((n_floor, w), np.float32)
        self._wy = np.empty((n_floor, w), np.float32)
        self._floor = np.empty((n_floor, w), np.float32)
        self._half = np.empty((n_floor, w), np.float32)
        self._in_wall = np.empty((h, w), bool)
        self._scratch = np.empty((h, w), bool)

    def column_of_bearing(self, phi):
        return SENSOR_WIDTH * (0.5 - phi / self.hfov)

    def bearing_visible(self, phi):
        return abs(phi) <= self.hfov / 2.0

    def columns_near(self, dx, dy, heading, reach):
        """Column range [c0, c1) holding every ray that passes within reach
        of the point (dx, dy) relative to the camera (empty when c1 <= c0)."""
        w = SENSOR_WIDTH
        dist = math.hypot(dx, dy)
        if dist <= reach:
            return 0, w
        bearing = wrap_angle(math.atan2(dy, dx) - heading)
        spread = math.asin(reach / dist)
        # column c's ray has bearing col_phi[c], at position c + 0.5
        c0 = math.floor(self.column_of_bearing(bearing + spread) - 0.5)
        c1 = math.ceil(self.column_of_bearing(bearing - spread) - 0.5) + 1
        return max(c0, 0), min(c1, w)


def _wall_hits(arena, x, y, cos_a, sin_a):
    """Distances along each ray to the x = const and y = const walls it faces.

    Divides by zero where a ray runs parallel to a wall; callers ignore it.
    """
    tx = np.where(cos_a > 0, (arena.width - x) / cos_a,
                  np.where(cos_a < 0, (0.0 - x) / cos_a, np.inf))
    ty = np.where(sin_a > 0, (arena.depth - y) / sin_a,
                  np.where(sin_a < 0, (0.0 - y) / sin_a, np.inf))
    return tx, ty


def _wall_distances(arena, x, y, ang):
    """Distance to the arena boundary along each ray, plus the hit points."""
    cos_a, sin_a = np.cos(ang), np.sin(ang)
    with np.errstate(divide="ignore"):
        tx, ty = _wall_hits(arena, x, y, cos_a, sin_a)
    d = np.minimum(tx, ty)
    hx = x + cos_a * d
    hy = y + sin_a * d
    return d, hx, hy, ty <= tx


def wall_distance(arena, x, y, ang):
    """`_wall_distances` for one ray in Python floats: the distance alone."""
    cos_a, sin_a = math.cos(ang), math.sin(ang)
    tx = ((arena.width - x) / cos_a if cos_a > 0
          else (0.0 - x) / cos_a if cos_a < 0 else math.inf)
    ty = ((arena.depth - y) / sin_a if sin_a > 0
          else (0.0 - y) / sin_a if sin_a < 0 else math.inf)
    return min(tx, ty)


def render_camera(scene: Scene, camera: Camera, pose):
    """Synthesize one 180x240 gray frame in [0, 1] from the predator's pose.

    Returns a fresh C-contiguous float32 image. Deterministic given poses.
    """
    cx, cy, heading = pose
    h, w = SENSOR_HEIGHT, SENSOR_WIDTH
    ang = heading + camera.col_phi
    d_wall, wall_hx, wall_hy, hit_y_wall = _wall_distances(scene.arena, cx, cy, ang)

    hc = CAMERA_HEIGHT
    r_wall_top = (camera.horizon
                  - np.arctan2(scene.arena.wall_height - hc, d_wall)
                  * camera.k_v).astype(np.float32)
    r_wall_bot = (camera.horizon
                  + np.arctan2(hc, d_wall) * camera.k_v).astype(np.float32)

    rows = camera.rows[:, None]  # (h, 1)

    # background clutter above the walls: angle/row block pattern, one row
    # per band, then one row copy per image row (mode="wrap" because take()
    # with the default mode="raise" buffers its output)
    a_mod = np.floor(ang * (1.0 / 0.17)).astype(np.int64) % 3
    img = np.empty((h, w), np.float32)
    np.take(np.take(camera.bg_bands, a_mod, axis=1), camera.bg_row_band, axis=0,
            out=img, mode="wrap")

    # wall band, slightly darker with distance; only the rows some column's
    # band reaches are compared (r < ceil(x) iff r < x for integer rows)
    wall_shade = (0.33 + 0.10 / (1.0 + 0.25 * d_wall)).astype(np.float32)
    r_lo = min(max(math.ceil(r_wall_top.min()), 0), h)
    r_hi = min(max(math.ceil(r_wall_bot.max()), r_lo), h)
    in_wall, scratch = camera._in_wall[r_lo:r_hi], camera._scratch[r_lo:r_hi]
    band = img[r_lo:r_hi]
    np.greater_equal(rows[r_lo:r_hi], r_wall_top[None, :], out=in_wall)
    np.less(rows[r_lo:r_hi], r_wall_bot[None, :], out=scratch)
    np.logical_and(in_wall, scratch, out=in_wall)
    np.copyto(band, wall_shade, where=in_wall)

    # poster: bright/dark vertical bars on the north wall segment
    if scene.poster is not None:
        p = scene.poster
        on_poster_col = hit_y_wall & (wall_hy > scene.arena.depth - 1e-6) & \
            (wall_hx >= p.x0) & (wall_hx <= p.x1)
        if np.any(on_poster_col):
            bars = np.floor(wall_hx / p.bar_width) % 2
            poster_shade = np.where(bars > 0, 0.95, 0.06).astype(np.float32)
            np.logical_and(in_wall, on_poster_col[None, :], out=scratch)
            np.copyto(band, poster_shade, where=scratch)

    # floor: world-anchored stripes plus two specular highlight blobs;
    # rows strictly below the horizon that some column's floor reaches
    f_lo = min(max(math.ceil(r_wall_bot.min()), camera.r_floor0), h)
    f = slice(f_lo - camera.r_floor0, None)
    g = camera.floor_dist[f]
    wx, wy, floor, q_half = camera._wx[f], camera._wy[f], camera._floor[f], camera._half[f]
    cos_a, sin_a = np.cos(ang), np.sin(ang)
    np.multiply(cos_a.astype(np.float32)[None, :], g, out=wx)
    np.add(wx, np.float32(cx), out=wx)
    np.multiply(sin_a.astype(np.float32)[None, :], g, out=wy)
    np.add(wy, np.float32(cy), out=wy)
    # stripe parity of the integer-valued q = floor(wx / 0.55): q - 2 floor(q / 2)
    # equals q % 2 exactly and costs a fraction of float32 np.remainder
    np.multiply(wx, np.float32(1.0 / 0.55), out=floor)
    np.floor(floor, out=floor)
    np.multiply(floor, np.float32(0.5), out=q_half)
    np.floor(q_half, out=q_half)
    np.multiply(q_half, np.float32(2.0), out=q_half)
    np.subtract(floor, q_half, out=floor)
    np.multiply(floor, np.float32(0.14), out=floor)
    np.add(floor, np.float32(0.64), out=floor)
    for bx, by in camera.FLOOR_BLOBS:
        c0, c1 = camera.columns_near(bx - cx, by - cy, heading, camera.BLOB_REACH)
        if c1 <= c0:
            continue
        cols = slice(c0, c1)
        r2 = (wx[:, cols] - np.float32(bx)) ** 2 + (wy[:, cols] - np.float32(by)) ** 2
        bump = np.maximum(np.float32(1.0) - r2 * np.float32(1.0 / 0.36), 0.0)
        floor[:, cols] += np.float32(0.22) * bump * bump
    on_floor = np.greater_equal(rows[f_lo:], r_wall_bot[None, :], out=camera._scratch[f_lo:])
    np.copyto(img[f_lo:], floor, where=on_floor)

    # sprites, drawn far to near so closer bodies occlude
    sprites = [("box", dd.x, dd.y, dd.radius, dd.height, dd.shade)
               for dd in scene.obstacles()]
    sprites.append(("prey", scene.prey.x, scene.prey.y, PREY_RADIUS, PREY_HEIGHT, 0.22))

    def dist_of(s):
        return math.hypot(s[1] - cx, s[2] - cy)

    for kind, ox, oy, rad, oh, shade in sorted(sprites, key=dist_of, reverse=True):
        d = math.hypot(ox - cx, oy - cy)
        if d < rad + 0.05:
            d = rad + 0.05
        bearing = wrap_angle(math.atan2(oy - cy, ox - cx) - heading)
        half = math.atan2(rad, d)
        if abs(bearing) - half > camera.hfov / 2.0:
            continue
        cols = np.abs(wrap_angle(camera.col_phi - bearing)) <= half
        if not np.any(cols):
            continue
        r_top = camera.horizon - math.atan2(oh - hc, d) * camera.k_v
        r_bot = camera.horizon + math.atan2(hc, d) * camera.k_v
        r0 = max(0, int(math.ceil(r_top)))
        r1 = min(h, int(math.ceil(r_bot)))
        if r1 <= r0:
            continue
        img[r0:r1, cols] = shade
        if kind == "prey":
            # two near-black wheels at the bottom corners, bright top edge
            span = r1 - r0
            wheel_r0 = r1 - max(1, int(0.38 * span))
            center = camera.column_of_bearing(bearing)
            half_cols = half / camera.hfov * w
            col_idx = np.arange(w)
            for side in (-1.0, 1.0):
                c0 = center + side * 0.55 * half_cols - 0.28 * half_cols
                c1 = center + side * 0.55 * half_cols + 0.28 * half_cols
                wheel_cols = (col_idx >= c0) & (col_idx <= c1) & cols
                img[wheel_r0:r1, wheel_cols] = 0.04
            stripe_r1 = r0 + max(1, int(0.16 * span))
            img[r0:stripe_r1, cols] = 0.88
    if scene.light_gain != 1.0:
        img *= np.float32(scene.light_gain)
    np.clip(img, 0.0, 1.0, out=img)
    return img


def corrupt_frame(img, rng):
    """Three blank horizontal stripes, mimicking dropped transfer bursts."""
    out = img.copy()
    h = img.shape[0]
    for _ in range(3):
        top = int(rng.integers(0, h - 12))
        out[top:top + int(rng.integers(6, 14)), :] = 0.0
    return out


# ---------------------------------------------------------------------------
# event synthesis
# ---------------------------------------------------------------------------


class EventSynth:
    """Per-pixel log-intensity memory with linear-ramp threshold crossings.

    The memory and the per-update scratch buffers are C-contiguous and sized
    by the first image, whatever that image's layout, so memory updates go
    through flat indices into the memory itself.
    """

    LOG_EPS = 0.02

    def __init__(self, threshold: float):
        if threshold <= 0:
            raise ValueError("threshold must be positive")
        self.threshold = threshold
        self.memory = None

    def update(self, image, t0_us: int, t1_us: int):
        """Events for the interval (t0, t1] given the new rendered image."""
        if self.memory is None:
            self.memory = np.log(np.add(image, self.LOG_EPS, order="C"))
            self._diff = np.empty_like(self.memory)
            self._q = np.empty_like(self.memory)
            self._hit = np.empty(self.memory.shape, bool)
            return np.zeros(0, dtype=EVENT_DTYPE)
        diff, q = self._diff, self._q
        np.add(image, self.LOG_EPS, out=diff)
        np.log(diff, out=diff)
        np.subtract(diff, self.memory, out=diff)
        # crossings per pixel: floor(|diff| / theta), nonzero where the ratio >= 1
        np.abs(diff, out=q)
        np.divide(q, self.threshold, out=q)
        np.greater_equal(q, 1.0, out=self._hit)
        idx = np.flatnonzero(self._hit)
        if len(idx) == 0:
            return np.zeros(0, dtype=EVENT_DTYPE)
        counts = np.floor(q.reshape(-1)[idx]).astype(np.int64)
        d_hit = diff.reshape(-1)[idx]
        total = int(counts.sum())
        rep_idx = np.repeat(idx, counts)
        rep_diff = np.repeat(d_hit, counts)
        offsets = np.repeat(np.cumsum(counts) - counts, counts)
        k = np.arange(total) - offsets + 1
        frac = (k * self.threshold) / np.abs(rep_diff)
        ts = t0_us + frac * (t1_us - t0_us)
        events = np.empty(total, dtype=EVENT_DTYPE)
        events["t"] = np.minimum(np.round(ts), t1_us).astype(np.uint32)
        rep_y, rep_x = np.divmod(rep_idx, diff.shape[1])
        events["x"] = rep_x
        events["y"] = rep_y
        events["polarity"] = rep_diff > 0
        self.memory.reshape(-1)[idx] += np.sign(d_hit) * counts * self.threshold
        # stable time order: offsets from t0 in the narrowest unsigned type
        # (16 bits sort by radix); take() copies whole records at once
        since_t0 = events["t"] - np.uint32(t0_us)
        order = np.argsort(since_t0.astype(np.min_scalar_type(t1_us - t0_us)), kind="stable")
        return events.take(order)


def leak_events(rng, rate_per_pixel: float, t0_us: int, t1_us: int):
    """Poisson reset-switch leakage: ON events at random addresses."""
    dt_s = (t1_us - t0_us) / 1e6
    lam = rate_per_pixel * SENSOR_WIDTH * SENSOR_HEIGHT * dt_s
    count = int(rng.poisson(lam))
    if count == 0:
        return np.zeros(0, dtype=EVENT_DTYPE)
    events = np.empty(count, dtype=EVENT_DTYPE)
    ts = (t0_us + 1 + rng.random(count) * (t1_us - t0_us - 1)).astype(np.uint32)
    # truncation keeps order, so sorting the truncated stamps gives the
    # truncated sorted ones
    ts.sort()
    events["t"] = ts
    events["x"] = rng.integers(0, SENSOR_WIDTH, count)
    events["y"] = rng.integers(0, SENSOR_HEIGHT, count)
    events["polarity"] = 1
    return events


def burst_events(rng, count: int, t_us: int):
    """Shutter-coupling burst: events concentrated in a few scan-line bands."""
    if count <= 0:
        return np.zeros(0, dtype=EVENT_DTYPE)
    n_bands = int(rng.integers(2, 6))
    band_tops = rng.integers(0, SENSOR_HEIGHT - 3, n_bands)
    events = np.zeros(count, dtype=EVENT_DTYPE)
    events["t"] = t_us
    events["x"] = rng.integers(0, SENSOR_WIDTH, count).astype(np.uint16)
    band = band_tops[rng.integers(0, n_bands, count)]
    events["y"] = (band + rng.integers(0, 3, count)).astype(np.uint16)
    events["polarity"] = rng.integers(0, 2, count).astype(np.uint8)
    return events


# ---------------------------------------------------------------------------
# laser
# ---------------------------------------------------------------------------


# ray bearings of the laser: a 180 degree forward sector in 1 degree steps
LASER_ANGLES = np.radians(np.arange(-90.0, 90.0 + 1e-9, 1.0))
LASER_ANGLES.flags.writeable = False


def simulate_laser(scene: Scene, pose) -> LaserScan:
    """Ray-cast ranges to walls and obstacle circles over LASER_ANGLES."""
    x, y, heading = pose
    ray_ang = heading + LASER_ANGLES
    cos_a, sin_a = np.cos(ray_ang), np.sin(ray_ang)
    # every circle (rows) against every ray (columns) at once: a ray hits a
    # circle at the near crossing, reach, when it meets it (perp2 <= rad^2)
    # ahead (reach > 0, which implies proj > 0); a miss makes reach NaN
    circles = np.array(scene.obstacle_circles(), dtype=np.float64)
    dx, dy, rad = circles[:, 0:1] - x, circles[:, 1:2] - y, circles[:, 2:3]
    proj = dx * cos_a + dy * sin_a
    perp2 = (dx * dx + dy * dy) - proj * proj
    with np.errstate(divide="ignore", invalid="ignore"):
        d = np.minimum(*_wall_hits(scene.arena, x, y, cos_a, sin_a))
        reach = proj - np.sqrt(rad * rad - perp2)
    # the nearest of the walls and the hits, a minimum of exact values
    np.minimum(d, np.where(reach > 0, reach, np.inf).min(axis=0), out=d)
    return LaserScan(angles=LASER_ANGLES, ranges=d)


# ---------------------------------------------------------------------------
# ground truth
# ---------------------------------------------------------------------------


def prey_target_column(scene: Scene, camera: Camera, pose):
    """36-scale target column of the prey center, or None when non-visible.

    Non-visible means outside the field of view or occluded by a distractor.
    """
    cx, cy, heading = pose
    bearing = wrap_angle(math.atan2(scene.prey.y - cy, scene.prey.x - cx) - heading)
    if not camera.bearing_visible(bearing):
        return None
    d_prey = math.hypot(scene.prey.x - cx, scene.prey.y - cy)
    cos_b, sin_b = math.cos(heading + bearing), math.sin(heading + bearing)
    for ob in scene.obstacles():
        dx, dy = ob.x - cx, ob.y - cy
        proj = dx * cos_b + dy * sin_b
        if 0 < proj < d_prey:
            perp2 = dx * dx + dy * dy - proj * proj
            if perp2 <= ob.radius * ob.radius:
                return None  # occluded
    col240 = camera.column_of_bearing(bearing)
    col36 = int(col240 * 36 / SENSOR_WIDTH)
    return min(max(col36, 0), 35)


# ---------------------------------------------------------------------------
# world stepping
# ---------------------------------------------------------------------------


def default_scene(cfg: SimConfig, prey: RobotState) -> Scene:
    distractors = []
    poster = None
    if cfg.arena.distractors:
        distractors = [Distractor(x=0.9, y=cfg.arena.depth - 0.9)]
        poster = Poster()
    moving = Distractor(x=4.0, y=0.8, radius=0.25, height=1.7, shade=0.30) \
        if cfg.arena.moving_distractor else None
    return Scene(arena=cfg.arena, prey=prey, distractors=distractors,
                 poster=poster, light_gain=cfg.light_gain,
                 moving_distractor=moving)


class RateProfile:
    """Piecewise-constant total event rate, cycled; overrides leak noise.

    Built from text: '10:470000,3:80000' is 10 s at 470k events/s, then 3 s
    at 80k, repeating.
    """

    def __init__(self, text):
        self.phases = []
        for part in text.split(","):
            dur, _, rate = part.partition(":")
            try:
                dur, rate = float(dur), float(rate)
            except ValueError:
                raise ValueError(f"bad rate profile segment {part!r}") from None
            if not (0.0 < dur < math.inf and 0.0 <= rate < math.inf):
                raise ValueError(f"rate profile segment {part!r} needs a positive "
                                 f"duration and a finite rate >= 0")
            self.phases.append((dur, rate))
        self.cycle = sum(d for d, _ in self.phases)

    def rate_at(self, t_s: float) -> float:
        t = t_s % self.cycle
        for dur, rate in self.phases:
            if t < dur:
                return rate
            t -= dur
        return self.phases[-1][1]

    def per_pixel(self, t_s: float) -> float:
        return self.rate_at(t_s) / (SENSOR_WIDTH * SENSOR_HEIGHT)


@dataclass
class SensorBatch:
    """Output of one render interval: its events and its APS captures."""

    events: np.ndarray
    aps_t: list  # capture stamps, at most one
    aps: list  # the 240x180 image of each capture


class WorldSim:
    """Owns robot poses, the camera, noise streams, and sensor schedules.

    `run` is the world's one clock. It drives the prey by prey_policy (None
    parks it); the predator's command, set between batches by `set_command`,
    is the world's only input from outside.
    """

    def __init__(self, cfg: SimConfig, seed: int, predator: RobotState,
                 prey: RobotState, prey_policy=None):
        self.cfg = cfg
        self.camera = Camera(cfg.camera)
        self.predator = predator
        self.prey = prey
        self.prey_policy = prey_policy
        self.scene = default_scene(cfg, prey)
        self.synth = EventSynth(cfg.noise.threshold)
        seq = seed if isinstance(seed, np.random.SeedSequence) \
            else np.random.SeedSequence(seed)
        noise_seed, misc_seed = seq.spawn(2)
        self.rng_noise = np.random.default_rng(noise_seed)
        self.rng_misc = np.random.default_rng(misc_seed)
        self.t_us = 0
        self._last_render_us = 0
        self._aps_k = 1
        self._next_aps_us = self._quantize_aps(cfg.aps_period_us)
        self._moving_phase = 0.0
        self._held = False  # a static scene holds still from its first render step on
        self.rate_profile = RateProfile(cfg.rate_profile) if cfg.rate_profile else None
        self._static_image = None
        self._scan = (None, None)  # (render key, scan), set by laser

    def _quantize_aps(self, t_us):
        # captures land on the render grid but keep the long-run average rate
        grid = self.cfg.timestep_us * self.cfg.render_every
        return max(grid, int(round(t_us / grid)) * grid)

    def set_command(self, predator_cmd):
        self.predator.linear = predator_cmd.linear
        self.predator.angular = predator_cmd.angular

    def render(self):
        """The camera image at the current poses, the one render of step().

        `run_closed_loop` replaces it on its world with a reader of images
        that a forked renderer made ahead, which returns an equal image.
        """
        return render_camera(self.scene, self.camera, self.predator.pose)

    def render_key(self):
        """Every value `render` reads that changes during a run: the predator's
        pose, the prey's x and y and the moving distractor's x (0.0 without
        one). Two worlds of one config with equal keys render equal images."""
        prey, moving = self.scene.prey, self.scene.moving_distractor
        return (*self.predator.pose, prey.x, prey.y, 0.0 if moving is None else moving.x)

    def _leak_rate(self, t_s):
        if self.rate_profile is not None:
            return self.rate_profile.per_pixel(t_s)
        return self.cfg.noise.leak_rate

    def noise_rate(self):
        """Leak-noise events per second, averaged over a rate profile's cycle."""
        if self.rate_profile is not None:
            return sum(d * r for d, r in self.rate_profile.phases) / self.rate_profile.cycle
        return self.cfg.noise.leak_rate * SENSOR_WIDTH * SENSOR_HEIGHT

    def run(self, n_steps, sense=True):
        """Advance n_steps kinematics steps, yielding step() on each render step.

        With sense=False a render step only moves the scene as step() does
        and yields its render interval: a static scene's sensors, whose output
        no command changes, can then run apart in a copy of this world.
        A render step applies the prey policy's command before it yields; that
        and a command set between yields act from the next kinematics step on.
        The run ends at t_us = n_steps * timestep_us, on the render grid or not.
        """
        dt = self.cfg.timestep_us / 1e6
        for _ in range(n_steps):
            self.predator = kinematics_step(self.predator, dt, self.cfg.arena)
            self.prey = self.scene.prey = kinematics_step(self.prey, dt, self.cfg.arena)
            self.t_us += self.cfg.timestep_us
            if (self.t_us // self.cfg.timestep_us) % self.cfg.render_every == 0:
                if self.prey_policy is not None:
                    cmd = self.prey_policy.command(self.prey, self.t_us / 1e6)
                    self.prey.linear, self.prey.angular = cmd.linear, cmd.angular
                yield self.step() if sense else self._advance()

    def _advance(self):
        """Move the scene to t_us; returns the render interval (t0, t1]."""
        t0, t1 = self._last_render_us, self.t_us
        self._last_render_us = t1
        self._moving_phase += 0.9 * (t1 - t0) / 1e6
        md = self.scene.moving_distractor
        if md is not None and not self._held:
            md.x = 4.0 + 1.6 * math.sin(self._moving_phase)
        self._held = self.cfg.static_scene
        return t0, t1

    def step(self) -> SensorBatch:
        """Sensor output for the render interval that ends at t_us."""
        t0, t1 = self._advance()
        chunks = []
        if self.cfg.static_scene:
            if self._static_image is None:
                self._static_image = self.render()
            image = self._static_image
        else:
            image = self.render()
            chunks.append(self.synth.update(image, t0, t1))
        leak = leak_events(self.rng_noise, self._leak_rate(t1 / 1e6), t0, t1)
        if len(leak):
            chunks.append(leak)

        aps_t, aps = [], []
        if t1 >= self._next_aps_us:
            self._aps_k += 1
            self._next_aps_us = self._quantize_aps(self._aps_k * self.cfg.aps_period_us)
            img = image  # capture reuses the render at this exact instant
            if (self.cfg.corrupt_aps_prob > 0
                    and self.rng_misc.random() < self.cfg.corrupt_aps_prob):
                img = corrupt_frame(img, self.rng_misc)
            aps_t, aps = [t1], [img]
            burst = burst_events(self.rng_noise, self.cfg.noise.aps_burst, t1)
            if len(burst):
                chunks.append(burst)

        if not chunks:
            events = np.zeros(0, dtype=EVENT_DTYPE)
        elif len(chunks) == 1:
            events = chunks[0]
        else:
            events = concat_events(chunks)
            # take() copies whole records; indexing with [] goes field by field
            events = events.take(np.argsort(events["t"], kind="stable"))
        return SensorBatch(events, aps_t, aps)

    def laser(self) -> LaserScan:
        """The laser scan at the current poses. render_key() holds every value
        a scan reads that changes during a run, so the scan is kept with its
        key and handed out again, read-only, until the key changes."""
        key = self.render_key()
        if self._scan[0] != key:
            scan = simulate_laser(self.scene, self.predator.pose)
            scan.ranges.flags.writeable = False
            self._scan = (key, scan)
        return self._scan[1]

    def ground_truth(self):
        return prey_target_column(self.scene, self.camera, self.predator.pose)

    def prey_distance(self):
        return math.hypot(self.prey.x - self.predator.x,
                          self.prey.y - self.predator.y)
