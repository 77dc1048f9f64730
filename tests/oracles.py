"""Independent brute-force reference implementations used only by tests.

These deliberately avoid the vectorized code paths in evsteer.nnet and
evsteer.frames: the convolution and its gradients loop over output positions,
pooling walks 2x2 windows one by one, the low-pass replay keeps scalar state,
and the DVS histogram takes one event at a time. Keep them slow and obvious.
One reference is vectorized: argmax_pool finds each pooling window's first
maximum by argmax where evsteer.nnet tests x == y phase by phase.

The last three keep earlier, plainer formulations of fast paths whose output
must not change by a bit: std_clip_dvs_normalize (np.std and np.clip),
per_circle_laser (one obstacle circle at a time) and float_sort_leak_events
(zeroed records, float stamps sorted before truncation).
"""

from dataclasses import dataclass

import numpy as np

from evsteer.frames import EVENT_DTYPE
from evsteer.sim import LASER_ANGLES


def naive_conv(x, kernels, bias):
    """x: (h, w, c); kernels: (o, c, k, k). Valid convolution, stride 1."""
    h, w, c = x.shape
    o, _, k, _ = kernels.shape
    hh, ww = h - k + 1, w - k + 1
    out = np.zeros((hh, ww, o), dtype=np.float64)
    for m in range(o):
        for i in range(hh):
            for j in range(ww):
                out[i, j, m] = np.sum(
                    x[i:i + k, j:j + k, :].astype(np.float64)
                    * kernels[m].transpose(1, 2, 0)
                ) + float(bias[m])
    return out


def naive_maxpool(x):
    h, w, c = x.shape
    h2, w2 = h // 2, w // 2
    out = np.zeros((h2, w2, c), dtype=np.float64)
    for i in range(h2):
        for j in range(w2):
            for ch in range(c):
                out[i, j, ch] = x[2 * i:2 * i + 2, 2 * j:2 * j + 2, ch].max()
    return out


def argmax_pool(x, dy):
    """2x2 max pool routed by a 5-D argmax over each window's four elements.

    Returns (y, dx): the first maximum of every window in row-major order,
    and dy deposited at that element with zeros elsewhere. MaxPool.backward
    must equal dx bit for bit.
    """
    n, h, w, c = x.shape
    h2, w2 = h // 2, w // 2
    win = x[:, : h2 * 2, : w2 * 2, :].reshape(n, h2, 2, w2, 2, c)
    win = win.transpose(0, 1, 3, 5, 2, 4).reshape(n, h2, w2, c, 4)
    arg = win.argmax(axis=-1)[..., None]  # first max wins on ties
    y = np.take_along_axis(win, arg, axis=-1)[..., 0]
    dwin = np.zeros((n, h2, w2, c, 4), dtype=dy.dtype)
    np.put_along_axis(dwin, arg, dy[..., None], axis=-1)
    dwin = dwin.reshape(n, h2, w2, c, 2, 2).transpose(0, 1, 4, 2, 5, 3)
    dx = np.zeros_like(x)
    dx[:, : h2 * 2, : w2 * 2, :] = dwin.reshape(n, h2 * 2, w2 * 2, c)
    return y, dx


def naive_conv_backward(x, kernels, dy):
    """Gradients of a valid stride-1 convolution in float64, one output
    position at a time. x: (n, h, w, c); kernels: (o, c, k, k); dy:
    (n, h', w', o). Returns (dx, d kernels, d bias)."""
    x, kernels, dy = (np.asarray(a, dtype=np.float64) for a in (x, kernels, dy))
    n, hh, ww, _ = dy.shape
    k = kernels.shape[2]
    dx = np.zeros(x.shape)
    dkernels = np.zeros(kernels.shape)
    for b in range(n):
        for i in range(hh):
            for j in range(ww):
                g = dy[b, i, j]
                window = x[b, i:i + k, j:j + k, :].transpose(2, 0, 1)  # (c, k, k)
                dkernels += g[:, None, None, None] * window
                dx[b, i:i + k, j:j + k, :] += np.tensordot(g, kernels, 1).transpose(1, 2, 0)
    return dx, dkernels, dy.sum(axis=(0, 1, 2))


def naive_dense(x, weights, bias):
    flat = np.asarray(x, dtype=np.float64).reshape(-1)
    return weights.astype(np.float64) @ flat + bias.astype(np.float64)


def naive_forward(net, frame):
    """Replay a Network layer list with the loop implementations above."""
    x = np.asarray(frame, dtype=np.float64)
    if x.ndim == 2:
        x = x[..., None]
    for layer in net.layers:
        kind = layer.kind
        if kind == "conv":
            x = naive_conv(x, layer.kernels, layer.bias)
        elif kind == "maxpool":
            x = naive_maxpool(x)
        elif kind == "relu":
            x = np.maximum(x, 0.0)
        elif kind == "dense":
            x = naive_dense(x, layer.weights, layer.bias)
        elif kind == "dropout":
            pass  # inference mode: identity
        else:
            raise AssertionError(f"oracle does not know layer {kind}")
    return x


def replay_lowpass(decisions, alpha, init_states=(0.0, 0.0, 0.0, 1.0),
                   init_winner=3):
    """Scalar replay of the bounded LCRN low-pass filter. Returns winners."""
    states = list(init_states)
    winner = init_winner
    winners = []
    for d in decisions:
        for i in range(4):
            if i == d:
                states[i] = min(1.0, states[i] + alpha)
            else:
                states[i] = max(0.0, states[i] - alpha)
        best = max(states)
        if states[winner] < best:
            for i in range(4):
                if states[i] == best:
                    winner = i
                    break
        winners.append(winner)
    return winners


@dataclass
class AddressEvent:
    """One DVS brightness-change event. polarity is +1 (ON) or -1 (OFF)."""

    t: int
    x: int
    y: int
    polarity: int


def subsample_address(x, y):
    """Map a 240x180 event address to its 36x36 histogram bin (floor bins)."""
    if not (0 <= x < 240 and 0 <= y < 180):
        raise ValueError(f"event address ({x}, {y}) outside 240x180")
    return (x * 36) // 240, (y * 36) // 180


class ScalarAccumulator:
    """Constant-count histogram fed one event at a time (DvsAccumulator reference)."""

    def __init__(self, capacity=5000):
        self.capacity = capacity
        self.values = np.full((36, 36), 0.5)
        self.events_in = 0

    def add(self, event):
        """Accumulate one event; returns the raw histogram on emission."""
        bx, by = subsample_address(event.x, event.y)
        self.values[by, bx] += event.polarity / 200
        self.events_in += 1
        if self.events_in < self.capacity:
            return None
        hist = self.values
        self.values = np.full((36, 36), 0.5)
        self.events_in = 0
        return hist


def std_clip_dvs_normalize(hist):
    """frames.dvs_normalize through np.std and np.clip."""
    sigma = float(np.std(hist))
    if sigma == 0.0:
        return np.full((36, 36), 0.5, dtype=np.float32)
    bound = 3.0 * sigma
    dev = np.clip(hist - 0.5, -bound, bound)
    return (0.5 + (dev / bound) * 0.5).astype(np.float32)


def per_circle_laser(scene, pose):
    """sim.simulate_laser's ranges, casting each obstacle circle in turn."""
    x, y, heading = pose
    ray_ang = heading + LASER_ANGLES
    cos_a, sin_a = np.cos(ray_ang), np.sin(ray_ang)
    arena = scene.arena
    with np.errstate(divide="ignore"):
        tx = np.where(cos_a > 0, (arena.width - x) / cos_a,
                      np.where(cos_a < 0, (0.0 - x) / cos_a, np.inf))
        ty = np.where(sin_a > 0, (arena.depth - y) / sin_a,
                      np.where(sin_a < 0, (0.0 - y) / sin_a, np.inf))
    d = np.minimum(tx, ty)
    for ox, oy, rad in scene.obstacle_circles():
        dx, dy = ox - x, oy - y
        proj = dx * cos_a + dy * sin_a
        perp2 = (dx * dx + dy * dy) - proj * proj
        hit = (perp2 <= rad * rad) & (proj > 0)
        reach = proj - np.sqrt(np.maximum(rad * rad - perp2, 0.0))
        d = np.where(hit & (reach > 0) & (reach < d), reach, d)
    return d


def float_sort_leak_events(rng, rate_per_pixel, t0_us, t1_us):
    """sim.leak_events with zeroed records and float stamps sorted first."""
    dt_s = (t1_us - t0_us) / 1e6
    lam = rate_per_pixel * 240 * 180 * dt_s
    count = int(rng.poisson(lam))
    if count == 0:
        return np.zeros(0, dtype=EVENT_DTYPE)
    events = np.zeros(count, dtype=EVENT_DTYPE)
    ts = t0_us + 1 + rng.random(count) * (t1_us - t0_us - 1)
    events["t"] = np.sort(ts).astype(np.uint32)
    events["x"] = rng.integers(0, 240, count).astype(np.uint16)
    events["y"] = rng.integers(0, 180, count).astype(np.uint16)
    events["polarity"] = 1
    return events
