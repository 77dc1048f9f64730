"""Sensor-to-network preprocessing.

DVS events are binned into constant-count 36x36 histograms (5000 events, one
gray step of 1/200 per event around a 0.5 zero level) and normalized by
clipping deviations at three standard deviations. APS frames are resized with
nearest-neighbor sampling and min-max normalized to [0, 1]. `FrameStream` is
the frame queue every consumer reads: it accumulates events, normalizes both
sources and merges them in (t, source) order, so the network runs on
whichever frame completes next. Exposure augmentation, thirds labeling, and
the temporally split train/test assembly live here too, together with the
on-disk formats for events, labels, raw APS frames, and assembled datasets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from evsteer.nnet import Decision

SENSOR_WIDTH = 240
SENSOR_HEIGHT = 180
FRAME_SIZE = 36
GRAY_LEVELS = 200
DEFAULT_CAPACITY = 5000
REGION_WIDTH = FRAME_SIZE // 3  # 12 columns per steering third

# Class balance of the hand-labeled field recordings this synthetic corpus
# mirrors; reported next to the generated mix for comparison.
FIELD_REFERENCE_MIX = {"L": 0.11, "C": 0.18, "R": 0.15, "N": 0.56}

EVENT_DTYPE = np.dtype([("t", "<u4"), ("x", "<u2"), ("y", "<u2"), ("polarity", "u1")])
# one event as 9 opaque bytes: numpy copies EVENT_DTYPE records field by
# field, and these whole (about 12 times faster for a concatenate)
_EVENT_BYTES = np.dtype((np.void, EVENT_DTYPE.itemsize))

EVENT_MAGIC = b"evsteer-evt v1".ljust(16, b"\0")
APS_MAGIC = b"evsteer-aps v1".ljust(16, b"\0")
DATASET_MAGIC = b"evsteer-ds v1".ljust(16, b"\0")
APS_RECORD = np.dtype([("t", "<u4"), ("raw", "<f4", (FRAME_SIZE, FRAME_SIZE))])
DATASET_RECORD = np.dtype([("source", "u1"), ("label", "u1"), ("target_x", "u1"),
                           ("values", "<f4", (FRAME_SIZE, FRAME_SIZE))])

SOURCE_APS = 0
SOURCE_DVS = 1
SOURCE_NAMES = {SOURCE_APS: "APS", SOURCE_DVS: "DVS"}


class FormatError(Exception):
    """A data file does not match its documented binary or text layout."""


# Flat histogram bin of a sensor address (x, y) is _BIN_ROW[y] + _BIN_COL[x]:
# the bin row y * 36 // 180 times 36, plus the bin column x * 36 // 240.
_BIN_ROW = (np.arange(SENSOR_HEIGHT) * FRAME_SIZE // SENSOR_HEIGHT) * FRAME_SIZE
_BIN_COL = np.arange(SENSOR_WIDTH) * FRAME_SIZE // SENSOR_WIDTH
# gray step of an event, indexed by its u1 polarity: +1/200 for ON (> 0)
_STEP = np.where(np.arange(256) > 0, 1.0, -1.0) / GRAY_LEVELS


class DvsAccumulator:
    """Constant-count histogram builder: emits every `capacity` events.

    Bins start at 0.5 and move by +-1/200 per event, unclamped; clamping is
    the normalizer's job. Single-owner state: one accumulator per stream.
    """

    def __init__(self, capacity: int = DEFAULT_CAPACITY):
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self.values = np.full((FRAME_SIZE, FRAME_SIZE), 0.5, dtype=np.float64)
        self.events_in = 0

    def reset(self):
        self.values.fill(0.5)
        self.events_in = 0

    def add_batch(self, events: np.ndarray):
        """Vectorized accumulation of a structured event array.

        Returns a list of (emission timestamp, raw histogram) in time order.
        """
        out = []
        pos = 0
        n = len(events)
        bins = _BIN_ROW.take(events["y"]) + _BIN_COL.take(events["x"])
        steps = _STEP.take(events["polarity"])
        while pos < n:
            take = min(self.capacity - self.events_in, n - pos)
            np.add.at(self.values.reshape(-1), bins[pos:pos + take], steps[pos:pos + take])
            self.events_in += take
            pos += take
            if self.events_in == self.capacity:
                out.append((int(events["t"][pos - 1]), self.values.copy()))
                self.reset()
        return out


def dvs_normalize(hist):
    """Clip deviations from the 0.5 zero-event level at 3 sigma and rescale.

    Sigma is computed over all 1296 bins of the raw histogram, so clipped
    extremes land exactly on 0 and 1 while zero-event bins stay at 0.5. A
    flat histogram (sigma 0) maps to all 0.5.
    """
    # sigma as np.std computes it (pairwise sums, a divide by the bin count,
    # a correctly rounded square root), without np.std's Python wrapper
    n = hist.size
    dev = hist - hist.sum() / n
    dev *= dev
    sigma = math.sqrt(dev.sum() / n)
    if sigma == 0.0:
        return np.full((FRAME_SIZE, FRAME_SIZE), 0.5, dtype=np.float32)
    bound = 3.0 * sigma
    dev = hist - 0.5
    np.maximum(dev, -bound, out=dev)
    np.minimum(dev, bound, out=dev)
    # dividing by the bound first lands clipped extremes exactly on 0 and 1
    dev /= bound
    dev *= 0.5
    dev += 0.5
    return dev.astype(np.float32)


def _nearest_indices(n_out, n_in):
    # round-half-down sampling of source coordinate j * n_in / n_out
    src = np.arange(n_out) * (n_in / n_out)
    idx = np.ceil(src - 0.5).astype(np.int64)
    return np.clip(idx, 0, n_in - 1)


_COL_IDX = _nearest_indices(FRAME_SIZE, SENSOR_WIDTH)
_ROW_IDX = _nearest_indices(FRAME_SIZE, SENSOR_HEIGHT)


def aps_resize(frame):
    """240x180 gray frame to 36x36 by pure nearest-neighbor sampling."""
    frame = np.asarray(frame)
    if frame.shape != (SENSOR_HEIGHT, SENSOR_WIDTH):
        raise ValueError(f"expected {SENSOR_HEIGHT}x{SENSOR_WIDTH} frame, got {frame.shape}")
    return frame[np.ix_(_ROW_IDX, _COL_IDX)]


def aps_normalize(frame):
    """Min-max rescale to [0, 1]; a constant frame maps to neutral 0.5."""
    frame = np.asarray(frame, dtype=np.float64)
    lo, hi = float(frame.min()), float(frame.max())
    if hi == lo:
        values = np.full(frame.shape, 0.5, dtype=np.float32)
    else:
        values = ((frame - lo) / (hi - lo)).astype(np.float32)
    return values


class FrameStream:
    """Constant-count DVS frames and APS frames, normalized, in (t, source) order.

    Holds the one DvsAccumulator of a stream. The normalizers are looked up
    as module globals on every push, so a wrapper installed on this module
    sees every frame of every consumer.
    """

    def __init__(self, capacity: int = DEFAULT_CAPACITY):
        self.acc = DvsAccumulator(capacity)

    def push(self, events, aps_t=(), aps_raw=()):
        """Frames this push completes as (t, source, values, raw) tuples.

        raw is the resized APS gray the values came from, None for DVS.
        """
        out = [(t, SOURCE_DVS, dvs_normalize(hist), None)
               for t, hist in self.acc.add_batch(events)]
        out += [(int(t), SOURCE_APS, aps_normalize(raw), raw)
                for t, raw in zip(aps_t, aps_raw)]
        out.sort(key=lambda item: (item[0], item[1]))
        return out


def exposure_augment(raw, shift):
    """Shift raw (pre-normalization) gray values and clip to the unit range."""
    return np.clip(np.asarray(raw, dtype=np.float64) + shift, 0.0, 1.0)


def label_from_target(target_x) -> Decision:
    """Thirds rule on the 36-column image; absent target means non-visible."""
    if target_x is None:
        return Decision.N
    if not 0 <= target_x < FRAME_SIZE:
        raise ValueError(f"target column {target_x} outside [0, {FRAME_SIZE})")
    return Decision(int(target_x) // REGION_WIDTH)


@dataclass
class Recording:
    """One recording: raw events, raw resized APS grays, and a label track."""

    events: np.ndarray  # EVENT_DTYPE
    aps_t: np.ndarray  # (n,) uint32 capture times
    aps_raw: np.ndarray  # (n, 36, 36) float32 pre-normalization gray
    label_t: np.ndarray  # (m,) uint32 label instants
    label_x: np.ndarray  # (m,) int16 target column, -1 for non-visible

    def label_at(self, t):
        """Most recent label at or before t."""
        idx = int(np.searchsorted(self.label_t, t, side="right")) - 1
        if idx < 0:
            idx = 0
        x = int(self.label_x[idx])
        return None if x < 0 else x


@dataclass
class Dataset:
    """Assembled frames ready for training or evaluation."""

    frames: np.ndarray  # (n, 36, 36) float32 in [0, 1]
    labels: np.ndarray  # (n,) uint8 Decision values
    target_x: np.ndarray  # (n,) int16, -1 for absent
    source: np.ndarray  # (n,) uint8 SOURCE_APS | SOURCE_DVS

    def __len__(self):
        return len(self.frames)

    def source_counts(self):
        return (int(np.sum(self.source == SOURCE_APS)),
                int(np.sum(self.source == SOURCE_DVS)))


def class_mix(labels):
    """Fraction of each class among Decision-valued labels; zeros for none."""
    counts = np.bincount(np.asarray(labels, dtype=np.int64), minlength=len(Decision))
    n = max(len(labels), 1)
    return {d.name: int(counts[d]) / n for d in Decision}


def frames_from_recording(rec: Recording, capacity=DEFAULT_CAPACITY):
    """Normalized, labeled frame stream of one recording in time order.

    Returns (t, source, values, label, target_x, raw) tuples; raw is the
    pre-normalization 36x36 gray for APS frames (None for DVS), kept so
    exposure augmentation can run on raw data later.
    """
    stream = []
    pushed = FrameStream(capacity).push(rec.events, rec.aps_t, rec.aps_raw)
    for t, source, values, raw in pushed:
        x = rec.label_at(t)
        stream.append((t, source, values, label_from_target(x), x, raw))
    return stream


def _to_dataset(items):
    return Dataset(
        frames=np.array([v for _, _, v, _, _, _ in items],
                        dtype=np.float32).reshape(-1, FRAME_SIZE, FRAME_SIZE),
        labels=np.array([int(lab) for _, _, _, lab, _, _ in items], dtype=np.uint8),
        target_x=np.array([-1 if x is None else x for _, _, _, _, x, _ in items],
                          dtype=np.int16),
        source=np.array([s for _, s, _, _, _, _ in items], dtype=np.uint8),
    )


DEFAULT_SHIFT_GRID = (0.15, -0.15, 0.30, -0.30)


def assemble_dataset(recordings, capacity=DEFAULT_CAPACITY,
                     aps_target_fraction=0.45, shift_grid=DEFAULT_SHIFT_GRID):
    """Per-recording temporal 80/20 split plus APS exposure augmentation.

    The first 80% of each recording's frame stream goes to training, the rest
    to test, with no shuffling across the boundary. Shifted-exposure copies
    of training APS frames are appended until the training source mix is
    about `aps_target_fraction` APS. Returns (train, test, report).
    """
    train_items, test_items = [], []
    for rec in recordings:
        stream = frames_from_recording(rec, capacity)
        if not stream:
            raise ValueError("recording produced no frames")
        n_train = int(0.8 * len(stream))
        train_items += stream[:n_train]
        test_items += stream[n_train:]

    aps_items = [item for item in train_items if item[1] == SOURCE_APS]
    n_aps, n_dvs = len(aps_items), len(train_items) - len(aps_items)
    report = {
        "train_frames": len(train_items),
        "test_frames": len(test_items),
        "train_aps_before_augment": n_aps,
        "train_dvs": n_dvs,
    }

    target_aps = int(round(n_dvs * aps_target_fraction / (1.0 - aps_target_fraction)))
    for i in range(max(0, target_aps - n_aps)):
        t, source, _, label, x, raw = aps_items[i % len(aps_items)]
        shifted = exposure_augment(raw, shift_grid[i % len(shift_grid)])
        train_items.append((t, source, aps_normalize(shifted), label, x, raw))
    train, test = _to_dataset(train_items), _to_dataset(test_items)

    n_aps_after, n_dvs_after = train.source_counts()
    total = max(n_aps_after + n_dvs_after, 1)
    report.update({
        "train_aps": n_aps_after,
        "train_aps_fraction": n_aps_after / total,
        "train_class_mix": class_mix(train.labels),
        "test_class_mix": class_mix(test.labels),
        "reference_class_mix": dict(FIELD_REFERENCE_MIX),
    })
    return train, test, report


# ---------------------------------------------------------------------------
# On-disk formats. All integers little-endian; layouts are frozen.
#
# Event file:   16-byte magic, then 9-byte records
#               (t: u32 microseconds, x: u16, y: u16, polarity: u8, 1=ON 0=OFF)
# APS file:     16-byte magic, u32 frame count, then per frame
#               t: u32 followed by 1296 raw gray float32 (row-major 36x36)
# Label track:  text, one line per instant: "<t_us> <target_x_36>" or "<t_us> N"
# Dataset file: 16-byte magic, u32 frame count, u32 APS count, u32 DVS count,
#               then per frame: source u8, label u8, target_x u8 (255 absent),
#               1296 float32 values (row-major 36x36)
# ---------------------------------------------------------------------------


def concat_events(chunks):
    """The EVENT_DTYPE arrays in chunks, one after another, as one array."""
    if not chunks:
        return np.zeros(0, dtype=EVENT_DTYPE)
    return np.concatenate([c.view(_EVENT_BYTES) for c in chunks]).view(EVENT_DTYPE)


def write_events(path, events):
    arr = np.asarray(events, dtype=EVENT_DTYPE)
    with open(path, "wb") as fh:
        fh.write(EVENT_MAGIC)
        fh.write(arr.tobytes())


def read_events(path):
    with open(path, "rb") as fh:
        magic = fh.read(16)
        if magic != EVENT_MAGIC:
            raise FormatError(f"{path}: bad event file magic")
        body = fh.read()
    if len(body) % EVENT_DTYPE.itemsize != 0:
        raise FormatError(f"{path}: truncated event record")
    events = np.frombuffer(body, dtype=EVENT_DTYPE)
    if len(events) and np.any(np.diff(events["t"].astype(np.int64)) < 0):
        raise FormatError(f"{path}: timestamps decrease")
    if np.any(events["x"] >= SENSOR_WIDTH) or np.any(events["y"] >= SENSOR_HEIGHT):
        raise FormatError(f"{path}: event address outside {SENSOR_WIDTH}x{SENSOR_HEIGHT}")
    if np.any(events["polarity"] > 1):
        raise FormatError(f"{path}: polarity byte other than 0 or 1")
    return events


def _read_counted(path, magic, n_header, record):
    """Header u32s and the packed records of an APS or dataset file."""
    with open(path, "rb") as fh:
        if fh.read(16) != magic:
            raise FormatError(f"{path}: bad magic")
        head = fh.read(4 * n_header)
        body = fh.read()
    if len(head) != 4 * n_header:
        raise FormatError(f"{path}: missing header")
    header = [int(v) for v in np.frombuffer(head, dtype="<u4")]
    if len(body) != header[0] * record.itemsize:
        raise FormatError(f"{path}: expected {header[0]} frames")
    return header, np.frombuffer(body, dtype=record)


def write_aps(path, aps_t, aps_raw):
    recs = np.empty(len(aps_t), dtype=APS_RECORD)
    recs["t"] = aps_t
    recs["raw"] = aps_raw
    with open(path, "wb") as fh:
        fh.write(APS_MAGIC)
        fh.write(np.uint32(len(recs)).tobytes())
        fh.write(recs)


def read_aps(path):
    _, recs = _read_counted(path, APS_MAGIC, 1, APS_RECORD)
    return recs["t"].astype(np.uint32), recs["raw"].astype(np.float32)


def write_labels(path, label_t, label_x):
    with open(path, "w") as fh:
        for t, x in zip(label_t, label_x):
            fh.write(f"{int(t)} {'N' if x < 0 else int(x)}\n")


def read_labels(path):
    """Label track: one `t x` or `t N` line per label, times nondecreasing."""
    ts, xs = [], []
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except UnicodeDecodeError:
        raise FormatError(f"{path}: label track is not text") from None
    for lineno, line in enumerate(lines, 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise FormatError(f"{path}:{lineno}: expected 't x' or 't N'")
        try:
            t = int(parts[0])
            x = -1 if parts[1] == "N" else int(parts[1])
        except ValueError:
            raise FormatError(f"{path}:{lineno}: bad label line") from None
        if not (0 <= t < 2**32 and (parts[1] == "N" or 0 <= x < FRAME_SIZE)):
            raise FormatError(f"{path}:{lineno}: label outside the u32 time "
                              f"or 0..{FRAME_SIZE - 1} column range")
        if ts and t < ts[-1]:
            raise FormatError(f"{path}:{lineno}: label time {t} before {ts[-1]}")
        ts.append(t)
        xs.append(x)
    return np.array(ts, dtype=np.uint32), np.array(xs, dtype=np.int16)


def load_recording(prefix) -> Recording:
    """Load rec files sharing a path prefix: .events, .aps, .labels."""
    events = read_events(str(prefix) + ".events")
    aps_t, aps_raw = read_aps(str(prefix) + ".aps")
    label_t, label_x = read_labels(str(prefix) + ".labels")
    return Recording(events=events, aps_t=aps_t, aps_raw=aps_raw,
                     label_t=label_t, label_x=label_x)


def save_recording(prefix, rec: Recording):
    write_events(str(prefix) + ".events", rec.events)
    write_aps(str(prefix) + ".aps", rec.aps_t, rec.aps_raw)
    write_labels(str(prefix) + ".labels", rec.label_t, rec.label_x)


def save_dataset(path, ds: Dataset):
    recs = np.empty(len(ds), dtype=DATASET_RECORD)
    recs["source"] = ds.source
    recs["label"] = ds.labels
    recs["target_x"] = np.where(ds.target_x < 0, 255, ds.target_x)
    recs["values"] = ds.frames
    with open(path, "wb") as fh:
        fh.write(DATASET_MAGIC)
        fh.write(np.array([len(ds), *ds.source_counts()], dtype="<u4").tobytes())
        fh.write(recs)


def load_dataset(path) -> Dataset:
    (_, n_aps, n_dvs), recs = _read_counted(path, DATASET_MAGIC, 3, DATASET_RECORD)
    tx = recs["target_x"]
    if np.any(recs["label"] > Decision.N) or np.any(recs["source"] > SOURCE_DVS):
        raise FormatError(f"{path}: label byte above 3 or source byte above 1")
    if np.any((tx >= FRAME_SIZE) & (tx != 255)):
        raise FormatError(f"{path}: target byte outside 0..{FRAME_SIZE - 1} and 255")
    ds = Dataset(frames=recs["values"].astype(np.float32),
                 labels=recs["label"].copy(),
                 target_x=np.where(tx == 255, -1, tx.astype(np.int16)),
                 source=recs["source"].copy())
    if ds.source_counts() != (n_aps, n_dvs):
        raise FormatError(f"{path}: source counts disagree with header")
    return ds
