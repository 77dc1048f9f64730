"""Dense tensor kernel and the runtime CNN.

Everything here is hand-rolled on top of numpy arrays: valid convolutions as
banded products, non-overlapping 2x2 max pooling, ReLU activations,
fully-connected layers, inverted dropout, softmax loss with analytic backprop,
Adam updates, guided backpropagation saliency, and a line-oriented text
weight format.

Array layout is channels-last: feature maps are (height, width, maps) and a
batch axis is prepended internally, so a batched activation is (n, h, w, c)
and a flat one is (n, d). Inference never changes a network's parameters;
per-call state lives on a tape, and the one thing a layer keeps, a Conv's
band, is replaced whole, so a loaded network can be shared across threads.

Inference (`predict`, `forward`, `forward_batch`, `input_gradient`,
`guided_backprop`) allocates its arrays afresh on every call, since its
results escape to the caller; `predict_batch` bounds them by scoring
PREDICT_CHUNK frames per forward pass, so past one chunk its logits can
differ from a single pass in the last bits. Training reuses them: the
training run owns a `Workspace` and passes it to every `loss_and_backward`
call, which takes each per-step activation, window copy and backward
temporary from it instead of from the allocator. Nothing drawn from the
workspace escapes a step (the returned gradients are fresh arrays), so a
step never page-faults fresh memory in. A workspace serves one step at a time, and a network runs
one training step at a time: the step updates its parameters in place.

Every layer computes `forward(x, tape)` one way; a tape, passed only when
something will run backward, records and never changes what a layer
computes. It holds each activation once, and a layer's `backward` rebuilds
what it needs from the layer's input and output: the ReLU gate and the
dense flattening from x. Three layers cache more: Conv its window rows and
band and MaxPool its gathered window phases, since gathering them again
would cost as much as their forward pass, and Dropout its random mask.
MaxPool's backward overwrites its phases with the routed gradient.

Conv and MaxPool work on long contiguous rows rather than loops over the
few channels of a channels-last map: Conv copies each output row's input
window into one row, and MaxPool gathers its four window phases with one
`take` through a flat index cached per input extent, so training and
inference run the same kernels.
Every `take` here passes out= and mode="wrap": with out= the default
mode="raise" buffers its output, and every index is in range, so "wrap"
reads what "clip" would, and it measures faster.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from enum import IntEnum

import numpy as np

N_CLASSES = 4
PREDICT_CHUNK = 64  # frames per forward pass of predict_batch


class Decision(IntEnum):
    """Steering decision. Values are the wire encoding and must not change."""

    L = 0
    C = 1
    R = 2
    N = 3

    @classmethod
    def from_name(cls, name: str) -> "Decision":
        try:
            return cls[name.upper()]
        except KeyError:
            raise ValueError(f"unknown decision name {name!r}") from None


class WeightFileError(Exception):
    """Base class for weight file problems."""


class MalformedWeightFileError(WeightFileError):
    """File is truncated, has a bad header, or is otherwise unparsable."""


class WeightShapeError(WeightFileError):
    """Declared layer shapes are inconsistent or parameter counts disagree."""


class UnsupportedLayerError(WeightFileError):
    """File declares a layer kind this engine does not implement."""


class ShapeMismatchError(ValueError):
    """Input does not match the network's declared input extent."""


def _glorot_init(rng, dtype):
    """Network parameter source: Glorot-uniform weights, zero biases (a bias
    is asked for with no fans)."""

    def init(shape, fan_in=None, fan_out=None):
        if fan_in is None:
            return np.zeros(shape, dtype=dtype)
        limit = math.sqrt(6.0 / (fan_in + fan_out))
        return rng.uniform(-limit, limit, size=shape).astype(dtype)

    return init


@functools.lru_cache(maxsize=32)
def _phase_index(h, w, c):
    """Flat offsets of the 2x2 window phases of an (h, w, c) map, and back.

    With m = (h // 2) * (w // 2) * c, entry k * m + q of the gather reads
    phase k = 2 * di + dj of output q = (i * (w // 2) + j) * c + ch, input
    (2i + di, 2j + dj, ch); one last entry reads offset 0 and makes room
    for a zero slot at 4 * m. Entry p of the inverse is where the gather
    put input p, or that zero slot for a floored last row or column.
    Every network with this input extent shares the arrays, so nothing may
    write to them. They are left writeable because `take` copies a
    read-only index on every call.
    """
    h2, w2 = h // 2, w // 2
    row = (2 * np.arange(h2)[:, None] + np.arange(2)) * w  # (i, di)
    col = 2 * np.arange(w2)[:, None] + np.arange(2)  # (j, dj)
    offsets = (row.T[:, None, :, None, None] + col.T[None, :, None, :, None]) * c
    gather = np.append((offsets + np.arange(c)).reshape(-1), 0)
    inverse = np.full(h * w * c, len(gather) - 1, dtype=gather.dtype)
    inverse[gather[:-1]] = np.arange(len(gather) - 1)
    return gather, inverse


@functools.lru_cache(maxsize=32)
def _tile_index(r, m):
    """Indices that repeat an m-vector r times: `v.take` of them is
    `np.tile(v, r)` in one call, which matters to a single-frame predict."""
    return np.arange(r * m) % m


class Workspace:
    """The per-step arrays of one training run, reused from step to step.

    `array(key, shape, dtype)` returns the array last handed out under key,
    or a fresh one in its place when the shape or dtype changed, so the
    workspace holds at most one step's live set. Layers key their arrays by
    (layer, role); the contents are whatever the last step left there.
    """

    def __init__(self):
        self._arrays = {}

    def array(self, key, shape, dtype):
        shape, dtype = tuple(shape), np.dtype(dtype)
        arr = self._arrays.get(key)
        if arr is None or arr.shape != shape or arr.dtype != dtype:
            arr = self._arrays[key] = np.empty(shape, dtype)
        return arr


def _workspace(tape):
    return None if tape is None else tape.workspace


def _out(workspace, layer, role, shape, dtype):
    """The `out=` array of a layer's op: pooled, or None to let it allocate."""
    return None if workspace is None else workspace.array((layer, role), shape, dtype)


def _full(workspace, layer, role, shape, dtype, value):
    if workspace is None:
        return np.full(shape, value, dtype)
    arr = workspace.array((layer, role), shape, dtype)
    arr.fill(value)
    return arr


class Layer:
    """Defaults for a layer that keeps its input extent and has no
    parameters and no multiplies or adds.

    Every op that makes a per-step array writes into `_out(workspace, ...)`,
    so a training step draws it from the workspace and any other call
    allocates it as numpy would.
    """

    def build(self, in_shape, init):
        """Output extent for in_shape; draws parameters from init."""
        return in_shape

    def params(self):
        return []

    def param_count(self):
        return sum(p.size for p in self.params())

    def op_count(self, out_shape):
        return 0


class Conv(Layer):
    """Valid (unpadded) stride-1 convolution with one bias per output map,
    computed as one banded product.

    Output row i reads input rows i..i+k-1, which lie next to each other in
    a channels-last (h, w, c) map. forward copies each output row's window,
    its k * w * c values in (row, col, map) order, into one row of `rows`,
    (n * h', k * w * c), and multiplies that by the band, (k * w * c,
    w' * maps), whose entry at row (a, col, ch) and column (j, map) is
    kernels[map, ch, a, col - j] where 0 <= col - j < k and 0 elsewhere. The
    product's rows are the output rows in channels-last order. Each input
    value is copied k times, where an im2col matrix holds k * k copies.

    backward multiplies the same two matrices the other way: rows.T @ dy is
    the band's gradient, whose k diagonals sum to the kernels' gradient, and
    dy @ band.T holds the gradient of every window, which k strided adds put
    back into dx.

    The band is built from the kernels on first use and kept with a copy of
    their bytes, so inference reuses it and an in-place update (training
    changes the kernels in place) rebuilds it on the next call.

    Forward adds each output's products in (row, col, map) order, with the
    band's zeros between them, so a one-map input gives bit for bit the
    output of an im2col product, whose columns run (row, col). With several
    maps an im2col product sums map by map instead, and the two differ in
    the last bits: by up to 6e-7 on runtime conv1 outputs of magnitude up
    to 1.1.
    """

    kind = "conv"

    def __init__(self, n_maps: int, kernel_size: int):
        if kernel_size < 1 or kernel_size % 2 == 0:
            raise ValueError("kernel_size must be odd and >= 1")
        self.n_maps = n_maps
        self.kernel_size = kernel_size
        self.kernels = None  # (out_maps, in_maps, k, k), set by build
        self.bias = None  # (out_maps,)
        self._band = None  # (kernel bytes, band), set by _band_for

    def build(self, in_shape, init):
        h, w, c = in_shape
        k = self.kernel_size
        if h < k or w < k:
            raise WeightShapeError(f"conv kernel {k} larger than input {in_shape}")
        self.kernels = init((self.n_maps, c, k, k), c * k * k, self.n_maps * k * k)
        self.bias = init((self.n_maps,))
        return (h - k + 1, w - k + 1, self.n_maps)

    def params(self):
        return [self.kernels, self.bias]

    def op_count(self, out_shape):
        # One op per necessary multiply or add: per output value that is
        # in_maps*k*k multiplies, in_maps*k*k - 1 sum adds, and one bias add.
        h, w, m = out_shape
        return h * w * m * 2 * self.kernels.shape[1] * self.kernel_size ** 2

    def _diagonals(self, band, w):
        """(k, k, c, w', maps) view of a (k * w * c, w' * maps) band or band
        gradient: entry [a, b, ch, j, map] is row (a, j + b, ch), column (j, map)."""
        m, c, k, _ = self.kernels.shape
        row = (w - k + 1) * m * band.itemsize  # the stride of a band row
        return np.ndarray((k, k, c, w - k + 1, m), band.dtype, band, 0,
                          (w * c * row, c * row, row, c * row + m * band.itemsize,
                           band.itemsize))

    def _band_for(self, w):
        """The band for the layer's inputs, w wide, rebuilt when the kernels
        changed. A new band replaces the old one whole, so threads that
        share a network read one band or the other, never a half-built one.
        """
        key, cached = self.kernels.tobytes(), self._band
        if cached is None or cached[0] != key:
            m, c, k, _ = self.kernels.shape
            band = np.zeros((k * w * c, (w - k + 1) * m), self.kernels.dtype)
            self._diagonals(band, w)[...] = self.kernels.transpose(2, 3, 1, 0)[:, :, :, None]
            self._band = cached = (key, band)
        return cached[1]

    def forward(self, x, tape):
        workspace = _workspace(tape)
        n, h, w, c = x.shape
        k, m = self.kernel_size, self.n_maps
        hh, ww = h - k + 1, w - k + 1
        # the k-row window of output row i starts at input row i; the strides
        # come from the shape, since numpy may give a length-1 axis any stride
        x = np.ascontiguousarray(x)
        s = x.itemsize
        windows = np.ndarray((n, hh, k * w * c), x.dtype, x, 0, (h * w * c * s, w * c * s, s))
        rows = _out(workspace, self, "rows", (n * hh, k * w * c), x.dtype)
        if rows is None:
            rows = np.empty((n * hh, k * w * c), x.dtype)
        np.copyto(rows.reshape(windows.shape), windows)
        band = self._band_for(w)
        y = np.matmul(rows, band, out=_out(workspace, self, "y", (n * hh, ww * m), x.dtype))
        # the bias add, r output positions per row: the same adds as a
        # broadcast over (n, h'*w', maps), on rows r times as long
        r = math.gcd(hh * ww, 16)
        wide = y.reshape(-1, r * m)
        wide += self.bias.take(_tile_index(r, m))
        if tape is not None:
            tape.caches[self] = (rows, band)
        return y.reshape(n, hh, ww, m)

    def backward(self, dy, x, y, cache, grads, need_dx=True, workspace=None):
        rows, band = cache
        n, hh, ww, m = dy.shape
        w, c, k = x.shape[2], x.shape[3], self.kernel_size
        dy_rows = dy.reshape(n * hh, ww * m)
        dband = np.matmul(rows.T, dy_rows,
                          out=_out(workspace, self, "dband", band.shape, dy.dtype))
        grads[0][...] = self._diagonals(dband, w).sum(axis=3).transpose(3, 2, 0, 1)
        # einsum sums each column in row order, as sum(axis=0) does, in one
        # pass over the rows; a one-map column is contiguous, and there sum
        # adds pairwise, so einsum would differ
        dy_flat = dy.reshape(-1, m)
        grads[1][...] = np.einsum("ij->j", dy_flat) if m > 1 else dy_flat.sum(axis=0)
        if not need_dx:
            return None
        dwin = np.matmul(dy_rows, band.T, out=_out(workspace, self, "dwin", rows.shape, dy.dtype))
        dwin = dwin.reshape(n, hh, k, w, c)
        dx = _full(workspace, self, "dx", x.shape, x.dtype, 0)
        for a in range(k):
            dx[:, a:a + hh] += dwin[:, :, a]
        return dx


class MaxPool(Layer):
    """Non-overlapping 2x2 max pool, stride 2; odd extents are floored.

    forward gathers each window's four phases, top-left (00), top-right
    (01), bottom-left (10) and bottom-right (11), into contiguous rows, and
    each output is their maximum, bit for bit max(max(00, 10), max(01, 11)).
    backward sends a window's gradient to its first maximum in that
    row-major order, found as the first phase where x == y, so ties go to
    the earlier element and -0.0 and 0.0 compare equal; every other input
    gets +0.0. Comparisons only: no multiplies or adds to count.
    """

    kind = "maxpool"

    def build(self, in_shape, init):
        h, w, c = in_shape
        return (h // 2, w // 2, c)

    def _phases(self, x, workspace):
        """(n, 4 * m + 1) rows: phase k of output q at k * m + q, and a last
        column left for backward's zero slot."""
        n, h, w, c = x.shape
        gather, _ = _phase_index(h, w, c)
        return x.reshape(n, h * w * c).take(
            gather, axis=1, mode="wrap",
            out=_out(workspace, self, "phases", (n, len(gather)), x.dtype))

    def forward(self, x, tape):
        workspace = _workspace(tape)
        n, h2, w2, c = x.shape[0], x.shape[1] // 2, x.shape[2] // 2, x.shape[3]
        m = h2 * w2 * c
        phases = self._phases(x, workspace)
        window = phases[:, :4 * m].reshape(n, 4, m)
        # max(max(max(00, 10), 01), 11) in place: np.maximum keeps its second
        # argument on a tie, so both this and max(max(00, 10), max(01, 11))
        # pick the last tied element in the order 00, 10, 01, 11
        y = np.maximum(window[:, 0], window[:, 2],
                       out=_out(workspace, self, "y", (n, m), x.dtype))
        np.maximum(y, window[:, 1], out=y)
        np.maximum(y, window[:, 3], out=y)
        if tape is not None:
            tape.caches[self] = phases
        return y.reshape(n, h2, w2, c)

    def backward(self, dy, x, y, phases, grads, workspace=None):
        """dx, writing the routed gradient over the phases (the tape's, or
        gathered afresh without one) before scattering it back."""
        n, h, w, c = x.shape
        m = math.prod(y.shape[1:])
        if phases is None:
            phases = self._phases(x, workspace)
        bits = np.dtype(f"u{x.itemsize}")
        window = phases[:, :4 * m].reshape(n, 4, m)
        routed = phases.view(bits)
        y, dy = y.reshape(n, m), dy.reshape(n, m).view(bits)
        unrouted = _full(workspace, self, "unrouted", (n, m), bool, True)
        first = _out(workspace, self, "first", (n, m), bool)
        for k in range(4):
            first = np.equal(window[:, k], y, out=first)
            first &= unrouted
            unrouted ^= first  # first lies inside unrouted: clears it there
            # phase k is read: its row takes a 0 or all-ones mask, then dy's bits
            part = routed[:, k * m:(k + 1) * m]
            np.subtract(0, first, out=part, dtype=bits)
            part &= dy
        routed[:, 4 * m] = 0  # the zero slot: +0.0 for floored rows and columns
        _, inverse = _phase_index(h, w, c)
        dx = phases.take(inverse, axis=1, mode="wrap",
                         out=_out(workspace, self, "dx", (n, len(inverse)), x.dtype))
        return dx.reshape(x.shape)


class Relu(Layer):
    kind = "relu"

    def forward(self, x, tape):
        return np.maximum(x, 0, out=_out(_workspace(tape), self, "y", x.shape, x.dtype))

    def backward(self, dy, x, y, cache, grads, guided=False, workspace=None):
        # gates dy in place: the network hands each layer a dy no one else holds
        gate = np.greater(x, 0, out=_out(workspace, self, "gate", x.shape, bool))
        if guided:
            gate &= dy > 0
        return np.multiply(dy, gate, out=dy)


class Dense(Layer):
    """Fully connected layer; flattens map inputs in (row, col, map) order."""

    kind = "dense"

    def __init__(self, n_units: int):
        self.n_units = n_units
        self.weights = None  # (out, in)
        self.bias = None

    def build(self, in_shape, init):
        d = math.prod(in_shape)
        self.weights = init((self.n_units, d), d, self.n_units)
        self.bias = init((self.n_units,))
        return (self.n_units,)

    def params(self):
        return [self.weights, self.bias]

    def op_count(self, out_shape):
        return self.n_units * 2 * self.weights.shape[1]

    def forward(self, x, tape):
        n, d = len(x), self.weights.shape[1]
        y = np.matmul(x.reshape(n, d), self.weights.T,
                      out=_out(_workspace(tape), self, "y", (n, self.n_units), x.dtype))
        y += self.bias
        return y

    def backward(self, dy, x, y, cache, grads, workspace=None):
        n, d = len(x), self.weights.shape[1]
        grads[0][...] = dy.T @ x.reshape(n, d)
        grads[1][...] = dy.sum(axis=0)
        dx = np.matmul(dy, self.weights, out=_out(workspace, self, "dx", (n, d), dy.dtype))
        return dx.reshape(x.shape)


class Dropout(Layer):
    """Inverted dropout; identity unless the tape is a training tape."""

    kind = "dropout"

    def __init__(self, rate: float):
        if not 0.0 <= rate < 1.0:
            raise ValueError("dropout rate must be in [0, 1)")
        self.rate = rate

    def forward(self, x, tape):
        if tape is None or not tape.train or self.rate == 0.0:
            return x
        if tape.rng is None:
            raise ValueError("training-mode dropout needs an rng")
        mask = (tape.rng.random(x.shape) >= self.rate) / (1.0 - self.rate)
        mask = mask.astype(x.dtype)
        tape.caches[self] = mask
        return x * mask

    def backward(self, dy, x, y, mask, grads, workspace=None):
        return dy if mask is None else dy * mask


@dataclass
class Tape:
    """Record of one forward pass for backward.

    acts holds each activation once: acts[0] is the batch input and
    acts[i + 1] the output of layer i. caches maps a layer to what its
    backward cannot rebuild from its input and output; only Conv, MaxPool
    and Dropout write there, and MaxPool's backward consumes its entry.
    A train tape makes dropout draw its mask from rng.
    A tape with a workspace makes the layers draw their arrays from it.
    """

    train: bool = False
    rng: object = None
    workspace: Workspace | None = None
    acts: list = field(default_factory=list)
    caches: dict = field(default_factory=dict)


class Network:
    """An ordered layer stack with a fixed input extent and 4 LCRN logits.

    init(shape, fan_in=None, fan_out=None) supplies every parameter array in
    layer order, weights before bias; by default it draws Glorot-uniform
    weights from rng and zero biases. load_weights passes the file's values.
    """

    def __init__(self, layers, input_shape=(36, 36, 1), rng=None, dtype=np.float32,
                 init=None):
        self.input_shape = tuple(int(v) for v in input_shape)
        self.layers = list(layers)
        self.dtype = np.dtype(dtype)
        if init is None:
            init = _glorot_init(np.random.default_rng(0) if rng is None else rng, self.dtype)
        shape = self.input_shape
        self.layer_shapes = [shape]
        for layer in self.layers:
            shape = layer.build(shape, init)
            self.layer_shapes.append(shape)
        if self.layers and shape != (N_CLASSES,):
            raise WeightShapeError(
                f"network must end in exactly {N_CLASSES} logits, got {shape}")

    def parameters(self):
        out = []
        for layer in self.layers:
            out.extend(layer.params())
        return out

    def _check_input(self, x):
        x = np.asarray(x, dtype=self.dtype)
        if x.shape == self.input_shape[:2]:
            x = x[..., None]
        if x.shape != self.input_shape:
            raise ShapeMismatchError(
                f"frame shape {x.shape} does not match input {self.input_shape}")
        return x[None]

    def _forward_batch(self, x, tape=None):
        if tape is not None:
            tape.acts.append(x)
        for layer in self.layers:
            x = layer.forward(x, tape)
            if tape is not None:
                tape.acts.append(x)
        return x

    def forward(self, frame):
        """Run one frame; returns (logits, per-layer activation list)."""
        tape = Tape()
        logits = self._forward_batch(self._check_input(frame), tape)[0]
        return _finite(logits), [a[0] for a in tape.acts[1:]]

    def predict(self, frame) -> Decision:
        """Decision for one frame; the same logits as `forward`, with no tape.

        The finite check and the argmax run on four Python floats, where
        numpy's call overhead would cost more than the work.
        """
        logits = self._forward_batch(self._check_input(frame))[0].tolist()
        if not all(map(math.isfinite, logits)):
            raise FloatingPointError("non-finite logits")
        return Decision(logits.index(max(logits)))  # the first maximum, as argmax

    def forward_batch(self, x):
        """Inference logits for a (n, h, w, c) batch; no tape, no dropout."""
        return self._forward_batch(np.asarray(x, dtype=self.dtype))

    def predict_batch(self, x):
        """Argmax decisions of a (n, h, w, c) batch, PREDICT_CHUNK frames per pass.

        Like `predict`, it raises FloatingPointError on non-finite logits.
        """
        # an empty batch still runs one (empty) pass, so it returns an empty array
        return np.concatenate([
            np.argmax(_finite(self.forward_batch(x[i:i + PREDICT_CHUNK])), axis=1)
            for i in range(0, max(len(x), 1), PREDICT_CHUNK)])

    def _backward_batch(self, dy, tape, guided=False, need_input_grad=False):
        grads = [np.zeros_like(p) for p in self.parameters()]
        slot = len(grads)
        for idx in range(len(self.layers) - 1, -1, -1):
            layer = self.layers[idx]
            n_params = len(layer.params())
            slot -= n_params
            args = (dy, tape.acts[idx], tape.acts[idx + 1], tape.caches.get(layer),
                    grads[slot:slot + n_params])
            if isinstance(layer, Relu):
                dy = layer.backward(*args, guided=guided, workspace=tape.workspace)
            elif isinstance(layer, Conv):
                dy = layer.backward(*args, need_dx=idx > 0 or need_input_grad,
                                    workspace=tape.workspace)
            else:
                dy = layer.backward(*args, workspace=tape.workspace)
        return dy, grads

    def loss_and_backward(self, frames, labels, train=True, rng=None, workspace=None):
        """Mean softmax cross-entropy over a batch plus per-parameter grads.

        frames: (n, h, w, c) or a single (h, w[, c]) frame; labels: Decision
        values, scalar or (n,). Every per-step array comes from workspace,
        a fresh one unless the training run passes its own; the returned
        gradients are fresh arrays.
        """
        x = np.asarray(frames, dtype=self.dtype)
        if x.ndim <= 3:
            x = self._check_input(x)
        labels = np.atleast_1d(np.asarray(labels, dtype=np.int64))
        tape = Tape(train=train, rng=rng,
                    workspace=Workspace() if workspace is None else workspace)
        logits = _finite(self._forward_batch(x, tape))
        probs = softmax(logits)
        n = logits.shape[0]
        loss = float(np.mean(-np.log(probs[np.arange(n), labels])))
        dlogits = probs.copy()
        dlogits[np.arange(n), labels] -= 1.0
        dlogits /= n
        _, grads = self._backward_batch(dlogits.astype(self.dtype), tape)
        return loss, grads

    def input_gradient(self, frame, target: Decision, guided=False):
        """d(target logit)/d(input); guided gates ReLUs on positive gradients."""
        tape = Tape()
        logits = self._forward_batch(self._check_input(frame), tape)
        dy = np.zeros_like(logits)
        dy[0, int(target)] = 1.0
        dx, _ = self._backward_batch(dy, tape, guided=guided, need_input_grad=True)
        return dx[0]

    def guided_backprop(self, frame, target: Decision):
        """Guided-backprop saliency for target, min-max normalized to [0, 1]."""
        g = self.input_gradient(frame, target, guided=True)[..., 0]
        lo, hi = float(g.min()), float(g.max())
        if hi - lo <= 0.0:
            return np.zeros_like(g)
        return ((g - lo) / (hi - lo)).astype(self.dtype)


def _finite(logits):
    if not np.all(np.isfinite(logits)):
        raise FloatingPointError("non-finite logits")
    return logits


def softmax(logits):
    z = logits - np.max(logits, axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def decision_from_logits(logits) -> Decision:
    """Argmax decision; ties break toward the lowest class index."""
    return Decision(int(np.argmax(logits)))


def runtime_network(rng=None, dropout_rate=0.25, dtype=np.float32) -> Network:
    """The canonical runtime stack: 4C5-R-2S-4C5-R-2S-40F-R-4F."""
    layers = [Conv(4, 5), Relu(), MaxPool(),
              Conv(4, 5), Relu(), MaxPool(),
              Dense(40), Relu(), Dropout(dropout_rate), Dense(4)]
    return Network(layers, input_shape=(36, 36, 1), rng=rng, dtype=dtype)


@dataclass
class AdamState:
    """Per-parameter first/second moment accumulators with bias correction."""

    m: list
    v: list
    t: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    lr: float = 1e-3

    @classmethod
    def for_params(cls, params, lr=1e-3):
        return cls(m=[np.zeros_like(p) for p in params],
                   v=[np.zeros_like(p) for p in params], lr=lr)


def adam_step(params, grads, state: AdamState):
    """In-place Adam update; increments state.t before bias correction."""
    state.t += 1
    b1, b2 = state.beta1, state.beta2
    c1 = 1.0 - b1 ** state.t
    c2 = 1.0 - b2 ** state.t
    for p, g, m, v in zip(params, grads, state.m, state.v):
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * np.square(g)
        p -= state.lr * (m / c1) / (np.sqrt(v / c2) + state.eps)
    return params, state


def param_count(net: Network) -> int:
    return sum(layer.param_count() for layer in net.layers)


def op_count(net: Network) -> int:
    """Forward-pass multiplies plus adds, counting each as one operation."""
    total = 0
    for layer, out_shape in zip(net.layers, net.layer_shapes[1:]):
        total += layer.op_count(out_shape)
    return total


WEIGHT_MAGIC = "evsteer-net v1"


def _fmt_values(arr):
    return " ".join(repr(float(v)) for v in np.asarray(arr).reshape(-1))


def save_weights(net: Network, path):
    """Text weight file; conv kernels serialize in (out-map, in-map, row, col) order."""
    lines = [WEIGHT_MAGIC, "input " + " ".join(str(v) for v in net.input_shape)]
    for layer in net.layers:
        if isinstance(layer, Conv):
            lines.append(f"conv {layer.n_maps} {layer.kernel_size}")
            lines.append(_fmt_values(layer.kernels))
            lines.append(_fmt_values(layer.bias))
        elif isinstance(layer, Dense):
            lines.append(f"dense {layer.n_units}")
            lines.append(_fmt_values(layer.weights))
            lines.append(_fmt_values(layer.bias))
        elif isinstance(layer, Dropout):
            lines.append(f"dropout {repr(layer.rate)}")
        else:
            lines.append(layer.kind)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _parse_values(line, shape, what):
    toks = line.split()
    expected = math.prod(shape)
    if len(toks) != expected:
        raise WeightShapeError(f"{what}: expected {expected} values, got {len(toks)}")
    try:
        with np.errstate(over="ignore"):  # out of float32 range reads as inf
            vals = np.array([float(t) for t in toks], dtype=np.float32)
    except ValueError as exc:
        raise MalformedWeightFileError(f"{what}: bad float literal: {exc}") from None
    if not np.all(np.isfinite(vals)):
        raise MalformedWeightFileError(f"{what}: non-finite value")
    return vals.reshape(shape)


def _decl_numbers(decl, cast):
    """Numeric fields of a layer declaration line; a bad number is malformed."""
    try:
        return [cast(v) for v in decl[1:]]
    except ValueError:
        raise MalformedWeightFileError(f"bad {decl[0]} declaration: {' '.join(decl)}") from None


def load_weights(path) -> Network:
    try:
        with open(path) as fh:
            lines = [ln.rstrip("\n") for ln in fh]
    except UnicodeDecodeError:
        raise MalformedWeightFileError("weight file is not text") from None
    lines = [ln for ln in lines if ln.strip()]
    if not lines or lines[0].strip() != WEIGHT_MAGIC:
        raise MalformedWeightFileError("missing or wrong header line")
    if len(lines) < 2 or not lines[1].startswith("input "):
        raise MalformedWeightFileError("missing input declaration")
    try:
        input_shape = tuple(int(v) for v in lines[1].split()[1:])
    except ValueError:
        raise MalformedWeightFileError("bad input declaration") from None
    if len(input_shape) != 3 or any(v < 1 for v in input_shape):
        raise WeightShapeError(f"bad input extent {input_shape}")

    pos = 2

    def next_line(what):
        nonlocal pos
        if pos >= len(lines):
            raise MalformedWeightFileError(f"file truncated: expected {what}")
        line = lines[pos]
        pos += 1
        return line

    layers = []
    values = []  # (declaration, value line) per parameter array, in file order
    while pos < len(lines):
        decl = next_line("layer").split()
        kind = decl[0]
        if kind == "conv":
            if len(decl) != 3:
                raise MalformedWeightFileError("conv declaration needs maps and kernel size")
            n_maps, k = _decl_numbers(decl, int)
            try:
                layer = Conv(n_maps, k)
            except ValueError as exc:
                raise WeightShapeError(f"conv {n_maps} {k}: {exc}") from None
        elif kind == "dense":
            if len(decl) != 2:
                raise MalformedWeightFileError("dense declaration needs unit count")
            layer = Dense(*_decl_numbers(decl, int))
        elif kind in ("maxpool", "relu"):
            layer = {"maxpool": MaxPool, "relu": Relu}[kind]()
        elif kind == "dropout":
            if len(decl) != 2:
                raise MalformedWeightFileError("dropout declaration needs a rate")
            try:
                layer = Dropout(*_decl_numbers(decl, float))
            except ValueError as exc:
                raise MalformedWeightFileError(str(exc)) from None
        else:
            raise UnsupportedLayerError(f"unknown layer kind {kind!r}")
        layers.append(layer)
        # one value line per parameter array; params() lists them unbuilt, as None
        values += [(" ".join(decl), next_line(f"{kind} values")) for _ in layer.params()]
    if not layers:
        raise WeightShapeError(f"network must end in {N_CLASSES} logits, got {input_shape}")
    pending = iter(values)

    def parse_next(shape, fan_in=None, fan_out=None):
        what, line = next(pending)
        return _parse_values(line, shape, what)

    return Network(layers, input_shape, init=parse_next)


def dump_activations(net: Network, frame, directory):
    """Write one plain-text matrix file per layer for a single frame."""
    import os

    os.makedirs(directory, exist_ok=True)
    _, acts = net.forward(frame)
    paths = []
    for i, (layer, act) in enumerate(zip(net.layers, acts)):
        path = os.path.join(directory, f"act_{i:02d}_{layer.kind}.txt")
        with open(path, "w") as fh:
            a = np.asarray(act)
            if a.ndim == 3:
                for ch in range(a.shape[2]):
                    np.savetxt(fh, a[:, :, ch], fmt="%.6g")
                    fh.write("\n")
            else:
                np.savetxt(fh, a.reshape(1, -1), fmt="%.6g")
        paths.append(path)
    return paths
