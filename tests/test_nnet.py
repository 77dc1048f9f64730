import hashlib
import math
import sys
import threading
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evsteer import nnet
from evsteer.nnet import (PREDICT_CHUNK, WEIGHT_MAGIC, AdamState, Conv, Decision,
                          Dense, Dropout, MaxPool, Network, Relu, Tape,
                          WeightFileError, Workspace, adam_step,
                          decision_from_logits, load_weights, op_count,
                          param_count, runtime_network, save_weights, softmax)

from oracles import argmax_pool, naive_conv, naive_conv_backward, naive_forward

LN4 = math.log(4.0)


def small_net(seed, dropout=0.0, input_hw=8):
    rng = np.random.default_rng(seed)
    layers = [Conv(2, 3), Relu(), MaxPool(), Dense(6), Relu()]
    if dropout > 0:
        layers.append(Dropout(dropout))
    layers.append(Dense(4))
    return Network(layers, input_shape=(input_hw, input_hw, 1), rng=rng,
                   dtype=np.float64)


class TestForward:
    def test_runtime_shape_chain(self):
        net = runtime_network(np.random.default_rng(0))
        assert net.layer_shapes == [(36, 36, 1), (32, 32, 4), (32, 32, 4),
                                    (16, 16, 4), (12, 12, 4), (12, 12, 4),
                                    (6, 6, 4), (40,), (40,), (40,), (4,)]

    def test_zero_net_gives_zero_logits(self, rng):
        net = runtime_network(rng)
        for p in net.parameters():
            p[...] = 0.0
        logits, _ = net.forward(rng.random((36, 36)).astype(np.float32))
        np.testing.assert_array_equal(logits, np.zeros(4, dtype=np.float32))

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_naive_loop_oracle_small(self, seed):
        rng = np.random.default_rng(seed)
        net = Network([Conv(3, 3), Relu(), MaxPool(), Conv(2, 3), Relu(),
                       Dense(5), Relu(), Dense(4)],
                      input_shape=(16, 16, 1), rng=rng, dtype=np.float64)
        x = rng.random((16, 16, 1))
        logits, _ = net.forward(x)
        expect = naive_forward(net, x)
        np.testing.assert_allclose(logits, expect, rtol=1e-6)

    def test_matches_naive_loop_oracle_runtime(self, rng):
        net = runtime_network(rng)
        x = rng.random((36, 36, 1)).astype(np.float32)
        logits, _ = net.forward(x)
        expect = naive_forward(net, x)
        np.testing.assert_allclose(logits, expect, rtol=1e-5, atol=1e-6)

    def test_activations_returned_per_layer(self, rng):
        net = runtime_network(rng)
        _, acts = net.forward(rng.random((36, 36)).astype(np.float32))
        assert len(acts) == len(net.layers)
        assert acts[0].shape == (32, 32, 4)
        assert acts[-1].shape == (4,)

    def test_shape_mismatch_raises(self, rng):
        net = runtime_network(rng)
        with pytest.raises(nnet.ShapeMismatchError):
            net.forward(np.zeros((40, 36)))

    def test_inference_is_deterministic_with_dropout_layer(self, rng):
        net = runtime_network(rng, dropout_rate=0.3)
        x = rng.random((36, 36)).astype(np.float32)
        a, _ = net.forward(x)
        b, _ = net.forward(x)
        np.testing.assert_array_equal(a, b)


_POOL_RNG = np.random.default_rng(7)
POOL_CASES = {
    "ties": _POOL_RNG.integers(0, 2, (2, 8, 8, 3)).astype(np.float32),
    "signed_zeros": _POOL_RNG.choice(np.array([-0.0, 0.0], np.float32), (2, 8, 8, 3)),
    "infs": _POOL_RNG.choice(np.array([-np.inf, np.inf, -1.0, 2.0], np.float32),
                             (2, 8, 8, 3)),
    "odd_13x13": _POOL_RNG.normal(size=(3, 13, 13, 4)).astype(np.float32),
    "odd_15x13": _POOL_RNG.integers(-2, 3, (2, 15, 13, 3)).astype(np.float32),
    # a training batch at conv0's extent after ReLU: one window in 16 ties at 0
    "relu_64x32x32x4": np.maximum(_POOL_RNG.normal(size=(64, 32, 32, 4)), 0)
                       .astype(np.float32),
}


class TestTapeFreeInference:
    """predict and forward_batch take the tape-free path; it must not drift."""

    @pytest.mark.parametrize("n", [1, 3, 64])
    def test_tape_free_batch_is_bitwise_the_taped_one(self, rng, n):
        net = runtime_network(rng)
        x = rng.random((n, 36, 36, 1)).astype(np.float32)
        taped = net._forward_batch(x, tape=Tape())
        assert net._forward_batch(x).tobytes() == taped.tobytes()

    @pytest.mark.parametrize("case", sorted(POOL_CASES))
    def test_pool_without_tape_equals_argmax_routing(self, case):
        x = POOL_CASES[case]
        pool = MaxPool()
        y = pool.forward(x, None)
        dy = np.random.default_rng(3).normal(size=y.shape).astype(x.dtype)
        want_y, want_dx = argmax_pool(x, dy)
        assert y.shape == want_y.shape
        assert y.shape[1:3] == (x.shape[1] // 2, x.shape[2] // 2)
        # == semantics: a tie between -0.0 and 0.0 may keep either zero
        np.testing.assert_array_equal(y, want_y)
        assert pool.backward(dy, x, y, None, []).tobytes() == want_dx.tobytes()

    def test_predict_is_the_forward_decision(self, rng):
        net = runtime_network(rng)
        for frame in rng.random((500, 36, 36)).astype(np.float32):
            assert net.predict(frame) == decision_from_logits(net.forward(frame)[0])

    @pytest.mark.filterwarnings("ignore:overflow encountered in matmul")
    def test_non_finite_weights_still_raise(self, rng):
        net = runtime_network(rng)
        net.layers[0].kernels[0, 0, 2, 2] = np.nan
        with pytest.raises(FloatingPointError):
            net.predict(rng.random((36, 36)).astype(np.float32))
        batch = rng.random((PREDICT_CHUNK + 1, 36, 36, 1)).astype(np.float32)
        with pytest.raises(FloatingPointError):
            net.predict_batch(batch)
        # finite weights whose logits overflow float32 raise too
        net = runtime_network(rng)
        net.layers[-1].weights[:] = 3e38
        with pytest.raises(FloatingPointError):
            net.predict(batch[0])
        with pytest.raises(FloatingPointError):
            net.predict_batch(batch)

    def test_predict_calls_each_layer_forward_once(self, rng):
        # per-layer tracing wraps layer.forward on the instance
        net = runtime_network(rng)
        calls = Counter()
        for i, layer in enumerate(net.layers):
            def counted(*args, _i=i, _forward=layer.forward, **kwargs):
                calls[_i] += 1
                return _forward(*args, **kwargs)
            layer.forward = counted
        net.predict(rng.random((36, 36)).astype(np.float32))
        assert calls == Counter(range(len(net.layers)))


class TestRowKernels:
    """Pool phases, the wide bias add and the einsum bias gradient equal the
    plain per-channel forms bit for bit."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("case", sorted(POOL_CASES))
    def test_pool_with_and_without_cached_phases_equals_argmax_routing(self, case, dtype):
        x = POOL_CASES[case].astype(dtype)
        h2, w2 = x.shape[1] // 2, x.shape[2] // 2
        dy = np.random.default_rng(3).normal(size=(len(x), h2, w2, x.shape[3])).astype(dtype)
        _, want_dx = argmax_pool(x, dy)
        # y's bits are those of max(max(00, 10), max(01, 11)) on strided
        # views, in that order, down to which signed zero a tie keeps
        even, odd = (x[:, i:2 * h2:2, : 2 * w2] for i in (0, 1))
        rows = np.maximum(even, odd)
        want_y = np.maximum(rows[:, :, 0::2], rows[:, :, 1::2])
        pool = MaxPool()
        workspace = Workspace()
        for _ in range(2):  # the second pass reuses dirty arrays
            tape = Tape(workspace=workspace)
            y = pool.forward(x, tape)
            assert y.tobytes() == want_y.tobytes()
            dx = pool.backward(dy, x, y, tape.caches[pool], [], workspace=workspace)
            assert dx.tobytes() == want_dx.tobytes()
        assert pool.backward(dy, x, y, None, []).tobytes() == want_dx.tobytes()

    @pytest.mark.parametrize("in_hw", [(17, 15), (16, 16), (36, 36), (14, 10), (5, 5)])
    def test_wide_bias_add_equals_the_broadcast_add(self, in_hw):
        # outputs 13x11 (143 positions, one per row), 12x12, 32x32, 10x6, 1x1
        rng = np.random.default_rng(5)
        conv = Conv(4, 5)
        conv.build(in_hw + (3,), lambda s, fan_in=None, fan_out=None:
                   rng.normal(size=s).astype(np.float32))
        x = rng.normal(size=(3,) + in_hw + (3,)).astype(np.float32)
        tape = Tape()
        y = conv.forward(x, tape)
        rows, band = tape.caches[conv]
        want = (rows @ band).reshape(y.shape)
        want += conv.bias
        assert y.tobytes() == want.tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("maps", [2, 3, 4, 8, 40])
    def test_einsum_column_sum_is_sum_over_rows(self, maps, dtype):
        # Conv's bias gradient relies on this for two or more maps; a numpy
        # that sums either way differently fails here
        rng = np.random.default_rng(maps)
        for rows in (1, 2, 3, 7, 8, 9, 15, 16, 17, 127, 128, 129, 1000, 4096, 8191,
                     65536, 131072):
            a = rng.standard_normal((rows, maps), dtype=dtype)
            a *= 100
            assert np.einsum("ij->j", a).tobytes() == a.sum(axis=0).tobytes(), rows

    @pytest.mark.parametrize("maps", [1, 4])
    def test_bias_gradient_is_the_column_sum(self, maps):
        rng = np.random.default_rng(6)
        conv = Conv(maps, 5)
        conv.build((36, 36, 1), lambda s, fan_in=None, fan_out=None:
                   rng.normal(size=s).astype(np.float32))
        x = rng.random((64, 36, 36, 1), dtype=np.float32)
        tape = Tape()
        y = conv.forward(x, tape)
        dy = rng.normal(size=y.shape).astype(np.float32)
        grads = [np.zeros_like(p) for p in conv.params()]
        conv.backward(dy, x, y, tape.caches[conv], grads, need_dx=False)
        assert grads[1].tobytes() == dy.reshape(-1, maps).sum(axis=0).tobytes()


class TestReadOnlyInference:
    """Inference changes no parameter and adds no attribute, so threads may
    share a loaded network."""

    @staticmethod
    def _state(net):
        return ([sorted(vars(layer)) for layer in net.layers],
                [p.tobytes() for p in net.parameters()])

    @pytest.mark.parametrize("call", [
        lambda net, x, rng: net.predict(x[0]),
        lambda net, x, rng: net.forward(x[0]),
        lambda net, x, rng: net.forward_batch(x),
        lambda net, x, rng: net.loss_and_backward(x, [0, 1, 2, 3], train=True, rng=rng),
        lambda net, x, rng: net.guided_backprop(x[0], Decision.R),
    ], ids=["predict", "forward", "forward_batch", "loss_and_backward",
            "guided_backprop"])
    def test_calls_leave_layers_and_parameters_unchanged(self, rng, call):
        net = runtime_network(rng)
        x = rng.random((4, 36, 36, 1)).astype(np.float32)
        before = self._state(net)
        call(net, x, rng)
        assert self._state(net) == before

    def test_two_threads_predict_the_serial_decisions(self, rng, tmp_path):
        save_weights(runtime_network(rng), tmp_path / "w.net")
        net = load_weights(tmp_path / "w.net")
        frames = rng.random((200, 36, 36)).astype(np.float32)
        serial = [net.predict(f) for f in frames]
        results = [None, None]
        start = threading.Barrier(2, timeout=60)

        def run(slot):
            start.wait()
            results[slot] = [net.predict(f) for f in frames]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=run, args=(i,)) for i in range(2)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert results == [serial, serial]


class TestPredict:
    def test_argmax(self):
        assert decision_from_logits([0.1, 0.9, 0.2, 0.1]) is Decision.C

    def test_tie_breaks_to_lowest_index(self):
        assert decision_from_logits([0.5, 0.5, 0.1, 0.1]) is Decision.L

    @given(st.lists(st.integers(-1000, 1000), min_size=4, max_size=4),
           st.integers(1, 300), st.integers(-500, 500))
    def test_monotone_transform_invariance(self, grid, scale_c, shift_c):
        # coarse grid keeps strict orderings strict under the affine map
        logits = [v / 100.0 for v in grid]
        scale, shift = scale_c / 100.0, shift_c / 100.0
        base = decision_from_logits(logits)
        transformed = [scale * v + shift for v in logits]
        assert decision_from_logits(transformed) == base
        assert decision_from_logits([math.atan(v) for v in logits]) == base


class TestPredictBatch:
    def test_chunks_keep_decisions_and_bound_peak_memory(self):
        net = runtime_network(np.random.default_rng(0))
        x = np.random.default_rng(2).random((1500, 36, 36, 1), dtype=np.float32)

        def traced(batch):
            tracemalloc.start()
            try:
                return net.predict_batch(batch), tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        decisions, peak = traced(x)
        _, chunk_peak = traced(x[:PREDICT_CHUNK])
        want = [np.argmax(net.forward_batch(x[i:i + PREDICT_CHUNK]), axis=1)
                for i in range(0, len(x), PREDICT_CHUNK)]
        assert decisions.tobytes() == np.concatenate(want).tobytes()
        # one pass over all 1,500 frames peaks near 170 MiB, far above one chunk
        assert peak < 1.2 * chunk_peak


def rel_err(a, b):
    na = np.linalg.norm(np.asarray(a).ravel())
    nb = np.linalg.norm(np.asarray(b).ravel())
    return np.linalg.norm((np.asarray(a) - np.asarray(b)).ravel()) / max(na + nb, 1e-12)


def finite_diff_grads(net, x, label, h=1e-4, dropout_seed=None):
    grads = []

    def loss():
        rng = None if dropout_seed is None else np.random.default_rng(dropout_seed)
        val, _ = net.loss_and_backward(x, label, train=dropout_seed is not None,
                                       rng=rng)
        return val

    for p in net.parameters():
        g = np.zeros_like(p)
        flat = p.reshape(-1)
        gf = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            hi = loss()
            flat[i] = orig - h
            lo = loss()
            flat[i] = orig
            gf[i] = (hi - lo) / (2 * h)
        grads.append(g)
    return grads


class TestGradients:
    @pytest.mark.parametrize("seed", [1, 3, 5])
    def test_analytic_matches_central_differences(self, seed):
        net = small_net(seed)
        rng = np.random.default_rng(seed + 100)
        x = rng.random((8, 8, 1))
        label = seed % 4
        _, analytic = net.loss_and_backward(x, label, train=False)
        numeric = finite_diff_grads(net, x, label)
        for a, n in zip(analytic, numeric):
            assert rel_err(a, n) < 1e-4

    def test_gradcheck_with_frozen_dropout_mask(self):
        net = small_net(7, dropout=0.3)
        rng = np.random.default_rng(77)
        x = rng.random((8, 8, 1))
        _, analytic = net.loss_and_backward(x, 2, train=True,
                                            rng=np.random.default_rng(5))
        numeric = finite_diff_grads(net, x, 2, dropout_seed=5)
        for a, n in zip(analytic, numeric):
            assert rel_err(a, n) < 1e-4

    def test_uniform_logits_loss_is_ln4(self, rng):
        net = runtime_network(rng, dtype=np.float64)
        for p in net.parameters():
            p[...] = 0.0
        loss, _ = net.loss_and_backward(rng.random((36, 36)), Decision.C,
                                        train=False)
        assert loss == pytest.approx(LN4, abs=1e-12)

    def test_zero_input_only_bias_grads_in_first_conv(self, rng):
        net = runtime_network(rng, dtype=np.float64)
        for layer in net.layers:
            if layer.params():
                # positive biases keep the ReLU paths live
                layer.bias[...] = 0.1 + np.abs(rng.normal(size=layer.bias.shape))
        loss, grads = net.loss_and_backward(np.zeros((36, 36)), 0, train=False)
        kernel_grad, bias_grad = grads[0], grads[1]
        np.testing.assert_array_equal(kernel_grad, 0.0)
        assert np.any(bias_grad != 0.0)

    def test_maxpool_routes_gradient_to_argmax_only(self, rng):
        # the sum of deposited gradient equals the incoming gradient sum
        pool = MaxPool()
        x = rng.random((3, 8, 8, 2))
        y = pool.forward(x, None)
        dy = rng.random(y.shape)
        dx = pool.backward(dy, x, y, None, [])
        assert np.count_nonzero(dx) <= dy.size
        assert dx.sum() == pytest.approx(dy.sum(), rel=1e-12)

    def test_softmax_sums_to_one(self, rng):
        z = rng.normal(size=(50, 4)) * 10
        np.testing.assert_allclose(softmax(z).sum(axis=1), 1.0, atol=1e-9)

    def test_loss_nonnegative(self, rng):
        net = small_net(3)
        for _ in range(10):
            loss, _ = net.loss_and_backward(rng.random((8, 8, 1)),
                                            int(rng.integers(4)), train=False)
            assert loss >= 0.0


def dvs_like_batch(n, seed):
    """n frames at the 0.5 rest level with sparse +-1..3 event steps, and labels."""
    rng = np.random.default_rng(seed)
    steps = rng.integers(-3, 4, (n, 36, 36, 1)) * (rng.random((n, 36, 36, 1)) < 0.15)
    return (0.5 + steps / 200).astype(np.float32), rng.integers(0, 4, n)


def step_digest(loss, grads):
    digest = hashlib.sha256(repr(loss).encode())
    for g in grads:
        digest.update(g.tobytes())
    return digest.hexdigest()


def train_step(net, batch, workspace=None):
    x, labels = batch
    return net.loss_and_backward(x, labels, train=True, rng=np.random.default_rng(1),
                                 workspace=workspace)


# sha256 of the loss repr and every gradient's bytes from loss_and_backward
# (train=True, dropout rng seed 1) of the seed-0 runtime network on
# dvs_like_batch(n, seed=n) (numpy 2.4, x86-64), hashed once convolutions
# became banded products.
GRADIENT_SHA256 = {
    64: "855aacf89998bf40d51660581164d7c99ac5b53a8fa30f9f1025b45710faa5fb",
    17: "f3b6b287ebae78f6442660728cd77143a5cc98acd3852034573bfe0638405857",
}


class TestGradientGolden:
    @pytest.mark.parametrize("n", sorted(GRADIENT_SHA256))
    @pytest.mark.parametrize("pooled", [False, True], ids=["fresh", "workspace"])
    def test_gradients_are_pinned(self, n, pooled):
        net = runtime_network(np.random.default_rng(0))
        workspace = Workspace() if pooled else None
        batch = dvs_like_batch(n, seed=n)
        for _ in range(2 if pooled else 1):  # the second step reuses dirty arrays
            assert step_digest(*train_step(net, batch, workspace)) == GRADIENT_SHA256[n]


class TestTrainingWorkspace:
    """A step takes its arrays from the workspace; nothing carries between steps."""

    def test_warm_batch_64_step_allocates_at_most_2_mib(self):
        net = runtime_network(np.random.default_rng(0))
        workspace = Workspace()
        batch = dvs_like_batch(64, seed=64)
        for _ in range(2):
            train_step(net, batch, workspace)
        tracemalloc.start()
        try:
            train_step(net, batch, workspace)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * 2**20  # about 16 MiB with every array fresh

    def test_batch_64_17_64_gradients_equal_a_fresh_network(self):
        net = runtime_network(np.random.default_rng(0))
        workspace = Workspace()
        for n in (64, 17, 64):
            batch = dvs_like_batch(n, seed=n)
            fresh = runtime_network(np.random.default_rng(0))
            assert (step_digest(*train_step(net, batch, workspace))
                    == step_digest(*train_step(fresh, batch)))

    def test_results_survive_a_later_step(self):
        net = runtime_network(np.random.default_rng(0))
        workspace = Workspace()
        x, labels = dvs_like_batch(64, seed=64)
        _, acts = net.forward(x[0])
        saliency = net.input_gradient(x[1], Decision.R)
        _, grads = train_step(net, (x, labels), workspace)
        kept = [a.copy() for a in (*acts, saliency, *grads)]
        train_step(net, dvs_like_batch(64, seed=5), workspace)
        for got, want in zip((*acts, saliency, *grads), kept):
            assert got.tobytes() == want.tobytes()


# c = 3 with k = 3, and a 1x1 output, whose one-row products go to gemv
COL2IM_CASES = [((64, 16, 16, 4), 5), ((3, 36, 36, 1), 5), ((2, 13, 11, 3), 3),
                ((2, 5, 5, 3), 5)]


def _conv_case(shape, k):
    rng = np.random.default_rng(11)
    conv = Conv(4, k)
    conv.build(shape[1:], lambda s, fan_in=None, fan_out=None:
               rng.normal(size=s).astype(np.float32))
    x = rng.normal(size=shape).astype(np.float32)
    hh, ww = shape[1] - k + 1, shape[2] - k + 1
    dy = rng.normal(size=(shape[0], hh, ww, 4)).astype(np.float32)
    return conv, x, dy


def _assert_close(got, want):
    # float32 sums of up to c*k*k*maps products against float64 ones
    np.testing.assert_allclose(got, want, rtol=1e-5, atol=1e-5 * np.abs(want).max())


class TestCol2im:
    """The band product and its k strided adds against float64 loops."""

    @pytest.mark.parametrize("shape,k", COL2IM_CASES, ids=lambda v: str(v))
    @pytest.mark.parametrize("pooled", [False, True], ids=["fresh", "workspace"])
    def test_conv_input_gradient_is_the_strided_add(self, shape, k, pooled):
        conv, x, dy = _conv_case(shape, k)
        want, _, _ = naive_conv_backward(x, conv.kernels, dy)
        workspace = Workspace() if pooled else None
        for _ in range(2 if pooled else 1):  # the second pass reuses dirty arrays
            tape = Tape(workspace=workspace)
            y = conv.forward(x, tape)
            grads = [np.zeros_like(p) for p in conv.params()]
            dx = conv.backward(dy, x, y, tape.caches[conv], grads, workspace=workspace)
            _assert_close(dx, want)

    @pytest.mark.parametrize("shape,k", COL2IM_CASES, ids=lambda v: str(v))
    def test_forward_and_parameter_gradients_match_loop_oracles(self, shape, k):
        conv, x, dy = _conv_case(shape, k)
        tape = Tape()
        y = conv.forward(x, tape)
        _assert_close(y, np.stack([naive_conv(frame, conv.kernels, conv.bias) for frame in x]))
        grads = [np.zeros_like(p) for p in conv.params()]
        assert conv.backward(dy, x, y, tape.caches[conv], grads, need_dx=False) is None
        _, dkernels, dbias = naive_conv_backward(x, conv.kernels, dy)
        _assert_close(grads[0], dkernels)
        _assert_close(grads[1], dbias)


class TestBandConv:
    @pytest.mark.parametrize("n", [1, 64])
    def test_a_one_map_input_is_the_im2col_product_bit_for_bit(self, n):
        # conv0 of the runtime network: this keeps the run-log goldens
        conv = runtime_network(np.random.default_rng(n)).layers[0]
        x = np.random.default_rng(7).random((n, 36, 36, 1), dtype=np.float32)
        cols = np.lib.stride_tricks.sliding_window_view(x[..., 0], (5, 5), axis=(1, 2))
        want = np.matmul(cols.reshape(n, 32 * 32, 25), conv.kernels.reshape(4, 25).T)
        want += conv.bias
        assert conv.forward(x, None).tobytes() == want.tobytes()

    def test_a_stride_0_axis_reads_as_a_contiguous_copy(self, rng):
        net = runtime_network(rng)
        frames = rng.random((3, 36, 36)).astype(np.float32)
        # numpy gives a new axis stride 0: _check_input's x[None] and [..., None]
        for x in (net._check_input(frames[0]), frames[..., None]):
            assert x.strides[3] == 0
            assert net.forward_batch(x).tobytes() == net.forward_batch(x.copy()).tobytes()

    def test_predict_after_adam_step_is_the_saved_networks(self, tmp_path):
        net = runtime_network(np.random.default_rng(0))
        x, labels = dvs_like_batch(64, seed=3)
        net.forward_batch(x)  # builds the bands from the first kernels
        state = AdamState.for_params(net.parameters())
        for _ in range(2):
            _, grads = train_step(net, (x, labels))
            adam_step(net.parameters(), grads, state)
        save_weights(net, tmp_path / "w.net")
        loaded = load_weights(tmp_path / "w.net")
        assert net.forward_batch(x).tobytes() == loaded.forward_batch(x).tobytes()
        assert [net.predict(f) for f in x] == [loaded.predict(f) for f in x]


class TestAdam:
    def test_single_step_scalar(self):
        p = [np.array([0.0])]
        g = [np.array([1.0])]
        state = AdamState.for_params(p)
        adam_step(p, g, state)
        # bias-corrected m_hat = v_hat = 1 exactly after one step
        assert p[0][0] == pytest.approx(-1e-3 / (1.0 + 1e-8), rel=1e-12)
        assert state.t == 1

    def test_zero_gradient_leaves_params(self, rng):
        net = small_net(1)
        params = net.parameters()
        before = [p.copy() for p in params]
        state = AdamState.for_params(params)
        adam_step(params, [np.zeros_like(p) for p in params], state)
        for a, b in zip(params, before):
            np.testing.assert_array_equal(a, b)

    def test_two_steps_match_scalar_straight_line(self):
        p = [np.array([0.25])]
        state = AdamState.for_params(p, lr=1e-3)
        for _ in range(2):
            adam_step(p, [np.array([1.0])], state)
        # independent scalar recomputation
        m = v = 0.0
        x = 0.25
        for t in (1, 2):
            m = 0.9 * m + 0.1 * 1.0
            v = 0.999 * v + 0.001 * 1.0
            x -= 1e-3 * (m / (1 - 0.9 ** t)) / (math.sqrt(v / (1 - 0.999 ** t)) + 1e-8)
        assert p[0][0] == pytest.approx(x, rel=1e-14)


class TestDropout:
    def test_rate_zero_is_identity(self, rng):
        d = Dropout(0.0)
        x = rng.random((4, 10))
        np.testing.assert_array_equal(d.forward(x, Tape(train=True, rng=rng)), x)

    def test_zeroed_fraction_binomial(self):
        d = Dropout(0.25)
        x = np.ones((1, 1_000_000), dtype=np.float32)
        y = d.forward(x, Tape(train=True, rng=np.random.default_rng(99)))
        frac = float(np.mean(y == 0.0))
        assert abs(frac - 0.25) < 0.002
        survivors = y[y != 0]
        np.testing.assert_allclose(survivors, 1.0 / 0.75, rtol=1e-6)

    def test_not_applied_at_inference(self, rng):
        d = Dropout(0.9)
        x = rng.random((2, 50))
        np.testing.assert_array_equal(d.forward(x, Tape(rng=rng)), x)


class TestGuidedBackprop:
    def test_without_relu_equals_plain_gradient(self, rng):
        net = Network([Conv(2, 3), MaxPool(), Dense(4)],
                      input_shape=(8, 8, 1), rng=rng, dtype=np.float64)
        x = rng.random((8, 8, 1))
        plain = net.input_gradient(x, Decision.R, guided=False)
        guided = net.input_gradient(x, Decision.R, guided=True)
        np.testing.assert_array_equal(plain, guided)

    def test_negative_incoming_gradient_blocked(self):
        # dense weights all negative: gradient arriving at the relu is < 0
        rng = np.random.default_rng(0)
        net = Network([Dense(6), Relu(), Dense(4)], input_shape=(3, 3, 1),
                      rng=rng, dtype=np.float64)
        net.layers[2].weights[...] = -1.0
        x = rng.random((3, 3, 1)) + 0.5
        guided = net.input_gradient(x, Decision.L, guided=True)
        np.testing.assert_array_equal(guided, 0.0)

    def test_saliency_normalized_range(self, rng):
        net = runtime_network(rng)
        s = net.guided_backprop(rng.random((36, 36)).astype(np.float32), Decision.C)
        assert s.shape == (36, 36)
        assert s.min() >= 0.0 and s.max() <= 1.0

    def test_zero_net_gives_zero_map(self, rng):
        net = runtime_network(rng)
        for p in net.parameters():
            p[...] = 0.0
        s = net.guided_backprop(rng.random((36, 36)).astype(np.float32), Decision.C)
        np.testing.assert_array_equal(s, 0.0)


class TestCounts:
    def test_runtime_param_count_exact(self, rng):
        net = runtime_network(rng)
        assert param_count(net) == 6_472  # 104 + 404 + 5800 + 164

    def test_runtime_op_count_in_budget(self, rng):
        net = runtime_network(rng)
        ops = op_count(net)
        assert ops == 331_840
        assert 315_000 <= ops <= 385_000

    def test_empty_net_counts_zero(self):
        net = Network([], input_shape=(36, 36, 1))
        assert param_count(net) == 0
        assert op_count(net) == 0


class TestWeightFiles:
    def test_round_trip_bit_exact(self, rng, tmp_path):
        net = runtime_network(rng)
        path = tmp_path / "w.net"
        save_weights(net, path)
        loaded = load_weights(path)
        assert [l.kind for l in loaded.layers] == [l.kind for l in net.layers]
        for a, b in zip(net.parameters(), loaded.parameters()):
            np.testing.assert_array_equal(a, b)
            assert a.dtype == b.dtype

    def test_round_trip_preserves_forward(self, rng, tmp_path):
        net = runtime_network(rng)
        path = tmp_path / "w.net"
        save_weights(net, path)
        loaded = load_weights(path)
        x = rng.random((36, 36)).astype(np.float32)
        np.testing.assert_array_equal(net.forward(x)[0], loaded.forward(x)[0])

    def test_truncated_file_is_malformed(self, rng, tmp_path):
        net = runtime_network(rng)
        path = tmp_path / "w.net"
        save_weights(net, path)
        text = path.read_text().splitlines()
        path.write_text("\n".join(text[:-2]) + "\n")
        with pytest.raises(nnet.MalformedWeightFileError):
            load_weights(path)

    def test_wrong_logit_count_is_shape_error(self, tmp_path):
        net = Network([Dense(4)], input_shape=(2, 2, 1))
        path = tmp_path / "w.net"
        save_weights(net, path)
        path.write_text(path.read_text().replace("dense 4", "dense 5"))
        with pytest.raises(nnet.WeightShapeError):
            load_weights(path)

    def test_unknown_layer_kind(self, tmp_path):
        path = tmp_path / "w.net"
        path.write_text("evsteer-net v1\ninput 2 2 1\nfancy 3\n")
        with pytest.raises(nnet.UnsupportedLayerError):
            load_weights(path)

    def test_sigmoid_is_no_longer_a_layer_kind(self, tmp_path):
        path = tmp_path / "w.net"
        save_weights(Network([Dense(4), Relu()], input_shape=(2, 2, 1)), path)
        path.write_text(path.read_text().replace("\nrelu\n", "\nsigmoid\n"))
        with pytest.raises(nnet.UnsupportedLayerError, match="'sigmoid'"):
            load_weights(path)

    @pytest.mark.parametrize("decl", ["conv four 5", "conv 4 5.0", "dense x",
                                      "dropout half"])
    def test_non_numeric_declaration_is_malformed(self, tmp_path, decl):
        path = tmp_path / "w.net"
        path.write_text(f"evsteer-net v1\ninput 36 36 1\n{decl}\n")
        with pytest.raises(nnet.MalformedWeightFileError):
            load_weights(path)

    def test_even_kernel_is_shape_error(self, tmp_path):
        path = tmp_path / "w.net"
        path.write_text("evsteer-net v1\ninput 36 36 1\nconv 4 4\n")
        with pytest.raises(nnet.WeightShapeError):
            load_weights(path)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "w.net"
        path.write_text("something else\n")
        with pytest.raises(nnet.MalformedWeightFileError):
            load_weights(path)

    def test_value_count_mismatch_is_shape_error(self, tmp_path):
        net = Network([Dense(4)], input_shape=(2, 2, 1))
        path = tmp_path / "w.net"
        save_weights(net, path)
        lines = path.read_text().splitlines()
        lines[3] = lines[3] + " 0.5"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(nnet.WeightShapeError):
            load_weights(path)

    def test_value_count_past_int64_is_shape_error(self, tmp_path):
        # (2**62 + 1) * 4 wraps to 4 in int64, matching the four values given
        path = tmp_path / "w.net"
        path.write_text("evsteer-net v1\ninput 2 2 1\ndense 4611686018427387905\n"
                        "1 2 3 4\n1\n")
        with pytest.raises(nnet.WeightShapeError):
            load_weights(path)

    def test_binary_file_is_malformed(self, tmp_path):
        path = tmp_path / "w.net"
        path.write_bytes(b"evsteer-net v1\n\xff\xfe\x00\n")
        with pytest.raises(nnet.MalformedWeightFileError):
            load_weights(path)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e999", "1e300"])
    def test_non_finite_value_is_malformed(self, tmp_path, value):
        # 1e300 is finite as a float64 literal but overflows float32
        net = Network([Dense(4)], input_shape=(1, 1, 1))
        path = tmp_path / "w.net"
        save_weights(net, path)
        lines = path.read_text().splitlines()
        lines[3] = " ".join([value] + lines[3].split()[1:])
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(nnet.MalformedWeightFileError, match="non-finite"):
            load_weights(path)


_WEIGHT_TOKENS = ["conv", "dense", "maxpool", "relu", "sigmoid", "dropout", "fancy",
                  "0", "1", "2", "4", "-1", "0.5", "2.0", "nan", "inf", "1e999", "x"]


@st.composite
def weight_files(draw):
    """Small weight files: a valid 1x1 -> 4 dense net with one token swapped,
    or a header and input line followed by random declaration lines."""
    if draw(st.booleans()):
        values = [repr(float(v)) for v in range(8)]
        values[draw(st.integers(0, 7))] = draw(st.sampled_from(_WEIGHT_TOKENS))
        text = (f"{WEIGHT_MAGIC}\ninput 1 1 1\ndense 4\n"
                f"{' '.join(values[:4])}\n{' '.join(values[4:])}\n")
    else:
        lines = draw(st.lists(st.lists(st.sampled_from(_WEIGHT_TOKENS), min_size=1,
                                       max_size=4).map(" ".join), max_size=5))
        text = (draw(st.sampled_from([WEIGHT_MAGIC, "evsteer-net v2", ""])) + "\n"
                + draw(st.sampled_from(["input 1 1 1", "input 2 2 1", "input 2 2",
                                        "input x 2 1", ""])) + "\n"
                + "".join(line + "\n" for line in lines))
    return text.encode() + draw(st.binary(max_size=4))


@settings(max_examples=200, deadline=None)
@given(st.one_of(weight_files(), st.binary(max_size=60)))
def test_weight_reader_fuzz(tmp_path_factory, data):
    """Any byte string either loads a usable network or raises WeightFileError."""
    path = tmp_path_factory.mktemp("fuzz") / "w.net"
    path.write_bytes(data)
    try:
        net = load_weights(path)
    except WeightFileError:
        return
    assert all(np.all(np.isfinite(p)) for p in net.parameters())
    assert net.forward_batch(np.zeros((1, *net.input_shape))).shape == (1, 4)


class TestActivationDump:
    def test_one_file_per_layer(self, rng, tmp_path):
        net = runtime_network(rng)
        paths = nnet.dump_activations(net, rng.random((36, 36)).astype(np.float32),
                                      tmp_path / "acts")
        assert len(paths) == len(net.layers)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2 ** 31 - 1))
def test_forward_oracle_property(seed):
    rng = np.random.default_rng(seed)
    net = Network([Conv(2, 3), Relu(), MaxPool(), Dense(4)],
                  input_shape=(7, 7, 1), rng=rng, dtype=np.float64)
    x = rng.normal(size=(7, 7, 1))
    logits, _ = net.forward(x)
    np.testing.assert_allclose(logits, naive_forward(net, x), rtol=1e-6)
