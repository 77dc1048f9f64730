import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evsteer import frames
from evsteer.frames import (SOURCE_APS, SOURCE_DVS, Dataset, DvsAccumulator,
                            FormatError, FrameStream, Recording, aps_normalize, aps_resize, assemble_dataset,
                            concat_events, dvs_normalize, exposure_augment, label_from_target,
                            load_dataset, load_recording, read_aps,
                            read_events, read_labels, save_dataset,
                            save_recording, write_events)
from evsteer.nnet import Decision
from oracles import (AddressEvent, ScalarAccumulator, std_clip_dvs_normalize,
                     subsample_address)


def make_events(ts, xs, ys, pols):
    arr = np.zeros(len(ts), dtype=frames.EVENT_DTYPE)
    arr["t"], arr["x"], arr["y"] = ts, xs, ys
    arr["polarity"] = pols
    return arr


class TestSubsample:
    @pytest.mark.parametrize("xy,expect", [
        ((0, 0), (0, 0)),
        ((239, 179), (35, 35)),
        ((120, 90), (18, 18)),
    ])
    def test_examples(self, xy, expect):
        assert subsample_address(*xy) == expect

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            subsample_address(240, 0)
        with pytest.raises(ValueError):
            subsample_address(0, -1)

    def test_surjective(self):
        xs = {subsample_address(x, 0)[0] for x in range(240)}
        ys = {subsample_address(0, y)[1] for y in range(180)}
        assert xs == set(range(36))
        assert ys == set(range(36))

    @given(st.integers(0, 238), st.integers(0, 178))
    def test_monotone(self, x, y):
        bx0, by0 = subsample_address(x, y)
        bx1, by1 = subsample_address(x + 1, y + 1)
        assert bx1 >= bx0 and by1 >= by0


class TestAccumulator:
    def test_fifty_on_events_reach_three_quarters(self):
        acc = DvsAccumulator()
        ones = np.ones(50)
        assert acc.add_batch(make_events(0 * ones, 10 * ones, 10 * ones, ones)) == []
        bx, by = subsample_address(10, 10)
        assert acc.values[by, bx] == pytest.approx(0.75)

    def test_alternating_five_thousand_emits_neutral(self):
        acc = DvsAccumulator()
        pol = np.arange(5000) % 2 == 0
        emitted = acc.add_batch(make_events(np.arange(5000), np.full(5000, 5),
                                            np.full(5000, 5), pol))
        assert len(emitted) == 1
        np.testing.assert_allclose(emitted[0][1], 0.5)
        assert acc.events_in == 0

    def test_no_emission_below_capacity(self):
        acc = DvsAccumulator()
        ev = make_events(np.arange(4999), np.zeros(4999), np.zeros(4999),
                         np.ones(4999))
        assert acc.add_batch(ev) == []
        assert acc.events_in == 4999

    def test_batch_matches_scalar_path(self, rng):
        n = 12_000
        ev = make_events(np.arange(n), rng.integers(0, 240, n),
                         rng.integers(0, 180, n), rng.integers(0, 2, n))
        acc_a, acc_b = DvsAccumulator(), ScalarAccumulator()
        got_a = acc_a.add_batch(ev)
        got_b = []
        for e in ev:
            hist = acc_b.add(AddressEvent(int(e["t"]), int(e["x"]), int(e["y"]),
                                          +1 if e["polarity"] else -1))
            if hist is not None:
                got_b.append(hist)
        assert len(got_a) == len(got_b) == 2
        for (t, ha), hb in zip(got_a, got_b):
            np.testing.assert_allclose(ha, hb)
        np.testing.assert_allclose(acc_a.values, acc_b.values)

    def test_chunked_pushes_match_scalar_path_bitwise(self, rng):
        # the batch path adds the same steps in the same order as the oracle
        n = 3 * 7_777
        ev = make_events(np.arange(n), rng.integers(0, 240, n),
                         rng.integers(0, 180, n), rng.integers(0, 2, n))
        acc_a, acc_b = DvsAccumulator(), ScalarAccumulator()
        got_a = [h for k in range(0, n, 7_777) for _, h in acc_a.add_batch(ev[k:k + 7_777])]
        got_b = [acc_b.add(AddressEvent(int(e["t"]), int(e["x"]), int(e["y"]),
                                        +1 if e["polarity"] else -1)) for e in ev]
        got_b = [h for h in got_b if h is not None]
        assert len(got_a) == len(got_b) == 4
        for ha, hb in zip(got_a + [acc_a.values], got_b + [acc_b.values]):
            assert ha.tobytes() == hb.tobytes()

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2 ** 31 - 1), st.integers(1, 3))
    def test_deviation_sum_counts_polarity_balance(self, seed, n_frames):
        rng = np.random.default_rng(seed)
        cap = 500
        acc = DvsAccumulator(cap)
        n = cap * n_frames
        pol = rng.integers(0, 2, n)
        ev = make_events(np.arange(n), rng.integers(0, 240, n),
                         rng.integers(0, 180, n), pol)
        emitted = acc.add_batch(ev)
        assert len(emitted) == n_frames
        for k, (_, hist) in enumerate(emitted):
            window = pol[k * cap:(k + 1) * cap]
            balance = int(np.sum(window == 1)) - int(np.sum(window == 0))
            assert round(float((hist - 0.5).sum() * 200)) == balance


class TestDvsNormalize:
    def test_flat_histogram_stays_neutral(self):
        hist = np.full((36, 36), 0.5)
        np.testing.assert_array_equal(dvs_normalize(hist), 0.5)

    def test_clipped_extreme_maps_to_one(self, rng):
        hist = np.full((36, 36), 0.5)
        hist += rng.normal(0, 0.01, hist.shape)
        hist[3, 3] = 10.0  # far beyond 3 sigma, must clip to exactly 1.0
        out = dvs_normalize(hist)
        assert out[3, 3] == pytest.approx(1.0)

    def test_exact_three_sigma_maps_to_one(self):
        # fixed-point solve for a bin deviation s equal to exactly 3 sigma
        # of the finished histogram
        a = 0.2
        s = a * np.sqrt(18.0 / (1296.0 - 9.0))
        hist = np.full((36, 36), 0.5)
        hist[0, 0] = 0.5 + a
        hist[0, 1] = 0.5 - a
        for _ in range(60):
            hist[5, 5] = 0.5 + s
            s = 3 * np.std(hist)
        hist[5, 5] = 0.5 + s
        assert s == pytest.approx(3 * np.std(hist), rel=1e-12)
        out = dvs_normalize(hist)
        assert out[5, 5] == pytest.approx(1.0)
        assert out[0, 0] == 1.0  # beyond 3 sigma, clipped to the extreme
        assert out[0, 1] == 0.0

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2 ** 31 - 1))
    def test_random_histogram_properties(self, seed):
        rng = np.random.default_rng(seed)
        hist = np.full((36, 36), 0.5)
        n_active = int(rng.integers(2, 80))
        idx = rng.choice(36 * 36, n_active, replace=False)
        hist.reshape(-1)[idx] += rng.normal(0, 0.2, n_active)
        out = dvs_normalize(hist)
        assert out.min() >= 0.0 and out.max() <= 1.0
        np.testing.assert_array_equal(out[hist == 0.5], 0.5)
        # ordering of unclipped bins is preserved (strictly monotone map)
        sigma = np.std(hist)
        dev = hist - 0.5
        unclipped = np.abs(dev) < 3 * sigma
        a = dev[unclipped]
        b = out[unclipped] - 0.5
        order_a = np.argsort(a, kind="stable")
        order_b = np.argsort(b, kind="stable")
        matches = np.mean(order_a == order_b)
        assert matches >= 0.99


class TestApsResize:
    def test_constant(self):
        out = aps_resize(np.full((180, 240), 0.3))
        assert out.shape == (36, 36)
        np.testing.assert_array_equal(out, 0.3)

    def test_step_edge_lands_at_column_18(self):
        frame = np.zeros((180, 240))
        frame[:, 120:] = 1.0
        out = aps_resize(frame)
        np.testing.assert_array_equal(out[:, :18], 0.0)
        np.testing.assert_array_equal(out[:, 18:], 1.0)

    def test_checkerboard_aliases_to_sampling_rule(self):
        frame = np.indices((180, 240)).sum(axis=0) % 2
        out = aps_resize(frame.astype(float))
        # independent recomputation of the round-half-down sampling grid
        cols = np.clip(np.ceil(np.arange(36) * (240 / 36) - 0.5), 0, 239).astype(int)
        rows = np.clip(np.ceil(np.arange(36) * (180 / 36) - 0.5), 0, 179).astype(int)
        expect = (rows[:, None] + cols[None, :]) % 2
        np.testing.assert_array_equal(out, expect)

    def test_wrong_extent(self):
        with pytest.raises(ValueError):
            aps_resize(np.zeros((36, 36)))


class TestApsNormalize:
    def test_identity_when_already_unit_range(self, rng):
        f = rng.random((36, 36))
        f[0, 0], f[1, 1] = 0.0, 1.0
        np.testing.assert_allclose(aps_normalize(f), f, atol=1e-7)

    def test_constant_maps_to_half(self):
        np.testing.assert_array_equal(aps_normalize(np.full((36, 36), 7.0)), 0.5)

    def test_three_level_affine(self):
        f = np.tile(np.array([10.0, 20.0, 30.0] * 12), (36, 1))
        out = aps_normalize(f)
        np.testing.assert_allclose(out, np.tile([0.0, 0.5, 1.0], (36, 12)))

    def test_attains_both_extremes_when_nonconstant(self, rng):
        f = rng.random((36, 36)) * 0.2 + 0.4
        out = aps_normalize(f)
        assert out.min() == 0.0 and out.max() == 1.0


class TestFrameStream:
    def test_merges_by_time_then_source(self, rng):
        n = 10_000
        ev = make_events(np.arange(n), rng.integers(0, 240, n),
                         rng.integers(0, 180, n), rng.integers(0, 2, n))
        raws = rng.random((2, 36, 36)).astype(np.float32)
        got = FrameStream(5000).push(ev, [4999, 100], raws)
        assert [(t, src) for t, src, _, _ in got] == [
            (100, SOURCE_APS), (4999, SOURCE_APS), (4999, SOURCE_DVS), (9999, SOURCE_DVS)]
        np.testing.assert_array_equal(got[0][3], raws[1])
        np.testing.assert_array_equal(got[0][2], aps_normalize(raws[1]))
        hist = DvsAccumulator(5000).add_batch(ev)[0][1]
        np.testing.assert_array_equal(got[2][2], dvs_normalize(hist))
        assert got[2][3] is None and got[3][3] is None

    def test_split_pushes_match_one_push(self, rng):
        n = 20_000
        ev = make_events(np.arange(n), rng.integers(0, 240, n),
                         rng.integers(0, 180, n), rng.integers(0, 2, n))
        stream = FrameStream(3000)
        pieces = [f for part in np.array_split(ev, 7) for f in stream.push(part)]
        whole = FrameStream(3000).push(ev)
        assert [f[0] for f in pieces] == [f[0] for f in whole]
        for a, b in zip(pieces, whole):
            np.testing.assert_array_equal(a[2], b[2])


class TestExposureAugment:
    def test_zero_shift_identity(self, rng):
        raw = rng.random((36, 36))
        np.testing.assert_array_equal(exposure_augment(raw, 0.0), raw)

    def test_full_range_shift_saturates(self, rng):
        raw = rng.random((36, 36))
        np.testing.assert_array_equal(exposure_augment(raw, 1.0), 1.0)

    def test_quarter_shift_on_ramp(self):
        ramp = np.linspace(0, 1, 36)[None, :].repeat(36, axis=0)
        up = exposure_augment(ramp, 0.25)
        np.testing.assert_allclose(up, np.clip(ramp + 0.25, 0, 1))
        down = exposure_augment(ramp, -0.25)
        np.testing.assert_allclose(down, np.clip(ramp - 0.25, 0, 1))


class TestLabeling:
    @pytest.mark.parametrize("x,expect", [
        (0, Decision.L), (5, Decision.L), (11, Decision.L),
        (12, Decision.C), (23, Decision.C),
        (24, Decision.R), (35, Decision.R),
    ])
    def test_thirds(self, x, expect):
        assert label_from_target(x) is expect

    def test_absent_is_nonvisible(self):
        assert label_from_target(None) is Decision.N

    @pytest.mark.parametrize("bad", [-1, 36, 100])
    def test_out_of_range(self, bad):
        with pytest.raises(ValueError):
            label_from_target(bad)


def synthetic_recording(seed, duration_us=2_000_000, event_rate=300_000,
                        aps_fps=15):
    """A recording with steady random events and a drifting target label."""
    rng = np.random.default_rng(seed)
    n = int(event_rate * duration_us / 1e6)
    ts = np.sort(rng.integers(0, duration_us, n)).astype(np.uint32)
    ev = make_events(ts, rng.integers(0, 240, n), rng.integers(0, 180, n),
                     rng.integers(0, 2, n))
    n_aps = int(duration_us / 1e6 * aps_fps)
    aps_t = (np.arange(1, n_aps + 1) * (1e6 / aps_fps)).astype(np.uint32)
    aps_raw = rng.random((n_aps, 36, 36)).astype(np.float32)
    label_t = np.arange(0, duration_us, 5000).astype(np.uint32)
    label_x = ((label_t // 50_000) % 37).astype(np.int16) - 1  # sweeps N,0..35
    return Recording(events=ev, aps_t=aps_t, aps_raw=aps_raw,
                     label_t=label_t, label_x=label_x)


class TestAssembleDataset:
    def test_hundred_frame_recording_splits_80_20(self):
        rec = synthetic_recording(0)
        stream = frames.frames_from_recording(rec)
        train, test, report = assemble_dataset([rec])
        n = len(stream)
        assert report["test_frames"] == n - int(0.8 * n)
        # no training frame is later than any test frame of the same recording
        # (augmented copies excluded: they reuse training timestamps)

    def test_split_is_temporal(self):
        rec = synthetic_recording(1)
        stream = frames.frames_from_recording(rec)
        n_train = int(0.8 * len(stream))
        t_train_max = max(item[0] for item in stream[:n_train])
        t_test_min = min(item[0] for item in stream[n_train:])
        assert t_train_max <= t_test_min

    def test_source_mix_hits_45_55(self):
        recs = [synthetic_recording(s) for s in range(3)]
        train, _, report = assemble_dataset(recs)
        assert abs(report["train_aps_fraction"] - 0.45) <= 0.02

    def test_augmentation_preserves_labels(self):
        rec = synthetic_recording(2)
        train, _, report = assemble_dataset([rec])
        n_orig = report["train_aps_before_augment"] + report["train_dvs"]
        aug_labels = train.labels[n_orig:]
        aug_x = train.target_x[n_orig:]
        for lab, x in zip(aug_labels, aug_x):
            expect = Decision.N if x < 0 else label_from_target(int(x))
            assert Decision(lab) is expect

    def test_empty_recording_raises(self):
        rec = Recording(events=make_events([], [], [], []),
                        aps_t=np.zeros(0, dtype=np.uint32),
                        aps_raw=np.zeros((0, 36, 36), dtype=np.float32),
                        label_t=np.array([0], dtype=np.uint32),
                        label_x=np.array([-1], dtype=np.int16))
        with pytest.raises(ValueError):
            assemble_dataset([rec])

    def test_class_report_present(self):
        _, _, report = assemble_dataset([synthetic_recording(3)])
        assert set(report["train_class_mix"]) == {"L", "C", "R", "N"}
        assert report["reference_class_mix"]["N"] == 0.56


# sha256 of the save_dataset bytes of assemble_dataset's train and test sets
# over the two 1 s generated recordings (numpy 2.4, x86-64), hashed before
# the frame merge and the dataset format were rewritten.
TRAIN_DS_SHA256 = (
    "f4213141e40f57af3851e63726dc0f4434ad435a4d1722e9bb43696775e791f7")
TEST_DS_SHA256 = (
    "c2274463bba6f422877c6126daddaedf65c37082a31f5fe149b078c3df3f6aaf")


class TestDatasetGolden:
    def test_assembled_dataset_bytes(self, generated_recordings, tmp_path):
        train, test, _ = assemble_dataset(generated_recordings)
        for ds, want in ((train, TRAIN_DS_SHA256), (test, TEST_DS_SHA256)):
            path = tmp_path / "d.ds"
            save_dataset(path, ds)
            assert hashlib.sha256(path.read_bytes()).hexdigest() == want


class TestConcatEvents:
    def test_record_copy_equals_the_field_copy(self, rng):
        chunks = [make_events(rng.integers(0, 2**32, n, dtype=np.uint32),
                              rng.integers(0, 2**16, n), rng.integers(0, 2**16, n),
                              rng.integers(0, 256, n)) for n in (0, 3022, 17, 1)]
        chunks.append(chunks[1][::3])  # a strided chunk
        got = concat_events(chunks)
        assert got.dtype == frames.EVENT_DTYPE
        assert got.tobytes() == np.concatenate(chunks).tobytes()

    def test_no_chunks_is_an_empty_event_array(self):
        got = concat_events([])
        assert got.dtype == frames.EVENT_DTYPE and len(got) == 0


class TestFileFormats:
    def test_event_round_trip(self, rng, tmp_path):
        n = 1000
        ev = make_events(np.sort(rng.integers(0, 10_000, n)),
                         rng.integers(0, 240, n), rng.integers(0, 180, n),
                         rng.integers(0, 2, n))
        path = tmp_path / "r.events"
        write_events(path, ev)
        back = read_events(path)
        np.testing.assert_array_equal(ev, back)

    def test_truncated_event_file(self, tmp_path):
        path = tmp_path / "r.events"
        ev = make_events([1, 2], [3, 4], [5, 6], [1, 0])
        write_events(path, ev)
        raw = path.read_bytes()
        path.write_bytes(raw[:-3])
        with pytest.raises(frames.FormatError):
            read_events(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "r.events"
        path.write_bytes(b"not an event file at all")
        with pytest.raises(frames.FormatError):
            read_events(path)

    def test_recording_round_trip(self, tmp_path):
        rec = synthetic_recording(4, duration_us=300_000)
        save_recording(tmp_path / "rec00", rec)
        back = load_recording(tmp_path / "rec00")
        np.testing.assert_array_equal(rec.events, back.events)
        np.testing.assert_array_equal(rec.aps_t, back.aps_t)
        np.testing.assert_allclose(rec.aps_raw, back.aps_raw)
        np.testing.assert_array_equal(rec.label_t, back.label_t)
        np.testing.assert_array_equal(rec.label_x, back.label_x)

    def test_dataset_round_trip(self, rng, tmp_path):
        ds = Dataset(frames=rng.random((10, 36, 36)).astype(np.float32),
                     labels=rng.integers(0, 4, 10).astype(np.uint8),
                     target_x=np.array([-1, 0, 5, 12, 23, 24, 35, -1, 7, 30],
                                       dtype=np.int16),
                     source=rng.integers(0, 2, 10).astype(np.uint8))
        path = tmp_path / "d.ds"
        save_dataset(path, ds)
        back = load_dataset(path)
        np.testing.assert_array_equal(ds.frames, back.frames)
        np.testing.assert_array_equal(ds.labels, back.labels)
        np.testing.assert_array_equal(ds.target_x, back.target_x)
        np.testing.assert_array_equal(ds.source, back.source)

    def test_dataset_truncation_detected(self, rng, tmp_path):
        ds = Dataset(frames=rng.random((3, 36, 36)).astype(np.float32),
                     labels=np.zeros(3, dtype=np.uint8),
                     target_x=np.full(3, -1, dtype=np.int16),
                     source=np.zeros(3, dtype=np.uint8))
        path = tmp_path / "d.ds"
        save_dataset(path, ds)
        path.write_bytes(path.read_bytes()[:-10])
        with pytest.raises(frames.FormatError):
            load_dataset(path)


def _small_dataset(rng, n=4):
    return Dataset(frames=rng.random((n, 36, 36)).astype(np.float32),
                   labels=np.array([0, 1, 2, 3][:n], dtype=np.uint8),
                   target_x=np.array([5, 20, 30, -1][:n], dtype=np.int16),
                   source=np.array([0, 1, 1, 0][:n], dtype=np.uint8))


class TestReaderContracts:
    @pytest.mark.parametrize("field,value,match", [
        ("x", 240, "address"), ("y", 180, "address"),
        ("polarity", 2, "polarity"), ("polarity", 7, "polarity"),
    ])
    def test_event_outside_contract_rejected(self, tmp_path, field, value, match):
        ev = make_events([1, 2], [3, 239], [5, 179], [1, 0])
        path = tmp_path / "r.events"
        write_events(path, ev)
        np.testing.assert_array_equal(read_events(path), ev)
        ev[field][1] = value
        write_events(path, ev)
        with pytest.raises(FormatError, match=match):
            read_events(path)

    @pytest.mark.parametrize("field,value,match", [
        ("labels", 4, "label byte"), ("labels", 9, "label byte"),
        ("source", 2, "source byte"),
        ("target_x", 36, "target byte"), ("target_x", 40, "target byte"),
        ("target_x", 254, "target byte"),
    ])
    def test_dataset_record_outside_contract_rejected(self, rng, tmp_path, field,
                                                      value, match):
        ds = _small_dataset(rng)
        getattr(ds, field)[1] = value
        path = tmp_path / "d.ds"
        save_dataset(path, ds)
        with pytest.raises(FormatError, match=match):
            load_dataset(path)

    @pytest.mark.parametrize("text", [
        "10 36\n", "10 -1\n", "-5 N\n", "4294967296 N\n", "10 99999\n",
        "0 N\n100 5\n50 30\n200 20\n",
    ])
    def test_label_outside_contract_rejected(self, tmp_path, text):
        path = tmp_path / "r.labels"
        path.write_text(text)
        with pytest.raises(FormatError):
            read_labels(path)

    def test_equal_label_times_load(self, tmp_path):
        path = tmp_path / "r.labels"
        path.write_text("0 N\n100 5\n100 30\n200 20\n")
        ts, xs = read_labels(path)
        assert ts.tolist() == [0, 100, 100, 200] and xs.tolist() == [-1, 5, 30, 20]

    def test_label_track_that_is_not_text_rejected(self, tmp_path):
        path = tmp_path / "r.labels"
        path.write_bytes(b"10 \xff\xfe\n")
        with pytest.raises(FormatError):
            read_labels(path)


def _random_bytes(seed, n):
    return np.random.default_rng(seed).bytes(max(n, 0))


@st.composite
def event_files(draw):
    records = draw(st.lists(st.tuples(st.integers(0, 40), st.integers(230, 250),
                                      st.integers(170, 190), st.integers(0, 3)),
                            max_size=6))
    body = make_events(*zip(*records)).tobytes() if records else b""
    return (draw(st.sampled_from([frames.EVENT_MAGIC, b""])) + body
            + draw(st.binary(max_size=10)))


@st.composite
def aps_files(draw):
    count = draw(st.integers(0, 3))
    size = count * frames.APS_RECORD.itemsize + draw(st.integers(-2, 2))
    return (frames.APS_MAGIC + np.uint32(count).tobytes()
            + _random_bytes(draw(st.integers(0, 2**32 - 1)), size))


@st.composite
def dataset_files(draw):
    count = draw(st.integers(0, 3))
    head = np.array([count, draw(st.integers(0, 3)), draw(st.integers(0, 3))], "<u4")
    body = b""
    for _ in range(count):
        body += bytes([draw(st.integers(0, 2)), draw(st.integers(0, 5)),
                       draw(st.sampled_from([0, 35, 36, 100, 254, 255]))])
        body += _random_bytes(draw(st.integers(0, 2**32 - 1)), 36 * 36 * 4)
    cut = draw(st.integers(0, 2))
    return frames.DATASET_MAGIC + head.tobytes() + body[:len(body) - cut]


label_files = st.one_of(
    st.binary(max_size=40),
    st.lists(st.tuples(st.integers(-2, 2**32 + 2),
                       st.one_of(st.just("N"), st.integers(-2, 40).map(str))),
             max_size=4).map(lambda rows: "".join(f"{t} {x}\n" for t, x in rows).encode()),
)


class TestReaderFuzz:
    """Any byte string either loads in-contract data or raises FormatError."""

    @staticmethod
    def _load(tmp_path_factory, reader, data):
        path = tmp_path_factory.mktemp("fuzz") / "f"
        path.write_bytes(data)
        try:
            return reader(path)
        except FormatError:
            return None

    @settings(max_examples=150, deadline=None)
    @given(st.one_of(event_files(), st.binary(max_size=40)))
    def test_read_events(self, tmp_path_factory, data):
        ev = self._load(tmp_path_factory, read_events, data)
        if ev is not None:
            assert np.all(np.diff(ev["t"].astype(np.int64)) >= 0)
            assert np.all(ev["x"] < 240) and np.all(ev["y"] < 180)
            assert np.all(ev["polarity"] <= 1)

    @settings(max_examples=60, deadline=None)
    @given(st.one_of(aps_files(), st.binary(max_size=40)))
    def test_read_aps(self, tmp_path_factory, data):
        got = self._load(tmp_path_factory, read_aps, data)
        if got is not None:
            ts, raw = got
            assert ts.dtype == np.uint32 and raw.dtype == np.float32
            assert raw.shape == (len(ts), 36, 36)

    @settings(max_examples=150, deadline=None)
    @given(label_files)
    def test_read_labels(self, tmp_path_factory, data):
        got = self._load(tmp_path_factory, read_labels, data)
        if got is not None:
            ts, xs = got
            assert len(ts) == len(xs)
            assert np.all((xs >= -1) & (xs < 36))
            assert np.all(np.diff(ts.astype(np.int64)) >= 0)

    @settings(max_examples=100, deadline=None)
    @given(st.one_of(dataset_files(), st.binary(max_size=40)))
    def test_load_dataset(self, tmp_path_factory, data):
        ds = self._load(tmp_path_factory, load_dataset, data)
        if ds is not None:
            assert np.all(ds.labels <= 3) and np.all(ds.source <= 1)
            assert np.all((ds.target_x >= -1) & (ds.target_x < 36))
            assert ds.frames.shape == (len(ds), 36, 36)


class TestDvsNormalizeOracle:
    def test_bytes_equal_the_std_clip_formulation(self):
        rng = np.random.default_rng(31)
        clipped = 0
        for k in range(2000):
            hist = np.full((36, 36), 0.5)
            kind = k % 5
            if kind == 1:  # a constant-count frame: whole gray steps in many bins
                n = int(rng.integers(1, 1296))
                idx = rng.choice(1296, n, replace=False)
                hist.reshape(-1)[idx] += rng.integers(-40, 41, n) / 200
            elif kind == 2:  # heavy tails: a few bins far beyond 3 sigma
                idx = rng.choice(1296, int(rng.integers(1, 8)), replace=False)
                hist.reshape(-1)[idx] += rng.standard_cauchy(len(idx))
            elif kind == 3:
                hist += rng.normal(0, 0.05, hist.shape)
            elif kind == 4:  # flat but not at 0.5: sigma 0
                hist += float(rng.normal())
            got = dvs_normalize(hist)
            want = std_clip_dvs_normalize(hist)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes(), k
            clipped += bool(np.any(got == 1.0) or np.any(got == 0.0))
        assert clipped > 300


class TestNormalizedFrameInvariant:
    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2 ** 31 - 1))
    def test_all_outputs_unit_range(self, seed):
        rng = np.random.default_rng(seed)
        aps = aps_normalize(rng.random((36, 36)) * 100 - 50)
        assert aps.min() >= 0.0 and aps.max() <= 1.0
        hist = np.full((36, 36), 0.5)
        hist.reshape(-1)[rng.choice(1296, 50, replace=False)] += rng.normal(0, 0.3, 50)
        dvs = dvs_normalize(hist)
        assert dvs.min() >= 0.0 and dvs.max() <= 1.0
