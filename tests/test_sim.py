import hashlib
import math
import multiprocessing
import os

import numpy as np
import pytest

from evsteer import workers
from evsteer.behavior import VelocityCmd
from evsteer.config import ConfigError, load_config
from evsteer.datagen import DatagenConfig, generate_recording
from evsteer.nnet import runtime_network
from evsteer.runner import RunnerConfig, run_closed_loop
from evsteer.sim import (LASER_ANGLES, ArenaConfig, Camera, CameraConfig,
                         Distractor, EventSynth, RobotState, Scene, SimConfig,
                         WorldSim, _wall_distances, default_scene, leak_events,
                         render_camera, simulate_laser, wall_distance)

from oracles import float_sort_leak_events, per_circle_laser

# Poses (x, y, heading) through the 9.5 x 6.7 m arena: the chase start with
# the prey in view, the poster and a floor highlight ahead, the dark box, the
# moving distractor, both corners, a close prey, and a repeated pose (no
# events). Consecutive poses differ, so the synth sees large and small steps.
POSES = [
    (3.55, 3.35, 0.0),
    (3.60, 3.35, 0.02),
    (6.80, 2.50, math.pi / 2),
    (6.80, 2.40, math.pi / 2 + 0.01),
    (6.80, 2.40, math.pi / 2 + 0.01),
    (2.00, 1.00, 0.9),
    (4.00, 4.50, 2.6),
    (0.50, 0.50, 0.0),
    (9.00, 6.20, -2.5),
    (5.00, 3.00, -math.pi / 2),
    (6.55, 2.90, math.pi / 2),
    (7.50, 3.35, math.pi),
]

# sha256 of simulator outputs at fixed poses and seeds (numpy 2.4, x86-64).
# They pin the output bytes: a change to any of them is a change of
# simulator output and must be declared and versioned.
RENDER_SYNTH_SHA256 = (
    "17448adf3ab5c772fbbf26d5d5e547dceecf6a7ead3b6b3726cd291ae4a8d0f4")
RUNLOG_SHA256 = (
    "efc114a54ef5df5e60b6b8812386cc4eda650c12278ffda98072e0b540c1b9fa")
RECORDING_SHA256 = (
    "dd38d6c2f37313b291bc344acf7f07734b6c60a5eed70059e7be594f48dff347")
# run log of the overloaded rate_test scene, where one render batch yields
# several frames, hashed while each frame took its own laser scan and ground truth
RATE_TEST_RUNLOG_SHA256 = (
    "936f287ad737c2596b21c14cf578d0e64c6d45f4272c795590e807ad31b1cbee")


def _scene(light_gain):
    cfg = SimConfig(arena=ArenaConfig(moving_distractor=True), light_gain=light_gain)
    return default_scene(cfg, RobotState(x=6.55, y=3.35, heading=math.pi / 2))


def _frames(light_gain):
    scene, camera = _scene(light_gain), Camera(CameraConfig())
    return [render_camera(scene, camera, pose) for pose in POSES]


def _synth_events(images):
    synth = EventSynth(0.15)
    return [synth.update(img, 5000 * k, 5000 * (k + 1))
            for k, img in enumerate(images)], synth.memory


def render_synth_digest():
    h = hashlib.sha256()
    for gain in (1.0, 0.8):
        images = _frames(gain)
        events, _ = _synth_events(images)
        for img, ev in zip(images, events):
            h.update(np.ascontiguousarray(img, dtype=np.float32).tobytes())
            h.update(ev.tobytes())
    return h.hexdigest()


def runlog_digest():
    net = runtime_network(np.random.default_rng(0))
    log = run_closed_loop(net, RunnerConfig(duration=1.0), seed=11)
    return hashlib.sha256(log.encode()).hexdigest()


def rate_test_runlog(overrides=()):
    """0.5 s of the static scene flooded at 2M events/s, seed 7."""
    cfg = load_config(overrides=["sim.scenario=rate_test", "sim.rate_profile=1:2000000",
                                 "sim.duration=0.5", *overrides]).settings.sim
    return run_closed_loop(runtime_network(np.random.default_rng(0)), cfg, seed=7)


def recording_digest():
    rec = generate_recording(DatagenConfig(sim=SimConfig(), duration=1.0), seed=5)
    h = hashlib.sha256()
    for arr in (rec.events, rec.aps_t, rec.aps_raw, rec.label_t, rec.label_x):
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


class TestGolden:
    def test_render_and_event_synth(self):
        assert render_synth_digest() == RENDER_SYNTH_SHA256

    def test_closed_loop_runlog(self):
        assert runlog_digest() == RUNLOG_SHA256

    def test_generated_recording(self):
        assert recording_digest() == RECORDING_SHA256

    def test_rate_test_runlog(self):
        log = rate_test_runlog()
        assert log.count("\nDEC ") > 100  # more frames than render steps
        assert hashlib.sha256(log.encode()).hexdigest() == RATE_TEST_RUNLOG_SHA256

    def test_one_laser_scan_per_render_step(self, monkeypatch):
        calls = []
        laser = WorldSim.laser
        monkeypatch.setattr(WorldSim, "laser", lambda self: calls.append(1) or laser(self))
        rate_test_runlog()
        assert 0 < len(calls) <= 100  # 0.5 s of 5 ms render steps


class TestFrameProducer:
    """A static scene's frames from a forked producer equal the in-process ones."""

    @pytest.mark.parametrize("overrides", [
        [],
        ["sim.rate_profile=0.05:0,0.1:2000000"],  # a phase without events
        ["arena.moving_distractor=true"],
        ["sim.corrupt_aps_prob=0.5"],
        ["sim.light_gain=1.3"],
    ])
    def test_forked_log_equals_the_in_process_log(self, monkeypatch, push_pids, overrides):
        logs = {}
        for cpus in (2, 1):
            monkeypatch.setattr(workers, "usable_cpus", lambda: cpus)
            logs[cpus] = rate_test_runlog(overrides)
            assert (os.getpid() in push_pids()) == (cpus == 1)
        assert multiprocessing.active_children() == []
        assert logs[2] == logs[1]
        if not overrides:
            assert hashlib.sha256(logs[2].encode()).hexdigest() == RATE_TEST_RUNLOG_SHA256

    def test_a_chase_runs_in_process(self, monkeypatch, push_pids):
        monkeypatch.setattr(workers, "usable_cpus", lambda: 2)
        run_closed_loop(runtime_network(np.random.default_rng(0)),
                        RunnerConfig(duration=0.1), seed=0)
        assert push_pids() == {os.getpid()}

    @pytest.mark.parametrize("overrides", [
        [],  # the default leak noise
        ["sim.rate_profile=1:400000"],
        ["sim.rate_profile=1:0,1:800000"],
    ])
    def test_a_quiet_static_scene_runs_in_process(self, monkeypatch, push_pids, overrides):
        monkeypatch.setattr(workers, "usable_cpus", lambda: 2)
        cfg = load_config(overrides=["sim.scenario=rate_test", "sim.duration=0.2",
                                     *overrides]).settings.sim
        run_closed_loop(runtime_network(np.random.default_rng(0)), cfg, seed=7)
        assert push_pids() == {os.getpid()}

    @pytest.mark.parametrize("overrides, rate", [
        ([], 0.1 * 240 * 180),
        (["sim.rate_profile=1:0,3:2000000"], 1_500_000),
        (["sim.rate_profile=0.05:0,0.1:2000000"], 2_000_000 * 2 / 3),
    ])
    def test_the_noise_rate_is_the_mean_over_a_profile_cycle(self, overrides, rate):
        cfg = load_config(overrides=["sim.scenario=rate_test", *overrides]).settings.sim.sim
        world = WorldSim(cfg, 0, RobotState(x=3.0, y=3.0, heading=0.0),
                         RobotState(x=6.0, y=3.0, heading=0.0))
        assert world.noise_rate() == pytest.approx(rate)


class TestWorldClock:
    @staticmethod
    def _world():
        return WorldSim(SimConfig(), 0, RobotState(x=3.0, y=3.0, heading=0.0),
                        RobotState(x=6.0, y=3.0, heading=0.0))

    def test_run_yields_on_the_render_grid_and_ends_off_it(self):
        world = self._world()
        assert world.cfg.render_every == 5
        assert [world.t_us for _ in world.run(13)] == [5000, 10000]
        assert world.t_us == 13_000

    @pytest.mark.parametrize("scenario", ["chase", "rate_test"])
    def test_a_clock_without_sensors_moves_the_scene_as_step_does(self, scenario):
        # the moving distractor is what the laser and the ground truth read
        worlds = [WorldSim(SimConfig(arena=ArenaConfig(moving_distractor=True),
                                     scenario=scenario), 0,
                           RobotState(x=3.0, y=3.0, heading=0.0),
                           RobotState(x=6.0, y=3.0, heading=0.0)) for _ in range(2)]
        sensed, clock = worlds[0].run(23), worlds[1].run(23, sense=False)
        for batch, interval in zip(sensed, clock, strict=True):
            assert interval == (worlds[1].t_us - 5000, worlds[1].t_us)
            assert worlds[0].scene == worlds[1].scene
            assert worlds[0].laser().ranges.tobytes() == worlds[1].laser().ranges.tobytes()
            worlds[1].set_commands(VelocityCmd(1.0, 0.5), VelocityCmd(0.5, 0.0))
            worlds[0].set_commands(VelocityCmd(1.0, 0.5), VelocityCmd(0.5, 0.0))
        assert worlds[0].t_us == worlds[1].t_us == 23_000
        moved = worlds[0].scene.moving_distractor.x != 4.0 + 1.6 * math.sin(0.9 * 0.005)
        assert moved == (scenario == "chase")

    def test_a_command_set_after_a_yield_acts_from_the_next_step(self):
        world = self._world()
        run = world.run(10)
        next(run)
        assert (world.t_us, world.predator.x) == (5000, 3.0)
        world.set_commands(VelocityCmd(1.0, 0.0), VelocityCmd(0.0, 0.0))
        next(run)  # five 1 ms steps at 1 m/s along the x axis
        assert world.predator.x == pytest.approx(3.005)
        assert world.prey.x == 6.0


class TestRenderOutput:
    def test_c_contiguous_float32_frame(self):
        img = _frames(0.8)[2]
        assert img.dtype == np.float32
        assert img.shape == (180, 240)
        assert img.flags.c_contiguous

    def test_each_call_returns_a_fresh_image(self):
        scene, camera = _scene(1.0), Camera(CameraConfig())
        first = render_camera(scene, camera, POSES[0])
        kept = first.copy()
        second = render_camera(scene, camera, POSES[2])
        assert second is not first
        np.testing.assert_array_equal(first, kept)


class TestEventSynthLayout:
    @pytest.mark.parametrize("layout", ["fortran", "strided"])
    def test_events_do_not_depend_on_memory_layout(self, layout):
        images = _frames(1.0)
        if layout == "fortran":
            others = [np.asfortranarray(img) for img in images]
        else:
            others = []
            for img in images:
                big = np.zeros((2 * img.shape[0], 2 * img.shape[1]), np.float32)
                big[::2, ::2] = img
                others.append(big[::2, ::2])
        assert not others[0].flags.c_contiguous
        want, want_memory = _synth_events(images)
        got, got_memory = _synth_events(others)
        assert sum(len(ev) for ev in want) > 0
        for a, b in zip(want, got):
            np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(want_memory, got_memory)

    def test_still_scene_settles(self):
        img = _frames(1.0)[0]
        for make in (np.ascontiguousarray, np.asfortranarray):
            synth = EventSynth(0.15)
            synth.update(make(np.full_like(img, 0.2)), 0, 5000)
            assert len(synth.update(make(img), 5000, 10000)) > 0
            assert len(synth.update(make(img), 10000, 15000)) == 0


class TestWallDistance:
    def test_one_ray_equals_the_array_version(self):
        arena = ArenaConfig()
        rng = np.random.default_rng(4)
        # axis-aligned rays take the inf branch on the axis they do not cross
        angles = np.concatenate([[0.0, -0.0, math.pi, math.pi / 2, -math.pi / 2],
                                 rng.uniform(-2 * math.pi, 2 * math.pi, 2000)])
        x, y = rng.uniform(0, arena.width, len(angles)), rng.uniform(0, arena.depth, len(angles))
        for xi, yi, a in zip(x, y, angles):
            want = float(_wall_distances(arena, xi, yi, np.array([a]))[0][0])
            assert wall_distance(arena, float(xi), float(yi), float(a)) == want


class TestLaserOracle:
    @staticmethod
    def _poses(rng, circles, arena, n):
        """Random poses: a quarter inside a circle, a quarter on its rim
        (some of them outside the arena), the rest anywhere in the arena;
        headings include those that put a ray at exactly 0 rad."""
        exact = [0.0, -0.0, math.pi, math.pi / 2] + [-a for a in LASER_ANGLES[::17]]
        for k in range(n):
            heading = (exact[k % len(exact)] if k % 3 == 0
                       else float(rng.uniform(-2 * math.pi, 2 * math.pi)))
            ox, oy, rad = circles[k % len(circles)]
            a = float(rng.uniform(0, 2 * math.pi))
            if k % 4 == 0:
                r = float(rng.uniform(0, rad))
                yield ox + r * math.cos(a), oy + r * math.sin(a), heading
            elif k % 4 == 1:
                yield ox + rad * math.cos(a), oy + rad * math.sin(a), heading
            else:
                yield (float(rng.uniform(0, arena.width)),
                       float(rng.uniform(0, arena.depth)), heading)

    @pytest.mark.parametrize("distractors,moving", [(True, True), (True, False),
                                                    (False, False)])
    def test_ranges_equal_the_per_circle_loop(self, distractors, moving):
        arena = ArenaConfig(distractors=distractors, moving_distractor=moving)
        rng = np.random.default_rng(11)
        for k in range(10):
            prey = RobotState(x=float(rng.uniform(0, arena.width)),
                              y=float(rng.uniform(0, arena.depth)), heading=0.0)
            scene = default_scene(SimConfig(arena=arena), prey)
            circles = scene.obstacle_circles()
            assert len(circles) == 1 + distractors + moving
            for pose in self._poses(rng, circles, arena, 70):
                got = simulate_laser(scene, pose).ranges
                assert got.tobytes() == per_circle_laser(scene, pose).tobytes(), pose

    def test_overlapping_circles_take_the_nearest(self):
        arena = ArenaConfig()
        prey = RobotState(x=5.0, y=3.0, heading=0.0)
        scene = Scene(arena=arena, prey=prey,
                      distractors=[Distractor(x=5.2, y=3.0), Distractor(x=4.1, y=3.1)])
        rng = np.random.default_rng(12)
        for pose in self._poses(rng, scene.obstacle_circles(), arena, 200):
            got = simulate_laser(scene, pose).ranges
            assert got.tobytes() == per_circle_laser(scene, pose).tobytes(), pose


class TestLeakOracle:
    # 0.1 Hz/pixel is the default; 2M events/s over 240 x 180 pixels is the
    # flood rate; 1e-4 Hz/pixel leaves most 5 ms steps empty
    @pytest.mark.parametrize("rate", [0.1, 2e6 / (240 * 180), 1e-4])
    def test_events_equal_the_float_sort_formulation(self, rate):
        mine, ref = np.random.default_rng(21), np.random.default_rng(21)
        steps = np.random.default_rng(22)
        t0, empty = 0, 0
        for _ in range(300):
            t1 = t0 + int(steps.choice([1, 2, 5000, 5000, 5000, 12345]))
            got = leak_events(mine, rate, t0, t1)
            want = float_sort_leak_events(ref, rate, t0, t1)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
            empty += len(got) == 0
            t0 = t1
        # the same draws in the same order: both streams end in one state
        assert mine.bit_generator.state == ref.bit_generator.state
        if rate == 1e-4:
            assert empty > 100


class TestDurationLimit:
    # u32 microsecond timestamps wrap after 4294.967295 s
    def test_closed_loop_rejects_wrapping_duration(self):
        net = runtime_network(np.random.default_rng(0))
        with pytest.raises(ConfigError, match="4294.967295"):
            run_closed_loop(net, RunnerConfig(duration=4295.0), seed=0)

    def test_recording_rejects_wrapping_duration(self):
        with pytest.raises(ConfigError, match="4294.967295"):
            generate_recording(DatagenConfig(sim=SimConfig(), duration=4295.0), seed=0)
