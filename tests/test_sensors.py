"""Tests for repro.sensors (ToF, multiranger, flow deck, gyro)."""

import math

import numpy as np
import pytest

from repro.errors import SensorError
from repro.geometry.raycast import RayCaster
from repro.geometry.shapes import AABB
from repro.geometry.vec import Vec2
from repro.sensors import (
    FlowDeck,
    Gyro,
    MultiRangerDeck,
    ToFSensor,
    VL53L1X_MAX_RANGE_M,
)


@pytest.fixture
def box_caster():
    return RayCaster(AABB(0.0, 0.0, 10.0, 10.0).boundary_segments())


class TestToFSensor:
    def test_noise_free_exact(self, box_caster):
        sensor = ToFSensor(mount_angle=0.0, rng=None)
        d = sensor.measure(box_caster, Vec2(5.0, 5.0), 0.0)
        assert d == pytest.approx(4.0)  # saturates at max range (wall at 5)

    def test_within_range(self, box_caster):
        sensor = ToFSensor(mount_angle=0.0, rng=None)
        d = sensor.measure(box_caster, Vec2(7.0, 5.0), 0.0)
        assert d == pytest.approx(3.0)

    def test_mount_angle(self, box_caster):
        left = ToFSensor(mount_angle=math.pi / 2, rng=None)
        d = left.measure(box_caster, Vec2(5.0, 8.0), 0.0)
        assert d == pytest.approx(2.0)

    def test_noise_bounded(self, box_caster):
        rng = np.random.default_rng(0)
        sensor = ToFSensor(0.0, noise_std=0.05, dropout_prob=0.0, rng=rng)
        for _ in range(100):
            d = sensor.measure(box_caster, Vec2(8.0, 5.0), 0.0)
            assert 0.0 <= d <= VL53L1X_MAX_RANGE_M

    def test_dropout_reports_max(self, box_caster):
        rng = np.random.default_rng(0)
        sensor = ToFSensor(0.0, noise_std=0.0, dropout_prob=1.0, rng=rng)
        assert sensor.measure(box_caster, Vec2(8.0, 5.0), 0.0) == VL53L1X_MAX_RANGE_M

    def test_bad_config(self):
        with pytest.raises(SensorError):
            ToFSensor(0.0, max_range=-1.0)
        with pytest.raises(SensorError):
            ToFSensor(0.0, dropout_prob=1.5)


class TestMultiRanger:
    def test_reading_geometry(self, box_caster):
        deck = MultiRangerDeck(rng=None, noise_std=0.0, dropout_prob=0.0)
        r = deck.read(box_caster, Vec2(2.0, 5.0), 0.0)
        assert r.front == pytest.approx(4.0)  # wall at 8 m -> saturated
        assert r.back == pytest.approx(2.0)
        assert r.left == pytest.approx(4.0)  # wall at 5 m -> saturated
        assert r.right == pytest.approx(4.0)
        assert r.up == deck.max_range

    def test_heading_rotates_beams(self, box_caster):
        deck = MultiRangerDeck(rng=None, noise_std=0.0, dropout_prob=0.0)
        r = deck.read(box_caster, Vec2(2.0, 5.0), math.pi)
        assert r.front == pytest.approx(2.0)

    def test_min_horizontal_and_dict(self, box_caster):
        deck = MultiRangerDeck(rng=None, noise_std=0.0, dropout_prob=0.0)
        r = deck.read(box_caster, Vec2(1.0, 5.0), 0.0)
        assert r.min_horizontal() == pytest.approx(1.0)
        assert set(r.as_dict()) == {"front", "back", "left", "right", "up"}


    def test_noisy_deck_needs_its_own_noise_generator(self):
        # Its two streams are read from tapes drawn ahead in blocks, so
        # they cannot share one generator.
        rng = np.random.default_rng(1)
        with pytest.raises(SensorError):
            MultiRangerDeck(rng=rng)
        with pytest.raises(SensorError):
            MultiRangerDeck(rng=rng, noise_rng=rng)


class TestFlowDeck:
    def test_noise_free(self):
        deck = FlowDeck(rng=None)
        s = deck.read(0.5, -0.1, 0.5)
        assert s.vx == 0.5 and s.vy == -0.1 and s.height == 0.5

    def test_noise_statistics(self):
        deck = FlowDeck(velocity_noise_std=0.02, rng=np.random.default_rng(0))
        vs = [deck.read(1.0, 0.0, 0.5).vx for _ in range(500)]
        assert np.mean(vs) == pytest.approx(1.0, abs=0.02)
        assert np.std(vs) == pytest.approx(0.02, rel=0.3)

    def test_bad_noise(self):
        with pytest.raises(SensorError):
            FlowDeck(velocity_noise_std=-1.0)


class TestGyro:
    def test_noise_free(self):
        assert Gyro(rng=None).read(0.7) == 0.7

    def test_bias_constant(self):
        g = Gyro(noise_std=0.0, bias_std=0.01, rng=np.random.default_rng(3))
        readings = {g.read(0.0) for _ in range(10)}
        assert len(readings) == 1  # pure bias, no white noise
        assert abs(next(iter(readings))) > 0.0
