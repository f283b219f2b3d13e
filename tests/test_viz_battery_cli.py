"""Tests for the viz exporters, battery model, and the CLI runner."""

import numpy as np
import pytest

from repro.errors import ReproError
from repro.geometry.vec import Vec2
from repro.hw.battery import Battery, CRAZYFLIE_BATTERY_WH
from repro.mapping.mocap import MotionCaptureTracker, TrackedSample
from repro.mapping.occupancy import OccupancyGrid
from repro.mission.closed_loop import DetectionEvent
from repro.viz import heatmap_to_pgm, trajectory_to_svg, write_pgm
from repro.world import Room, cluttered_room, paper_object_layout, paper_room


class TestPGM:
    def _grid(self):
        grid = OccupancyGrid(Room(2.0, 1.0), cell_size=0.5)
        grid.record(Vec2(0.25, 0.25), 9.0)
        grid.record(Vec2(1.75, 0.75), 18.0)
        return grid

    def test_image_geometry(self):
        img = heatmap_to_pgm(self._grid(), cell_px=4)
        assert img.shape == (2 * 4, 4 * 4)
        assert img.dtype == np.uint8

    def test_unvisited_black_visited_bright(self):
        img = heatmap_to_pgm(self._grid(), cell_px=1)
        # Grid row 0 (south) renders as the bottom image row.
        assert img[1, 0] > 0  # visited south-west cell
        assert img[1, 1] == 0  # unvisited
        assert img[0, 3] == 255  # saturated cell at the cap

    def test_write_pgm(self, tmp_path):
        img = heatmap_to_pgm(self._grid())
        path = tmp_path / "map.pgm"
        write_pgm(img, path)
        data = path.read_bytes()
        assert data.startswith(b"P5\n")
        w, h = img.shape[1], img.shape[0]
        assert f"{w} {h}".encode() in data
        assert len(data) == data.index(b"255\n") + 4 + w * h

    def test_write_pgm_validates(self, tmp_path):
        with pytest.raises(ValueError):
            write_pgm(np.zeros((2, 2)), tmp_path / "bad.pgm")


class TestSVG:
    def _samples(self):
        return [
            TrackedSample(time=t, position=Vec2(1.0 + t * 0.1, 1.0), heading=0.0)
            for t in np.linspace(0.0, 30.0, 50)
        ]

    def test_valid_document(self):
        svg = trajectory_to_svg(paper_room(), self._samples(), title="run 1")
        assert svg.startswith("<svg")
        assert svg.endswith("</svg>")
        assert "polyline" in svg
        assert "run 1" in svg

    def test_objects_and_events_marked(self):
        objects = paper_object_layout()
        events = [
            DetectionEvent(
                object_name=objects[0].name,
                object_class="bottle",
                time_s=10.0,
                distance_m=1.0,
            )
        ]
        svg = trajectory_to_svg(paper_room(), self._samples(), objects, events)
        # 6 object dots + 1 detection ring + 1 start marker.
        assert svg.count("<circle") == 8

    def test_obstacles_drawn(self):
        room = cluttered_room(n_obstacles=3, seed=0)
        svg = trajectory_to_svg(room, self._samples())
        assert svg.count("c0c0c0") == 3


class TestBattery:
    def test_crazyflie_endurance(self):
        # ~0.925 Wh at 85% usable over 8.02 W -> ~5.9 min: one 3-minute
        # mission per battery with margin, as the paper flies.
        endurance = Battery().endurance_s(8.02)
        assert 300.0 < endurance < 420.0

    def test_supports_paper_mission(self):
        assert Battery().supports_mission(8.02, 180.0, reserve=0.2)
        assert not Battery().supports_mission(8.02, 600.0)

    def test_validation(self):
        with pytest.raises(ReproError):
            Battery(capacity_wh=0.0)
        with pytest.raises(ReproError):
            Battery().endurance_s(0.0)
        with pytest.raises(ReproError):
            Battery().supports_mission(8.0, 60.0, reserve=1.5)

    def test_capacity_constant(self):
        assert CRAZYFLIE_BATTERY_WH == pytest.approx(0.925)


class TestCLI:
    def test_list(self, capsys):
        from repro.experiments.__main__ import main

        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "table2" in out and "fig6" in out

    def test_run_table2(self, capsys):
        from repro.experiments.__main__ import main

        assert main(["table2", "table4"]) == 0
        out = capsys.readouterr().out
        assert "MMAC" in out and "Motors" in out

    def test_unknown_rejected(self):
        from repro.experiments.__main__ import main

        with pytest.raises(SystemExit):
            main(["table9"])

    @pytest.mark.parametrize(
        "flag, value", [("--retries", "0"), ("--workers", "-1"), ("--timeout", "0")]
    )
    def test_bad_execution_setting_is_an_error_not_a_traceback(
        self, capsys, flag, value
    ):
        from repro.experiments.__main__ import main

        assert main(["table4", "--no-cache", flag, value]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
