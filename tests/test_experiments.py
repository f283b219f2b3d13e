"""Smoke tests of the experiment regenerators at minimal scale."""

import os
import subprocess
import sys

import numpy as np
import pytest

from repro.experiments import SMOKE_SCALE
from repro.experiments.config import quick
from repro.experiments import fig3, fig5, fig6, table2, table3, table4
from repro.experiments.reporting import ascii_series, ascii_table

TINY = quick(SMOKE_SCALE, n_runs=1, flight_time_s=30.0)


class TestReporting:
    def test_ascii_table(self):
        out = ascii_table(["a", "bb"], [["1", "22"], ["333", "4"]], title="t")
        lines = out.split("\n")
        assert lines[0] == "t"
        assert "a" in lines[1] and "bb" in lines[1]
        assert len(lines) == 5

    def test_ascii_table_validates(self):
        with pytest.raises(ValueError):
            ascii_table(["a"], [["1", "2"]])

    def test_ascii_series(self):
        out = ascii_series([0.0, 1.0, 2.0], [0.0, 0.5, 1.0], label="cov")
        assert "cov" in out


class TestTable2:
    def test_runs_and_formats(self):
        result = table2.run(TINY)
        text = table2.format_table(result)
        assert "MMAC" in text
        assert len(result.rows) == 3


class TestTable4:
    def test_runs_and_formats(self):
        result = table4.run(TINY)
        text = table4.format_table(result)
        assert "Motors" in text
        assert result.breakdown.total_w > 7.0


class TestFlightExperiments:
    def test_fig3(self):
        result = fig3.run(TINY)
        assert set(result.grids) == {
            "pseudo-random",
            "wall-following",
            "spiral",
            "rotate-and-measure",
        }
        text = fig3.format_maps(result)
        assert "coverage" in text

    def test_fig5(self):
        result = fig5.run(TINY, speeds=(0.5,))
        assert len(result.coverage) == 4
        assert all(0.0 <= v <= 1.0 for v in result.coverage.values())

    def test_fig5_coverage_column_unchanged_by_normalization(self):
        # Fig. 5 aggregates the campaign's `coverage` column. On the
        # paper room every grid cell is reachable (pinned: 143 of 143),
        # so the reachable-free-space normalization must reproduce the
        # historical visited/n_cells values exactly -- the figure's
        # regression values survive the metric fix untouched.
        from repro.sim import Campaign, get_scenario, run_campaign

        campaign = Campaign(
            name="fig5-pin",
            scenarios=(get_scenario("paper-room"),),
            policies=("pseudo-random",),
            speeds=(0.5,),
            n_runs=2,
            flight_time_s=20.0,
            kind="explore",
            seed=100,
        )
        result = run_campaign(campaign)
        cols = result.columns()
        assert cols["coverage"] == cols["coverage_raw"]
        assert cols["reachable_cells"] == [143, 143]
        assert cols["grid_cells"] == [143, 143]

    def test_table3(self):
        result = table3.run(TINY, widths=("1.0",), speeds=(0.5,))
        assert len(result.rates) == 4
        text = table3.format_table(result)
        assert "pseudo-random" in text

    def test_fig6(self):
        result = fig6.run(TINY)
        assert result.mean_coverage.shape == result.grid_times.shape
        assert (np.diff(result.mean_coverage) >= -1e-9).all()
        text = fig6.format_figure(result)
        assert "coverage" in text


class TestTable1Job:
    def test_trained_weights_do_not_depend_on_the_blas_thread_count(self):
        """The cache serves a Table I payload whatever BLAS thread count
        computed it, so a width must train to the same bytes on 1 and 2
        OpenBLAS threads."""
        code = (
            "import json, sys\n"
            "from repro.experiments.jobs import train_width\n"
            "payload = train_width(1.0, 8, 8, 1, 1, 1, 8, seed=5)\n"
            "sys.stdout.write(json.dumps(payload, sort_keys=True))\n"
        )
        payloads = [
            subprocess.run(
                [sys.executable, "-c", code],
                env=dict(os.environ, OPENBLAS_NUM_THREADS=threads),
                capture_output=True, check=True,
            ).stdout
            for threads in ("1", "2")
        ]
        assert b'"state"' in payloads[0]
        assert payloads[0] == payloads[1]
