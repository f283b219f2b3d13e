"""Regenerates Table I: mAP across domains, fine-tuning and precision.

Trains the laptop-scale SSD family on the synthetic web domain, measures
the domain gap on the onboard domain, fine-tunes with QAT and converts to
int8 -- the paper's full accuracy table.
"""

from conftest import run_once

from repro.experiments import table1


def test_table1_map(benchmark, train_scale):
    result = run_once(benchmark, table1.run, train_scale)
    print()
    print(table1.format_table(result))
    widths = sorted(result.rows[0].map_by_width)
    # Shape checks mirroring the paper's qualitative claims.
    web = result.rows[0].map_by_width
    gap = result.rows[1].map_by_width
    ft = result.rows[2].map_by_width
    int8 = result.rows[3].map_by_width
    for w in widths:
        assert 0.0 <= web[w] <= 1.0
        # Fine-tuning must recover (most of) the domain gap.
        assert ft[w] >= gap[w] - 0.05
        # The QAT int8 deployment must stay close to the float model.
        assert abs(int8[w] - ft[w]) <= 0.05
