from pathlib import Path

import numpy as np
import pytest

from gainregion.region import PowerClass, boundary_strategy, needs_power_control, simplex_grid

# One transmitter with three antennas serving three receivers: a joint grid
# with one lambda axis and nothing else, so each leading index is one row.
BROADCAST3 = Path(__file__).resolve().parent / "skeletons" / "broadcast3.json"


@pytest.fixture
def rng():
    return np.random.default_rng(20240917)


def random_channels(rng, n, k):
    """k i.i.d. CN(0, 1) channel vectors of dimension n."""
    return [
        (rng.standard_normal(n) + 1j * rng.standard_normal(n)) / np.sqrt(2.0)
        for _ in range(k)
    ]


def oracle_sweep(channels, e, step, p_free_samples=11):
    """The rows of ``region.sweep_boundary`` from the scalar oracle alone:
    one ``boundary_strategy`` per row, a free row fanned out over ``p_free``
    when the direction needs power control."""
    fan_out = needs_power_control(len(channels[0]), e)
    rows = []
    for lam in simplex_grid(len(channels), step):
        ref = boundary_strategy(channels, lam, e)
        if fan_out and ref.power_class is PowerClass.FREE:
            p_levels = np.linspace(0.0, 1.0, p_free_samples)
            rows += [boundary_strategy(channels, lam, e, p_free=p) for p in p_levels]
        else:
            rows.append(ref)
    return rows
