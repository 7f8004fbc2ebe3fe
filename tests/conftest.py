import importlib
import math
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume
from hypothesis import strategies as st

from gainregion.network import Scenario, TransmitterSpec, direction_vector, generate_channels
from gainregion.region import (
    PowerClass,
    boundary_strategy,
    needs_power_control,
    simplex_grid,
    simplex_grid_size,
)

# One transmitter with three antennas serving three receivers: a joint grid
# with one lambda axis and nothing else, so each leading index is one row.
BROADCAST3 = Path(__file__).resolve().parent / "skeletons" / "broadcast3.json"

# On a failing example hypothesis imports its patch writer, whose libcst
# dependency raises a DeprecationWarning at import; under the error filter of
# pyproject.toml that ends the whole run.  Loading it here, with only that
# warning silenced, lets every other result be reported.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    importlib.import_module("hypothesis.extra._patching")


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


# Joint grid steps, coarsest first: step 1.0 always fits the default row cap.
_STEPS = (1.0, 0.5, 1 / 3, 0.25, 0.2)


@st.composite
def scenarios(draw, max_rows=3000):
    """``(scenario, step)``: any network the schema accepts, and a step whose
    joint sweep has at most ``max_rows`` rows.

    T, K and N are each 1-3, with random intended sets.  Two transmitters
    may share a power group, and then maybe one channel key (virtual
    transmitters of one physical one).  Every channel may carry a path loss
    of 1e-4...1 in power, with the noise power scaled alike.
    """
    k = draw(st.integers(1, 3))
    antennas = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
    keys = [str(i + 1) for i in range(len(antennas))]
    groups = [(key,) for key in keys]
    if len(keys) > 1 and draw(st.booleans()):
        a, b = draw(st.permutations(range(len(keys))))[:2]
        groups = [(keys[a], keys[b])] + [(t,) for i, t in enumerate(keys) if i not in (a, b)]
        if draw(st.booleans()):
            keys[b], antennas[b] = keys[a], antennas[a]
    transmitters = [
        TransmitterSpec(str(i + 1), n, draw(st.sets(st.integers(1, k), min_size=1)), key)
        for i, (n, key) in enumerate(zip(antennas, keys))
    ]
    noise = draw(st.sampled_from([0.1, 1.0, 10.0]))
    s = generate_channels(draw(st.integers(0, 2**16)), Scenario(transmitters, k, noise, groups))
    if draw(st.booleans()):
        loss = 10.0 ** draw(st.floats(-4.0, 0.0))
        channels = {key: math.sqrt(loss) * h for key, h in s.channels.items()}
        s = replace(s, channels=channels, noise_power=noise * loss)

    def row_bound(step):
        # The strategy-row product is at most every group's split grid times
        # each transmitter's simplex grid, times m + 1 where it needs power control.
        levels = simplex_grid_size(2, step)
        rows = math.prod(simplex_grid_size(len(g), step) for g in s.power_groups)
        for t in s.transmitters:
            control = needs_power_control(t.n_antennas, direction_vector(s, t.tid))
            rows *= simplex_grid_size(k, step) * (levels if control else 1)
        return rows

    fitting = [h for h in _STEPS if row_bound(h) <= max_rows]
    assume(fitting)
    return s, draw(st.sampled_from(fitting))
