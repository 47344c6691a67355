"""Agreement at random corners of the parameter space: the Laplace inverter
against the exact chain propagator, and the polaron solve against bisection
of its condition.

The corners come from the regions of the solver scan: alpha 0.01-3.2,
omega_b 0.1-20, omega0 3-320 and omega_c/omega0 4-10, with delta below the
band, within 1e-6 to 1e-1 of either band end, in the band or above it, and
omega_c t_max from 10 to 3000 (chains of up to 1550 sites).  That scan read
1.7e-11 at most between the two RWA solvers at 180 corners.  Hypothesis
draws four corners in each region with derandomize=True, so every run
tests the same 20.  They read at most 1.9e-12 between the populations
(bound 1e-9) and 1.7e-12 relative in log phi (bound 1e-11, that of the
fold scan in test_polaron.py).
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gapchain.chainmap import chain_length_for, map_to_chain
from gapchain.model import ModelParams
from gapchain.polaron import silbey_harris_solve
from gapchain.rwa import chain_evolve, laplace_invert
from oracles import log_root_by_bisection

CORNERS = settings(max_examples=4, derandomize=True, deadline=None,
                   database=None)
REGIONS = ["below", "edge", "top", "in", "above"]  # edge, top: the band's ends


def log_uniform(lo, hi):
    return st.floats(math.log(lo), math.log(hi)).map(math.exp)


@st.composite
def corners(draw, region):
    """A model whose delta lies in region; every delta is positive, since
    the polaron solve needs a finite splitting."""
    omega0 = draw(log_uniform(3.0, 320.0))
    p = ModelParams(alpha=draw(log_uniform(0.01, 3.2)),
                    omega_b=draw(log_uniform(0.1, 20.0)), omega0=omega0,
                    omega_c=omega0 * draw(st.floats(4.0, 10.0)))
    if region == "below":
        delta = p.omega_b * draw(st.floats(0.01, 0.99))
    elif region in ("edge", "top"):  # under 0.1 away, so below omega_b stays positive
        end = p.omega_b if region == "edge" else p.band_top
        distance = 10.0 ** draw(st.floats(-6.0, -1.0, exclude_max=True))
        delta = end + draw(st.sampled_from([-1.0, 1.0])) * distance
    elif region == "in":
        delta = p.omega_b + p.omega_c * draw(st.floats(0.01, 0.99))
    else:
        delta = p.band_top * draw(st.floats(1.01, 2.0))
    return dataclasses.replace(p, delta=delta)


@pytest.mark.parametrize("region", REGIONS)
@CORNERS
@given(data=st.data(), reach=log_uniform(10.0, 3000.0))
def test_laplace_inverter_matches_the_exact_chain(region, data, reach):
    p = data.draw(corners(region))
    t_max = reach / p.omega_c
    sc = chain_evolve(map_to_chain(p, chain_length_for(p, t_max)), p.delta,
                      t_max, samples=31)
    sl = laplace_invert(p, sc.times[1:])
    assert not sl.flags.any()
    assert np.max(np.abs(sl.population() - sc.population()[1:])) <= 1e-9


@pytest.mark.parametrize("region", REGIONS)
@CORNERS
@given(data=st.data())
def test_polaron_solve_matches_bisection(region, data):
    p = data.draw(corners(region))
    y = log_root_by_bisection(p)
    assert abs(math.log(silbey_harris_solve(p).phi) - y) <= 1e-11 * abs(y)
