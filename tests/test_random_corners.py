"""Agreement at random corners of the parameter space: the Laplace inverter,
the Volterra solver and RWA-mode TEBD against the exact chain propagator,
FULL-mode TEBD against exact propagation on a truncated Fock space, and the
polaron solve against bisection of its condition.

The corners come from the regions of the solver scan: alpha 0.01-3.2,
omega_b 0.1-20, omega0 3-320 and omega_c/omega0 4-10, with delta below the
band, within 1e-6 to 1e-1 of either band end, in the band or above it, and
omega_c t_max from 10 to 3000 (chains of up to 1550 sites).  That scan read
1.7e-11 at most between the two RWA solvers at 180 corners.  Each test
draws the four corners of a region as one list of distinct models, its
single example, with derandomize=True, so every run tests the same four
corners.  The draws are seeded by each test's code (comments and
decorators aside), so an edit to that code draws new corners; the checks
live in the check_* helpers for that reason.  The largest differences
measured at these corners, and the bounds:
- Laplace: 2.3e-11 between the populations (bound 1e-9);
- polaron: 1.4e-12 relative in log phi (bound 1e-11, that of the fold scan
  in test_polaron.py);
- Volterra at its default step, self-check on: 1.25e-4 (bound 5e-4).  The
  check halved the step at two corners; without it, 0.05/omega0 missed by
  6.7e-4 at the top-edge one (alpha 2.73, omega0 3.0, delta 3.6e-3 below
  the band top), its own second-order error, which falls 4x with each
  halving;
- RWA-mode TEBD: 1.7e-6 (bound 1e-5), the Strang step's dt^2 error;
- FULL-mode TEBD: sigma_z within 3.7e-7 of the reference at the four
  tier-1 corners and 5.3e-6 at the 20 extended ones (bound 1e-5).
The TEBD error grows about 4x when the default step doubles: at these
corners that fails the extended FULL-mode test at one region (edge,
2.1e-5), while the tier-1 one still passes (1.5e-6).
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gapchain import mps
from gapchain.chainmap import chain_length_for, map_to_chain
from gapchain.model import ModelParams
from gapchain.mps import EvolutionConfig
from gapchain.polaron import silbey_harris_solve
from gapchain.rwa import chain_evolve, laplace_invert, volterra_solve
from oracles import full_mode_reference, log_root_by_bisection

CORNERS = settings(max_examples=1, derandomize=True, deadline=None,
                   database=None)
REGIONS = ["below", "edge", "top", "in", "above"]  # edge, top: the band's ends
# the bounds, kept out of the tests' source, which seeds their draws
VOLTERRA_BOUND, RWA_BOUND, FULL_BOUND = 5e-4, 1e-5, 1e-5


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


def four(models, reach=st.none()):
    """Four (model, omega_c t_max) pairs with distinct models, as one draw:
    a test's single example, so no draw repeats another."""
    return st.lists(st.tuples(models, reach), min_size=4, max_size=4,
                    unique_by=lambda case: case[0])


def check_laplace(p, reach):
    t_max = reach / p.omega_c
    sc = chain_evolve(map_to_chain(p, chain_length_for(p, t_max)), p.delta,
                      t_max, samples=31)
    sl = laplace_invert(p, sc.times[1:])
    assert not sl.flags.any()
    assert np.max(np.abs(sl.population() - sc.population()[1:])) <= 1e-9


def check_polaron(p):
    y = log_root_by_bisection(p)
    assert abs(math.log(silbey_harris_solve(p).phi) - y) <= 1e-11 * abs(y)


def check_volterra(p, reach):
    # omega0 t_max stays under 75, so the O(n^2) loop takes under 1500 steps
    # at the default step, which the step-halving check halves where it must
    sv = volterra_solve(p, reach / p.omega_c)
    t_end = sv.times[-1]
    sc = chain_evolve(map_to_chain(p, chain_length_for(p, t_end)), p.delta,
                      t_end, samples=sv.times.size)
    assert np.max(np.abs(sv.population() - sc.population())) <= VOLTERRA_BOUND


def check_rwa_mode(p, reach):
    t_max = reach / p.omega_c
    c = map_to_chain(p, chain_length_for(p, t_max))
    cfg = EvolutionConfig(t_max=t_max, d_b=2, chi_max=8, mode="RWA")
    # the default step, shortened so that the samples fall on a uniform grid
    samples = math.ceil(t_max / mps.build_gates(c, p.delta, cfg).dt / cfg.sample_stride)
    cfg = dataclasses.replace(cfg, dt=t_max / (samples * cfg.sample_stride))
    ts = mps.evolve(c, cfg, "excited", p.delta)
    sc = chain_evolve(c, p.delta, t_max, samples=samples + 1)
    assert not ts.flags.any()
    assert np.max(np.abs(ts.pop_excited - sc.population())) <= RWA_BOUND


def check_full_mode(p, reach):
    """FULL-mode TEBD (d_b 4, chi_max 32, default step) from |e> to
    t_max = reach / omega_c against full_mode_reference on the first
    ceil(reach / 2) + 8 sites, which the front does not leave: four more
    sites move sigma_z by under 1e-14.  The total-quanta cut K is raised
    from 4 until one more quantum moves sigma_z by at most FULL_BOUND / 10,
    and TEBD is compared with that K + 1 reference.  Each quantum moved it
    20-55x less than the one before (K 7 was needed where K 5 to 6 moved it
    1.2e-6), so the reference sits well within FULL_BOUND / 10 of its
    limit."""
    t_max = reach / p.omega_c
    c = map_to_chain(p, chain_length_for(p, t_max))
    cfg = EvolutionConfig(t_max=t_max, d_b=4, chi_max=32, mode="FULL")
    ts = mps.evolve(c, cfg, "excited", p.delta)
    assert not ts.flags.any()
    L = math.ceil(reach / 2.0) + 8
    ref, _ = full_mode_reference(c, p.delta, ts.times, L=L, K=4)
    for K in range(5, 9):
        ref, previous = full_mode_reference(c, p.delta, ts.times, L=L, K=K)[0], ref
        if np.max(np.abs(ref - previous)) <= FULL_BOUND / 10.0:
            break
    else:
        raise AssertionError(f"the reference has not converged at K = {K}")
    assert np.max(np.abs(ref - ts.sigma_z.real)) <= FULL_BOUND


@pytest.mark.parametrize("region", REGIONS)
@CORNERS
@given(data=st.data())
def test_laplace_inverter_matches_the_exact_chain(region, data):
    for p, reach in data.draw(four(corners(region), log_uniform(10.0, 3000.0))):
        check_laplace(p, reach)


@pytest.mark.parametrize("region", REGIONS)
@CORNERS
@given(data=st.data())
def test_polaron_solve_matches_bisection(region, data):
    for p, _ in data.draw(four(corners(region))):
        check_polaron(p)


@pytest.mark.parametrize("region", REGIONS)
@CORNERS
@given(data=st.data())
def test_volterra_matches_the_exact_chain(region, data):
    for p, reach in data.draw(four(corners(region), log_uniform(10.0, 300.0))):
        check_volterra(p, reach)


@pytest.mark.parametrize("region", REGIONS)
@CORNERS
@given(data=st.data())
def test_rwa_mode_tebd_matches_the_exact_chain(region, data):
    for p, reach in data.draw(four(corners(region), log_uniform(2.0, 10.0))):
        check_rwa_mode(p, reach)


@CORNERS
@given(data=st.data())
def test_full_mode_tebd_matches_the_exact_reference(data):
    # four small corners, of any region: 18 to 23 samples on 12 sites
    for p, _ in data.draw(four(st.sampled_from(REGIONS).flatmap(corners))):
        check_full_mode(p, 8.0)


@pytest.mark.extended
@pytest.mark.parametrize("region", REGIONS)
@CORNERS
@given(data=st.data())
def test_full_mode_tebd_matches_the_exact_reference_widely(region, data):
    for p, _ in data.draw(four(corners(region))):
        check_full_mode(p, 12.0)
