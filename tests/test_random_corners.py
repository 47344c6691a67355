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
live in the check_* helpers for that reason.  Hypothesis also mixes the
literal constants of the loaded local modules into its draws, so a new
literal in src/ can draw new corners (the erfcx coefficients did), and
running this file alone draws other corners for some tests than the whole
suite does.  The largest differences measured at the whole suite's
corners, and the bounds:
- Laplace: 2.3e-11 between the populations (bound 1e-9);
- polaron: 1.4e-12 relative in log phi (bound 1e-11, that of the fold scan
  in test_polaron.py);
- Volterra at its default step, self-check on: 2.4e-7 (bound 2e-6), and
  1.75e-6 at an above-band corner of this file's own run (alpha 2.59,
  omega0 210, delta 1800).  The check halved the step at three corners
  (twice at a top-edge one), and the result is the Richardson
  extrapolation of the two runs it compares; the coarse run alone missed
  by up to 6.7e-4, its own second-order error, and fails the bound in
  every region;
- RWA-mode TEBD: 1.7e-6 (bound 1e-5), the Strang step's dt^2 error;
- FULL-mode TEBD: sigma_z from |e> within 5.5e-7 of the reference, and
  sigma_z and sigma_x from (|g> + |e>)/sqrt(2) within 5.4e-7, at the four
  tier-1 corners (omega_c t_max 8, bound 1e-6); 5.3e-6 and 1.5e-6 at the 20
  extended ones (omega_c t_max 12, bound 1e-5).  Halving the step cut the
  |e> error by 4.00-4.01x at the 3 tier-1 and 15 extended corners where
  the order check applies.
The TEBD error grows about 4x when the default step doubles: that fails
the tier-1 FULL-mode test at two of its four corners.  A coupling g off
by 2e-6 (a step-independent error of 5.8e-8) passed the tier-1 bound and
failed the order check at the corners drawn before the erfcx literals.
test_each_check_fails_under_its_mutation (extended) makes four mutations
through module attributes, at the corners the tier-1 tests draw, and
asserts that the check_* helper each names fails.
"""

import dataclasses
import inspect
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gapchain import mps, rwa
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
VOLTERRA_BOUND, RWA_BOUND = 2e-6, 1e-5
FULL_BOUND = {8.0: 1e-6, 12.0: 1e-5}  # by omega_c t_max: tier-1, extended


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
    """FULL-mode TEBD (d_b 4, chi_max 32, default step) from |e> and from
    (|g> + |e>)/sqrt(2) to t_max = reach / omega_c, against
    full_mode_reference on the first ceil(reach / 2) + 8 sites, which the
    front does not leave: four more sites move sigma_z by under 1e-14.  The
    total-quanta cut K is raised from 4 until one more quantum moves sigma_z
    and sigma_x by at most a tenth of the bound, FULL_BOUND[reach], and TEBD
    is compared with that K + 1 reference.  Each quantum moved it 20-55x
    less than the one before (K 7 was needed where K 5 to 6 moved it
    1.2e-6), so the reference sits well within a tenth of the bound of its
    limit.  The order check: the |e> run is repeated at dt/2 over the same
    steps and samples, and where the default step's error is at least 100x
    the reference's last move in K, the dt/2 error is at most a third of it
    (the Strang step's dt^2 error gives a quarter)."""
    t_max = reach / p.omega_c
    c = map_to_chain(p, chain_length_for(p, t_max))
    cfg = EvolutionConfig(t_max=t_max, d_b=4, chi_max=32, mode="FULL")
    L, bound = math.ceil(reach / 2.0) + 8, FULL_BOUND[reach]
    for atom_state in ("excited", "plus_superposition"):
        ts = mps.evolve(c, cfg, atom_state, p.delta)
        assert not ts.flags.any()
        ref = full_mode_reference(c, p.delta, ts.times, L=L, K=4, atom_state=atom_state)
        for K in range(5, 9):
            ref, previous = full_mode_reference(c, p.delta, ts.times, L=L, K=K,
                                                atom_state=atom_state), ref
            moved = max(np.max(np.abs(a - b)) for a, b in zip(ref, previous))
            if moved <= bound / 10.0:
                break
        else:
            raise AssertionError(f"the reference has not converged at K = {K}")
        error = max(np.max(np.abs(ref[0] - ts.sigma_z.real)),
                    np.max(np.abs(ref[1] - ts.sigma_x.real)))
        assert error <= bound
        if atom_state == "excited" and error >= 100.0 * moved:
            half = mps.evolve(c, dataclasses.replace(
                cfg, t_max=ts.times[-1], dt=ts.dt / 2.0, sample_stride=2 * cfg.sample_stride),
                atom_state, p.delta)
            assert np.array_equal(half.times, ts.times)
            assert np.max(np.abs(ref[0] - half.sigma_z.real)) <= error / 3.0


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


def _doubled_step(monkeypatch):
    """mps.evolve at twice the default step, as an explicit dt."""
    evolve = mps.evolve

    def doubled(c, cfg, atom_state, delta):
        if cfg.dt is None:
            cfg = dataclasses.replace(cfg, dt=2.0 * mps.build_gates(c, delta, cfg).dt)
        return evolve(c, cfg, atom_state, delta)

    monkeypatch.setattr(mps, "evolve", doubled)


def _flipped_slope(monkeypatch):
    """rwa.ghat_slope with its sign flipped."""
    slope = rwa.ghat_slope
    monkeypatch.setattr(rwa, "ghat_slope", lambda *args: -slope(*args))


def _short_prefix(monkeypatch):
    """rwa._chebyshev_moments with each step's prefix one step short, so
    every u_n misses its front site."""
    source = inspect.getsource(rwa._chebyshev_moments)
    line = "P = min(2 * (n0 + i + 1), width)"
    assert source.count(line) == 1
    scope = dict(vars(rwa))
    exec(source.replace(line, "P = min(2 * (n0 + i), width)"), scope)
    monkeypatch.setattr(rwa, "_chebyshev_moments", scope["_chebyshev_moments"])


def _scaled_kernel(monkeypatch):
    """Volterra's kernel rwa.bath_correlation scaled by 1 + 1e-3."""
    kernel = rwa.bath_correlation
    monkeypatch.setattr(rwa, "bath_correlation", lambda *args: (1.0 + 1e-3) * kernel(*args))


def _fails(check, args):
    """Whether check(*args) fails: a comparison of the check, a series'
    own validation or a search that stops."""
    try:
        check(*args)
    except (AssertionError, ValueError, RuntimeError):
        return True
    return False


@pytest.mark.extended
@pytest.mark.parametrize("mutate, helper, test, regions", [
    (_doubled_step, "check_full_mode", "test_full_mode_tebd_matches_the_exact_reference",
     [None]),
    (_flipped_slope, "check_laplace", "test_laplace_inverter_matches_the_exact_chain", REGIONS),
    (_short_prefix, "check_laplace", "test_laplace_inverter_matches_the_exact_chain", REGIONS),
    (_scaled_kernel, "check_volterra", "test_volterra_matches_the_exact_chain", REGIONS),
], ids=["doubled-tebd-step", "flipped-ghat-slope", "short-moment-prefix", "scaled-kernel"])
def test_each_check_fails_under_its_mutation(monkeypatch, mutate, helper, test, regions):
    """Each mutation, made through a module attribute, fails the check_*
    helper it names at one or more of the four corners that the named
    tier-1 test draws, in each of its regions; the corners are recorded by
    running that test with the helper replaced.  Failed corners of 4 when
    this test was written: the doubled step 2 (the bound, 1.46e-6 > 1e-6);
    the flipped slope 4, 4, 4, 1 and 4 by region (below, edge, top, in,
    above); the short prefix 4 in each; the scaled kernel 4, 4, 3, 4 and 2."""
    module = sys.modules[__name__]
    cases = {region: [] for region in regions}
    with monkeypatch.context() as m:
        for region, seen in cases.items():
            m.setattr(module, helper, lambda *args, seen=seen: seen.append(args))
            getattr(module, test)(**({} if region is None else {"region": region}))
    check = getattr(module, helper)
    mutate(monkeypatch)
    for region, seen in cases.items():
        assert len(seen) == 4
        assert any(_fails(check, args) for args in seen), region
