"""Agreement at random corners of the parameter space: the Laplace inverter,
the Volterra solver and RWA-mode TEBD against the exact chain propagator,
FULL-mode TEBD against exact propagation on a truncated Fock space, and the
polaron solve against bisection of its condition.

The corners come from the regions of the solver scan: alpha 0.01-3.2,
omega_b 0.1-20, omega0 3-320 and omega_c/omega0 4-10, with delta below the
band, within 1e-6 to 1e-1 of either band end, in the band or above it, and
omega_c t_max from 10 to 3000 (chains of up to 1550 sites).  That scan read
1.7e-11 at most between the two RWA solvers at 180 corners.  Each test
draws the four corners of a region from numpy's default_rng, seeded by the
test's entry in DRAWS and the region, so every run tests the same corners,
whatever else is loaded or edited.  The largest differences at these
corners, and the bounds:
- Laplace: 6.0e-12 between the populations (bound 1e-9);
- polaron: 4.6e-13 relative in log phi (bound 1e-11, that of the fold scan
  in test_polaron.py);
- Volterra at its default step, self-check on: 2.6e-7 (bound 2e-6), and
  1.75e-6 at the above-band corner of test_volterra_at_its_nearest_corner,
  where the check passed the default step with a deviation of 5.8e-5.  The
  check halved the step at three corners, and the result is the Richardson
  extrapolation of the two runs it compares; the coarse run alone misses
  by 1.6e-5 to 1.2e-4 by region, its own second-order error, and fails the
  bound in every region;
- RWA-mode TEBD: 6.8e-7 (bound 1e-5), the Strang step's dt^2 error;
- FULL-mode TEBD: sigma_z from |e> within 2.5e-7 of the reference, and
  sigma_z and sigma_x from (|g> + |e>)/sqrt(2) within 4.7e-8, at the four
  tier-1 corners (omega_c t_max 8, bound 6e-7); 2.9e-6 and 1.3e-6 at the 20
  extended ones (omega_c t_max 12, bound 1e-5).  Halving the step cut the
  |e> error by 4.00x at the 4 tier-1 corners and by 4.00-4.02x at the 18
  extended ones where the order check applies.
The TEBD error grows about 4x when the default step doubles: that fails
the tier-1 FULL-mode test at one of its four corners, at 1.014e-6, 1.69x
its bound of 6e-7, while the largest error of the default step, 2.54e-7,
stays under half the bound.  A coupling g off by 2e-6 (a step-independent
error of 5.8e-8) passed the tier-1 bound and failed the order check at the
corners of an earlier draw.
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

from gapchain import mps, rwa
from gapchain.chainmap import chain_length_for, map_to_chain
from gapchain.model import ModelParams
from gapchain.mps import EvolutionConfig
from gapchain.polaron import silbey_harris_solve
from gapchain.rwa import chain_evolve, laplace_invert, volterra_solve
from oracles import full_mode_reference, log_root_by_bisection

REGIONS = ["below", "edge", "top", "in", "above"]  # edge, top: the band's ends
VOLTERRA_BOUND, RWA_BOUND = 2e-6, 1e-5
FULL_BOUND = {8.0: 6e-7, 12.0: 1e-5}  # by omega_c t_max: tier-1, extended
# each test's seed, and the log-uniform range of omega_c t_max it draws (None: none)
DRAWS = {"laplace": (1, (10.0, 3000.0)), "polaron": (2, None), "volterra": (3, (10.0, 300.0)),
         "rwa_mode": (4, (2.0, 10.0)), "full": (5, None), "full_widely": (6, None)}


def log_uniform(rng, lo, hi):
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def corner(rng, region):
    """A model whose delta lies in region; every delta is positive, since
    the polaron solve needs a finite splitting."""
    omega0 = log_uniform(rng, 3.0, 320.0)
    p = ModelParams(alpha=log_uniform(rng, 0.01, 3.2), omega_b=log_uniform(rng, 0.1, 20.0),
                    omega0=omega0, omega_c=omega0 * rng.uniform(4.0, 10.0))
    if region == "below":
        delta = p.omega_b * rng.uniform(0.01, 0.99)
    elif region in ("edge", "top"):  # under 0.1 away, so below omega_b stays positive
        end = p.omega_b if region == "edge" else p.band_top
        delta = end + rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-6.0, -1.0)
    elif region == "in":
        delta = p.omega_b + p.omega_c * rng.uniform(0.01, 0.99)
    else:
        delta = p.band_top * rng.uniform(1.01, 2.0)
    return dataclasses.replace(p, delta=float(delta))


def four(test, region=None):
    """The four (model, omega_c t_max) pairs of a test in region, or of any
    region if None, from numpy's generator seeded by the test's seed and
    the region."""
    seed, reach = DRAWS[test]
    rng = np.random.default_rng([seed, REGIONS.index(region) if region else len(REGIONS)])
    cases = []
    for _ in range(4):
        p = corner(rng, region or REGIONS[rng.integers(len(REGIONS))])
        cases.append((p, None if reach is None else log_uniform(rng, *reach)))
    return cases


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
    error = np.max(np.abs(sv.population() - sc.population()))
    assert error <= VOLTERRA_BOUND, f"{error:.3g} with {sv.checks}"


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
def test_laplace_inverter_matches_the_exact_chain(region):
    for p, reach in four("laplace", region):
        check_laplace(p, reach)


@pytest.mark.parametrize("region", REGIONS)
def test_polaron_solve_matches_bisection(region):
    for p, _ in four("polaron", region):
        check_polaron(p)


@pytest.mark.parametrize("region", REGIONS)
def test_volterra_matches_the_exact_chain(region):
    for p, reach in four("volterra", region):
        check_volterra(p, reach)


def test_volterra_at_its_nearest_corner():
    # above the band, where the check passes the default step: the closest
    # that a drawn corner has come to the bound
    p = ModelParams(alpha=2.5945, omega_b=0.5908, omega0=210.23, omega_c=1262.9,
                    delta=1800.48)
    check_volterra(p, 212.2)


@pytest.mark.parametrize("region", REGIONS)
def test_rwa_mode_tebd_matches_the_exact_chain(region):
    for p, reach in four("rwa_mode", region):
        check_rwa_mode(p, reach)


def test_full_mode_tebd_matches_the_exact_reference():
    # four small corners, of any region, on 12 sites
    for p, _ in four("full"):
        check_full_mode(p, 8.0)


@pytest.mark.extended
@pytest.mark.parametrize("region", REGIONS)
def test_full_mode_tebd_matches_the_exact_reference_widely(region):
    for p, _ in four("full_widely", region):
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
    this test was written: the doubled step 1 (1.014e-6 against the bound
    6e-7);
    the flipped slope 4, 4, 4, 3 and 4 by region (below, edge, top, in,
    above); the short prefix 4 in each; the scaled kernel 4, 3, 3, 2 and 2."""
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
