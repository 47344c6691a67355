"""TEBD engine tests: gate algebra, conservation laws, accuracy vs the
exact single-excitation chain solver, truncation safeguards."""

import numpy as np
import pytest

from gapchain import mps
from gapchain.chainmap import chain_length_for, map_to_chain
from gapchain.model import ModelParams
from gapchain.mps import EvolutionConfig, MPSState
from gapchain.rwa import chain_state_amplitudes
from oracles import convergence_report, measure_bond, top_fock_occupation, total_energy

DELTA = 3.0
T_SHORT = 0.3


def reduced():
    return ModelParams(alpha=1.0, omega_b=2.0, omega0=20.0, omega_c=100.0)


@pytest.fixture(scope="module")
def chain():
    p = reduced()
    return map_to_chain(p, chain_length_for(p, T_SHORT))


@pytest.fixture(scope="module")
def rwa_run(chain):
    cfg = EvolutionConfig(t_max=T_SHORT, d_b=2, chi_max=16, sample_stride=10,
                          mode="RWA")
    return mps.evolve(chain, cfg, "excited", DELTA)


@pytest.fixture(scope="module")
def full_run(chain):
    cfg = EvolutionConfig(t_max=T_SHORT, d_b=4, chi_max=32, sample_stride=10,
                          mode="FULL")
    return mps.evolve(chain, cfg, "excited", DELTA)


def parities(*dims):
    """Parity of each flattened index of sites with the given dimensions."""
    return np.indices(dims).sum(axis=0).ravel() % 2


def blocked_split(mat, rows, cols):
    """mat = us @ vh parity block by parity block, sorted as a bond keeps
    them (even sector first, each descending): (us, s, vh, parities)."""
    parts = []
    for p in (0, 1):
        r, c = np.flatnonzero(rows == p), np.flatnonzero(cols == p)
        u, s, vh = np.linalg.svd(mat[np.ix_(r, c)], full_matrices=False)
        for k in range(s.size):
            us_k = np.zeros(mat.shape[0], dtype=complex)
            vh_k = np.zeros(mat.shape[1], dtype=complex)
            us_k[r], vh_k[c] = u[:, k] * s[k], vh[k]
            parts.append((s[k], p, us_k, vh_k))
    parts.sort(key=lambda part: (part[1], -part[0]))
    s, q, us, vh = zip(*parts)
    return np.array(us).T, np.array(s), np.array(vh), np.array(q)


def random_canonical_state(d_b, rng):
    """Exact right-canonical 3-site MPS of a random odd-parity wavefunction,
    decomposed block by block so that every bond carries exact parities."""
    psi = rng.normal(size=(2, d_b, d_b)) + 1j * rng.normal(size=(2, d_b, d_b))
    psi.ravel()[parities(2, d_b, d_b) == 0] = 0.0
    psi /= np.linalg.norm(psi)
    us, s12, vh, q12 = blocked_split(psi.reshape(2 * d_b, d_b),
                                     1 - parities(2, d_b), parities(d_b))
    b2 = vh.reshape(s12.size, d_b, 1)
    us, s01, vh, q01 = blocked_split(us.reshape(2, d_b * s12.size),
                                     1 - parities(2),
                                     (parities(d_b)[:, None] + q12).ravel() % 2)
    b1 = vh.reshape(s01.size, d_b, s12.size)
    b0 = us.reshape(1, 2, s01.size)
    return MPSState([b0, b1, b2], [s01, s12],
                    [int(q01.sum()), int(q12.sum()), 0, 1], np.ones(1, dtype=complex))


def bond_parities(st, j, chi):
    """Parity of each of bond j's chi vectors: the last odd[j] are odd."""
    return (np.arange(chi) >= chi - st.odd[j]).astype(int)


class TestEvolutionConfig:
    def test_mode_validation(self):
        with pytest.raises(ValueError, match="mode"):
            EvolutionConfig(t_max=1.0, mode="rwa")

    def test_d_b_floor_depends_on_mode(self):
        with pytest.raises(ValueError, match="d_b >= 2"):
            EvolutionConfig(t_max=1.0, d_b=1, mode="RWA")
        with pytest.raises(ValueError, match="d_b >= 4"):
            EvolutionConfig(t_max=1.0, d_b=3, mode="FULL")
        EvolutionConfig(t_max=1.0, d_b=2, mode="RWA")
        EvolutionConfig(t_max=1.0, d_b=4, mode="FULL")

    def test_chi_threshold_and_grid_validation(self):
        with pytest.raises(ValueError, match="chi_max"):
            EvolutionConfig(t_max=1.0, chi_max=4)
        with pytest.raises(ValueError, match="svd_threshold"):
            EvolutionConfig(t_max=1.0, svd_threshold=1e-3)
        with pytest.raises(ValueError, match="svd_threshold"):
            EvolutionConfig(t_max=1.0, svd_threshold=0.0)
        with pytest.raises(ValueError, match="t_max"):
            EvolutionConfig(t_max=0.0)
        with pytest.raises(ValueError, match="dt"):
            EvolutionConfig(t_max=1.0, dt=-0.1)
        with pytest.raises(ValueError, match="sample_stride"):
            EvolutionConfig(t_max=1.0, sample_stride=0)


class TestInitState:
    @pytest.mark.parametrize("atom_state,sz,sx", [
        ("excited", 1.0, 0.0),
        ("ground", -1.0, 0.0),
        ("plus_superposition", 0.0, 1.0),
    ])
    def test_atom_preparations(self, chain, atom_state, sz, sx):
        cfg = EvolutionConfig(t_max=1.0, d_b=4, mode="FULL")
        st = mps.init_state(chain, cfg, atom_state)
        # one left index value per parity sector of the emitter state
        sectors = 2 if atom_state == "plus_superposition" else 1
        assert st.n_sites == chain.N + 1
        assert st.site_tensors[0].shape == (sectors, 2, 1)
        assert st.head.shape == (sectors,)
        # every bond even; site 0's left edge odd where |e> is present
        assert st.odd == [0] * (chain.N + 1) + [int(atom_state != "ground")]
        assert st.site_tensors[1].shape == (1, 4, 1)
        assert mps.measure(st, 0, np.eye(2)).real == pytest.approx(1.0)
        assert mps.measure(st, 0, mps.SIGMA_Z).real == pytest.approx(sz, abs=1e-14)
        assert mps.measure(st, 0, mps.SIGMA_X).real == pytest.approx(sx, abs=1e-14)
        for site in range(1, st.n_sites):
            assert mps.measure(st, site, mps._number(4)).real == pytest.approx(0.0, abs=1e-14)

    def test_unknown_atom_state(self, chain):
        cfg = EvolutionConfig(t_max=1.0)
        with pytest.raises(ValueError, match="atom_state"):
            mps.init_state(chain, cfg, "inverted")


class TestBuildGates:
    def test_default_dt_tracks_onsite_scale(self, chain):
        cfg = EvolutionConfig(t_max=1.0, d_b=4, mode="FULL")
        gates = mps.build_gates(chain, DELTA, cfg)
        scale = max(DELTA, chain.eps.max() + 2 * chain.t.max())
        assert gates.dt == pytest.approx(0.05 / scale)

    def test_coarse_dt_rejected(self, chain):
        cfg = EvolutionConfig(t_max=1.0, dt=0.1, d_b=4, mode="FULL")
        with pytest.raises(ValueError, match="0.5"):
            mps.build_gates(chain, DELTA, cfg)

    @pytest.mark.parametrize("mode, d_b", [("RWA", 2), ("FULL", 4)])
    def test_gates_match_expm(self, chain, mode, d_b):
        # the eigh-built gates against scipy's Pade exponential of each bond
        from scipy.linalg import expm

        cfg = EvolutionConfig(t_max=1.0, d_b=d_b, mode=mode)
        gates = mps.build_gates(chain, DELTA, cfg)
        hams, _ = mps._bond_hamiltonians(chain, DELTA, cfg)
        for j, h in enumerate(hams):
            full = gates.full[j].reshape(h.shape)
            assert np.abs(full - expm(-1j * gates.dt * h)).max() <= 5e-15
            if j % 2 == 0:
                half = gates.half[j].reshape(h.shape)
                assert np.abs(half - expm(-0.5j * gates.dt * h)).max() <= 5e-15

    def test_gates_unitary(self, chain):
        cfg = EvolutionConfig(t_max=1.0, d_b=4, mode="FULL")
        gates = mps.build_gates(chain, DELTA, cfg)
        for batch in (gates.half, gates.full):
            for U in batch:
                if U is None:
                    continue
                dl, dr = U.shape[0], U.shape[1]
                m = U.reshape(dl * dr, dl * dr)
                assert np.abs(m @ m.conj().T - np.eye(dl * dr)).max() < 1e-12

    @pytest.mark.parametrize("mode,d_b", [("RWA", 2), ("FULL", 4)])
    def test_chain_gates_fix_vacuum_and_even_full_is_squared(self, chain,
                                                             mode, d_b):
        # H_j|00> = 0 on every chain bond, which is what lets tebd_step
        # skip vacuum pairs; the merged even gate is the half gate squared
        cfg = EvolutionConfig(t_max=1.0, d_b=d_b, mode=mode)
        gates = mps.build_gates(chain, DELTA, cfg)
        e00 = np.zeros(d_b * d_b, dtype=complex)
        e00[0] = 1.0
        for j in range(1, chain.N):
            for batch in (gates.half, gates.full):
                if batch[j] is None:
                    continue
                m = batch[j].reshape(d_b * d_b, d_b * d_b)
                np.testing.assert_array_equal(m[:, 0], e00)
        for j, (half, full) in enumerate(zip(gates.half, gates.full)):
            assert full is not None
            assert (half is None) == (j % 2 == 1)
            if half is not None:
                dl, dr = half.shape[0], half.shape[1]
                m = half.reshape(dl * dr, dl * dr)
                np.testing.assert_array_equal(full.reshape(dl * dr, dl * dr),
                                              m @ m)

    def test_rwa_generators_commute_with_excitation(self, chain):
        d_b = 3
        cfg = EvolutionConfig(t_max=1.0, d_b=d_b, mode="RWA")
        hams, _ = mps._bond_hamiltonians(chain, DELTA, cfg)
        n_b = np.diag(np.arange(d_b, dtype=float))
        n_atom = np.diag([0.0, 1.0])
        for j, h in enumerate(hams):
            q_left = n_atom if j == 0 else n_b
            dl = 2 if j == 0 else d_b
            q = np.kron(q_left, np.eye(d_b)) + np.kron(np.eye(dl), n_b)
            assert np.abs(h @ q - q @ h).max() < 1e-12

    def test_full_generators_commute_with_parity(self, chain):
        d_b = 4
        cfg = EvolutionConfig(t_max=1.0, d_b=d_b, mode="FULL")
        hams, _ = mps._bond_hamiltonians(chain, DELTA, cfg)
        par_b = np.diag((-1.0) ** np.arange(d_b))
        sz = np.diag([-1.0, 1.0])
        for j, h in enumerate(hams):
            p_left = sz if j == 0 else par_b
            par = np.kron(p_left, par_b)
            assert np.abs(h @ par - par @ h).max() < 1e-12

    def test_full_generators_break_excitation_number(self, chain):
        # counter-rotating terms must actually be present
        d_b = 4
        cfg = EvolutionConfig(t_max=1.0, d_b=d_b, mode="FULL")
        n_b = np.diag(np.arange(d_b, dtype=float))
        q = np.kron(np.diag([0.0, 1.0]), np.eye(d_b)) + np.kron(np.eye(2), n_b)
        h = mps._bond_hamiltonians(chain, DELTA, cfg)[0][0]
        assert np.abs(h @ q - q @ h).max() > 1e-3


class TestAccuracy:
    def test_rwa_matches_exact_chain(self, chain, rwa_run):
        exact = np.abs(chain_state_amplitudes(chain, DELTA, rwa_run.times)[:, 0]) ** 2
        assert np.max(np.abs(rwa_run.pop_excited - exact)) < 1e-3

    def test_d_b_irrelevant_in_single_excitation_sector(self, chain, rwa_run):
        cfg = EvolutionConfig(t_max=T_SHORT, d_b=4, chi_max=16,
                              sample_stride=10, mode="RWA")
        wide = mps.evolve(chain, cfg, "excited", DELTA)
        assert np.max(np.abs(wide.pop_excited - rwa_run.pop_excited)) < 1e-10

    def test_trotter_error_scales_quadratically(self, chain):
        base = mps.build_gates(chain, DELTA,
                               EvolutionConfig(t_max=T_SHORT, d_b=2, mode="RWA"))
        devs = {}
        for fac in (8, 4):
            dt = fac * base.dt
            cfg = EvolutionConfig(t_max=T_SHORT, dt=dt, d_b=2, chi_max=16,
                                  sample_stride=max(1, int(round(0.02 / dt))),
                                  mode="RWA")
            ts = mps.evolve(chain, cfg, "excited", DELTA)
            exact = np.abs(chain_state_amplitudes(chain, DELTA, ts.times)[:, 0]) ** 2
            devs[fac] = np.max(np.abs(ts.pop_excited - exact))
        assert 3.0 < devs[8] / devs[4] < 5.5

    def test_energy_drift_scales_quadratically(self, chain):
        base = mps.build_gates(chain, DELTA,
                               EvolutionConfig(t_max=T_SHORT, d_b=4, mode="FULL"))
        drift = {}
        for fac in (1.0, 0.5):
            dt = fac * base.dt
            cfg = EvolutionConfig(t_max=T_SHORT, dt=dt, d_b=4, chi_max=16,
                                  mode="FULL")
            gates = mps.build_gates(chain, DELTA, cfg)
            st = mps.init_state(chain, cfg, "excited")
            e0 = total_energy(st, chain, DELTA, cfg)
            for _ in range(int(round(0.12 / dt))):
                mps.tebd_step(st, gates)
            drift[fac] = abs(total_energy(st, chain, DELTA, cfg) - e0)
        assert 3.0 < drift[1.0] / drift[0.5] < 5.5


class TestConservation:
    def test_rwa_excitation_number(self, rwa_run):
        assert np.max(np.abs(rwa_run.conserved_charge - 1.0)) < 1e-10

    def test_full_parity(self, full_run):
        assert full_run.conserved_charge[0] == pytest.approx(1.0, abs=1e-10)
        drift = np.max(np.abs(full_run.conserved_charge
                              - full_run.conserved_charge[0]))
        assert drift < 1e-10

    def test_norm_drift_per_step(self, full_run):
        stride = 10  # full_run's sample_stride
        assert np.max(full_run.norm_drift[1:]) / stride < 1e-8

    def test_norm_drift_sums_to_discarded_weight(self, chain):
        # one ledger: the sampled drift is the discarded weight's increments,
        # at a corner where chi_max = 8 truncates
        cfg = EvolutionConfig(t_max=T_SHORT, d_b=4, chi_max=8, mode="FULL")
        ts = mps.evolve(chain, cfg, "excited", DELTA)
        assert ts.max_bond[-1] == 8
        assert ts.discarded_weight[-1] > 1e-10
        assert ts.norm_drift[0] == 0.0
        np.testing.assert_allclose(np.cumsum(ts.norm_drift), ts.discarded_weight,
                                   rtol=1e-12, atol=0.0)

    def test_full_sigma_x_frozen_at_zero_splitting(self, chain):
        # sigma_x commutes with the whole FULL Hamiltonian when delta = 0
        cfg = EvolutionConfig(t_max=T_SHORT, d_b=4, chi_max=16,
                              sample_stride=20, mode="FULL")
        ts = mps.evolve(chain, cfg, "plus_superposition", 0.0)
        assert np.max(np.abs(ts.sigma_x.real - 1.0)) < 1e-3
        assert np.max(np.abs(ts.sigma_x.imag)) < 1e-10

    def test_bond_dims_capped(self, full_run):
        assert full_run.max_bond.max() <= 32  # full_run's chi_max


class TestMergedSteps:
    @pytest.mark.parametrize("mode,d_b", [("RWA", 2), ("FULL", 4)])
    @pytest.mark.parametrize("k", [1, 2, 7])
    def test_k_steps_match_k_single_steps(self, chain, mode, d_b, k):
        cfg = EvolutionConfig(t_max=T_SHORT, d_b=d_b, chi_max=16, mode=mode)
        gates = mps.build_gates(chain, DELTA, cfg)
        merged = mps.init_state(chain, cfg, "plus_superposition")
        single = mps.init_state(chain, cfg, "plus_superposition")
        mps.tebd_step(merged, gates, k)
        for _ in range(k):
            mps.tebd_step(single, gates)
        for obs in (mps.SIGMA_Z, mps.SIGMA_X):
            assert abs(mps.measure(merged, 0, obs)
                       - mps.measure(single, 0, obs)) < 1e-12

    def test_sites_beyond_front_untouched(self, chain):
        cfg = EvolutionConfig(t_max=T_SHORT, d_b=4, chi_max=16, mode="FULL")
        gates = mps.build_gates(chain, DELTA, cfg)
        st = mps.init_state(chain, cfg, "excited")
        before = list(st.site_tensors)
        mps.tebd_step(st, gates)
        # one step reaches site 3 (bonds 0, 1, 2 in that order)
        assert all(st.site_tensors[i] is not before[i] for i in range(4))
        assert all(st.site_tensors[i] is before[i]
                   for i in range(4, st.n_sites))

    @pytest.mark.parametrize("amp,skipped", [(1e-8, False), (1e-25, True)])
    def test_skip_bound_is_relative_to_threshold_squared(self, chain, amp,
                                                         skipped):
        # far ahead of the front: only the excited amplitude decides
        site = 10
        cfg = EvolutionConfig(t_max=T_SHORT, d_b=4, chi_max=16, mode="FULL")
        gates = mps.build_gates(chain, DELTA, cfg)
        st = mps.init_state(chain, cfg, "excited")
        B = st.site_tensors[site].copy()
        B[0, 1, 0] = amp
        st.site_tensors[site] = B
        mps.tebd_step(st, gates)
        assert (st.site_tensors[site] is B) == skipped


def strang_on_vector(gates, psi, steps):
    """``steps`` Strang steps of ``gates`` applied to a full state vector."""
    odd = [U if j % 2 else None for j, U in enumerate(gates.full)]
    for _ in range(steps):
        for layer in (gates.half, odd, gates.half):
            for j, U in enumerate(layer):
                if U is not None:
                    psi = np.moveaxis(np.tensordot(U, psi, axes=([2, 3], [j, j + 1])),
                                      (0, 1), (j, j + 1))
    return psi


class TestParityBlocks:
    @pytest.mark.parametrize("atom_state", ["excited", "plus_superposition"])
    def test_tensors_vanish_outside_parity_blocks(self, chain, atom_state):
        cfg = EvolutionConfig(t_max=T_SHORT, d_b=4, chi_max=16, mode="FULL")
        gates = mps.build_gates(chain, DELTA, cfg)
        st = mps.init_state(chain, cfg, atom_state)
        mps.tebd_step(st, gates, 60)
        assert st.max_bond > 2
        for i, B in enumerate(st.site_tensors):
            # odd[-1] is the left edge, odd[N] the right edge
            off = (bond_parities(st, i - 1, B.shape[0])[:, None, None]
                   + np.arange(B.shape[1])[:, None]
                   + bond_parities(st, i, B.shape[2])) % 2 == 1
            assert np.all(B[off] == 0.0)
            assert np.any(B[~off] != 0.0)

    @pytest.mark.parametrize("mode,atom_state", [
        ("FULL", "excited"), ("FULL", "plus_superposition"),
        ("RWA", "plus_superposition")])
    def test_matches_state_vector(self, mode, atom_state):
        d_b = 4
        c4 = map_to_chain(reduced(), 4)
        # nothing is truncated: chi_max exceeds every bond's full rank, and
        # the threshold keeps every nonzero Schmidt value
        cfg = EvolutionConfig(t_max=T_SHORT, d_b=d_b, chi_max=64,
                              svd_threshold=1e-300, mode=mode)
        gates = mps.build_gates(c4, DELTA, cfg)
        st = mps.init_state(c4, cfg, atom_state)
        psi = np.zeros((2,) + (d_b,) * c4.N, dtype=complex)
        psi[(slice(None),) + (0,) * c4.N] = {
            "excited": [0.0, 1.0], "plus_superposition": [0.5**0.5, 0.5**0.5]}[atom_state]
        for _ in range(5):
            mps.tebd_step(st, gates, 40)
            psi = strang_on_vector(gates, psi, 40)
            for op in (mps.SIGMA_X, mps.SIGMA_Y, mps.SIGMA_Z):
                exact = np.vdot(psi, np.tensordot(op, psi, axes=(1, 0)))
                assert abs(mps.measure(st, 0, op) - exact) < 1e-12
                ops = [op] + [np.eye(d_b)] * c4.N
                assert abs(mps._product_expectation(st, ops) - exact) < 1e-12
        assert st.cumulative_discarded_weight == 0.0

    def test_parity_changing_chain_operator_needs_one_sector(self, chain):
        cfg = EvolutionConfig(t_max=T_SHORT, d_b=4, mode="FULL")
        x = np.diag(np.sqrt(np.arange(1.0, 4.0)), k=1)
        x = x + x.T  # a + a^dag
        plus = mps.init_state(chain, cfg, "plus_superposition")
        with pytest.raises(ValueError, match="parity"):
            mps.measure(plus, 1, x)
        with pytest.raises(ValueError, match="parity"):
            measure_bond(plus, 1, np.kron(x, np.eye(4)))
        excited = mps.init_state(chain, cfg, "excited")
        assert mps.measure(excited, 1, x) == 0.0
        # site 0 carries head, so emitter operators of either parity are exact
        assert measure_bond(plus, 0, np.kron(mps.SIGMA_X, np.eye(4))) == \
            pytest.approx(1.0, abs=1e-14)


def contract_site_by_site(state, ops):
    """<O_0 x ... x O_N> contracted one site at a time, no tail shortcut."""
    env = np.outer(state.head, state.head.conj())
    for B, op in zip(state.site_tensors, ops):
        env = np.einsum("ab,asc,ts,btd->cd", env, B, op, B.conj())
    return env[0, 0]


class TestLeanGate:
    def test_bonds_sorted_by_charge_then_descending(self, chain):
        cfg = EvolutionConfig(t_max=T_SHORT, d_b=4, chi_max=16, mode="FULL")
        gates = mps.build_gates(chain, DELTA, cfg)
        st = mps.init_state(chain, cfg, "plus_superposition")
        mps.tebd_step(st, gates, 60)
        assert st.max_bond > 2
        for j, lam in enumerate(st.lambdas):
            assert 0 <= st.odd[j] <= lam.size
            q = bond_parities(st, j, lam.size)
            for p in (0, 1):
                assert np.all(np.diff(lam[q == p]) <= 0.0)

    def test_gate_and_svd_counts_at_benchmark_corner(self, monkeypatch):
        # the FULL corner of the tebd-full benchmark workload
        p = reduced()
        c = map_to_chain(p, chain_length_for(p, 0.15))
        assert c.N == 58
        counts = {"gates": 0, "svds": 0}
        apply_gate, svd = mps._apply_gate, np.linalg.svd

        def counted_gate(*args, **kwargs):
            counts["gates"] += 1
            return apply_gate(*args, **kwargs)

        def counted_svd(*args, **kwargs):
            counts["svds"] += 1
            return svd(*args, **kwargs)

        monkeypatch.setattr(mps, "_apply_gate", counted_gate)
        monkeypatch.setattr(np.linalg, "svd", counted_svd)
        cfg = EvolutionConfig(t_max=0.15, d_b=4, chi_max=32, mode="FULL")
        mps.evolve(c, cfg, "excited", DELTA)
        assert counts == {"gates": 4999, "svds": 9998}

    def test_front_is_found_again_per_call(self, chain):
        cfg = EvolutionConfig(t_max=T_SHORT, d_b=4, chi_max=16, mode="FULL")
        gates = mps.build_gates(chain, DELTA, cfg)
        st = mps.init_state(chain, cfg, "excited")
        mps.tebd_step(st, gates)
        site = 20
        assert st.site_tensors[site].shape == (1, 4, 1)
        B = st.site_tensors[site].copy()
        B[0, 2, 0] = 1e-8  # far past the front, and no longer near vacuum
        st.site_tensors[site] = B
        mps.tebd_step(st, gates)
        assert st.site_tensors[site] is not B

    def test_short_full_run_matches_frozen_values(self, chain):
        # sigma_x, sigma_z of the parity-blocked gate before its sectors were
        # sorted; the run truncates (max bond reaches chi_max = 16)
        cfg = EvolutionConfig(t_max=0.06, d_b=4, chi_max=16, sample_stride=40,
                              mode="FULL")
        ts = mps.evolve(chain, cfg, "plus_superposition", DELTA)
        assert ts.max_bond[-1] == 16
        np.testing.assert_allclose(ts.sigma_x, [
            0.9999999999999998, 0.9983832198122965, 0.9935909626358289,
            0.9857743980885527, 0.9843531157024613], rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(ts.sigma_z, [
            0.0, -9.117643592060354e-05, -0.0012127341614909803,
            -0.0046994461590730285, -0.005465105162008654], rtol=0.0, atol=1e-12)

    def test_product_expectation_tail_matches_site_by_site(self, chain):
        cfg = EvolutionConfig(t_max=T_SHORT, d_b=4, chi_max=16, mode="FULL")
        gates = mps.build_gates(chain, DELTA, cfg)
        st = mps.init_state(chain, cfg, "plus_superposition")
        mps.tebd_step(st, gates, 5)
        assert st.head.size == 2
        rng = np.random.default_rng(3)
        tail = [i for i, B in enumerate(st.site_tensors)
                if B.shape[0] == B.shape[2] == 1]
        assert len(tail) > 20
        for i in tail:
            # even chain parity, as the parities of a chi = 1 bond require
            b = np.zeros(4, dtype=complex)
            b[::2] = rng.normal(size=2) + 1j * rng.normal(size=2)
            st.site_tensors[i] = (b / np.linalg.norm(b)).reshape(1, 4, 1)
        # near-identity factors keep the product of 60 tail scalars O(1)
        ops = [mps.SIGMA_X] + [np.diag(1.0 + 0.05 * rng.normal(size=4))
                               + 0.05j * np.eye(4, k=2) for _ in range(chain.N)]
        exact = contract_site_by_site(st, ops)
        assert abs(exact) > 0.1
        assert abs(mps._product_expectation(st, ops) - exact) < 1e-14


class TestTruncationSafeguards:
    def test_explosion_raises(self, chain):
        rng = np.random.default_rng(7)
        d_b = 12
        st = random_canonical_state(d_b, rng)
        c2 = map_to_chain(reduced(), 2)
        cfg = EvolutionConfig(t_max=0.1, d_b=d_b, chi_max=8, mode="FULL")
        gates = mps.build_gates(c2, DELTA, cfg)
        with pytest.raises(RuntimeError, match="truncation explosion"):
            mps.tebd_step(st, gates)

    def test_explosion_raises_in_merged_steps(self):
        # the check runs per step: the merged call raises in step 1, having
        # applied exactly the gates of that step
        rng = np.random.default_rng(7)
        d_b = 12
        c2 = map_to_chain(reduced(), 2)
        cfg = EvolutionConfig(t_max=0.1, d_b=d_b, chi_max=8, mode="FULL")
        gates = mps.build_gates(c2, DELTA, cfg)
        single = random_canonical_state(d_b, rng)
        merged = MPSState(list(single.site_tensors), list(single.lambdas),
                          list(single.odd), single.head)
        with pytest.raises(RuntimeError, match="truncation explosion"):
            mps.tebd_step(single, gates)
        with pytest.raises(RuntimeError, match="truncation explosion"):
            mps.tebd_step(merged, gates, 5)
        assert (merged.cumulative_discarded_weight
                == single.cumulative_discarded_weight)

    def test_top_fock_negligible_at_default_depth(self, chain):
        cfg = EvolutionConfig(t_max=T_SHORT, d_b=6, chi_max=32, mode="FULL")
        gates = mps.build_gates(chain, DELTA, cfg)
        st = mps.init_state(chain, cfg, "excited")
        for _ in range(int(round(T_SHORT / gates.dt))):
            mps.tebd_step(st, gates)
        assert top_fock_occupation(st) < 1e-6

    def test_top_fock_empty_in_rwa(self, chain):
        cfg = EvolutionConfig(t_max=T_SHORT, d_b=3, chi_max=16, mode="RWA")
        gates = mps.build_gates(chain, DELTA, cfg)
        st = mps.init_state(chain, cfg, "excited")
        for _ in range(200):
            mps.tebd_step(st, gates)
        assert top_fock_occupation(st) < 1e-12


class TestMeasurement:
    def test_mixed_canonical_matches_full_contraction(self, chain):
        # the cheap single-site estimator must agree with the exact
        # whole-chain contraction once the state is entangled
        cfg = EvolutionConfig(t_max=T_SHORT, d_b=4, chi_max=16, mode="FULL")
        gates = mps.build_gates(chain, DELTA, cfg)
        st = mps.init_state(chain, cfg, "excited")
        for _ in range(60):
            mps.tebd_step(st, gates)
        ops = [np.eye(2, dtype=complex)] + [
            np.eye(st.site_tensors[i].shape[1], dtype=complex)
            for i in range(1, st.n_sites)
        ]
        ops[0] = mps.SIGMA_Z
        full = mps._product_expectation(st, ops)
        assert mps.measure(st, 0, mps.SIGMA_Z) == pytest.approx(full, abs=1e-10)

    def test_initial_energy_is_emitter_splitting(self, chain):
        cfg = EvolutionConfig(t_max=T_SHORT, d_b=4, chi_max=16, mode="FULL")
        st = mps.init_state(chain, cfg, "excited")
        assert total_energy(st, chain, DELTA, cfg) == pytest.approx(DELTA, abs=1e-12)

    def test_measure_bond_on_product_state(self, chain):
        cfg = EvolutionConfig(t_max=T_SHORT, d_b=4, chi_max=16, mode="FULL")
        st = mps.init_state(chain, cfg, "excited")
        op = np.kron(mps.SIGMA_Z, np.diag(np.arange(4.0) + 1.0))
        # <e,0| sz (n+1) |e,0> = (+1)(1)
        assert measure_bond(st, 0, op) == pytest.approx(1.0, abs=1e-14)


class TestEvolve:
    def test_sample_grid(self, rwa_run):
        assert rwa_run.times[0] == 0.0
        assert rwa_run.times[-1] == pytest.approx(T_SHORT, abs=2 * rwa_run.dt)
        assert np.all(np.diff(rwa_run.times) > 0)
        assert rwa_run.dt > 0

    def test_pop_excited_property(self, chain, rwa_run):
        assert rwa_run.pop_excited[0] == pytest.approx(1.0, abs=1e-12)
        # one emitter level prepared: its branch is the whole state, bit
        # for bit (the FULL runs truncate at max bond 16)
        for mode, d_b in (("RWA", 2), ("FULL", 4)):
            cfg = EvolutionConfig(t_max=0.06, d_b=d_b, chi_max=16,
                                  sample_stride=40, mode=mode)
            for atom_state in ("excited", "ground"):
                ts = mps.evolve(chain, cfg, atom_state, DELTA)
                assert np.array_equal(ts.pop_excited,
                                      0.5 * (1.0 + ts.sigma_z.real))

    @pytest.mark.parametrize("mode,d_b", [("RWA", 2), ("FULL", 4)])
    def test_superposition_branch_is_the_excited_run(self, mode, d_b):
        # the tebd-full corner; in RWA the |g> branch is inert, in FULL it
        # evolves apart, and each branch alone is an excited run
        p = reduced()
        c = map_to_chain(p, chain_length_for(p, 0.15))
        cfg = EvolutionConfig(t_max=0.15, d_b=d_b, chi_max=32, mode=mode)
        plus = mps.evolve(c, cfg, "plus_superposition", DELTA)
        excited = mps.evolve(c, cfg, "excited", DELTA)
        assert np.array_equal(plus.times, excited.times)
        assert np.max(np.abs(plus.pop_excited - excited.pop_excited)) < 1e-9
        # the superposition's own sigma_z is not the branch's
        assert np.max(np.abs(plus.pop_excited
                             - 0.5 * (1.0 + plus.sigma_z.real))) > 0.1

    def test_tail_flag_fires_when_chain_too_short(self):
        p = reduced()
        c_short = map_to_chain(p, 12)
        cfg = EvolutionConfig(t_max=1.5, d_b=2, chi_max=16, sample_stride=50,
                              mode="RWA")
        ts = mps.evolve(c_short, cfg, "excited", DELTA)
        assert ts.flags.any()
        assert ts.tail_occupation.max() > 1e-6
        # flag turns on only after the wavefront arrives
        assert not ts.flags[0]

    def test_long_enough_chain_unflagged(self, rwa_run):
        assert not rwa_run.flags.any()
        assert rwa_run.tail_occupation.max() < 1e-6

    def test_default_delta_is_zero(self, chain):
        cfg = EvolutionConfig(t_max=0.05, d_b=2, chi_max=16, mode="RWA")
        ts = mps.evolve(chain, cfg, "ground")
        # ground state with delta = 0 is a true eigenstate: nothing moves
        assert np.max(np.abs(ts.sigma_z.real + 1.0)) < 1e-12
        assert np.max(np.abs(ts.conserved_charge)) < 1e-12

    def test_convergence_report(self, chain):
        cfg = EvolutionConfig(t_max=0.15, d_b=2, chi_max=16, sample_stride=25,
                              mode="RWA")
        rep = convergence_report(chain, cfg, "excited", DELTA)
        assert set(rep) == {"chi_max", "d_b", "dt", "converged"}
        assert rep["converged"]
        assert all(rep[k] < 5e-3 for k in ("chi_max", "d_b", "dt"))
