"""Matrix-product-state TEBD for the emitter coupled to the mapped chain.

Site 0 is the two-level emitter (basis |g>, |e>, sigma_z = diag(-1, +1));
sites 1..N are chain bosons truncated to d_b Fock levels.  Time evolution
is second-order Trotter (Strang: half step on even bonds, full step on
odd bonds, half step on even bonds) with two-site gates.  Between two
samples, k steps run as E/2 (O E)^(k-1) O E/2: the trailing even half
step of one step and the leading one of the next are a single full even
gate (the square of the half gate), so k steps cost 2k + 1 gate layers
instead of 3k.  Truncations add their discarded weight to one ledger,
cumulative_discarded_weight; each sample's norm drift is its increase.

A gate on bond j is skipped when j >= front, the first site of the chain's
near-vacuum tail (bond dimension 1 on both sides, excited amplitudes at
most svd_threshold**2 times the vacuum one).  Such a pair is a|00> + r,
and H_j|00> = 0 on every chain bond in both coupling modes, so skipping
the gate moves the state by at most 2||r|| (about 1e-20 at the default
threshold, against ~1e-10 that a single truncation may discard).
tebd_step finds the front per call; a layer moves it by one site at most,
so only sites front and front - 1 are tested again.  Past the front each
site's factor of the joint parity is a scalar; one einsum takes them all.

The state is kept in right-canonical form with the bond Schmidt spectra
stored alongside (Hastings' update: the new left tensor is obtained by
contracting the gated two-site block with the new right isometry, so no
singular value is ever divided by).  Both modes conserve the parity
sum_i s_i mod 2; each bond sorts its Schmidt vectors by that parity of the
sites to its right, even sector first and each descending, so its odd-sector
size fixes both parity blocks of each gate's SVD (Singh, Pfeifer & Vidal,
PRA 83, 115125 (2011)).  Site 0's left index holds one parity sector of the
initial state per value, with amplitudes ``head``.  Observables are evaluated
in mixed canonical form: the left environment of site j is
diag(lambda_{j-1}^2); site 0 takes head.

Coupling modes:
  RWA  : g (sigma^+ a_0 + sigma^- a_0^dag); conserves total excitation
         number, so d_b = 2 is exact in the single-excitation sector.
  FULL : g sigma_x (a_0 + a_0^dag); conserves only the joint parity
         sigma_z (-1)^(sum n_k), and needs d_b >= 4.
"""

import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .chainmap import ChainCoefficients

__all__ = [
    "EvolutionConfig",
    "MPSState",
    "Gates",
    "TimeSeries",
    "init_state",
    "build_gates",
    "tebd_step",
    "evolve",
    "measure",
]

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[-1.0, 0.0], [0.0, 1.0]], dtype=complex)


def _number(d):
    """Number operator on a site of d levels (|e><e| on the emitter)."""
    return np.diag(np.arange(d, dtype=complex))


@dataclass
class EvolutionConfig:
    """TEBD run parameters.

    dt = None selects 0.05 / (largest on-site energy scale of the built
    gates); the hard cap dt * max_onsite <= 0.5 is enforced when gates
    are built.  svd_threshold is the relative Schmidt-value cutoff of
    each truncation; svd_threshold**2 also bounds the excited amplitudes
    of a chain pair whose gate is skipped as vacuum.  In either mode,
    measure takes any operator matrix on the emitter, but only
    parity-preserving ones on a chain site of a two-parity state.
    """

    t_max: float
    dt: float | None = None
    d_b: int = 6
    chi_max: int = 64
    svd_threshold: float = 1e-10
    sample_stride: int = 10
    mode: str = "RWA"

    def __post_init__(self):
        if self.mode not in ("RWA", "FULL"):
            raise ValueError(f"mode must be RWA or FULL, got {self.mode!r}")
        floor = 2 if self.mode == "RWA" else 4
        if self.d_b < floor:
            raise ValueError(f"d_b >= {floor} required in {self.mode} mode")
        if self.chi_max < 8:
            raise ValueError("chi_max >= 8 required")
        if not 0.0 < self.svd_threshold <= 1e-6:
            raise ValueError("svd_threshold must lie in (0, 1e-6]")
        if self.t_max <= 0.0:
            raise ValueError("t_max must be positive")
        if self.dt is not None and self.dt <= 0.0:
            raise ValueError("dt must be positive")
        if self.sample_stride < 1:
            raise ValueError("sample_stride >= 1 required")


@dataclass
class MPSState:
    """Right-canonical MPS with stored bond spectra and parity sectors.

    site_tensors[i] has shape (chi_left, d_i, chi_right); lambdas[j]
    holds the Schmidt values of bond (j, j+1), even parity of sites j+1..N
    first, each sector descending; odd[j] counts the odd ones (odd[N] = 0,
    odd[-1] those of head); cumulative_discarded_weight sums all
    truncations' discarded weight.
    """

    site_tensors: list
    lambdas: list
    odd: list
    head: np.ndarray
    cumulative_discarded_weight: float = 0.0

    @property
    def n_sites(self):
        return len(self.site_tensors)

    @property
    def max_bond(self):
        return max((lam.size for lam in self.lambdas), default=1)


def init_state(c: ChainCoefficients, cfg: EvolutionConfig, atom_state="excited"):
    """Product state: emitter in the requested state, chain in vacuum;
    each emitter level present is one sector of site 0's left index."""
    pures = {
        "ground": np.array([1.0, 0.0], dtype=complex),
        "excited": np.array([0.0, 1.0], dtype=complex),
        "plus_superposition": np.array([1.0, 1.0], dtype=complex) / math.sqrt(2.0),
    }
    if atom_state not in pures:
        raise ValueError(f"unknown atom_state {atom_state!r}")
    sectors = np.flatnonzero(pures[atom_state])
    vac = np.eye(cfg.d_b, 1, dtype=complex).reshape(1, cfg.d_b, 1)
    tensors = [np.eye(2, dtype=complex)[sectors].reshape(-1, 2, 1)] + [vac] * c.N
    odd = [0] * (c.N + 1) + [int(sectors[-1])]
    return MPSState(tensors, [np.ones(1)] * c.N, odd, pures[atom_state][sectors])


@dataclass
class Gates:
    """Precomputed two-site Trotter gates."""

    half: list  # U = exp(-i H_j dt/2) on even bonds, None on odd ones
    full: list  # one dt per bond: U @ U on even bonds, exp(-i H_j dt) on odd
    dt: float
    chi_max: int
    svd_threshold: float


def _bond_hamiltonians(c: ChainCoefficients, delta, cfg):
    """Dense two-site H_j; on-site terms split half-half, boundaries whole."""
    d_b = cfg.d_b
    n = _number(d_b)
    a = np.diag(np.sqrt(np.arange(1, d_b, dtype=float)), k=1).astype(complex)
    ad = a.conj().T
    sp = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)  # |e><g|
    sm = sp.conj().T

    dims = [2] + [d_b] * c.N
    hams = []
    for j in range(c.N):  # bond (j, j+1)
        dl, dr = dims[j], dims[j + 1]
        il, ir = np.eye(dl, dtype=complex), np.eye(dr, dtype=complex)
        # left site on-site share: whole for the emitter (delta |e><e|;
        # site 0 touches only this bond), half for interior bosons
        h_left = delta * _number(2) if j == 0 else 0.5 * c.eps[j - 1] * n
        # right site: half share for interior bosons, whole for the last
        h_right = (0.5 if j + 1 < c.N else 1.0) * c.eps[j] * n
        h = np.kron(h_left, ir) + np.kron(il, h_right)
        if j == 0:
            if cfg.mode == "RWA":
                h = h + c.g * (np.kron(sp, a) + np.kron(sm, ad))
            else:
                h = h + c.g * np.kron(SIGMA_X, a + ad)
        else:
            h = h + c.t[j - 1] * (np.kron(ad, a) + np.kron(a, ad))
        hams.append(h)
    return hams, dims


def _propagator(h, tau):
    """e^{-i h tau} = V diag(e^{-i w tau}) V^dag of the Hermitian h = V diag(w) V^dag.

    h leaves the span of each connected component of its nonzero pattern
    invariant, so every entry of the gate between two components is set to
    exactly zero (one ``eigh`` of all of h leaves rounding there), and a
    component of one state gets its phase e^{-i h_ii tau} exactly: the
    parity blocks that the SVDs of ``_apply_gate`` rely on stay exact, and
    so does the vacuum pair, which H|00> = 0 leaves alone.
    """
    reach = (h != 0) | np.eye(len(h), dtype=bool)
    for _ in range(len(h).bit_length()):  # transitive closure by squaring
        reach = (reach.astype(int) @ reach.astype(int)) > 0
    w, v = np.linalg.eigh(h)
    u = np.where(reach, (v * np.exp(-1j * tau * w)) @ v.conj().T, 0.0)
    lone = np.flatnonzero(reach.sum(axis=1) == 1)
    u[lone, lone] = np.exp(-1j * tau * h[lone, lone])
    return u


def build_gates(c: ChainCoefficients, delta, cfg: EvolutionConfig) -> Gates:
    """Exponentiate the bond Hamiltonians into Strang-splitting gates
    (``_propagator``); an even bond's full gate is its half gate squared."""
    if c.N < 1:
        raise ValueError("need at least one chain site")
    hams, dims = _bond_hamiltonians(c, delta, cfg)
    max_onsite = max(abs(delta), float(np.max(c.eps)) + 2.0 * (float(np.max(c.t)) if c.N > 1 else 0.0))
    dt = cfg.dt if cfg.dt is not None else 0.05 / max_onsite
    if dt * max_onsite > 0.5:
        raise ValueError(
            f"dt = {dt:g} too coarse: dt * max onsite energy = "
            f"{dt * max_onsite:.3g} > 0.5"
        )
    half = [None] * c.N
    full = [None] * c.N
    for j, h in enumerate(hams):
        shape = (dims[j], dims[j + 1], dims[j], dims[j + 1])
        if j % 2 == 0:
            u = _propagator(h, 0.5 * dt)
            half[j] = u.reshape(shape)
            full[j] = (u @ u).reshape(shape)
        else:
            full[j] = _propagator(h, dt).reshape(shape)
    return Gates(half, full, dt, cfg.chi_max, cfg.svd_threshold)


@lru_cache(maxsize=256)
def _sectors(odd, chi, d, bond_first):
    """Positions of each block parity (of sites j+1..N) along theta's flat
    (bond, site) index pair, or (site, bond) unless bond_first, beside a
    sorted bond with ``odd`` odd vectors."""
    q = (np.arange(chi) >= chi - odd)[:, None] + np.arange(d)
    q = (q if bond_first else q.T).ravel() % 2
    return np.flatnonzero(q == 0), np.flatnonzero(q == 1)


def _apply_gate(state: MPSState, j, U, chi_max, svd_threshold):
    """Gate on bond (j, j+1): parity-blocked SVD, Hastings' update."""
    B1, B2 = state.site_tensors[j], state.site_tensors[j + 1]
    chi_l, dl, _ = B1.shape
    _, dr, chi_r = B2.shape
    # theta_bare excludes the left bond spectrum; gates act on physical
    # indices only, so the spectrum can be attached afterwards
    theta_bare = B1.reshape(chi_l * dl, -1) @ B2.reshape(B2.shape[0], -1)
    theta_bare = U.reshape(dl * dr, dl * dr) @ theta_bare.reshape(chi_l, dl * dr, chi_r)
    left = state.lambdas[j - 1] if j else np.abs(state.head)
    mat = (left[:, None, None] * theta_bare).reshape(chi_l * dl, dr * chi_r)
    # rows (a, s) and columns (t, c) by the parity of sites j+1..N; the
    # outer bonds are sorted, so their odd-sector sizes fix both blocks
    rows = _sectors(state.odd[j - 1], chi_l, dl, True)
    cols = _sectors(state.odd[j + 1], chi_r, dr, False)
    _, s0, v0 = np.linalg.svd(mat[rows[0][:, None], cols[0]], full_matrices=False)
    _, s1, v1 = np.linalg.svd(mat[rows[1][:, None], cols[1]], full_matrices=False)
    s = np.concatenate([s0, s1])
    keep = min(chi_max, int(np.count_nonzero(s >= svd_threshold * s.max())))
    # each sector is descending, so the kept set is a prefix of each
    k0 = int(np.count_nonzero(np.argsort(-s, kind="stable")[:keep] < s0.size))
    s_kept = np.concatenate([s0[:k0], s1[:keep - k0]])
    kept = float(s_kept @ s_kept)
    discarded = max(0.0, 1.0 - kept / float(s @ s))
    B2_new = np.zeros((keep, dr * chi_r), dtype=complex)
    B2_new[:k0, cols[0]], B2_new[k0:, cols[1]] = v0[:k0], v1[:keep - k0]
    # division-free left update: contract the bare block with the new
    # right isometry instead of peeling lambda back off
    B1_new = theta_bare.reshape(chi_l * dl, -1) @ B2_new.conj().T
    state.site_tensors[j] = B1_new.reshape(chi_l, dl, keep)
    state.site_tensors[j + 1] = B2_new.reshape(keep, dr, chi_r)
    state.lambdas[j] = s_kept / math.sqrt(kept)
    state.odd[j] = keep - k0
    return discarded


def _near_vacuum(B, tol):
    """Bond dimension 1 on both sides, excited amplitudes <= tol |B[0,0,0]|."""
    return (B.shape[0] == 1 and B.shape[2] == 1
            and np.abs(B[0, 1:, 0]).max() <= tol * abs(B[0, 0, 0]))


def _layers(gates: Gates, steps):
    """Gate layers of ``steps`` Strang steps with the inner even half steps
    merged, as (gates, first bond, closes a step)."""
    yield gates.half, 0, False
    for k in range(1, steps + 1):
        yield gates.full, 1, False
        yield (gates.full if k < steps else gates.half), 0, True


def tebd_step(state: MPSState, gates: Gates, steps=1):
    """``steps`` Strang steps, run as E/2 (O E)^(steps-1) O E/2.

    Adds each gate's discarded weight to cumulative_discarded_weight.  The
    truncation-explosion check runs after every step, so it raises in the
    step where the explosion happens.
    """
    tol = gates.svd_threshold ** 2
    tensors = state.site_tensors
    n_bonds = len(tensors) - 1
    # found per call: sites may be set by hand between calls
    front = n_bonds + 1
    while front > 1 and _near_vacuum(tensors[front - 1], tol):
        front -= 1
    step_worst = 0.0
    for layer, first, closes_step in _layers(gates, steps):
        for j in range(first, min(front, n_bonds), 2):
            w = _apply_gate(state, j, layer[j], gates.chi_max, gates.svd_threshold)
            step_worst = max(step_worst, w)
            state.cumulative_discarded_weight += w
        # a layer gates no bond past the front, so it moves by one at most
        if front <= n_bonds and not _near_vacuum(tensors[front], tol):
            front += 1
        elif front > 1 and _near_vacuum(tensors[front - 1], tol):
            front -= 1
        if closes_step:
            if step_worst > 1e-3:
                raise RuntimeError(
                    f"truncation explosion: a single gate discarded weight "
                    f"{step_worst:.2e} (> 1e-3); raise chi_max or lower dt"
                )
            step_worst = 0.0


def _left_env(state: MPSState, j, op, dims):
    """(left weights, B_j) for <op> on sites j, j+1, ...; diag(lambda^2)
    drops the terms between two sectors, so head is contracted into site 0
    and an op on a chain site of a two-sector state must keep parity."""
    if j == 0:
        return np.ones(1), np.tensordot(state.head, state.site_tensors[0], 1)[None]
    q = np.indices(dims).sum(axis=0).ravel() % 2
    if state.head.size > 1 and np.any(np.asarray(op)[q[:, None] != q]):
        raise ValueError("parity-changing operator on a chain site of a two-sector state")
    return state.lambdas[j - 1] ** 2, state.site_tensors[j]


def measure(state: MPSState, site, observable):
    """<O> at one site, in mixed-canonical form.

    observable: a (d, d) matrix on that site, such as SIGMA_X, SIGMA_Y or
    SIGMA_Z on the emitter or _number(d) on a boson.  A chain site of a
    two-sector state takes only parity-preserving ones (ValueError).
    """
    op = np.asarray(observable, dtype=complex)
    w, B = _left_env(state, site, op, op.shape[:1])
    # rho[s, s'] = sum_a w_a B[a,s,b] conj(B[a,s',b]) = (psi psi*)[s, s']
    rho = np.tensordot(w[:, None, None] * B, B.conj(), axes=([0, 2], [0, 2]))
    return complex(np.trace(op @ rho))


def _product_expectation(state: MPSState, ops):
    """<O_0 x O_1 x ... x O_N> for one single-site operator per site; past
    the front each site's factor is the scalar <b|O|b>, all in one einsum."""
    tail = state.n_sites
    while tail > 1 and state.site_tensors[tail - 1].shape[::2] == (1, 1):
        tail -= 1
    env = np.outer(state.head, state.head.conj())
    for B, op in zip(state.site_tensors[:tail], ops[:tail]):
        tmp = np.tensordot(env, B, axes=(0, 0))  # (a', s, b)
        tmp = np.tensordot(np.asarray(op, dtype=complex), tmp, axes=(1, 1))  # (s', a', b)
        env = np.tensordot(B.conj(), tmp, axes=([0, 1], [1, 0]))  # (b', b) -> stored (b', b)
        env = env.T  # keep (ket, bra) ordering
    if tail < state.n_sites:
        b = np.array(state.site_tensors[tail:])[:, 0, :, 0]
        ops = np.array(ops[tail:], dtype=complex)
        env = env * np.prod(np.einsum("ns,nst,nt->n", b.conj(), ops, b))
    return complex(env[0, 0])


def conserved_charge(state: MPSState, mode):
    """Total excitation number (RWA) or joint parity (FULL)."""
    if mode == "RWA":  # the emitter's number operator is |e><e|
        total = 0.0
        for site, B in enumerate(state.site_tensors):
            total += measure(state, site, _number(B.shape[1])).real
        return total
    ops = [SIGMA_Z] + [np.diag((-1.0) ** np.arange(B.shape[1])) for B in state.site_tensors[1:]]
    return _product_expectation(state, ops).real


@dataclass
class TimeSeries:
    """Sampled emitter observables and run health metrics.  pop_excited is
    0.5 (1 + <sigma_z>) of the last branch of site 0's left index alone:
    the |e> branch of a preparation holding |e>, the whole state of an
    excited or ground run."""

    times: np.ndarray
    sigma_x: np.ndarray
    sigma_y: np.ndarray
    sigma_z: np.ndarray
    pop_excited: np.ndarray
    norm_drift: np.ndarray  # increase of discarded_weight since the previous sample
    max_bond: np.ndarray
    discarded_weight: np.ndarray  # cumulative
    conserved_charge: np.ndarray  # excitation number (RWA) or parity (FULL)
    tail_occupation: np.ndarray
    flags: np.ndarray  # True where the light-cone tail bound failed
    dt: float  # actual step used (resolves a dt=None config)


def evolve(c: ChainCoefficients, cfg: EvolutionConfig, atom_state="excited",
           delta=0.0) -> TimeSeries:
    """Run TEBD and sample emitter observables every sample_stride steps.

    The emitter splitting enters through ``delta`` (the chain carries no
    emitter energy of its own).  Samples where the last-site occupation
    exceeds 1e-6 are flagged: beyond that point the finite chain no
    longer emulates the infinite band.
    """
    gates = build_gates(c, delta, cfg)
    state = init_state(c, cfg, atom_state)
    n_steps = max(1, int(round(cfg.t_max / gates.dt)))
    last = np.eye(state.head.size, dtype=complex)[-1]  # the last branch alone
    rows = []

    def sample(step):  # one row, keyed by TimeSeries field
        tail = measure(state, state.n_sites - 1, _number(cfg.d_b)).real
        rows.append(dict(
            times=step * gates.dt,
            sigma_x=measure(state, 0, SIGMA_X),
            sigma_y=measure(state, 0, SIGMA_Y),
            sigma_z=measure(state, 0, SIGMA_Z),
            pop_excited=0.5 * (1.0 + measure(replace(state, head=last), 0, SIGMA_Z).real),
            max_bond=state.max_bond,
            discarded_weight=state.cumulative_discarded_weight,
            conserved_charge=conserved_charge(state, cfg.mode),
            tail_occupation=tail,
            flags=tail >= 1e-6,
        ))

    sample(0)
    for start in range(0, n_steps, cfg.sample_stride):
        stop = min(start + cfg.sample_stride, n_steps)
        tebd_step(state, gates, stop - start)
        sample(stop)
    cols = {k: np.array([row[k] for row in rows]) for k in rows[0]}
    return TimeSeries(**cols, norm_drift=np.diff(cols["discarded_weight"], prepend=0.0),
                      dt=gates.dt)

