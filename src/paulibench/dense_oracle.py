"""Brute-force dense linear-algebra reference (registers capped at 6 qubits).

Everything here works on explicit complex matrices and never touches the
bit-level fast path (no transform, sampler or syndrome code), so agreement
between the two is meaningful evidence.  The 4^n Pauli matrices are built
once per qubit count (cached up to CACHED_STACK_QUBITS) and indexed by
label; rank-one projectors (Bell states, stabilizer states of a maximal
group, pure inputs) are contracted as state vectors, not as matrices.
Covered checks:

* exact outcome distributions of the estimation round (Bell tensor
  stabilizer measurement after the channel),
* the mutual-information bound for the adversarial two-eigenvalue channel
  family under arbitrary pure-input / rank-1-POVM strategies,
* Choi states and teleportation stretching (channel application via Bell
  measurement plus Pauli correction),
* exact benchmarking expectations E[F(m)] for general (non-Pauli) gate
  noise and general SPAM, against the closed form A_a lambda_a^m,
* the law of the benchmarking outcome z under Pauli noise, by explicit
  XOR-convolution of error-rate vectors rather than a transform.

Conventions: qubit 0 is the first kron factor.  Bell states on a register
pair (A, B) are |Psi_v> = (P_v x I)|Psi+>, giving the projector expansion
4^-k sum_u (-1)^<u,v> P_u x P_u^T.  Entropies are in nats.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .channels import PauliChannel
from .errors import CapabilityError, UsageError
from .pauli import symp
from .stabilizer import StabilizerGroup

MAX_REGISTER_QUBITS = 6
CACHED_STACK_QUBITS = 4  # 256 matrices of 16 x 16, 1 MB; n = 6 would be 268 MB
_TERMS_PER_CHUNK = 64
DENSITY_TOL = 1e-10
POVM_TOL = 1e-8

_PAULI_1Q = (
    np.eye(2, dtype=complex),
    np.array([[0, 1], [1, 0]], dtype=complex),          # X
    np.array([[1, 0], [0, -1]], dtype=complex),         # Z
    np.array([[0, -1j], [1j, 0]], dtype=complex),       # Y
)


def _check_qubits(d_qubits: int, what: str):
    if d_qubits > MAX_REGISTER_QUBITS:
        raise CapabilityError(
            f"{what} needs {d_qubits} qubits; dense oracle caps at "
            f"{MAX_REGISTER_QUBITS}"
        )


def _kron_stack(n: int) -> np.ndarray:
    """All 4^n Pauli matrices, read-only, one kron step per qubit for every
    label."""
    singles = np.stack(_PAULI_1Q)
    out = np.ones((1, 1, 1), dtype=complex)
    for q in range(n):
        # label a + 4^q d  <->  (matrix of a) x (qubit-q factor d)
        dim = 2 ** (q + 1)
        out = np.einsum("aij,dkl->daikjl", out, singles).reshape(4 * len(out),
                                                                 dim, dim)
    out.flags.writeable = False
    return out


_cached_stack = functools.lru_cache(maxsize=None)(_kron_stack)


def pauli_stack(n: int) -> np.ndarray:
    """All 4^n Pauli matrices, indexed by label, read-only.

    Built once per qubit count and cached for n <= CACHED_STACK_QUBITS;
    larger stacks (268 MB at n = 6) are built afresh on each call."""
    _check_qubits(n, "pauli_stack")
    return _cached_stack(n) if n <= CACHED_STACK_QUBITS else _kron_stack(n)


def pauli_matrix(bits: int, n: int) -> np.ndarray:
    """Hermitian matrix of the packed label (qubit 0 = first kron factor).

    A read-only view into the cached stack up to CACHED_STACK_QUBITS, a
    fresh kron product above it."""
    _check_qubits(n, "pauli_matrix")
    bits = int(bits)
    if bits < 0 or bits >> (2 * n):
        raise UsageError(f"label {bits:#x} out of range for n={n}")
    if n <= CACHED_STACK_QUBITS:
        return _cached_stack(n)[bits]
    out = np.eye(1, dtype=complex)
    for q in range(n):
        out = np.kron(out, _PAULI_1Q[(bits >> (2 * q)) & 3])
    return out


def _pauli_terms(ch: PauliChannel):
    """(error rates, Pauli matrices) of the nonzero rates of `ch`, in chunks
    of _TERMS_PER_CHUNK labels: 4 MB of matrices at 6 qubits."""
    if ch.is_sparse:
        labels = np.asarray(ch.support_labels).astype(np.int64)
        probs = ch.support_probs
    else:
        probs = ch.error_rates
        labels = np.arange(len(probs))
    keep = probs != 0.0
    labels, probs = labels[keep], probs[keep]
    for lo in range(0, len(labels), _TERMS_PER_CHUNK):
        part = labels[lo:lo + _TERMS_PER_CHUNK]
        if ch.n <= CACHED_STACK_QUBITS:
            mats = pauli_stack(ch.n)[part]
        else:
            mats = np.stack([pauli_matrix(a, ch.n) for a in part.tolist()])
        yield probs[lo:lo + _TERMS_PER_CHUNK], mats


def check_density(rho: np.ndarray, tol: float = DENSITY_TOL):
    """Assert positive semidefinite with unit trace."""
    if not np.allclose(rho, rho.conj().T, atol=tol):
        raise UsageError("density matrix is not Hermitian")
    if abs(np.trace(rho).real - 1.0) > tol:
        raise UsageError(f"trace is {np.trace(rho).real!r}, not 1")
    eigs = np.linalg.eigvalsh(rho)
    if eigs.min() < -tol:
        raise UsageError(f"negative eigenvalue {eigs.min():g}")


def bell_state_vectors(k: int) -> np.ndarray:
    """All 4^k Bell states |Psi_v> as rows."""
    _check_qubits(2 * k, "bell state")
    return pauli_stack(k).reshape(4**k, 4**k) / np.sqrt(2**k)


def build_bell(v: int, k: int) -> np.ndarray:
    """Projector onto |Psi_v> = (P_v x I)|Psi+> on a 2k-qubit register pair,
    whose vector is the row-major flattening of P_v / sqrt(2^k)."""
    _check_qubits(2 * k, "bell state")
    vec = pauli_matrix(v, k).ravel() / np.sqrt(2**k)
    return np.outer(vec, vec.conj())


def bell_projector_stack(k: int) -> np.ndarray:
    """All 4^k Bell projectors (an orthonormal, complete basis)."""
    vecs = bell_state_vectors(k)
    return np.einsum("vx,vy->vxy", vecs, vecs.conj())


def build_stabilizer_state(group: StabilizerGroup, e: int) -> np.ndarray:
    """Projector prod_j (I + (-1)^e_j P_gj) / 2 on m qubits."""
    m = group.m
    _check_qubits(m, "stabilizer state")
    out = eye = np.eye(2**m, dtype=complex)
    for j, g in enumerate(group.generators):
        sign = -1.0 if (e >> j) & 1 else 1.0
        out = out @ (eye + sign * pauli_matrix(g, m)) / 2.0
    return out


def stabilizer_state_vectors(group: StabilizerGroup) -> np.ndarray:
    """Rows |S_e>, e < 2^m, spanning the rank-one projectors of
    `build_stabilizer_state` (m independent generators on m qubits).

    |S_e> is the projector's largest column over the root of its diagonal
    entry, so its global phase is arbitrary."""
    projs = np.stack([build_stabilizer_state(group, e)
                      for e in range(2**group.m)])
    rows = np.arange(len(projs))
    pivot = np.argmax(np.diagonal(projs, axis1=1, axis2=2).real, axis=1)
    return projs[rows, :, pivot] / np.sqrt(projs[rows, pivot, pivot].real)[:, None]


def apply_pauli_channel(ch: PauliChannel, rho: np.ndarray,
                        wrap: int = 0) -> np.ndarray:
    """sum_a p_a (I_wrap x P_a) rho (I_wrap x P_a) by explicit matrices.

    `wrap` prepends identity qubits (the untouched ancilla register); the
    P_a act on the main index of rho reshaped to (wrap, main)^2.
    """
    n = ch.n
    _check_qubits(n + wrap, "channel application")
    d, w = 2**n, 2**wrap
    rho4 = np.asarray(rho, dtype=complex).reshape(w, d, w, d)
    out = np.zeros_like(rho4)
    for probs, paulis in _pauli_terms(ch):
        out += np.einsum("a,ayz,xzwu,auv->xywv", probs, paulis, rho4, paulis,
                         optimize=True)
    return out.reshape(w * d, w * d)


def alg1_distribution_dense(ch: PauliChannel, k: int, group: StabilizerGroup,
                            stabs: np.ndarray | None = None) -> np.ndarray:
    """Exact p(v, e) = Tr[(Psi_v x phi_e)(1 x Lambda)(Psi_0 x phi_0)].

    Both measurement projectors are rank one, so each cell is a sum of
    squared amplitudes: p(v, e) = sum_a p_a |<Psi_v x S_e|(1 x P_a)|psi_in>|^2
    with psi_in = Psi_0 x S_0 on ancilla (k) x main (n = k + m) qubits.
    `stabs`, the group's `stabilizer_state_vectors`, is built if not given.
    """
    n = ch.n
    m = n - k
    if group.m != m:
        raise UsageError(f"group acts on {group.m} qubits, expected {m}")
    _check_qubits(n + k, "estimation round")
    bells = bell_state_vectors(k)
    stabs = stabilizer_state_vectors(group) if stabs is None else stabs
    psi_in = np.kron(bells[0], stabs[0]).reshape(2**k, 2**n)
    table = np.zeros((4**k, 2**m))
    for probs, paulis in _pauli_terms(ch):
        # (1 x P_a)|psi_in> for each a, as (Bell pair) x (stabilizer) rows
        out = (psi_in @ paulis.transpose(0, 2, 1)).reshape(-1, 4**k, 2**m)
        amps = bells.conj() @ out @ stabs.conj().T
        table += np.tensordot(probs, np.abs(amps) ** 2, axes=1)
    return table


# --- dense channels -----------------------------------------------------------


@dataclass(frozen=True)
class DenseChannel:
    """CPTP map given by Kraus operators on n qubits."""

    n: int
    kraus: tuple[np.ndarray, ...]

    def __post_init__(self):
        _check_qubits(self.n, "dense channel")
        d = 2**self.n
        total = np.zeros((d, d), dtype=complex)
        for op in self.kraus:
            if op.shape != (d, d):
                raise UsageError(f"Kraus operator shape {op.shape}, expected {(d, d)}")
            total += op.conj().T @ op
        if not np.allclose(total, np.eye(d), atol=DENSITY_TOL):
            raise UsageError("Kraus operators are not trace preserving")

    def apply(self, rho: np.ndarray) -> np.ndarray:
        return sum(op @ rho @ op.conj().T for op in self.kraus)

    def ptm(self) -> np.ndarray:
        """G[a, b] = Tr(sigma_a Lambda(sigma_b)) over normalized Paulis."""
        d = 2**self.n
        paulis = pauli_stack(self.n) / np.sqrt(d)
        out = np.empty((4**self.n, 4**self.n))
        for b in range(4**self.n):
            image = self.apply(paulis[b])
            out[:, b] = np.einsum("aij,ji->a", paulis, image).real
        return out

    def twirl_eigenvalues(self) -> np.ndarray:
        """Eigenvalues of the Pauli twirl: the PTM diagonal."""
        return np.diag(self.ptm()).copy()

    @classmethod
    def identity(cls, n: int) -> "DenseChannel":
        return cls(n, (np.eye(2**n, dtype=complex),))

    @classmethod
    def from_pauli(cls, ch: PauliChannel) -> "DenseChannel":
        if ch.is_sparse:
            items = list(zip((int(x) for x in ch.support_labels), ch.support_probs))
        else:
            items = [(a, p) for a, p in enumerate(ch.error_rates) if p > 0.0]
        ops = tuple(
            np.sqrt(prob) * pauli_matrix(label, ch.n) for label, prob in items
        )
        return cls(ch.n, ops)

    @classmethod
    def amplitude_damping(cls, gamma: float) -> "DenseChannel":
        if not 0.0 <= gamma <= 1.0:
            raise UsageError(f"gamma must lie in [0, 1], got {gamma}")
        k0 = np.array([[1.0, 0.0], [0.0, np.sqrt(1.0 - gamma)]], dtype=complex)
        k1 = np.array([[0.0, np.sqrt(gamma)], [0.0, 0.0]], dtype=complex)
        return cls(1, (k0, k1))

    @classmethod
    def tensor(cls, factors) -> "DenseChannel":
        n = sum(f.n for f in factors)
        ops = [np.eye(1, dtype=complex)]
        for f in factors:
            ops = [np.kron(a, b) for a in ops for b in f.kraus]
        return cls(n, tuple(ops))


# --- Choi states and teleportation stretching ---------------------------------


def choi_state(ch: PauliChannel) -> np.ndarray:
    """(Lambda x 1)(Psi+): equals 4^-n sum_a lambda_a P_a x P_a^T.

    (P_a x 1)|Psi+> = |Psi_a>, so this is the Bell mixture sum_a p_a Psi_a.
    """
    n = ch.n
    _check_qubits(2 * n, "Choi state")
    out = np.zeros((4**n, 4**n), dtype=complex)
    for probs, paulis in _pauli_terms(ch):
        vecs = paulis.reshape(len(probs), 4**n) / np.sqrt(2**n)
        out += np.einsum("a,ax,ay->xy", probs, vecs, vecs.conj())
    return out


def teleport_branches(choi: np.ndarray, rho: np.ndarray
                      ) -> tuple[np.ndarray, np.ndarray]:
    """Bell-measure (input, first Choi half), correct the second half.

    Returns (probabilities over the 4^n branches, corrected states); every
    corrected state equals Lambda(rho) when `choi` is the channel's Choi
    state.
    """
    d = rho.shape[0]
    n = d.bit_length() - 1
    if choi.shape[0] != d * d:
        raise UsageError("Choi dimension does not match input state")
    _check_qubits(3 * n, "teleportation")
    full = np.kron(rho, choi)
    dab = d * d
    rho4 = full.reshape(dab, d, dab, d)
    probs = np.empty(4**n)
    states = np.empty((4**n, d, d), dtype=complex)
    for b in range(4**n):
        psi = build_bell(b, n)
        cond = np.einsum("xy,ycxd->cd", psi, rho4)
        prob = np.trace(cond).real
        correction = pauli_matrix(b, n)
        corrected = correction @ cond @ correction
        probs[b] = prob
        states[b] = corrected / prob if prob > 0 else corrected
    return probs, states


# --- mutual-information bound -------------------------------------------------


@dataclass
class MutualInfoResult:
    info_nats: float
    bound: float
    conditionals: np.ndarray  # (channels, outcomes)


def spike_family_conditionals(n: int, k: int, input_vec: np.ndarray,
                              povm) -> np.ndarray:
    """p(j | a, s) for every channel with lambda_0 = 1, lambda_a = s.

    `input_vec` is a unit vector on main (2^n) x ancilla (2^k); `povm` is a
    list of (w_j, vec_j) with sum_j w_j 2^(n+k) |B_j><B_j| = I.
    """
    _check_qubits(n + k, "discrimination strategy")
    d_main, d_anc = 2**n, 2**k
    dim = d_main * d_anc
    vec = np.asarray(input_vec, dtype=complex)
    if vec.shape != (dim,):
        raise UsageError(f"input vector has shape {vec.shape}, expected {(dim,)}")
    if abs(np.linalg.norm(vec) - 1.0) > POVM_TOL:
        raise UsageError("input vector is not normalized")
    weights = np.array([w for w, _ in povm])
    vectors = np.stack([np.asarray(b, dtype=complex) for _, b in povm])
    total = (weights * dim * vectors.T) @ vectors.conj()
    if not np.allclose(total, np.eye(dim), atol=POVM_TOL):
        raise UsageError("POVM elements do not sum to identity")
    rho = np.outer(vec, vec.conj())
    rho4 = rho.reshape(d_main, d_anc, d_main, d_anc)
    rho_anc = np.einsum("pqpr->qr", rho4)
    paulis = pauli_stack(n)[1:]
    # Tr_main((P_a x I) rho) for every a != 0: ancilla-side operators t_a
    t_ops = np.einsum("arp,pqrs->aqs", paulis, rho4)
    # rho_out(a, s) = (I x rho_anc + s P_a x t_a) / 2^n; its POVM weights
    # come from <B_j|I x rho_anc|B_j> and <B_j|P_a x t_a|B_j>
    frame = vectors.reshape(len(povm), d_main, d_anc)
    base = np.einsum("jpq,qs,jps->j", frame.conj(), rho_anc, frame).real
    sandwich = paulis[:, None] @ frame @ t_ops[:, None].swapaxes(-1, -2)
    cross = np.einsum("jpq,ajpq->aj", frame.conj(), sandwich).real
    conditionals = np.stack([base + cross, base - cross], axis=1)
    conditionals = conditionals.reshape(-1, len(povm)) * (dim * weights / d_main)
    return np.clip(conditionals, 0.0, None)


def mutual_information_nats(conditionals: np.ndarray) -> float:
    """I(channel : outcome) for a uniform channel prior, in nats."""
    mean = conditionals.mean(axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.where(conditionals > 0.0,
                          np.log(conditionals / mean), 0.0)
    return float((conditionals * ratios).sum() / conditionals.shape[0])


def mutual_info_check(n: int, k: int, input_vec, povm) -> MutualInfoResult:
    """Compute I((a, s) : j) for one strategy and compare to 2^k/(2^n-1)."""
    conditionals = spike_family_conditionals(n, k, input_vec, povm)
    info = mutual_information_nats(conditionals)
    return MutualInfoResult(info, 2.0**k / (2.0**n - 1.0), conditionals)


def random_strategy(n: int, k: int, rng: np.random.Generator):
    """Haar-ish pure input plus a random rank-1 POVM (Gaussian frame)."""
    dim = 2 ** (n + k)
    vec = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    vec /= np.linalg.norm(vec)
    count = 2 * dim
    frame = rng.normal(size=(count, dim)) + 1j * rng.normal(size=(count, dim))
    gram = np.einsum("jx,jy->xy", frame, frame.conj())
    evals, evecs = np.linalg.eigh(gram)
    inv_sqrt = evecs @ np.diag(evals**-0.5) @ evecs.conj().T
    basis = frame @ inv_sqrt.T
    norms = np.linalg.norm(basis, axis=1)
    povm = [(float(w), b) for w, b in zip(norms**2 / dim, basis / norms[:, None])]
    return vec, povm


def spike_conditionals_closed_form(n: int, k: int, input_vec, povm
                                    ) -> np.ndarray:
    """Same conditionals through the overlap matrices C_j = B_j A^dagger."""
    d_main, d_anc = 2**n, 2**k
    a_mat = np.asarray(input_vec, dtype=complex).reshape(d_main, d_anc)
    paulis = pauli_stack(n)
    out = np.empty((2 * (4**n - 1), len(povm)))
    base = []
    cross = []
    for w_j, b_vec in povm:
        c_mat = np.asarray(b_vec, dtype=complex).reshape(d_main, d_anc) \
            @ a_mat.conj().T
        base.append(w_j * d_anc * np.trace(c_mat.conj().T @ c_mat).real)
        cross.append(
            [w_j * d_anc * np.trace(paulis[a] @ c_mat @ paulis[a]
                                    @ c_mat.conj().T).real
             for a in range(4**n)]
        )
    row = 0
    for a in range(1, 4**n):
        for s in (1, -1):
            out[row] = [b + s * c[a] for b, c in zip(base, cross)]
            row += 1
    return np.clip(out, 0.0, None)


# --- exact benchmarking expectations -------------------------------------------


def _ptm_coords(ops: np.ndarray, n: int) -> np.ndarray:
    """Coordinates R[..., u, b] = Tr[(sigma_u x sigma_b) op] on ancilla x main,
    for one operator or a stack of them."""
    d = 2**n
    sig = pauli_stack(n) / np.sqrt(d)
    op4 = ops.reshape(ops.shape[:-2] + (d, d, d, d))
    return np.einsum("uij,bkl,...jlik->...ub", sig, sig, op4,
                     optimize=True).real


def noisy_bell_state(n: int, channel: DenseChannel) -> np.ndarray:
    """(1 x E)(Psi+) on ancilla x main."""
    _check_qubits(2 * n, "noisy Bell state")
    rho = build_bell(0, n)
    d = 2**n
    out = np.zeros_like(rho)
    for op in channel.kraus:
        lifted = np.kron(np.eye(d), op)
        out += lifted @ rho @ lifted.conj().T
    return out


def noisy_bell_povm(n: int, channel: DenseChannel) -> np.ndarray:
    """Heisenberg-picture noisy Bell measurement: (1 x E)^dag (Psi_v)."""
    _check_qubits(2 * n, "noisy Bell measurement")
    d = 2**n
    projs = bell_projector_stack(n)
    effects = np.zeros_like(projs)
    for op in channel.kraus:
        lifted = np.kron(np.eye(d), op)
        effects += lifted.conj().T @ projs @ lifted
    return effects


def _sign_matrix(n: int) -> np.ndarray:
    labels = np.arange(4**n)
    out = np.empty((4**n, 4**n))
    for a in labels:
        for b in labels:
            out[a, b] = -1.0 if symp(int(a), int(b)) else 1.0
    return out


def _alg2_parts(n: int, gate: DenseChannel, prep_rho: np.ndarray,
                meas_povm: np.ndarray):
    """Gate PTM, prep and effect coordinates, and signs (-1)^<a,b>: the
    invariants shared by every label and sequence length."""
    return (gate.ptm(), _ptm_coords(prep_rho, n),
            _ptm_coords(np.asarray(meas_povm), n), _sign_matrix(n))


def alg2_constants(n: int, gate: DenseChannel, prep_rho: np.ndarray,
                   meas_povm: np.ndarray) -> np.ndarray:
    """The SPAM constants A_a of every label a, from their defining transform
    of the overlap."""
    _check_qubits(2 * n, "benchmark constant")
    g_ptm, r_coords, v_coords, signs = _alg2_parts(n, gate, prep_rho,
                                                   meas_povm)
    # inner[v, a] = V_v[:, a] . (R g_a)
    inner = np.einsum("vua,ua->va", v_coords, r_coords @ g_ptm.T)
    return np.einsum("av,va->a", signs, inner)


def alg2_expectations_dense(n: int, gate: DenseChannel, prep_rho: np.ndarray,
                            meas_povm: np.ndarray, lengths) -> np.ndarray:
    """E[F_a(m)] for every length m (rows) and label a (columns) by exact
    averaging over gate sequences via the twirl.

    Computes the full joint Pr(net gate label, outcome) with the twirled
    channel's m-th power in Pauli-transfer coordinates, then contracts with
    the estimator signs.  Independent of the closed form A_a lambda_a^m.
    """
    lengths = [int(m) for m in lengths]
    if any(m < 0 or m > 8 for m in lengths):
        raise CapabilityError("dense benchmark expectation limited to m <= 8")
    _check_qubits(2 * n, "benchmark expectation")
    g_ptm, r_coords, v_coords, signs = _alg2_parts(n, gate, prep_rho,
                                                   meas_povm)
    lam = np.diag(g_ptm)
    out = np.empty((len(lengths), 4**n))
    for row, m in enumerate(lengths):
        core = (lam**m)[:, None] * g_ptm  # Lambda^m Lambda_G
        # net label t scales column b of R (P_t core)^T by (-1)^<t,b>
        overlap = np.einsum("vub,ub->vb", v_coords, r_coords @ core.T)
        joint = signs @ overlap.T / 4**n  # Pr(net label t, outcome v)
        out[row] = ((signs @ joint) * signs).sum(axis=1)
    return out


def alg2_expectation_brute(n: int, gate: DenseChannel, prep_rho: np.ndarray,
                           meas_povm: np.ndarray, a: int, m: int) -> float:
    """Exhaustive average over all 4^(n(m+1)) gate sequences (tiny n, m)."""
    if 4 ** (n * (m + 1)) > 1 << 16:
        raise CapabilityError("sequence enumeration too large")
    g_ptm, r_coords, v_coords, signs = _alg2_parts(n, gate, prep_rho,
                                                   meas_povm)
    pauli_ptms = [np.diag(signs[t]) for t in range(4**n)]
    total = 0.0
    count = 0
    for seq in itertools.product(range(4**n), repeat=m + 1):
        chain = np.eye(4**n)
        sign_sum = 0
        for a_t in seq:
            chain = pauli_ptms[a_t] @ g_ptm @ chain
            sign_sum ^= symp(a, a_t)
        w_coords = r_coords @ chain.T
        pr_v = np.einsum("vub,ub->v", v_coords, w_coords)
        est = signs[a] @ pr_v * (1 - 2 * sign_sum)
        total += float(est)
        count += 1
    return total / count


def alg2_distribution_convolution(model, m: int) -> np.ndarray:
    """Law of z = v xor (xor of gate labels) at sequence length m for the
    Pauli noise of `model` (prep, gate, meas channels on n qubits): the
    XOR-convolution law'[z] = sum_a law[a] q[a xor z] of the prep, m+1
    gate and meas error-rate vectors, as 4^n x 4^n matrix products."""
    _check_qubits(2 * model.n, "alg2_distribution_convolution")
    labels = np.arange(4**model.n)
    xor = labels[:, None] ^ labels[None, :]

    def rates(ch: PauliChannel) -> np.ndarray:
        return np.array([ch.probability(a) for a in labels])

    gate = rates(model.gate)[xor]
    law = rates(model.prep)
    for _ in range(m + 1):
        law = law @ gate
    return law @ rates(model.meas)[xor]
