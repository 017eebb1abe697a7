"""Self-teleportation of n copies of a bipartite pure state.

Alice transfers her halves to a fresh register on Bob's side using only the
entanglement carried by the multiplicity parts of the block decomposition:
both parties project onto the blocks with dim_u <= dim_v, Alice applies a
measurement whose outcomes are tuples of unitaries (one per retained block)
and therefore reveal nothing about the block index, and Bob undoes the
sampled unitaries and reconstructs the maximally entangled multiplicity
parts locally. The post-recovery state does not depend on the outcome, and
the achieved fidelity equals the retained weight, which approaches 1
exponentially fast in n whenever the state is entangled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .locc import LoccTranscript, Message, _as_generator
from .partitions import Partition, as_spectrum, dim_u, dim_v, enumerate_partitions
from .schur_weyl import SchurBasis, schur_basis, weights_analytic
from .states import StateVector, bipartite_tensor_power, check_bytes


class NothingToTeleportError(RuntimeError):
    """The state has no weight on the retained blocks (product states)."""

    def __init__(self, n: int, d: int, spectrum: tuple[float, ...] | None = None):
        self.n = n
        self.d = d
        self.spectrum = spectrum
        super().__init__(
            f"nothing to teleport: no weight on the retained blocks (n={n}, d={d})"
        )


def retained(lam: Partition) -> bool:
    """Whether the protocol keeps block lam: dim_u <= dim_v."""
    return dim_u(lam) <= dim_v(lam)


def good_set(n: int, d: int) -> list[Partition]:
    """Blocks kept by the protocol, in enumeration order."""
    return [lam for lam in enumerate_partitions(n, d) if retained(lam)]


def ideal_fidelity(p: Sequence[float], n: int) -> float:
    """Retained weight sum over the good set, from the Schmidt spectrum."""
    weights = weights_analytic(as_spectrum(p), n)
    return float(sum(q for lam, q in weights.items() if retained(lam)))


def fidelity_lower_bound(p1: float, n: int, d: int) -> float:
    """Closed-form lower bound on the retained weight.

    1 - d(2d-3)!/((d-2)!(d-1)!) (n+1)^{d(d+1)/2} p1^n; may be negative at
    small n, in which case it is vacuous.
    """
    if d < 2:
        raise ValueError("bound requires d >= 2")
    if not 0.0 < p1 <= 1.0:
        raise ValueError(f"p1 must be in (0,1], got {p1}")
    coeff = d * math.factorial(2 * d - 3) // (
        math.factorial(d - 2) * math.factorial(d - 1)
    )
    return 1.0 - coeff * (n + 1) ** (d * (d + 1) / 2) * p1**n


def sample_haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary: QR of a complex Gaussian matrix with the
    triangular factor's diagonal phases absorbed."""
    if dim < 1:
        raise ValueError("dim must be positive")
    z = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
    z /= math.sqrt(2.0)
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r)
    return q * (diag / np.abs(diag))


@dataclass(frozen=True)
class TeleportPlan:
    """Frozen geometry of one protocol instance: retained blocks and the
    block basis shared by all registers."""

    n: int
    d: int
    good: tuple[Partition, ...]
    basis: SchurBasis


def build_plan(n: int, d: int) -> TeleportPlan:
    return TeleportPlan(n, d, tuple(good_set(n, d)), schur_basis(n, d))


def _outcome_schur_vector(
    plan: TeleportPlan, unitaries: Mapping[Partition, np.ndarray]
) -> np.ndarray:
    """Measurement-vector coordinates in the block basis for one outcome."""
    dim = plan.d**plan.n
    vec = np.zeros(dim, dtype=complex)
    slices = plan.basis.slices()
    for lam in plan.good:
        block = plan.basis.blocks[lam]
        du, dv = block.dim_u, block.dim_v
        u_mat = np.asarray(unitaries[lam], dtype=complex)
        if u_mat.shape != (dv, dv):
            raise ValueError(f"unitary for {lam} must be {dv}x{dv}")
        if np.max(np.abs(u_mat.conj().T @ u_mat - np.eye(dv))) > 1e-10:
            raise ValueError(f"matrix for {lam} is not unitary")
        vec[slices[lam]] = math.sqrt(dv) * u_mat[:, :du].T.reshape(-1)
    return vec


def kraus_operator(
    plan: TeleportPlan, unitaries: Mapping[Partition, np.ndarray]
) -> np.ndarray:
    """The outcome operator for one sampled tuple of unitaries, as a
    (1, d^n) matrix on Alice's space in the computational basis.

    It annihilates every block outside the good set, and the average of
    A^dagger A over outcomes is the projector onto the retained subspace.
    """
    missing = [lam for lam in plan.good if lam not in unitaries]
    if missing:
        raise ValueError(f"missing unitaries for blocks {missing}")
    vec = plan.basis.matrix @ _outcome_schur_vector(plan, unitaries)
    return vec.conj()[None, :]


@dataclass(frozen=True)
class TeleportResult:
    """Outcome of one protocol run.

    ``fidelity`` is the retained-weight fidelity of the post-selected final
    state (the headline figure); ``unconditional_fidelity`` multiplies it by
    the success probability of the projection step.
    """

    n: int
    d: int
    schmidt_spectrum: tuple[float, ...]
    good: tuple[Partition, ...]
    success_prob: float
    fidelity: float
    unconditional_fidelity: float
    bound: float
    final_state: StateVector | None
    transcript: LoccTranscript | None
    seed: int | None
    status: str = "ok"

    def to_json_dict(self) -> dict:
        """Stable serialization of the run's summary figures."""
        return {
            "n": self.n,
            "d": self.d,
            "schmidt_spectrum": list(self.schmidt_spectrum),
            "good_set": [str(lam) for lam in self.good],
            "success_prob": self.success_prob,
            "fidelity": self.fidelity,
            "unconditional_fidelity": self.unconditional_fidelity,
            "bound": self.bound,
            "seed": self.seed,
            "status": self.status,
        }


def _vacuous_result(
    n: int, d: int, spectrum: tuple[float, ...], seed: int | None
) -> TeleportResult:
    bound = fidelity_lower_bound(spectrum[0], n, d) if d >= 2 else float("-inf")
    return TeleportResult(
        n=n,
        d=d,
        schmidt_spectrum=spectrum,
        good=(),
        success_prob=0.0,
        fidelity=0.0,
        unconditional_fidelity=0.0,
        bound=bound,
        final_state=None,
        transcript=None,
        seed=seed,
        status="vacuous",
    )


def run_teleport(
    phi: StateVector,
    n: int,
    rng: np.random.Generator | int | None = None,
) -> TeleportResult:
    """Simulate one full protocol run on |phi>^{(x)n}.

    Projection, one sampled measurement outcome, recovery, and local
    reconstruction; the final state is checked against the analytic target
    and the reported fidelity equals the retained weight.
    """
    rng, seed = _as_generator(rng)
    if len(phi.dims) != 2 or phi.dims[0] != phi.dims[1]:
        raise ValueError(f"need a d x d bipartite state, got dims {phi.dims}")
    d = phi.dims[0]
    # eight d^n x d^n complex arrays at the peak, the basis build included
    check_bytes(8 * 16 * d ** (2 * n), f"run_teleport at n={n}, d={d}")
    phi = phi.require_normalized()
    spectrum = tuple(float(x) for x in phi.schmidt_coefficients())

    plan = build_plan(n, d)
    if not plan.good:
        return _vacuous_result(n, d, spectrum, seed)

    basis = plan.basis
    bmat = basis.matrix
    slices = basis.slices()
    good_mask = np.zeros(d**n, dtype=bool)
    for lam in plan.good:
        good_mask[slices[lam]] = True

    # step I: Alice projects onto the retained blocks
    projected = bmat.T @ bipartite_tensor_power(phi, n) @ bmat
    projected[~good_mask] = 0.0
    success = float(np.linalg.norm(projected) ** 2)
    if success < 1e-12:
        raise NothingToTeleportError(n, d, spectrum)
    # Alice's projection alone already lands in Bob's retained subspace
    leak = np.linalg.norm(projected[:, ~good_mask])
    if leak > 1e-10:
        raise AssertionError(f"one-sided projection leaks {leak:.2e} outside")
    cond = projected / math.sqrt(success)

    # step II: sample one outcome and apply its operator on Alice's side
    unitaries = {lam: sample_haar_unitary(dim_v(lam), rng) for lam in plan.good}
    a_schur = _outcome_schur_vector(plan, unitaries)
    bob = a_schur.conj() @ cond  # Bob-side coordinates, length d^n
    bob /= np.linalg.norm(bob)

    # step III: recovery undoes the sampled unitaries on the multiplicity
    # index, then the retained content is relabeled into a fresh register
    # and the maximally entangled parts are reattached
    final_coeff = np.zeros((d**n, d**n), dtype=complex)
    for lam in plan.good:
        block = basis.blocks[lam]
        du, dv = block.dim_u, block.dim_v
        c = bob[slices[lam]].reshape(du, dv)
        c = c @ unitaries[lam]  # apply 1 (x) U^T on the v index
        x_rec = c[:, :du].T / math.sqrt(dv)
        if np.linalg.norm(c[:, du:]) > 1e-10:
            raise AssertionError(f"recovery left weight beyond dim_u in {lam}")
        fb = np.einsum("ij,vw->ivjw", x_rec, np.eye(dv)).reshape(du * dv, du * dv)
        final_coeff[slices[lam], slices[lam]] = fb

    # the basis is real and orthonormal, so the fidelity with the target
    # (the conditioned state) is the same in block coordinates
    check = abs(np.vdot(final_coeff, cond)) ** 2 / np.linalg.norm(final_coeff) ** 2
    if check < 1.0 - 1e-8:
        raise AssertionError(f"final state misses the analytic target: {check}")

    final_vec = (bmat @ final_coeff @ bmat.T).reshape(-1)
    final_state = StateVector(final_vec, (d,) * (2 * n)).normalized()
    fidelity = success  # retained weight; equals |<target|phi^n>|^2
    transcript = LoccTranscript(
        protocol_id=f"teleport(n={n},d={d})",
        seed=seed,
        messages=[
            Message(0, "A", "project:retained", success),
            Message(1, "A", "povm:haar-outcome", 1.0),
            Message(2, "B", "recover+reconstruct", 1.0),
        ],
        state=final_state.amplitudes,
    )
    return TeleportResult(
        n=n,
        d=d,
        schmidt_spectrum=spectrum,
        good=plan.good,
        success_prob=success,
        fidelity=fidelity,
        unconditional_fidelity=success * fidelity,
        bound=fidelity_lower_bound(spectrum[0], n, d),
        final_state=final_state,
        transcript=transcript,
        seed=seed,
        status="ok",
    )
