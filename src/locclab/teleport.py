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
import sys
from dataclasses import dataclass
from itertools import compress
from typing import Sequence

import numpy as np

from .partitions import (
    BlockTable,
    Partition,
    as_spectrum,
    block_rows,
    block_table,
    block_weights,
    dim_v,
    schur_ladder,
    spectrum_weights,
)
from .schur_weyl import _checked_matrix, _diagonal_spectrum, _schmidt_frame, _turned, schur_basis
from .states import StateVector, check_bytes, seed_of

# a nat below the log of the largest float, so that the rounding of a log
# cannot hide an overflow
_LOG_FLOAT_MAX = math.log(sys.float_info.max) - 1.0


class NothingToTeleportError(RuntimeError):
    """The state has no weight on the retained blocks (product states)."""

    def __init__(self, n: int, d: int, spectrum: tuple[float, ...] | None = None):
        self.n = n
        self.d = d
        self.spectrum = spectrum
        super().__init__(
            f"nothing to teleport: no weight on the retained blocks (n={n}, d={d})"
        )


def check_local_dimension(d: int) -> None:
    """The protocol needs d >= 2: at d = 1 the one block (n) is retained and
    no retired block holds the unused directions."""
    if d < 2:
        raise ValueError(f"d = {d} has no retired block to hold the unused directions")


def good_set(n: int, d: int) -> tuple[Partition, ...]:
    """Blocks kept by the protocol, those with dim_u <= dim_v, in
    enumeration order: the ``retained`` column of the memoized
    ``block_table(n, d)``."""
    table = block_table(n, d)
    return tuple(compress((lam for lam, _, _ in table), table.retained))


def _retained_weight(table: BlockTable, weights: np.ndarray) -> float:
    """The share of the weights, in ``table`` order, on its good set: R / (R
    + T), with R and T the ``fsum`` of the retained and the retired weights.
    For non-negative weights it lies in [0, 1] and equals R within rounding,
    where a plain sum of the retained weights can pass 1. An empty good set
    gives exactly 0.0."""
    kept = math.fsum(weights[table.retained].tolist())
    return kept / (kept + math.fsum(weights[~table.retained].tolist()))


def ideal_fidelity(p: Sequence[float], n: int) -> float:
    """The share of the weight on the good set, from the Schmidt spectrum:
    in [0, 1], and the retained weight sum within rounding."""
    spectrum = as_spectrum(p)
    weights = spectrum_weights(spectrum, n)
    return _retained_weight(block_table(n, len(spectrum)), weights)


def _first_float_overflow(n_max: int, d: int) -> int | None:
    """The least n <= n_max at which a dim_v of (C^d)^{(x)n} is beyond the
    float range, or None. A block of n + 1 letters has at least the dim_v
    of each block it branches to, so the largest dim_v grows with n: one
    exact check at n_max, then a bisection."""

    def overflows(n: int) -> bool:
        try:
            block_rows(n, d).float_dim_v  # raises past the float range
        except ValueError:
            return True
        return False

    if n_max < 1 or not overflows(n_max):
        return None
    fits, over = 0, n_max
    while over - fits > 1:
        mid = (fits + over) // 2
        fits, over = (fits, mid) if overflows(mid) else (mid, over)
    return over


def ideal_fidelities(p: Sequence[float], n_max: int) -> dict[int, float]:
    """``ideal_fidelity(p, n)`` for every n from 1 to n_max, bit for bit and
    with the same checks, from one Schur evaluation (``schur_ladder``). Each
    size's block table is read once, uncached (``block_rows``), so a sweep
    evicts no memoized table. A sweep that would reach a dim_v beyond the
    float range is refused before it starts, with the error
    ``block_weights`` raises at the first such n."""
    spectrum = as_spectrum(p)
    d = len(spectrum)
    first = _first_float_overflow(n_max, d)
    if first is not None:
        raise ValueError(f"a dim_v at n={first} is beyond the float range")
    ladder = schur_ladder(spectrum, n_max)
    out = {}
    for n in range(1, n_max + 1):
        table = block_rows(n, d)
        out[n] = _retained_weight(table, block_weights(spectrum, n, table, ladder[n]))
    return out


def fidelity_lower_bound(p1: float, n: int, d: int) -> float:
    """Closed-form lower bound on the retained weight.

    1 - d(2d-3)!/((d-2)!(d-1)!) (n+1)^{d(d+1)/2} p1^n; may be negative at
    small n, in which case it is vacuous. The correction term is sized in
    logs first: where the product of its first two factors is a float, it
    is that float expression; past that the term comes from its log, and a
    term beyond the float range gives -sys.float_info.max, a finite value
    still below the fidelity.
    """
    if d < 2:
        raise ValueError("bound requires d >= 2")
    if not 0.0 < p1 <= 1.0:
        raise ValueError(f"p1 must be in (0,1], got {p1}")
    coeff = d * math.factorial(2 * d - 3) // (
        math.factorial(d - 2) * math.factorial(d - 1)
    )
    log_head = math.log(coeff) + d * (d + 1) / 2 * math.log(n + 1)
    if log_head < _LOG_FLOAT_MAX:
        return 1.0 - coeff * (n + 1) ** (d * (d + 1) / 2) * p1**n
    log_term = log_head + n * math.log(p1)
    return 1.0 - math.exp(log_term) if log_term < _LOG_FLOAT_MAX else -sys.float_info.max


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
class TeleportResult:
    """Outcome of one protocol run: what the run computed, and the figures
    that follow from it.

    ``success_prob`` is the retained weight, the success probability of the
    projection step, reported as the retained share R / (R + T) of the
    block weights (``_retained_weight``), so it is at most 1.
    ``final_blocks`` is the post-recovery state in block coordinates, in
    the Schmidt frame: the u part x of each retained block of weight above
    1e-14, held as its diagonal, a 1-D array of length dim_u, as in
    ``StandardForm.parts``. ``factors`` holds the Schmidt factors (U, V^H)
    of an amplitude matrix off its diagonal (None for a diagonal one and
    for a vacuous run): block lam of the state's coefficients in the basis
    on both halves is pi_lam(U) diag(x) pi_lam(V^H) (x) 1_v.
    ``final_blocks`` is None when the good set is empty (the run is
    vacuous). A sampled transcript of the protocol comes from
    ``run_locc(teleport_protocol(n, d), ...)``.
    """

    n: int
    d: int
    schmidt_spectrum: tuple[float, ...]
    success_prob: float
    final_blocks: dict[Partition, np.ndarray] | None
    factors: tuple[np.ndarray, np.ndarray] | None
    seed: int | None

    @property
    def final_state(self) -> StateVector | None:
        """The post-recovery state on the 2n factors, normalized, built from
        ``final_blocks`` and ``factors`` on every access; None if vacuous."""
        if self.final_blocks is None:
            return None
        size = self.d**self.n
        # the state and one block's term; per block its dense columns, their
        # reordered copy, the product with x and complex copies for products;
        # 1 KiB per string for the small arrays
        widest = max(len(x) * dim_v(lam) for lam, x in self.final_blocks.items())
        nbytes = 32 * size * size + 64 * size * (widest + 16)
        check_bytes(nbytes, f"the final state at n={self.n}, d={self.d}")
        blocks = schur_basis(self.n, self.d).blocks
        # the norm in block coordinates: the basis is orthonormal, the turns unitary
        norm = math.sqrt(math.fsum(
            blocks[lam].dim_v * np.vdot(x, x).real for lam, x in self.final_blocks.items()
        ))
        parts = _turned(self.final_blocks, self.factors, self.n, self.d, "the final state")
        out = np.zeros((size, size), dtype=complex)
        for lam, x in parts.items():
            du, dv = blocks[lam].dim_u, blocks[lam].dim_v
            # columns in (v, u) order, so that x acts on the last axis
            vecs = blocks[lam].vectors.reshape(size, du, dv).transpose(0, 2, 1).reshape(size, -1)
            acted = vecs.reshape(size, dv, du) @ (x / norm)
            out += acted.reshape(size, -1) @ vecs.T
        return StateVector(out.reshape(-1), (self.d,) * (2 * self.n))

    @property
    def good(self) -> tuple[Partition, ...]:
        return good_set(self.n, self.d)

    @property
    def status(self) -> str:
        return "ok" if self.good else "vacuous"

    @property
    def fidelity(self) -> float:
        """Fidelity of the post-selected final state with its target, the
        headline figure: it equals the retained weight."""
        return self.success_prob

    @property
    def unconditional_fidelity(self) -> float:
        """The fidelity times the success probability of the projection."""
        return self.success_prob * self.fidelity

    @property
    def bound(self) -> float:
        """``fidelity_lower_bound`` at the largest Schmidt coefficient."""
        return fidelity_lower_bound(self.schmidt_spectrum[0], self.n, self.d)

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


def run_teleport(
    phi: StateVector,
    n: int,
    rng: np.random.Generator | int | None = None,
) -> TeleportResult:
    """Simulate one full protocol run on |phi>^{(x)n}.

    Steps I-III act on the u parts of the retained blocks of the standard
    form, whose Schmidt decomposition also gives the spectrum: projection
    (its success probability is the retained weight), Alice's measurement,
    then recovery and local reconstruction. Recovery undoes every outcome
    exactly, so the final state does not depend on it and none is drawn;
    ``rng`` sets only the recorded seed. The final state is kept in block
    coordinates and checked against the analytic target; the reported
    fidelity equals the retained weight, the retained share of the weights.

    The input is checked once, as ``standard_form`` checks it
    (``_checked_matrix``), and d >= 2 before the block table is read; a
    vacuous run reads its spectrum off the diagonal, or the singular
    values of a matrix off it. Steps I-III run once, on the frame arrays of
    ``_schmidt_frame`` over every block at once, with no loop over the
    blocks, and read no basis: a matrix off its diagonal adds its SVD
    alone, and the result carries its factors, which only ``final_state``
    applies.
    """
    seed = seed_of(rng)
    mat, diagonal = _checked_matrix(phi, n, "run_teleport")
    d = len(mat)
    check_local_dimension(d)

    table = block_table(n, d)
    if not np.count_nonzero(table.retained):
        svals = np.linalg.svd(mat, compute_uv=False) if diagonal is None else diagonal
        return TeleportResult(n, d, _diagonal_spectrum(svals), 0.0, None, None, seed)

    # step I: Alice projects onto the retained blocks; the conditioned
    # state's u part on block lam is t = sqrt(q_lam / success) Delta_lam /
    # |Delta_lam|, over the blocks that carry a u part
    frame = _schmidt_frame(mat, diagonal, n)
    success = _retained_weight(table, frame.weights)
    if success < 1e-12:
        raise NothingToTeleportError(n, d, frame.spectrum)
    kept = table.retained & frame.carried
    scale = np.divide(frame.weights, success * frame.squares, out=np.zeros(len(table)), where=kept)
    counts = table.offsets[1:] - table.offsets[:-1]  # the dim_u
    target = frame.delta * np.sqrt(scale).repeat(counts)
    # step II: Alice measures, an outcome being a unitary U per retained
    # block; her outcome vector reads sqrt(dim_v) U[v, u] at (u, v),
    # u < dim_u, so Bob's share of block lam is t^T U_u^dagger, U_u the
    # first dim_u columns of U. Step III: recovery applies U_u on the
    # multiplicity index, leaving t (U_u^dagger U_u = 1) for every outcome;
    # that content is relabeled into a fresh register and the maximally
    # entangled parts are reattached, so Bob holds t / sqrt(dim_v) of each
    # kept block
    root = np.sqrt(table.float_dim_v).repeat(counts)
    final = target / root
    # the basis is real and orthonormal and the turns unitary, so the
    # fidelity with the target (the conditioned state) is the same on the
    # diagonals
    spread = final * root  # the final state's blocks, weighted by sqrt(dim_v)
    check = abs(np.vdot(spread, target)) ** 2 / np.vdot(spread, spread).real
    if check < 1.0 - 1e-8:
        raise AssertionError(f"final state misses the analytic target: {check}")
    blocks = frame.blocks(final, kept)
    return TeleportResult(n, d, frame.spectrum, success, blocks, frame.factors, seed)
