"""Explicit matrix-level symmetry decomposition of (C^d)^{(x)n}.

The tensor power splits into blocks indexed by Young indices lambda, each a
product of a unitary-group factor (dimension dim_u) and a symmetric-group
factor (dimension dim_v). This module constructs an orthonormal basis
organized by these blocks, with explicit (u, v) index maps, and extracts the
standard form of the n-fold power of a bipartite pure state: per-block
weights q_lambda, the state-dependent parts phi_lambda, and the maximally
entangled multiplicity parts.

The basis is the Young-Yamanouchi basis, built the same way for every d
and with no randomness: the u basis of each block comes from the joint
eigenspace of the Jucys-Murphy elements on one reference tableau, and
Young's orthogonal form carries it to the other standard tableaux, which
label v. Basis vectors are real throughout, since the construction only
diagonalizes real symmetric compressions of permutations and applies
real orthogonal combinations. Realness is what makes the same basis
usable verbatim on both halves of a bipartite state (the pairing of
multiplicity indices involves an entrywise conjugate).

The character route, kept independent of the basis and of the Schur
evaluator to cross-check both, takes the weights by the Frobenius formula
from the power traces tr(rho^k), with no d^n array (``weights_by_projector``);
``isotypic_projector`` builds one projector as a d^n x d^n matrix.

Calls that build arrays growing with d or n first pass the bytes they will
allocate to ``states.check_bytes``, the one size guard.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import Sequence

import numpy as np

from .partitions import (
    Partition,
    character,
    class_size,
    cycle_type,
    dim_u,
    dim_v,
    enumerate_partitions,
    schur_polynomials,
    standard_tableaux,
)
from .states import StateVector, bipartite_tensor_power, check_bytes

CONSTRUCTION_VERSION = 2

_MAX_CHARACTER_N = 14
_WEIGHT_FLOOR = 1e-14  # blocks at or below this weight are not factored


class BasisAlignmentError(RuntimeError):
    """The multiplicity-index pairing check failed for a block."""


def permutation_operator(sigma: Sequence[int], d: int) -> np.ndarray:
    """Operator on (C^d)^{(x)n} moving the content of factor k to factor
    sigma(k); exact 0/1 matrix.

    Composition follows operator order: op(sigma o tau) = op(sigma) op(tau).
    """
    n = len(sigma)
    if sorted(sigma) != list(range(n)):
        raise ValueError(f"not a permutation of 0..{n - 1}: {sigma}")
    dim = d**n
    check_bytes(8 * dim * (dim + 3), f"a permutation operator at n={n}, d={d}")
    # entry j of the index tensor, axes permuted, is the image of state j
    out = np.arange(dim).reshape((d,) * n).transpose(sigma).ravel()
    mat = np.zeros((dim, dim))
    mat[out, np.arange(dim)] = 1.0
    return mat


def isotypic_projector(lam: Partition, d: int) -> np.ndarray:
    """Orthogonal projector onto the lambda block of (C^d)^{(x)n}, built
    from symmetric-group characters; hermitian and idempotent. Each
    permutation is one scatter-add of its character into one array, and
    allocates one d^n index array, which the byte count includes."""
    n = lam.n
    dim = d**n
    check_bytes(8 * dim * (dim + math.factorial(n)), f"the {lam} projector at d={d}")
    index, cols = np.arange(dim).reshape((d,) * n), np.arange(dim)
    proj = np.zeros((dim, dim))
    for sigma in itertools.permutations(range(n)):
        chi = character(lam, cycle_type(sigma))
        if chi != 0:
            proj[index.transpose(sigma).ravel(), cols] += chi
    proj *= dim_v(lam) / math.factorial(n)
    return proj


@dataclass(frozen=True)
class SchurBlock:
    """Orthonormal vectors of one lambda block.

    ``vectors`` has shape (d^n, dim_u * dim_v); column u * dim_v + v holds
    the basis vector with unitary-group index u and multiplicity index v.
    """

    lam: Partition
    dim_u: int
    dim_v: int
    vectors: np.ndarray

    def column(self, u: int, v: int) -> np.ndarray:
        return self.vectors[:, u * self.dim_v + v]


@dataclass(frozen=True)
class SchurBasis:
    n: int
    d: int
    blocks: dict[Partition, SchurBlock]

    @property
    def partitions(self) -> list[Partition]:
        return list(self.blocks)

    @property
    def matrix(self) -> np.ndarray:
        """All basis vectors as columns, blocks in decreasing-lex order."""
        return np.hstack([b.vectors for b in self.blocks.values()])

    def slices(self) -> dict[Partition, slice]:
        out = {}
        offset = 0
        for lam, block in self.blocks.items():
            width = block.dim_u * block.dim_v
            out[lam] = slice(offset, offset + width)
            offset += width
        return out


def _contents(word: tuple[int, ...]) -> list[int]:
    """Content (column minus row) of each letter of a Yamanouchi word."""
    filled = [0] * (max(word) + 1)
    out = []
    for row in word:
        out.append(filled[row] - row)
        filled[row] += 1
    return out


def _swap_factors(vecs: np.ndarray, n: int, d: int, i: int, j: int) -> np.ndarray:
    """Each column of vecs with tensor factors i and j exchanged."""
    tensor = vecs.reshape((d,) * n + vecs.shape[1:])
    return np.swapaxes(tensor, i, j).reshape(vecs.shape)


def _reference_vectors(lam: Partition, d: int) -> np.ndarray:
    """The u basis of the lam block, on its row-reading tableau T0.

    Letter by letter, the space W built so far is widened to W (x) C^d,
    compressed onto X_k = sum_{i<k} (i k), and cut to the eigenvectors of
    eigenvalue c_k(T0); the eigenvalues are integers, so the cut is exact.
    Permutations keep the torus weight (the letter counts of a
    computational basis state), so each weight is diagonalized apart. The
    columns come out ordered by weight, highest first, each with its first
    non-zero entry positive.
    """
    word = tuple(row for row, part in enumerate(lam.parts) for _ in range(part))
    contents = _contents(word)
    units = [tuple(int(a == b) for a in range(d)) for b in range(d)]
    vecs, weights = np.eye(d), units
    filled = [1] + [0] * (d - 1)
    for k in range(1, lam.n):
        wide = np.kron(vecs, np.eye(d))
        groups: dict[tuple[int, ...], list[int]] = {}
        for col, (w, e) in enumerate(itertools.product(weights, units)):
            groups.setdefault(tuple(map(sum, zip(w, e))), []).append(col)
        kept, weights = [], []
        for label, cols in groups.items():
            part = wide[:, cols]
            x = sum(_swap_factors(part, k + 1, d, i, k) for i in range(k))
            evals, evecs = np.linalg.eigh(part.T @ x)
            keep = np.abs(evals - contents[k]) < 0.5
            kept.append(part @ evecs[:, keep])
            weights += [label] * int(keep.sum())
        vecs = np.hstack(kept)
        filled[word[k]] += 1
        want = dim_u(Partition(tuple(filled)))
        if vecs.shape[1] != want:
            raise BasisAlignmentError(
                f"eigenspace of {lam} at letter {k + 1} has dimension "
                f"{vecs.shape[1]}, not dim_u = {want}"
            )
    vecs = vecs[:, sorted(range(len(weights)), key=weights.__getitem__, reverse=True)]
    first = np.argmax(np.abs(vecs) > 1e-10, axis=0)
    return vecs * np.sign(vecs[first, np.arange(vecs.shape[1])])


def _block_vectors(lam: Partition, d: int) -> np.ndarray:
    """Columns of the lam block, column u * dim_v + v.

    Tableau v is the v-th word of ``standard_tableaux(lam)``. Every
    tableau T after the first has a descent k (letter k + 1 in a lower row
    than letter k + 2), and swapping the two gives an earlier tableau P.
    Young's orthogonal form, s_k v_P = v_P / r + sqrt(1 - 1/r^2) v_T with
    r = c_{k+1}(P) - c_k(P), then yields v_T from v_P. s_k commutes with
    the unitary action, so the u index stays aligned across tableaux.
    """
    n = lam.n
    words = standard_tableaux(lam)
    ref = _reference_vectors(lam, d)
    copies = np.empty((len(words),) + ref.shape)
    copies[0] = ref
    index = {word: v for v, word in enumerate(words)}
    for v, word in enumerate(words[1:], 1):
        k = next(k for k in range(n - 1) if word[k] > word[k + 1])
        prev = word[:k] + (word[k + 1], word[k]) + word[k + 2 :]
        c = _contents(prev)
        r = c[k + 1] - c[k]
        src = copies[index[prev]]
        copies[v] = (_swap_factors(src, n, d, k, k + 1) - src / r) / math.sqrt(
            1 - 1 / r**2
        )
    return np.ascontiguousarray(copies.transpose(1, 2, 0)).reshape(d**n, -1)


def build_schur_basis(n: int, d: int, seed: int | None = None) -> SchurBasis:
    """Deterministic orthonormal block basis of (C^d)^{(x)n}, the
    Young-Yamanouchi basis.

    Column (u, v) of block lam is an eigenvector of every Jucys-Murphy
    element X_k = sum_{i<k} (i k) with eigenvalue the content of letter k
    in the v-th standard tableau of ``standard_tableaux(lam)``
    (Okounkov-Vershik). The u basis is built on the row-reading tableau
    and carried to the others by Young's orthogonal form, so it is the same
    for every v. Permutations are applied as axis swaps of the reshaped
    vectors, never as matrices. ``seed`` is ignored; it is accepted for
    callers that still pass one. The byte count is the output and one
    block copy while it is built.
    """
    check_bytes(2 * 8 * d ** (2 * n), f"the block basis at n={n}, d={d}")
    blocks = {
        lam: SchurBlock(lam, dim_u(lam), dim_v(lam), _block_vectors(lam, d))
        for lam in enumerate_partitions(n, d)
    }
    return SchurBasis(n, d, blocks)


@lru_cache(maxsize=32)
def _memo_basis(n: int, d: int) -> SchurBasis:
    return build_schur_basis(n, d)


def schur_basis(n: int, d: int, seed: int | None = None) -> SchurBasis:
    """Memoized basis constructor, one entry per (n, d); bases are
    immutable and shareable. ``seed`` is ignored."""
    return _memo_basis(n, d)


# hit and miss counts for callers that report them (perfbench/worker.py)
schur_basis.cache_info = _memo_basis.cache_info


def save_basis(basis: SchurBasis, path: str | Path) -> Path:
    """Serialize a basis to a versioned binary cache file."""
    path = Path(path)
    if path.suffix != ".npz":
        path = path.with_suffix(path.suffix + ".npz")
    payload: dict[str, np.ndarray] = {
        "meta": np.array([basis.n, basis.d, CONSTRUCTION_VERSION], dtype=np.int64)
    }
    for lam, block in basis.blocks.items():
        key = "block_" + "_".join(str(p) for p in lam.parts)
        payload[key] = block.vectors
    np.savez(path, **payload)
    return path


def load_basis(path: str | Path) -> SchurBasis:
    """Load a basis saved by :func:`save_basis`, bit-identical amplitudes."""
    with np.load(Path(path)) as data:
        meta = [int(x) for x in data["meta"]]
        if meta[-1] != CONSTRUCTION_VERSION:
            raise ValueError(
                f"cache version {meta[-1]} != supported {CONSTRUCTION_VERSION}"
            )
        n, d = meta[:2]
        blocks: dict[Partition, SchurBlock] = {}
        for lam in enumerate_partitions(n, d):
            key = "block_" + "_".join(str(p) for p in lam.parts)
            vectors = data[key]
            blocks[lam] = SchurBlock(lam, dim_u(lam), dim_v(lam), vectors)
    return SchurBasis(n, d, blocks)


def load_or_build_basis(
    n: int, d: int, seed: int | None = None, cache_dir: str | Path | None = None
) -> SchurBasis:
    """Fetch a basis from the cache directory, building and saving on miss.
    ``seed`` is ignored."""
    if cache_dir is None:
        return schur_basis(n, d)
    cache_dir = Path(cache_dir)
    cache_dir.mkdir(parents=True, exist_ok=True)
    path = cache_dir / f"schur_n{n}_d{d}_v{CONSTRUCTION_VERSION}.npz"
    if path.exists():
        return load_basis(path)
    basis = build_schur_basis(n, d)
    save_basis(basis, path)
    return basis


@dataclass(frozen=True)
class StandardForm:
    """Per-block decomposition data of the n-fold power of a bipartite state.

    weights[lam] is the squared amplitude q_lambda; phi[lam] the normalized
    state on the paired unitary-group factors; entangled[lam] the extracted
    multiplicity-factor state, which is maximally entangled and independent
    of the input state. Blocks with negligible weight carry no phi/entangled
    entry.
    """

    n: int
    d: int
    weights: dict[Partition, float]
    phi: dict[Partition, StateVector]
    entangled: dict[Partition, StateVector]
    basis: SchurBasis


def _require_distribution(weights: dict[Partition, float], what: str) -> dict:
    """The weights, unless one is below -1e-12 or their fsum is more than
    1e-9 from 1: then ValueError."""
    total, low = math.fsum(weights.values()), min(weights.values())
    if low < -1e-12 or abs(total - 1.0) > 1e-9:
        raise ValueError(
            f"block weights of {what} are not a distribution: "
            f"sum {total!r}, min {low!r}"
        )
    return weights


def weights_analytic(p: Sequence[float], n: int) -> dict[Partition, float]:
    """Block weights q_lambda = dim_v(lam) * s_lam(p) from the Schmidt
    spectrum alone; fast path that needs no matrices. Raises ValueError
    unless the weights are non-negative and sum to 1, as the matrix routes
    check, and when a dim_v is beyond the float range."""
    try:
        weights = {lam: dim_v(lam) * s for lam, s in schur_polynomials(p, n).items()}
    except OverflowError as exc:
        raise ValueError(f"a dim_v at n={n} is beyond the float range") from exc
    return _require_distribution(weights, f"{tuple(p)} at n={n}")


def standard_form(
    phi: StateVector,
    n: int,
    basis: SchurBasis | None = None,
) -> StandardForm:
    """Decompose |phi>^{(x)n} into weights, paired-block states, and
    maximally entangled multiplicity parts.

    The same block basis is used on both halves; the coefficient matrix in
    that basis is block-diagonal with multiplicity indices paired one-to-one,
    which is verified (cross blocks below 1e-10, factorization residual
    below 1e-8) rather than assumed.
    """
    if len(phi.dims) != 2 or phi.dims[0] != phi.dims[1]:
        raise ValueError(f"need a d x d bipartite state, got dims {phi.dims}")
    d = phi.dims[0]
    # six d^n x d^n complex arrays at the peak, the basis build included
    check_bytes(6 * 16 * d ** (2 * n), f"standard_form at n={n}, d={d}")
    phi = phi.require_normalized()
    if basis is None:
        basis = schur_basis(n, d)

    psi = bipartite_tensor_power(phi, n)
    bmat = basis.matrix
    coeff = bmat.T @ psi @ bmat
    slices = basis.slices()

    # inequivalent blocks must not mix
    residual_sq = 0.0
    for lam_a, sl_a in slices.items():
        for lam_b, sl_b in slices.items():
            if lam_a == lam_b:
                continue
            cross = np.linalg.norm(coeff[sl_a, sl_b])
            if cross > 1e-10:
                raise BasisAlignmentError(
                    f"cross-block amplitude {cross:.2e} between {lam_a} and {lam_b}"
                )
            residual_sq += float(cross**2)

    weights: dict[Partition, float] = {}
    phis: dict[Partition, StateVector] = {}
    ents: dict[Partition, StateVector] = {}
    for lam, sl in slices.items():
        block = basis.blocks[lam]
        du, dv = block.dim_u, block.dim_v
        fb = coeff[sl, sl].reshape(du, dv, du, dv)
        q = float(np.linalg.norm(fb) ** 2)
        weights[lam] = q
        if q <= _WEIGHT_FLOOR:
            residual_sq += q
            continue
        g = fb.transpose(0, 2, 1, 3).reshape(du * du, dv * dv)
        left, svals, right = np.linalg.svd(g, full_matrices=False)
        if svals.size > 1 and svals[1] > 1e-8 * svals[0]:
            raise BasisAlignmentError(
                f"block {lam} does not factor: singular values {svals[:3]}"
            )
        u_vec = left[:, 0]
        v_vec = right[0, :]
        k = int(np.argmax(np.abs(v_vec)))
        phase = v_vec[k] / abs(v_vec[k])
        u_vec = u_vec * phase
        v_vec = v_vec / phase
        rebuilt = (svals[0] * np.outer(u_vec, v_vec)).reshape(du, du, dv, dv)
        residual_sq += float(np.linalg.norm(fb - rebuilt.transpose(0, 2, 1, 3)) ** 2)

        ent = StateVector(v_vec, (dv, dv))
        schmidt = ent.schmidt_coefficients()
        if np.max(np.abs(schmidt - 1.0 / dv)) > 1e-8:
            raise BasisAlignmentError(
                f"multiplicity part of {lam} is not maximally entangled: {schmidt}"
            )
        phis[lam] = StateVector(u_vec, (du, du))
        ents[lam] = ent

    if math.sqrt(residual_sq) > 1e-8:
        raise BasisAlignmentError(
            f"reassembly residual {math.sqrt(residual_sq):.2e} above 1e-8"
        )
    total = sum(weights.values())
    if abs(total - 1.0) > 1e-10:
        raise BasisAlignmentError(f"weights sum to {total}, not 1")
    return StandardForm(n, d, weights, phis, ents, basis)


def weights_by_projector(phi: StateVector, n: int) -> dict[Partition, float]:
    """Independent weight computation: the trace of each character
    projector against rho^{(x)n}, rho the reduced density matrix, by the
    Frobenius formula q_lam = dim_v(lam) sum_mu chi_lam(mu) prod_i
    tr(rho^{mu_i}) / z_mu, with tr(rho^k) from matrix powers of rho; no
    d^n array is built. As sum_mu |chi_lam(mu)| / z_mu <= 1, q_lam rounds
    by about n dim_v(lam) 2^-52 at most: 2.2e-10 at n = 14, under the 1e-9
    weight tolerance, 4.1e-9 at n = 16; so n <= 14. Raises ValueError
    unless the weights are non-negative and sum to 1."""
    if n > _MAX_CHARACTER_N:
        raise ValueError(
            f"n = {n} is above {_MAX_CHARACTER_N}: beyond it the character "
            "sum can round by more than the 1e-9 weight tolerance"
        )
    rho = phi.reduced_density(0)
    traces, power = [1.0], np.eye(rho.shape[0])
    for _ in range(n):
        power = power @ rho
        traces.append(float(np.real(np.trace(power))))
    group = math.factorial(n)
    classes = [
        (mu, math.prod(traces[k] for k in mu.trimmed()) * class_size(mu) / group)
        for mu in enumerate_partitions(n, n)
    ]
    weights = {
        lam: dim_v(lam) * math.fsum(character(lam, mu) * t for mu, t in classes)
        for lam in enumerate_partitions(n, phi.dims[0])
    }
    return _require_distribution(weights, f"the projector route at n={n}")
