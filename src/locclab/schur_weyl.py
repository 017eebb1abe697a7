"""Explicit matrix-level symmetry decomposition of (C^d)^{(x)n}.

The tensor power splits into blocks indexed by Young indices lambda, each a
product of a unitary-group factor (dimension dim_u) and a symmetric-group
factor (dimension dim_v). This module constructs an orthonormal basis
organized by these blocks, with explicit (u, v) index maps, and extracts the
standard form of the n-fold power of a bipartite pure state: per-block
weights q_lambda, the state-dependent parts phi_lambda, and the maximally
entangled multiplicity parts.

Basis vectors are real throughout: angular-momentum coupling coefficients
are real at d = 2, and for d >= 3 the construction only diagonalizes real
symmetric elements of the permutation-group algebra, whose irreducible
blocks admit real orthogonal bases. Realness is what makes the same basis
usable verbatim on both halves of a bipartite state (the pairing of
multiplicity indices involves an entrywise conjugate).
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
    cycle_type,
    dim_u,
    dim_v,
    enumerate_partitions,
    schur_polynomials,
)
from .states import StateVector, bipartite_tensor_power

CONSTRUCTION_VERSION = 1

_MAX_DIM = 2**14
_MAX_GROUP = 40320  # 8!


class BasisAlignmentError(RuntimeError):
    """The multiplicity-index pairing check failed for a block."""


def _check_size(n: int, d: int):
    if d**n > _MAX_DIM:
        raise ValueError(f"d^n = {d}^{n} exceeds the desk-scale limit {_MAX_DIM}")


def check_joint_size(n: int, d: int):
    """Desk-scale guard for calls on |phi>^{(x)n} of a d x d state.

    Such a call (``standard_form``, a protocol run) works in block
    coordinates: it holds a few d^n x d^n complex matrices and one d^(2n)
    amplitude vector, so (d^2)^n <= 2^14 bounds each of them to 256 KiB.
    No d^(4n) density is built.
    """
    if (d * d) ** n > _MAX_DIM:
        raise ValueError(f"joint dimension (d^2)^n exceeds {_MAX_DIM}")


def _digit_table(n: int, d: int) -> np.ndarray:
    """Base-d digits of 0..d^n-1, most significant digit first."""
    idx = np.arange(d**n)
    digits = np.empty((d**n, n), dtype=np.int64)
    for k in range(n - 1, -1, -1):
        digits[:, k] = idx % d
        idx //= d
    return digits


def permutation_operator(sigma: Sequence[int], d: int) -> np.ndarray:
    """Operator on (C^d)^{(x)n} moving the content of factor k to factor
    sigma(k); exact 0/1 matrix.

    Composition follows operator order: op(sigma o tau) = op(sigma) op(tau).
    """
    n = len(sigma)
    _check_size(n, d)
    if sorted(sigma) != list(range(n)):
        raise ValueError(f"not a permutation of 0..{n - 1}: {sigma}")
    inv = np.empty(n, dtype=np.int64)
    for k, s in enumerate(sigma):
        inv[s] = k
    digits = _digit_table(n, d)
    powers = d ** np.arange(n - 1, -1, -1)
    out = digits[:, inv] @ powers
    dim = d**n
    mat = np.zeros((dim, dim))
    mat[out, np.arange(dim)] = 1.0
    return mat


@lru_cache(maxsize=8)
def _class_sums(n: int, d: int) -> dict[Partition, np.ndarray]:
    """Sum of permutation operators over each conjugacy class."""
    _check_size(n, d)
    if math.factorial(n) > _MAX_GROUP:
        raise ValueError(f"symmetric group of degree {n} is beyond desk scale")
    dim = d**n
    digits = _digit_table(n, d)
    powers = d ** np.arange(n - 1, -1, -1)
    cols = np.arange(dim)
    sums: dict[Partition, np.ndarray] = {}
    for sigma in itertools.permutations(range(n)):
        inv = [0] * n
        for k, s in enumerate(sigma):
            inv[s] = k
        out = digits[:, inv] @ powers
        mu = cycle_type(sigma)
        acc = sums.get(mu)
        if acc is None:
            acc = np.zeros((dim, dim))
            sums[mu] = acc
        acc[out, cols] += 1.0
    return sums


def isotypic_projector(lam: Partition, d: int) -> np.ndarray:
    """Orthogonal projector onto the lambda block of (C^d)^{(x)n}, built
    from symmetric-group characters; hermitian and idempotent."""
    n = lam.n
    sums = _class_sums(n, d)
    dim = d**n
    proj = np.zeros((dim, dim))
    for mu, mat in sums.items():
        chi = character(lam, mu)
        if chi != 0:
            proj += chi * mat
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
    seed: int
    method: str
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


def _cg_couple_qubits(n: int) -> dict[Partition, SchurBlock]:
    """Sequential angular-momentum coupling of n two-level factors.

    Exact real coefficients; the total-spin value j maps to
    lambda = (n/2 + j, n/2 - j), the magnetic index to u, the coupling
    path to v.
    """
    e0 = np.array([1.0, 0.0])
    e1 = np.array([0.0, 1.0])
    # entries: path -> (j2, cols) with j2 = 2j and cols[:, j - m] the m-column
    entries: dict[tuple[int, ...], tuple[int, np.ndarray]] = {
        (): (1, np.stack([e0, e1], axis=1))
    }
    for _ in range(n - 1):
        new_entries: dict[tuple[int, ...], tuple[int, np.ndarray]] = {}
        for path, (j2, cols) in entries.items():
            dim_in = cols.shape[0]

            def col_for(m2: int) -> np.ndarray:
                if abs(m2) > j2:
                    return np.zeros(dim_in)
                return cols[:, (j2 - m2) // 2]

            for up, new_j2 in ((True, j2 + 1), (False, j2 - 1)):
                if new_j2 < 0:
                    continue
                new_cols = np.zeros((dim_in * 2, new_j2 + 1))
                for idx in range(new_j2 + 1):
                    m2 = new_j2 - 2 * idx
                    # coupling j with spin 1/2: coefficients in terms of 2m
                    cu = math.sqrt((j2 + m2 + 1) / (2 * (j2 + 1)))
                    cd = math.sqrt((j2 - m2 + 1) / (2 * (j2 + 1)))
                    if not up:
                        cu, cd = -cd, cu
                    new_cols[:, idx] = cu * np.kron(col_for(m2 - 1), e0) + cd * np.kron(
                        col_for(m2 + 1), e1
                    )
                new_entries[path + (new_j2,)] = (new_j2, new_cols)
        entries = new_entries

    by_j2: dict[int, list[np.ndarray]] = {}
    for path in sorted(entries):
        j2, cols = entries[path]
        by_j2.setdefault(j2, []).append(cols)

    blocks: dict[Partition, SchurBlock] = {}
    for lam in enumerate_partitions(n, 2):
        j2 = lam.parts[0] - lam.parts[1]
        paths = by_j2.get(j2)
        if paths is None:
            continue
        du, dv = j2 + 1, len(paths)
        vectors = np.zeros((2**n, du * dv))
        for u in range(du):
            for v, cols in enumerate(paths):
                vectors[:, u * dv + v] = cols[:, u]
        blocks[lam] = SchurBlock(lam, du, dv, vectors)
    return blocks


def _random_algebra_element(
    n: int, d: int, rng: np.random.Generator, symmetric: bool
) -> np.ndarray:
    """Random real element of the span of permutation operators."""
    dim = d**n
    out = np.zeros((dim, dim))
    for _ in range(2 * n + 2):
        sigma = tuple(int(x) for x in rng.permutation(n))
        coeff = rng.standard_normal()
        mat = permutation_operator(sigma, d)
        out += coeff * (mat + mat.T if symmetric else mat)
    return out


def _split_and_align(
    proj: np.ndarray, du: int, dv: int, n: int, d: int, rng: np.random.Generator
) -> np.ndarray:
    """Basis of one block from its projector.

    A generic symmetric group-algebra element restricted to the block acts
    only on the multiplicity factor, so its eigenspaces are the dv copies of
    the unitary-group factor; a second (non-symmetric) group-algebra element
    provides the intertwiners that align the u index across copies.
    """
    rank = du * dv
    evals, evecs = np.linalg.eigh(proj)
    range_basis = evecs[:, evals > 0.5]
    if range_basis.shape[1] != rank:
        raise BasisAlignmentError(
            f"projector rank {range_basis.shape[1]} != dim_u*dim_v = {rank}"
        )

    for _ in range(5):
        x = _random_algebra_element(n, d, rng, symmetric=True)
        y = range_basis.T @ x @ range_basis
        w, vecs = np.linalg.eigh(y)
        order = np.argsort(-w)
        w, vecs = w[order], vecs[:, order]
        scale = max(1.0, float(np.max(np.abs(w))))
        clusters: list[list[int]] = [[0]]
        for i in range(1, rank):
            if abs(w[i] - w[clusters[-1][0]]) <= 1e-8 * scale:
                clusters[-1].append(i)
            else:
                clusters.append([i])
        if len(clusters) == dv and all(len(c) == du for c in clusters):
            break
    else:
        raise BasisAlignmentError("could not split multiplicity copies")

    copies = [vecs[:, c] for c in clusters]

    # deterministic sign gauge for the reference copy
    ref = copies[0].copy()
    for col in range(du):
        k = int(np.argmax(np.abs(ref[:, col])))
        if ref[k, col] < 0:
            ref[:, col] = -ref[:, col]
    aligned = [ref]

    if dv > 1:
        z = range_basis.T @ _random_algebra_element(n, d, rng, symmetric=False) @ range_basis
        for k in range(1, dv):
            g = copies[k].T @ z @ ref
            ul, sv, vr = np.linalg.svd(g)
            if sv[0] < 1e-10 or (sv[0] - sv[-1]) > 1e-6 * sv[0]:
                raise BasisAlignmentError(
                    f"intertwiner not scalar: singular values {sv}"
                )
            aligned.append(copies[k] @ (ul @ vr))

    vectors = np.zeros((proj.shape[0], rank))
    for u in range(du):
        for v in range(dv):
            vectors[:, u * dv + v] = range_basis @ aligned[v][:, u]
    return vectors


def build_schur_basis(n: int, d: int, seed: int = 0) -> SchurBasis:
    """Deterministic orthonormal block basis of (C^d)^{(x)n}.

    d = 2 uses exact angular-momentum coupling; d >= 3 uses character
    projectors followed by multiplicity splitting and copy alignment.
    """
    _check_size(n, d)
    if d == 2:
        blocks = _cg_couple_qubits(n)
        return SchurBasis(n, d, seed, "coupling", blocks)

    rng = np.random.default_rng(seed)
    blocks: dict[Partition, SchurBlock] = {}
    for lam in enumerate_partitions(n, d):
        du, dv = dim_u(lam), dim_v(lam)
        proj = isotypic_projector(lam, d)
        vectors = _split_and_align(proj, du, dv, n, d, rng)
        blocks[lam] = SchurBlock(lam, du, dv, vectors)
    return SchurBasis(n, d, seed, "projector", blocks)


@lru_cache(maxsize=32)
def schur_basis(n: int, d: int, seed: int = 0) -> SchurBasis:
    """Memoized basis constructor; bases are immutable and shareable."""
    return build_schur_basis(n, d, seed)


def save_basis(basis: SchurBasis, path: str | Path) -> Path:
    """Serialize a basis to a versioned binary cache file."""
    path = Path(path)
    if path.suffix != ".npz":
        path = path.with_suffix(path.suffix + ".npz")
    payload: dict[str, np.ndarray] = {
        "meta": np.array(
            [basis.n, basis.d, basis.seed, CONSTRUCTION_VERSION], dtype=np.int64
        ),
        "method": np.array(basis.method),
    }
    for lam, block in basis.blocks.items():
        key = "block_" + "_".join(str(p) for p in lam.parts)
        payload[key] = block.vectors
    np.savez(path, **payload)
    return path


def load_basis(path: str | Path) -> SchurBasis:
    """Load a basis saved by :func:`save_basis`, bit-identical amplitudes."""
    with np.load(Path(path)) as data:
        n, d, seed, version = (int(x) for x in data["meta"])
        if version != CONSTRUCTION_VERSION:
            raise ValueError(
                f"cache version {version} != supported {CONSTRUCTION_VERSION}"
            )
        method = str(data["method"])
        blocks: dict[Partition, SchurBlock] = {}
        for lam in enumerate_partitions(n, d):
            key = "block_" + "_".join(str(p) for p in lam.parts)
            vectors = data[key]
            blocks[lam] = SchurBlock(lam, dim_u(lam), dim_v(lam), vectors)
    return SchurBasis(n, d, seed, method, blocks)


def load_or_build_basis(
    n: int, d: int, seed: int = 0, cache_dir: str | Path | None = None
) -> SchurBasis:
    """Fetch a basis from the cache directory, building and saving on miss."""
    if cache_dir is None:
        return schur_basis(n, d, seed)
    cache_dir = Path(cache_dir)
    cache_dir.mkdir(parents=True, exist_ok=True)
    path = cache_dir / f"schur_n{n}_d{d}_s{seed}_v{CONSTRUCTION_VERSION}.npz"
    if path.exists():
        return load_basis(path)
    basis = build_schur_basis(n, d, seed)
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


def weights_analytic(p: Sequence[float], n: int) -> dict[Partition, float]:
    """Block weights q_lambda = dim_v(lam) * s_lam(p) from the Schmidt
    spectrum alone; fast path that needs no matrices. Raises ValueError
    unless the weights are non-negative and sum to 1, as the matrix routes
    check."""
    weights = {lam: dim_v(lam) * s for lam, s in schur_polynomials(p, n).items()}
    total, low = math.fsum(weights.values()), min(weights.values())
    if low < -1e-12 or abs(total - 1.0) > 1e-9:
        raise ValueError(
            f"block weights of {tuple(p)} at n={n} are not a distribution: "
            f"sum {total!r}, min {low!r}"
        )
    return weights


def standard_form(
    phi: StateVector,
    n: int,
    basis: SchurBasis | None = None,
    seed: int = 0,
    weight_floor: float = 1e-14,
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
    check_joint_size(n, d)
    phi = phi.require_normalized()
    if basis is None:
        basis = schur_basis(n, d, seed)

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
        if q <= weight_floor:
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
    """Independent weight computation: trace of each character projector
    against the n-fold power of the reduced density matrix."""
    d = phi.dims[0]
    rho = phi.reduced_density(0)
    rho_n = np.array([[1.0 + 0j]])
    for _ in range(n):
        rho_n = np.kron(rho_n, rho)
    out = {}
    for lam in enumerate_partitions(n, d):
        proj = isotypic_projector(lam, d)
        out[lam] = float(np.real(np.trace(proj @ rho_n)))
    return out
