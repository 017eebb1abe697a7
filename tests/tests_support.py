"""Shared test helpers."""

import itertools
import math
from typing import Mapping, Sequence

import numpy as np

from locclab.locc import _as_factor, _as_factors, _compress
from locclab.models import PureStateModel
from locclab.partitions import (
    Partition,
    as_spectrum,
    block_table,
    character,
    dim_u,
    dim_v,
    enumerate_partitions,
    relative_entropy,
    schur_array,
    schur_ladder,
    standard_tableaux,
)
from locclab.schur_weyl import BasisAlignmentError, SchurBasis, schur_basis
from locclab.states import StateVector, bipartite_tensor_power, check_bytes, state_from_schmidt
from locclab.teleport import good_set


def random_two_param_model(seed: int) -> PureStateModel:
    """Random smooth two-parameter qubit family with analytic derivatives:
    e^{-i t1 G1} e^{-i t2 G2} |psi0> for random Hermitian G1, G2."""
    rng = np.random.default_rng(seed)
    gens = []
    for _ in range(2):
        g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        gens.append((g + g.conj().T) / 2)
    psi0 = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    psi0 = psi0 / np.linalg.norm(psi0)

    def mat_exp(g, t):
        w, v = np.linalg.eigh(g)
        return v @ np.diag(np.exp(-1j * w * t)) @ v.conj().T

    def state(thetas):
        return np.stack([mat_exp(gens[0], t1) @ mat_exp(gens[1], t2) @ psi0 for t1, t2 in thetas])

    def deriv(thetas):
        out = []
        for t1, t2 in thetas:
            u1, u2 = mat_exp(gens[0], t1), mat_exp(gens[1], t2)
            out.append([-1j * gens[0] @ u1 @ u2 @ psi0, u1 @ (-1j * gens[1]) @ u2 @ psi0])
        return np.array(out)

    return PureStateModel(2, state, deriv, name=f"random-{seed}")


# ----------------------------------------------------------------------
# the outcome operator of one tuple of unitaries, the oracle of Alice's rows


def kraus_operator(
    basis: SchurBasis, unitaries: Mapping[Partition, np.ndarray]
) -> np.ndarray:
    """The outcome operator for one sampled tuple of unitaries, one dim_v x
    dim_v unitary per retained block of ``basis``, as a (1, d^n) matrix on
    Alice's space in the computational basis.

    In block coordinates it reads sqrt(dim_v) U[v, u] at (u, v) of each
    retained block, for u < dim_u, in the block's ``span``. It annihilates
    every block outside the good set, and the average of A^dagger A over
    outcomes is the projector onto the retained subspace. Raises ValueError
    when a retained block has no unitary, or one of the wrong shape or not
    unitary within 1e-10.
    """
    good = good_set(basis.n, basis.d)
    missing = [lam for lam in good if lam not in unitaries]
    if missing:
        raise ValueError(f"missing unitaries for blocks {missing}")
    dim = basis.d**basis.n
    check_bytes(16 * dim, "an outcome operator")
    out = np.zeros(dim, dtype=complex)
    for lam in good:
        block = basis.blocks[lam]
        du, dv = block.dim_u, block.dim_v
        u_mat = np.asarray(unitaries[lam], dtype=complex)
        if u_mat.shape != (dv, dv):
            raise ValueError(f"unitary for {lam} must be {dv}x{dv}")
        if not np.all(np.abs(u_mat.conj().T @ u_mat - np.eye(dv)) <= 1e-10):
            raise ValueError(f"matrix for {lam} is not unitary")
        coeff = math.sqrt(dv) * u_mat[:, :du].T
        out += coeff.reshape(du * dv) @ block.vectors.T
    return np.conj(out, out=out)[None, :]


# ----------------------------------------------------------------------
# the dense block basis: every column on all d^n rows, kept as the oracle the
# weight-block build is compared with. Its u basis on the row-reading tableau
# T0 is the image of the Young symmetrizer R C applied to the strings of the
# semistandard tableaux, each symmetrizer applied to dense vectors through
# its transposition factorization; the Jucys-Murphy eigen-chain the library
# used before is kept beside it (``dense_jm_reference_vectors``), as an
# independent construction of the same (lam, w) spaces. Up to n = 11 every
# image entry and Gram entry is an exact integer.


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


def _letter_counts(length: int, d: int) -> np.ndarray:
    """Torus weight (letter counts) of each of the d^length strings."""
    letters = np.indices((d,) * length).reshape(length, -1)
    return (letters[:, :, None] == np.arange(d)).sum(axis=0)


def semistandard_words(lam: Partition, d: int) -> list[tuple[int, ...]]:
    """The semistandard tableaux of shape lam on the letters 0..d-1, each as
    its entries read row by row, in lexicographic order."""
    parts = lam.trimmed()
    boxes = [(i, j) for i, part in enumerate(parts) for j in range(part)]
    out = []

    def grow(filling):
        if len(filling) == len(boxes):
            out.append(tuple(filling[box] for box in boxes))
            return
        i, j = boxes[len(filling)]
        lo = max(filling.get((i, j - 1), 0), filling.get((i - 1, j), -1) + 1)
        for letter in range(lo, d):
            grow({**filling, (i, j): letter})

    grow({})
    return out


def _symmetrize(vecs: np.ndarray, n: int, d: int, positions, sign: int) -> np.ndarray:
    """sum_p sign^p p over the permutations p of ``positions``, applied to
    each column as prod_j (1 + sign sum_{i<j} (p_i p_j))."""
    for j in range(1, len(positions)):
        swaps = [_swap_factors(vecs, n, d, positions[i], positions[j]) for i in range(j)]
        vecs = vecs + sign * sum(swaps)
    return vecs


def dense_reference_vectors(lam: Partition, d: int) -> np.ndarray:
    """The u basis of the lam block on its row-reading tableau, as d^n x
    dim_u columns: R C e_s for the string s of each semistandard tableau,
    C the column antisymmetrizer and R the row symmetrizer of the tableau,
    Gram-Schmidt within each torus weight in tableau order (a Cholesky
    factor of the Gram matrix, then forward substitution), weights highest
    first, each column's first non-zero entry positive."""
    n = lam.n
    parts = lam.trimmed()
    starts = [sum(parts[:i]) for i in range(len(parts))]
    words = semistandard_words(lam, d)
    assert len(words) == dim_u(lam)
    images = np.zeros((d**n, len(words)))
    images[[np.ravel_multi_index(word, (d,) * n) for word in words], np.arange(len(words))] = 1.0
    for j in range(parts[0]):
        column = [starts[i] + j for i, part in enumerate(parts) if part > j]
        images = _symmetrize(images, n, d, column, -1)
    for start, part in zip(starts, parts):
        images = _symmetrize(images, n, d, list(range(start, start + part)), 1)
    counts = [tuple(word.count(b) for b in range(d)) for word in words]
    out = []
    for weight in sorted(set(counts), reverse=True):
        part = images[:, [t for t, c in enumerate(counts) if c == weight]]
        chol = np.linalg.cholesky(part.T @ part)
        for j in range(part.shape[1]):
            part[:, j] -= part[:, :j] @ chol[j, :j]
            part[:, j] /= chol[j, j]
        first = np.argmax(np.abs(part) > 1e-10, axis=0)
        out.append(part * np.sign(part[first, np.arange(part.shape[1])]))
    return np.hstack(out)


def dense_jm_reference_vectors(lam: Partition, d: int) -> np.ndarray:
    """The lam block's reference vectors as the library built them before
    the Young symmetrizer: W (x) C^d compressed onto X_k = sum_{i<k} (i k)
    per torus weight, cut to the eigenvalue c_k, ordered by weight, highest
    first, each column's first non-zero entry positive. Within a weight
    holding several u vectors (d >= 3) the columns are whatever ``eigh``
    returns, so only the span of each weight's columns is comparable."""
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
        rows_of: dict[tuple[int, ...], list[int]] = {}
        for row, label in enumerate(map(tuple, _letter_counts(k + 1, d).tolist())):
            rows_of.setdefault(label, []).append(row)
        for label, cols in groups.items():
            part = wide[:, cols]
            x = sum(_swap_factors(part, k + 1, d, i, k) for i in range(k))
            rows = rows_of[label]
            evals, evecs = np.linalg.eigh(part[rows].T @ x[rows])
            keep = np.abs(evals - contents[k]) < 0.5
            kept.append(np.zeros((d ** (k + 1), int(keep.sum()))))
            kept[-1][rows] = part[rows] @ evecs[:, keep]
            weights += [label] * int(keep.sum())
        vecs = np.hstack(kept)
        filled[word[k]] += 1
        assert vecs.shape[1] == dim_u(Partition(tuple(filled)))
    vecs = vecs[:, sorted(range(len(weights)), key=weights.__getitem__, reverse=True)]
    first = np.argmax(np.abs(vecs) > 1e-10, axis=0)
    return vecs * np.sign(vecs[first, np.arange(vecs.shape[1])])


def dense_block_vectors(lam: Partition, d: int) -> np.ndarray:
    """Columns u * dim_v + v of the lam block on all d^n rows: Young's
    orthogonal form carries the reference vectors to tableau v."""
    n = lam.n
    words = standard_tableaux(lam)
    ref = dense_reference_vectors(lam, d)
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


def dense_basis_matrix(n: int, d: int) -> np.ndarray:
    """All dense block columns, blocks in ``enumerate_partitions`` order."""
    return np.hstack([dense_block_vectors(lam, d) for lam in enumerate_partitions(n, d)])


# ----------------------------------------------------------------------
# the standard form from the dense coefficient matrix B^T psi B, as the
# library formed it before it read the Schmidt decomposition; kept as the
# oracle of the block route, with its own checks


def dense_standard_form(phi: StateVector, n: int):
    """(weights, phi) of |phi>^(x)n from the dense d^n x d^n coefficients:
    each block's weight its squared norm, its phi the partial trace over v
    normalized. Checked: the amplitude outside the diagonal blocks is at
    most 1e-10, each block of weight above 1e-14 differs from its u part
    times sum_v |v v>/sqrt(dim_v) by at most 1e-8 of its norm, and those
    residuals with the cross-block amplitude (the reassembly residual) are
    at most 1e-8."""
    d = phi.dims[0]
    basis = schur_basis(n, d)
    bmat = basis.matrix
    coeff = bmat.T @ bipartite_tensor_power(phi, n) @ bmat
    widths = [block.dim_u * block.dim_v for block in basis.blocks.values()]
    owner = np.repeat(np.arange(len(widths)), widths)
    cross = float(np.linalg.norm(coeff[owner[:, None] != owner]))
    if cross > 1e-10:
        raise BasisAlignmentError(f"cross-block amplitude {cross:.2e} above 1e-10")
    residual_sq = cross**2
    weights, phis = {}, {}
    for lam, block in basis.blocks.items():
        du, dv = block.dim_u, block.dim_v
        fb = coeff[block.span, block.span].reshape(du, dv, du, dv)
        q = math.fsum((np.abs(fb) ** 2).ravel())  # norm() ** 2 rounds by 1e-14 at d^n = 4096
        weights[lam] = q
        u_part = np.einsum("avbv->ab", fb) / math.sqrt(dv)
        ent = np.eye(dv) / math.sqrt(dv)
        residual = float(np.linalg.norm(fb - np.einsum("ab,vw->avbw", u_part, ent)))
        if q <= 1e-14:
            residual_sq += residual**2
            continue
        if residual > 1e-8 * math.sqrt(q):
            raise BasisAlignmentError(f"block {lam} does not factor: {residual:.2e}")
        phis[lam] = u_part / np.linalg.norm(u_part)
    if math.sqrt(residual_sq) > 1e-8:
        raise BasisAlignmentError(f"reassembly residual {math.sqrt(residual_sq):.2e}")
    return weights, phis


# every size up to d^n = 1024 for d <= 10, where the dense oracle takes at
# most 0.5 s
FORM_ORACLE_SIZES = [(n, d) for d in range(2, 11) for n in range(1, 11) if d**n <= 1024]
# larger d at n <= 2, up to d^n = 1024, and n = 1 at d = 1000, past the d
# at which a recursive enumeration of the partitions met Python's limit
LARGE_D = [(1, 64), (1, 500), (1, 1000), (2, 16), (2, 32)]
# every n <= 12 with a d^n = 4096 (the comparisons run only on request)
SLOW_SIZES = [(12, 2), (6, 4), (4, 8), (3, 16), (2, 64)]


def oracle_inputs(n: int, d: int) -> list[StateVector]:
    """A seeded random complex state and a Schmidt-form one of random
    spectrum, the inputs of the oracle comparisons at (n, d)."""
    rng = np.random.default_rng(100 * d + n)
    amps = rng.standard_normal(d * d) + 1j * rng.standard_normal(d * d)
    spectrum = np.sort(rng.dirichlet(np.ones(d)))[::-1]
    return [StateVector(amps / np.linalg.norm(amps), (d, d)), state_from_schmidt(spectrum)]


def rotated(phi: StateVector, seed: int) -> StateVector:
    """phi under a seeded real orthogonal rotation of each half, Q_A (x) Q_B:
    the same Schmidt spectrum, with an amplitude matrix Q_A M Q_B^T off its
    diagonal, so that ``standard_form`` adds its SVD and irreps."""
    rng = np.random.default_rng(seed)
    q_a, q_b = (np.linalg.qr(rng.standard_normal((len(phi.amplitude_matrix()),) * 2))[0] for _ in "ab")
    return StateVector((q_a @ phi.amplitude_matrix() @ q_b.T).reshape(-1), phi.dims)


def dense_final_state(phi: StateVector, n: int) -> np.ndarray:
    """The transfer protocol's post-recovery state as the library built it
    before it kept the state in block coordinates: block lam of the dense
    coefficients is t_lam (x) 1_v / sqrt(dim_v) on the retained blocks, t the
    conditioned u part, mapped back by the dense basis on both halves, as a
    d^(2n) amplitude vector. It is normalized by its norm in block
    coordinates: a BLAS sum over all d^(2n) entries rounds by up to 5e-14
    at n = 9."""
    d = phi.dims[0]
    basis = schur_basis(n, d)
    weights, phis = dense_standard_form(phi, n)
    good = good_set(n, d)
    success = math.fsum(weights[lam] for lam in good)
    coeff = np.zeros((d**n, d**n), dtype=complex)
    norm_sq = []
    for lam in good:
        if lam in phis:
            block = basis.blocks[lam]
            t = math.sqrt(weights[lam] / success) * phis[lam] / math.sqrt(block.dim_v)
            coeff[block.span, block.span] = np.kron(t, np.eye(block.dim_v))
            norm_sq.append(block.dim_v * np.vdot(t, t).real)
    bmat = basis.matrix
    vec = (bmat @ coeff @ bmat.T).reshape(-1)
    return vec / math.sqrt(math.fsum(norm_sq))


# ----------------------------------------------------------------------
# the transfer protocol's discrete outcome set


def weyl_tables(n: int, d: int) -> dict[Partition, np.ndarray]:
    """The signed Weyl operators s X^a Z^b of each retained block at (n, d),
    as a (dim_v, dim_v, 2, dim_v, dim_v) array indexed [a, b, s], s = +1
    then -1. An outcome of the transfer protocol is one (a, b, s) per block."""
    out = {}
    for lam in good_set(n, d):
        dv = dim_v(lam)
        out[lam] = np.array([
            [[sign * np.roll(np.diag(np.exp(2j * np.pi * b * np.arange(dv) / dv)), a, axis=0)
              for sign in (1, -1)] for b in range(dv)]
            for a in range(dv)
        ])
    return out


def outcome_grid(tables: dict[Partition, np.ndarray]) -> tuple[int, ...]:
    """The (a, b, s) axes of every block, blocks in order."""
    return tuple(size for table in tables.values() for size in table.shape[:3])


def weyl_tuple(tables: dict[Partition, np.ndarray], index) -> dict[Partition, np.ndarray]:
    """The one-outcome tuple at a grid index: block k reads axes 3k..3k+2."""
    return {lam: table[tuple(index[3 * k : 3 * k + 3])]
            for k, (lam, table) in enumerate(tables.items())}


# ----------------------------------------------------------------------
# the Schur evaluator that ran one pass per last part a of the partition,
# as the library had it before it laid every row (mu, a) out at once; kept
# as the bitwise oracle of the one-pass evaluator.


def schur_polynomials_per_last_part(p, n: int) -> list[float]:
    """s_lam(p) of every partition lam of n with at most len(p) parts, in
    ``enumerate_partitions`` order."""
    size, last, table, pred = np.zeros(1, int), np.full(1, n), np.ones(1), []
    for k, x in enumerate(map(float, p), 1):
        count = np.minimum(n - size, last) + 1
        start = np.cumsum(count) - count
        below = np.arange(len(last)) - 1
        values = np.zeros(count.sum())
        for a in range(count.max()):
            u, fits = table * x**a, count > a
            for step in reversed(pred + [np.where(last > a, below, -1)]):
                step, weight = step.copy(), x
                live = np.flatnonzero((step >= 0) & fits)
                while len(live):
                    u[live] += weight * u[step[live]]
                    step[live] = step[step[live]]
                    live = live[step[live] >= 0]
                    weight *= weight
            values[start[fits] + a] = u[fits]
        if k == len(p):
            return values[(start + count - 1)[n - size <= last]][::-1].tolist()
        rows = np.repeat(np.arange(len(count)), count)
        a = np.arange(len(rows)) - start[rows]
        pred = [q[rows] for q in pred + [np.where(last > 0, below, -1)]]
        pred = [np.where((q >= 0) & (a < count[q]), start[q] + a, -1) for q in pred]
        size, last, table = size[rows] + a, a, values


# ----------------------------------------------------------------------
# the spectrum queries as the library had them before they read one weights
# array and the columns of the memoized block table: weights in a dict keyed
# by partition, each dim_v from its own factorials, each retained test and
# simplex point worked out per call; kept as the bitwise oracle of the array
# route.


def _weights_by_dict(p, n: int, values) -> dict[Partition, float]:
    weights = {lam: dim_v(lam) * s for lam, s in zip(enumerate_partitions(n, len(p)), values)}
    total, low = math.fsum(weights.values()), min(weights.values())
    if not (low >= -1e-12 and abs(total - 1.0) <= 1e-9):
        raise ValueError(f"block weights of {tuple(p)} at n={n} are not a distribution")
    return weights


def weights_by_dict(p, n: int) -> dict[Partition, float]:
    """q_lam = dim_v(lam) * s_lam(p) of every block at (n, len(p))."""
    return _weights_by_dict(p, n, schur_ladder(p, n)[n])


def _retained_share(weights: dict[Partition, float]) -> float:
    retained, retired = [], []
    for lam, q in weights.items():
        (retained if dim_u(lam) <= dim_v(lam) else retired).append(q)
    kept = math.fsum(retained)
    return kept / (kept + math.fsum(retired))


def ideal_fidelities_by_dict(p, n_max: int) -> dict[int, float]:
    """The retained share R / (R + T) at every n from 1 to n_max."""
    spectrum = as_spectrum(p)
    ladder = schur_ladder(spectrum, n_max)
    return {
        n: _retained_share(_weights_by_dict(spectrum, n, ladder[n])) for n in range(1, n_max + 1)
    }


def large_deviation_bound_by_dict(p, region, n: int) -> tuple[float, float, bool]:
    """(lhs, rhs, holds) of ``partitions.large_deviation_bound``."""
    spectrum = as_spectrum(p)
    d = len(spectrum)
    points = ((lam.normalized(), q) for lam, q in weights_by_dict(spectrum, n).items())
    members = [(point, q) for point, q in points if region(point)]
    if not members:
        return 0.0, 0.0, True
    lhs = sum(q for _, q in members)
    min_div = min(relative_entropy(point, spectrum) for point, _ in members)
    rhs = (n + 1) ** (d * (d + 1) / 2) * math.exp(-n * min_div)
    return lhs, rhs, lhs <= rhs


# ----------------------------------------------------------------------
# the one-pass evaluator as the library had it before it kept the chains of
# each (n, d) in a memoized plan: it laid out the steps t -> t - e_j and
# chased them by pointer doubling on every call; kept as the bitwise oracle
# of the planned evaluator (no size guard).


def schur_values_by_pointer_chase(p, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The sizes and Schur polynomials s_t(p) of every non-increasing
    d-tuple t with |t| <= n, d = len(p), in increasing lexicographic order,
    as ``partitions._schur_values`` returns them."""
    size, last, table, pred = np.zeros(1, int), np.full(1, n), np.ones(1), []
    for k, x in enumerate(map(float, p), 1):
        count = (np.minimum(n - size, last) + 1).astype(np.int32)
        start = np.cumsum(count, dtype=np.int32) - count
        rows = np.repeat(np.arange(len(count), dtype=np.int32), count)
        a = np.arange(len(rows), dtype=np.int32) - start[rows]
        u = table[rows]
        u *= np.array([x**j for j in range(count.max())])[a]
        below = np.where(last > 0, np.arange(len(last), dtype=np.int32) - 1, -1)
        lifted = []
        for q in reversed(pred + [below] if k > 1 else []):
            q = q[rows]
            step = np.where((q >= 0) & (a < count[q]), start[q] + a, -1)
            if k < len(p):
                lifted.append(step)
                step = step.copy()
            doubling_scan(u, step, x)
        size, last, table, pred = size[rows] + a, a, u, lifted[::-1]
    return size, table


def doubling_scan(u: np.ndarray, step: np.ndarray, x: float) -> None:
    """u[r] += x u[step[r]] along each chain of ``step`` (-1 ends a chain),
    in increasing chain order, by pointer doubling; ``step`` is consumed."""
    weight, live = x, np.flatnonzero(step >= 0).astype(np.int32)
    prev = step[live]
    while len(live):
        term = u[prev]
        term *= weight
        term += u[live]
        u[live] = term
        prev = step[prev]  # read before any row of step moves on
        step[live] = prev
        keep = prev >= 0
        live, prev = live[keep], prev[keep]
        weight *= weight


# ----------------------------------------------------------------------
# the LOCC engine's walk of one state, as the library had it before the walk
# took a stack of states; kept as the oracle of the batched walk. It has no
# QR compression, which leaves the branch densities as they are.


def single_state_paths(protocol, state) -> dict[tuple[str, ...], float]:
    """The outcome law of one state: its factor contracted with every
    branch's Kraus operators, branches of probability at most 1e-15 pruned."""
    out = {}

    def walk(factor, history, prob, idx):
        if idx == len(protocol.rounds):
            out[history] = prob
            return
        rnd = protocol.rounds[idx]
        dim_a, dim_b, cols = factor.shape
        for label, kraus_list in rnd.instrument(history):
            if rnd.party == "A":
                parts = [(k @ factor.reshape(dim_a, -1)).reshape(-1, dim_b, cols)
                         for k in kraus_list]
            else:
                parts = [k @ factor for k in kraus_list]
            new = np.concatenate(parts, axis=2)
            p = float(np.vdot(new, new).real)
            if p > 1e-15:
                walk(new / math.sqrt(p), history + (label,), prob * p, idx + 1)

    walk(_as_factor(state, protocol.dim_a, protocol.dim_b), (), 1.0, 0)
    return out


# ----------------------------------------------------------------------
# the LOCC engine's route of one contraction per Kraus entry, as the library
# had it before each instrument list was stacked; kept as the oracle of the
# stacked route, whose laws must equal its laws bit for bit.


def _act(entry, factors: np.ndarray, party: str) -> np.ndarray:
    """One Kraus entry applied to the party's axis of every factor of the
    stack (B, d_A, d_B, r) by one matmul; a product (E, R) applies R, then
    E."""
    if isinstance(entry, tuple):
        isometry, matrix = entry
        return _act(isometry, _act(matrix, factors, party), party)
    k = np.asarray(entry, dtype=complex)
    if party == "B":
        return k @ factors
    batch, dim_a, dim_b, cols = factors.shape
    return (k @ factors.reshape(batch, dim_a, -1)).reshape(batch, -1, dim_b, cols)


def per_entry_paths(protocol, states) -> list[dict[tuple[str, ...], float]]:
    """The laws of a list of states from one walk of the outcome tree, in
    ``enumerate_paths`` order: each outcome's entries applied one at a time,
    their columns joined, and a branch pruned for the states whose step
    probability is at most 1e-15. Nothing is checked."""
    laws = [{} for _ in states]

    def walk(factors, members, history, probs, idx):
        if idx == len(protocol.rounds):
            for k, value in zip(members.tolist(), probs.tolist()):
                laws[k][history] = value
            return
        rnd = protocol.rounds[idx]
        for label, kraus_list in rnd.instrument(history):
            if not kraus_list:
                continue
            parts = [_act(entry, factors, rnd.party) for entry in kraus_list]
            new, p = _compress(parts[0] if len(parts) == 1 else np.concatenate(parts, axis=3))
            kept = p > 1e-15
            if kept.any():
                walk(new[kept] / np.sqrt(p[kept])[:, None, None, None], members[kept],
                     history + (label,), probs[kept] * p[kept], idx + 1)

    walk(_as_factors(states, protocol.dim_a, protocol.dim_b), np.arange(len(states)), (),
         np.ones(len(states)), 0)
    return laws


# ----------------------------------------------------------------------
# Bob's Kraus operator of the transfer protocol as one dense product, as the
# library formed it before it kept the embedding and the per-outcome
# recovery apart; kept as the oracle of the product entry (E, R). The
# embedding is built by its own pass over the blocks, as the library built
# it before one loop made both parties, so the protocol's E is checked
# against an independent construction.


def _teleport_embedding(basis, good) -> np.ndarray:
    """Isometry from Bob's register, in block coordinates, into the doubled
    register: it moves the received content into the fresh factor and
    installs the maximally entangled multiplicity parts; unused directions
    go to a retired block."""
    real = basis.matrix
    dim = real.shape[0]
    junk = next(
        real[:, block.span.start] for lam, block in basis.blocks.items() if lam not in good
    )
    embed = np.einsum("xc,y->xyc", real.astype(complex), junk)  # every column retired at first
    for lam in good:
        block = basis.blocks[lam]
        du, dv = block.dim_u, block.dim_v
        vecs = real[:, block.span].reshape(dim, du, dv)
        # column u * dv + v with v < du holds sum_w |v w> (x) |u w> / sqrt(dv)
        cols = embed[:, :, block.span].reshape(dim, dim, du, dv)
        cols[..., :du] = np.einsum("xvw,yuw->xyuv", vecs, vecs) / math.sqrt(dv)
    return embed.reshape(dim * dim, dim)


def teleport_embedding(n: int, d: int) -> np.ndarray:
    """The transfer protocol's embedding at (n, d), from the oracle."""
    return _teleport_embedding(schur_basis(n, d), good_set(n, d))


def dense_bob_operator(n: int, d: int, m: int) -> np.ndarray:
    """Bob's d^(2n) x d^n operator after Alice's outcome w{m}: the embedding
    times B^T (B the block basis) with each retained block's rows rotated by
    1 (x) U^T, U that block's Weyl operator at grid index m."""
    basis = schur_basis(n, d)
    tables = weyl_tables(n, d)
    choice = weyl_tuple(tables, np.unravel_index(m, outcome_grid(tables)))
    rotated = np.ascontiguousarray(basis.matrix.T, dtype=complex)
    for lam, w in choice.items():
        span = basis.blocks[lam].span
        rows = rotated[span]
        rotated[span] = (w.T @ rows.reshape(-1, w.shape[0], d**n)).reshape(-1, d**n)
    return teleport_embedding(n, d) @ rotated


# ----------------------------------------------------------------------
# dense symmetric-group oracles, independent of the basis: permutation
# operators and the character projector onto one block, each d^n x d^n


def cycle_type(sigma) -> Partition:
    """Cycle type of a permutation in one-line notation, as a partition."""
    seen, lengths = [False] * len(sigma), []
    for start in range(len(sigma)):
        length, k = 0, start
        while not seen[k]:
            seen[k], k, length = True, sigma[k], length + 1
        if length:
            lengths.append(length)
    return Partition(tuple(sorted(lengths, reverse=True)))


def permutation_operator(sigma, d: int) -> np.ndarray:
    """Operator on (C^d)^{(x)n} moving the content of factor k to factor
    sigma(k); exact 0/1 matrix. Composition follows operator order:
    op(sigma o tau) = op(sigma) op(tau)."""
    n = len(sigma)
    if sorted(sigma) != list(range(n)):
        raise ValueError(f"not a permutation of 0..{n - 1}: {sigma}")
    dim = d**n
    # entry j of the index tensor, axes permuted, is the image of state j
    out = np.arange(dim).reshape((d,) * n).transpose(sigma).ravel()
    mat = np.zeros((dim, dim))
    mat[out, np.arange(dim)] = 1.0
    return mat


def isotypic_projector(lam: Partition, d: int) -> np.ndarray:
    """Orthogonal projector onto the lambda block of (C^d)^{(x)n}, built
    from symmetric-group characters: one scatter-add per permutation."""
    n, dim = lam.n, d**lam.n
    index, cols = np.arange(dim).reshape((d,) * n), np.arange(dim)
    proj = np.zeros((dim, dim))
    for sigma in itertools.permutations(range(n)):
        chi = character(lam, cycle_type(sigma))
        if chi != 0:
            proj[index.transpose(sigma).ravel(), cols] += chi
    proj *= dim_v(lam) / math.factorial(n)
    return proj


# ----------------------------------------------------------------------
# helpers the library had and no command reads, kept as the tests' oracles
# and fixtures


def schur_polynomials(p: Sequence[float], n: int) -> dict[Partition, float]:
    """``schur_array(p, n)`` keyed by partition, in ``block_table(n, d)``
    order."""
    values = schur_array(p, n).tolist()
    return dict(zip((lam for lam, _, _ in block_table(n, len(p))), values))


def shannon_entropy(q: Sequence[float]) -> float:
    """Shannon entropy in nats, with 0 log 0 = 0."""
    return -sum(x * math.log(x) for x in q if x > 0.0)


def entropy_bound_check(lam: Partition) -> tuple[float, float, bool]:
    """Check |log(dim_v)/n - H(lam/n)| <= (d^2+2d)/(2n) * log(n+d).

    Returns (lhs, rhs, holds).
    """
    n = lam.n
    d = lam.num_parts
    lhs = abs(math.log(dim_v(lam)) / n - shannon_entropy(lam.normalized()))
    rhs = (d * d + 2 * d) / (2 * n) * math.log(n + d)
    return lhs, rhs, lhs <= rhs


def reparametrized(model: PureStateModel, a_matrix: np.ndarray) -> PureStateModel:
    """The family theta -> phi_{A theta} for an invertible linear map A."""
    a_mat = np.asarray(a_matrix, dtype=float)
    if a_mat.shape != (model.param_dim, model.param_dim):
        raise ValueError("reparametrization matrix has the wrong shape")
    if abs(np.linalg.det(a_mat)) < 1e-12:
        raise ValueError("reparametrization must be invertible")

    def state(thetas):
        # one matrix-vector product per row, as for a single point
        return model.states((a_mat @ thetas[:, :, None])[:, :, 0])

    def deriv(thetas):
        # the chain rule: axis i sums A[j, i] times the inner family's axis j
        inner = model.derivatives((a_mat @ thetas[:, :, None])[:, :, 0])
        return sum(a_mat[j, :, None] * inner[:, j, None, :] for j in range(model.param_dim))

    return PureStateModel(model.param_dim, state, deriv, name=f"{model.name}@reparam")
