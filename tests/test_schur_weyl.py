import itertools
import math
import os
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from locclab import partitions, schur_weyl, states
from locclab.partitions import (
    BlockDims,
    BlockTable,
    Partition,
    block_rows,
    block_table,
    dim_u,
    dim_v,
    enumerate_partitions,
    standard_tableaux,
)
from locclab.schur_weyl import (
    CONSTRUCTION_VERSION,
    BasisAlignmentError,
    build_schur_basis,
    load_basis,
    load_or_build_basis,
    save_basis,
    schmidt_diagonal,
    schur_basis,
    standard_form,
    weights_analytic,
    weights_by_projector,
)
from locclab.states import (
    StateVector,
    bell_state,
    bipartite_tensor_power,
    product_state,
    state_from_schmidt,
)
from locclab.teleport import (
    NothingToTeleportError,
    good_set,
    ideal_fidelity,
    run_teleport,
    sample_haar_unitary,
)
from tests_support import (
    FORM_ORACLE_SIZES,
    LARGE_D,
    SLOW_SIZES,
    dense_basis_matrix,
    dense_jm_reference_vectors,
    dense_standard_form,
    isotypic_projector,
    oracle_inputs,
    permutation_operator,
    rotated,
    schur_polynomials,
)


def kron_power(mat: np.ndarray, n: int) -> np.ndarray:
    out = np.array([[1.0 + 0j]])
    for _ in range(n):
        out = np.kron(out, mat)
    return out


# ---------------------------------------------------------------- permutation operators


def test_permutation_identity_and_swap():
    assert np.array_equal(permutation_operator((0, 1), 2), np.eye(4))
    swap = permutation_operator((1, 0), 2)
    vec = np.zeros(4)
    vec[0b01] = 1.0  # |01>
    assert np.argmax(swap @ vec) == 0b10


def test_permutation_composition():
    rng = np.random.default_rng(0)
    for n in (3, 4, 6):
        for _ in range(5):
            sigma = tuple(rng.permutation(n))
            tau = tuple(rng.permutation(n))
            composed = tuple(sigma[tau[k]] for k in range(n))
            assert np.allclose(
                permutation_operator(composed, 2),
                permutation_operator(sigma, 2) @ permutation_operator(tau, 2),
            )


def test_permutation_rejects_non_permutation():
    with pytest.raises(ValueError):
        permutation_operator((0, 0, 1), 2)


# ---------------------------------------------------------------- projectors


def test_projector_n2_symmetric_antisymmetric():
    swap = permutation_operator((1, 0), 2)
    assert np.allclose(isotypic_projector(Partition((2, 0)), 2), (np.eye(4) + swap) / 2)
    anti = isotypic_projector(Partition((1, 1)), 2)
    assert np.allclose(anti, (np.eye(4) - swap) / 2)
    assert np.linalg.matrix_rank(anti) == 1


@pytest.mark.parametrize("n,d", [(4, 2), (6, 2), (4, 3)])
def test_projector_properties(n, d):
    total = np.zeros((d**n, d**n))
    for lam in enumerate_partitions(n, d):
        proj = isotypic_projector(lam, d)
        assert np.max(np.abs(proj - proj.T)) < 1e-10
        assert np.max(np.abs(proj @ proj - proj)) < 1e-10
        rank = int(round(np.trace(proj)))
        assert rank == dim_u(lam) * dim_v(lam), str(lam)
        total += proj
    assert np.max(np.abs(total - np.eye(d**n))) < 1e-10


def test_projector_rank_example_31():
    proj = isotypic_projector(Partition((3, 1)), 2)
    assert int(round(np.trace(proj))) == 9


# ---------------------------------------------------------------- basis invariants


ADMITTED = [(7, 3), (5, 4), (4, 5)]


@pytest.mark.parametrize(
    "n,d", [(2, 2), (3, 2), (4, 2), (6, 2), (3, 3), (4, 3)] + ADMITTED
)
def test_basis_orthonormal(n, d):
    basis = schur_basis(n, d)
    mat = basis.matrix
    assert mat.shape == (d**n, d**n)
    assert np.max(np.abs(mat.T @ mat - np.eye(d**n))) < 1e-10


def test_basis_block_dims_small_qubit_cases():
    blocks2 = {lam.parts: (b.dim_u, b.dim_v) for lam, b in schur_basis(2, 2).blocks.items()}
    assert blocks2 == {(2, 0): (3, 1), (1, 1): (1, 1)}
    blocks3 = {lam.parts: (b.dim_u, b.dim_v) for lam, b in schur_basis(3, 2).blocks.items()}
    assert blocks3 == {(3, 0): (4, 1), (2, 1): (2, 2)}


def test_basis_triplet_singlet_vectors():
    basis = schur_basis(2, 2)
    sym = basis.blocks[Partition((2, 0))].vectors[:, 1]  # u = 1, v = 0
    s2 = math.sqrt(0.5)
    assert np.allclose(np.abs(sym), [0, s2, s2, 0])
    singlet = basis.blocks[Partition((1, 1))].vectors[:, 0]
    assert np.allclose(np.abs(singlet), [0, s2, s2, 0])
    assert abs(np.dot(sym, singlet)) < 1e-12


@pytest.mark.parametrize("n,d", [(4, 2), (6, 2), (4, 3)] + ADMITTED)
def test_permutations_act_on_multiplicity_index_only(n, d):
    basis = schur_basis(n, d)
    mat = basis.matrix
    blocks = basis.blocks.values()
    rng = np.random.default_rng(7)
    for _ in range(4):
        sigma = tuple(rng.permutation(n))
        rep = mat.T @ permutation_operator(sigma, d) @ mat
        for a in blocks:
            for b in blocks:
                if a is not b:
                    assert np.max(np.abs(rep[a.span, b.span])) < 1e-10
        for block in blocks:
            du, dv = block.dim_u, block.dim_v
            tensor = rep[block.span, block.span].reshape(du, dv, du, dv)
            pi = tensor[0, :, 0, :]
            for u in range(du):
                for u2 in range(du):
                    expected = pi if u == u2 else np.zeros_like(pi)
                    assert np.max(np.abs(tensor[u, :, u2, :] - expected)) < 1e-10
            assert np.max(np.abs(pi.T @ pi - np.eye(dv))) < 1e-10


@pytest.mark.parametrize("n,d", [(4, 2), (6, 2), (3, 3)])
def test_unitaries_act_on_u_index_only(n, d):
    basis = schur_basis(n, d)
    mat = basis.matrix
    blocks = basis.blocks.values()
    rng = np.random.default_rng(11)
    for _ in range(3):
        u_local = sample_haar_unitary(d, rng)
        rep = mat.T @ kron_power(u_local, n) @ mat
        for a in blocks:
            for b in blocks:
                if a is not b:
                    assert np.max(np.abs(rep[a.span, b.span])) < 1e-10
        for block in blocks:
            du, dv = block.dim_u, block.dim_v
            tensor = rep[block.span, block.span].reshape(du, dv, du, dv)
            act = tensor[:, 0, :, 0]
            for v in range(dv):
                for v2 in range(dv):
                    expected = act if v == v2 else np.zeros_like(act)
                    assert np.max(np.abs(tensor[:, v, :, v2] - expected)) < 1e-10


def test_basis_deterministic():
    a = build_schur_basis(4, 3, seed=0)
    b = build_schur_basis(4, 3, seed=0)
    for lam in a.blocks:
        assert np.array_equal(a.blocks[lam].vectors, b.blocks[lam].vectors)


ORACLE_SIZES = [(n, d) for d in range(1, 46) for n in range(1, 12) if d**n <= 2048]


@pytest.mark.parametrize("n,d", ORACLE_SIZES)
def test_weight_blocks_match_the_dense_construction(n, d):
    basis = build_schur_basis(n, d)
    dense = dense_basis_matrix(n, d)
    for lam, block in basis.blocks.items():
        vectors = block.vectors
        assert vectors.shape == dense[:, block.span].shape
        assert np.max(np.abs(vectors - dense[:, block.span]), initial=0.0) <= 1e-15, str(lam)
    assert np.max(np.abs(basis.matrix - dense)) <= 1e-15


@pytest.mark.parametrize("n,d", ORACLE_SIZES)
def test_weight_spaces_match_the_jucys_murphy_chain(n, d):
    # the Young symmetrizer and the eigen-chain span the same (lam, w)
    # spaces; within a weight of several u vectors their bases differ
    basis = build_schur_basis(n, d)
    for lam, block in basis.blocks.items():
        chain = dense_jm_reference_vectors(lam, d)
        u = 0
        for rows, _, amps in block.pieces:
            ours = amps[:, :: block.dim_v]
            theirs = chain[rows, u : u + ours.shape[1]]
            err = np.max(np.abs(ours @ ours.T - theirs @ theirs.T))
            assert err <= 1e-14, (str(lam), u)
            u += ours.shape[1]
        assert u == block.dim_u == chain.shape[1]


@pytest.mark.parametrize("n,d", [(12, 2), (6, 3), (5, 4), (3, 7)])
def test_basis_stores_only_the_weight_blocks(n, d):
    basis = build_schur_basis(n, d)
    weights = sorted(
        (w for w in itertools.product(range(n + 1), repeat=d) if sum(w) == n), reverse=True
    )
    counts = [math.factorial(n) // math.prod(map(math.factorial, w)) for w in weights]
    assert [len(square) for square in basis.weight_blocks] == counts
    assert basis.amplitudes.size == sum(m * m for m in counts)
    assert schur_weyl._same_weight_pairs(n, d) == sum(m * m for m in counts)


def jucys_murphy(k: int, n: int, d: int) -> np.ndarray:
    """X_k = sum_{i<k} (i k) on (C^d)^{(x)n}, letters counted from 1."""
    out = np.zeros((d**n, d**n))
    for i in range(k - 1):
        sigma = list(range(n))
        sigma[i], sigma[k - 1] = k - 1, i
        out += permutation_operator(sigma, d)
    return out


def word_contents(word: tuple[int, ...]) -> list[int]:
    """Column minus row of each letter of a tableau given by its row word."""
    return [word[:k].count(row) - row for k, row in enumerate(word)]


@pytest.mark.parametrize("n,d", [(6, 2), (4, 3), (3, 4)])
def test_basis_columns_are_jucys_murphy_eigenvectors(n, d):
    basis = schur_basis(n, d)
    xs = [jucys_murphy(k, n, d) for k in range(1, n + 1)]
    for lam, block in basis.blocks.items():
        words = standard_tableaux(lam)
        assert len(words) == block.dim_v
        cols = block.vectors.reshape(d**n, block.dim_u, block.dim_v)
        for v, word in enumerate(words):
            for x, content in zip(xs, word_contents(word)):
                err = np.max(np.abs(x @ cols[:, :, v] - content * cols[:, :, v]))
                assert err < 1e-10, (str(lam), v)


@pytest.mark.parametrize("n,d", [(13, 2), (7, 3), (5, 4), (4, 5), (3, 12), (2, 45)])
def test_reference_columns_are_accurate_eigenvectors_past_the_dense_sizes(n, d):
    # X_k = sum_{i<k} (i k) applied as row permutations of the v = 0 columns,
    # each column held to the content of letter k in the row-reading tableau
    basis = build_schur_basis(n, d)
    cols = basis.references
    words = [standard_tableaux(lam)[0] for lam in basis.blocks]  # the row-reading tableaux
    contents = np.repeat(
        np.array([word_contents(word) for word in words]).T,
        [block.dim_u for block in basis.blocks.values()],
        axis=1,
    )
    codes = np.arange(d**n).reshape((d,) * n)
    for k in range(n):
        x = sum(cols[codes.swapaxes(i, k).ravel()] for i in range(k))
        assert np.max(np.abs(x - contents[k] * cols)) <= 1e-14, k
    assert np.max(np.abs(cols.T @ cols - np.eye(cols.shape[1]))) <= 1e-14


def test_basis_build_memory_at_d3_n7():
    tracemalloc.start()
    try:
        basis = build_schur_basis(7, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    output = sum(block.vectors.nbytes for block in basis.blocks.values())
    assert output == 8 * 3**14
    assert peak < 2 * output


def test_basis_dimension_mismatch_is_an_alignment_error(monkeypatch):
    monkeypatch.setattr(schur_weyl, "dim_u", lambda lam: 1)
    with pytest.raises(BasisAlignmentError, match="not dim_u"):
        build_schur_basis(3, 2)


def test_dependent_tableau_images_are_an_alignment_error(monkeypatch):
    # as many tableaux of (2) as dim_u, but (0, 1) twice and (1, 1) not at
    # all: two equal images in one weight span one vector, not two
    real = schur_weyl._semistandard_strings

    def doubled(lam, d):
        return real(lam, d)[[0, 1, 1]] if lam.parts == (2, 0) else real(lam, d)

    monkeypatch.setattr(schur_weyl, "_semistandard_strings", doubled)
    with pytest.raises(BasisAlignmentError, match="not dim_u"):
        build_schur_basis(2, 2)


def test_schur_basis_memoized_per_size():
    assert schur_basis(4, 3, 0) is schur_basis(4, 3) is schur_basis(4, 3, 5)


# ---------------------------------------------------------------- standard form


def test_standard_form_product_state():
    for n in (2, 3, 5):
        form = standard_form(product_state(2), n)
        for lam, q in form.weights.items():
            expected = 1.0 if lam.parts == (n, 0) else 0.0
            assert q == pytest.approx(expected, abs=1e-12)


def test_standard_form_bell_examples():
    form2 = standard_form(bell_state(2), 2)
    assert form2.weights[Partition((2, 0))] == pytest.approx(0.75, abs=1e-12)
    assert form2.weights[Partition((1, 1))] == pytest.approx(0.25, abs=1e-12)
    form4 = standard_form(bell_state(2), 4)
    assert form4.weights[Partition((4, 0))] == pytest.approx(5 / 16, abs=1e-12)
    assert form4.weights[Partition((3, 1))] == pytest.approx(9 / 16, abs=1e-12)
    assert form4.weights[Partition((2, 2))] == pytest.approx(2 / 16, abs=1e-12)


def test_weights_analytic_examples():
    w5 = weights_analytic((1.0, 0.0), 5)
    assert w5[Partition((5, 0))] == pytest.approx(1.0, abs=1e-12)
    w6 = weights_analytic((0.5, 0.5), 6)
    assert w6[Partition((6, 0))] == pytest.approx(7 / 64, abs=1e-12)
    assert w6[Partition((5, 1))] == pytest.approx(25 / 64, abs=1e-12)
    assert w6[Partition((4, 2))] == pytest.approx(27 / 64, abs=1e-12)
    assert w6[Partition((3, 3))] == pytest.approx(5 / 64, abs=1e-12)
    w4 = weights_analytic((0.8, 0.2), 4)
    assert sum(w4.values()) == pytest.approx(1.0, abs=1e-12)


SKEWED = {
    2: (0.97, 0.03),
    3: (0.97, 0.02, 0.01),
    4: (0.97, 0.01, 0.01, 0.01),
    5: (0.97, 0.012, 0.008, 0.006, 0.004),
}


def integer_det(mat: list[list[int]]) -> int:
    """Fraction-free Gaussian elimination (Bareiss): exact on integers."""
    m = [row[:] for row in mat]
    size, sign, prev = len(m), 1, 1
    for k in range(size - 1):
        if m[k][k] == 0:
            swap = next((r for r in range(k + 1, size) if m[r][k]), None)
            if swap is None:
                return 0
            m[k], m[swap], sign = m[swap], m[k], -sign
        for i in range(k + 1, size):
            for j in range(k + 1, size):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[-1][-1]


def exact_weights(p, n: int) -> dict[Partition, float]:
    """Jacobi-Trudi over exact integers, an independent reference.

    With p_i = a_i / D exactly, q_lam = dim_v(lam) det(h_{lam_i-i+j}(a)) / D^n;
    the only rounding is the final int/int division, which Python rounds
    correctly.
    """
    fracs = [Fraction(x) for x in p]
    den = math.lcm(*(f.denominator for f in fracs))
    ints = [f.numerator * (den // f.denominator) for f in fracs]
    h = [1] + [0] * (n + len(p))  # complete homogeneous h_k(ints)
    for a in ints:
        for k in range(1, len(h)):
            h[k] += a * h[k - 1]
    out = {}
    for lam in enumerate_partitions(n, len(p)):
        shape = lam.trimmed()
        mat = [
            [h[r - i + j] if r - i + j >= 0 else 0 for j in range(len(shape))]
            for i, r in enumerate(shape)
        ]
        out[lam] = dim_v(lam) * integer_det(mat) / den**n
    return out


@pytest.mark.parametrize("d, n", [(4, 40), (4, 60), (5, 30), (5, 40)])
def test_weights_analytic_against_exact_oracle(d, n):
    want = exact_weights(SKEWED[d], n)
    got = weights_analytic(SKEWED[d], n)
    assert list(got) == list(want)
    for lam, q in want.items():
        assert q > 0.0
        assert abs(got[lam] - q) <= 1e-12 * q, str(lam)


@pytest.mark.parametrize(
    "p, n",
    [(SKEWED[4], 60), ((0.4, 0.3, 0.2, 0.1), 60),
     (SKEWED[5], 40), ((0.3, 0.25, 0.2, 0.15, 0.1), 40)],
)
def test_weights_analytic_is_dim_v_times_the_schur_polynomial(p, n):
    values = schur_polynomials(p, n)
    got = weights_analytic(p, n)
    assert list(got) == list(values)
    for lam, s in values.items():
        assert got[lam] == dim_v(lam) * s, str(lam)  # bit for bit


@pytest.mark.parametrize(
    "d, n",
    [(2, 40), (2, 100), (3, 40), (3, 100), (4, 40), (4, 60), (4, 100),
     (5, 30), (5, 40), (5, 60)],
)
def test_weights_analytic_normalized_at_admitted_sizes(d, n):
    weights = weights_analytic(SKEWED[d], n).values()
    assert min(weights) >= 0.0
    assert abs(math.fsum(weights) - 1.0) <= 1e-9


@pytest.mark.parametrize("value", [-1e-6, 0.5, math.nan])
def test_weights_analytic_rejects_a_non_distribution(monkeypatch, value):
    # a negative weight, weights summing to more than 1, or NaN weights
    def broken(p, n):
        return np.full(len(enumerate_partitions(n, len(p))), value)

    monkeypatch.setattr(partitions, "schur_array", broken)
    with pytest.raises(ValueError, match="not a distribution"):
        weights_analytic((0.8, 0.2), 4)


@pytest.mark.parametrize("spectrum", [(0.5, 0.5), (0.8, 0.2), (1.0, 0.0)])
@pytest.mark.parametrize("n", [2, 3, 4, 6])
def test_two_path_weight_agreement(spectrum, n):
    phi = state_from_schmidt(spectrum)
    form = standard_form(phi, n)
    analytic = weights_analytic(spectrum, n)
    for lam, q in analytic.items():
        assert abs(form.weights[lam] - q) < 1e-9, str(lam)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_projector_weight_agreement(n):
    phi = state_from_schmidt((0.7, 0.3))
    analytic = weights_analytic((0.7, 0.3), n)
    projected = weights_by_projector(phi, n)
    for lam, q in analytic.items():
        assert abs(projected[lam] - q) < 1e-9


@pytest.mark.parametrize("spectrum, n", [((0.6, 0.4), 14), ((0.5, 0.3, 0.2), 10)])
def test_projector_weights_beyond_the_permutation_sum(spectrum, n):
    # sizes where summing n! permutation matrices of side d^n is out of reach
    tracemalloc.start()
    try:
        projected = weights_by_projector(state_from_schmidt(spectrum), n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    analytic = weights_analytic(spectrum, n)
    assert projected.keys() == analytic.keys()
    assert max(abs(projected[lam] - q) for lam, q in analytic.items()) < 1e-9
    assert peak < 4 * 2**20


def test_projector_weights_refuse_n_above_14():
    with pytest.raises(ValueError, match="above 14"):
        weights_by_projector(bell_state(2), 15)


def test_projector_weights_must_form_a_distribution(monkeypatch):
    true_character = schur_weyl.character
    monkeypatch.setattr(
        schur_weyl, "character", lambda lam, mu: 2 * true_character(lam, mu)
    )
    with pytest.raises(ValueError, match="not a distribution"):
        weights_by_projector(state_from_schmidt((0.7, 0.3)), 4)


def test_standard_form_rotated_schmidt_basis():
    # weights and multiplicity parts must not care about local basis choice
    rng = np.random.default_rng(3)
    u = sample_haar_unitary(2, rng)
    v = sample_haar_unitary(2, rng)
    base = state_from_schmidt((0.6, 0.4))
    rotated = StateVector(np.kron(u, v) @ base.amplitudes, (2, 2))
    form = standard_form(rotated, 3)
    analytic = weights_analytic((0.6, 0.4), 3)
    for lam, q in analytic.items():
        assert abs(form.weights[lam] - q) < 1e-9


def test_standard_form_d3():
    spectrum = (0.5, 0.3, 0.2)
    phi = state_from_schmidt(spectrum)
    form = standard_form(phi, 3)
    analytic = weights_analytic(spectrum, 3)
    for lam, q in analytic.items():
        assert abs(form.weights[lam] - q) < 1e-9


@pytest.mark.parametrize(
    "phi",
    [state_from_schmidt((0.8, 0.2)), state_from_schmidt((0.7, 0.3)), bell_state(2)],
    ids=["schmidt-0.8", "schmidt-0.7", "bell"],
)
def test_standard_form_reassembly(phi):
    # the same flat multiplicity part 1/sqrt(dim_v) for every input state
    n = 4
    form = standard_form(phi, n)
    basis, parts = schur_basis(n, 2), form.phi
    coeff = np.zeros((2**n, 2**n), dtype=complex)
    for lam, q in form.weights.items():
        if lam not in parts:
            continue
        block = basis.blocks[lam]
        du, dv = block.dim_u, block.dim_v
        assert parts[lam].shape == (du, du)
        piece = np.kron(parts[lam], np.eye(dv) / math.sqrt(dv))
        coeff[block.span, block.span] = math.sqrt(q) * piece
    rebuilt = (basis.matrix @ coeff @ basis.matrix.T).reshape(-1)
    direct = bipartite_tensor_power(phi, n).reshape(-1)
    assert np.linalg.norm(rebuilt - direct) < 1e-8


@pytest.mark.parametrize("d, n", [(1, 3), (2, 1), (2, 5), (3, 4), (4, 3)])
def test_tensor_power_is_bit_identical_to_the_kron_chain(d, n):
    rng = np.random.default_rng(10 * d + n)
    amps = rng.standard_normal(d * d) + 1j * rng.standard_normal(d * d)
    phi = StateVector(amps / np.linalg.norm(amps), (d, d))
    power = bipartite_tensor_power(phi, n)
    assert power.tobytes() == kron_power(phi.amplitude_matrix(), n).tobytes()


@pytest.mark.parametrize("spectrum, n", [((0.9999, 0.0001), 8), ((0.99999, 0.00001), 6)])
def test_standard_form_accepts_blocks_at_the_weight_floor(spectrum, n):
    # some blocks weigh 1e-14 or less; they must not count whole in the residual
    form = standard_form(state_from_schmidt(spectrum), n)
    analytic = weights_analytic(spectrum, n)
    assert min(analytic.values()) <= schur_weyl._WEIGHT_FLOOR
    assert max(abs(form.weights[lam] - q) for lam, q in analytic.items()) <= 1e-9


def _swapped_basis(n, d, w, i, j):
    """The basis with columns i and j of weight block w exchanged, which
    moves them between the v = 0 columns the standard form reads."""
    basis = build_schur_basis(n, d)
    amplitudes = basis.amplitudes.copy()
    sizes = np.array([len(square) for square in basis.weight_blocks])
    square = schur_weyl._weight_blocks(amplitudes, sizes)[w]
    square[:, [i, j]] = square[:, [j, i]]
    return schur_weyl._assemble(n, d, basis.kostka, amplitudes, schur_weyl._torus_weights(n, d))


# not in Schmidt form, so U and V are not the identity: a Schmidt-form input
# has U = V = 1, under which every basis, swapped or not, passes
TWISTED = StateVector(np.array([0.6, 0.2 + 0.3j, -0.1j, 0.5]) / math.sqrt(0.75), (2, 2))


def test_standard_form_and_run_teleport_refuse_mixed_blocks(monkeypatch):
    # weight (2, 1) at n = 3 holds the u = 1 column of the retired block (3)
    # and the (u, v) = (0, 0) and (0, 1) columns of the retained block (2,1)
    retired, kept = Partition((3, 0)), Partition((2, 1))
    assert retired not in good_set(3, 2) and kept in good_set(3, 2)
    swapped = _swapped_basis(3, 2, 1, 0, 1)
    monkeypatch.setattr(schur_weyl, "_memo_basis", lambda n, d: swapped)
    # the irreps are read only when a form's parts are turned
    with pytest.raises(BasisAlignmentError, match="cross-block amplitude"):
        standard_form(TWISTED, 3).phi
    with pytest.raises(BasisAlignmentError, match="cross-block amplitude"):
        run_teleport(TWISTED, 3, 0).final_state
    standard_form(state_from_schmidt((0.7, 0.3)), 3).phi  # U = V = 1 cannot tell


def test_standard_form_refuses_a_block_paired_off_the_maximally_entangled_state(monkeypatch):
    # (u, v) = (0, 0) and (0, 1) of block (2,1) exchanged: its v = 0 columns
    # then hold two different multiplicity indices, so pi_(2,1) is not unitary
    swapped = _swapped_basis(3, 2, 1, 1, 2)
    monkeypatch.setattr(schur_weyl, "_memo_basis", lambda n, d: swapped)
    with pytest.raises(BasisAlignmentError, match=r"pi_\(2,1\)\((U|V\^H)\) is not unitary"):
        standard_form(TWISTED, 3).phi
    with pytest.raises(BasisAlignmentError, match=r"pi_\(2,1\)\((U|V\^H)\) is not unitary"):
        run_teleport(TWISTED, 3, 0).final_state


def test_standard_form_refuses_a_schmidt_decomposition_off_the_state(monkeypatch):
    svd = np.linalg.svd

    def off(mat):
        left, svals, right = svd(mat)
        return left, svals * (1 + 1e-9), right

    monkeypatch.setattr(np.linalg, "svd", off)
    with pytest.raises(BasisAlignmentError, match="Schmidt decomposition residual"):
        standard_form(TWISTED, 3)


def _misplace_a_u_index(monkeypatch):
    """A contents row that puts a u index of block (2,1) on the wrong
    weight: its Kostka row [0, 1, 1, 0] read as [1, 0, 1, 0]."""
    table = block_table(3, 2)
    contents = table.contents.copy()
    first = table[0].dim_u  # block (2,1) follows block (3)
    assert contents[first : first + 2].tolist() == [[2, 1], [1, 2]]
    contents[first] = [3, 0]
    monkeypatch.setitem(vars(table), "contents", contents)


def test_standard_form_refuses_weights_off_the_norm(monkeypatch):
    _misplace_a_u_index(monkeypatch)
    with pytest.raises(BasisAlignmentError, match="weights sum to"):
        standard_form(TWISTED, 3)


def test_standard_form_refuses_frame_weights_off_the_norm(monkeypatch):
    _misplace_a_u_index(monkeypatch)
    with pytest.raises(BasisAlignmentError, match="weights sum to"):
        standard_form(state_from_schmidt((0.7, 0.3)), 3)


# both inputs at every FORM_ORACLE_SIZES size and at a few larger d for
# n <= 2, and the complex one at d^n = 2048 and 2187, where the dense oracle
# takes about 2.5 s
@pytest.mark.parametrize(
    "n,d,which",
    [(n, d, which) for n, d in FORM_ORACLE_SIZES + LARGE_D for which in (0, 1)]
    + [(11, 2, 0), (7, 3, 0)],
)
def test_standard_form_and_success_prob_match_the_dense_oracle(n, d, which):
    check_against_the_dense_oracle(n, d, which)


# every n at d^n = 4096, on both inputs: the dense oracle takes 10-20 s and
# up to 1.6 GB at each, so they run only when LOCCLAB_SLOW is set
@pytest.mark.skipif(not os.environ.get("LOCCLAB_SLOW"), reason="set LOCCLAB_SLOW=1 to run")
@pytest.mark.parametrize(
    "n,d,which", [(n, d, which) for n, d in SLOW_SIZES for which in (0, 1)]
)
def test_standard_form_matches_the_dense_oracle_at_d_n_4096(n, d, which):
    check_against_the_dense_oracle(n, d, which)


def check_against_the_dense_oracle(n, d, which):
    check_form_against_the_dense_oracle(oracle_inputs(n, d)[which], n)


def check_form_against_the_dense_oracle(phi, n):
    d = phi.dims[0]
    form = standard_form(phi, n)
    weights, phis = dense_standard_form(phi, n)
    assert list(form.weights) == list(weights)
    assert max(abs(form.weights[lam] - q) for lam, q in weights.items()) <= 1e-14
    dense = form.phi  # built on every access
    assert dense.keys() == phis.keys()
    for lam, want in phis.items():
        # phi is the block's u part over its norm, so a block of weight q
        # scales the rounding of both routes by 1/sqrt(q): (4,3) at n = 7
        # weighs 1.1e-8 here, and its phi differ by 2.9e-14, its u parts by
        # 3e-18. The u parts are compared, and phi where q >= 1e-2.
        got, q = dense[lam], weights[lam]
        part = math.sqrt(form.weights[lam]) * got - math.sqrt(q) * want
        assert np.max(np.abs(part)) <= 1e-14, str(lam)
        assert q < 1e-2 or np.max(np.abs(got - want)) <= 1e-14, str(lam)
    success = math.fsum(weights[lam] for lam in good_set(n, d))
    if good_set(n, d) and success >= 1e-12:
        assert abs(run_teleport(phi, n, 0).success_prob - success) <= 1e-14
    assert np.max(np.abs(np.array(form.spectrum) - phi.schmidt_coefficients())) <= 1e-15


# a Schmidt form under seeded real rotations of both halves, at sizes of the
# dense oracle: U and V^H are not the identity, so the SVD runs, and the
# block basis's irreps turn the parts when they are read
ROTATED_SIZES = [(1, 2), (4, 2), (7, 2), (9, 2), (2, 3), (5, 3), (3, 4), (2, 6)]


@pytest.mark.parametrize("n,d", ROTATED_SIZES)
def test_a_rotated_schmidt_form_takes_the_basis_route_to_the_frames_weights(n, d, monkeypatch):
    spectrum = oracle_inputs(n, d)[1]
    phi = rotated(spectrum, n)
    assert schmidt_diagonal(spectrum.amplitude_matrix()) is not None
    assert schmidt_diagonal(phi.amplitude_matrix()) is None
    irreps, build, calls, builds = schur_weyl._block_irreps, schur_weyl.build_schur_basis, [], []

    def counted(*args):
        calls.append(args[1])
        return irreps(*args)

    def built(*args):
        builds.append(args)
        return build(*args)

    monkeypatch.setattr(schur_weyl, "_block_irreps", counted)
    monkeypatch.setattr(schur_weyl, "build_schur_basis", built)
    frame = standard_form(spectrum, n)
    twin = run_teleport(spectrum, n, 0)
    assert frame.factors is None is twin.factors
    # neither entry point reads the basis, its irreps or its memo
    before = schur_basis.cache_info()
    form = standard_form(phi, n)
    result = run_teleport(phi, n, 0)
    assert schur_basis.cache_info() == before and calls == [] == builds
    assert list(form.weights) == list(frame.weights)
    assert max(abs(form.weights[lam] - q) for lam, q in frame.weights.items()) <= 1e-12
    assert max(abs(a - b) for a, b in zip(form.spectrum, frame.spectrum)) <= 1e-15
    assert all(x.shape == (dim_u(lam),) for lam, x in form.parts.items())

    # phi turns each part by the irreps of the factors
    pis = irreps(form.factors, n, block_table(n, d))
    dense = form.phi
    assert calls == [n]
    assert dense.keys() == form.parts.keys()
    for lam, x in form.parts.items():
        assert np.array_equal(dense[lam], (pis[lam][0] * x) @ pis[lam][1]), str(lam)

    # the run keeps the final u part of each kept block, the retained blocks
    # that carry a part: sqrt(q / (success dim_v)) times the form's part. A
    # vacuous run reads the singular values alone
    good = good_set(n, d)
    assert abs(result.success_prob - twin.success_prob) <= 1e-14
    if not good:
        assert result.final_blocks is None is twin.final_blocks
    else:
        assert all(np.array_equal(a, b) for a, b in zip(result.factors, form.factors))
        assert list(result.final_blocks) == [lam for lam in good if lam in form.parts]
        for lam, x in result.final_blocks.items():
            scale = form.weights[lam] / (result.success_prob * dim_v(lam))
            want = math.sqrt(scale) * form.parts[lam]
            assert x.shape == want.shape and np.max(np.abs(x - want)) <= 1e-14, str(lam)
    check_form_against_the_dense_oracle(phi, n)


@pytest.mark.parametrize(
    "phi",
    [state_from_schmidt((0.7, 0.3)), state_from_schmidt((0.5, 0.3, 0.2)), bell_state(3),
     product_state(2), StateVector(np.array([0.6, 0, 0, -0.8j]), (2, 2))],
    ids=["schmidt-2", "schmidt-3", "bell-3", "product", "phases"],
)
def test_a_schmidt_form_run_reads_no_basis(phi):
    before = schur_basis.cache_info()
    for n in (2, 5, 8):
        form = standard_form(phi, n)
        analytic = weights_analytic(form.spectrum, n)
        assert max(abs(form.weights[lam] - q) for lam, q in analytic.items()) <= 1e-12
        try:
            run_teleport(phi, n, 0)
        except NothingToTeleportError:  # a product state retains no weight
            assert form.spectrum[0] == 1.0
    assert schur_basis.cache_info() == before


def test_a_diagonal_with_phases_is_its_own_frame():
    # diag(0.6, -0.8i): pi_lam(M) is diag(0.6^c0 (-0.8i)^c1), the Schmidt
    # coefficients are 0.64 and 0.36, and the u parts carry the phases
    phi = StateVector(np.array([0.6, 0, 0, -0.8j]), (2, 2))
    form = standard_form(phi, 3)
    assert form.spectrum == pytest.approx((0.64, 0.36), abs=1e-15)
    analytic = weights_analytic((0.64, 0.36), 3)
    assert max(abs(form.weights[lam] - q) for lam, q in analytic.items()) <= 1e-15
    x = np.diag(form.phi[Partition((2, 1))])
    want = np.array([0.6**2 * -0.8j, 0.6 * (-0.8j) ** 2]) / math.sqrt(0.6**4 * 0.64 + 0.36 * 0.64**2)
    assert np.max(np.abs(x - want)) <= 1e-15
    check_form_against_the_dense_oracle(phi, 3)


# the sizes of the cold basis builds the benchmark ladder times
BASIS_LADDER = (
    [(n, 2) for n in range(6, 13)] + [(n, 3) for n in range(3, 7)]
    + [(n, 4) for n in range(2, 6)] + [(n, 5) for n in range(2, 5)]
)


@pytest.mark.parametrize("n,d", BASIS_LADDER)
def test_contents_column_is_the_kostka_table(n, d):
    # row k holds the letter counts of the k-th v = 0 column: block by block,
    # kostka[i, w] rows of the counts of weight w, weights in basis order
    basis = schur_basis(n, d)
    sizes = np.array([len(square) for square in basis.weight_blocks])
    order = schur_weyl._torus_weights(n, d).order
    firsts = order[np.cumsum(sizes) - sizes]  # a string of each weight
    letters = np.array(np.unravel_index(firsts, (d,) * n)).T
    counts = np.array([np.bincount(word, minlength=d) for word in letters])
    blocks, weights = basis.kostka.shape
    want = counts[np.repeat(np.tile(np.arange(weights), blocks), basis.kostka.ravel())]
    table = block_rows(n, d)  # uncached: the column is built here
    contents = table.contents
    assert contents.dtype == np.min_scalar_type(n)
    assert np.array_equal(contents, want)
    assert (contents.sum(axis=1) == n).all()
    ends = np.cumsum([du for _, du, _ in table])
    assert ends[-1] == len(contents) == basis.references.shape[1]
    assert basis.kostka.sum(axis=1).tolist() == [du for _, du, _ in table]


@pytest.mark.parametrize("n,d", [(n, d) for n, d in BASIS_LADDER if d**n <= 1024])
def test_every_dense_read_is_one_scatter_of_the_weight_blocks(n, d):
    # each read is built on access from the weight blocks, and the memoized
    # basis keeps nothing it made for one
    schur_weyl._memo_basis.cache_clear()
    tracemalloc.start()
    try:
        basis = schur_basis(n, d)
        alone = tracemalloc.get_traced_memory()[0]
        basis.matrix, basis.references
        for block in basis.blocks.values():
            block.vectors
        after = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert after - alone <= 2**16
    matrix = basis.matrix
    for lam, block in basis.blocks.items():
        assert np.array_equal(matrix[:, block.span], block.vectors), str(lam)
    v0 = np.hstack([matrix[:, block.span][:, :: block.dim_v] for block in basis.blocks.values()])
    assert np.array_equal(basis.references, v0)


@pytest.mark.parametrize("n,d", [(1, 1), (5, 1), (1, 3), (2, 7), (30, 2), (8, 3), (3, 9)])
def test_contents_column_counts_dim_u_patterns_per_block(n, d):
    table = block_rows(n, d)
    contents = table.contents
    assert len(contents) == sum(du for _, du, _ in table) == schur_weyl._sum_dim_u(n, d)
    assert (contents.sum(axis=1) == n).all()
    at = 0
    for lam, du, _ in table:
        block = contents[at : at + du].astype(np.int64)
        at += du
        # weights highest first, and the highest is lam itself, once
        assert block[0].tolist() == list(lam.parts) and (block[1:] != block[0]).any(axis=1).all()
        assert all(tuple(a) >= tuple(b) for a, b in zip(block, block[1:]))


def test_contents_column_refuses_a_pattern_count_off_dim_u():
    table = block_rows(4, 2)
    wrong = BlockTable(BlockDims(lam, du + (lam.parts == (3, 1)), dv) for lam, du, dv in table)
    with pytest.raises(RuntimeError, match=r"\(3,1\) has 3 Gelfand-Tsetlin patterns on 2 letters, not dim_u = 4"):
        wrong.contents


@pytest.mark.parametrize("n,d", [(4, 2), (3, 3), (5, 3), (4, 4), (3, 6), (2, 32)])
def test_references_are_the_v0_columns_of_every_block(n, d):
    basis = build_schur_basis(n, d)
    assert "references" not in vars(basis)  # not made by the build
    cols = basis.references
    blocks = list(basis.blocks.values())
    want = np.hstack([block.vectors[:, :: block.dim_v] for block in blocks])
    assert np.array_equal(cols, want)
    # each column lies on strings of the weight of its row of the contents column
    counts = block_table(n, d).contents
    strings = np.array(np.unravel_index(np.arange(d**n), (d,) * n)).T
    string_counts = np.apply_along_axis(np.bincount, 1, strings, minlength=d)
    for k in range(cols.shape[1]):
        rows = np.flatnonzero(cols[:, k])
        assert (string_counts[rows] == counts[k]).all()


@pytest.mark.parametrize("n,d", [(1, 2), (12, 2), (7, 3), (6, 4), (4, 7), (2, 64), (30, 5)])
def test_sum_of_dim_u_in_closed_form(n, d):
    assert schur_weyl._sum_dim_u(n, d) == sum(du for _, du, _ in block_table(n, d))


@pytest.mark.parametrize("n", [2, 4, 8])
def test_a_norm_admitted_off_one_is_no_alignment_error(n):
    # norm 1 + 4e-11 passes the 1e-10 input check, and the n-fold weights
    # then sum to about 1 + 8n * 1e-11
    spectrum = (1 - 1e-9, 1e-9)
    phi = state_from_schmidt(spectrum)
    phi = StateVector(phi.amplitudes * ((1 + 4e-11) / phi.norm()), phi.dims)
    form = standard_form(phi, n)
    analytic = weights_analytic(spectrum, n)
    assert max(abs(form.weights[lam] - q) for lam, q in analytic.items()) <= 1e-9
    fidelity = run_teleport(phi, n, 0).fidelity
    assert fidelity == pytest.approx(ideal_fidelity(spectrum, n), rel=1e-6)


@pytest.mark.parametrize("n,d", [(2, 64), (2, 81), (3, 18), (1, 4828)])
def test_standard_form_admits_the_dense_routes_sizes_at_two_and_three_letters(n, d):
    # the dense route counted 96 d^(2n) bytes, admitting d <= 81 at n = 2 and
    # d <= 18 at n = 3; at n = 1 the SVD's workspace stops the count at 4828
    assert schur_weyl.standard_form_bytes(n, d) <= states._MAX_BYTES
    assert n > 1 or schur_weyl.standard_form_bytes(n, d + 1) > states._MAX_BYTES


def test_standard_form_rejects_bad_input():
    with pytest.raises(ValueError):
        standard_form(StateVector(np.ones(6) / math.sqrt(6), (2, 3)), 2)
    with pytest.raises(ValueError, match="budget"):
        standard_form(rotated(bell_state(3), 0), 117)  # over frame_bytes's size limit
    # the dense parts of a form off its diagonal, over standard_form_bytes's
    with pytest.raises(ValueError, match="^the dense phi at n=16, d=2 needs .* budget$"):
        standard_form(rotated(bell_state(2), 0), 16).phi
    with pytest.raises(ValueError, match="positive"):
        standard_form(bell_state(2), 0)


# ---------------------------------------------------------------- group-averaging checks


def test_cross_block_compressions_vanish():
    # any element of the permutation span is block diagonal across
    # inequivalent blocks
    n, d = 4, 2
    basis = schur_basis(n, d)
    blocks = basis.blocks.values()
    rng = np.random.default_rng(5)
    perms = list(itertools.permutations(range(n)))
    for _ in range(5):
        chosen = rng.choice(len(perms), size=6, replace=False)
        x = sum(
            rng.standard_normal() * permutation_operator(perms[k], d) for k in chosen
        )
        rep = basis.matrix.T @ x @ basis.matrix
        for a in blocks:
            for b in blocks:
                if a is not b:
                    assert np.max(np.abs(rep[a.span, b.span])) < 1e-10


def test_haar_average_is_scalar_on_each_u_block():
    n, d = 4, 2
    samples = 500
    basis = schur_basis(n, d)
    rng = np.random.default_rng(12)
    x = rng.standard_normal((d**n, d**n)) + 1j * rng.standard_normal((d**n, d**n))
    x = (x + x.conj().T) / 2
    x /= np.linalg.norm(x, 2)
    acc = np.zeros_like(x)
    for _ in range(samples):
        u_big = kron_power(sample_haar_unitary(d, rng), n)
        acc += u_big @ x @ u_big.conj().T
    acc /= samples
    rep = basis.matrix.T @ acc @ basis.matrix
    tol = 3.0 / math.sqrt(samples)
    for lam, block in basis.blocks.items():
        du, dv = block.dim_u, block.dim_v
        tensor = rep[block.span, block.span].reshape(du, dv, du, dv)
        for v in range(dv):
            sub = tensor[:, v, :, v]
            scalar = np.trace(sub) / du
            assert np.linalg.norm(sub - scalar * np.eye(du), 2) < tol, str(lam)


# ---------------------------------------------------------------- serialization


def test_basis_round_trip_bit_identical(tmp_path):
    basis = build_schur_basis(4, 2)
    path = save_basis(basis, tmp_path / "basis")
    loaded = load_basis(path)
    assert loaded.n == 4 and loaded.d == 2
    for lam in basis.blocks:
        assert np.array_equal(basis.blocks[lam].vectors, loaded.blocks[lam].vectors)


def test_saved_basis_holds_only_the_weight_blocks(tmp_path):
    basis = build_schur_basis(10, 2)
    path = save_basis(basis, tmp_path / "basis")
    pairs = sum(len(square) ** 2 for square in basis.weight_blocks)
    assert path.stat().st_size <= 8 * pairs + 64 * 1024


@pytest.mark.parametrize("cut", [-5, 3])
def test_load_basis_rejects_blocks_of_another_size(tmp_path, cut):
    path = save_basis(build_schur_basis(4, 3), tmp_path / "basis")
    with np.load(path) as data:
        payload = dict(data)
    amplitudes = payload["amplitudes"]
    payload["amplitudes"] = amplitudes[:cut] if cut < 0 else np.append(amplitudes, [0.0] * cut)
    np.savez(path, **payload)
    with pytest.raises(ValueError, match="weight blocks"):
        load_basis(path)


def test_load_basis_rejects_the_previous_version(tmp_path):
    path = save_basis(build_schur_basis(3, 2), tmp_path / "basis")
    with np.load(path) as data:
        payload = dict(data)
    payload["meta"][-1] = CONSTRUCTION_VERSION - 1
    np.savez(path, **payload)
    with pytest.raises(ValueError, match="cache version"):
        load_basis(path)


def test_load_or_build_ignores_a_stale_version(tmp_path):
    n, d = 3, 3
    # a file as the previous version wrote it, with vectors that a load
    # would return as they are
    fresh = build_schur_basis(n, d)
    stale = tmp_path / f"schur_n{n}_d{d}_s0_v{CONSTRUCTION_VERSION - 1}.npz"
    payload = {"meta": np.array([n, d, 0, CONSTRUCTION_VERSION - 1])}
    for lam, block in fresh.blocks.items():
        key = "block_" + "_".join(str(p) for p in lam.parts)
        payload[key] = np.zeros_like(block.vectors)
    np.savez(stale, **payload)
    basis = load_or_build_basis(n, d, cache_dir=tmp_path)
    for lam in fresh.blocks:
        assert np.array_equal(basis.blocks[lam].vectors, fresh.blocks[lam].vectors)
    assert len(list(tmp_path.iterdir())) == 2


def test_load_or_build_cache_hit(tmp_path):
    first = load_or_build_basis(3, 3, 0, cache_dir=tmp_path)
    second = load_or_build_basis(3, 3, 0, cache_dir=tmp_path)
    for lam in first.blocks:
        assert np.array_equal(first.blocks[lam].vectors, second.blocks[lam].vectors)
