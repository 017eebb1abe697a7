import dataclasses
import math
import sys
import time
import tracemalloc

import numpy as np
import pytest

from locclab import schur_weyl, states, teleport
from locclab.partitions import (
    BlockTable,
    Partition,
    block_rows,
    dim_u,
    dim_v,
    enumerate_partitions,
)
from locclab.schur_weyl import schur_basis, standard_form, weights_by_projector
from locclab.states import StateVector, bell_state, product_state, state_from_schmidt
from locclab.teleport import (
    NothingToTeleportError,
    _retained_weight,
    fidelity_lower_bound,
    good_set,
    ideal_fidelities,
    ideal_fidelity,
    run_teleport,
    sample_haar_unitary,
)
from tests_support import (
    FORM_ORACLE_SIZES,
    dense_final_state,
    kraus_operator,
    oracle_inputs,
    rotated,
)


# ---------------------------------------------------------------- good set


def test_good_set_examples():
    assert [lam.parts for lam in good_set(2, 2)] == [(1, 1)]
    assert [lam.parts for lam in good_set(4, 2)] == [(3, 1), (2, 2)]
    assert good_set(1, 2) == ()  # single copies cannot be transferred


def test_good_set_is_dim_comparison():
    sizes = [(n, d) for n in (2, 4, 6, 8) for d in (2, 3)] + [(60, 4), (40, 5)]
    for n, d in sizes:
        want = tuple(lam for lam in enumerate_partitions(n, d) if dim_u(lam) <= dim_v(lam))
        assert good_set(n, d) == want, (n, d)


# ---------------------------------------------------------------- fidelities


def test_ideal_fidelity_product_state_is_zero():
    for n in (1, 2, 5, 12):
        assert ideal_fidelity((1.0, 0.0), n) == pytest.approx(0.0, abs=1e-15)


def test_ideal_fidelity_skewed_d4_n60():
    assert 0.0 <= ideal_fidelity((0.97, 0.01, 0.01, 0.01), 60) <= 1.0


def test_ideal_fidelity_bell_values():
    assert ideal_fidelity((0.5, 0.5), 2) == pytest.approx(0.25, abs=1e-12)
    assert ideal_fidelity((0.5, 0.5), 4) == pytest.approx(0.6875, abs=1e-12)
    assert ideal_fidelity((0.5, 0.5), 6) == pytest.approx(57 / 64, abs=1e-12)


@pytest.mark.parametrize(
    "p", [(0.5, 0.5), (0.6, 0.4), (0.97, 0.03), (1.0, 0.0), (0.5, 0.3, 0.2)]
)
def test_ideal_fidelities_is_ideal_fidelity_at_every_size(p):
    n_max = 80 if len(p) == 2 else 30
    got = ideal_fidelities(p, n_max)
    assert list(got) == list(range(1, n_max + 1))
    for n, fid in got.items():
        assert fid == ideal_fidelity(p, n), n  # bit for bit


def test_ideal_fidelities_keeps_the_checks_of_ideal_fidelity(monkeypatch):
    with pytest.raises(ValueError, match="not sorted"):
        ideal_fidelities((0.3, 0.7), 5)
    with pytest.raises(ValueError, match="n and d must be positive"):
        ideal_fidelities((0.6, 0.4), 0)

    # a dim_v beyond the float range, first met at n = 3
    def huge_at_3(n, d):
        rows = block_rows(n, d)
        return BlockTable(row._replace(dim_v=10**400) for row in rows) if n == 3 else rows

    monkeypatch.setattr(teleport, "block_rows", huge_at_3)
    with pytest.raises(ValueError, match="a dim_v at n=3 is beyond the float range"):
        ideal_fidelities((0.6, 0.4), 5)
    monkeypatch.undo()

    def negative(p, n):
        return [[1.0]] + [[-1.0] * len(enumerate_partitions(m, len(p))) for m in range(1, n + 1)]

    monkeypatch.setattr(teleport, "schur_ladder", negative)
    with pytest.raises(ValueError, match=r"\(0.6, 0.4\) at n=1 are not a distribution"):
        ideal_fidelities((0.6, 0.4), 3)


@pytest.mark.parametrize("p, n_max", [((0.6, 0.4), 1000), ((0.5, 0.3, 0.2), 100)])
def test_ideal_fidelity_never_exceeds_one(p, n_max, monkeypatch):
    retained_weight = teleport._retained_weight
    plain_sums = []

    def with_plain_sum(table, weights):
        # the retained weights summed as before, beside the reported share
        plain_sums.append(sum(q for q, kept in zip(weights.tolist(), table.retained) if kept))
        return retained_weight(table, weights)

    monkeypatch.setattr(teleport, "_retained_weight", with_plain_sum)
    fids = ideal_fidelities(p, n_max)  # bit for bit ideal_fidelity, checked below
    assert all(0.0 <= fid <= 1.0 for fid in fids.values())
    assert max(abs(fid - old) for fid, old in zip(fids.values(), plain_sums)) <= 1e-14
    for n in (1, 2, 78, n_max // 2, n_max):
        assert ideal_fidelity(p, n) == fids[n], n


def test_a_sweep_past_the_float_range_is_refused_before_it_starts(monkeypatch):
    def no_sweep(p, n):
        raise AssertionError("the sweep started")

    monkeypatch.setattr(teleport, "schur_ladder", no_sweep)
    start = time.perf_counter()
    with pytest.raises(ValueError, match=r"^a dim_v at n=1035 is beyond the float range$"):
        ideal_fidelities((0.6, 0.4), 2000)
    assert time.perf_counter() - start < 2.0
    with pytest.raises(ValueError, match="n=1035"):
        ideal_fidelities((0.6, 0.4), 1035)
    assert teleport._first_float_overflow(1034, 2) is None
    # the largest dim_v of (C^2)^(x)1035 is the first past the float range
    assert max(dim_v(lam) for lam in enumerate_partitions(1035, 2)) > 2**1024 > max(
        dim_v(lam) for lam in enumerate_partitions(1034, 2)
    )


def test_ideal_fidelity_of_an_empty_good_set_is_zero():
    assert good_set(1, 2) == ()
    assert ideal_fidelity((0.6, 0.4), 1) == 0.0


def test_fidelity_lower_bound_examples():
    # d = 2 coefficient is 2
    assert fidelity_lower_bound(0.5, 20, 2) == pytest.approx(
        1 - 2 * 21**3 * 0.5**20, abs=1e-12
    )
    assert fidelity_lower_bound(0.5, 20, 2) == pytest.approx(0.982336, abs=1e-6)
    assert fidelity_lower_bound(0.5, 4, 2) < 0  # vacuous at small n
    with pytest.raises(ValueError):
        fidelity_lower_bound(0.5, 4, 1)
    with pytest.raises(ValueError):
        fidelity_lower_bound(1.5, 4, 2)


def test_fidelity_lower_bound_past_the_float_range_is_finite_and_vacuous():
    # the correction term's first two factors overflow a float from d = 36 at
    # n = 2 and d = 45 at n = 1; at d = 44, n = 1 only their product does
    for p1, n, d in ((1 / 45, 1, 45), (1 / 36, 2, 36), (1 / 44, 1, 44), (0.001, 1, 1000)):
        assert fidelity_lower_bound(p1, n, d) == -sys.float_info.max
    # a term whose first factors overflow but which p1^n brings below 1
    bound = fidelity_lower_bound(0.5, 10**6, 10)
    assert 0.0 < bound <= 1.0
    # just inside the float range the expression is the float one, bit for bit
    assert fidelity_lower_bound(1 / 30, 1, 30) == 1.0 - 30 * math.factorial(57) // (
        math.factorial(28) * math.factorial(29)
    ) * 2 ** (30 * 31 / 2) * (1 / 30)


def test_bound_inequality_sweep():
    for p1 in (0.5, 0.6, 0.75, 0.9):
        spectrum = (p1, 1.0 - p1) if p1 < 1 else (1.0, 0.0)
        for n in range(1, 31):
            assert ideal_fidelity(spectrum, n) >= fidelity_lower_bound(p1, n, 2)


def test_fidelity_monotone_and_slope():
    for p1 in (0.5, 0.6, 0.75, 0.9):
        spectrum = (p1, 1.0 - p1)
        fids = {n: ideal_fidelity(spectrum, n) for n in range(2, 31)}
        for n in range(4, 31, 2):
            assert fids[n] >= fids[n - 2] - 1e-14
        ns = np.arange(10, 31)
        logs = np.log([1.0 - fids[n] for n in ns])
        slope = np.polyfit(ns, logs, 1)[0]
        assert abs(slope - math.log(p1)) <= 0.25 * abs(math.log(p1)), p1


# ---------------------------------------------------------------- outcome sampling


def test_haar_unitary_is_unitary():
    rng = np.random.default_rng(0)
    for dim in (1, 2, 3, 8, 64):
        u = sample_haar_unitary(dim, rng)
        assert np.max(np.abs(u.conj().T @ u - np.eye(dim))) < 1e-12


def test_haar_dim1_is_uniform_phase():
    rng = np.random.default_rng(1)
    samples = np.array([sample_haar_unitary(1, rng)[0, 0] for _ in range(4000)])
    assert np.max(np.abs(np.abs(samples) - 1.0)) < 1e-12
    assert abs(samples.mean()) < 5 / math.sqrt(4000)


def test_haar_mean_vanishes():
    rng = np.random.default_rng(2)
    total = np.zeros((3, 3), dtype=complex)
    n_samples = 10_000
    for _ in range(n_samples):
        total += sample_haar_unitary(3, rng)
    assert np.linalg.norm(total / n_samples, 2) <= 5 / math.sqrt(n_samples) * 3


# ---------------------------------------------------------------- outcome operators


def test_kraus_n2_singlet_structure():
    basis = schur_basis(2, 2)
    rng = np.random.default_rng(3)
    phase = sample_haar_unitary(1, rng)
    op = kraus_operator(basis, {Partition((1, 1)): phase})
    assert op.shape == (1, 4)
    singlet = basis.blocks[Partition((1, 1))].vectors[:, 0]
    # supported on the singlet line, with unit magnitude there
    overlap = op @ singlet
    assert abs(abs(overlap[0]) - 1.0) < 1e-12
    sym_block = basis.blocks[Partition((2, 0))].vectors
    assert np.max(np.abs(op @ sym_block)) < 1e-12


def test_kraus_annihilates_bad_blocks():
    basis = schur_basis(4, 2)
    rng = np.random.default_rng(4)
    unitaries = {lam: sample_haar_unitary(dim_v(lam), rng) for lam in good_set(4, 2)}
    op = kraus_operator(basis, unitaries)
    bad_block = basis.blocks[Partition((4, 0))].vectors
    assert np.max(np.abs(op @ bad_block)) < 1e-12


@pytest.mark.parametrize(
    "unitaries, match",
    [
        ({}, "missing unitaries"),
        ({Partition((3, 1)): np.eye(2), Partition((2, 2)): np.eye(2)}, "must be 3x3"),
        ({Partition((3, 1)): 2 * np.eye(3), Partition((2, 2)): np.eye(2)}, "not unitary"),
    ],
    ids=["missing", "wrong-shape", "not-unitary"],
)
def test_kraus_missing_block_rejected(unitaries, match):
    with pytest.raises(ValueError, match=match):
        kraus_operator(schur_basis(4, 2), unitaries)


def test_povm_completeness_monte_carlo():
    basis = schur_basis(4, 2)
    good = good_set(4, 2)
    good_mask = np.zeros(16, dtype=bool)
    for lam in good:
        good_mask[basis.blocks[lam].span] = True
    projector = basis.matrix[:, good_mask] @ basis.matrix[:, good_mask].T
    rng = np.random.default_rng(0)
    n_samples = 2000
    acc = np.zeros((16, 16), dtype=complex)
    for _ in range(n_samples):
        unitaries = {lam: sample_haar_unitary(dim_v(lam), rng) for lam in good}
        op = kraus_operator(basis, unitaries)
        acc += op.conj().T @ op
    acc /= n_samples
    assert np.linalg.norm(acc - projector, 2) <= 5 / math.sqrt(n_samples)


# ---------------------------------------------------------------- protocol runs


def test_run_teleport_bell_n4():
    res = run_teleport(bell_state(2), 4, 0)
    assert res.status == "ok"
    assert res.fidelity == pytest.approx(0.6875, abs=1e-9)
    assert res.success_prob == pytest.approx(0.6875, abs=1e-9)
    assert res.unconditional_fidelity == pytest.approx(0.6875**2, abs=1e-9)
    assert res.final_state is not None
    assert [lam.parts for lam in res.good] == [(3, 1), (2, 2)]
    # the oracle path: projector weights summed over the retained set
    oracle = sum(
        q
        for lam, q in weights_by_projector(bell_state(2), 4).items()
        if lam in set(res.good)
    )
    assert res.fidelity == pytest.approx(oracle, abs=1e-9)


def test_run_teleport_product_state_raises():
    with pytest.raises(NothingToTeleportError) as err:
        run_teleport(product_state(2), 3, 0)
    assert "nothing to teleport" in str(err.value)


def test_run_teleport_vacuous_n1():
    res = run_teleport(bell_state(2), 1, 0)
    assert res.status == "vacuous"
    assert res.fidelity == 0.0 and res.success_prob == 0.0
    assert res.final_state is None
    assert res.good == () and res.unconditional_fidelity == 0.0
    assert res.bound == pytest.approx(fidelity_lower_bound(0.5, 1, 2), abs=1e-12)


def test_teleport_result_stores_only_what_the_run_computed():
    res = run_teleport(bell_state(2), 4, 0)
    stored = [field.name for field in dataclasses.fields(res)]
    assert stored == [
        "n", "d", "schmidt_spectrum", "success_prob", "final_blocks", "factors", "seed"
    ]
    assert dataclasses.replace(res, n=1).status == "vacuous"


def test_outcome_independence_20_runs():
    finals = [run_teleport(bell_state(2), 4, seed).final_state for seed in range(20)]
    for i in range(len(finals)):
        for j in range(i + 1, len(finals)):
            assert finals[i].fidelity(finals[j]) >= 1 - 1e-9


def test_final_state_matches_standard_form_target():
    phi = state_from_schmidt((0.7, 0.3))
    res = run_teleport(phi, 4, 5)
    from locclab.schur_weyl import standard_form

    form = standard_form(phi, 4)
    basis, parts = schur_basis(4, 2), form.phi
    coeff = np.zeros((16, 16), dtype=complex)
    for lam in res.good:
        block = basis.blocks[lam]
        piece = np.kron(parts[lam], np.eye(block.dim_v) / math.sqrt(block.dim_v))
        coeff[block.span, block.span] = math.sqrt(form.weights[lam]) * piece
    target = (basis.matrix @ coeff @ basis.matrix.T).reshape(-1)
    target /= np.linalg.norm(target)
    overlap = abs(np.vdot(target, res.final_state.amplitudes)) ** 2
    assert overlap >= 1 - 1e-8


def test_coherence_between_blocks_preserved():
    # relative phases of the block components survive the protocol
    phi = state_from_schmidt((0.6, 0.4))
    res = run_teleport(phi, 4, 7)
    from locclab.schur_weyl import schur_basis

    basis = schur_basis(4, 2)
    final = res.final_state.amplitudes.reshape(16, 16)
    coeff = basis.matrix.T @ final @ basis.matrix
    from locclab.schur_weyl import standard_form

    form = standard_form(phi, 4)
    keep = sum(form.weights[lam] for lam in res.good)
    phases, parts = [], form.phi
    for lam in res.good:
        block = basis.blocks[lam]
        piece = np.kron(parts[lam], np.eye(block.dim_v) / math.sqrt(block.dim_v))
        target_block = math.sqrt(form.weights[lam] / keep) * piece
        inner = np.vdot(target_block, coeff[block.span, block.span])
        assert abs(abs(inner) - np.linalg.norm(target_block) ** 2) < 1e-8
        phases.append(inner / abs(inner))
    # one global phase only: all block phases agree
    for p in phases[1:]:
        assert abs(p - phases[0]) < 1e-8


def test_success_probability_monte_carlo():
    res = run_teleport(bell_state(2), 4, 0)
    analytic = ideal_fidelity((0.5, 0.5), 4)
    rng = np.random.default_rng(123)
    shots = 5000
    hits = int(np.sum(rng.random(shots) < res.success_prob))
    sigma = math.sqrt(analytic * (1 - analytic) / shots)
    assert abs(hits / shots - analytic) <= 3 * sigma


@pytest.mark.parametrize(
    "p, n", [((0.5, 0.3, 0.2), 4), ((0.5, 0.5), 7)], ids=["d3-n4", "d2-n7-guard-edge"]
)
def test_run_teleport_memory_at_admitted_sizes(p, n):
    # a d^(4n) density would be 690 MB at d=3 n=4 and 4.3 GB at d=2 n=7
    schur_basis(n, len(p))  # measure the run, not the memoized basis build
    tracemalloc.start()
    try:
        res = run_teleport(state_from_schmidt(p), n, 0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20
    want = ideal_fidelity(p, n)
    assert abs(res.fidelity - want) <= 1e-9
    assert abs(res.success_prob - want) <= 1e-9


def test_run_teleport_rejects_oversize():
    # every input past frame_bytes (at d = 2 the float edge of dim_v comes
    # first): a diagonal one and one off the diagonal
    with pytest.raises(ValueError, match="^run_teleport at n=117, d=3 needs .* budget$"):
        run_teleport(bell_state(3), 117, 0)
    with pytest.raises(ValueError, match="^run_teleport at n=117, d=3 needs .* budget$"):
        run_teleport(rotated(bell_state(3), 0), 117, 0)


def test_a_diagonal_input_takes_no_svd(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("an SVD was taken")

    monkeypatch.setattr(np.linalg, "svd", refuse)
    vacuous = run_teleport(bell_state(1000), 1, 0)  # no block is retained at n = 1
    assert vacuous.status == "vacuous"
    assert vacuous.schmidt_spectrum == pytest.approx((1e-3,) * 1000, abs=1e-18)
    res = run_teleport(state_from_schmidt((0.5, 0.3, 0.2)), 6, 0)
    assert res.schmidt_spectrum == pytest.approx((0.5, 0.3, 0.2), abs=1e-15)
    assert abs(res.success_prob - ideal_fidelity((0.5, 0.3, 0.2), 6)) <= 1e-14


def test_bell_state_at_n16_is_admitted_on_the_frame_route():
    res = run_teleport(bell_state(2), 16, 0)
    assert res.status == "ok" and res.schmidt_spectrum == pytest.approx((0.5, 0.5), abs=1e-15)
    assert abs(res.success_prob - ideal_fidelity((0.5, 0.5), 16)) <= 1e-14


@pytest.mark.parametrize("p, n", [((0.7, 0.3), 200), ((0.5, 0.3, 0.2), 20), ((0.4, 0.3, 0.2, 0.1), 10)])
def test_frame_runs_past_the_basis_sizes_meet_the_ideal_fidelity(p, n):
    res = run_teleport(state_from_schmidt(p), n, 0)
    assert abs(res.success_prob - ideal_fidelity(p, n)) <= 1e-12


@pytest.mark.parametrize("p, n", [((0.7, 0.3), 200), ((0.5, 0.3, 0.2), 20), ((0.4, 0.3, 0.2, 0.1), 12)])
def test_rotated_runs_past_the_basis_sizes_meet_the_ideal_fidelity(p, n):
    # off its diagonal, the same route: the SVD alone, no basis
    before = schur_basis.cache_info()
    res = run_teleport(rotated(state_from_schmidt(p), n), n, 0)
    assert schur_basis.cache_info() == before
    assert abs(res.success_prob - ideal_fidelity(p, n)) <= 1e-12


FINAL_ORACLE_SIZES = [(n, d) for n, d in FORM_ORACLE_SIZES if d**n <= 729]


@pytest.mark.parametrize("n,d", FINAL_ORACLE_SIZES)
def test_final_state_matches_the_dense_oracle(n, d):
    for phi in oracle_inputs(n, d):
        res = run_teleport(phi, n, 3)
        if not good_set(n, d):
            assert res.final_state is None
            continue
        # every input's final u parts are held as their diagonals
        assert all(x.ndim == 1 for x in res.final_blocks.values())
        final = res.final_state
        assert final.dims == (d,) * (2 * n)
        assert np.max(np.abs(final.amplitudes - dense_final_state(phi, n))) <= 1e-14


def test_final_state_is_built_on_access_behind_the_guard(monkeypatch):
    res = run_teleport(state_from_schmidt((0.7, 0.3)), 6, 0)
    # a diagonal input's final u parts are held as their diagonals
    assert all(x.shape == (dim_u(lam),) for lam, x in res.final_blocks.items())
    monkeypatch.setattr(states, "_MAX_BYTES", 2**10)
    with pytest.raises(ValueError, match="^the final state at n=6, d=2 needs .* budget$"):
        res.final_state


@pytest.mark.parametrize("p, n", [((0.5, 0.5), 800), ((0.6, 0.4), 1000)])
def test_large_frame_runs_report_no_figure_above_one(p, n):
    # the success probability is the retained share R / (R + T) of the
    # weights, as ideal_fidelity reads it; a plain sum of the retained
    # weights read 1.0000000000001092 at (0.5, 0.5), n = 800
    before = schur_basis.cache_info()
    res = run_teleport(state_from_schmidt(p), n, 0)
    assert schur_basis.cache_info().misses == before.misses
    assert abs(res.success_prob - ideal_fidelity(p, n)) <= 1e-12
    for figure in (res.success_prob, res.fidelity, res.unconditional_fidelity):
        assert figure <= 1.0


@pytest.mark.parametrize("scale", [1 + 0.9e-10, 1 - 0.9e-10])
@pytest.mark.parametrize("n", [60, 1000])
def test_a_norm_inside_the_tolerance_passes_the_target_check(n, scale):
    # the target's squared norm is |phi|^(2n), 2n 0.9e-10 off 1 here, so the
    # check divides it out
    phi = state_from_schmidt((0.6, 0.4))
    scaled = StateVector(phi.amplitudes * scale, phi.dims)
    assert abs(run_teleport(scaled, n, 0).success_prob - run_teleport(phi, n, 0).success_prob) <= 1e-12


@pytest.mark.parametrize("n", [1, 4, 9])
def test_the_basis_route_reports_the_retained_share(n):
    phi = rotated(state_from_schmidt((0.7, 0.3)), n)
    weights = np.array(list(standard_form(phi, n).weights.values()))
    assert run_teleport(phi, n, 0).success_prob == _retained_weight(block_rows(n, 2), weights)


def test_a_run_past_the_float_edge_of_dim_v_is_a_value_error():
    # n = 1035 at d = 2 passes the frame count, but a dim_v is past the
    # largest float; the same message as block_weights
    message = "^a dim_v at n=1035 is beyond the float range$"
    with pytest.raises(ValueError, match=message):
        run_teleport(state_from_schmidt((0.6, 0.4)), 1035, 0)
    with pytest.raises(ValueError, match=message):
        standard_form(state_from_schmidt((0.6, 0.4)), 1035)
    res = run_teleport(state_from_schmidt((0.6, 0.4)), 1034, 0)
    assert res.status == "ok" and res.success_prob <= 1.0


def test_a_vacuous_run_is_admitted_up_to_about_the_presets_edge(monkeypatch):
    # the frame count grows with sum dim_u = d at n = 1, so a vacuous run at
    # large d is admitted nearly as far as the preset state itself: under a
    # 2^20 budget the preset admits d <= 256 (16 d^2 bytes) and the run
    # d <= 199, where a count with the dense u parts (48 d^2 bytes for them
    # at n = 1) stopped it at d = 106
    monkeypatch.setattr(states, "_MAX_BYTES", 2**20)
    edge = max(d for d in range(2, 257) if schur_weyl.frame_bytes(1, d) <= 2**20)
    assert edge == 199 and 48 * edge**2 > 2**20
    res = run_teleport(bell_state(edge), 1, 0)
    assert res.status == "vacuous" and len(res.schmidt_spectrum) == edge
    with pytest.raises(ValueError, match="budget$"):
        run_teleport(bell_state(edge + 1), 1, 0)


def test_the_count_refuses_a_huge_n_before_any_block_table_is_read(monkeypatch):
    def refuse(*args):
        raise AssertionError("a block table was read before the count")

    for module in (teleport, schur_weyl):
        monkeypatch.setattr(module, "block_table", refuse)
    monkeypatch.setattr(teleport, "good_set", refuse)
    start = time.perf_counter()
    with pytest.raises(ValueError, match="^run_teleport at n=1000000, d=2 needs .* budget$"):
        run_teleport(bell_state(2), 10**6, 0)
    with pytest.raises(ValueError, match="^standard_form at n=1000000, d=3 needs .* budget$"):
        standard_form(bell_state(3), 10**6)
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("n, p", [(30, (0.5, 0.3, 0.2)), (14, (0.4, 0.3, 0.2, 0.1))])
def test_the_frame_route_forms_no_dim_u_square(n, p):
    # every u part is kept as its diagonal: the traced peak of a warm call
    # stays under a tenth of one real dim_u x dim_u array of the widest block
    # (at d >= 3 the widest dim_u^2 outgrows sum dim_u)
    phi = state_from_schmidt(p)
    widest = max(du for _, du, _ in block_rows(n, len(p)))
    calls = [
        (lambda: standard_form(phi, n), lambda form: form.parts),
        (lambda: run_teleport(phi, n, 0), lambda res: res.final_blocks),
    ]
    for call, parts in calls:
        # the block table and its columns are memoized here
        assert all(x.ndim == 1 for x in parts(call()).values())
        tracemalloc.start()
        try:
            call()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * widest**2 / 10


def test_the_dense_phi_is_built_on_access_behind_its_count(monkeypatch):
    form = standard_form(state_from_schmidt((0.7, 0.3)), 30)
    lam = Partition((20, 10))
    assert form.parts[lam].shape == (11,)
    dense = form.phi[lam]
    assert dense.shape == (11, 11) and np.array_equal(np.diag(form.parts[lam]), dense)
    monkeypatch.setattr(states, "_MAX_BYTES", 2**10)
    with pytest.raises(ValueError, match="^the dense phi at n=30, d=2 needs .* budget$"):
        form.phi
    assert form.parts[lam].shape == (11,)  # the diagonals are still there
