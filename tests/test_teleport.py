import math
import tracemalloc

import numpy as np
import pytest

from locclab.partitions import Partition, dim_u, dim_v
from locclab.locc import LoccTranscript
from locclab.schur_weyl import schur_basis, weights_by_projector
from locclab.states import bell_state, product_state, state_from_schmidt
from locclab.teleport import (
    NothingToTeleportError,
    build_plan,
    fidelity_lower_bound,
    good_set,
    ideal_fidelity,
    kraus_operator,
    run_teleport,
    sample_haar_unitary,
)


# ---------------------------------------------------------------- good set


def test_good_set_examples():
    assert [lam.parts for lam in good_set(2, 2)] == [(1, 1)]
    assert [lam.parts for lam in good_set(4, 2)] == [(3, 1), (2, 2)]
    assert good_set(1, 2) == []  # single copies cannot be transferred


def test_good_set_is_dim_comparison():
    for n in (2, 4, 6, 8):
        for d in (2, 3):
            kept = set(good_set(n, d))
            from locclab.partitions import enumerate_partitions

            for lam in enumerate_partitions(n, d):
                assert (lam in kept) == (dim_u(lam) <= dim_v(lam))


# ---------------------------------------------------------------- fidelities


def test_ideal_fidelity_product_state_is_zero():
    for n in (1, 2, 5, 12):
        assert ideal_fidelity((1.0, 0.0), n) == pytest.approx(0.0, abs=1e-15)


def test_ideal_fidelity_bell_values():
    assert ideal_fidelity((0.5, 0.5), 2) == pytest.approx(0.25, abs=1e-12)
    assert ideal_fidelity((0.5, 0.5), 4) == pytest.approx(0.6875, abs=1e-12)
    assert ideal_fidelity((0.5, 0.5), 6) == pytest.approx(57 / 64, abs=1e-12)


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
    plan = build_plan(2, 2)
    rng = np.random.default_rng(3)
    phase = sample_haar_unitary(1, rng)
    op = kraus_operator(plan, {Partition((1, 1)): phase})
    assert op.shape == (1, 4)
    singlet = plan.basis.blocks[Partition((1, 1))].column(0, 0)
    # supported on the singlet line, with unit magnitude there
    overlap = op @ singlet
    assert abs(abs(overlap[0]) - 1.0) < 1e-12
    sym_block = plan.basis.blocks[Partition((2, 0))].vectors
    assert np.max(np.abs(op @ sym_block)) < 1e-12


def test_kraus_annihilates_bad_blocks():
    plan = build_plan(4, 2)
    rng = np.random.default_rng(4)
    unitaries = {lam: sample_haar_unitary(dim_v(lam), rng) for lam in plan.good}
    op = kraus_operator(plan, unitaries)
    bad_block = plan.basis.blocks[Partition((4, 0))].vectors
    assert np.max(np.abs(op @ bad_block)) < 1e-12


def test_kraus_missing_block_rejected():
    plan = build_plan(4, 2)
    with pytest.raises(ValueError):
        kraus_operator(plan, {})


def test_povm_completeness_monte_carlo():
    plan = build_plan(4, 2)
    basis = plan.basis
    slices = basis.slices()
    good_mask = np.zeros(16, dtype=bool)
    for lam in plan.good:
        good_mask[slices[lam]] = True
    projector = basis.matrix[:, good_mask] @ basis.matrix[:, good_mask].T
    rng = np.random.default_rng(0)
    n_samples = 2000
    acc = np.zeros((16, 16), dtype=complex)
    for _ in range(n_samples):
        unitaries = {lam: sample_haar_unitary(dim_v(lam), rng) for lam in plan.good}
        op = kraus_operator(plan, unitaries)
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


def test_run_teleport_transcript():
    res = run_teleport(bell_state(2), 4, 0)
    assert res.transcript is not None
    assert res.transcript.path_probability == pytest.approx(res.success_prob)
    parties = [m.party for m in res.transcript.messages]
    assert parties == ["A", "A", "B"]


@pytest.mark.parametrize("n", [4, 5])
def test_run_teleport_transcript_density_read_from_vector(n):
    res = run_teleport(bell_state(2), n, 0)
    a = res.final_state.amplitudes
    density = np.outer(a, a.conj())
    assert np.array_equal(res.transcript.final_state, density)
    eager = LoccTranscript("eager", res.seed, res.transcript.messages, density)
    assert res.transcript.final_state_hash() == eager.final_state_hash()


def test_run_teleport_transcript_hash_never_holds_the_density():
    res = run_teleport(bell_state(2), 6, 0)
    tracemalloc.start()
    try:
        res.transcript.to_json()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20  # the 4096 x 4096 density alone is 256 MB


def test_run_teleport_product_state_raises():
    with pytest.raises(NothingToTeleportError) as err:
        run_teleport(product_state(2), 3, 0)
    assert "nothing to teleport" in str(err.value)


def test_run_teleport_vacuous_n1():
    res = run_teleport(bell_state(2), 1, 0)
    assert res.status == "vacuous"
    assert res.fidelity == 0.0 and res.success_prob == 0.0
    assert res.final_state is None


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
    basis = form.basis
    slices = basis.slices()
    coeff = np.zeros((16, 16), dtype=complex)
    for lam in res.good:
        block = basis.blocks[lam]
        du, dv = block.dim_u, block.dim_v
        piece = np.einsum(
            "ab,vw->avbw",
            form.phi[lam].amplitudes.reshape(du, du),
            form.entangled[lam].amplitudes.reshape(dv, dv),
        ).reshape(du * dv, du * dv)
        coeff[slices[lam], slices[lam]] = math.sqrt(form.weights[lam]) * piece
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
    slices = basis.slices()
    final = res.final_state.amplitudes.reshape(16, 16)
    coeff = basis.matrix.T @ final @ basis.matrix
    from locclab.schur_weyl import standard_form

    form = standard_form(phi, 4)
    keep = sum(form.weights[lam] for lam in res.good)
    phases = []
    for lam in res.good:
        sl = slices[lam]
        block = basis.blocks[lam]
        du, dv = block.dim_u, block.dim_v
        piece = np.einsum(
            "ab,vw->avbw",
            form.phi[lam].amplitudes.reshape(du, du),
            form.entangled[lam].amplitudes.reshape(dv, dv),
        ).reshape(du * dv, du * dv)
        target_block = math.sqrt(form.weights[lam] / keep) * piece
        inner = np.vdot(target_block, coeff[sl, sl])
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
    with pytest.raises(ValueError):
        run_teleport(bell_state(2), 10, 0)
