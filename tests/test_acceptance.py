"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Tolerances are fixed here and are not calibrated anywhere else.
"""

import math
import time

import numpy as np

from locclab.cli import main as cli_main
from locclab.estimation import (
    fisher_data,
    locc_gap,
    weighted_cr_value,
)
from locclab.locc import (
    enumerate_paths,
    random_adaptive_protocol,
    random_qubit_model,
    two_stage_estimate,
    verify_fisher_additivity,
)
from locclab.models import anticopy_pair, product_model, real_amplitude
from locclab.partitions import (
    dim_u,
    enumerate_partitions,
    large_deviation_bound,
)
from locclab.schur_weyl import (
    schur_basis,
    standard_form,
    weights_analytic,
    weights_by_projector,
)
from locclab.states import bell_state, product_state, state_from_schmidt
from locclab.teleport import (
    NothingToTeleportError,
    good_set,
    fidelity_lower_bound,
    ideal_fidelity,
    run_teleport,
    sample_haar_unitary,
)
from tests_support import entropy_bound_check, reparametrized


def report(num: int, name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"ACCEPTANCE {num:2d} [{name}]: {status}{suffix}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def test_criterion_01_weight_two_path_agreement():
    start = time.time()
    worst = 0.0
    for spectrum in [(0.5, 0.5), (0.8, 0.2), (1.0, 0.0)]:
        phi = state_from_schmidt(spectrum)
        for n in (2, 3, 4, 6):
            analytic = weights_analytic(spectrum, n)
            projector = weights_by_projector(phi, n)
            form = standard_form(phi, n)
            for lam, q in analytic.items():
                worst = max(worst, abs(projector[lam] - q))
                worst = max(worst, abs(form.weights[lam] - q))
    elapsed = time.time() - start
    report(
        1,
        "weights two-path agreement",
        worst <= 1e-9 and elapsed < 30.0,
        f"max deviation {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_02_bell_teleport_fidelities():
    expected = {2: 0.25, 4: 0.6875, 6: 57 / 64}
    worst = 0.0
    for n, target in expected.items():
        analytic = ideal_fidelity((0.5, 0.5), n)
        oracle = sum(
            q
            for lam, q in weights_by_projector(bell_state(2), n).items()
            if lam in good_set(n, 2)
        )
        worst = max(worst, abs(analytic - target), abs(oracle - target))
    res = run_teleport(bell_state(2), 4, 0)
    worst = max(worst, abs(res.fidelity - 0.6875))
    # the run itself verifies the final state against the analytic target at
    # 1e-8; re-check the achieved overlap explicitly
    form = standard_form(bell_state(2), 4)
    basis, phi = schur_basis(4, 2), form.phi
    coeff = np.zeros((16, 16), dtype=complex)
    for lam in res.good:
        block = basis.blocks[lam]
        piece = np.kron(phi[lam], np.eye(block.dim_v) / math.sqrt(block.dim_v))
        coeff[block.span, block.span] = math.sqrt(form.weights[lam]) * piece
    target_vec = (basis.matrix @ coeff @ basis.matrix.T).reshape(-1)
    target_vec /= np.linalg.norm(target_vec)
    overlap = abs(np.vdot(target_vec, res.final_state.amplitudes)) ** 2
    report(
        2,
        "transfer fidelities + final state",
        worst <= 1e-9 and overlap >= 1 - 1e-8,
        f"max fidelity deviation {worst:.2e}, final-state overlap 1-{1 - overlap:.1e}",
    )


def test_criterion_03_bound_inequality_and_decay_rate():
    ok = True
    worst_rel = 0.0
    for p1 in (0.5, 0.6, 0.75, 0.9):
        spectrum = (p1, 1.0 - p1)
        fids = {n: ideal_fidelity(spectrum, n) for n in range(1, 31)}
        for n in range(1, 31):
            if fids[n] < fidelity_lower_bound(p1, n, 2):
                ok = False
        ns = np.arange(10, 31)
        slope = np.polyfit(ns, np.log([1 - fids[n] for n in ns]), 1)[0]
        rel = abs(slope - math.log(p1)) / abs(math.log(p1))
        worst_rel = max(worst_rel, rel)
    report(
        3,
        "bound inequality + decay slope",
        ok and worst_rel <= 0.25,
        f"worst slope mismatch {worst_rel:.1%}",
    )


def test_criterion_04_product_state_behavior():
    exact_zero = all(
        ideal_fidelity((1.0, 0.0), n) == 0.0 for n in range(1, 13)
    )
    structured = False
    try:
        run_teleport(product_state(2), 3, 0)
    except NothingToTeleportError as err:
        structured = "nothing to teleport" in str(err)
    report(4, "product states: zero fidelity, structured refusal",
           exact_zero and structured)


def test_criterion_05_povm_completeness():
    from tests_support import kraus_operator

    start = time.time()
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
        unitaries = {
            lam: sample_haar_unitary(basis.blocks[lam].dim_v, rng)
            for lam in good
        }
        op = kraus_operator(basis, unitaries)
        acc += op.conj().T @ op
    acc /= n_samples
    deviation = float(np.linalg.norm(acc - projector, 2))
    tol = 5 / math.sqrt(n_samples)
    elapsed = time.time() - start
    report(
        5,
        "POVM completeness (Monte-Carlo)",
        deviation <= tol and elapsed < 60.0,
        f"op-norm deviation {deviation:.4f} <= {tol:.4f}, {elapsed:.1f}s",
    )


def test_criterion_06_outcome_independence():
    finals = [run_teleport(bell_state(2), 4, seed).final_state for seed in range(20)]
    worst = 1.0
    for i in range(len(finals)):
        for j in range(i + 1, len(finals)):
            worst = min(worst, finals[i].fidelity(finals[j]))
    report(6, "outcome independence across 20 runs", worst >= 1 - 1e-9,
           f"min pairwise fidelity 1-{1 - worst:.1e}")


def test_criterion_07_block_weight_bounds():
    entropy_ok = True
    rate_ok = True
    for d in (2, 3):
        for n in range(1, 13):
            for lam in enumerate_partitions(n, d):
                if not entropy_bound_check(lam)[2]:
                    entropy_ok = False
                if n >= 2 and math.log(dim_u(lam)) > d * d * math.log(n):
                    rate_ok = False
    ld_ok = True
    for n in range(1, 13):
        lhs, rhs, holds = large_deviation_bound((0.5, 0.5), lambda q: True, n)
        ld_ok &= holds and abs(lhs - 1.0) < 1e-10 and rhs >= 1.0
    ld_ok &= large_deviation_bound((0.9, 0.1), lambda q: q[0] <= 0.5, 12)[2]
    ld_ok &= large_deviation_bound((0.5, 0.5), lambda q: False, 6)[2]
    report(7, "dimension/weight bounds", entropy_ok and rate_ok and ld_ok)


def test_criterion_08_group_averaging_suite():
    import itertools

    n, d = 4, 2
    basis = schur_basis(n, d)
    blocks = basis.blocks.values()
    rng = np.random.default_rng(5)
    perms = list(itertools.permutations(range(n)))
    from tests_support import permutation_operator

    worst_cross = 0.0
    for _ in range(5):
        chosen = rng.choice(len(perms), size=6, replace=False)
        x = sum(
            rng.standard_normal() * permutation_operator(perms[k], d)
            for k in chosen
        )
        rep = basis.matrix.T @ x @ basis.matrix
        for a in blocks:
            for b in blocks:
                if a is not b:
                    worst_cross = max(worst_cross, float(np.max(np.abs(rep[a.span, b.span]))))

    samples = 500
    rng = np.random.default_rng(12)
    x = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
    x = (x + x.conj().T) / 2
    x /= np.linalg.norm(x, 2)
    acc = np.zeros_like(x)
    for _ in range(samples):
        u_local = sample_haar_unitary(2, rng)
        u_big = np.array([[1.0 + 0j]])
        for _ in range(n):
            u_big = np.kron(u_big, u_local)
        acc += u_big @ x @ u_big.conj().T
    acc /= samples
    rep = basis.matrix.T @ acc @ basis.matrix
    tol = 3.0 / math.sqrt(samples)
    worst_scalar = 0.0
    for block in blocks:
        du, dv = block.dim_u, block.dim_v
        tensor = rep[block.span, block.span].reshape(du, dv, du, dv)
        for v in range(dv):
            sub = tensor[:, v, :, v]
            scalar = np.trace(sub) / du
            worst_scalar = max(
                worst_scalar, float(np.linalg.norm(sub - scalar * np.eye(du), 2))
            )
    report(
        8,
        "group-averaging (decoherence + scalarity)",
        worst_cross <= 1e-10 and worst_scalar <= tol,
        f"cross {worst_cross:.1e}, scalar dev {worst_scalar:.3f} <= {tol:.3f}",
    )


def test_criterion_09_anticopy_example():
    theta = [1.0, 0.7]
    model_a, model_b = anticopy_pair()
    data_a = fisher_data(model_a, theta)
    data_b = fisher_data(model_b, theta)
    data_p = fisher_data(product_model(model_a, model_b), theta)
    js_dev = float(np.max(np.abs(data_a.j_s - data_b.j_s)))
    gap = locc_gap(1.0, 1.0, 1.0, 1.0, "-")
    ok = (
        abs(data_a.betas[0] - 1.0) <= 1e-8
        and abs(data_b.betas[0] - 1.0) <= 1e-8
        and abs(data_p.betas[0]) <= 1e-8
        and js_dev <= 1e-10
        and gap.gap == 1.0
        and weighted_cr_value([0.0]) == 2.0
        and weighted_cr_value([1.0]) == 4.0
    )
    report(9, "conjugate-pair example", ok,
           f"betas ({data_a.betas[0]:.9f}, {data_b.betas[0]:.9f}, "
           f"{data_p.betas[0]:.1e}), gap {gap.gap}")


def test_criterion_10_additivity_fuzz():
    worst = 0.0
    accepted = 0
    seed = 0
    while accepted < 50:
        seed += 1
        rng = np.random.default_rng(seed)
        protocol = random_adaptive_protocol(rng, rounds=2 + seed % 2)
        model_a = random_qubit_model(np.random.default_rng(1000 + seed))
        model_b = random_qubit_model(np.random.default_rng(2000 + seed))
        theta0 = 0.15 + 0.013 * seed
        dist = enumerate_paths(protocol, product_model(model_a, model_b).state([theta0]))
        if min(dist.values()) < 1e-3:
            continue  # keep finite differences well conditioned
        res = verify_fisher_additivity(protocol, model_a, model_b, [theta0])
        worst = max(worst, res.cross)
        accepted += 1
    report(10, "information additivity fuzz (50 protocols)", worst <= 1e-8,
           f"worst cross term {worst:.1e}")


def test_criterion_11_gram_additivity_and_invariance():
    worst = 0.0
    rng = np.random.default_rng(9)
    theta = np.array([0.9, 0.4])
    from tests_support import random_two_param_model

    for seed in range(10):
        model_a = random_two_param_model(seed)
        model_b = random_two_param_model(seed + 100)
        prod = product_model(model_a, model_b)
        data_a = fisher_data(model_a, theta)
        data_b = fisher_data(model_b, theta)
        data_p = fisher_data(prod, theta)
        worst = max(worst, float(np.max(np.abs(data_p.j_s - data_a.j_s - data_b.j_s))))
        worst = max(
            worst, float(np.max(np.abs(data_p.j_tilde - data_a.j_tilde - data_b.j_tilde)))
        )
        a_mat = rng.standard_normal((2, 2)) + 2 * np.eye(2)
        moved = reparametrized(model_a, a_mat)
        data_m = fisher_data(moved, np.linalg.solve(a_mat, theta))
        worst = max(
            worst,
            float(np.max(np.abs(np.array(data_m.betas) - np.array(data_a.betas)))),
        )
    report(11, "Gram additivity + angle invariance", worst <= 1e-8,
           f"worst deviation {worst:.1e}")


def test_criterion_12_two_stage_efficiency():
    start = time.time()
    model = real_amplitude()
    rep = two_stage_estimate(model, model, n=400, trials=2000, rng=0, theta_true=1.0)
    elapsed = time.time() - start
    rel = abs(rep.n_mse - rep.reference_cr) / rep.reference_cr
    report(
        12,
        "two-stage adaptive estimation",
        rel <= 0.2 and elapsed < 120.0,
        f"n*MSE {rep.n_mse:.4f} vs reference {rep.reference_cr:.4f} "
        f"({rel:.1%}), {elapsed:.1f}s",
    )


def test_criterion_13_cli_reproducibility(tmp_path):
    family = tmp_path / "family.json"
    thetas = np.linspace(0.0, 2.0, 41)
    states = [[[math.cos(t / 2), 0.0], [math.sin(t / 2), 0.0]] for t in thetas]
    import json

    family.write_text(json.dumps({"thetas": thetas.tolist(), "states": states}))
    commands = [
        ["decompose", "--state", "bell", "--n", "4"],
        ["decompose", "--schmidt", "0.8,0.2", "--n", "6"],
        ["teleport", "--state", "bell", "--n", "4", "--seed", "1"],
        ["bound-sweep", "--p1", "0.5", "--n-max", "30"],
        ["fisher", "--model", "qubit-full", "--theta", "1.0,0.7"],
        ["fisher", "--model-json", str(family), "--theta", "1.0"],
        ["gap", "--a", "1", "--b", "1", "--betaA", "0.8", "--betaB", "0.2"],
        ["anticopy"],
        ["detect", "--states", "bell", "0.9,0.1"],
        ["additivity", "--rounds", "2", "--seed", "3"],
        ["two-stage", "--n", "100", "--trials", "50", "--seed", "5"],
    ]
    all_ok = True
    for idx, argv in enumerate(commands):
        first = tmp_path / f"{idx}_a.out"
        second = tmp_path / f"{idx}_b.out"
        assert cli_main(argv + ["--output", str(first)]) == 0
        assert cli_main(argv + ["--output", str(second)]) == 0
        if first.read_bytes() != second.read_bytes():
            all_ok = False
    report(13, "CLI byte-level reproducibility", all_ok,
           f"{len(commands)} commands, two runs each")
