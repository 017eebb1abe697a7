import math

import numpy as np
import pytest

from locclab.estimation import (
    Povm,
    beta_combination,
    detection_condition,
    fisher_data,
    fisher_of_distribution,
    fisher_of_laws,
    horizontal_lifts,
    locc_gap,
    measurement_fisher,
    weighted_cr_value,
)
from locclab.models import (
    PureStateModel,
    anticopy_pair,
    get_model,
    model_from_json,
    product_model,
    qubit_conjugate,
    qubit_full,
    real_amplitude,
    richardson_stencil,
    rotation_model,
)
from locclab.states import StateVector, bell_state, product_state
from locclab.teleport import sample_haar_unitary
from tests_support import random_two_param_model, reparametrized

THETA = np.array([1.0, 0.7])


# ---------------------------------------------------------------- lifts


def test_lift_constant_family_is_zero():
    model = PureStateModel(1, lambda t: np.tile(np.array([1.0, 0.0], dtype=complex), (len(t), 1)))
    (lift,) = horizontal_lifts(model, [0.3])
    assert np.max(np.abs(lift)) < 1e-9


def test_lift_polar_family_norm():
    model = real_amplitude()
    (lift,) = horizontal_lifts(model, [1.0])
    assert np.vdot(lift, lift).real == pytest.approx(1 / 16, abs=1e-12)
    # orthogonal to the state
    assert abs(np.vdot(model.state([1.0]), lift)) < 1e-8


def test_lift_analytic_vs_finite_difference():
    model = qubit_full()
    numeric = PureStateModel(2, model.state_fn, None, domain=model.domain)
    exact = horizontal_lifts(model, THETA)
    approx = horizontal_lifts(numeric, THETA)
    assert exact.shape == approx.shape == (2, 2)
    assert np.max(np.abs(exact - approx)) < 1e-6


def test_lift_boundary_rejected():
    model = real_amplitude()
    with pytest.raises(ValueError):
        horizontal_lifts(model, [0.0])


# ---------------------------------------------------------------- Fisher data


def test_fisher_data_full_qubit_family():
    data = fisher_data(qubit_full(), THETA)
    assert data.betas == pytest.approx((1.0,), abs=1e-8)
    expected_js = np.diag([1 / 16, math.sin(1.0) ** 2 / 16])
    assert np.max(np.abs(data.j_s - expected_js)) < 1e-10


def test_fisher_data_conjugate_family():
    data = fisher_data(qubit_full(), THETA)
    data_c = fisher_data(qubit_conjugate(), THETA)
    assert data_c.betas == pytest.approx((1.0,), abs=1e-8)
    assert np.max(np.abs(data_c.j_tilde + data.j_tilde)) < 1e-10
    assert np.max(np.abs(data_c.j_s - data.j_s)) < 1e-10


def test_fisher_data_real_family():
    data = fisher_data(real_amplitude(), [1.0])
    assert np.max(np.abs(data.j_tilde)) < 1e-12
    assert data.betas == pytest.approx((0.0,), abs=1e-12)


def test_fisher_data_random_models_invariants():
    for seed in range(8):
        model = random_two_param_model(seed)
        data = fisher_data(model, [0.4, -0.2])
        evals = np.linalg.eigvalsh(data.j_s)
        assert evals.min() > -1e-10
        assert np.max(np.abs(data.j_tilde + data.j_tilde.T)) == 0.0
        assert all(0.0 <= b <= 1.0 for b in data.betas)


def test_beta_reparametrization_invariance():
    base = qubit_full()
    data = fisher_data(base, THETA)
    rng = np.random.default_rng(9)
    for _ in range(5):
        a_mat = rng.standard_normal((2, 2)) + np.eye(2) * 2
        model = reparametrized(base, a_mat)
        theta_new = np.linalg.solve(a_mat, THETA)
        data_new = fisher_data(model, theta_new)
        assert np.max(np.abs(np.array(data_new.betas) - np.array(data.betas))) < 1e-8


# ---------------------------------------------------------------- infidelity expansion


def bures_expansion_check(model: PureStateModel, theta, dtheta) -> tuple[float, float]:
    """Compare 1 - |<phi_t|phi_{t+dt}>|^2 against 4 dt.J_S.dt."""
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    dtheta = np.atleast_1d(np.asarray(dtheta, dtype=float))
    phi, phi2 = model.states([theta, theta + dtheta])
    lhs = 1.0 - abs(np.vdot(phi, phi2)) ** 2
    rhs = float(4.0 * dtheta @ fisher_data(model, theta).j_s @ dtheta)
    return lhs, rhs


def test_bures_expansion_polar_family():
    lhs, rhs = bures_expansion_check(real_amplitude(), [1.0], [1e-3])
    assert rhs == pytest.approx(4 * (1 / 16) * 1e-6, rel=1e-9)
    assert abs(lhs - rhs) < 5 * (1e-3) ** 3


def test_bures_expansion_zero_displacement():
    lhs, rhs = bures_expansion_check(real_amplitude(), [1.0], [0.0])
    assert lhs == pytest.approx(0.0, abs=1e-14)
    assert rhs == 0.0


def test_bures_expansion_random_sweep():
    # the remainder is cubic, so the relative error shrinks linearly in the
    # displacement; 3e-5 keeps it under 1e-4 across random families
    rng = np.random.default_rng(17)
    for seed in range(10):
        model = random_two_param_model(seed)
        for _ in range(10):
            theta = rng.uniform(-0.5, 0.5, size=2)
            d_theta = rng.uniform(-1, 1, size=2) * 3e-5
            lhs, rhs = bures_expansion_check(model, theta, d_theta)
            if rhs > 1e-10:  # below this, float cancellation dominates lhs
                assert abs(lhs - rhs) / rhs < 1e-4


# ---------------------------------------------------------------- weighted trace value


def test_weighted_cr_endpoints():
    assert weighted_cr_value([0.0]) == pytest.approx(2.0)
    assert weighted_cr_value([1.0]) == pytest.approx(4.0)
    assert weighted_cr_value([0.6]) == pytest.approx(4 / 1.8, abs=1e-12)


def test_weighted_cr_monotone():
    grid = np.linspace(0, 1, 101)
    values = [weighted_cr_value([b]) for b in grid]
    assert all(b >= a for a, b in zip(values, values[1:]))
    # and in each coordinate for vector arguments
    assert weighted_cr_value([0.3, 0.9]) < weighted_cr_value([0.4, 0.9])
    assert weighted_cr_value([0.3, 0.9]) < weighted_cr_value([0.3, 0.95])


# ---------------------------------------------------------------- measurement Fisher


def test_measurement_fisher_uninformative():
    povm = Povm((np.eye(2),))
    j = measurement_fisher(povm, real_amplitude(), [1.0])
    assert np.max(np.abs(j)) < 1e-12


def test_measurement_fisher_projective_qubit():
    povm = Povm((np.diag([1.0, 0.0]), np.diag([0.0, 1.0])))
    j = measurement_fisher(povm, real_amplitude(), [1.0])
    assert j[0, 0] == pytest.approx(0.25, abs=1e-8)


def random_povm(rng: np.random.Generator, dim: int = 2, parts: int = 3) -> Povm:
    raws = []
    for _ in range(parts):
        z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        raws.append(z @ z.conj().T)
    total = sum(raws)
    w, v = np.linalg.eigh(total)
    correction = v @ np.diag(1 / np.sqrt(w)) @ v.conj().T
    return Povm(tuple(correction @ r @ correction for r in raws))


def test_quantum_information_inequality():
    rng = np.random.default_rng(23)
    models = [(real_amplitude(), [1.0]), (qubit_full(), THETA)]
    for _ in range(25):
        povm = random_povm(rng)
        for model, theta in models:
            j_m = measurement_fisher(povm, model, theta)
            j_s4 = 4 * fisher_data(model, theta).j_s
            assert np.linalg.eigvalsh(j_s4 - j_m).min() > -1e-8


def test_measurement_fisher_is_outcome_law_fisher_over_four():
    rng = np.random.default_rng(31)
    for name, theta in (("real-amplitude", [1.0]), ("qubit-full", THETA),
                        ("anticopy-pair", THETA)):
        model = get_model(name)
        dim = model.state(theta).size
        povm = random_povm(rng, dim, parts=4)

        def law(at):
            phi = model.state(at)
            return {x: float(np.real(np.vdot(phi, e @ phi)))
                    for x, e in enumerate(povm.elements)}

        j_m = measurement_fisher(povm, model, theta)
        assert np.array_equal(j_m, fisher_of_distribution(law, theta) / 4)


def test_vanishing_outcome_with_varying_probability_warns():
    def law(theta):
        p = max(theta[0], 0.0)
        return {"a": p, "b": 1.0 - p}

    with pytest.warns(UserWarning, match="vanishing probability"):
        j = fisher_of_distribution(law, [0.0])
    assert np.all(np.isfinite(j))


def test_povm_validation():
    with pytest.raises(ValueError):
        Povm((np.eye(2) * 0.5,))
    with pytest.raises(ValueError):
        Povm((np.diag([1.5, 1.0]), np.diag([-0.5, 0.0])))


def test_povm_with_a_nan_entry_is_refused():
    with pytest.raises(ValueError, match="sum to the identity"):
        Povm((np.array([[np.nan, 0.0], [0.0, 0.0]]), np.diag([0.0, 1.0])))


# ---------------------------------------------------------------- product families


def test_product_additivity_on_example_pair():
    model_a, model_b = anticopy_pair()
    prod = product_model(model_a, model_b)
    data_a = fisher_data(model_a, THETA)
    data_b = fisher_data(model_b, THETA)
    data_p = fisher_data(prod, THETA)
    assert np.max(np.abs(data_p.j_s - data_a.j_s - data_b.j_s)) < 1e-8
    assert np.max(np.abs(data_p.j_tilde - data_a.j_tilde - data_b.j_tilde)) < 1e-8


def test_product_additivity_random_models():
    for seed in range(6):
        model_a = random_two_param_model(seed)
        model_b = random_two_param_model(seed + 50)
        prod = product_model(model_a, model_b)
        theta = np.array([0.3, -0.4])
        data_a = fisher_data(model_a, theta)
        data_b = fisher_data(model_b, theta)
        data_p = fisher_data(prod, theta)
        assert np.max(np.abs(data_p.j_s - data_a.j_s - data_b.j_s)) < 1e-8
        assert np.max(np.abs(data_p.j_tilde - data_a.j_tilde - data_b.j_tilde)) < 1e-8


def test_product_lift_identity():
    model_a, model_b = anticopy_pair()
    prod = product_model(model_a, model_b)
    phi_a = model_a.state(THETA)
    phi_b = model_b.state(THETA)
    lifts_a, lifts_b = horizontal_lifts(model_a, THETA), horizontal_lifts(model_b, THETA)
    for lift, lift_a, lift_b in zip(horizontal_lifts(prod, THETA), lifts_a, lifts_b):
        split = np.kron(lift_a, phi_b) + np.kron(phi_a, lift_b)
        assert np.max(np.abs(lift - split)) < 1e-8


# ---------------------------------------------------------------- combination rule and gap


def test_beta_combination_examples():
    plus, minus = beta_combination(1.0, 1.0, 1.0, 1.0)
    assert plus == pytest.approx(1.0) and minus == pytest.approx(0.0)
    plus, minus = beta_combination(1.0, 1.0, 0.7, 0.7)
    assert plus == pytest.approx(0.7)
    plus, minus = beta_combination(2.0, 1.0, 0.9, 0.3)
    assert plus == pytest.approx(0.7) and minus == pytest.approx(0.5)


@pytest.mark.parametrize("a, b", [(math.nan, 1.0), (1.0, math.inf), (0.0, 1.0)])
def test_beta_combination_needs_positive_finite_weights(a, b):
    with pytest.raises(ValueError, match="positive and finite"):
        beta_combination(a, b, 0.5, 0.5)


def test_locc_gap_anticopy_maximal():
    res = locc_gap(1.0, 1.0, 1.0, 1.0, "-")
    assert res.global_best == pytest.approx(2.0)
    assert res.locc_best == pytest.approx(1.0)
    assert res.gap == pytest.approx(1.0)


def test_locc_gap_copy_is_zero():
    for beta in (0.0, 0.4, 0.9):
        res = locc_gap(1.0, 1.0, beta, beta, "+")
        assert abs(res.gap) < 1e-12


def test_locc_gap_example_values():
    res = locc_gap(1.0, 1.0, 0.8, 0.2, "+")
    assert res.global_best == pytest.approx(1 + math.sqrt(0.75), abs=1e-10)
    assert res.locc_best == pytest.approx((1.6 + 1 + math.sqrt(0.96)) / 2, abs=1e-10)
    assert res.gap == pytest.approx(0.0761, abs=5e-5)


def test_locc_gap_nonnegative_grid():
    grid = np.linspace(0, 1, 11)
    for a, b in ((1.0, 1.0), (2.0, 0.5), (0.3, 1.7)):
        for ba in grid:
            for bb in grid:
                for sign in "+-":
                    res = locc_gap(a, b, ba, bb, sign)
                    assert res.gap >= -1e-12
                    if sign == "+" and abs(ba - bb) < 1e-14:
                        assert abs(res.gap) < 1e-10


# ---------------------------------------------------------------- example pair


def test_anticopy_example_values():
    model_a, model_b = anticopy_pair()
    for theta in ([1.0, 0.7], [0.5, -0.3], [2.0, 1.1]):
        data_a = fisher_data(model_a, theta)
        data_b = fisher_data(model_b, theta)
        assert np.max(np.abs(data_a.j_s - data_b.j_s)) < 1e-10
        assert data_a.betas[0] == pytest.approx(1.0, abs=1e-8)
        assert data_b.betas[0] == pytest.approx(1.0, abs=1e-8)
        prod = product_model(model_a, model_b)
        assert fisher_data(prod, theta).betas[0] == pytest.approx(0.0, abs=1e-8)


# ---------------------------------------------------------------- detection condition


def test_detection_identical_states():
    lhs, rhs, holds = detection_condition([bell_state(2), bell_state(2)])
    assert lhs == pytest.approx(1.0, abs=1e-12)
    assert holds


def test_detection_orthogonal_products_fails():
    s1 = product_state(2)
    s2 = StateVector(np.array([0, 0, 0, 1.0]), (2, 2))
    lhs, rhs, holds = detection_condition([s1, s2])
    assert lhs == pytest.approx(0.0, abs=1e-12)
    assert rhs == pytest.approx(1.0, abs=1e-12)
    assert not holds


def test_detection_near_parallel_entangled():
    alpha = math.acos(math.sqrt(0.9))
    twist = np.diag([np.exp(1j * alpha), np.exp(-1j * alpha)])
    rotated = StateVector(np.kron(twist, np.eye(2)) @ bell_state(2).amplitudes, (2, 2))
    lhs, rhs, holds = detection_condition([bell_state(2), rotated])
    assert lhs == pytest.approx(0.9, abs=1e-10)
    assert rhs == pytest.approx(0.5, abs=1e-10)
    assert holds


def test_detection_needs_two_states():
    with pytest.raises(ValueError):
        detection_condition([bell_state(2)])


def test_detection_local_unitary_invariance():
    rng = np.random.default_rng(31)
    alpha = math.acos(math.sqrt(0.9))
    twist = np.diag([np.exp(1j * alpha), np.exp(-1j * alpha)])
    states = [
        bell_state(2),
        StateVector(np.kron(twist, np.eye(2)) @ bell_state(2).amplitudes, (2, 2)),
    ]
    ref = detection_condition(states)
    for _ in range(5):
        u = sample_haar_unitary(2, rng)
        v = sample_haar_unitary(2, rng)
        moved = [
            StateVector(np.kron(u, v) @ s.amplitudes, (2, 2)) for s in states
        ]
        got = detection_condition(moved)
        assert got[0] == pytest.approx(ref[0], abs=1e-10)
        assert got[1] == pytest.approx(ref[1], abs=1e-10)


# ---------------------------------------------------------------- model zoo


def test_get_model_names():
    for name in ("qubit-full", "qubit-conjugate", "real-amplitude", "anticopy-pair"):
        model = get_model(name)
        theta = np.full(model.param_dim, 1.0)
        assert abs(np.linalg.norm(model.state(theta)) - 1) < 1e-10
    with pytest.raises(KeyError):
        get_model("no-such-model")


def test_tabulated_model_from_json():
    thetas = np.linspace(0.0, 2.0, 41)
    states = [
        [[math.cos(t / 2), 0.0], [math.sin(t / 2), 0.0]] for t in thetas
    ]
    model = model_from_json({"thetas": thetas.tolist(), "states": states})
    data = fisher_data(model, [1.0])
    # grid derivative approximates the analytic metric
    assert data.j_s[0, 0] == pytest.approx(1 / 16, rel=1e-3)
    with pytest.raises(ValueError):
        model.state([1.016])  # off the grid


def test_nan_states_fail_the_norm_checks():
    with pytest.raises(ValueError, match="is not 1"):
        StateVector(np.array([np.nan, 0.0]), (2,)).require_normalized()
    with pytest.raises(ValueError, match="norm nan"):
        real_amplitude().state(math.nan)


@pytest.mark.parametrize("theta", [math.inf, -math.inf, 1e308])
def test_rotation_family_refuses_an_infinite_phase(theta):
    # 2 * 1e308 overflows: the phase leaves the float range before exp
    model = rotation_model(np.diag([2.0, -1.0]), np.array([1.0, 1.0]))
    with pytest.raises(ValueError, match="beyond the float range"):
        model.state([theta])
    with pytest.raises(ValueError, match="norm nan"):
        model.state([math.nan])
    zero = rotation_model(np.zeros((2, 2)), np.array([1.0, 1.0]))
    with pytest.raises(ValueError, match="beyond the float range"):
        zero.state([math.inf])
    assert np.all(np.isfinite(model.state([1e307])))


def test_fisher_of_distribution_reads_the_law_at_theta0_and_on_each_stencil():
    model = random_two_param_model(5)
    povm = random_povm(np.random.default_rng(6), 2, parts=3)

    def law(at):
        phi = model.state(at)
        return {x: float(np.real(np.vdot(phi, e @ phi))) for x, e in enumerate(povm.elements)}

    stencils = [point for i in range(2) for point in richardson_stencil(THETA.copy(), i)]
    want = fisher_of_laws([law(THETA)] + [law(p) for p in stencils])
    assert np.array_equal(fisher_of_distribution(law, THETA), want)


def test_degenerate_model_reported():
    # two parameters, but the second one moves only along the first:
    # the Berry form stays inside the metric support, so angles are fine;
    # a zero metric with a forced Berry coupling cannot happen for a true
    # family, so degeneracy reporting is exercised with a synthetic model
    def state(thetas):
        a = thetas[:, 0]
        return np.stack([np.cos(a / 2), np.sin(a / 2)], axis=1).astype(complex)

    model = PureStateModel(2, state)
    data = fisher_data(model, [1.0, 0.5])
    assert data.betas == pytest.approx((0.0,), abs=1e-9)
