"""Model families over a parameter axis: ``states`` maps a ``(k,
param_dim)`` array of points to their ``(k, dim)`` states with one
``state_fn`` call, ``derivatives`` maps them to their ``(k, param_dim,
dim)`` partials with one ``derivative_fn`` call, and each row is the
single-point batch bit for bit."""

import dataclasses
import math

import numpy as np
import pytest

from locclab.estimation import Povm, fisher_data, measurement_fisher
from locclab.locc import (
    random_adaptive_protocol,
    random_qubit_model,
    two_stage_estimate,
    verify_fisher_additivity,
)
from locclab.models import (
    get_model,
    product_model,
    qubit_conjugate,
    qubit_full,
    real_amplitude,
    richardson_points,
    richardson_stencil,
    rotation_model,
    tabulated_model,
)
from tests_support import reparametrized

GRID = np.linspace(0.2, 2.2, 41)


def tabulated():
    return tabulated_model(GRID.tolist(), [[math.cos(t / 2), math.sin(t / 2)] for t in GRID])


FAMILIES = {
    "qubit-full": lambda: get_model("qubit-full"),
    "qubit-conjugate": lambda: get_model("qubit-conjugate"),
    "real-amplitude": lambda: get_model("real-amplitude"),
    "anticopy-pair": lambda: get_model("anticopy-pair"),
    "random-qubit": lambda: random_qubit_model(np.random.default_rng(3)),
    "rotation-d4": lambda: rotation_model(
        np.diag([1.5, -0.25, 0.5, 2.0]) + 0.3 * np.eye(4, k=1) + 0.3 * np.eye(4, k=-1),
        np.array([0.5, 0.5j, -0.5, 0.5]),
    ),
    "product": lambda: product_model(
        real_amplitude(), random_qubit_model(np.random.default_rng(8))
    ),
    "reparametrized": lambda: reparametrized(qubit_full(), [[0.7, 0.2], [-0.4, 1.1]]),
    "tabulated": tabulated,
    "finite-difference": lambda: dataclasses.replace(
        qubit_full(), derivative_fn=None, name="finite-difference"
    ),
}


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def points(model, rng, k: int) -> np.ndarray:
    if model.name == "tabulated":  # grid points, each moved by under a quarter step
        return (rng.choice(GRID, k) + rng.uniform(-0.01, 0.01, k))[:, None]
    box = [(max(lo, -4.0), min(hi, 4.0)) for lo, hi in model.box()]
    return np.column_stack([rng.uniform(lo, hi, k) for lo, hi in box])


@pytest.mark.parametrize("name", FAMILIES)
def test_states_equal_per_point_states_bit_for_bit(name):
    model = FAMILIES[name]()
    thetas = points(model, np.random.default_rng(21), 200)
    batch = model.states(thetas)
    assert batch.shape == (len(thetas), model.state(thetas[0]).size)
    for theta, row in zip(thetas, batch):
        assert same_bits(model.state(theta), row), theta


@pytest.mark.parametrize("name", FAMILIES)
def test_derivatives_equal_per_point_derivatives_bit_for_bit(name):
    model = FAMILIES[name]()
    thetas = points(model, np.random.default_rng(22), 200)
    if name == "tabulated":  # an end point of the grid has no neighbour on one side
        thetas = thetas[(thetas[:, 0] > GRID[1] - 0.02) & (thetas[:, 0] < GRID[-2] + 0.02)]
    batch = model.derivatives(thetas)
    assert batch.shape == (len(thetas), model.param_dim, model.state(thetas[0]).size)
    for theta, rows in zip(thetas, batch):
        assert same_bits(model.derivatives(theta[None])[0], rows), theta


# the states the single-point implementation gave, (real, imag) as hex floats
PINNED = {
    "qubit-full": [
        ([1.0, 0.7], [("0x1.a614c1be74029p-1", "-0x1.3424ab9ce853bp-2"),
                      ("0x1.cd2afaebe7bcbp-2", "0x1.50adc89dea439p-3")]),
        ([0.3, -2.5], [("0x1.3f43af268864bp-2", "0x1.e06c995b9221cp-1"),
                       ("0x1.8204498bbee58p-5", "-0x1.226fa28bdb58ep-3")]),
        ([2.9, 11.0], [("0x1.5dc8e626c1e13p-4", "0x1.5c3d7932b9d3bp-4"),
                       ("0x1.6831e5e152084p-1", "-0x1.669ab4311fb86p-1")]),
    ],
    "qubit-conjugate": [
        ([1.0, 0.7], [("0x1.a614c1be74029p-1", "0x1.3424ab9ce853bp-2"),
                      ("0x1.cd2afaebe7bcbp-2", "-0x1.50adc89dea439p-3")]),
        ([0.3, -2.5], [("0x1.3f43af268864bp-2", "-0x1.e06c995b9221cp-1"),
                       ("0x1.8204498bbee58p-5", "0x1.226fa28bdb58ep-3")]),
        ([2.9, 11.0], [("0x1.5dc8e626c1e13p-4", "-0x1.5c3d7932b9d3bp-4"),
                       ("0x1.6831e5e152084p-1", "0x1.669ab4311fb86p-1")]),
    ],
    "real-amplitude": [
        ([1.0], [("0x1.c1528065b7d50p-1", "0x0.0p+0"), ("0x1.eaee8744b05f0p-2", "0x0.0p+0")]),
        ([0.01], [("0x1.fffe5c920a926p-1", "0x0.0p+0"), ("0x1.47adbb006a986p-8", "0x0.0p+0")]),
        ([3.1], [("0x1.54b3d455c662cp-6", "0x0.0p+0"), ("0x1.ffe3a85487b68p-1", "0x0.0p+0")]),
    ],
    "anticopy-pair": [
        ([1.0, 0.7], [("0x1.8a51407da8346p-1", "0x1.e995b527c59ccp-57"),
                      ("0x1.4984f51067ae8p-2", "-0x1.158ce28abd26ep-2"),
                      ("0x1.4984f51067ae8p-2", "0x1.158ce28abd26ep-2"),
                      ("0x1.d6bafe095f2e8p-3", "0x1.f821a267cc79ap-58")]),
        ([2.2, -0.4], [("0x1.a55ff68eea51fp-3", "-0x1.60780fc7f2770p-59"),
                       ("0x1.7d45f9eaecdd6p-2", "0x1.42664a2b7b0d1p-3"),
                       ("0x1.7d45f9eaecdd6p-2", "-0x1.42664a2b7b0d1p-3"),
                       ("0x1.96a8025c456bap-1", "0x1.01aa802462dd8p-58")]),
    ],
}


@pytest.mark.parametrize("name", PINNED)
def test_zoo_states_keep_the_single_point_values(name):
    model = get_model(name)
    thetas = np.array([theta for theta, _ in PINNED[name]])
    expected = np.array([
        [complex(float.fromhex(re), float.fromhex(im)) for re, im in amps]
        for _, amps in PINNED[name]
    ])
    assert same_bits(model.states(thetas), expected)


# the partials the per-point implementation gave, one row per axis, (real,
# imag) as hex floats; the family without derivative_fn reads finite differences
PINNED_DERIVATIVES = {
    "qubit-full": [
        ([1.0, 0.7], [
            [("-0x1.cd2afaebe7bcbp-3", "0x1.50adc89dea439p-4"),
             ("0x1.a614c1be74029p-2", "0x1.3424ab9ce853bp-3")],
            [("-0x1.3424ab9ce853bp-3", "-0x1.a614c1be74029p-2"),
             ("-0x1.50adc89dea439p-4", "0x1.cd2afaebe7bcbp-3")],
        ]),
        ([0.3, -2.5], [
            [("-0x1.8204498bbee58p-6", "-0x1.226fa28bdb58ep-4"),
             ("0x1.3f43af268864bp-3", "-0x1.e06c995b9221cp-2")],
            [("0x1.e06c995b9221cp-2", "-0x1.3f43af268864bp-3"),
             ("0x1.226fa28bdb58ep-4", "0x1.8204498bbee58p-6")],
        ]),
        ([2.9, 11.0], [
            [("-0x1.6831e5e152084p-2", "-0x1.669ab4311fb86p-2"),
             ("0x1.5dc8e626c1e13p-5", "-0x1.5c3d7932b9d3bp-5")],
            [("0x1.5c3d7932b9d3bp-5", "-0x1.5dc8e626c1e13p-5"),
             ("0x1.669ab4311fb86p-2", "0x1.6831e5e152084p-2")],
        ]),
    ],
    "qubit-conjugate": [
        ([1.0, 0.7], [
            [("-0x1.cd2afaebe7bcbp-3", "-0x1.50adc89dea439p-4"),
             ("0x1.a614c1be74029p-2", "-0x1.3424ab9ce853bp-3")],
            [("-0x1.3424ab9ce853bp-3", "0x1.a614c1be74029p-2"),
             ("-0x1.50adc89dea439p-4", "-0x1.cd2afaebe7bcbp-3")],
        ]),
        ([2.9, 11.0], [
            [("-0x1.6831e5e152084p-2", "0x1.669ab4311fb86p-2"),
             ("0x1.5dc8e626c1e13p-5", "0x1.5c3d7932b9d3bp-5")],
            [("0x1.5c3d7932b9d3bp-5", "0x1.5dc8e626c1e13p-5"),
             ("0x1.669ab4311fb86p-2", "-0x1.6831e5e152084p-2")],
        ]),
    ],
    "real-amplitude": [
        ([1.0], [
            [("-0x1.eaee8744b05f0p-3", "0x0.0p+0"),
             ("0x1.c1528065b7d50p-2", "0x0.0p+0")],
        ]),
        ([0.01], [
            [("-0x1.47adbb006a986p-9", "0x0.0p+0"),
             ("0x1.fffe5c920a926p-2", "0x0.0p+0")],
        ]),
        ([3.1], [
            [("-0x1.ffe3a85487b68p-2", "0x0.0p+0"),
             ("0x1.54b3d455c662cp-7", "0x0.0p+0")],
        ]),
    ],
    "anticopy-pair": [
        ([1.0, 0.7], [
            [("-0x1.aed548f090ceep-2", "-0x1.0a93ef96d17d4p-58"),
             ("0x1.a729f57066e98p-3", "-0x1.646d10c523b9dp-3"),
             ("0x1.a729f57066e98p-3", "0x1.646d10c523b9dp-3"),
             ("0x1.aed548f090ceep-2", "-0x1.0a93ef96d17d4p-58")],
            [("-0x1.e995b527c59ccp-57", "0x1.0000000000000p-54"),
             ("-0x1.158ce28abd26ep-2", "-0x1.4984f51067ae8p-2"),
             ("-0x1.158ce28abd26ep-2", "0x1.4984f51067ae8p-2"),
             ("0x1.f821a267cc79ap-58", "0x0.0p+0")],
        ]),
        ([2.2, -0.4], [
            [("-0x1.9df33d9aad708p-2", "-0x1.323739dfaa028p-60"),
             ("-0x1.1586fa5251c09p-2", "-0x1.d558b8c39206ep-4"),
             ("-0x1.1586fa5251c09p-2", "0x1.d558b8c39206ep-4"),
             ("0x1.9df33d9aad708p-2", "-0x1.323739dfaa028p-60")],
            [("0x1.60780fc7f2770p-59", "0x0.0p+0"),
             ("0x1.42664a2b7b0d1p-3", "-0x1.7d45f9eaecdd6p-2"),
             ("0x1.42664a2b7b0d1p-3", "0x1.7d45f9eaecdd6p-2"),
             ("0x1.01aa802462dd8p-58", "-0x1.0000000000000p-54")],
        ]),
    ],
    "random-qubit": [
        ([0.4], [
            [("0x1.998858e44e898p+0", "0x1.be84fa095ae28p-3"),
             ("-0x1.8a8d291af76dbp-1", "0x1.d6b63b0ff05e7p-2")],
        ]),
        ([-2.0], [
            [("0x1.6d0fdd1161286p+0", "-0x1.917b69a90ce37p-2"),
             ("0x1.30854c57c18c0p-7", "-0x1.1b47d8b015ba9p+0")],
        ]),
    ],
    "product": [
        ([1.3], [
            [("0x1.0d3427e01383ep+0", "-0x1.44b7db9248745p+0"),
             ("0x1.157d9f4397c83p-1", "-0x1.dece34e46391ap-2"),
             ("0x1.a2555d6e35159p-2", "-0x1.0362de33abfb6p+0"),
             ("0x1.2e6bcf3c3b738p-2", "-0x1.a938f1cfeda49p-1")],
        ]),
    ],
    "reparametrized": [
        ([1.0, 0.7], [
            [("-0x1.b4ff801ec0551p-4", "0x1.a5623dc1e0fa5p-3"),
             ("0x1.5107381712a91p-2", "-0x1.5e33d81a5465cp-6")],
            [("-0x1.0f462439559aap-3", "-0x1.f1cbc6cf1cc81p-2"),
             ("0x1.8d4a88dbba5d2p-5", "0x1.e5dcb1a5b2bc4p-3")],
        ]),
    ],
    "tabulated": [
        ([0.7], [
            [("-0x1.5f173d5f365b1p-3", "0x0.0p+0"),
             ("0x1.e0e8a292a8ed2p-2", "0x0.0p+0")],
        ]),
    ],
    "finite-difference": [
        ([1.0, 0.7], [
            [("-0x1.cd2afaebf97fep-3", "0x1.50adc89d86429p-4"),
             ("0x1.a614c1be924eep-2", "0x1.3424ab9d00514p-3")],
            [("-0x1.3424ab9d31254p-3", "-0x1.a614c1be71c19p-2"),
             ("-0x1.50adc89e18be9p-4", "0x1.cd2afaec05b4ep-3")],
        ]),
    ],
}



@pytest.mark.parametrize("name", PINNED_DERIVATIVES)
def test_derivatives_keep_the_per_point_values(name):
    model = FAMILIES[name]()
    thetas = np.array([theta for theta, _ in PINNED_DERIVATIVES[name]])
    expected = np.array([
        [[complex(float.fromhex(re), float.fromhex(im)) for re, im in row] for row in rows]
        for _, rows in PINNED_DERIVATIVES[name]
    ])
    assert same_bits(model.derivatives(thetas), expected)


def test_an_off_grid_row_refuses_the_whole_batch():
    model = tabulated()
    with pytest.raises(ValueError, match="theta 1.016 is not a grid point"):
        model.states([[GRID[3]], [1.016], [GRID[7]]])
    with pytest.raises(ValueError, match="theta nan is not a grid point"):
        model.states([[GRID[3]], [math.nan]])


def test_a_nan_row_fails_the_norm_check_and_is_named():
    with pytest.raises(ValueError, match=r"theta \[nan\] has norm nan"):
        real_amplitude().states([[1.0], [math.nan], [0.5]])


def test_an_infinite_phase_in_a_batch_is_refused():
    model = random_qubit_model(np.random.default_rng(3))
    with pytest.raises(ValueError, match="theta -inf gives a phase"):
        model.states([[0.1], [-math.inf], [0.2]])


def test_states_check_the_shape_of_points_and_rows():
    model = qubit_full()
    with pytest.raises(ValueError, match=r"shape \(k, 2\)"):
        model.states([1.0, 0.7])
    flat = dataclasses.replace(model, state_fn=lambda t: model.state_fn(t)[0])
    with pytest.raises(ValueError, match="for 1 points"):
        flat.state([1.0, 0.7])


def test_derivatives_check_the_shape_of_points_and_rows():
    model = qubit_full()
    with pytest.raises(ValueError, match=r"shape \(k, 2\)"):
        model.derivatives([1.0, 0.7])
    # one axis's row where a point's rows were due, and one axis of two
    for wrong, shape in ((lambda t: model.derivative_fn(t)[:, 0], r"\(1, 2\)"),
                         (lambda t: model.derivative_fn(t)[:, :1], r"\(1, 1, 2\)")):
        bad = dataclasses.replace(model, derivative_fn=wrong)
        with pytest.raises(ValueError, match=rf"derivative_fn returned shape {shape} for 1 points"):
            bad.derivatives([[1.0, 0.7]])


def test_contains_refuses_non_finite_coordinates():
    model = qubit_full()
    assert model.contains([1.0, 1e300])
    for theta in ([1.0, math.inf], [1.0, -math.inf], [1.0, math.nan]):
        assert not model.contains(theta)


def counted(model):
    """The model with its ``state_fn`` calls recorded, one entry per call."""
    calls = []

    def state_fn(thetas):
        calls.append(len(thetas))
        return model.state_fn(thetas)

    return dataclasses.replace(model, state_fn=state_fn), calls


def test_two_stage_evaluates_each_family_once_per_step():
    plain = two_stage_estimate(real_amplitude(), real_amplitude(), 400, 64, rng=5)
    shared, calls = counted(real_amplitude())
    report = two_stage_estimate(shared, shared, 400, 64, rng=5)
    # grid, true state, 64 golden-section steps, and a few single points
    assert len(calls) <= 100
    assert np.array_equal(report.estimates, plain.estimates)
    (model_a, calls_a), (model_b, calls_b) = counted(real_amplitude()), counted(real_amplitude())
    report = two_stage_estimate(model_a, model_b, 400, 64, rng=5)
    assert len(calls_a) <= 100 and len(calls_b) <= 100
    assert np.array_equal(report.estimates, plain.estimates)


def test_information_checks_evaluate_each_family_once():
    protocol = random_adaptive_protocol(np.random.default_rng(2), rounds=3)
    model_a, calls_a = counted(random_qubit_model(np.random.default_rng(3)))
    model_b, calls_b = counted(random_qubit_model(np.random.default_rng(4)))
    verify_fisher_additivity(protocol, model_a, model_b, [0.4])
    assert calls_a == calls_b == [5]  # theta0 and the four stencil points
    model, calls = counted(qubit_full())
    measurement_fisher(Povm((np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))), model, [1.0, 0.7])
    assert calls == [9]  # theta0 and four stencil points per axis
    model, calls = counted(qubit_full())
    fisher_data(model, [1.0, 0.7])
    assert calls == [1]  # the state; the partials are analytic
    model, calls = counted(dataclasses.replace(qubit_full(), derivative_fn=None))
    fisher_data(model, [1.0, 0.7])
    assert calls == [1, 8]  # the state, then four stencil points per axis
    (factor_a, calls_a), (factor_b, calls_b) = counted(qubit_full()), counted(qubit_conjugate())
    fisher_data(product_model(factor_a, factor_b), [1.0, 0.7])
    assert len(calls_a) <= 2 and len(calls_b) <= 2


def test_stencil_refuses_a_theta_too_large_for_its_steps():
    with pytest.raises(ValueError, match="theta 1e\\+300 is too large"):
        richardson_stencil(np.array([1e300]), 0)
    numeric = dataclasses.replace(real_amplitude(), derivative_fn=None)
    with pytest.raises(ValueError, match="theta 1e\\+300 is too large"):
        numeric.derivatives([[1e300]])
    # ordinary points keep their exact steps
    up, down, _, half_down = richardson_stencil(np.array([1.0, 1e3]), 1)
    assert up[0] == down[0] == 1.0 and up[1] == 1e3 + 1e-5 and half_down[1] == 1e3 - 5e-6


def test_richardson_points_are_theta_then_each_axis_stencil():
    theta = np.array([1.0, 1e3])
    want = [theta] + richardson_stencil(theta, 0) + richardson_stencil(theta, 1)
    assert np.array_equal(richardson_points([1.0, 1e3]), np.array(want))
    with pytest.raises(ValueError, match="theta 1e\\+300 is too large"):
        richardson_points([0.5, 1e300])
