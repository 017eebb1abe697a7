"""Parametrized pure-state families and the named model zoo."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

_FD_STEP = 1e-5
_FD_STEPS = (_FD_STEP, _FD_STEP / 2)  # the two central-difference steps


@dataclass(frozen=True)
class PureStateModel:
    """A smooth family theta -> |phi_theta> with derivative access.

    ``state_fn`` maps a parameter vector of length ``param_dim`` to a
    normalized complex amplitude vector. ``derivative_fn(theta, i)`` returns
    the analytic partial derivative when available; otherwise derivatives
    fall back to Richardson-extrapolated central differences.
    """

    param_dim: int
    state_fn: Callable[[np.ndarray], np.ndarray]
    derivative_fn: Callable[[np.ndarray, int], np.ndarray] | None = None
    domain: tuple[tuple[float, float], ...] = ()
    name: str = ""

    def box(self) -> tuple[tuple[float, float], ...]:
        if self.domain:
            return self.domain
        return ((-math.inf, math.inf),) * self.param_dim

    def contains(self, theta: np.ndarray) -> bool:
        return all(
            lo <= t <= hi for t, (lo, hi) in zip(np.atleast_1d(theta), self.box())
        )

    def state(self, theta) -> np.ndarray:
        theta = np.atleast_1d(np.asarray(theta, dtype=float))
        if theta.size != self.param_dim:
            raise ValueError(f"theta must have {self.param_dim} entries")
        vec = np.asarray(self.state_fn(theta), dtype=complex).reshape(-1)
        nrm = math.sqrt(np.vdot(vec, vec).real)
        if not abs(nrm - 1.0) <= 1e-10:  # a NaN norm fails too
            raise ValueError(f"family state has norm {nrm}, not 1")
        return vec

    def derivative(self, theta, i: int) -> np.ndarray:
        theta = np.atleast_1d(np.asarray(theta, dtype=float))
        if self.derivative_fn is not None:
            return np.asarray(self.derivative_fn(theta, i), dtype=complex).reshape(-1)
        return richardson_derivative(self.state, theta, i)


def richardson_stencil(theta: np.ndarray, i: int) -> list[np.ndarray]:
    """The points at which :func:`richardson_combine` reads a function:
    theta + h, theta - h, theta + h/2, theta - h/2 along ``theta[i]``
    (h = ``_FD_STEP``)."""
    points = []
    for step in _FD_STEPS:
        up, down = theta.copy(), theta.copy()
        up[i] += step
        down[i] -= step
        points += [up, down]
    return points


def richardson_combine(values) -> np.ndarray:
    """The derivative from an array-valued function's values at the points of
    :func:`richardson_stencil`: central differences D(h) and D(h/2),
    combined as (4 D(h/2) - D(h)) / 3 to cancel the O(h^2) error term. The
    output keeps the dtype of the values."""
    d1, d2 = (
        (np.asarray(up) - np.asarray(down)) / (2 * step)
        for step, up, down in zip(_FD_STEPS, values[0::2], values[1::2])
    )
    return (4.0 * d2 - d1) / 3.0


def richardson_derivative(fn, theta: np.ndarray, i: int) -> np.ndarray:
    """Partial derivative of the array-valued ``fn`` along ``theta[i]``, by
    :func:`richardson_combine` of its values on :func:`richardson_stencil`."""
    return richardson_combine([fn(point) for point in richardson_stencil(theta, i)])


# ----------------------------------------------------------------------
# model zoo


def qubit_full() -> PureStateModel:
    """Two-parameter qubit family covering polar angle and relative phase."""

    def state(theta):
        a, b = theta
        return np.array(
            [
                np.exp(-0.5j * b) * math.cos(a / 2),
                np.exp(0.5j * b) * math.sin(a / 2),
            ]
        )

    def deriv(theta, i):
        a, b = theta
        if i == 0:
            return np.array(
                [
                    -0.5 * np.exp(-0.5j * b) * math.sin(a / 2),
                    0.5 * np.exp(0.5j * b) * math.cos(a / 2),
                ]
            )
        return np.array(
            [
                -0.5j * np.exp(-0.5j * b) * math.cos(a / 2),
                0.5j * np.exp(0.5j * b) * math.sin(a / 2),
            ]
        )

    return PureStateModel(
        2, state, deriv, domain=((1e-3, math.pi - 1e-3), (-math.inf, math.inf)),
        name="qubit-full",
    )


def qubit_conjugate() -> PureStateModel:
    """Entrywise complex conjugate of the full qubit family."""
    base = qubit_full()

    def state(theta):
        return base.state_fn(theta).conj()

    def deriv(theta, i):
        return base.derivative_fn(theta, i).conj()

    return PureStateModel(2, state, deriv, domain=base.domain, name="qubit-conjugate")


def anticopy_pair() -> tuple[PureStateModel, PureStateModel]:
    """The family paired with its conjugate: locally fully complex on each
    side, jointly real, which maximizes the local-vs-global estimation gap."""
    return qubit_full(), qubit_conjugate()


def real_amplitude() -> PureStateModel:
    """One-parameter qubit family with real amplitudes (polar angle only)."""

    def state(theta):
        (a,) = theta
        return np.array([math.cos(a / 2), math.sin(a / 2)], dtype=complex)

    def deriv(theta, i):
        (a,) = theta
        return np.array([-0.5 * math.sin(a / 2), 0.5 * math.cos(a / 2)], dtype=complex)

    return PureStateModel(
        1, state, deriv, domain=((1e-3, math.pi - 1e-3),), name="real-amplitude"
    )


def rotation_model(
    generator: np.ndarray, psi0: np.ndarray, name: str = "rotation"
) -> PureStateModel:
    """One-parameter family exp(-i theta G)|psi0> with analytic derivative."""
    gen = np.asarray(generator, dtype=complex)
    if np.max(np.abs(gen - gen.conj().T)) > 1e-12:
        raise ValueError("generator must be Hermitian")
    psi = np.asarray(psi0, dtype=complex).reshape(-1)
    psi = psi / np.linalg.norm(psi)
    evals, evecs = np.linalg.eigh(gen)
    coeffs = evecs.conj().T @ psi
    largest = float(np.max(np.abs(evals)))

    def state(theta):
        # an infinite phase would reach exp as inf or nan, with numpy warnings;
        # a nan theta passes on to the norm check of PureStateModel.state
        if math.isinf(theta[0]) or math.isinf(float(theta[0]) * largest):
            raise ValueError(f"theta {theta[0]} gives a phase theta * G beyond the float range")
        return evecs @ (np.exp(-1j * evals * theta[0]) * coeffs)

    def deriv(theta, i):
        return evecs @ (-1j * evals * np.exp(-1j * evals * theta[0]) * coeffs)

    return PureStateModel(1, state, deriv, name=name)


def product_model(model_a: PureStateModel, model_b: PureStateModel) -> PureStateModel:
    """Tensor-product family sharing one parameter vector across both parts."""
    if model_a.param_dim != model_b.param_dim:
        raise ValueError("factor models must share the parameter dimension")

    def state(theta):
        return np.kron(model_a.state(theta), model_b.state(theta))

    deriv = None
    if model_a.derivative_fn is not None and model_b.derivative_fn is not None:

        def deriv(theta, i):
            return np.kron(model_a.derivative(theta, i), model_b.state(theta)) + np.kron(
                model_a.state(theta), model_b.derivative(theta, i)
            )

    domain = _intersect_domains(model_a.box(), model_b.box())
    return PureStateModel(
        model_a.param_dim,
        state,
        deriv,
        domain=domain,
        name=f"product({model_a.name},{model_b.name})",
    )


def _intersect_domains(a, b):
    return tuple(
        (max(la, lb), min(ha, hb)) for (la, ha), (lb, hb) in zip(a, b)
    )


def reparametrized(model: PureStateModel, a_matrix: np.ndarray) -> PureStateModel:
    """The family theta -> phi_{A theta} for an invertible linear map A."""
    a_mat = np.asarray(a_matrix, dtype=float)
    if a_mat.shape != (model.param_dim, model.param_dim):
        raise ValueError("reparametrization matrix has the wrong shape")
    if abs(np.linalg.det(a_mat)) < 1e-12:
        raise ValueError("reparametrization must be invertible")

    def state(theta):
        return model.state(a_mat @ np.atleast_1d(theta))

    deriv = None
    if model.derivative_fn is not None:

        def deriv(theta, i):
            inner = a_mat @ np.atleast_1d(theta)
            return sum(
                a_mat[j, i] * model.derivative(inner, j)
                for j in range(model.param_dim)
            )

    return PureStateModel(model.param_dim, state, deriv, name=f"{model.name}@reparam")


def tabulated_model(thetas: Sequence[float], states: Sequence[Sequence[complex]],
                    name: str = "tabulated") -> PureStateModel:
    """One-parameter family given on a grid; derivatives use grid neighbors.

    ``theta`` passed to the model must coincide with a grid point (within
    half a grid step); no interpolation between states is attempted.
    """
    grid = np.asarray(thetas, dtype=float)
    if grid.ndim != 1 or grid.size < 3:
        raise ValueError("need a 1-D grid with at least 3 points")
    if np.any(np.diff(grid) <= 0):
        raise ValueError("grid must be strictly increasing")
    table = np.asarray(states, dtype=complex)
    if table.shape[0] != grid.size:
        raise ValueError("one state per grid point required")
    table = table / np.linalg.norm(table, axis=1, keepdims=True)
    step = float(np.min(np.diff(grid)))

    def nearest(theta) -> int:
        k = int(np.argmin(np.abs(grid - theta[0])))
        if abs(grid[k] - theta[0]) > 0.25 * step:
            raise ValueError(f"theta {theta[0]} is not a grid point")
        return k

    def state(theta):
        return table[nearest(theta)]

    def deriv(theta, i):
        k = nearest(theta)
        if k == 0 or k == grid.size - 1:
            raise ValueError("derivative undefined at the grid boundary")
        return (table[k + 1] - table[k - 1]) / (grid[k + 1] - grid[k - 1])

    return PureStateModel(
        1, state, deriv, domain=((float(grid[0]), float(grid[-1])),), name=name
    )


def model_from_json(source: str | Path | dict) -> PureStateModel:
    """Load a tabulated model from a JSON file at the path ``source``, or
    from its already parsed payload.

    Expected keys: ``thetas`` (grid) and ``states`` (list of amplitude
    lists, each amplitude as [re, im]); optional ``name``. A missing file
    raises FileNotFoundError.
    """
    payload = source if isinstance(source, dict) else json.loads(Path(source).read_text())
    thetas = payload["thetas"]
    states = [
        [complex(re, im) for re, im in state] for state in payload["states"]
    ]
    return tabulated_model(thetas, states, name=payload.get("name", "tabulated"))


_ZOO: dict[str, Callable[[], PureStateModel]] = {
    "qubit-full": qubit_full,
    "qubit-conjugate": qubit_conjugate,
    "real-amplitude": real_amplitude,
}


def get_model(name: str) -> PureStateModel:
    """Look up a named model; 'anticopy-pair' refers to the product family."""
    if name == "anticopy-pair":
        return product_model(*anticopy_pair())
    if name not in _ZOO:
        raise KeyError(f"unknown model '{name}'; known: {sorted(_ZOO)} + anticopy-pair")
    return _ZOO[name]()
