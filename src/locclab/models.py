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

    ``state_fn`` maps a ``(k, param_dim)`` array of parameter points to the
    ``(k, dim)`` array of their normalized complex amplitude vectors, one row
    per point. ``derivative_fn``, when available, maps the same points to the
    ``(k, param_dim, dim)`` array of every analytic partial derivative;
    otherwise derivatives fall back to Richardson-extrapolated central
    differences.
    """

    param_dim: int
    state_fn: Callable[[np.ndarray], np.ndarray]
    derivative_fn: Callable[[np.ndarray], np.ndarray] | None = None
    domain: tuple[tuple[float, float], ...] = ()
    name: str = ""

    def box(self) -> tuple[tuple[float, float], ...]:
        if self.domain:
            return self.domain
        return ((-math.inf, math.inf),) * self.param_dim

    def contains(self, theta: np.ndarray) -> bool:
        """Whether every coordinate is finite and inside its axis's range."""
        return all(
            math.isfinite(t) and lo <= t <= hi
            for t, (lo, hi) in zip(np.atleast_1d(theta), self.box())
        )

    def _points(self, thetas) -> np.ndarray:
        thetas = np.asarray(thetas, dtype=float)
        if thetas.ndim != 2 or thetas.shape[1] != self.param_dim:
            raise ValueError(
                f"thetas must have shape (k, {self.param_dim}), got {thetas.shape}"
            )
        return thetas

    def states(self, thetas) -> np.ndarray:
        """The ``(k, dim)`` states at the ``(k, param_dim)`` points, from one
        ``state_fn`` call; every row's norm must be 1 within 1e-10."""
        thetas = self._points(thetas)
        vecs = np.asarray(self.state_fn(thetas), dtype=complex)
        if vecs.ndim != 2 or len(vecs) != len(thetas):
            raise ValueError(f"state_fn returned shape {vecs.shape} for {len(thetas)} points")
        parts = np.ascontiguousarray(vecs).view(np.float64)  # real and imaginary parts
        norms = np.sqrt(np.add.reduce(parts * parts, axis=1))
        off = np.abs(norms - 1.0)
        if not np.maximum.reduce(off, initial=0.0) <= 1e-10:  # a NaN norm fails too
            k = int(np.argmin(off <= 1e-10))
            raise ValueError(
                f"family state at theta {thetas[k].tolist()} has norm {norms[k]}, not 1"
            )
        return vecs

    def state(self, theta) -> np.ndarray:
        """The state at one point: row 0 of :meth:`states` on that point."""
        return self.states(np.asarray(theta, dtype=float).reshape(1, -1))[0]

    def derivatives(self, thetas) -> np.ndarray:
        """The ``(k, param_dim, dim)`` partials at the ``(k, param_dim)``
        points from one ``derivative_fn`` call; without one, from one
        :meth:`states` call on each point's :func:`richardson_points` but
        the first, combined by :func:`richardson_combine`."""
        thetas = self._points(thetas)
        k, param_dim = thetas.shape
        if self.derivative_fn is None:
            stencils = [richardson_points(theta)[1:] for theta in thetas]
            values = self.states(np.reshape(stencils, (-1, param_dim)))
            return richardson_combine(np.moveaxis(values.reshape(k, param_dim, 4, -1), 2, 0))
        vecs = np.asarray(self.derivative_fn(thetas), dtype=complex)
        if vecs.ndim != 3 or vecs.shape[:2] != thetas.shape:
            raise ValueError(
                f"derivative_fn returned shape {vecs.shape} for {k} points, "
                f"not (k, {param_dim}, dim)"
            )
        return vecs


def richardson_stencil(theta: np.ndarray, i: int) -> list[np.ndarray]:
    """The points at which :func:`richardson_combine` reads a function:
    theta + h, theta - h, theta + h/2, theta - h/2 along ``theta[i]``
    (h = ``_FD_STEP``). Raises ValueError when theta[i] is so large that a
    point's offset from it, as stored, differs from its step by more than
    1e-6 relative: the differences would divide by the wrong step, and read
    0 once the points round onto theta. A non-finite theta[i] passes on to
    the family's own checks, which name it."""
    points = []
    for step in _FD_STEPS:
        up, down = theta.copy(), theta.copy()
        up[i] += step
        down[i] -= step
        if math.isfinite(theta[i]):
            for offset in (up[i] - theta[i], theta[i] - down[i]):
                if abs(offset - step) > 1e-6 * step:
                    raise ValueError(
                        f"theta {theta[i]} is too large for finite differences with "
                        f"step {step}: a stencil point lies {offset} from it"
                    )
        points += [up, down]
    return points


def richardson_points(theta) -> np.ndarray:
    """The ``(1 + 4 param_dim, param_dim)`` points at which a derivative
    of every axis is read: theta, then each axis's four
    :func:`richardson_stencil` points in order."""
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    return np.array(
        [theta] + [point for i in range(theta.size) for point in richardson_stencil(theta, i)]
    )


def richardson_combine(values) -> np.ndarray:
    """The derivative from an array-valued function's values at the points of
    :func:`richardson_stencil`, in its order (a list, or an array with one
    row per point): central differences D(h) and D(h/2), combined as
    (4 D(h/2) - D(h)) / 3 to cancel the O(h^2) error term. The output keeps
    the dtype of the values."""
    d1, d2 = (
        (np.asarray(up) - np.asarray(down)) / (2 * step)
        for step, up, down in zip(_FD_STEPS, values[0::2], values[1::2])
    )
    return (4.0 * d2 - d1) / 3.0


# ----------------------------------------------------------------------
# model zoo


def qubit_full() -> PureStateModel:
    """Two-parameter qubit family covering polar angle and relative phase."""

    phases = np.array([-0.5j, 0.5j])  # per unit of the second angle

    def state(thetas):
        half, b = thetas[:, :1] / 2, thetas[:, 1:]
        return np.exp(phases * b) * np.concatenate([np.cos(half), np.sin(half)], axis=1)

    def deriv(thetas):
        half, turn = thetas[:, :1] / 2, np.exp(phases * thetas[:, 1:])
        cos, sin = np.cos(half), np.sin(half)
        polar = np.array([-0.5, 0.5]) * turn * np.concatenate([sin, cos], axis=1)
        return np.stack([polar, phases * turn * np.concatenate([cos, sin], axis=1)], axis=1)

    return PureStateModel(
        2, state, deriv, domain=((1e-3, math.pi - 1e-3), (-math.inf, math.inf)),
        name="qubit-full",
    )


def qubit_conjugate() -> PureStateModel:
    """Entrywise complex conjugate of the full qubit family."""
    base = qubit_full()

    def state(thetas):
        return base.state_fn(thetas).conj()

    def deriv(thetas):
        return base.derivative_fn(thetas).conj()

    return PureStateModel(2, state, deriv, domain=base.domain, name="qubit-conjugate")


def anticopy_pair() -> tuple[PureStateModel, PureStateModel]:
    """The family paired with its conjugate: locally fully complex on each
    side, jointly real, which maximizes the local-vs-global estimation gap."""
    return qubit_full(), qubit_conjugate()


def real_amplitude() -> PureStateModel:
    """One-parameter qubit family with real amplitudes (polar angle only)."""

    def state(thetas):
        half = thetas / 2
        return np.concatenate([np.cos(half), np.sin(half)], axis=1).astype(complex)

    def deriv(thetas):
        half = thetas / 2
        return np.concatenate([-0.5 * np.sin(half), 0.5 * np.cos(half)], axis=1)[:, None, :]

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

    def state(thetas):
        # an infinite phase would reach exp as inf or nan, with numpy warnings;
        # a nan theta passes on to the norm check of PureStateModel.states
        t = thetas[:, 0]
        with np.errstate(over="ignore", invalid="ignore"):  # inf * 0 is nan, not inf
            infinite = np.isinf(t) | np.isinf(t * largest)
        if infinite.any():
            bad = t[np.argmax(infinite)]
            raise ValueError(f"theta {bad} gives a phase theta * G beyond the float range")
        # one matrix-vector product per row, as for a single point
        return (evecs @ (np.exp(-1j * evals * t[:, None]) * coeffs)[:, :, None])[:, :, 0]

    def deriv(thetas):
        rates = -1j * evals * np.exp(-1j * evals * thetas) * coeffs
        return (evecs @ rates[:, :, None])[:, None, :, 0]

    return PureStateModel(1, state, deriv, name=name)


def product_model(model_a: PureStateModel, model_b: PureStateModel) -> PureStateModel:
    """Tensor-product family sharing one parameter vector across both parts."""
    if model_a.param_dim != model_b.param_dim:
        raise ValueError("factor models must share the parameter dimension")

    def state(thetas):
        at_a, at_b = model_a.states(thetas), model_b.states(thetas)
        return (at_a[:, :, None] * at_b[:, None, :]).reshape(len(thetas), -1)

    def deriv(thetas):
        at_a, at_b = model_a.states(thetas), model_b.states(thetas)
        d_a, d_b = model_a.derivatives(thetas), model_b.derivatives(thetas)
        # the Leibniz rule, each term a Kronecker product of one point's vectors
        both = (d_a[:, :, :, None] * at_b[:, None, None, :]
                + at_a[:, None, :, None] * d_b[:, :, None, :])
        return both.reshape(len(thetas), model_a.param_dim, -1)

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

    def nearest(points: np.ndarray) -> np.ndarray:
        """The grid index nearest to each point (the lower one on a tie)."""
        upper = np.clip(np.searchsorted(grid, points), 1, grid.size - 1)
        k = np.where(points - grid[upper - 1] <= grid[upper] - points, upper - 1, upper)
        off = ~(np.abs(grid[k] - points) <= 0.25 * step)  # a NaN point is off too
        if off.any():
            raise ValueError(f"theta {points[np.argmax(off)]} is not a grid point")
        return k

    def state(thetas):
        return table[nearest(thetas[:, 0])]

    def deriv(thetas):
        k = nearest(thetas[:, 0])
        if np.any((k == 0) | (k == grid.size - 1)):
            raise ValueError("derivative undefined at the grid boundary")
        return ((table[k + 1] - table[k - 1]) / (grid[k + 1] - grid[k - 1])[:, None])[:, None]

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
