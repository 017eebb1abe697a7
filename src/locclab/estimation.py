"""Pure-state estimation theory: metric, Berry form, and local-vs-global gap.

Conventions. The horizontal lift used throughout carries a factor 1/2:
|l_i> = (d_i|phi> - <phi|d_i|phi>|phi>)/2. The state-space metric is
J_S = Re<l_i|l_j> and the Berry form is J_tilde = Im<l_i|l_j>; with this
normalization the infidelity expands as 1 - |<phi_t|phi_{t+dt}>|^2 =
4 dt.J_S.dt + O(dt^3). The measurement Fisher matrix returned by
:func:`measurement_fisher` uses matching half-derivative units, so the
quantum information inequality reads J_M <= 4 J_S; the textbook classical
Fisher matrix of the outcome distribution is 4x the returned value.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, Hashable, Mapping, Sequence

import numpy as np

from .models import PureStateModel, richardson_combine, richardson_points
from .states import StateVector

_SUPPORT_RTOL = 1e-10  # relative cutoff of the metric's support


class DegenerateModelError(RuntimeError):
    """The Berry form has weight outside the support of the metric."""


def horizontal_lifts(model: PureStateModel, theta) -> np.ndarray:
    """The (unnormalized) lifts (d_i phi - <phi|d_i phi> phi)/2, orthogonal
    to the state, one row per axis i, from one ``state`` and one
    ``derivatives`` call."""
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    if not model.contains(theta):
        raise ValueError(f"theta {theta} is outside the model domain")
    phi = model.state(theta)
    return np.array([
        0.5 * (dphi - np.vdot(phi, dphi) * phi) for dphi in model.derivatives(theta[None])[0]
    ])


@dataclass(frozen=True)
class FisherData:
    """Metric, Berry form, and their invariant angles at one parameter point.

    ``betas`` are in [0, 1], one per plane (ceil(D/2) values, descending);
    an odd parameter count contributes a structural zero.
    """

    j_s: np.ndarray
    j_tilde: np.ndarray
    betas: tuple[float, ...]


def fisher_data(model: PureStateModel, theta) -> FisherData:
    """Gram data of the horizontal lifts and the invariant angle spectrum.

    The angles are the paired singular values of S^{-1/2} J_tilde S^{-1/2}
    (pseudo-inverse on the support when the metric is singular).
    """
    dim = model.param_dim
    lifts = horizontal_lifts(model, theta)
    gram = np.array([[np.vdot(lifts[i], lifts[j]) for j in range(dim)] for i in range(dim)])
    j_s = (gram.real + gram.real.T) / 2
    j_tilde = (gram.imag - gram.imag.T) / 2

    evals, evecs = np.linalg.eigh(j_s)
    scale = float(evals[-1]) if evals.size else 0.0
    cutoff = _SUPPORT_RTOL * max(scale, 0.0)
    on = evals > cutoff
    if not np.all(on):
        off = evecs[:, ~on]
        coupling = np.linalg.norm(off.T @ j_tilde)
        if coupling > 1e-8 * max(1.0, np.linalg.norm(j_tilde)):
            raise DegenerateModelError(
                "Berry form couples directions with no metric weight"
            )
    inv_sqrt = evecs @ np.diag(np.where(on, 1.0 / np.sqrt(np.where(on, evals, 1.0)), 0.0)) @ evecs.T
    k = inv_sqrt @ j_tilde @ inv_sqrt
    k = (k - k.T) / 2
    svals = np.linalg.svd(k, compute_uv=False)
    betas = svals[0::2]
    if np.any(betas > 1 + 1e-9):
        raise AssertionError(f"angle spectrum exceeds 1: {betas}")
    betas = tuple(float(min(b, 1.0)) for b in betas)
    return FisherData(j_s, j_tilde, betas)


def weighted_cr_value(betas: Sequence[float]) -> float:
    """The attainable weighted-trace bound sum_j 4/(1 + sqrt(1 - beta_j^2));
    monotone increasing in each angle, 2 per plane at beta=0 and 4 at beta=1."""
    total = 0.0
    for b in betas:
        if not 0.0 <= b <= 1.0 + 1e-12:
            raise ValueError(f"beta {b} outside [0, 1]")
        total += 4.0 / (1.0 + math.sqrt(max(0.0, 1.0 - min(b, 1.0) ** 2)))
    return total


@dataclass(frozen=True)
class Povm:
    """A discrete positive operator-valued measure."""

    elements: tuple[np.ndarray, ...]

    def __post_init__(self):
        elements = tuple(np.asarray(e, dtype=complex) for e in self.elements)
        object.__setattr__(self, "elements", elements)
        total = sum(elements)
        dim = elements[0].shape[0]
        if not np.max(np.abs(total - np.eye(dim))) <= 1e-10:  # a NaN entry fails too
            raise ValueError("POVM elements must sum to the identity")
        for e in elements:
            if not np.min(np.linalg.eigvalsh((e + e.conj().T) / 2)) >= -1e-12:
                raise ValueError("POVM element is not positive semidefinite")


def fisher_of_distribution(
    dist_fn: Callable[[np.ndarray], Mapping[Hashable, float]], theta0
) -> np.ndarray:
    """Classical Fisher matrix (standard normalization) of the outcome law
    ``dist_fn``, keyed by sortable outcomes: :func:`fisher_of_laws` of its
    laws at the :func:`models.richardson_points` of theta0."""
    return fisher_of_laws([dist_fn(point) for point in richardson_points(theta0)])


def fisher_of_laws(laws: Sequence[Mapping[Hashable, float]]) -> np.ndarray:
    """Classical Fisher matrix sum_x grad p(x) grad p(x)^T / p(x) over the
    outcomes of the first law, the one at theta0, from the laws at the
    :func:`models.richardson_points` of theta0, in that order: each axis's
    four stencil laws are combined by :func:`models.richardson_combine`
    (an outcome missing from a law has probability 0). Outcomes with
    probability below 1e-12 are excluded, with a warning when their
    probability varies."""
    outcomes = sorted(laws[0])
    table = np.array([[law.get(x, 0.0) for x in outcomes] for law in laws[1:]])
    stencils = table.reshape(-1, 4, len(outcomes))  # axis, stencil point, outcome
    grads = richardson_combine(np.moveaxis(stencils, 1, 0)).T

    probs = np.array([laws[0][x] for x in outcomes])
    live = probs >= 1e-12
    for row in np.flatnonzero(~live):
        if np.max(np.abs(grads[row])) > 1e-8:
            warnings.warn(
                f"outcome {outcomes[row]} has vanishing probability but varying "
                "derivative; information diverges at the boundary",
                stacklevel=3,
            )
    weighted = grads[live] / np.sqrt(probs[live])[:, None]
    return weighted.T @ weighted


def measurement_fisher(povm: Povm, model: PureStateModel, theta) -> np.ndarray:
    """Fisher matrix of the outcome distribution, in half-derivative units:
    the :func:`fisher_of_distribution` of the outcome law keyed by outcome
    index, divided by 4, with the states at theta and on every stencil from
    one ``model.states`` call. Satisfies J_M <= 4 J_S.
    """
    laws = [
        {x: float(np.real(np.vdot(phi, e @ phi))) for x, e in enumerate(povm.elements)}
        for phi in model.states(richardson_points(theta))
    ]
    return fisher_of_laws(laws) / 4.0


def beta_combination(a: float, b: float, beta_a: float, beta_b: float) -> tuple[float, float]:
    """Both sign branches of the conformal combination rule
    (a beta_A +/- b beta_B)/(a+b); the minus branch is returned as its
    absolute value since angles are non-negative."""
    if not (0 < a < math.inf and 0 < b < math.inf):
        raise ValueError(f"weights a, b must be positive and finite, got {a}, {b}")
    plus = (a * beta_a + b * beta_b) / (a + b)
    minus = abs(a * beta_a - b * beta_b) / (a + b)
    return plus, minus


@dataclass(frozen=True)
class GapResult:
    global_best: float
    locc_best: float
    gap: float


def locc_gap(a: float, b: float, beta_a: float, beta_b: float, sign: str = "+") -> GapResult:
    """Closed-form ends of the local-vs-global chain in the two-parameter
    conformal setting.

    global_best = 1 + sqrt(1 - beta^2) with beta the chosen combination
    branch; locc_best is the weight-averaged per-party value. The gap is
    non-negative and vanishes exactly when the angles agree and the plus
    branch applies.
    """
    if sign not in ("+", "-"):
        raise ValueError("sign must be '+' or '-'")
    for name, val in (("beta_a", beta_a), ("beta_b", beta_b)):
        if not 0.0 <= val <= 1.0:
            raise ValueError(f"{name} must be in [0, 1]")
    plus, minus = beta_combination(a, b, beta_a, beta_b)
    beta = plus if sign == "+" else minus
    global_best = 1.0 + math.sqrt(max(0.0, 1.0 - beta**2))
    locc_best = (
        a * (1.0 + math.sqrt(1.0 - beta_a**2)) + b * (1.0 + math.sqrt(1.0 - beta_b**2))
    ) / (a + b)
    return GapResult(global_best, locc_best, global_best - locc_best)


def detection_condition(states: Sequence[StateVector]) -> tuple[float, float, bool]:
    """Sufficient condition for local detection to match the global optimum:
    the largest pairwise squared overlap must dominate the largest Schmidt
    coefficient. Returns (lhs, rhs, holds)."""
    if len(states) < 2:
        raise ValueError("need at least two states")
    lhs = 0.0
    for i in range(len(states)):
        for j in range(i + 1, len(states)):
            lhs = max(lhs, states[i].fidelity(states[j]))
    rhs = max(float(np.max(s.schmidt_coefficients())) for s in states)
    return lhs, rhs, lhs >= rhs
