"""Round-based two-party protocol engine with classical transcripts.

Protocols are ordered lists of rounds; each round names the acting party
and an instrument, a history-dependent list of labeled completely positive
maps (given by Kraus operators on the acting party's factor) that together
preserve trace. The engine runs in density-matrix form, samples one
execution path with exact branch probabilities, and can exhaustively
enumerate the joint outcome distribution for Fisher-information analysis.

Kraus operators may be rectangular (the acting party's local dimension then
changes), which lets a measure-and-discard or an embed-into-larger-register
step be expressed directly.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from .models import PureStateModel, rotation_model
from .states import StateVector

_PATH_LIMIT = 100_000
_FD_STEP = 1e-5
_HASH_BLOCK = 2**16  # density entries hashed per block of rows


class EstimationFailureError(RuntimeError):
    """Adaptive estimation could not produce a usable auxiliary estimate."""


Instrument = Callable[[tuple[str, ...]], list[tuple[str, list[np.ndarray]]]]


@dataclass(frozen=True)
class Round:
    party: str  # "A" or "B"
    instrument: Instrument

    def __post_init__(self):
        if self.party not in ("A", "B"):
            raise ValueError("party must be 'A' or 'B'")


@dataclass(frozen=True)
class LoccProtocol:
    """An ordered protocol over an A-B split of the input factors."""

    dim_a: int
    dim_b: int
    rounds: tuple[Round, ...]
    protocol_id: str = "locc"


@dataclass(frozen=True)
class Message:
    round_index: int
    party: str
    outcome: str
    prob: float


@dataclass(frozen=True)
class LoccTranscript:
    """One sampled execution path: messages, final state, and seed.

    ``state`` holds the final state either as a density matrix (2-D) or, for
    a pure state, as its amplitude vector (1-D); ``final_state`` reads as the
    density matrix in both cases, built from the vector on each read.
    """

    protocol_id: str
    seed: int | None
    messages: list[Message]
    state: np.ndarray

    @property
    def final_state(self) -> np.ndarray:
        """Density matrix of the final state."""
        if self.state.ndim == 1:
            return np.outer(self.state, self.state.conj())
        return self.state

    @property
    def path_probability(self) -> float:
        out = 1.0
        for msg in self.messages:
            out *= msg.prob
        return out

    def final_state_hash(self) -> str:
        """SHA-256 of the density matrix. A pure state's density is hashed a
        block of rows at a time, so it is never held whole."""
        digest = hashlib.sha256()
        if self.state.ndim == 1:
            dim = self.state.size
            digest.update(str((dim, dim)).encode())
            conj = self.state.conj()
            rows = max(1, _HASH_BLOCK // dim)
            for start in range(0, dim, rows):
                digest.update(np.outer(self.state[start : start + rows], conj).tobytes())
        else:
            arr = np.ascontiguousarray(self.state)
            digest.update(str(arr.shape).encode())
            digest.update(arr.tobytes())
        return digest.hexdigest()

    def to_json(self) -> str:
        payload = {
            "protocol_id": self.protocol_id,
            "seed": self.seed,
            "rounds": [
                {"party": m.party, "outcome": m.outcome, "prob": m.prob}
                for m in self.messages
            ],
            "final_state_hash": self.final_state_hash(),
        }
        return json.dumps(payload, sort_keys=True)


def _as_density(state, dim: int) -> np.ndarray:
    if isinstance(state, StateVector):
        vec = state.amplitudes
    else:
        arr = np.asarray(state, dtype=complex)
        if arr.ndim == 2:
            if arr.shape != (dim, dim):
                raise ValueError(f"density matrix must be {dim}x{dim}")
            return arr
        vec = arr.reshape(-1)
    if vec.size != dim:
        raise ValueError(f"state has dimension {vec.size}, expected {dim}")
    return np.outer(vec, vec.conj())


def _lift(kraus: np.ndarray, party: str, dim_a: int, dim_b: int) -> np.ndarray:
    if party == "A":
        return np.kron(kraus, np.eye(dim_b))
    return np.kron(np.eye(dim_a), kraus)


def _check_trace_preserving(ops: list[tuple[str, list[np.ndarray]]], dim: int):
    total = np.zeros((dim, dim), dtype=complex)
    for _, kraus_list in ops:
        for k in kraus_list:
            k = np.asarray(k)
            if k.shape[1] != dim:
                raise ValueError(
                    f"Kraus input dimension {k.shape[1]} != party dimension {dim}"
                )
            total += k.conj().T @ k
    if np.max(np.abs(total - np.eye(dim))) > 1e-10:
        raise ValueError("instrument maps do not sum to a trace-preserving map")


def run_locc(
    protocol: LoccProtocol,
    input_state,
    rng: np.random.Generator | int | None = None,
) -> LoccTranscript:
    """Sample one execution path; deterministic given the seed."""
    if isinstance(rng, (int, np.integer)) or rng is None:
        seed = int(rng) if rng is not None else 0
        rng = np.random.default_rng(seed)
    else:
        seed = None
    dim_a, dim_b = protocol.dim_a, protocol.dim_b
    rho = _as_density(input_state, dim_a * dim_b)
    history: tuple[str, ...] = ()
    messages: list[Message] = []
    for idx, rnd in enumerate(protocol.rounds):
        local_dim = dim_a if rnd.party == "A" else dim_b
        ops = rnd.instrument(history)
        _check_trace_preserving(ops, local_dim)
        branches = []
        for label, kraus_list in ops:
            lifted = [_lift(np.asarray(k, dtype=complex), rnd.party, dim_a, dim_b)
                      for k in kraus_list]
            out = sum(lk @ rho @ lk.conj().T for lk in lifted)
            branches.append((label, out, float(np.real(np.trace(out)))))
        probs = np.array([b[2] for b in branches])
        probs = np.clip(probs, 0.0, None)
        probs = probs / probs.sum()
        choice = int(rng.choice(len(branches), p=probs))
        label, out, p = branches[choice]
        rho = out / p
        if rnd.party == "A":
            dim_a = rho.shape[0] // dim_b
        else:
            dim_b = rho.shape[0] // dim_a
        history += (label,)
        messages.append(Message(idx, rnd.party, label, p))
    return LoccTranscript(protocol.protocol_id, seed, messages, rho)


def enumerate_paths(protocol: LoccProtocol, input_state) -> dict[tuple[str, ...], float]:
    """Exact probabilities of every outcome sequence (zero-probability
    branches omitted); probabilities sum to 1."""
    dim_a0, dim_b0 = protocol.dim_a, protocol.dim_b
    rho0 = _as_density(input_state, dim_a0 * dim_b0)
    out: dict[tuple[str, ...], float] = {}
    counter = [0]

    def walk(rho, history, prob, idx, dim_a, dim_b):
        if idx == len(protocol.rounds):
            counter[0] += 1
            if counter[0] > _PATH_LIMIT:
                raise RuntimeError(f"path count exceeds {_PATH_LIMIT}")
            out[history] = prob
            return
        rnd = protocol.rounds[idx]
        local_dim = dim_a if rnd.party == "A" else dim_b
        ops = rnd.instrument(history)
        _check_trace_preserving(ops, local_dim)
        for label, kraus_list in ops:
            lifted = [_lift(np.asarray(k, dtype=complex), rnd.party, dim_a, dim_b)
                      for k in kraus_list]
            new_rho = sum(lk @ rho @ lk.conj().T for lk in lifted)
            p = float(np.real(np.trace(new_rho)))
            if p <= 1e-15:
                continue
            new_a, new_b = dim_a, dim_b
            if rnd.party == "A":
                new_a = new_rho.shape[0] // dim_b
            else:
                new_b = new_rho.shape[0] // dim_a
            walk(new_rho / p, history + (label,), prob * p, idx + 1, new_a, new_b)

    walk(rho0, (), 1.0, 0, dim_a0, dim_b0)
    return out


def joint_outcome_distribution(
    protocol: LoccProtocol, model: PureStateModel, theta
) -> dict[tuple[str, ...], float]:
    """Outcome-sequence distribution of the protocol on the model state."""
    return enumerate_paths(protocol, model.state(theta))


def fisher_of_distribution(
    dist_fn: Callable[[np.ndarray], Mapping[tuple[str, ...], float]],
    theta0,
    param_dim: int,
    h: float = _FD_STEP,
    prob_floor: float = 1e-12,
) -> np.ndarray:
    """Classical Fisher matrix of a path distribution, by Richardson-
    extrapolated central differences in theta (standard normalization)."""
    theta0 = np.atleast_1d(np.asarray(theta0, dtype=float))
    base = dict(dist_fn(theta0))
    paths = sorted(base)

    def prob_vector(at: np.ndarray) -> np.ndarray:
        dist = dist_fn(at)
        return np.array([dist.get(path, 0.0) for path in paths])

    grads = np.zeros((len(paths), param_dim))
    for i in range(param_dim):
        def central(step: float) -> np.ndarray:
            up, down = theta0.copy(), theta0.copy()
            up[i] += step
            down[i] -= step
            return (prob_vector(up) - prob_vector(down)) / (2 * step)

        grads[:, i] = (4 * central(h / 2) - central(h)) / 3

    fisher = np.zeros((param_dim, param_dim))
    for row, path in enumerate(paths):
        p = base[path]
        if p < prob_floor:
            continue
        fisher += np.outer(grads[row], grads[row]) / p
    return fisher


@dataclass(frozen=True)
class AdditivityResult:
    j_total: np.ndarray
    j_a: np.ndarray
    j_b: np.ndarray

    @property
    def cross(self) -> float:
        return float(np.max(np.abs(self.j_total - self.j_a - self.j_b)))


def verify_fisher_additivity(
    protocol: LoccProtocol,
    model_a: PureStateModel,
    model_b: PureStateModel,
    theta0,
) -> AdditivityResult:
    """Check that the protocol's information splits into per-party terms.

    The per-party terms freeze the other party's state at theta0, so each is
    the information of a purely local experiment; their sum must reproduce
    the information of the full interactive protocol at theta0.
    """
    if model_a.param_dim != model_b.param_dim:
        raise ValueError("product family needs matching parameter dimensions")
    theta0 = np.atleast_1d(np.asarray(theta0, dtype=float))
    dim = model_a.param_dim

    def dist_total(th):
        return enumerate_paths(protocol, np.kron(model_a.state(th), model_b.state(th)))

    def dist_a(th):
        return enumerate_paths(protocol, np.kron(model_a.state(th), model_b.state(theta0)))

    def dist_b(th):
        return enumerate_paths(protocol, np.kron(model_a.state(theta0), model_b.state(th)))

    return AdditivityResult(
        fisher_of_distribution(dist_total, theta0, dim),
        fisher_of_distribution(dist_a, theta0, dim),
        fisher_of_distribution(dist_b, theta0, dim),
    )


# ----------------------------------------------------------------------
# two-stage adaptive local estimation


@dataclass(frozen=True)
class EstimationReport:
    """Monte-Carlo summary of the adaptive local estimation scheme."""

    n_copies: int
    trials: int
    theta_true: float
    stage1_copies: int
    estimates: np.ndarray
    mse: float
    n_mse: float
    reference_cr: float  # 1 / (single-copy optimal local information)
    seed: int | None

    def to_csv(self, path) -> None:
        lines = ["trial,estimate,squared_error"]
        for k, est in enumerate(self.estimates):
            lines.append(f"{k},{est!r},{(est - self.theta_true) ** 2!r}")
        with open(path, "w") as handle:
            handle.write("\n".join(lines) + "\n")


def _qfi(model: PureStateModel, theta: float) -> float:
    """Standard quantum Fisher information of a 1-parameter pure family."""
    th = np.array([theta])
    phi = model.state(th)
    dphi = model.derivative(th, 0)
    return float(4.0 * (np.vdot(dphi, dphi).real - abs(np.vdot(phi, dphi)) ** 2))


def _optimal_basis_vector(model: PureStateModel, theta: float) -> np.ndarray:
    """First vector of the locally optimal projective basis at theta."""
    th = np.array([theta])
    phi = model.state(th)
    dphi = model.derivative(th, 0)
    perp = dphi - np.vdot(phi, dphi) * phi
    nrm = np.linalg.norm(perp)
    if nrm < 1e-12:
        return np.array([1.0, 0.0], dtype=complex)  # flat direction: keep fixed basis
    chi = perp / nrm
    overlap = np.vdot(chi, dphi)
    if abs(overlap) > 1e-12:
        chi = chi * (overlap / abs(overlap)).conjugate()
    return (phi + chi) / math.sqrt(2.0)


def _golden_max(fn: Callable[[float], float], lo: float, hi: float, iters: int = 60) -> float:
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = fn(c), fn(d)
    for _ in range(iters):
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = fn(d)
    return 0.5 * (a + b)


def _binom_loglik(counts: Sequence[tuple[int, int, np.ndarray]]) -> np.ndarray:
    """Log-likelihood over a grid from (successes, total, p_grid) blocks."""
    total = 0.0
    for k, n, p in counts:
        p = np.clip(p, 1e-12, 1.0 - 1e-12)
        total = total + k * np.log(p) + (n - k) * np.log1p(-p)
    return total


def two_stage_estimate(
    model_a: PureStateModel,
    model_b: PureStateModel,
    n: int,
    trials: int,
    rng: np.random.Generator | int | None = None,
    theta_true: float = 1.0,
    grid_points: int = 512,
) -> EstimationReport:
    """Adaptive local estimation of a shared one-parameter family.

    Stage 1 measures ceil(sqrt(n)) copies per party in a fixed basis and
    forms an auxiliary grid-ML estimate; stage 2 measures the remaining
    copies in the per-party bases that are optimal at that estimate; the
    final estimate maximizes the likelihood of the full transcript. The
    report compares n * MSE against the single-copy reference 1/J with J
    the summed per-party information at the true parameter.
    """
    if model_a.param_dim != 1 or model_b.param_dim != 1:
        raise ValueError("two-stage scheme handles one-parameter families")
    if n < 25:
        raise ValueError("need n >= 25 so that sqrt(n) first-stage copies >= 5")
    if isinstance(rng, (int, np.integer)) or rng is None:
        seed = int(rng) if rng is not None else 0
        rng = np.random.default_rng(seed)
    else:
        seed = None

    j_ref = _qfi(model_a, theta_true) + _qfi(model_b, theta_true)
    if trials == 0:
        return EstimationReport(
            n, 0, theta_true, math.isqrt(n), np.array([]), 0.0, 0.0, 1.0 / j_ref, seed
        )

    n1 = math.ceil(math.sqrt(n))
    n2 = n - n1
    lo, hi = model_a.box()[0]
    lo2, hi2 = model_b.box()[0]
    lo, hi = max(lo, lo2), min(hi, hi2)
    # families with unbounded parameters are searched over one period
    if math.isinf(lo):
        lo = -math.pi
    if math.isinf(hi):
        hi = math.pi
    if not (lo < theta_true < hi):
        raise ValueError("theta_true must lie inside the model domain")

    fixed = np.array([1.0, 0.0], dtype=complex)  # computational basis, first vector

    def prob_in_basis(model: PureStateModel, vec: np.ndarray, grid_states: np.ndarray):
        return np.abs(grid_states @ vec.conj()) ** 2

    def build_grid(points: int):
        grid = np.linspace(lo, hi, points)
        states_a = np.stack([model_a.state(np.array([t])) for t in grid])
        states_b = np.stack([model_b.state(np.array([t])) for t in grid])
        return grid, states_a, states_b

    grid, grid_a, grid_b = build_grid(grid_points)
    p1a_grid = prob_in_basis(model_a, fixed, grid_a)
    p1b_grid = prob_in_basis(model_b, fixed, grid_b)
    p1a_true = float(abs(np.vdot(fixed, model_a.state(np.array([theta_true])))) ** 2)
    p1b_true = float(abs(np.vdot(fixed, model_b.state(np.array([theta_true])))) ** 2)

    def refine(loglik_fn: Callable[[float], float], center: float, span: float) -> float:
        return _golden_max(loglik_fn, max(lo, center - span), min(hi, center + span))

    estimates = np.empty(trials)
    children = np.random.SeedSequence(rng.integers(2**63)).spawn(trials)
    for t in range(trials):
        trial_rng = np.random.default_rng(children[t])
        k1a = int(trial_rng.binomial(n1, p1a_true))
        k1b = int(trial_rng.binomial(n1, p1b_true))

        stage1 = [(k1a, n1, p1a_grid), (k1b, n1, p1b_grid)]
        loglik1 = _binom_loglik(stage1)
        cur_grid, cur_a, cur_b = grid, grid_a, grid_b
        attempts = 0
        while float(np.max(loglik1) - np.min(loglik1)) < 1e-9:
            attempts += 1
            if attempts > 3:
                raise EstimationFailureError(
                    "stage-1 likelihood is flat; the fixed basis carries no "
                    "information about this family"
                )
            cur_grid, cur_a, cur_b = build_grid(cur_grid.size * 2)
            loglik1 = _binom_loglik(
                [(k1a, n1, prob_in_basis(model_a, fixed, cur_a)),
                 (k1b, n1, prob_in_basis(model_b, fixed, cur_b))]
            )
        theta_aux = float(cur_grid[int(np.argmax(loglik1))])

        vec_a = _optimal_basis_vector(model_a, theta_aux)
        vec_b = _optimal_basis_vector(model_b, theta_aux)
        p2a_true = float(abs(np.vdot(vec_a, model_a.state(np.array([theta_true])))) ** 2)
        p2b_true = float(abs(np.vdot(vec_b, model_b.state(np.array([theta_true])))) ** 2)
        k2a = int(trial_rng.binomial(n2, p2a_true))
        k2b = int(trial_rng.binomial(n2, p2b_true))

        p2a_grid = prob_in_basis(model_a, vec_a, grid_a)
        p2b_grid = prob_in_basis(model_b, vec_b, grid_b)
        blocks = [
            (k1a, n1, p1a_grid),
            (k1b, n1, p1b_grid),
            (k2a, n2, p2a_grid),
            (k2b, n2, p2b_grid),
        ]
        loglik = _binom_loglik(blocks)
        peak = float(grid[int(np.argmax(loglik))])

        def loglik_at(th: float) -> float:
            sa = model_a.state(np.array([th]))
            sb = model_b.state(np.array([th]))
            vals = [
                (k1a, n1, abs(np.vdot(fixed, sa)) ** 2),
                (k1b, n1, abs(np.vdot(fixed, sb)) ** 2),
                (k2a, n2, abs(np.vdot(vec_a, sa)) ** 2),
                (k2b, n2, abs(np.vdot(vec_b, sb)) ** 2),
            ]
            return float(
                sum(
                    k * math.log(min(max(p, 1e-12), 1 - 1e-12))
                    + (n_tot - k) * math.log(min(max(1 - p, 1e-12), 1 - 1e-12))
                    for k, n_tot, p in vals
                )
            )

        estimates[t] = refine(loglik_at, peak, float(grid[1] - grid[0]))

    mse = float(np.mean((estimates - theta_true) ** 2))
    return EstimationReport(
        n, trials, theta_true, n1, estimates, mse, n * mse, 1.0 / j_ref, seed
    )


# ----------------------------------------------------------------------
# protocol builders


def teleport_protocol(n: int, d: int = 2, basis_seed: int = 0) -> LoccProtocol:
    """The self-teleportation protocol as a two-round instrument protocol.

    Alice's round combines the retained-subspace projection with a finite
    version of the outcome measurement: the continuum of unitaries is
    replaced by signed discrete Weyl operators on each multiplicity factor,
    which average to the same completeness relation exactly. Bob's round
    undoes the announced unitaries and embeds the result, together with
    freshly prepared maximally entangled multiplicity parts, into a doubled
    register.
    """
    from . import teleport as tp

    plan = tp.build_plan(n, d, basis_seed)
    if not plan.good:
        raise ValueError("no retained blocks at these parameters")
    basis = plan.basis
    bmat = basis.matrix
    dim = d**n
    slices = basis.slices()

    good_cols = np.zeros(dim, dtype=bool)
    for lam in plan.good:
        good_cols[slices[lam]] = True
    proj_good = (bmat[:, good_cols] @ bmat[:, good_cols].T).astype(complex)

    def weyl(dv: int, a: int, b: int, sign: int) -> np.ndarray:
        shift = np.roll(np.eye(dv), a, axis=0)
        clock = np.diag(np.exp(2j * np.pi * b * np.arange(dv) / dv))
        return sign * shift @ clock

    outcome_sets = []
    for lam in plan.good:
        dv = basis.blocks[lam].dim_v
        outcome_sets.append(
            [(a, b, s) for a in range(dv) for b in range(dv) for s in (1, -1)]
        )
    combos: list[tuple[tuple[int, int, int], ...]] = [()]
    for options in outcome_sets:
        combos = [prefix + (opt,) for prefix in combos for opt in options]
    n_outcomes = len(combos)

    def unitaries_for(combo) -> dict:
        return {
            lam: weyl(basis.blocks[lam].dim_v, *combo[k])
            for k, lam in enumerate(plan.good)
        }

    def alice_instrument(history):
        ops = [("fail", [np.eye(dim, dtype=complex) - proj_good])]
        for m, combo in enumerate(combos):
            a_op = tp.kraus_operator(plan, unitaries_for(combo))
            ops.append((f"w{m}", [a_op / math.sqrt(n_outcomes)]))
        return ops

    embed = _teleport_embedding(basis, plan.good, d, n)

    def bob_instrument(history):
        label = history[-1]
        if label == "fail":
            return [("abort", [np.eye(dim, dtype=complex)])]
        combo = combos[int(label[1:])]
        recover = np.zeros((dim, dim), dtype=complex)
        for lam, sl in slices.items():
            block = basis.blocks[lam]
            width = block.dim_u * block.dim_v
            if lam in plan.good:
                w_mat = unitaries_for(combo)[lam]
                local = np.kron(np.eye(block.dim_u), w_mat.T)
            else:
                local = np.eye(width)
            recover[sl, sl] = local
        recover_full = bmat @ recover @ bmat.T
        return [("done", [embed @ recover_full])]

    return LoccProtocol(
        dim_a=dim,
        dim_b=dim,
        rounds=(Round("A", alice_instrument), Round("B", bob_instrument)),
        protocol_id=f"teleport(n={n},d={d})",
    )


def _teleport_embedding(basis, good, d: int, n: int) -> np.ndarray:
    """Isometry from Bob's register into the doubled register that moves the
    received content into the fresh factor and installs the maximally
    entangled multiplicity parts; unused directions go to a retired block."""
    dim = d**n
    slices = basis.slices()
    bmat = basis.matrix
    bad = [lam for lam in basis.blocks if lam not in set(good)]
    junk_lam = bad[0]
    junk_vec = bmat[:, slices[junk_lam].start]  # first column of a retired block

    embed = np.zeros((dim * dim, dim), dtype=complex)
    for lam, sl in slices.items():
        block = basis.blocks[lam]
        du, dv = block.dim_u, block.dim_v
        for u in range(du):
            for v in range(dv):
                col = sl.start + u * dv + v
                if lam in set(good) and v < du:
                    target = np.zeros(dim * dim, dtype=complex)
                    for w in range(dv):
                        target += np.kron(block.column(v, w), block.column(u, w))
                    embed[:, col] = target / math.sqrt(dv)
                else:
                    embed[:, col] = np.kron(bmat[:, col], junk_vec)
    # columns above are indexed by block coordinates; compose with the
    # change of basis so the isometry acts on computational-basis vectors
    return embed @ bmat.T


def random_qubit_model(rng: np.random.Generator, label: str = "") -> PureStateModel:
    """Random smooth one-parameter qubit family with analytic derivatives."""
    gen = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    gen = (gen + gen.conj().T) / 2
    psi0 = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    return rotation_model(gen, psi0, name=label or "random-qubit")


def random_adaptive_protocol(
    rng: np.random.Generator, rounds: int = 2, n_choices: int = 4
) -> LoccProtocol:
    """Random adaptive protocol on a qubit pair: each round measures the
    acting party projectively in a basis selected by the history so far."""

    def random_unitary(r: np.random.Generator) -> np.ndarray:
        z = (r.standard_normal((2, 2)) + 1j * r.standard_normal((2, 2))) / math.sqrt(2)
        q, rr = np.linalg.qr(z)
        return q * (np.diagonal(rr) / np.abs(np.diagonal(rr)))

    parties = ["A" if k % 2 == 0 else "B" for k in range(rounds)]
    tables = [
        [random_unitary(rng) for _ in range(n_choices)] for _ in range(rounds)
    ]

    def make_instrument(idx: int) -> Instrument:
        def instrument(history):
            key = (sum(int(h) for h in history) + 7 * len(history)) % n_choices
            basis = tables[idx][key]
            return [
                ("0", [np.outer(basis[:, 0], basis[:, 0].conj())]),
                ("1", [np.outer(basis[:, 1], basis[:, 1].conj())]),
            ]

        return instrument

    return LoccProtocol(
        dim_a=2,
        dim_b=2,
        rounds=tuple(Round(p, make_instrument(k)) for k, p in enumerate(parties)),
        protocol_id=f"random-adaptive-{rounds}r",
    )
