"""Round-based two-party protocol engine with classical transcripts.

Protocols are ordered lists of rounds; each round names the acting party
and an instrument, a history-dependent list of labeled completely positive
maps (given by Kraus operators on the acting party's factor) that together
preserve trace. The engine holds the state as a factor V of its density
V V^dagger, shaped (d_A, d_B, r), and contracts each Kraus operator with the
acting party's axis. It samples one execution path with exact branch
probabilities, and can exhaustively enumerate the joint outcome
distribution for Fisher-information analysis.

Kraus operators may be rectangular (the acting party's local dimension then
changes), which lets a measure-and-discard or an embed-into-larger-register
step be expressed directly.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .estimation import fisher_of_distribution
from .models import PureStateModel, rotation_model
from .partitions import dim_v
from .states import StateVector, check_bytes

_PATH_LIMIT = 100_000
_GRID_POINTS = 512  # likelihood grid of the two-stage estimate
_BASIS_CHOICES = 4  # bases per round of a random adaptive protocol
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
            check_bytes(16 * self.state.size**2, "the final density matrix")
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


def _as_generator(rng) -> tuple[np.random.Generator, int | None]:
    """A generator and the seed to record: an int seeds a fresh generator
    (None means 0); a given generator is used as is and records no seed."""
    if isinstance(rng, (int, np.integer)) or rng is None:
        seed = int(rng) if rng is not None else 0
        return np.random.default_rng(seed), seed
    return rng, None


def _as_factor(state, dim_a: int, dim_b: int) -> np.ndarray:
    """The input state as a factor V of its density V V^dagger, shaped
    (d_A, d_B, r). A vector is one column; a density matrix is factored
    once by its eigendecomposition. Anything but a normalized state raises.
    """
    dim = dim_a * dim_b
    arr = state.amplitudes if isinstance(state, StateVector) else np.asarray(state, dtype=complex)
    if arr.ndim == 2:
        if arr.shape != (dim, dim):
            raise ValueError(f"density matrix must be {dim}x{dim}")
        if np.max(np.abs(arr - arr.conj().T)) > 1e-10:
            raise ValueError("density matrix is not Hermitian")
        evals, evecs = np.linalg.eigh(arr)
        if evals[0] < -1e-10:
            raise ValueError(f"density matrix has eigenvalue {evals[0]} < 0")
        norm2 = float(np.trace(arr).real)
        factor = evecs[:, evals > 0] * np.sqrt(evals[evals > 0])
    else:
        factor = arr.reshape(-1, 1)
        if factor.size != dim:
            raise ValueError(f"state has dimension {factor.size}, expected {dim}")
        norm2 = float(np.vdot(factor, factor).real)
    if abs(norm2 - 1.0) > 1e-9:
        raise ValueError(f"state is not normalized: its density has trace {norm2}")
    return factor.reshape(dim_a, dim_b, -1)


def _apply(kraus_list, factor: np.ndarray, party: str) -> tuple[np.ndarray, float]:
    """Unnormalized factor of the branch state sum_K K rho K^dagger, each K
    contracted with the party's axis, and its probability ||K V||^2."""
    dim_a, dim_b, cols = factor.shape
    if party == "A":
        flat = factor.reshape(dim_a, -1)
        parts = [(np.asarray(k, dtype=complex) @ flat).reshape(-1, dim_b, cols)
                 for k in kraus_list]
    else:
        parts = [np.asarray(k, dtype=complex) @ factor for k in kraus_list]
    out = parts[0] if len(parts) == 1 else np.concatenate(parts, axis=2)
    rows = out.shape[0] * out.shape[1]
    if out.shape[2] > rows:
        # V V^dagger = R^dagger R for the QR factors of V^dagger
        r_mat = np.linalg.qr(out.reshape(rows, -1).conj().T, mode="r")
        out = r_mat.conj().T.reshape(out.shape[0], out.shape[1], -1)
    return out, float(np.vdot(out, out).real)


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
    """Sample one execution path; deterministic given the seed. The
    transcript holds a pure final state as its amplitude vector and a mixed
    one as its density matrix."""
    rng, seed = _as_generator(rng)
    factor = _as_factor(input_state, protocol.dim_a, protocol.dim_b)
    history: tuple[str, ...] = ()
    messages: list[Message] = []
    for idx, rnd in enumerate(protocol.rounds):
        ops = rnd.instrument(history)
        _check_trace_preserving(ops, factor.shape["AB".index(rnd.party)])
        branches = [(label, *_apply(kraus_list, factor, rnd.party)) for label, kraus_list in ops]
        probs = np.array([b[2] for b in branches])
        choice = int(rng.choice(len(branches), p=probs / probs.sum()))
        label, out, p = branches[choice]
        factor = out / math.sqrt(p)
        history += (label,)
        messages.append(Message(idx, rnd.party, label, p))
    flat = factor.reshape(-1, factor.shape[2])
    final = flat[:, 0] if flat.shape[1] == 1 else flat @ flat.conj().T
    return LoccTranscript(protocol.protocol_id, seed, messages, final)


def enumerate_paths(protocol: LoccProtocol, input_state) -> dict[tuple[str, ...], float]:
    """Exact probabilities of every outcome sequence (zero-probability
    branches omitted); probabilities sum to 1."""
    out: dict[tuple[str, ...], float] = {}
    counter = [0]

    def walk(factor, history, prob, idx):
        if idx == len(protocol.rounds):
            counter[0] += 1
            if counter[0] > _PATH_LIMIT:
                raise RuntimeError(f"path count exceeds {_PATH_LIMIT}")
            out[history] = prob
            return
        rnd = protocol.rounds[idx]
        ops = rnd.instrument(history)
        _check_trace_preserving(ops, factor.shape["AB".index(rnd.party)])
        for label, kraus_list in ops:
            new, p = _apply(kraus_list, factor, rnd.party)
            if p <= 1e-15:
                continue
            walk(new / math.sqrt(p), history + (label,), prob * p, idx + 1)

    walk(_as_factor(input_state, protocol.dim_a, protocol.dim_b), (), 1.0, 0)
    return out


def joint_outcome_distribution(
    protocol: LoccProtocol, model: PureStateModel, theta
) -> dict[tuple[str, ...], float]:
    """Outcome-sequence distribution of the protocol on the model state."""
    return enumerate_paths(protocol, model.state(theta))


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
    rng, seed = _as_generator(rng)

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

    def prob_in_basis(vec: np.ndarray, grid_states: np.ndarray):
        return np.abs(grid_states @ vec.conj()) ** 2

    def build_grid(points: int):
        grid = np.linspace(lo, hi, points)
        states_a = np.stack([model_a.state(np.array([t])) for t in grid])
        states_b = np.stack([model_b.state(np.array([t])) for t in grid])
        return grid, states_a, states_b

    grid, grid_a, grid_b = build_grid(_GRID_POINTS)
    p1a_grid = prob_in_basis(fixed, grid_a)
    p1b_grid = prob_in_basis(fixed, grid_b)
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
                [(k1a, n1, prob_in_basis(fixed, cur_a)),
                 (k1b, n1, prob_in_basis(fixed, cur_b))]
            )
        theta_aux = float(cur_grid[int(np.argmax(loglik1))])

        vec_a = _optimal_basis_vector(model_a, theta_aux)
        vec_b = _optimal_basis_vector(model_b, theta_aux)
        p2a_true = float(abs(np.vdot(vec_a, model_a.state(np.array([theta_true])))) ** 2)
        p2b_true = float(abs(np.vdot(vec_b, model_b.state(np.array([theta_true])))) ** 2)
        k2a = int(trial_rng.binomial(n2, p2a_true))
        k2b = int(trial_rng.binomial(n2, p2b_true))

        p2a_grid = prob_in_basis(vec_a, grid_a)
        p2b_grid = prob_in_basis(vec_b, grid_b)
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


def teleport_protocol(n: int, d: int = 2) -> LoccProtocol:
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

    good = tp.good_set(n, d)
    if not good:
        raise ValueError("no retained blocks at these parameters")
    dims_v = [dim_v(lam) for lam in good]
    n_outcomes = math.prod(2 * dv**2 for dv in dims_v)
    if n_outcomes > _PATH_LIMIT:
        raise ValueError(
            f"Alice's instrument would have {n_outcomes} outcomes, more than {_PATH_LIMIT}"
        )
    dim = d**n
    # held at once by construction and one run: five d^(3n) arrays, three
    # d^n rows with their headers per Alice outcome, eight d^(2n) arrays
    nbytes = 16 * (5 * dim**3 + 3 * n_outcomes * (dim + 16) + 8 * dim**2)
    check_bytes(nbytes, f"teleport_protocol(n={n}, d={d})")
    plan = tp.build_plan(n, d)
    basis = plan.basis
    bmat = basis.matrix

    good_cols = np.zeros(dim, dtype=bool)
    for sl in plan.good_slices.values():
        good_cols[sl] = True
    proj_good = (bmat[:, good_cols] @ bmat[:, good_cols].T).astype(complex)

    weyls: dict = {}

    def weyl(dv: int, a: int, b: int, sign: int) -> np.ndarray:
        key = (dv, a, b, sign)
        if key not in weyls:
            shift = np.roll(np.eye(dv), a, axis=0)
            clock = np.diag(np.exp(2j * np.pi * b * np.arange(dv) / dv))
            weyls[key] = sign * shift @ clock
        return weyls[key]

    # one (shift, clock, sign) Weyl choice per retained block
    choices = [itertools.product(range(dv), range(dv), (1, -1)) for dv in dims_v]
    combos = list(itertools.product(*choices))

    def unitaries_for(combo) -> dict:
        return {
            lam: weyl(basis.blocks[lam].dim_v, *combo[k])
            for k, lam in enumerate(plan.good)
        }

    # Alice's outcomes do not depend on the history: built on first use
    alice_ops: list = []

    def alice_instrument(history):
        if not alice_ops:
            alice_ops.append(("fail", [np.eye(dim, dtype=complex) - proj_good]))
            for m, combo in enumerate(combos):
                a_op = tp.kraus_operator(plan, unitaries_for(combo))
                alice_ops.append((f"w{m}", [a_op / math.sqrt(n_outcomes)]))
        return alice_ops

    embed = _teleport_embedding(basis, plan.good, d, n)

    def bob_instrument(history):
        label = history[-1]
        if label == "fail":
            return [("abort", [np.eye(dim, dtype=complex)])]
        unitaries = unitaries_for(combos[int(label[1:])])
        recover = np.eye(dim, dtype=complex)  # identity on the retired blocks
        for lam, sl in plan.good_slices.items():
            recover[sl, sl] = np.kron(np.eye(basis.blocks[lam].dim_u), unitaries[lam].T)
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


def random_adaptive_protocol(rng: np.random.Generator, rounds: int = 2) -> LoccProtocol:
    """Random adaptive protocol on a qubit pair: each round measures the
    acting party projectively in a basis selected by the history so far."""

    from .teleport import sample_haar_unitary

    parties = ["A" if k % 2 == 0 else "B" for k in range(rounds)]
    tables = [
        [sample_haar_unitary(2, rng) for _ in range(_BASIS_CHOICES)] for _ in range(rounds)
    ]
    instruments = [  # the two projectors of each basis, built once
        [[(str(k), [np.outer(u[:, k], u[:, k].conj())]) for k in range(2)] for u in table]
        for table in tables
    ]

    def make_instrument(idx: int) -> Instrument:
        def instrument(history):
            key = (sum(int(h) for h in history) + 7 * len(history)) % _BASIS_CHOICES
            return instruments[idx][key]

        return instrument

    return LoccProtocol(
        dim_a=2,
        dim_b=2,
        rounds=tuple(Round(p, make_instrument(k)) for k, p in enumerate(parties)),
        protocol_id=f"random-adaptive-{rounds}r",
    )
