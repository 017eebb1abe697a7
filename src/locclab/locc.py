"""Round-based two-party protocol engine with classical transcripts.

Protocols are ordered lists of rounds; each round names the acting party
and an instrument, a history-dependent list of labeled completely positive
maps (given by Kraus operators on the acting party's factor) that together
preserve trace. The engine holds a stack of states as factors V of their
densities V V^dagger, shaped (B, d_A, d_B, r). Each instrument list takes
one route: it is checked and copied once into stacks of operators, and each
stack is contracted with the acting party's axis of every state by one
matmul. The engine samples one execution path with exact branch
probabilities, and can enumerate the joint outcome distribution for
Fisher-information analysis.

Kraus operators may be rectangular (the acting party's local dimension then
changes), which lets a measure-and-discard or an embed-into-larger-register
step be expressed directly. A Kraus entry may also be a product ``(E, R)``
acting as ``E @ R``: E an isometry shared by many outcomes, checked once per
walk, and R a per-outcome matrix, checked with the list that holds it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .estimation import fisher_of_laws
from .models import PureStateModel, richardson_points, rotation_model
from .partitions import block_table
from .schur_weyl import schur_basis
from .states import StateVector, as_generator, check_bytes
from .teleport import check_local_dimension, good_set, sample_haar_unitary

_PATH_LIMIT = 100_000
_GRID_POINTS = 512  # likelihood grid of the two-stage estimate
_TRIAL_CHUNK = 64  # two-stage trials advanced together; bounds the working memory
_GOLDEN_TOL = 1e-9  # golden-section search stops once its bracket is narrower
_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
_BASIS_CHOICES = 4  # bases per round of a random adaptive protocol
# completeness limits; _prepare derives the last two from the first
_TRACE_TOL = 1e-10  # entrywise, on sum_k K^dagger K - 1
_ISOMETRY_TOL = 1e-11  # Frobenius norm of E^dagger E - 1
_PRODUCT_TRACE_TOL = 8.9e-11  # entrywise, on a sum that holds a product entry


class EstimationFailureError(RuntimeError):
    """Adaptive estimation could not produce a usable auxiliary estimate."""


Kraus = np.ndarray | tuple[np.ndarray, np.ndarray]  # K, or (E, R) acting as E @ R
Instrument = Callable[[tuple[str, ...]], list[tuple[str, list[Kraus]]]]


@dataclass(frozen=True)
class Round:
    """One party's instrument. ``per_node`` declares that the instrument
    builds its list afresh at each node: such a list is prepared (checked
    and stacked) at every node and never memoized. Every other round's
    lists are prepared once per walk, memoized by identity and kept alive
    until the walk ends."""

    party: str  # "A" or "B"
    instrument: Instrument
    per_node: bool = False

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
    if not abs(norm2 - 1.0) <= 1e-9:  # a NaN trace fails too
        raise ValueError(f"state is not normalized: its density has trace {norm2}")
    return factor.reshape(dim_a, dim_b, -1)


def _as_factors(states, dim_a: int, dim_b: int) -> np.ndarray:
    """The input states as one stack of factors, shaped (B, d_A, d_B, r):
    a narrower factor is padded with zero columns, which leave its density
    as it is."""
    factors = [_as_factor(state, dim_a, dim_b) for state in states]
    out = np.zeros((len(factors), dim_a, dim_b, max(f.shape[2] for f in factors)), dtype=complex)
    for k, factor in enumerate(factors):
        out[k, :, :, : factor.shape[2]] = factor
    return out


def _contract(stack: np.ndarray, factors: np.ndarray, party: str) -> np.ndarray:
    """A stack of L operators, shaped (L, m, d), applied to the party's axis
    of every factor of the stack (B, d_A, d_B, r) by one matmul: the
    (L * B, ...) branch factors, operator-major."""
    batch, dim_a, dim_b, cols = factors.shape
    if party == "A":
        out = stack[:, None] @ factors.reshape(batch, dim_a, -1)
        return out.reshape(-1, out.shape[-2], dim_b, cols)
    out = stack[:, None, None] @ factors
    return out.reshape(-1, dim_a, out.shape[-2], cols)


def _compress(out: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The branch factors, with more columns than rows compressed by a QR
    step, and the branch probability ||K V||^2 of each."""
    batch, dim_a, dim_b, cols = out.shape
    if cols > dim_a * dim_b:
        # V V^dagger = R^dagger R for the QR factors of V^dagger
        r_mat = np.linalg.qr(out.reshape(batch, -1, cols).conj().swapaxes(1, 2), mode="r")
        out = r_mat.conj().swapaxes(1, 2).reshape(batch, dim_a, dim_b, -1)
    re_im = out.reshape(batch, 1, -1).view(np.float64)  # real and imaginary parts
    return out, (re_im @ re_im.swapaxes(1, 2)).reshape(batch)


def _gram(k: np.ndarray) -> np.ndarray:
    """K^dagger K of a complex K, with no copy of an operator of more rows than columns.

    A short K adds K^dagger K through its conjugate, no larger than the sum.
    A tall K is read as the real array R = [Re K_0, Im K_0, Re K_1, ...]
    (a view). Read as complex along its rows, G = R^T R is P with
    P[2i, j] = (Re K_i . K_j) and P[2i + 1, j] = (Im K_i . K_j), so
    K^dagger K = P[0::2] - i P[1::2].
    """
    if k.shape[0] <= k.shape[1]:
        return k.conj().T @ k
    parts = np.ascontiguousarray(k).view(np.float64)
    pairs = (parts.T @ parts).view(complex)
    return pairs[0::2] - 1j * pairs[1::2]


def _prepare(ops: list[tuple[str, list[Kraus]]], dim: int, checked: dict[int, tuple],
             idx: int, history: tuple[str, ...]) -> list[tuple[list[str], object, np.ndarray]]:
    """One instrument list on a party of dimension ``dim``, checked and
    stacked: one (labels, E, stack) per run of consecutive outcomes with
    one E (None for plain operators), one count j of Kraus entries and one
    operator shape (m, dim). The run's L j operators (of a product entry,
    R) are copied once, into its (L j, m, dim) stack, outcome by outcome;
    E is held as a (1, M, m) view. An empty list, the zero map, is in no
    run.

    Every label must be distinct, and each outcome's entries all plain or
    all products of one E, of one shape with ``dim`` columns and at least
    one row. Each distinct E is checked once per walk (``checked`` maps its
    id to E, which it keeps alive, and its view) to ||E^dagger E - 1||_F
    <= 1e-11, and the list to sum_k K^dagger K = 1 entrywise within 1e-10,
    by one Gram per run, of its stack read as one operator (a view,
    ``_gram``). A NaN fails. An error names round ``idx`` and the outcomes
    ``history`` before it.

    A product entry (E, R) adds R^dagger R: its E is checked apart, to
    ||Delta||_F <= e = 1e-11, where Delta = E^dagger E - 1. Let T be the
    sum of the plain K^dagger K and of the R^dagger R, held to
    ||T - 1||_max <= t. The full sum is T + sum_i R_i^dagger Delta_i R_i,
    and entry (a, b) of the second term is at most
    max_i ||Delta_i||_2 sum_i |r_ia| |r_ib| <= e sqrt(T_aa T_bb) <= e (1 + t),
    with r_ia column a of R_i (Cauchy-Schwarz over i; the plain terms add
    non-negative diagonal to T, and ||.||_2 <= ||.||_F). So the full sum is
    within t + (1 + t) e of 1 entrywise; t = 8.9e-11 makes that at most
    9.9e-11 + 1e-21 < 1e-10. A list with no product entry keeps t = 1e-10.
    """
    try:
        if len(ops) > 1 and len({label for label, _ in ops}) < len(ops):
            names = [label for label, _ in ops]
            label = next(label for k, label in enumerate(names) if label in names[:k])
            raise ValueError(f"two outcomes share the label {label!r}")
        runs: list[tuple[tuple, list[str], object, list]] = []
        for label, kraus_list in ops:
            if not kraus_list:
                continue
            isometry = kraus_list[0][0] if isinstance(kraus_list[0], tuple) else None
            mats = []
            for entry in kraus_list:
                if isinstance(entry, tuple) is (isometry is None):
                    raise ValueError(f"outcome {label!r} mixes plain and product entries")
                if isometry is not None and entry[0] is not isometry:
                    raise ValueError(f"outcome {label!r} holds products of two different E's")
                k = np.asarray(entry if isometry is None else entry[1])
                if k.ndim != 2 or k.shape[1] != dim or not k.shape[0]:
                    raise ValueError(f"outcome {label!r} holds a Kraus operator of shape "
                                     f"{k.shape} for party dimension {dim}")
                if mats and k.shape != mats[0].shape:
                    raise ValueError(f"outcome {label!r} holds Kraus operators of shapes "
                                     f"{mats[0].shape} and {k.shape}")
                mats.append(k)
            key = (id(isometry), len(mats), k.shape)  # every E is held by ops
            if runs and runs[-1][0] == key:
                runs[-1][1].append(label)
                runs[-1][3].extend(mats)
            else:
                runs.append((key, [label], isometry, mats))
        prepared, grams, limit = [], [], _TRACE_TOL
        for (_, _, shape), labels, isometry, mats in runs:
            if isometry is not None:
                limit = _PRODUCT_TRACE_TOL
                if checked.get(id(isometry), (None,))[0] is not isometry:
                    e = np.asarray(isometry, dtype=complex)
                    if e.ndim != 2:
                        raise ValueError(f"a product entry's E has shape {e.shape}")
                    defect = np.linalg.norm(_gram(e) - np.eye(e.shape[1]))
                    if not defect <= _ISOMETRY_TOL:
                        raise ValueError(f"a product entry's E is not an isometry: "
                                         f"||E^dagger E - 1||_F = {defect:.3g}")
                    checked[id(isometry)] = (isometry, e[None])
                isometry = checked[id(isometry)][1]
                if isometry.shape[2] != shape[0]:
                    raise ValueError(f"a product entry's E of shape {isometry.shape[1:]} "
                                     f"cannot follow R of shape {shape}")
            # the run's operators one above another: its stack's only copy
            flat = (np.concatenate(mats, dtype=complex) if len(mats) > 1
                    else np.asarray(mats[0], dtype=complex))
            grams.append(_gram(flat))
            prepared.append((labels, isometry, flat.reshape((len(mats),) + shape)))
        total = sum(grams[1:], grams[0]) if grams else np.zeros((dim, dim), dtype=complex)
        total.reshape(-1)[:: dim + 1] -= 1  # a view: total is ours
        if not np.abs(total).max() <= limit:  # a NaN entry fails too
            raise ValueError("instrument maps do not sum to a trace-preserving map")
    except ValueError as err:
        raise ValueError(f"round {idx} after outcomes {list(history)}: {err}") from err
    return prepared


def _branches(prepared, factors: np.ndarray, party: str):
    """(label, unnormalized branch factors, probabilities) of each outcome
    of a prepared list, in order: each run takes one contraction by its
    stack and, for product entries, one by its E; an outcome's j entries
    become its columns; one batched QR step and norm follow."""
    batch = factors.shape[0]
    for labels, isometry, stack in prepared:
        count, j = len(labels), len(stack) // len(labels)
        out = _contract(stack, factors, party)
        if isometry is not None:
            out = _contract(isometry, out, party)
        if j > 1:  # entry k of each outcome becomes its columns k r, ..., k r + r - 1
            out = out.reshape((count, j, batch) + out.shape[1:]).transpose(0, 2, 3, 4, 1, 5)
            out = out.reshape((count * batch,) + out.shape[2:4] + (-1,))
        out, probs = _compress(out)
        if count == 1:
            yield labels[0], out, probs
        else:
            yield from zip(labels, out.reshape((count, batch) + out.shape[1:]),
                           probs.reshape(count, batch))


def run_locc(
    protocol: LoccProtocol,
    input_state,
    rng: np.random.Generator | int | None = None,
) -> LoccTranscript:
    """Sample one execution path; deterministic given the seed. The
    transcript holds a pure final state as its amplitude vector and a mixed
    one as its density matrix."""
    rng, seed = as_generator(rng)
    factors = _as_factors([input_state], protocol.dim_a, protocol.dim_b)
    history: tuple[str, ...] = ()
    messages: list[Message] = []
    checked: dict[int, tuple] = {}
    for idx, rnd in enumerate(protocol.rounds):
        ops = rnd.instrument(history)
        dim = factors.shape[1 + "AB".index(rnd.party)]
        branches = list(_branches(_prepare(ops, dim, checked, idx, history), factors, rnd.party))
        probs = np.array([b[2][0] for b in branches])
        choice = int(rng.choice(len(branches), p=probs / probs.sum()))
        label, out, _ = branches[choice]
        p = float(probs[choice])
        factors = out / math.sqrt(p)
        history += (label,)
        messages.append(Message(idx, rnd.party, label, p))
    flat = factors.reshape(-1, factors.shape[3])
    final = flat[:, 0] if flat.shape[1] == 1 else flat @ flat.conj().T
    return LoccTranscript(protocol.protocol_id, seed, messages, final)


def enumerate_paths(
    protocol: LoccProtocol, states
) -> dict[tuple[str, ...], float] | list[dict[tuple[str, ...], float]]:
    """Exact probabilities of every outcome sequence (zero-probability
    branches omitted); probabilities sum to 1.

    ``states`` is one state (a vector, a density matrix or a
    ``StateVector``), whose law is returned as one dict, or a list or tuple
    of states, whose laws are returned as a list of dicts from one walk of
    the outcome tree: each node's instrument is fetched once for the whole
    stack, and a branch is pruned only for the states whose step
    probability is at most 1e-15. The path limit counts the leaves of the
    walk.
    """
    single = not isinstance(states, (list, tuple))
    batch = [states] if single else states
    laws: list[dict[tuple[str, ...], float]] = [{} for _ in batch]
    if not batch:
        return laws
    factors = _as_factors(batch, protocol.dim_a, protocol.dim_b)
    if not protocol.rounds:
        laws = [{(): 1.0} for _ in batch]
        return laws[0] if single else laws
    counter = [0]
    last = len(protocol.rounds) - 1
    # (id, party dimension) -> a shared round's list and its prepared form;
    # holding the list keeps its id from being reused in this walk
    memo: dict[tuple[int, int], tuple[list, list]] = {}
    checked: dict[int, tuple] = {}

    def walk(factors, members, history, probs, idx):
        rnd = protocol.rounds[idx]
        ops = rnd.instrument(history)
        dim = factors.shape[1 + "AB".index(rnd.party)]
        if rnd.per_node:
            prepared = _prepare(ops, dim, checked, idx, history)
        else:
            known = memo.get((id(ops), dim))
            if known is None or known[0] is not ops:
                known = memo[id(ops), dim] = (ops, _prepare(ops, dim, checked, idx, history))
            prepared = known[1]
        for label, new, p in _branches(prepared, factors, rnd.party):
            sub, sub_probs = members, probs
            if min(p.tolist()) <= 1e-15:
                kept = p > 1e-15
                if not kept.any():
                    continue
                new, p, sub, sub_probs = new[kept], p[kept], members[kept], probs[kept]
            if idx < last:
                walk(new / np.sqrt(p)[:, None, None, None], sub, history + (label,),
                     sub_probs * p, idx + 1)
                continue
            counter[0] += 1
            if counter[0] > _PATH_LIMIT:
                raise RuntimeError(f"path count exceeds {_PATH_LIMIT}")
            path = history + (label,)
            for k, value in zip(sub.tolist(), (sub_probs * p).tolist()):
                laws[k][path] = value

    walk(factors, np.arange(len(batch)), (), np.ones(len(batch)), 0)
    return laws[0] if single else laws


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
    the information of the full interactive protocol at theta0. The three
    families' states at theta0 and on every axis's Richardson stencil go
    through one walk of the outcome tree.
    """
    if model_a.param_dim != model_b.param_dim:
        raise ValueError("product family needs matching parameter dimensions")
    points = richardson_points(theta0)
    at_a, at_b = model_a.states(points), model_b.states(points)
    # the joint family, then A varied beside B at theta0, then the reverse
    pairs_a = np.concatenate([at_a, at_a, np.broadcast_to(at_a[0], at_a.shape)])
    pairs_b = np.concatenate([at_b, np.broadcast_to(at_b[0], at_b.shape), at_b])
    states = (pairs_a[:, :, None] * pairs_b[:, None, :]).reshape(len(pairs_a), -1)
    laws = enumerate_paths(protocol, list(states))
    k = len(points)
    return AdditivityResult(*(fisher_of_laws(laws[j * k : (j + 1) * k]) for j in range(3)))


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

    def to_csv(self) -> str:
        """One row per trial: its estimate and squared error."""
        lines = ["trial,estimate,squared_error"]
        for k, est in enumerate(self.estimates.tolist()):
            lines.append(f"{k},{est!r},{(est - self.theta_true) ** 2!r}")
        return "\n".join(lines) + "\n"


def _qfi(model: PureStateModel, theta: float) -> float:
    """Standard quantum Fisher information of a 1-parameter pure family."""
    th = np.array([[theta]])
    phi, dphi = model.states(th)[0], model.derivatives(th)[0, 0]
    return float(4.0 * (np.vdot(dphi, dphi).real - abs(np.vdot(phi, dphi)) ** 2))


def _optimal_basis_vector(model: PureStateModel, theta: float) -> np.ndarray:
    """First vector of the locally optimal projective basis at theta."""
    th = np.array([[theta]])
    phi, dphi = model.states(th)[0], model.derivatives(th)[0, 0]
    perp = dphi - np.vdot(phi, dphi) * phi
    nrm = np.linalg.norm(perp)
    if nrm < 1e-12:
        return np.array([1.0, 0.0], dtype=complex)  # flat direction: keep fixed basis
    return (phi + perp / nrm) / math.sqrt(2.0)


def _log_terms(p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """log p and log(1 - p), with p clipped to [1e-12, 1 - 1e-12]."""
    p = np.clip(p, 1e-12, 1.0 - 1e-12)
    return np.log(p), np.log1p(-p)


def _golden_steps(width: float) -> int:
    """Golden-section steps that shrink a bracket ``width`` wide below
    ``_GOLDEN_TOL``: each step keeps 0.618 of it."""
    steps = 0
    while width >= _GOLDEN_TOL:
        width *= _INV_PHI
        steps += 1
    return steps


def _lockstep_golden_max(
    fn: Callable[[np.ndarray], np.ndarray], a: np.ndarray, b: np.ndarray, steps: int
) -> np.ndarray:
    """Golden-section maxima over the brackets [a, b] after ``steps`` steps,
    every bracket advanced together: ``fn`` maps one point per bracket to
    its value."""
    c = b - _INV_PHI * (b - a)
    d = a + _INV_PHI * (b - a)
    fc, fd = fn(c), fn(d)
    for _ in range(steps):
        left = fc > fd  # the maximum lies in [a, d]: d becomes the upper end
        a, b = np.where(left, a, c), np.where(left, d, b)
        kept, f_kept = np.where(left, c, d), np.where(left, fc, fd)
        x = np.where(left, b - _INV_PHI * (b - a), a + _INV_PHI * (b - a))
        fx = fn(x)
        c, fc = np.where(left, x, kept), np.where(left, fx, f_kept)
        d, fd = np.where(left, kept, x), np.where(left, f_kept, fx)
    return 0.5 * (a + b)


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

    Each trial draws from its own child of one ``SeedSequence``, stage-1
    counts before stage-2 counts, so a trial's counts do not depend on how
    many trials run. Trials advance ``_TRIAL_CHUNK`` at a time, together:
    grid likelihoods are (chunk x grid) arrays and one golden-section
    search refines every trial's grid peak. When ``model_b is model_a`` each
    state is evaluated once.
    """
    if model_a.param_dim != 1 or model_b.param_dim != 1:
        raise ValueError("two-stage scheme handles one-parameter families")
    if n < 25:
        raise ValueError("need n >= 25 so that sqrt(n) first-stage copies >= 5")
    if trials < 0:
        raise ValueError(f"trials must be non-negative, got {trials}")
    lo, hi = model_a.box()[0]
    lo2, hi2 = model_b.box()[0]
    lo, hi = max(lo, lo2), min(hi, hi2)
    # families with unbounded parameters are searched over one period
    if math.isinf(lo):
        lo = -math.pi
    if math.isinf(hi):
        hi = math.pi
    if not lo < theta_true < hi:  # a NaN or infinite theta_true fails too
        raise ValueError(
            f"theta_true must lie inside the model domain ({lo}, {hi}), got {theta_true}"
        )
    rng, seed = as_generator(rng)

    j_ref = _qfi(model_a, theta_true) + _qfi(model_b, theta_true)
    n1 = math.ceil(math.sqrt(n))
    if trials == 0:
        return EstimationReport(
            n, 0, theta_true, n1, np.array([]), 0.0, 0.0, 1.0 / j_ref, seed
        )

    n2 = n - n1

    # one entry per distinct family; party B reads the last entry
    parties = (model_a,) if model_b is model_a else (model_a, model_b)
    fixed = np.array([1.0, 0.0], dtype=complex)  # computational basis, first vector

    def states(thetas) -> list[np.ndarray]:
        """Each family's states at the points, one row per point."""
        points = np.reshape(thetas, (-1, 1))
        return [model.states(points) for model in parties]

    def stage1_rows(points: int):
        """A grid and the log terms of the fixed outcome on it, per family."""
        grid = np.linspace(lo, hi, points)
        grid_states = states(grid)
        rows = [_log_terms(np.abs(s @ fixed.conj()) ** 2) for s in grid_states]
        return grid, grid_states, rows

    grid, grid_states, rows1 = stage1_rows(_GRID_POINTS)
    span = float(grid[1] - grid[0])
    # every bracket is at most 2 span wide: stop at the likelihood's resolution,
    # the same number of steps in every chunk
    steps = _golden_steps(2 * span)
    true_states = [s[0] for s in states([theta_true])]
    p1_true = [float(abs(np.vdot(fixed, s)) ** 2) for s in true_states]
    totals = (n1, n1, n2, n2)  # copies behind the counts: stage 1 A, B, stage 2 A, B

    def loglik_of(counts, terms1, terms2=None):
        """Binomial log-likelihood of the counts (stage 1 only when there is
        no stage-2 term) from each family's (log p, log(1 - p)) terms,
        summed in count order; the arrays broadcast against each other."""
        terms = [terms1[0], terms1[-1]] + ([terms2[0], terms2[-1]] if terms2 else [])
        total = 0.0
        for k, n_tot, (log_p, log_q) in zip(counts, totals, terms):
            total = total + k * log_p + (n_tot - k) * log_q
        return total

    finer: dict[int, tuple] = {}  # doubled grids for flat stage-1 likelihoods

    def finer_aux(counts) -> float:
        """Stage-1 ML estimate on doubled grids, when the likelihood is flat
        on the base grid."""
        points = _GRID_POINTS
        for _ in range(3):
            points *= 2
            if points not in finer:
                finer[points] = stage1_rows(points)
            fine_grid, _, rows = finer[points]
            loglik1 = loglik_of(counts, rows)
            if float(np.max(loglik1) - np.min(loglik1)) >= 1e-9:
                return float(fine_grid[int(np.argmax(loglik1))])
        raise EstimationFailureError(
            "stage-1 likelihood is flat; the fixed basis carries no "
            "information about this family"
        )

    # per auxiliary estimate: each family's optimal vector and its
    # probability at theta_true
    bases: dict[float, list[tuple[np.ndarray, float]]] = {}

    def stage2_basis(theta_aux: float) -> list[tuple[np.ndarray, float]]:
        if theta_aux not in bases:
            vecs = [_optimal_basis_vector(model, theta_aux) for model in parties]
            bases[theta_aux] = [
                (v, float(abs(np.vdot(v, s)) ** 2)) for v, s in zip(vecs, true_states)
            ]
        return bases[theta_aux]

    estimates = np.empty(trials)
    root = np.random.SeedSequence(rng.integers(2**63))
    for start in range(0, trials, _TRIAL_CHUNK):
        # spawning is sequential: these are children start.. of the root
        gens = [np.random.default_rng(child)
                for child in root.spawn(min(_TRIAL_CHUNK, trials - start))]
        k1 = np.array([(g.binomial(n1, p1_true[0]), g.binomial(n1, p1_true[-1]))
                       for g in gens])

        loglik1 = loglik_of(k1.T[:, :, None], rows1)
        aux = grid[np.argmax(loglik1, axis=1)]
        for t in np.flatnonzero(np.max(loglik1, axis=1) - np.min(loglik1, axis=1) < 1e-9):
            aux[t] = finer_aux(k1[t])

        chosen = [stage2_basis(th) for th in aux.tolist()]
        k2 = np.array([(g.binomial(n2, b[0][1]), g.binomial(n2, b[-1][1]))
                       for g, b in zip(gens, chosen)])
        counts = np.hstack([k1, k2]).T
        # each trial's stage-2 vector per family, as rows
        vecs = [np.stack([b[j][0] for b in chosen]) for j in range(len(parties))]

        rows2 = [_log_terms(np.abs(v.conj() @ s.T) ** 2) for v, s in zip(vecs, grid_states)]
        peak = grid[np.argmax(loglik_of(counts[:, :, None], rows1, rows2), axis=1)]

        def loglik_at(thetas: np.ndarray) -> np.ndarray:
            at = states(thetas)
            terms1 = [_log_terms(np.abs(s @ fixed.conj()) ** 2) for s in at]
            terms2 = [_log_terms(np.abs(np.einsum("td,td->t", v.conj(), s)) ** 2)
                      for v, s in zip(vecs, at)]
            return loglik_of(counts, terms1, terms2)

        estimates[start : start + len(gens)] = _lockstep_golden_max(
            loglik_at, np.maximum(lo, peak - span), np.minimum(hi, peak + span), steps
        )

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

    An outcome is one signed Weyl operator W = s X^a Z^b per retained
    block, and its label w{m} is the flat C-order index of the (a, b, s)
    choices. One loop over the retained blocks builds both parties, each
    block from its rotation W^T B_lam^T (B the block basis) under every W.
    """
    check_local_dimension(d)
    good = good_set(n, d)
    if not good:
        raise ValueError("no retained blocks at these parameters")
    retained = [row for row in block_table(n, d) if row.lam in good]
    n_choices = [2 * row.dim_v**2 for row in retained]
    n_outcomes = math.prod(n_choices)
    if n_outcomes > _PATH_LIMIT:
        raise ValueError(
            f"Alice's instrument would have {n_outcomes} outcomes, more than {_PATH_LIMIT}"
        )
    dim = d**n
    # Bob's table: B^T, then each retained block's rows under each choice
    n_rows = dim + sum(c * row.dim_u * row.dim_v for c, row in zip(n_choices, retained))
    # counted for construction and one run: two d^(3n) arrays (the embedding
    # and einsum's working copy, or one block's part), three d^n rows with
    # their headers per Alice outcome (her row and its gathered share, or in
    # a run her row, its stacked copy and its branch), the table, eight
    # d^(2n) arrays, and one d^n index row per Alice outcome
    nbytes = 16 * (2 * dim**3 + 3 * n_outcomes * (dim + 16) + n_rows * dim + 8 * dim**2)
    nbytes += 8 * n_outcomes * dim
    check_bytes(nbytes, f"teleport_protocol(n={n}, d={d})")
    basis = schur_basis(n, d)
    bmat = basis.matrix

    retired = np.hstack(
        [bmat[:, block.span] for lam, block in basis.blocks.items() if lam not in good]
    )
    fail = (retired @ retired.T).astype(complex)
    # the isometry from Bob's register, in block coordinates, into the
    # doubled register: every column goes to a retired direction at first
    embed = np.einsum("xc,y->xyc", bmat.astype(complex), retired[:, 0])
    table = np.empty((n_rows, dim), dtype=complex)
    table[:dim] = bmat.T
    recovery = np.tile(np.arange(dim), (n_outcomes, 1))  # outcome m's rows of the table
    alice = np.zeros((n_outcomes, dim), dtype=complex)
    offset = dim
    for (lam, du, dv), choice in zip(retained, np.unravel_index(np.arange(n_outcomes), n_choices)):
        span = basis.blocks[lam].span
        weyl = np.array([  # indexed [a, b, s]
            [[sign * np.roll(np.diag(np.exp(2j * np.pi * b * np.arange(dv) / dv)), a, 0)
              for sign in (1, -1)] for b in range(dv)] for a in range(dv)
        ]).reshape(-1, 1, dv, dv)
        # Bob undoes U by rotating the block's rows by 1 (x) U^T: rot[c, u, v]
        # is row (u, v) under choice c, and sqrt(dv) times its trace over
        # (u, v) is the conjugate of the block's share of Alice's row
        rot = table[offset : offset + len(weyl) * du * dv].reshape(-1, du, dv, dim)
        np.matmul(weyl.swapaxes(2, 3), table[span].reshape(du, dv, dim), out=rot)
        recovery[:, span] = offset + du * dv * choice[:, None] + np.arange(du * dv)
        offset += len(weyl) * du * dv
        alice += (math.sqrt(dv) * np.trace(rot, axis1=1, axis2=2))[choice]
        # column u dv + v with v < du holds sum_w |v w> (x) |u w> / sqrt(dv)
        vecs = bmat[:, span].reshape(dim, du, dv)
        cols = embed[:, :, span].reshape(dim, dim, du, dv)
        cols[..., :du] = np.einsum("xvw,yuw->xyuv", vecs, vecs) / math.sqrt(dv)
    embed = embed.reshape(dim * dim, dim)
    alice = np.conj(alice, out=alice)[:, None] / math.sqrt(n_outcomes)
    alice = [("fail", [fail])] + [(f"w{m}", [op]) for m, op in enumerate(alice)]
    abort = [("abort", [np.eye(dim, dtype=complex)])]

    def bob_instrument(history):
        label = history[-1]
        if label == "fail":
            return abort
        return [("done", [(embed, table[recovery[int(label[1:])]])])]

    return LoccProtocol(
        dim_a=dim,
        dim_b=dim,
        rounds=(Round("A", lambda history: alice), Round("B", bob_instrument, per_node=True)),
        protocol_id=f"teleport(n={n},d={d})",
    )


def random_qubit_model(rng: np.random.Generator) -> PureStateModel:
    """Random smooth one-parameter qubit family with analytic derivatives."""
    gen = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    gen = (gen + gen.conj().T) / 2
    psi0 = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    return rotation_model(gen, psi0, name="random-qubit")


def random_adaptive_protocol(rng: np.random.Generator, rounds: int = 2) -> LoccProtocol:
    """Random adaptive protocol on a qubit pair: each round measures the
    acting party projectively in a basis selected by the history so far."""
    if rounds < 0:
        raise ValueError(f"rounds must be non-negative, got {rounds}")

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
            key = (history.count("1") + 7 * len(history)) % _BASIS_CHOICES
            return instruments[idx][key]

        return instrument

    return LoccProtocol(
        dim_a=2,
        dim_b=2,
        rounds=tuple(Round(p, make_instrument(k)) for k, p in enumerate(parties)),
        protocol_id=f"random-adaptive-{rounds}r",
    )
