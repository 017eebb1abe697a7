import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from locclab import locc
from locclab.locc import (
    EstimationFailureError,
    LoccProtocol,
    Round,
    enumerate_paths,
    random_adaptive_protocol,
    random_qubit_model,
    run_locc,
    teleport_protocol,
    two_stage_estimate,
    verify_fisher_additivity,
)
from locclab.estimation import fisher_of_distribution
from locclab.models import PureStateModel, product_model, real_amplitude, rotation_model
from locclab.states import bell_state, bipartite_tensor_power, state_from_schmidt
from locclab.schur_weyl import schur_basis
from locclab.teleport import run_teleport, sample_haar_unitary
import tests_support
from tests_support import (
    dense_bob_operator,
    kraus_operator,
    outcome_grid,
    per_entry_paths,
    single_state_paths,
    teleport_embedding,
    weyl_tables,
    weyl_tuple,
)


def projective_instrument(basis: np.ndarray):
    ops = [
        ("0", [np.outer(basis[:, 0], basis[:, 0].conj())]),
        ("1", [np.outer(basis[:, 1], basis[:, 1].conj())]),
    ]
    return lambda history: ops


# ---------------------------------------------------------------- engine basics


def test_zero_round_protocol_returns_input():
    protocol = LoccProtocol(2, 2, (), "identity")
    vec = np.kron([1.0, 0.0], [0.0, 1.0]).astype(complex)
    transcript = run_locc(protocol, vec, 0)
    # a pure final state is held as its amplitude vector
    assert transcript.state.ndim == 1
    assert np.allclose(transcript.final_state, np.outer(vec, vec.conj()))
    assert transcript.messages == []
    assert transcript.path_probability == 1.0
    density = np.diag([0.5, 0.25, 0.25, 0.0]).astype(complex)
    transcript = run_locc(protocol, density, 0)
    assert np.allclose(transcript.final_state, density)
    # a mixed density is held as is, not re-derived on read
    assert transcript.final_state is transcript.state


def _pure_transcript(dim: int):
    """The zero-round transcript of a random pure dim x dim state."""
    rng = np.random.default_rng(dim)
    vec = rng.standard_normal(dim * dim) + 1j * rng.standard_normal(dim * dim)
    return run_locc(LoccProtocol(dim, dim, ()), vec / np.linalg.norm(vec), 0)


@pytest.mark.parametrize("dim", [16, 32])
def test_transcript_density_read_from_vector(dim):
    transcript = _pure_transcript(dim)
    a = transcript.state
    density = np.outer(a, a.conj())
    assert np.array_equal(transcript.final_state, density)


def test_transcript_determinism_and_schema():
    protocol = random_adaptive_protocol(np.random.default_rng(5), rounds=3)
    model = product_model(
        random_qubit_model(np.random.default_rng(1)),
        random_qubit_model(np.random.default_rng(2)),
    )
    state = model.state([0.4])
    first = run_locc(protocol, state, 42)
    second = run_locc(protocol, state, 42)
    assert first.messages == second.messages
    assert np.array_equal(first.state, second.state)
    assert (first.protocol_id, first.seed) == (protocol.protocol_id, 42)
    assert [m.party for m in first.messages] == ["A", "B", "A"]
    assert all(0.0 < m.prob <= 1.0 for m in first.messages)
    probs = [m.prob for m in first.messages]
    assert first.path_probability == pytest.approx(math.prod(probs), abs=1e-12)


def test_random_adaptive_instruments_are_built_once():
    protocol = random_adaptive_protocol(np.random.default_rng(5), rounds=3)
    for idx, rnd in enumerate(protocol.rounds):
        history = ("1",) * idx
        first, again = rnd.instrument(history), rnd.instrument(history)
        assert [label for label, _ in first] == ["0", "1"]
        assert all(a is b for (_, ka), (_, kb) in zip(first, again) for a, b in zip(ka, kb))


def test_instrument_must_preserve_trace():
    bad = LoccProtocol(
        2,
        2,
        (Round("A", lambda h: [("0", [np.diag([1.0, 0.0])])]),),
        "lossy",
    )
    with pytest.raises(ValueError):
        run_locc(bad, np.kron([1, 0], [1, 0]).astype(complex), 0)


def test_instrument_with_a_nan_entry_fails_the_trace_check():
    nan = LoccProtocol(
        2, 2, (Round("A", lambda h: [("0", [np.array([[np.nan, 0.0], [0.0, 0.0]])])]),), "nan"
    )
    with pytest.raises(ValueError, match="trace-preserving"):
        enumerate_paths(nan, np.kron([1, 0], [1, 0]).astype(complex))


def test_enumerate_paths_checks_a_list_built_on_a_deep_branch():
    # every call builds a fresh list, so a list freed after its branch could
    # hand its id to the next one; only the deepest "1", "1" list is lossy
    def instrument(history):
        if history == ("1", "1"):
            return [("0", [np.diag([1.0, 0.0])])]
        return [(str(k), [np.diag(np.eye(2)[k])]) for k in range(2)]

    protocol = LoccProtocol(
        2, 2, tuple(Round(party, instrument) for party in "ABA"), "deep-lossy"
    )
    plus = np.full(2, 1 / math.sqrt(2))
    with pytest.raises(ValueError, match="trace-preserving"):
        enumerate_paths(protocol, np.kron(plus, plus).astype(complex))


def test_enumerate_paths_checks_each_shared_list_once(monkeypatch):
    protocol = random_adaptive_protocol(np.random.default_rng(5), rounds=6)
    checked = []
    prepare = locc._prepare
    monkeypatch.setattr(locc, "_prepare",
                        lambda ops, *args: checked.append(id(ops)) or prepare(ops, *args))
    dist = enumerate_paths(protocol, np.kron([1, 0], [1, 0]).astype(complex))
    assert sum(dist.values()) == pytest.approx(1.0, abs=1e-12)
    assert len(checked) == len(set(checked)) < len(dist)


def test_path_probabilities_sum_to_one():
    for seed in range(5):
        protocol = random_adaptive_protocol(np.random.default_rng(seed), rounds=3)
        model = product_model(
            random_qubit_model(np.random.default_rng(seed + 10)),
            random_qubit_model(np.random.default_rng(seed + 20)),
        )
        dist = enumerate_paths(protocol, model.state([0.3]))
        assert sum(dist.values()) == pytest.approx(1.0, abs=1e-10)
        assert all(p > 0 for p in dist.values())


def test_single_round_is_born_rule():
    basis = np.eye(2, dtype=complex)
    protocol = LoccProtocol(2, 2, (Round("A", projective_instrument(basis)),), "born")
    model = product_model(real_amplitude(), real_amplitude())
    theta = [1.2]
    dist = enumerate_paths(protocol, model.state(theta))
    expected0 = math.cos(0.6) ** 2
    assert dist[("0",)] == pytest.approx(expected0, abs=1e-12)
    assert dist[("1",)] == pytest.approx(1 - expected0, abs=1e-12)


def test_no_signaling_for_product_inputs():
    rng = np.random.default_rng(7)
    protocol = LoccProtocol(
        2,
        2,
        (
            Round("A", projective_instrument(sample_haar_unitary(2, rng))),
            Round("B", projective_instrument(sample_haar_unitary(2, rng))),
        ),
        "non-communicating",
    )
    psi_a = random_qubit_model(np.random.default_rng(30)).state([0.4])
    psi_b = random_qubit_model(np.random.default_rng(31)).state([0.4])
    dist = enumerate_paths(protocol, np.kron(psi_a, psi_b))
    marg_a = {}
    marg_b = {}
    for (x, y), p in dist.items():
        marg_a[x] = marg_a.get(x, 0.0) + p
        marg_b[y] = marg_b.get(y, 0.0) + p
    for (x, y), p in dist.items():
        assert p == pytest.approx(marg_a[x] * marg_b[y], abs=1e-12)


def test_adaptive_distribution_factorizes_into_party_chains():
    # on product inputs the joint law is a product of per-party conditionals
    protocol = random_adaptive_protocol(np.random.default_rng(3), rounds=3)
    model = product_model(
        random_qubit_model(np.random.default_rng(40)),
        random_qubit_model(np.random.default_rng(41)),
    )
    dist = enumerate_paths(protocol, model.state([0.5]))
    # rounds alternate A, B, A: outcome = (x1, y1, x2)
    # p(x1) from Alice alone, q(y1|x1) from Bob given the message, etc.
    p_x1 = {}
    for path, p in dist.items():
        p_x1[path[0]] = p_x1.get(path[0], 0.0) + p
    for path, p in dist.items():
        x1, y1, x2 = path
        p_y1_given = sum(
            q for other, q in dist.items() if other[0] == x1 and other[1] == y1
        ) / p_x1[x1]
        p_x2_given = p / (p_x1[x1] * p_y1_given)
        assert p == pytest.approx(p_x1[x1] * p_y1_given * p_x2_given, abs=1e-12)


# ---------------------------------------------------------------- dense reference


def dense_lift(kraus, party, dim_a, dim_b):
    if isinstance(kraus, tuple):  # a product entry (E, R) acts as E @ R
        kraus = kraus[0] @ kraus[1]
    if party == "A":
        return np.kron(kraus, np.eye(dim_b))
    return np.kron(np.eye(dim_a), kraus)


def dense_branches(rnd, history, state, dim_a, dim_b):
    """(label, K rho K^dagger summed over the outcome's Kraus operators,
    probability, new dimensions) for every outcome, on the full density.
    A pure state given as its vector stays a vector through an outcome of
    one Kraus operator, K psi, with probability ||K psi||^2."""
    out = []
    for label, kraus_list in rnd.instrument(history):
        lifted = [dense_lift(k, rnd.party, dim_a, dim_b) for k in kraus_list]
        if state.ndim == 1 and len(lifted) == 1:
            new = lifted[0] @ state
            p = float(np.vdot(new, new).real)
        else:
            rho = np.outer(state, state.conj()) if state.ndim == 1 else state
            new = sum(lk @ rho @ lk.conj().T for lk in lifted)
            p = float(np.real(np.trace(new)))
        if rnd.party == "A":
            dims = (new.shape[0] // dim_b, dim_b)
        else:
            dims = (dim_a, new.shape[0] // dim_a)
        out.append((label, new, p, dims))
    return out


def dense_enumerate_paths(protocol, state):
    out = {}

    def walk(state, history, prob, idx, dims):
        if idx == len(protocol.rounds):
            out[history] = prob
            return
        for label, new, p, new_dims in dense_branches(
            protocol.rounds[idx], history, state, *dims
        ):
            if p > 1e-15:
                scale = math.sqrt(p) if new.ndim == 1 else p
                walk(new / scale, history + (label,), prob * p, idx + 1, new_dims)

    walk(state, (), 1.0, 0, (protocol.dim_a, protocol.dim_b))
    return out


def dense_run_locc(protocol, rho, seed):
    rng = np.random.default_rng(seed)
    dims = (protocol.dim_a, protocol.dim_b)
    history, probs_taken = (), []
    for rnd in protocol.rounds:
        branches = dense_branches(rnd, history, rho, *dims)
        probs = np.array([b[2] for b in branches])
        label, new, p, dims = branches[int(rng.choice(len(branches), p=probs / probs.sum()))]
        rho = new / p
        history += (label,)
        probs_taken.append(p)
    return history, probs_taken, rho


def random_instrument(rng, dim_in, dim_out, n_outcomes):
    """Outcomes with 2-4 Kraus operators each, cut from one random isometry."""
    counts = rng.integers(2, 5, size=n_outcomes)
    z = rng.standard_normal((counts.sum() * dim_out, dim_in))
    iso = np.linalg.qr(z + 1j * rng.standard_normal(z.shape))[0]
    kraus = iso.reshape(-1, dim_out, dim_in)
    bounds = np.concatenate([[0], np.cumsum(counts)])
    return [(str(m), list(kraus[bounds[m] : bounds[m + 1]])) for m in range(n_outcomes)]


def random_kraus_protocol(seed, dim_a, dim_b, steps):
    """History-dependent protocol; ``steps`` lists (party, output dimension),
    so Kraus operators are rectangular whenever the dimension changes."""
    rng = np.random.default_rng(seed)
    dims = {"A": dim_a, "B": dim_b}
    rounds = []
    for idx, (party, dim_out) in enumerate(steps):
        table = [random_instrument(rng, dims[party], dim_out, 2 + idx % 2) for _ in range(3)]
        rounds.append(Round(party, lambda h, t=table: t[sum(map(int, h)) % len(t)]))
        dims[party] = dim_out
    return LoccProtocol(dim_a, dim_b, tuple(rounds), f"random-kraus-{seed}")


def random_input(rng, dim, rank):
    """A pure state (rank 0, as a vector) or a mixed state of the given rank."""
    g = rng.standard_normal((dim, max(rank, 1))) + 1j * rng.standard_normal((dim, max(rank, 1)))
    if rank == 0:
        return g[:, 0] / np.linalg.norm(g)
    return g @ g.conj().T / np.linalg.norm(g) ** 2


KRAUS_STEPS = [
    (2, 3, [("A", 3), ("B", 2), ("A", 1), ("B", 3)]),
    (2, 2, [("B", 4), ("A", 2), ("B", 1), ("A", 3)]),
    (3, 2, [("A", 2), ("A", 2), ("B", 2), ("A", 4)]),
]


@pytest.mark.parametrize("rank", [0, 2, 6])
@pytest.mark.parametrize("dim_a, dim_b, steps", KRAUS_STEPS)
def test_engine_matches_dense_reference(dim_a, dim_b, steps, rank, monkeypatch):
    # 2-4 Kraus operators per outcome over four rounds would give up to 256
    # factor columns per input column on at most 9 rows, so the compression
    # must run
    qr = np.linalg.qr
    calls = []
    monkeypatch.setattr(np.linalg, "qr", lambda *a, **k: calls.append(1) or qr(*a, **k))
    rng = np.random.default_rng(100 * dim_a + 10 * dim_b + rank)
    for seed in range(3):
        protocol = random_kraus_protocol(seed, dim_a, dim_b, steps)
        state = random_input(rng, dim_a * dim_b, min(rank, dim_a * dim_b))
        rho = state if state.ndim == 2 else np.outer(state, state.conj())

        calls.clear()
        dist = enumerate_paths(protocol, state)
        assert calls
        reference = dense_enumerate_paths(protocol, rho)
        assert set(dist) == set(reference)
        for path, p in reference.items():
            assert dist[path] == pytest.approx(p, abs=1e-12)
        assert math.fsum(dist.values()) == pytest.approx(1.0, abs=1e-12)

        for run_seed in range(4):
            transcript = run_locc(protocol, state, run_seed)
            history, probs, final = dense_run_locc(protocol, rho, run_seed)
            assert tuple(m.outcome for m in transcript.messages) == history
            assert [m.prob for m in transcript.messages] == pytest.approx(probs, abs=1e-12)
            assert transcript.final_state.shape == final.shape
            assert np.max(np.abs(transcript.final_state - final)) <= 1e-12


def _bad_inputs():
    vec = np.zeros(4, dtype=complex)
    vec[0] = 1.01
    skew = np.diag([0.5, 0.5, 0.0, 0.0]).astype(complex)
    skew[0, 1] = 1e-6
    return {
        "unnormalized-vector": (vec, "not normalized"),
        "non-hermitian": (skew, "not Hermitian"),
        "negative-eigenvalue": (np.diag([0.7, 0.4, -0.1, 0.0]), "eigenvalue"),
        "trace-not-one": (np.diag([0.5, 0.5, 0.1, 0.0]), "not normalized"),
        "nan-vector": (np.array([np.nan, 0, 0, 0]), "not normalized"),
    }


@pytest.mark.parametrize("case", sorted(_bad_inputs()))
@pytest.mark.parametrize("engine", ["run_locc", "enumerate_paths"])
def test_engine_rejects_inputs_that_are_not_states(case, engine):
    state, message = _bad_inputs()[case]
    protocol = LoccProtocol(
        2, 2, (Round("A", projective_instrument(np.eye(2, dtype=complex))),), "born"
    )
    fn = run_locc if engine == "run_locc" else enumerate_paths
    with pytest.raises(ValueError, match=message):
        fn(protocol, state)


def test_a_per_node_round_is_checked_at_every_node(monkeypatch):
    shared = random_adaptive_protocol(np.random.default_rng(5), rounds=3)
    per_node = LoccProtocol(2, 2, tuple(
        dataclasses.replace(rnd, per_node=True) for rnd in shared.rounds
    ))
    checked = []
    prepare = locc._prepare
    monkeypatch.setattr(locc, "_prepare",
                        lambda ops, *args: checked.append(id(ops)) or prepare(ops, *args))
    dist = enumerate_paths(per_node, np.kron([1, 0], [1, 0]).astype(complex))
    assert sum(dist.values()) == pytest.approx(1.0, abs=1e-12)
    # one check per node, 1 + 2 + 4, though the four bases repeat
    assert len(checked) == 7 > len(set(checked))


def test_a_failed_check_names_the_round_and_the_history():
    def instrument(history):
        if history == ("1", "0"):
            return [("0", [np.diag([1.0, 0.0])])]
        return [(str(k), [np.diag(np.eye(2)[k])]) for k in range(2)]

    protocol = LoccProtocol(
        2, 2, tuple(Round(party, instrument, per_node=True) for party in "ABA"), "lossy"
    )
    plus = np.full(2, 1 / math.sqrt(2))
    with pytest.raises(ValueError, match=r"round 2 after outcomes \['1', '0'\]: .*trace-preserving"):
        enumerate_paths(protocol, np.kron(plus, plus).astype(complex))
    with pytest.raises(ValueError, match=r"round 2 after outcomes \['1', '0'\]: .*trace-preserving"):
        # seed 0 samples "1" then "0"
        run_locc(protocol, np.kron(plus, plus).astype(complex), 0)


@pytest.mark.parametrize("engine", [run_locc, enumerate_paths])
def test_duplicate_labels_are_refused(engine):
    protocol = LoccProtocol(2, 2, (Round("A", lambda h: [
        ("0", [np.diag([1.0, 0.0])]), ("0", [np.diag([0.0, 1.0])])
    ]),), "twice")
    # (0.6, 0.8) (x) |0>: the second outcome's mass 0.36 would be lost
    with pytest.raises(ValueError, match="two outcomes share the label '0'"):
        engine(protocol, np.kron([0.6, 0.8], [1.0, 0.0]).astype(complex))


def test_an_empty_kraus_list_is_the_zero_map():
    protocol = LoccProtocol(2, 2, (
        Round("A", lambda h: [("none", []), ("0", [np.diag([1.0, 0.0])]), ("1", [np.diag([0.0, 1.0])])]),
        Round("B", lambda h: [("skip", []), ("id", [np.eye(2)])], per_node=True),
    ), "zero-maps")
    state = np.kron([0.6, 0.8], [1.0, 0.0]).astype(complex)
    dist = enumerate_paths(protocol, state)
    assert list(dist) == [("0", "id"), ("1", "id")]
    assert dist[("0", "id")] == pytest.approx(0.36, abs=1e-15)
    assert dist[("1", "id")] == pytest.approx(0.64, abs=1e-15)
    for seed in range(20):
        outcomes = [m.outcome for m in run_locc(protocol, state, seed).messages]
        assert outcomes[0] in ("0", "1") and outcomes[1] == "id"


# ---------------------------------------------------------------- product entries


def unitary(rng, dim):
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return np.linalg.qr(z)[0]


def product_round(isometry, matrix, party="B"):
    """One per-node round of a single outcome whose entry is (E, R)."""
    return Round(party, lambda h: [("0", [(isometry, matrix)])], per_node=True)


def _bad_products():
    rng = np.random.default_rng(9)
    isometry = np.linalg.qr(rng.standard_normal((6, 2)) + 1j * rng.standard_normal((6, 2)))[0]
    matrix = unitary(rng, 2)
    nan_isometry, nan_matrix = isometry.copy(), matrix.copy()
    nan_isometry[3, 1] = np.nan
    nan_matrix[0, 0] = np.nan
    return {
        # E^dagger E = (1 + 1e-11)^2 1: ||E^dagger E - 1||_F = 2.8e-11
        "non-isometric E": (isometry * (1 + 1e-11), matrix, "not an isometry"),
        "NaN in E": (nan_isometry, matrix, "not an isometry"),
        # R^dagger R - 1 = 9.4e-11 1: inside 1e-10, which a plain operator
        # meets, but not inside 8.9e-11, which leaves room for E's defect
        "non-unitary R": (isometry, matrix * (1 + 4.7e-11), "trace-preserving"),
        "NaN in R": (isometry, nan_matrix, "trace-preserving"),
        "E after R of another size": (isometry[:, :1], matrix, "cannot follow"),
    }


def _mismatched_outcomes():
    rng = np.random.default_rng(11)
    u, v = unitary(rng, 2), unitary(rng, 2)
    half = np.eye(2) / math.sqrt(2)
    return {
        "rows": ([np.eye(2)[:1], np.eye(2)[1:], np.eye(2)],
                 r"holds Kraus operators of shapes \(1, 2\) and \(2, 2\)"),
        "plain and product": ([half, (u, u.conj().T @ half)], "mixes plain and product entries"),
        "product and plain": ([(u, u.conj().T @ half), half], "mixes plain and product entries"),
        "two E's": ([(u, u.conj().T @ half), (v, v.conj().T @ half)],
                    "holds products of two different E's"),
    }


@pytest.mark.parametrize("case", sorted(_mismatched_outcomes()))
@pytest.mark.parametrize("engine", [run_locc, enumerate_paths])
def test_an_outcome_of_mismatched_entries_is_refused(case, engine):
    kraus_list, message = _mismatched_outcomes()[case]
    protocol = LoccProtocol(2, 2, (
        Round("A", lambda h: [("id", [np.eye(2)])]),
        Round("B", lambda h: [("odd", kraus_list)], per_node=True),
    ), "mismatched")
    where = r"round 1 after outcomes \['id'\]: outcome 'odd' "
    with pytest.raises(ValueError, match=where + message):
        engine(protocol, np.kron([1.0, 0.0], [0.6, 0.8]).astype(complex))


@pytest.mark.parametrize("engine", [run_locc, enumerate_paths])
def test_a_kraus_operator_with_no_rows_is_refused(engine):
    protocol = LoccProtocol(2, 2, (
        Round("A", lambda h: [("id", [np.eye(2)])]),
        Round("B", lambda h: [("z", [np.zeros((0, 2))]), ("i", [np.eye(2)])]),
    ), "zero-rows")
    where = r"round 1 after outcomes \['id'\]: outcome 'z' holds a Kraus operator "
    with pytest.raises(ValueError, match=where + r"of shape \(0, 2\)"):
        engine(protocol, np.kron([1.0, 0.0], [1.0, 0.0]).astype(complex))


def test_a_plain_operator_keeps_the_wider_limit():
    matrix = _bad_products()["non-unitary R"][1]
    plain = LoccProtocol(2, 2, (Round("B", lambda h: [("0", [matrix])]),), "plain")
    assert enumerate_paths(plain, np.kron([1.0, 0.0], [0.6, 0.8]).astype(complex))


@pytest.mark.parametrize("case", sorted(_bad_products()))
@pytest.mark.parametrize("engine", [run_locc, enumerate_paths])
def test_a_bad_product_entry_is_refused(case, engine):
    isometry, matrix, message = _bad_products()[case]
    protocol = LoccProtocol(2, 2, (product_round(isometry, matrix),), "bad")
    with pytest.raises(ValueError, match=rf"round 0 after outcomes \[\]: .*{message}"):
        engine(protocol, np.kron([1.0, 0.0], [0.6, 0.8]).astype(complex))


def test_a_shared_isometry_is_checked_once_per_walk(monkeypatch):
    protocol = teleport_protocol(3, 2)
    embed = protocol.rounds[1].instrument(("w0",))[0][1][0][0]
    grams = []
    gram = locc._gram
    monkeypatch.setattr(locc, "_gram", lambda k: grams.append(k is embed) or gram(k))
    joint = bipartite_tensor_power(bell_state(2), 3).reshape(-1)
    dist = enumerate_paths(protocol, joint)
    assert len(dist) > 3 and sum(grams) == 1
    grams.clear()
    enumerate_paths(protocol, [joint, joint])
    assert sum(grams) == 1


def product_kraus_protocol(seed, dim_a, dim_b, steps):
    """``random_kraus_protocol`` with every Kraus operator K given as the
    product entry (U, U^dagger K), U a random unitary shared by the round."""
    rng = np.random.default_rng(1000 + seed)
    plain = random_kraus_protocol(seed, dim_a, dim_b, steps)
    rounds = []
    for rnd, (_, dim_out) in zip(plain.rounds, steps):
        u = unitary(rng, dim_out)

        def instrument(history, f=rnd.instrument, u=u):
            return [(label, [(u, u.conj().T @ k) for k in kraus_list])
                    for label, kraus_list in f(history)]

        rounds.append(Round(rnd.party, instrument, per_node=True))
    return LoccProtocol(dim_a, dim_b, tuple(rounds), f"product-kraus-{seed}")


@pytest.mark.parametrize("dim_a, dim_b, steps", KRAUS_STEPS)
def test_product_entries_match_dense_reference(dim_a, dim_b, steps):
    rng = np.random.default_rng(7 * dim_a + dim_b)
    for seed in range(2):
        protocol = product_kraus_protocol(seed, dim_a, dim_b, steps)
        for rank in (0, 2):
            state = random_input(rng, dim_a * dim_b, rank)
            rho = state if state.ndim == 2 else np.outer(state, state.conj())
            dist = enumerate_paths(protocol, state)
            reference = dense_enumerate_paths(protocol, rho)
            assert list(dist) == list(reference)
            for path, p in reference.items():
                assert dist[path] == pytest.approx(p, abs=1e-12)
            for run_seed in range(2):
                transcript = run_locc(protocol, state, run_seed)
                history, probs, final = dense_run_locc(protocol, rho, run_seed)
                assert tuple(m.outcome for m in transcript.messages) == history
                assert np.max(np.abs(transcript.final_state - final)) <= 1e-12


@pytest.mark.parametrize("rounds", [2, 3, 4, 5, 6])
def test_stacked_lists_match_the_per_node_route_bit_for_bit(rounds):
    # the per-node route is the one contraction per Kraus entry that per-node
    # rounds took before every list was stacked (``per_entry_paths``)
    rng = np.random.default_rng(40 + rounds)
    protocol = random_adaptive_protocol(rng, rounds=rounds)
    model = product_model(random_qubit_model(rng), random_qubit_model(rng))
    states = list(model.states(rng.uniform(-1.0, 1.0, size=(15, 1))))
    for got, want in zip(enumerate_paths(protocol, states), per_entry_paths(protocol, states)):
        assert list(got.items()) == list(want.items())


@pytest.mark.parametrize("build", [random_kraus_protocol, product_kraus_protocol])
@pytest.mark.parametrize("dim_a, dim_b, steps", KRAUS_STEPS)
def test_kraus_laws_match_the_per_entry_route_bit_for_bit(build, dim_a, dim_b, steps):
    # outcomes of 2-4 entries, so each run folds j > 1 entries into columns
    rng = np.random.default_rng(10 * dim_a + dim_b)
    for seed in range(3):
        protocol = build(seed, dim_a, dim_b, steps)
        states = [random_input(rng, dim_a * dim_b, rank) for rank in (0, 2, 6)]
        for got, want in zip(enumerate_paths(protocol, states), per_entry_paths(protocol, states)):
            assert list(got.items()) == list(want.items())


COPY_PROTOCOLS = {
    "kraus": lambda: random_kraus_protocol(0, *KRAUS_STEPS[0]),
    "product-kraus": lambda: product_kraus_protocol(1, *KRAUS_STEPS[1]),
    "adaptive": lambda: random_adaptive_protocol(np.random.default_rng(5), rounds=4),
    "teleport": lambda: teleport_protocol(3, 2),
}


@pytest.mark.parametrize("name", sorted(COPY_PROTOCOLS))
def test_each_list_is_copied_once_and_checked_on_views_of_its_stacks(name, monkeypatch):
    protocol = COPY_PROTOCOLS[name]()
    prepare, gram = locc._prepare, locc._gram
    grams, lists = [], []

    def recorded(ops, *args):
        grams.clear()
        prepared = prepare(ops, *args)
        isometries = [entry[0] for _, kraus_list in ops for entry in kraus_list
                      if isinstance(entry, tuple)]
        stacks = [stack for _, _, stack in prepared]
        for k in grams:  # E's own check aside, every Gram reads a stack
            assert any(k is e for e in isometries) or any(np.shares_memory(k, s) for s in stacks)
        lists.append(len(stacks))
        return prepared

    monkeypatch.setattr(locc, "_prepare", recorded)
    monkeypatch.setattr(locc, "_gram", lambda k: grams.append(k) or gram(k))
    state = random_input(np.random.default_rng(3), protocol.dim_a * protocol.dim_b, 0)
    assert math.fsum(enumerate_paths(protocol, state).values()) == pytest.approx(1.0, abs=1e-12)
    run_locc(protocol, state, 0)
    assert lists and min(lists) >= 1


# ---------------------------------------------------------------- batched walk


def assert_same_law(got, want, tol=1e-15):
    assert list(got) == list(want)
    for path, p in want.items():
        assert abs(got[path] - p) <= tol, path


def counting_protocol(protocol, calls: list) -> LoccProtocol:
    """The protocol with each instrument fetch's history appended to calls."""
    return LoccProtocol(protocol.dim_a, protocol.dim_b, tuple(
        Round(rnd.party, lambda h, f=rnd.instrument: calls.append(h) or f(h))
        for rnd in protocol.rounds
    ))


def mixed_stack(rng, dim):
    """Pure states, as vectors, beside densities of ranks 1, 2 and dim."""
    return [random_input(rng, dim, rank) for rank in (0, 0, 1, 2, dim)]


@pytest.mark.parametrize("rounds", [2, 3, 4, 5, 6])
def test_batched_walk_matches_per_state_walks(rounds):
    rng = np.random.default_rng(rounds)
    protocol = random_adaptive_protocol(rng, rounds=rounds)
    model = product_model(random_qubit_model(rng), random_qubit_model(rng))
    states = [model.state([t]) for t in rng.uniform(-1.0, 1.0, size=4)] + mixed_stack(rng, 4)
    laws = enumerate_paths(protocol, states)
    assert len(laws) == len(states)
    for law, state in zip(laws, states):
        assert_same_law(law, enumerate_paths(protocol, state))


def test_batched_walk_matches_per_state_walks_on_the_transfer_protocol():
    protocol = teleport_protocol(3)
    states = [
        bipartite_tensor_power(state_from_schmidt(np.array(p)), 3).reshape(-1)
        for p in ([0.5, 0.5], [0.7, 0.3], [1.0, 0.0])
    ]
    laws = enumerate_paths(protocol, tuple(states))
    for law, state in zip(laws, states):
        assert_same_law(law, enumerate_paths(protocol, state))
    # the product state never passes Alice's projection: only "fail" remains
    assert list(laws[2]) == [("fail", "abort")]


def test_batched_walk_prunes_a_branch_for_one_state_only():
    # the computational basis on each side: |00> keeps one path, |++> all four
    basis = np.eye(2, dtype=complex)
    protocol = LoccProtocol(
        2, 2,
        (Round("A", projective_instrument(basis)), Round("B", projective_instrument(basis))),
        "computational",
    )
    zero, plus = np.array([1.0, 0.0]), np.full(2, 1 / math.sqrt(2))
    states = [np.kron(zero, zero), np.kron(plus, plus), np.kron(plus, zero)]
    laws = enumerate_paths(protocol, states)
    assert laws[0] == {("0", "0"): 1.0}
    assert sorted(laws[1]) == [("0", "0"), ("0", "1"), ("1", "0"), ("1", "1")]
    assert sorted(laws[2]) == [("0", "0"), ("1", "0")]
    for law, state in zip(laws, states):
        assert_same_law(law, enumerate_paths(protocol, state))
        assert_same_law(law, single_state_paths(protocol, state))


@pytest.mark.parametrize("rounds", [2, 4, 6])
def test_a_stack_of_one_matches_the_single_state_walk(rounds):
    rng = np.random.default_rng(10 + rounds)
    protocol = random_adaptive_protocol(rng, rounds=rounds)
    for state in mixed_stack(rng, 4):
        [law] = enumerate_paths(protocol, [state])
        assert_same_law(law, single_state_paths(protocol, state))
        assert_same_law(enumerate_paths(protocol, state), law)


def test_batched_walk_fetches_each_instrument_once_and_counts_leaves_once(monkeypatch):
    protocol = random_adaptive_protocol(np.random.default_rng(2), rounds=3)
    calls = []
    counted = counting_protocol(protocol, calls)
    rng = np.random.default_rng(3)
    states = [random_input(rng, 4, 0) for _ in range(5)]
    enumerate_paths(counted, states)
    assert len(calls) == len(set(calls)) == 1 + 2 + 4  # one fetch per node
    # the eight leaves of the one walk, not eight per state
    monkeypatch.setattr(locc, "_PATH_LIMIT", 8)
    assert len(enumerate_paths(protocol, states)) == 5
    monkeypatch.setattr(locc, "_PATH_LIMIT", 7)
    with pytest.raises(RuntimeError, match="path count exceeds 7"):
        enumerate_paths(protocol, states)


def test_an_empty_stack_has_no_laws():
    assert enumerate_paths(random_adaptive_protocol(np.random.default_rng(0)), []) == []


# ---------------------------------------------------------------- additivity


def test_additivity_non_adaptive_exact():
    rng = np.random.default_rng(11)
    protocol = LoccProtocol(
        2,
        2,
        (
            Round("A", projective_instrument(sample_haar_unitary(2, rng))),
            Round("B", projective_instrument(sample_haar_unitary(2, rng))),
        ),
        "independent",
    )
    model_a = random_qubit_model(np.random.default_rng(50))
    model_b = random_qubit_model(np.random.default_rng(51))
    res = verify_fisher_additivity(protocol, model_a, model_b, [0.3])
    assert res.cross <= 1e-8


def test_additivity_adaptive_many_thetas():
    protocol = random_adaptive_protocol(np.random.default_rng(13), rounds=2)
    model_a = random_qubit_model(np.random.default_rng(60))
    model_b = random_qubit_model(np.random.default_rng(61))
    rng = np.random.default_rng(14)
    for _ in range(20):
        theta0 = float(rng.uniform(-1.0, 1.0))
        res = verify_fisher_additivity(protocol, model_a, model_b, [theta0])
        assert res.cross <= 1e-8, theta0


def test_additivity_anticopy_pair_with_adaptive_rounds():
    from locclab.models import anticopy_pair

    model_a2, model_b2 = anticopy_pair()

    # restrict the pair to one parameter (the polar angle) for the 1-D engine
    def slice_model(model):
        return PureStateModel(
            1,
            lambda t: model.state_fn(np.column_stack([t[:, 0], np.full(len(t), 0.4)])),
            lambda t: model.derivative_fn(np.column_stack([t[:, 0], np.full(len(t), 0.4)]))[:, :1],
            domain=((1e-3, math.pi - 1e-3),),
        )

    protocol = random_adaptive_protocol(np.random.default_rng(15), rounds=3)
    res = verify_fisher_additivity(
        protocol, slice_model(model_a2), slice_model(model_b2), [1.1]
    )
    assert res.cross <= 1e-8


def fuzz_small_cases():
    """15 random adaptive protocols with their models and points."""
    cases, seed = [], 0
    while len(cases) < 15:
        seed += 1
        rng = np.random.default_rng(seed)
        protocol = random_adaptive_protocol(rng, rounds=2 + seed % 2)
        model_a = random_qubit_model(np.random.default_rng(1000 + seed))
        model_b = random_qubit_model(np.random.default_rng(2000 + seed))
        theta0 = 0.2 + 0.01 * seed
        dist = enumerate_paths(protocol, product_model(model_a, model_b).state([theta0]))
        if min(dist.values()) < 1e-3:
            continue  # ill-conditioned for finite differences; fuzz next seed
        cases.append((protocol, model_a, model_b, [theta0]))
    return cases


def test_additivity_fuzz_small():
    worst = max(verify_fisher_additivity(*case).cross for case in fuzz_small_cases())
    assert worst <= 1e-8


def test_additivity_makes_one_walk(monkeypatch):
    walks = []
    walk = locc.enumerate_paths
    monkeypatch.setattr(locc, "enumerate_paths", lambda *a: walks.append(1) or walk(*a))
    for protocol, model_a, model_b, theta0 in fuzz_small_cases()[:4]:
        calls = []
        counted = counting_protocol(protocol, calls)
        walks.clear()
        verify_fisher_additivity(counted, model_a, model_b, theta0)
        fetched = len(calls)
        calls.clear()
        walk(counted, np.kron(model_a.state(theta0), model_b.state(theta0)))
        assert walks == [1] and fetched == len(calls)


def test_additivity_matches_the_per_state_route():
    for protocol, model_a, model_b, theta0 in fuzz_small_cases():
        res = verify_fisher_additivity(protocol, model_a, model_b, theta0)
        a0, b0 = model_a.state(theta0), model_b.state(theta0)
        routes = (
            lambda t: np.kron(model_a.state(t), model_b.state(t)),
            lambda t: np.kron(model_a.state(t), b0),
            lambda t: np.kron(a0, model_b.state(t)),
        )
        for got, family in zip((res.j_total, res.j_a, res.j_b), routes):
            want = fisher_of_distribution(
                lambda t, f=family: enumerate_paths(protocol, f(t)), theta0
            )
            assert np.max(np.abs(got - want)) <= 1e-9 * np.max(np.abs(want))


# ---------------------------------------------------------------- teleport scenario


def test_teleport_protocol_paths_and_success():
    protocol = teleport_protocol(4, 2)
    joint = bipartite_tensor_power(bell_state(2), 4).reshape(-1)
    dist = enumerate_paths(protocol, joint)
    assert sum(dist.values()) == pytest.approx(1.0, abs=1e-10)
    success = sum(p for path, p in dist.items() if path[0] != "fail")
    assert success == pytest.approx(0.6875, abs=1e-10)
    # outcomes are uniform over the discrete unitary choices
    probs = sorted(p for path, p in dist.items() if path[0] != "fail")
    assert probs[0] == pytest.approx(probs[-1], abs=1e-12)


def test_enumerate_paths_keeps_no_per_node_operators():
    # Bob builds a fresh 256 x 16 operator (64 KiB) for each of the 144
    # Alice outcomes; the walk holds one at a time, not 9 MiB of them
    protocol = teleport_protocol(4, 2)
    joint = bipartite_tensor_power(bell_state(2), 4).reshape(-1)
    # Alice's operators are built with the protocol, so neither walk holds them
    enumerate_paths(protocol, joint)
    tracemalloc.start()
    try:
        enumerate_paths(protocol, joint)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


@pytest.mark.parametrize("n,d,step", [(4, 2, 1), (3, 3, 1), (4, 3, 1), (5, 2, 37)])
def test_alice_operators_are_the_weyl_grid_in_flat_order(n, d, step):
    protocol = teleport_protocol(n, d)
    alice = protocol.rounds[0].instrument(())
    tables = weyl_tables(n, d)
    grid = outcome_grid(tables)
    scale = math.sqrt(math.prod(grid))
    assert [label for label, _ in alice] == ["fail"] + [f"w{m}" for m in range(len(alice) - 1)]
    assert len(alice) - 1 == math.prod(grid)
    basis = schur_basis(n, d)
    for m in range(0, len(alice) - 1, step):
        label, [op] = alice[m + 1]
        want = kraus_operator(basis, weyl_tuple(tables, np.unravel_index(m, grid))) / scale
        assert np.max(np.abs(op - want)) <= 1e-15, label


@pytest.mark.parametrize("n,d", [(4, 2), (4, 3)])
def test_bob_product_entry_matches_the_dense_operator(n, d):
    protocol = teleport_protocol(n, d)
    bob = protocol.rounds[1]
    assert bob.per_node
    for m in range(len(protocol.rounds[0].instrument(())) - 1):
        [(label, [(embed, recovery)])] = bob.instrument(("w%d" % m,))
        assert label == "done" and recovery.shape == (d**n, d**n)
        assert np.max(np.abs(embed @ recovery - dense_bob_operator(n, d, m))) <= 1e-14, m
    assert bob.instrument(("fail",))[0][0] == "abort"


def test_teleport_protocol_n5_matches_dense_reference():
    protocol = teleport_protocol(5, 2)
    joint = bipartite_tensor_power(state_from_schmidt(np.array([0.7, 0.3])), 5).reshape(-1)
    dist = enumerate_paths(protocol, joint)
    reference = dense_enumerate_paths(protocol, joint)
    assert list(dist) == list(reference)
    for path, p in reference.items():
        assert abs(dist[path] - p) <= 1e-12, path
    assert math.fsum(dist.values()) == pytest.approx(1.0, abs=1e-12)


def test_teleport_protocol_makes_no_outcome_operator_call(monkeypatch):
    def refuse(basis, unitaries):
        raise AssertionError("kraus_operator called")

    monkeypatch.setattr(tests_support, "kraus_operator", refuse)
    protocol = teleport_protocol(4, 2)
    dist = enumerate_paths(protocol, bipartite_tensor_power(bell_state(2), 4).reshape(-1))
    assert math.fsum(dist.values()) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("n,d", [(4, 2), (4, 3), (5, 2)])
def test_teleport_embedding_matches_the_per_block_oracle(n, d):
    protocol = teleport_protocol(n, d)
    [(_, [(embed, _)])] = protocol.rounds[1].instrument(("w0",))
    assert np.array_equal(embed, teleport_embedding(n, d))


def test_teleport_protocol_matches_direct_run():
    protocol = teleport_protocol(4, 2)
    joint = bipartite_tensor_power(bell_state(2), 4).reshape(-1)
    reference = run_teleport(bell_state(2), 4, 0).final_state.amplitudes
    successes = 0
    for seed in range(8):
        transcript = run_locc(protocol, joint, seed)
        if transcript.messages[0].outcome == "fail":
            continue
        successes += 1
        fidelity = float(np.real(reference.conj() @ transcript.final_state @ reference))
        assert fidelity >= 1 - 1e-9
    assert successes >= 3


def test_teleport_protocol_n5_matches_direct_run_in_bounded_memory():
    # the final 1024 x 1024 density alone is 16 MiB; a Kraus operator
    # lifted to the joint space would be another 16 MiB
    protocol = teleport_protocol(5, 2)
    joint = bipartite_tensor_power(bell_state(2), 5).reshape(-1)
    reference = run_teleport(bell_state(2), 5, 0).final_state.amplitudes
    successes = 0
    for seed in range(3):
        tracemalloc.start()
        try:
            transcript = run_locc(protocol, joint, seed)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20
        if transcript.messages[0].outcome == "fail":
            continue
        successes += 1
        fidelity = float(np.real(reference.conj() @ transcript.final_state @ reference))
        assert fidelity >= 1 - 1e-9
    assert successes >= 1


def test_teleport_protocol_n2():
    protocol = teleport_protocol(2, 2)
    joint = bipartite_tensor_power(bell_state(2), 2).reshape(-1)
    dist = enumerate_paths(protocol, joint)
    success = sum(p for path, p in dist.items() if path[0] != "fail")
    assert success == pytest.approx(0.25, abs=1e-12)


def test_teleport_protocol_d3_matches_direct_run():
    phi = state_from_schmidt((0.5, 0.3, 0.2))
    protocol = teleport_protocol(4, 3)
    joint = bipartite_tensor_power(phi, 4).reshape(-1)
    direct = run_teleport(phi, 4, 0)
    assert direct.success_prob == pytest.approx(0.09, abs=1e-12)
    dist = enumerate_paths(protocol, joint)
    assert sum(dist.values()) == pytest.approx(1.0, abs=1e-12)
    success = sum(p for path, p in dist.items() if path[0] != "fail")
    assert success == pytest.approx(direct.success_prob, abs=1e-12)
    reference = direct.final_state.amplitudes
    successes = 0
    for seed in range(100):
        transcript = run_locc(protocol, joint, seed)
        if transcript.messages[0].outcome == "fail":
            continue
        successes += 1
        # the final state is pure: compare amplitudes, not a d^(2n) x d^(2n) density
        assert abs(np.vdot(reference, transcript.state)) ** 2 >= 1 - 1e-9
    assert successes >= 5


def test_teleport_protocol_refuses_outcome_count_beyond_path_limit():
    # Alice's instrument at n=6 would have 405,000 outcomes, each a Kraus operator
    with pytest.raises(ValueError, match="outcomes"):
        teleport_protocol(6, 2)


def test_teleport_protocol_refuses_d1():
    with pytest.raises(ValueError, match="d = 1 has no retired block"):
        teleport_protocol(2, 1)


# ---------------------------------------------------------------- two-stage estimation


def reference_two_stage(model_a, model_b, n, trials, seed, theta_true):
    """The two-stage estimate one trial at a time, with a scalar
    golden-section search: every trial's four counts and its estimate."""
    rng = np.random.default_rng(seed)
    n1 = math.ceil(math.sqrt(n))
    n2 = n - n1
    lo, hi = model_a.box()[0]
    lo2, hi2 = model_b.box()[0]
    lo, hi = max(lo, lo2), min(hi, hi2)
    lo = -math.pi if math.isinf(lo) else lo
    hi = math.pi if math.isinf(hi) else hi
    fixed = np.array([1.0, 0.0], dtype=complex)

    def state(model, th):
        return model.state(np.array([th]))

    def loglik(blocks):
        total = 0.0
        for k, n_tot, p in blocks:
            p = np.clip(p, 1e-12, 1.0 - 1e-12)
            total = total + k * np.log(p) + (n_tot - k) * np.log1p(-p)
        return total

    def golden_max(fn, a, b):
        inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
        c, d = b - inv_phi * (b - a), a + inv_phi * (b - a)
        fc, fd = fn(c), fn(d)
        for _ in range(60):
            if fc > fd:
                b, d, fd = d, c, fc
                c = b - inv_phi * (b - a)
                fc = fn(c)
            else:
                a, c, fc = c, d, fd
                d = a + inv_phi * (b - a)
                fd = fn(d)
        return 0.5 * (a + b)

    def fixed_probs(points):
        grid = np.linspace(lo, hi, points)
        states_a = np.stack([state(model_a, t) for t in grid])
        states_b = np.stack([state(model_b, t) for t in grid])
        return grid, states_a, states_b

    grid, grid_a, grid_b = fixed_probs(512)
    p1a_true = float(abs(np.vdot(fixed, state(model_a, theta_true))) ** 2)
    p1b_true = float(abs(np.vdot(fixed, state(model_b, theta_true))) ** 2)
    counts, estimates = [], []
    for child in np.random.SeedSequence(rng.integers(2**63)).spawn(trials):
        trial_rng = np.random.default_rng(child)
        k1a = int(trial_rng.binomial(n1, p1a_true))
        k1b = int(trial_rng.binomial(n1, p1b_true))
        cur_grid, cur_a, cur_b = grid, grid_a, grid_b
        for _ in range(4):
            loglik1 = loglik([(k1a, n1, np.abs(cur_a @ fixed) ** 2),
                              (k1b, n1, np.abs(cur_b @ fixed) ** 2)])
            if float(np.max(loglik1) - np.min(loglik1)) >= 1e-9:
                break
            cur_grid, cur_a, cur_b = fixed_probs(2 * cur_grid.size)
        else:
            raise EstimationFailureError("flat")
        theta_aux = float(cur_grid[int(np.argmax(loglik1))])
        vec_a = locc._optimal_basis_vector(model_a, theta_aux)
        vec_b = locc._optimal_basis_vector(model_b, theta_aux)
        k2a = int(trial_rng.binomial(n2, abs(np.vdot(vec_a, state(model_a, theta_true))) ** 2))
        k2b = int(trial_rng.binomial(n2, abs(np.vdot(vec_b, state(model_b, theta_true))) ** 2))
        counts.append((k1a, k1b, k2a, k2b))

        def loglik_at(th):
            sa, sb = state(model_a, th), state(model_b, th)
            return float(loglik([
                (k1a, n1, abs(np.vdot(fixed, sa)) ** 2),
                (k1b, n1, abs(np.vdot(fixed, sb)) ** 2),
                (k2a, n2, abs(np.vdot(vec_a, sa)) ** 2),
                (k2b, n2, abs(np.vdot(vec_b, sb)) ** 2),
            ]))

        peak = float(grid[int(np.argmax(loglik([
            (k1a, n1, np.abs(grid_a @ fixed) ** 2),
            (k1b, n1, np.abs(grid_b @ fixed) ** 2),
            (k2a, n2, np.abs(grid_a @ vec_a.conj()) ** 2),
            (k2b, n2, np.abs(grid_b @ vec_b.conj()) ** 2),
        ])))])
        span = float(grid[1] - grid[0])
        estimates.append(golden_max(loglik_at, max(lo, peak - span), min(hi, peak + span)))
    return counts, np.array(estimates)


def record_trial_draws(monkeypatch) -> dict:
    """Every binomial count drawn by a generator seeded from a spawned
    SeedSequence, in draw order, keyed by the child's spawn key."""
    draws = {}
    make = np.random.default_rng

    class Recording:
        def __init__(self, gen, log):
            self.gen, self.log = gen, log

        def binomial(self, n, p):
            k = self.gen.binomial(n, p)
            self.log.append(int(k))
            return k

    def default_rng(seed=None):
        gen = make(seed)
        if isinstance(seed, np.random.SeedSequence) and seed.spawn_key:
            return Recording(gen, draws.setdefault(seed.spawn_key, []))
        return gen

    monkeypatch.setattr(np.random, "default_rng", default_rng)
    return draws


def oscillating_model():
    """A family whose fixed-basis probability is 1 at every point of the
    512-point grid on [0, 1] and varies between them: its stage-1
    likelihood is flat on the base grid and not on the doubled one."""
    rate = 511 * math.pi

    def state(thetas):
        t = thetas[:, 0]
        return np.stack([np.cos(rate * t), np.sin(rate * t)], axis=1).astype(complex)

    def deriv(thetas):
        t = thetas[:, :1]
        return rate * np.stack([-np.sin(rate * t), np.cos(rate * t)], axis=2).astype(complex)

    return PureStateModel(1, state, deriv, domain=((0.0, 1.0),), name="oscillating")


def _families(case):
    if case == "shared":
        model = real_amplitude()
        return model, model, 400, locc._TRIAL_CHUNK + 3, 1.0
    if case == "distinct":
        rotation = rotation_model(np.array([[0.3, 0.5 - 0.2j], [0.5 + 0.2j, -0.7]]),
                                  np.array([0.6, 0.8j]))
        return real_amplitude(), rotation, 400, 24, 1.2
    model = oscillating_model()
    return model, model, 100, 12, 0.5 + 1 / (4 * 511)


@pytest.mark.parametrize("case", ["shared", "distinct", "flat-fallback"])
def test_two_stage_matches_per_trial_reference(case, monkeypatch):
    model_a, model_b, n, trials, theta = _families(case)
    counts, expected = reference_two_stage(model_a, model_b, n, trials, 4, theta)
    draws = record_trial_draws(monkeypatch)
    report = two_stage_estimate(model_a, model_b, n, trials, rng=4, theta_true=theta)
    assert [tuple(draws[(t,)]) for t in range(trials)] == counts
    assert np.max(np.abs(report.estimates - expected)) <= 1e-6


def test_two_stage_search_stops_at_the_likelihood_resolution(monkeypatch):
    span = math.pi / 511  # the default grid's spacing on a domain pi wide
    assert locc._golden_steps(2 * span) == 34
    assert 2 * span * locc._INV_PHI**34 < 1e-9 <= 2 * span * locc._INV_PHI**33
    assert locc._golden_steps(1e-9) == 1 and locc._golden_steps(9e-10) == 0
    model = real_amplitude()
    stopped = two_stage_estimate(model, model, 400, 96, rng=6, theta_true=0.8)
    monkeypatch.setattr(locc, "_golden_steps", lambda width: 60)
    longer = two_stage_estimate(model, model, 400, 96, rng=6, theta_true=0.8)
    # the first 34 steps are the same: the estimate lies in a bracket < 1e-9 wide
    assert np.max(np.abs(stopped.estimates - longer.estimates)) <= 5e-10


def test_two_stage_estimates_do_not_depend_on_trial_count():
    model = real_amplitude()
    k = locc._TRIAL_CHUNK - 5  # 2k trials cross a chunk boundary
    short = two_stage_estimate(model, model, n=400, trials=k, rng=9, theta_true=1.3)
    long = two_stage_estimate(model, model, n=400, trials=2 * k, rng=9, theta_true=1.3)
    assert np.array_equal(long.estimates[:k], short.estimates)


def test_two_stage_memory_does_not_grow_with_trials():
    model = real_amplitude()

    def peak(trials):
        tracemalloc.start()
        try:
            two_stage_estimate(model, model, n=400, trials=trials, rng=2, theta_true=1.0)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(4 * locc._TRIAL_CHUNK) - peak(locc._TRIAL_CHUNK) <= 2**20


def test_two_stage_polar_family():
    model = real_amplitude()
    report = two_stage_estimate(model, model, n=400, trials=400, rng=0, theta_true=1.0)
    assert report.stage1_copies == 20
    assert report.reference_cr == pytest.approx(0.5, abs=1e-12)
    assert abs(report.n_mse - report.reference_cr) <= 0.2 * report.reference_cr


def test_two_stage_matches_one_stage_when_fixed_basis_optimal():
    # for the polar family the fixed basis is optimal everywhere, so the
    # adaptive scheme cannot beat or trail plain fixed-basis estimation
    model = real_amplitude()
    report = two_stage_estimate(model, model, n=400, trials=600, rng=3, theta_true=1.0)

    rng = np.random.default_rng(17)
    n, theta = 400, 1.0
    p_true = math.cos(theta / 2) ** 2
    grid = np.linspace(1e-3, math.pi - 1e-3, 512)
    p_grid = np.cos(grid / 2) ** 2
    errors = []
    for _ in range(600):
        k_a = rng.binomial(n, p_true)
        k_b = rng.binomial(n, p_true)
        loglik = (k_a + k_b) * np.log(p_grid) + (2 * n - k_a - k_b) * np.log1p(-p_grid)
        errors.append((grid[int(np.argmax(loglik))] - theta) ** 2)
    one_stage_nmse = n * float(np.mean(errors))
    assert abs(report.n_mse - one_stage_nmse) <= 0.1 * one_stage_nmse


def test_two_stage_empty_and_validation():
    model = real_amplitude()
    empty = two_stage_estimate(model, model, n=400, trials=0, rng=0, theta_true=1.0)
    assert empty.trials == 0 and empty.mse == 0.0
    with pytest.raises(ValueError):
        two_stage_estimate(model, model, n=16, trials=10, rng=0, theta_true=1.0)


def test_two_stage_stage1_copies_do_not_depend_on_trials():
    model = real_amplitude()
    for n, n1 in [(30, 6), (400, 20)]:
        for trials in (0, 1):
            report = two_stage_estimate(model, model, n=n, trials=trials, rng=0)
            assert report.stage1_copies == n1


def test_two_stage_csv():
    model = real_amplitude()
    report = two_stage_estimate(model, model, n=100, trials=20, rng=0, theta_true=1.0)
    lines = report.to_csv().strip().split("\n")
    assert lines[0] == "trial,estimate,squared_error"
    assert len(lines) == 21
    for k, line in enumerate(lines[1:]):
        trial, estimate, squared_error = line.split(",")
        assert int(trial) == k and float(estimate) == report.estimates[k]
        assert float(squared_error) == (report.estimates[k] - 1.0) ** 2


def test_two_stage_flat_likelihood_fails_structurally():
    constant = PureStateModel(
        1,
        lambda t: np.tile(np.array([1.0, 0.0], dtype=complex), (len(t), 1)),
        lambda t: np.zeros((len(t), 1, 2), dtype=complex),
        domain=((0.0, 2.0),),
    )
    with pytest.raises(EstimationFailureError):
        two_stage_estimate(constant, constant, n=100, trials=5, rng=0, theta_true=1.0)


# ---------------------------------------------------------------- fisher helper


def test_fisher_of_distribution_binomial():
    # qubit polar family measured in the computational basis: J = 1
    model = product_model(real_amplitude(), real_amplitude())
    basis = np.eye(2, dtype=complex)
    protocol = LoccProtocol(
        2,
        2,
        (Round("A", projective_instrument(basis)), Round("B", projective_instrument(basis))),
        "binom",
    )

    def dist(theta):
        return enumerate_paths(protocol, model.state(theta))

    j = fisher_of_distribution(dist, [1.0])
    assert j[0, 0] == pytest.approx(2.0, rel=1e-6)  # two independent copies


def test_composition_teleport_then_measurement():
    # a third round composes the transfer with an estimation-style
    # measurement on Bob's doubled register: conditional on success, the
    # outcome law must equal the Born law of the reconstructed target
    n = 3
    phi = state_from_schmidt((0.7, 0.3))
    base = teleport_protocol(n, 2)
    dim2 = 4**n

    # coarse 4-outcome projective measurement on the doubled register
    blocks = np.array_split(np.arange(dim2), 4)
    projectors = []
    for k, idx in enumerate(blocks):
        proj = np.zeros((dim2, dim2), dtype=complex)
        proj[idx, idx] = 1.0
        projectors.append((f"m{k}", [proj]))

    def bob_measures(history):
        if history[0] == "fail":
            return [("skip", [np.eye(2**n, dtype=complex)])]  # register not doubled
        return projectors

    protocol = LoccProtocol(
        base.dim_a, base.dim_b, base.rounds + (Round("B", bob_measures),),
        "teleport+measure",
    )
    joint = bipartite_tensor_power(phi, n).reshape(-1)
    dist = enumerate_paths(protocol, joint)
    success = sum(p for path, p in dist.items() if path[0] != "fail")

    target = run_teleport(phi, n, 0).final_state.amplitudes
    for k, idx in enumerate(blocks):
        born = float(np.sum(np.abs(target[idx]) ** 2))
        conditional = (
            sum(p for path, p in dist.items() if path[0] != "fail" and path[-1] == f"m{k}")
            / success
        )
        assert conditional == pytest.approx(born, abs=1e-10)
