import json
import math
import tracemalloc

import numpy as np
import pytest

from locclab.locc import (
    EstimationFailureError,
    LoccProtocol,
    Round,
    enumerate_paths,
    fisher_of_distribution,
    joint_outcome_distribution,
    random_adaptive_protocol,
    random_qubit_model,
    run_locc,
    teleport_protocol,
    two_stage_estimate,
    verify_fisher_additivity,
)
from locclab.models import product_model, real_amplitude
from locclab.states import bell_state, bipartite_tensor_power, state_from_schmidt
from locclab.teleport import run_teleport, sample_haar_unitary


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


def test_transcript_determinism_and_schema():
    protocol = random_adaptive_protocol(np.random.default_rng(5), rounds=3)
    model = product_model(
        random_qubit_model(np.random.default_rng(1)),
        random_qubit_model(np.random.default_rng(2)),
    )
    state = model.state([0.4])
    first = run_locc(protocol, state, 42)
    second = run_locc(protocol, state, 42)
    assert first.to_json() == second.to_json()
    payload = json.loads(first.to_json())
    assert set(payload) == {"protocol_id", "seed", "rounds", "final_state_hash"}
    for entry in payload["rounds"]:
        assert set(entry) == {"party", "outcome", "prob"}
        assert 0.0 < entry["prob"] <= 1.0
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


def test_path_probabilities_sum_to_one():
    for seed in range(5):
        protocol = random_adaptive_protocol(np.random.default_rng(seed), rounds=3)
        model = product_model(
            random_qubit_model(np.random.default_rng(seed + 10)),
            random_qubit_model(np.random.default_rng(seed + 20)),
        )
        dist = joint_outcome_distribution(protocol, model, [0.3])
        assert sum(dist.values()) == pytest.approx(1.0, abs=1e-10)
        assert all(p > 0 for p in dist.values())


def test_single_round_is_born_rule():
    basis = np.eye(2, dtype=complex)
    protocol = LoccProtocol(2, 2, (Round("A", projective_instrument(basis)),), "born")
    model = product_model(real_amplitude(), real_amplitude())
    theta = [1.2]
    dist = joint_outcome_distribution(protocol, model, theta)
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
    dist = joint_outcome_distribution(protocol, model, [0.5])
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
    if party == "A":
        return np.kron(kraus, np.eye(dim_b))
    return np.kron(np.eye(dim_a), kraus)


def dense_branches(rnd, history, rho, dim_a, dim_b):
    """(label, K rho K^dagger summed over the outcome's Kraus operators,
    probability, new dimensions) for every outcome, on the full density."""
    out = []
    for label, kraus_list in rnd.instrument(history):
        lifted = [dense_lift(k, rnd.party, dim_a, dim_b) for k in kraus_list]
        new = sum(lk @ rho @ lk.conj().T for lk in lifted)
        if rnd.party == "A":
            dims = (new.shape[0] // dim_b, dim_b)
        else:
            dims = (dim_a, new.shape[0] // dim_a)
        out.append((label, new, float(np.real(np.trace(new))), dims))
    return out


def dense_enumerate_paths(protocol, rho):
    out = {}

    def walk(rho, history, prob, idx, dims):
        if idx == len(protocol.rounds):
            out[history] = prob
            return
        for label, new, p, new_dims in dense_branches(
            protocol.rounds[idx], history, rho, *dims
        ):
            if p > 1e-15:
                walk(new / p, history + (label,), prob * p, idx + 1, new_dims)

    walk(rho, (), 1.0, 0, (protocol.dim_a, protocol.dim_b))
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
        from locclab.models import PureStateModel

        return PureStateModel(
            1,
            lambda t: model.state_fn(np.array([t[0], 0.4])),
            (lambda t, i: model.derivative_fn(np.array([t[0], 0.4]), 0)),
            domain=((1e-3, math.pi - 1e-3),),
        )

    protocol = random_adaptive_protocol(np.random.default_rng(15), rounds=3)
    res = verify_fisher_additivity(
        protocol, slice_model(model_a2), slice_model(model_b2), [1.1]
    )
    assert res.cross <= 1e-8


def test_additivity_fuzz_small():
    worst = 0.0
    count = 0
    seed = 0
    while count < 15:
        seed += 1
        rng = np.random.default_rng(seed)
        protocol = random_adaptive_protocol(rng, rounds=2 + seed % 2)
        model_a = random_qubit_model(np.random.default_rng(1000 + seed))
        model_b = random_qubit_model(np.random.default_rng(2000 + seed))
        theta0 = 0.2 + 0.01 * seed
        dist = joint_outcome_distribution(
            protocol, product_model(model_a, model_b), [theta0]
        )
        if min(dist.values()) < 1e-3:
            continue  # ill-conditioned for finite differences; fuzz next seed
        res = verify_fisher_additivity(protocol, model_a, model_b, [theta0])
        worst = max(worst, res.cross)
        count += 1
    assert worst <= 1e-8


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


# ---------------------------------------------------------------- two-stage estimation


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


def test_two_stage_csv(tmp_path):
    model = real_amplitude()
    report = two_stage_estimate(model, model, n=100, trials=20, rng=0, theta_true=1.0)
    out = tmp_path / "report.csv"
    report.to_csv(out)
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "trial,estimate,squared_error"
    assert len(lines) == 21


def test_two_stage_flat_likelihood_fails_structurally():
    from locclab.models import PureStateModel

    constant = PureStateModel(
        1,
        lambda t: np.array([1.0, 0.0], dtype=complex),
        lambda t, i: np.zeros(2, dtype=complex),
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
        return joint_outcome_distribution(protocol, model, theta)

    j = fisher_of_distribution(dist, [1.0], 1)
    assert j[0, 0] == pytest.approx(2.0, rel=1e-6)  # two independent copies


def test_composition_teleport_then_measurement():
    # a third round composes the transfer with an estimation-style
    # measurement on Bob's doubled register: conditional on success, the
    # outcome law must equal the Born law of the reconstructed target
    from locclab.locc import LoccProtocol, Round
    from locclab.schur_weyl import standard_form
    from locclab.states import state_from_schmidt

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
