"""The one size guard: every call that allocates arrays growing with d or n
declares its bytes to ``states.check_bytes`` before it allocates them."""

import time
import tracemalloc

import numpy as np
import pytest

from locclab import locc, partitions, schur_weyl, states, teleport
from locclab.locc import LoccTranscript, run_locc, teleport_protocol
from locclab.partitions import Partition
from locclab.schur_weyl import build_schur_basis, standard_form
from locclab.states import (
    StateVector,
    bell_state,
    bipartite_tensor_power,
    product_state,
    state_from_schmidt,
)
from locclab.teleport import run_teleport

import tests_support
from tests_support import rotated

PHI = state_from_schmidt((0.7, 0.3))
PHI3 = state_from_schmidt((0.5, 0.3, 0.2))
PHI4 = state_from_schmidt((0.4, 0.3, 0.2, 0.1))
# PHI under a seeded real rotation of each half: off its diagonal
ROTATED = rotated(PHI, 0)
BELL = bell_state(2)
BASIS = build_schur_basis(10, 2)  # built before a test sets the budget
RESULT = run_teleport(PHI, 9, 0)  # its final state, built on access, takes 4 MiB
FORM = standard_form(PHI, 200)  # its dense phi, built on access, takes 10 MiB
# the same off the diagonal: their dense parts are turned by the irreps of a
# cold basis at n = 9 and 10
ROTATED_RESULT = run_teleport(ROTATED, 9, 0)
ROTATED_FORM = standard_form(ROTATED, 10)
# one outcome at n = 10: a dense retained block it reads takes up to 3 MB
IDENTITIES = {lam: np.eye(BASIS.blocks[lam].dim_v) for lam in teleport.good_set(10, 2)}


def traced_peak(fn) -> int:
    """Traced peak of fn() in bytes, from a cold basis memo and no Schur
    evaluation plan."""
    schur_weyl._memo_basis.cache_clear()
    partitions._schur_plan.cache_clear()
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def refused_peak(fn) -> int:
    """Traced peak of fn(), which must raise the guard's ValueError."""

    def call():
        with pytest.raises(ValueError, match="budget"):
            fn()

    return traced_peak(call)


# each of these would allocate more than 1 MiB if the guard let it through
GUARDED_CALLS = {
    "bipartite_tensor_power": lambda: bipartite_tensor_power(PHI, 9),
    "bell_state": lambda: bell_state(400),
    "product_state": lambda: product_state(400),
    "state_from_schmidt": lambda: state_from_schmidt(np.full(300, 1 / 300)),
    "build_schur_basis": lambda: build_schur_basis(10, 2),
    "SchurBlock.vectors": lambda: BASIS.blocks[Partition((6, 4))].vectors,
    "SchurBasis.matrix": lambda: BASIS.matrix,
    "standard_form": lambda: standard_form(PHI, 301),
    "standard_form.rotated": lambda: standard_form(ROTATED, 301),
    "run_teleport": lambda: run_teleport(PHI, 301, 0),
    "run_teleport.rotated": lambda: run_teleport(ROTATED, 301, 0),
    "TeleportResult.final_state": lambda: RESULT.final_state,
    "TeleportResult.final_state.rotated": lambda: ROTATED_RESULT.final_state,
    "StandardForm.phi": lambda: FORM.phi,
    "StandardForm.phi.rotated": lambda: ROTATED_FORM.phi,
    "teleport_protocol": lambda: teleport_protocol(5, 2),
    "kraus_operator": lambda: tests_support.kraus_operator(BASIS, IDENTITIES),
    "final_state": lambda: LoccTranscript("t", 0, [], np.ones(512) / np.sqrt(512)).final_state,
}


@pytest.mark.parametrize("name", list(GUARDED_CALLS))
def test_zero_budget_refuses_before_allocating(name, monkeypatch):
    monkeypatch.setattr(states, "_MAX_BYTES", 0)
    assert refused_peak(GUARDED_CALLS[name]) < 2**20


@pytest.fixture
def declared(monkeypatch):
    """Bytes declared to the guard, in call order, under a 2^24 budget."""
    counts = []
    check = states.check_bytes

    def record(nbytes, what):
        counts.append(nbytes)
        check(nbytes, what)

    monkeypatch.setattr(states, "_MAX_BYTES", 2**24)
    for module in (states, partitions, schur_weyl, teleport, locc):
        monkeypatch.setattr(module, "check_bytes", record)
    return counts


def _protocol_run(n):
    joint = bipartite_tensor_power(BELL, n).reshape(-1)

    def run():
        run_locc(teleport_protocol(n, 2), joint, 0)

    return run


def _access(make, name):
    """The read of ``name`` on ``make(n)``, made before the peak is traced."""

    def call(n):
        made = make(n)
        return lambda: getattr(made, name)

    return call


# (call, its largest n admitted by a 2^24 budget), at d = 2 unless named:
# every input is counted by frame_bytes, whose count grows with sum dim_u,
# one off its diagonal with its SVD too; the dense parts of one off its
# diagonal by standard_form_bytes
EDGES = {
    "build_schur_basis": (lambda n: lambda: build_schur_basis(n, 2), 11),
    "standard_form": (lambda n: lambda: standard_form(PHI, n), 726),
    "standard_form.rotated": (lambda n: lambda: standard_form(ROTATED, n), 726),
    "run_teleport": (lambda n: lambda: run_teleport(PHI, n, 0), 726),
    "run_teleport.rotated": (lambda n: lambda: run_teleport(ROTATED, n, 0), 726),
    "StandardForm.phi.rotated": (_access(lambda n: standard_form(ROTATED, n), "phi"), 11),
    "TeleportResult.final_state.rotated": (
        _access(lambda n: run_teleport(ROTATED, n, 0), "final_state"), 9
    ),
    "teleport_protocol": (_protocol_run, 5),
    # frame_bytes at d = 3 and 4
    "standard_form.d3": (lambda n: lambda: standard_form(PHI3, n), 35),
    "run_teleport.d3": (lambda n: lambda: run_teleport(PHI3, n, 0), 35),
    "standard_form.d4": (lambda n: lambda: standard_form(PHI4, n), 15),
    "run_teleport.d4": (lambda n: lambda: run_teleport(PHI4, n, 0), 15),
}


@pytest.mark.parametrize("name", list(EDGES))
def test_declared_bytes_bound_the_peak_at_the_admitted_edge(name, declared):
    call, n = EDGES[name]
    run = call(n)
    declared.clear()
    peak = traced_peak(run)
    assert peak <= declared[0]
    with pytest.raises(ValueError):
        call(n + 1)()


@pytest.mark.parametrize("n,d", [(2, 16), (2, 32), (3, 12), (3, 16), (4, 8), (1, 1000)])
def test_basis_build_peak_within_its_count_at_large_d(n, d, declared):
    # few letters over many: the per-weight arrays and records, not the
    # weight blocks, set the peak here
    peak = traced_peak(lambda: build_schur_basis(n, d))
    assert peak <= declared[0]


def _complex_state(d):
    rng = np.random.default_rng(d)
    amps = rng.standard_normal(d * d) + 1j * rng.standard_normal(d * d)
    return StateVector(amps / np.linalg.norm(amps), (d, d))


@pytest.mark.parametrize("n,d", [(1, 250), (2, 20), (3, 8)])
def test_standard_form_peak_within_its_count_at_large_d(n, d, declared):
    # a complex input at few letters over many: its SVD and its letter
    # powers, a K x d array, set the peak
    phi = _complex_state(d)
    peak = traced_peak(lambda: standard_form(phi, n))
    assert peak <= declared[0]


@pytest.mark.parametrize("n,d", [(1, 250), (2, 20), (3, 8)])
def test_dense_parts_peak_within_their_count_at_large_d(n, d, declared):
    # the same form's dense parts: the stacked products of U and V^H with
    # the v = 0 columns are d^n x d^n, and set the peak
    form = standard_form(_complex_state(d), n)
    declared.clear()
    peak = traced_peak(lambda: form.phi)
    assert peak <= declared[0]


@pytest.mark.parametrize("n,d", [(1, 250), (2, 20), (3, 8), (9, 3), (6, 4)])
def test_frame_peak_within_its_count_at_large_d(n, d, declared):
    # a diagonal of complex phases over a flat spectrum: every block weighs
    # above the floor, and every u part is complex
    amps = np.diag(np.exp(1j * np.arange(d)) / np.sqrt(d))
    phi = StateVector(amps.reshape(-1), (d, d))
    peak = traced_peak(lambda: standard_form(phi, n))
    assert peak <= declared[0]


@pytest.mark.parametrize(
    "n,d", [(60, 4), (40, 5), (300, 2), (28, 3), (20, 8), (12, 12), (3, 100), (1, 1000)]
)
def test_a_cold_schur_evaluation_peaks_within_its_count(n, d, declared):
    # the plan is built level by level, each level declared with the plan so
    # far; the evaluation then declares the whole plan beside its last level
    peak = traced_peak(lambda: partitions._schur_values(np.full(d, 1.0 / d), n))
    assert peak <= max(declared)


@pytest.mark.parametrize(
    "fn", [lambda: teleport_protocol(5, 4), lambda: bell_state(10**5)],
    ids=["teleport_protocol(5, 4)", "bell_state(10**5)"],
)
def test_real_budget_refuses_quickly(fn):
    start = time.perf_counter()
    assert refused_peak(fn) < 2**20
    assert time.perf_counter() - start < 5.0


def test_a_count_past_the_decimal_conversion_limit_is_refused_by_name():
    # 10**5000 has more digits than the interpreter converts to a string
    budget = f"over the {states._MAX_BYTES}-byte budget"
    with pytest.raises(ValueError, match=rf"^the call needs at least 2\^16609 bytes, {budget}$"):
        states.check_bytes(10**5000, "the call")
    with pytest.raises(ValueError, match=rf"^the call needs {2**40} bytes, {budget}$"):
        states.check_bytes(2**40, "the call")


@pytest.mark.parametrize("preset", [bell_state, product_state])
@pytest.mark.parametrize("d", [0, -1])
def test_presets_refuse_dimension_below_one(preset, d):
    with pytest.raises(ValueError, match="below 1"):
        preset(d)
