import gc
import math
import tracemalloc
import weakref

import numpy as np
import pytest

from locclab import partitions
from locclab.partitions import (
    BlockDims,
    Partition,
    as_spectrum,
    block_table,
    character,
    class_size,
    dim_u,
    dim_v,
    enumerate_partitions,
    large_deviation_bound,
    relative_entropy,
    schur_ladder,
    standard_tableaux,
)
from locclab.schur_weyl import weights_analytic
from locclab.teleport import ideal_fidelities, ideal_fidelity
from tests_support import (
    entropy_bound_check,
    ideal_fidelities_by_dict,
    large_deviation_bound_by_dict,
    schur_polynomials,
    schur_polynomials_per_last_part,
    schur_values_by_pointer_chase,
    shannon_entropy,
    weights_by_dict,
)


# ---------------------------------------------------------------- oracles


def hook_length_count(shape: tuple[int, ...]) -> int:
    """Independent count of standard tableaux via hook lengths."""
    rows = [p for p in shape if p > 0]
    cols = [0] * (rows[0] if rows else 0)
    for r in rows:
        for j in range(r):
            cols[j] += 1
    n = sum(rows)
    denom = 1
    for i, r in enumerate(rows):
        for j in range(r):
            denom *= (r - j) + (cols[j] - i) - 1
    return math.factorial(n) // denom


def schur_by_power_sums(lam: Partition, p) -> float:
    """Character expansion over cycle types: an independent evaluation."""
    n = lam.n
    total = 0.0
    for mu in enumerate_partitions(n, n):
        power = 1.0
        for part in mu.trimmed():
            power *= sum(x**part for x in p)
        total += class_size(mu) * character(lam, mu) * power
    return total / math.factorial(n)


# ---------------------------------------------------------------- types


def test_partition_validation():
    with pytest.raises(ValueError):
        Partition((1, 2))
    with pytest.raises(ValueError):
        Partition((2, -1))
    lam = Partition((3, 1, 0))
    assert lam.n == 4
    assert lam.num_parts == 3
    assert lam.trimmed() == (3, 1)
    assert str(lam) == "(3,1,0)"


def test_spectrum_validation():
    assert as_spectrum([0.5, 0.5]) == (0.5, 0.5)
    with pytest.raises(ValueError):
        as_spectrum([0.2, 0.8])  # not sorted
    with pytest.raises(ValueError):
        as_spectrum([0.9, 0.2])  # does not sum to 1


@pytest.mark.parametrize("values", [[math.nan, 0.5], [1.0, math.nan], [math.inf, 0.0]])
def test_spectrum_validation_rejects_non_finite_entries(values):
    with pytest.raises(ValueError):
        as_spectrum(values)


@pytest.mark.parametrize("values, n", [((1.0, -5e-13), 2), ((0.7, 0.3000000000005, -5e-13), 5)])
def test_a_tiny_negative_entry_is_clipped_to_zero(values, n):
    # admitted within 1e-12 of 0; passed on unclipped, it gave negative weights
    spectrum = as_spectrum(values)
    assert spectrum[-1] == 0.0 and math.copysign(1.0, spectrum[-1]) == 1.0
    assert spectrum[:-1] == values[:-1]
    assert ideal_fidelity(values, n) >= 0.0


# ---------------------------------------------------------------- enumeration


@pytest.mark.parametrize(
    "n,d,expected",
    [
        (2, 2, [(2, 0), (1, 1)]),
        (4, 2, [(4, 0), (3, 1), (2, 2)]),
        (1, 3, [(1, 0, 0)]),
    ],
)
def test_enumerate_examples(n, d, expected):
    assert [lam.parts for lam in enumerate_partitions(n, d)] == expected


def test_enumerate_order_and_uniqueness():
    for n in range(1, 9):
        for d in (2, 3, 4):
            lams = enumerate_partitions(n, d)
            assert len(set(lams)) == len(lams)
            parts = [lam.parts for lam in lams]
            assert parts == sorted(parts, reverse=True)
            for lam in lams:
                assert lam.n == n and lam.num_parts == d


@pytest.mark.parametrize(
    "n, d",
    [(n, d) for n in range(1, 13) for d in range(1, 7)] + [(60, 4), (40, 5), (100, 2), (20, 6)],
)
def test_trusted_enumeration_equals_validated_construction(n, d):
    lams = enumerate_partitions(n, d)
    assert [Partition(lam.parts) for lam in lams] == lams  # same order too
    assert all(type(p) is int for lam in lams for p in lam.parts)


def test_enumeration_at_large_d_runs_no_recursion_d_deep():
    assert [lam.parts for lam in enumerate_partitions(1, 5000)] == [(1,) + (0,) * 4999]
    zeros = (0,) * 1997
    assert [lam.parts for lam in enumerate_partitions(3, 2000)] == [
        (3, 0, 0) + zeros, (2, 1, 0) + zeros, (1, 1, 1) + zeros,
    ]


def test_enumerate_result_freed_without_cycle_collector():
    # every weights call enumerates; a list kept alive by a reference cycle
    # would hold thousands of partitions until the cyclic collector runs
    gc.disable()
    try:
        lams = enumerate_partitions(8, 3)
        first = weakref.ref(lams[0])
        del lams
        assert first() is None
    finally:
        gc.enable()


# ---------------------------------------------------------------- dimensions


def test_dim_u_examples():
    assert dim_u(Partition((2, 0))) == 3
    assert dim_u(Partition((1, 1))) == 1
    # fully symmetric block of n=2, d=3 counts multisets
    assert dim_u(Partition((2, 0, 0))) == 6


def test_dim_v_examples():
    assert dim_v(Partition((6, 0))) == 1
    assert dim_v(Partition((3, 1))) == 3
    assert dim_v(Partition((2, 2))) == 2


def weyl_dimension_over_every_slot(lam: Partition) -> int:
    """dim_u as the product over all slot pairs i < j of
    (lam_i - lam_j + j - i)/(j - i), zero parts included."""
    d = lam.num_parts
    num = den = 1
    for i in range(d):
        for j in range(i + 1, d):
            num *= lam.parts[i] - lam.parts[j] + j - i
            den *= j - i
    return num // den


def test_dim_u_over_the_non_zero_parts_is_the_weyl_formula_over_every_slot():
    for n in range(1, 9):
        for d in range(1, 10):
            for lam in enumerate_partitions(n, d):
                assert dim_u(lam) == weyl_dimension_over_every_slot(lam), str(lam)
    for lam in enumerate_partitions(3, 60) + enumerate_partitions(25, 7):
        assert dim_u(lam) == weyl_dimension_over_every_slot(lam), str(lam)


def test_dims_at_large_d_with_few_boxes():
    # the symmetric and antisymmetric squares, and the one block at n = 1
    d = 1000
    assert dim_u(Partition((2,) + (0,) * (d - 1))) == d * (d + 1) // 2
    assert dim_u(Partition((1, 1) + (0,) * (d - 2))) == d * (d - 1) // 2
    assert dim_u(Partition((1,) + (0,) * (d - 1))) == d
    assert dim_v(Partition((1,) + (0,) * (d - 1))) == 1
    assert dim_v(Partition((2, 1) + (0,) * (d - 2))) == 2


def test_dim_v_matches_hook_lengths():
    for n in range(1, 11):
        for lam in enumerate_partitions(n, min(n, 4)):
            assert dim_v(lam) == hook_length_count(lam.parts), str(lam)


def test_standard_tableaux_examples():
    assert standard_tableaux(Partition((2, 1))) == [(0, 0, 1), (0, 1, 0)]
    assert standard_tableaux(Partition((2, 2, 0))) == [(0, 0, 1, 1), (0, 1, 0, 1)]
    assert standard_tableaux(Partition((3, 0))) == [(0, 0, 0)]


def test_standard_tableaux_are_standard_sorted_and_counted():
    for n in range(1, 9):
        for lam in enumerate_partitions(n, 4):
            words = standard_tableaux(lam)
            assert len(words) == dim_v(lam) and words == sorted(set(words))
            for word in words:
                # every prefix fills the rows as a partition does
                filled = [0] * lam.num_parts
                for row in word:
                    filled[row] += 1
                    assert row == 0 or filled[row] <= filled[row - 1]
                assert tuple(filled) == lam.parts


def test_schur_weyl_completeness():
    for n in range(1, 13):
        for d in (2, 3):
            total = sum(
                dim_u(lam) * dim_v(lam) for lam in enumerate_partitions(n, d)
            )
            assert total == d**n


def test_dim_u_zero_rate_bound():
    for n in range(2, 13):
        for d in (2, 3):
            for lam in enumerate_partitions(n, d):
                assert math.log(dim_u(lam)) <= d * d * math.log(n)


# ---------------------------------------------------------------- characters


def test_character_identity_is_dimension():
    for n in range(1, 9):
        identity = Partition((1,) * n)
        for lam in enumerate_partitions(n, n):
            assert character(lam, identity) == dim_v(lam.padded(n)), str(lam)


def test_character_sign():
    assert character(Partition((1, 1)), Partition((2,))) == -1
    # sign representation: chi_{(1,..,1)}(mu) = product of cycle signs
    for n in range(2, 7):
        sign_lam = Partition((1,) * n)
        for mu in enumerate_partitions(n, n):
            expected = 1
            for c in mu.trimmed():
                expected *= (-1) ** (c - 1)
            assert character(sign_lam, mu) == expected


def test_character_orthogonality_exact():
    for n in range(2, 9):
        lams = enumerate_partitions(n, n)
        fact = math.factorial(n)
        for a in lams:
            for b in lams:
                total = sum(
                    class_size(mu) * character(a, mu) * character(b, mu)
                    for mu in lams
                )
                assert total == (fact if a == b else 0)


def test_character_mismatched_sizes_rejected():
    with pytest.raises(ValueError):
        character(Partition((2, 1)), Partition((2,)))


# ---------------------------------------------------------------- Schur polynomials


def test_schur_polynomial_examples():
    assert schur_polynomials((0.5, 0.5), 2)[Partition((2, 0))] == pytest.approx(0.75, abs=1e-15)
    # a pure reduced state occupies only the one-row block
    for n in range(1, 7):
        for lam, val in schur_polynomials((1.0, 0.0), n).items():
            assert val == pytest.approx(1.0 if lam.parts == (n, 0) else 0.0, abs=1e-15)


def test_schur_polynomial_maximally_mixed():
    for d in (2, 3):
        for n in range(1, 7):
            for lam, val in schur_polynomials((1.0 / d,) * d, n).items():
                assert val == pytest.approx(dim_u(lam) / d**n, rel=1e-12)


def test_schur_polynomial_against_power_sum_oracle():
    for p in [(0.5, 0.5), (0.8, 0.2), (0.5, 0.3, 0.2), (0.4, 0.3, 0.2, 0.1)]:
        d = len(p)
        for n in range(1, 7):
            for lam, val in schur_polynomials(p, n).items():
                assert val == pytest.approx(schur_by_power_sums(lam, p), abs=1e-12)


def test_schur_polynomial_jacobi_trudi_path_matches():
    # d = 4, the size the former Jacobi-Trudi determinant path served;
    # compare with the oracle
    p = (0.4, 0.3, 0.2, 0.1)
    for n in range(1, 6):
        for lam, val in schur_polynomials(p, n).items():
            assert val == pytest.approx(schur_by_power_sums(lam, p), abs=1e-10)


def test_schur_polynomials_cover_every_block_in_order():
    p = (0.5, 0.3, 0.2)
    table = schur_polynomials(p, 7)
    assert list(table) == enumerate_partitions(7, 3)
    # fewer variables than rows: the block is absent, its polynomial is 0
    assert Partition((2, 1, 1)) not in schur_polynomials((0.5, 0.5), 4)


@pytest.mark.parametrize("n, d", [(1, 1), (7, 3), (60, 4), (40, 5)])
def test_block_table_is_the_enumeration_with_exact_dimensions(n, d):
    table = block_table(n, d)
    want = [BlockDims(lam, dim_u(lam), dim_v(lam)) for lam in enumerate_partitions(n, d)]
    assert isinstance(table, tuple) and list(table) == want
    assert all(type(du) is int and type(dv) is int for _, du, dv in table)
    assert block_table(n, d) is table  # memoized


def test_schur_polynomials_memory_at_admitted_sizes():
    # flat arrays for one call beside the plan the first call kept: the
    # spectra benchmark's peak RSS (perfbench/) has little room for a larger
    # table
    p = (0.97, 0.01, 0.01, 0.01)
    schur_polynomials(p, 60)
    tracemalloc.start()
    try:
        schur_polynomials(p, 60)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


# the spectra benchmark's sizes (perfbench/workloads.py), (d, n)
SPECTRA_SIZES = [(2, 30), (2, 60), (2, 100), (3, 12), (3, 20), (3, 28),
                 (4, 20), (4, 40), (4, 60), (5, 20), (5, 30), (5, 40)]
FLAT = {2: (0.55, 0.45), 3: (0.4, 0.33, 0.27), 4: (0.3, 0.26, 0.23, 0.21),
        5: (0.24, 0.22, 0.2, 0.18, 0.16)}
SKEWED = {2: (0.97, 0.03), 3: (0.97, 0.02, 0.01), 4: (0.97, 0.01, 0.01, 0.01),
          5: (0.97, 0.012, 0.008, 0.006, 0.004)}


def _assert_same_bits(p, n):
    got = schur_polynomials(p, n)
    assert list(got) == enumerate_partitions(n, len(p))
    assert list(got.values()) == schur_polynomials_per_last_part(p, n), (p, n)


@pytest.mark.parametrize("d, n", SPECTRA_SIZES)
@pytest.mark.parametrize("spectra", [FLAT, SKEWED], ids=["flat", "skewed"])
def test_one_pass_evaluator_is_the_per_last_part_one_bit_for_bit(spectra, d, n):
    _assert_same_bits(spectra[d], n)


def test_one_pass_evaluator_is_the_per_last_part_one_at_small_sizes():
    for d in range(1, 6):
        for p in (FLAT.get(d, (1.0,)), SKEWED.get(d, (1.0,)), (0.6, 0.4, 0.0, 0.0, 0.0)[:d]):
            for n in range(1, 13):
                _assert_same_bits(p, n)


# the spectra benchmark's evaluations: its sizes and the bound-sweep ladders
PLAN_SIZES = SPECTRA_SIZES + [(2, 20), (2, 40)]


def _assert_planned_bits(p, n):
    """The planned evaluation, from a cold plan and then a warm one, is the
    pointer chase bit for bit."""
    want_size, want = schur_values_by_pointer_chase(p, n)
    partitions._schur_plan.cache_clear()
    for _ in ("cold", "warm"):
        size, got = partitions._schur_values(p, n)
        assert size.tolist() == want_size.tolist()
        assert got.tobytes() == want.tobytes(), (p, n)


@pytest.mark.parametrize("d, n", PLAN_SIZES)
@pytest.mark.parametrize("spectra", [FLAT, SKEWED], ids=["flat", "skewed"])
def test_planned_evaluation_is_the_pointer_chase_bit_for_bit(spectra, d, n):
    _assert_planned_bits(spectra[d], n)


@pytest.mark.parametrize(
    "p, n",
    [
        ((1.0, 0.0, 0.0), 20),  # p1 = 1 with zeros
        ((1.0, 0.0, 0.0, 0.0, 0.0), 12),
        ((0.7, 0.3 - 1e-100, 1e-100, 1e-300), 30),  # x^a underflows
        ((0.6, 1e-300), 60),
        ((1.0,), 50),  # d = 1
        ((0.3,), 7),
        ((0.55, 0.45), 1000),
        ((0.97, 0.03), 1000),
        ((0.4, 0.3, 0.2, 0.1), 2),  # fewer boxes than parts: parts j >= n
        ((0.2,) * 5, 1),
    ],
)
def test_planned_evaluation_is_the_pointer_chase_bit_for_bit_at_the_edges(p, n):
    _assert_planned_bits(p, n)


def test_a_repeat_evaluation_at_the_same_size_reuses_its_plan():
    partitions._schur_plan.cache_clear()
    schur_polynomials(FLAT[4], 40)
    before = partitions._schur_plan.cache_info()
    schur_ladder(SKEWED[4], 40)
    after = partitions._schur_plan.cache_info()
    assert (after.hits, after.misses) == (before.hits + 1, before.misses)


@pytest.mark.parametrize("p, n", [(SKEWED[2], 100), (FLAT[3], 28), (FLAT[4], 40), (SKEWED[5], 20)])
def test_ladder_entry_m_is_schur_polynomials_at_m(p, n):
    ladder = schur_ladder(p, n)
    assert len(ladder) == n + 1 and ladder[0] == [1.0]
    for m in range(1, n + 1):
        assert ladder[m] == list(schur_polynomials(p, m).values()), m  # bit for bit


def test_schur_evaluation_beyond_the_byte_budget_is_refused():
    # d = 2, n = 10^5 lays out about 2.5e9 rows of two parts
    with pytest.raises(ValueError, match="Schur evaluation at n=100000, d=2 needs"):
        schur_ladder((0.6, 0.4), 10**5)


def test_weight_normalization():
    for p in [(0.5, 0.5), (0.9, 0.1), (0.5, 0.3, 0.2), (1.0, 0.0)]:
        d = len(p)
        for n in range(1, 13):
            total = sum(dim_v(lam) * s for lam, s in schur_polynomials(p, n).items())
            assert total == pytest.approx(1.0, abs=1e-10)


# ---------------------------------------------------------------- appendix bounds


def test_entropy_bound_example():
    lhs, rhs, holds = entropy_bound_check(Partition((3, 1)))
    assert lhs == pytest.approx(abs(math.log(3) / 4 - shannon_entropy((0.75, 0.25))), abs=1e-12)
    assert rhs == pytest.approx(math.log(6), abs=1e-12)
    assert holds


def test_entropy_bound_one_row():
    for n in (2, 5, 9):
        lhs, rhs, holds = entropy_bound_check(Partition((n,)))
        assert lhs == pytest.approx(0.0, abs=1e-12)
        assert holds


def test_entropy_bound_sweep():
    for n in range(1, 13):
        for d in (2, 3):
            for lam in enumerate_partitions(n, d):
                _, _, holds = entropy_bound_check(lam)
                assert holds, str(lam)


def test_large_deviation_full_region():
    for n in range(1, 13):
        lhs, rhs, holds = large_deviation_bound((0.5, 0.5), lambda q: True, n)
        assert lhs == pytest.approx(1.0, abs=1e-10)
        assert rhs >= 1.0
        assert holds


def test_large_deviation_tail_region():
    lhs, rhs, holds = large_deviation_bound(
        (0.9, 0.1), lambda q: q[0] <= 0.5, 12
    )
    assert holds
    assert lhs < rhs
    # direct evaluation: only (6,6)/12 lies in the region
    expected_lhs = dim_v(Partition((6, 6))) * schur_polynomials((0.9, 0.1), 12)[Partition((6, 6))]
    assert lhs == pytest.approx(expected_lhs, rel=1e-12)
    div = relative_entropy((0.5, 0.5), (0.9, 0.1))
    assert rhs == pytest.approx(13**3 * math.exp(-12 * div), rel=1e-12)


def test_large_deviation_skewed_d4_n60():
    p = (0.97, 0.01, 0.01, 0.01)
    lhs, _, _ = large_deviation_bound(p, lambda q: True, 60)
    assert lhs == pytest.approx(1.0, abs=1e-9)
    far = lambda q: max(abs(a - b) for a, b in zip(q, p)) >= 0.1
    lhs, rhs, holds = large_deviation_bound(p, far, 60)
    assert 0.0 <= lhs <= 1.0
    assert holds and lhs <= rhs


def test_large_deviation_beyond_float_range_names_n():
    # dim_v of the middle blocks at n=1100 is above the largest float
    with pytest.raises(ValueError, match="n=1100 is beyond the float range"):
        large_deviation_bound((0.6, 0.4), lambda q: True, 1100)


@pytest.mark.parametrize("value", [-1e-6, 0.5, math.nan])
def test_large_deviation_rejects_a_non_distribution(monkeypatch, value):
    def broken(p, n):
        return np.full(len(enumerate_partitions(n, len(p))), value)

    monkeypatch.setattr(partitions, "schur_array", broken)
    with pytest.raises(ValueError, match="not a distribution"):
        large_deviation_bound((0.8, 0.2), lambda q: q[0] < 0.7, 4)


def test_large_deviation_empty_region():
    lhs, rhs, holds = large_deviation_bound((0.5, 0.5), lambda q: False, 6)
    assert lhs == 0.0 and holds


def test_large_deviation_reads_each_simplex_point_once(monkeypatch):
    calls = []
    normalized = Partition.normalized

    def counted(lam):
        calls.append(lam)
        return normalized(lam)

    monkeypatch.setattr(Partition, "normalized", counted)
    p = (0.4, 0.3, 0.2, 0.1)
    far = lambda q: abs(q[0] - p[0]) >= 0.1
    block_table.cache_clear()
    cold = large_deviation_bound(p, far, 60)
    blocks = sorted(enumerate_partitions(60, 4), key=lambda lam: lam.parts)
    assert sorted(calls, key=lambda lam: lam.parts) == blocks  # once per memo fill
    assert large_deviation_bound(p, far, 60) == cold
    assert len(calls) == len(blocks)  # and not at all on a warm call


# d = 2 to 6, with the d >= 4 large-n sizes of the spectra benchmark
ARRAY_ROUTE = [
    ((0.55, 0.45), 100), ((0.97, 0.03), 100), ((0.4, 0.33, 0.27), 40),
    ((0.97, 0.02, 0.01), 40), ((0.4, 0.3, 0.2, 0.1), 60), (SKEWED[4], 60),
    ((0.3, 0.25, 0.2, 0.15, 0.1), 40), (SKEWED[5], 40),
    ((0.2, 0.18, 0.17, 0.16, 0.15, 0.14), 20), ((0.95, 0.02, 0.012, 0.008, 0.006, 0.004), 20),
]


@pytest.mark.parametrize("p, n", ARRAY_ROUTE)
def test_the_array_route_is_the_dict_route_bit_for_bit(p, n):
    weights = weights_analytic(p, n)
    want = weights_by_dict(p, n)
    assert list(weights) == list(want)
    assert list(weights.values()) == list(want.values())  # ==, not a tolerance
    fidelities = ideal_fidelities_by_dict(p, n)
    assert ideal_fidelity(p, n) == fidelities[n]
    assert ideal_fidelities(p, n) == fidelities
    for region in (lambda q: max(abs(a - b) for a, b in zip(q, p)) >= 0.1,
                   lambda q: q[0] <= 0.5, lambda q: True):
        assert large_deviation_bound(p, region, n) == large_deviation_bound_by_dict(p, region, n)
