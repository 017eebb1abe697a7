"""Combinatorics of Young indices.

Enumeration of partitions, irreducible-representation dimensions for the
unitary and symmetric groups, symmetric-group characters via the
Murnaghan-Nakayama rule, Schur polynomial evaluation by the
subtraction-free branching rule, and the entropy / large-deviation bounds
used by the block-weight analysis.

All combinatorial quantities are computed in exact integer arithmetic
(Python integers are unbounded, so the dimension formulas never overflow).
Entropies and divergences are in nats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np

from .states import check_bytes

_SPECTRUM_TOL = 1e-12


@dataclass(frozen=True)
class Partition:
    """A Young index: non-increasing non-negative parts summing to n.

    Trailing zeros are kept explicit; ``len(parts)`` is the number of slots
    d, which for unitary-group dimensions means the number of tensor-factor
    levels.
    """

    parts: tuple[int, ...]

    def __post_init__(self):
        parts = tuple(int(p) for p in self.parts)
        object.__setattr__(self, "parts", parts)
        if not parts:
            raise ValueError("partition needs at least one part")
        if any(p < 0 for p in parts):
            raise ValueError(f"negative part in {parts}")
        if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
            raise ValueError(f"parts not non-increasing: {parts}")
        if sum(parts) < 1:
            raise ValueError("partition of 0 is not supported")

    @property
    def n(self) -> int:
        return sum(self.parts)

    @property
    def num_parts(self) -> int:
        """Number of slots d, trailing zeros included."""
        return len(self.parts)

    def trimmed(self) -> tuple[int, ...]:
        """Parts with trailing zeros removed."""
        return tuple(p for p in self.parts if p > 0)

    def padded(self, d: int) -> "Partition":
        if d < len(self.trimmed()):
            raise ValueError(f"cannot pad {self.parts} to {d} parts")
        return Partition(self.trimmed() + (0,) * (d - len(self.trimmed())))

    def normalized(self) -> tuple[float, ...]:
        """The point lambda/n on the probability simplex."""
        n = self.n
        return tuple(p / n for p in self.parts)

    def __str__(self) -> str:
        return "(" + ",".join(str(p) for p in self.parts) + ")"


def enumerate_partitions(n: int, d: int) -> list[Partition]:
    """All partitions of n with at most d parts, zero-padded to length d.

    Returned in decreasing lexicographic order, e.g. (4,2) ->
    [(4,0), (3,1), (2,2)]. Each is built without re-validation
    (``_trusted``) and afresh on every call: nothing is cached.
    """
    if n < 1 or d < 1:
        raise ValueError("n and d must be positive")
    out: list[Partition] = []
    _fill(out, (), n, d, n)
    return out


def _trusted(parts: tuple[int, ...]) -> Partition:
    """A ``Partition`` of parts known to be valid, without ``__post_init__``:
    non-increasing Python ints summing to n >= 1, as ``_fill`` builds them."""
    lam = object.__new__(Partition)
    object.__setattr__(lam, "parts", parts)
    return lam


def _fill(
    out: list[Partition], prefix: tuple[int, ...], remaining: int, slots: int, cap: int
):
    # Module level, not a closure: a recursive closure is a reference cycle
    # that would keep ``out`` alive until the cyclic garbage collector runs.
    if slots == 1:
        # the last part is forced, and the parent's floor keeps it <= cap
        out.append(_trusted(prefix + (remaining,)))
        return
    lo = -(-remaining // slots)  # ceil: keep parts non-increasing feasible
    for p in range(min(cap, remaining), lo - 1, -1):
        _fill(out, prefix + (p,), remaining - p, slots - 1, p)


def dim_u(lam: Partition) -> int:
    """Dimension of the unitary-group irreducible block for lam.

    Uses the Weyl dimension formula with l_i = lam_i + d - i over the d
    explicit slots of lam; exact integer arithmetic.
    """
    d = lam.num_parts
    ls = [lam.parts[i] + d - 1 - i for i in range(d)]
    num = 1
    for i in range(d):
        for j in range(i + 1, d):
            num *= ls[i] - ls[j]
    den = 1
    for i in range(1, d):
        den *= math.factorial(d - i)
    q, r = divmod(num, den)
    assert r == 0, f"non-integer dimension for {lam}"
    return q


def dim_v(lam: Partition) -> int:
    """Dimension of the symmetric-group irreducible block (number of
    standard tableaux of shape lam); exact integer arithmetic."""
    d = lam.num_parts
    n = lam.n
    ls = [lam.parts[i] + d - 1 - i for i in range(d)]
    num = math.factorial(n)
    diffs = 1
    for i in range(d):
        for j in range(i + 1, d):
            diffs *= ls[i] - ls[j]
    den = 1
    for l in ls:
        den *= math.factorial(l)
    q, r = divmod(num * diffs, den)
    assert r == 0, f"non-integer dimension for {lam}"
    return q


class BlockDims(NamedTuple):
    """One block of (C^d)^{(x)n}: its Young index and exact dimensions."""

    lam: Partition
    dim_u: int
    dim_v: int


def block_rows(n: int, d: int) -> tuple[BlockDims, ...]:
    """Every block of (C^d)^{(x)n} in ``enumerate_partitions(n, d)`` order,
    with its exact ``dim_u`` and ``dim_v``, built afresh on each call. A
    caller that reads each (n, d) once, such as a sweep over n, reads this
    rather than ``block_table``, and so evicts no table that other queries
    reuse."""
    return tuple(BlockDims(lam, dim_u(lam), dim_v(lam)) for lam in enumerate_partitions(n, d))


@lru_cache(maxsize=32)
def block_table(n: int, d: int) -> tuple[BlockDims, ...]:
    """``block_rows(n, d)``, memoized per (n, d), like
    ``schur_weyl.schur_basis``. The table depends only on (n, d), so every
    spectrum query and basis of that size reads the same one."""
    return block_rows(n, d)


def standard_tableaux(lam: Partition) -> list[tuple[int, ...]]:
    """The dim_v(lam) standard tableaux of shape lam as Yamanouchi words.

    Entry k of a word is the row (from 0) holding letter k + 1. Words come
    in lexicographic order, so the first is the row-reading tableau.
    """
    out: list[tuple[int, ...]] = []
    _grow_words(out, (), [0] * lam.num_parts, lam.parts)
    return out


def _grow_words(
    out: list[tuple[int, ...]],
    word: tuple[int, ...],
    filled: list[int],
    parts: tuple[int, ...],
):
    if len(word) == sum(parts):
        out.append(word)
        return
    for row, cap in enumerate(parts):
        if filled[row] < cap and (row == 0 or filled[row] < filled[row - 1]):
            filled[row] += 1
            _grow_words(out, word + (row,), filled, parts)
            filled[row] -= 1


def class_size(mu: Partition) -> int:
    """Size of the conjugacy class with cycle type mu: n!/z_mu."""
    n = mu.n
    z = 1
    counts: dict[int, int] = {}
    for p in mu.trimmed():
        counts[p] = counts.get(p, 0) + 1
    for length, mult in counts.items():
        z *= length**mult * math.factorial(mult)
    return math.factorial(n) // z


@lru_cache(maxsize=None)
def _mn_character(lam: tuple[int, ...], mu: tuple[int, ...]) -> int:
    """Murnaghan-Nakayama recursion on trimmed shapes.

    Works on first-column hook lengths (beta numbers): removing a border
    strip of length k replaces some beta number b with b - k, provided
    b - k >= 0 and b - k is not already a beta number; the sign is (-1)
    to the number of beta numbers strictly between b - k and b.
    """
    if not lam and not mu:
        return 1
    if not lam or not mu:
        return 0
    k = mu[0]
    rest = mu[1:]
    m = len(lam)
    betas = [lam[i] + m - 1 - i for i in range(m)]
    beta_set = set(betas)
    total = 0
    for idx, b in enumerate(betas):
        nb = b - k
        if nb < 0 or nb in beta_set:
            continue
        new_betas = sorted(betas, reverse=True)
        new_betas.remove(b)
        new_betas.append(nb)
        new_betas.sort(reverse=True)
        height = sum(1 for c in betas if nb < c < b)
        new_lam = tuple(new_betas[i] - (m - 1 - i) for i in range(m))
        new_lam = tuple(p for p in new_lam if p > 0)
        total += (-1) ** height * _mn_character(new_lam, rest)
    return total


def character(lam: Partition, mu: Partition) -> int:
    """Symmetric-group character chi_lam evaluated on cycle type mu."""
    if lam.n != mu.n:
        raise ValueError(f"sizes differ: {lam} vs {mu}")
    mu_sorted = tuple(sorted(mu.trimmed(), reverse=True))
    return _mn_character(lam.trimmed(), mu_sorted)


def _schur_values(p: Sequence[float], n: int) -> tuple[np.ndarray, np.ndarray]:
    """The sizes and Schur polynomials s_t(p) of every non-increasing
    d-tuple t with |t| <= n, d = len(p), in increasing lexicographic order.

    Branching rule (Macdonald, Symmetric Functions and Hall Polynomials,
    ch. I): s_lam(x_1..x_k) is the sum of s_mu(x_1..x_{k-1}) x_k^{|lam|-|mu|}
    over the mu interlacing lam. The rows (mu, a) of every k-tuple start at
    s_mu times x_k^a, and the values are carried to lam one part at a time,
    last part first: replacing mu_j by lam_j >= mu_j is U[t] += x_k U[t - e_j]
    in increasing t_j wherever t_j > t_{j+1} (t_{k-1} > a for the last part
    of mu), one doubling scan over all rows per part. For p >= 0 every term
    is a product of non-negative numbers, so nothing cancels (Demmel & Koev,
    Math. Comp. 75 (2006)). A row's value depends only on the rows below it,
    so it is the same bits whatever n is.
    """
    if n < 1 or len(p) < 1:
        raise ValueError("n and d must be positive")
    d = len(p)
    # Row r for k - 1 variables is the r-th non-increasing (k-1)-tuple mu
    # with |mu| <= n in increasing lexicographic order: its size, last part
    # and value, and per part of mu but its last the row of mu less one box
    # in that part (-1: none). The empty tuple's "last part" n caps the
    # first part.
    size, last, table, pred = np.zeros(1, int), np.full(1, n), np.ones(1), []
    for k, x in enumerate(map(float, p), 1):
        count = np.minimum(n - size, last) + 1  # the last parts a that fit
        # the last level's rows set the peak, at most 8 (d + 5) bytes each
        check_bytes(8 * (d + 5) * int(count.sum()), f"Schur evaluation at n={n}, d={d}")
        count = count.astype(np.int32)
        start = np.cumsum(count, dtype=np.int32) - count
        rows = np.repeat(np.arange(len(count), dtype=np.int32), count)
        a = np.arange(len(rows), dtype=np.int32) - start[rows]  # the rows (mu, a)
        u = table[rows]
        u *= np.array([x**j for j in range(count.max())])[a]
        # mu less one box in its last part is the row before mu (the empty
        # tuple has no part)
        below = np.where(last > 0, np.arange(len(last), dtype=np.int32) - 1, -1)
        lifted = []
        for q in reversed(pred + [below] if k > 1 else []):
            # the step from (mu, a) to (q[mu], a), where that row exists
            q = q[rows]
            step = np.where((q >= 0) & (a < count[q]), start[q] + a, -1)
            del q  # one step array at a time: the peak is at the last level
            if k < d:
                lifted.append(step)
                step = step.copy()
            _doubling_scan(u, step, x)
        size, last, table, pred = size[rows] + a, a, u, lifted[::-1]
    return size, table


def _doubling_scan(u: np.ndarray, step: np.ndarray, x: float) -> None:
    """u[r] += x u[step[r]] along each chain of ``step`` (-1 ends a chain),
    in increasing chain order, by pointer doubling; ``step`` is consumed."""
    weight, live = x, np.flatnonzero(step >= 0).astype(np.int32)
    prev = step[live]
    while len(live):
        term = u[prev]
        term *= weight
        term += u[live]
        u[live] = term
        prev = step[prev]  # read before any row of step moves on
        step[live] = prev
        keep = prev >= 0
        live, prev = live[keep], prev[keep]
        weight *= weight


def schur_polynomials(p: Sequence[float], n: int) -> dict[Partition, float]:
    """Schur polynomials s_lam(p) of every partition lam of n with at most
    d = len(p) parts, keyed as in ``block_table(n, d)``, in its order: the
    size-n slice of one evaluation (``_schur_values``)."""
    size, values = _schur_values(p, n)
    # the tuples of size n, reversed, are in enumeration order
    top = values[size == n][::-1]
    return dict(zip((row.lam for row in block_table(n, len(p))), top.tolist()))


def schur_ladder(p: Sequence[float], n: int) -> list[list[float]]:
    """The Schur polynomials of every size m <= n from one evaluation: entry
    m lists s_lam(p) over ``block_table(m, d)`` in its order, bit for bit
    ``schur_polynomials(p, m)``; entry 0 is the empty partition's 1. Reads
    no block table."""
    size, values = _schur_values(p, n)
    size, values = size[::-1], values[::-1]
    order = np.argsort(size, kind="stable")  # by size, in enumeration order
    bounds = np.cumsum(np.bincount(size, minlength=n + 1))[:-1]
    return [part.tolist() for part in np.split(values[order], bounds)]


def require_distribution(weights: dict[Partition, float], what: str) -> dict:
    """The weights, unless one is below -1e-12 or their fsum is more than
    1e-9 from 1 (or either is NaN): then ValueError."""
    total, low = math.fsum(weights.values()), min(weights.values())
    if not (low >= -1e-12 and abs(total - 1.0) <= 1e-9):
        raise ValueError(
            f"block weights of {what} are not a distribution: "
            f"sum {total!r}, min {low!r}"
        )
    return weights


def block_weights(
    p: Sequence[float], n: int, table: Sequence[BlockDims], values: Iterable[float]
) -> dict[Partition, float]:
    """Block weights q_lam = dim_v(lam) * s_lam(p) at size n, from the rows
    of ``block_table(n, d)`` and the Schur values in its order. Raises
    ValueError when a dim_v is beyond the float range, and unless the
    weights are non-negative and sum to 1 (``require_distribution``)."""
    try:
        weights = {lam: dv * s for (lam, _, dv), s in zip(table, values)}
    except OverflowError as exc:
        raise ValueError(f"a dim_v at n={n} is beyond the float range") from exc
    return require_distribution(weights, f"{tuple(p)} at n={n}")


def as_spectrum(values: Iterable[float]) -> tuple[float, ...]:
    """Validate a Schmidt-coefficient spectrum: non-increasing, sums to 1.
    An entry admitted below 0 (within 1e-12) is returned as 0.0."""
    vec = tuple(float(v) for v in values)
    if not vec:
        raise ValueError("empty spectrum")
    # every check is written so that a NaN entry fails it
    if not all(-_SPECTRUM_TOL <= v <= 1 + _SPECTRUM_TOL for v in vec):
        raise ValueError(f"entries outside [0,1]: {vec}")
    if any(vec[i] < vec[i + 1] - _SPECTRUM_TOL for i in range(len(vec) - 1)):
        raise ValueError(f"spectrum not sorted non-increasing: {vec}")
    if not abs(sum(vec) - 1.0) <= _SPECTRUM_TOL:
        raise ValueError(f"spectrum sums to {sum(vec)}, not 1")
    return tuple(v if v > 0.0 else 0.0 for v in vec)


def shannon_entropy(q: Sequence[float]) -> float:
    """Shannon entropy in nats, with 0 log 0 = 0."""
    return -sum(x * math.log(x) for x in q if x > 0.0)


def relative_entropy(q: Sequence[float], p: Sequence[float]) -> float:
    """KL divergence D(q||p) in nats; +inf when q charges a null atom of p."""
    total = 0.0
    for qi, pi in zip(q, p):
        if qi <= 0.0:
            continue
        if pi <= 0.0:
            return math.inf
        total += qi * math.log(qi / pi)
    return total


def entropy_bound_check(lam: Partition) -> tuple[float, float, bool]:
    """Check |log(dim_v)/n - H(lam/n)| <= (d^2+2d)/(2n) * log(n+d).

    Returns (lhs, rhs, holds).
    """
    n = lam.n
    d = lam.num_parts
    lhs = abs(math.log(dim_v(lam)) / n - shannon_entropy(lam.normalized()))
    rhs = (d * d + 2 * d) / (2 * n) * math.log(n + d)
    return lhs, rhs, lhs <= rhs


def large_deviation_bound(
    p: Sequence[float],
    region: Callable[[tuple[float, ...]], bool],
    n: int,
) -> tuple[float, float, bool]:
    """Check the exponential bound on the total weight of a block region.

    lhs is the summed weight dim_v * s_lam(p) over partitions whose
    normalized point lam/n lies in ``region``; rhs is
    (n+1)^{d(d+1)/2} * exp(-n * min D(lam/n || p)) with the minimum over the
    realized points in the region (discrete form). Returns (lhs, rhs, holds).
    """
    spectrum = as_spectrum(p)
    d = len(spectrum)
    values = schur_polynomials(spectrum, n).values()  # in block_table order
    weights = block_weights(spectrum, n, block_table(n, d), values)
    points = ((lam.normalized(), q) for lam, q in weights.items())  # one per block
    members = [(point, q) for point, q in points if region(point)]
    if not members:
        return 0.0, 0.0, True
    lhs = sum(q for _, q in members)
    min_div = min(relative_entropy(point, spectrum) for point, _ in members)
    rhs = (n + 1) ** (d * (d + 1) / 2) * math.exp(-n * min_div)
    return lhs, rhs, lhs <= rhs
