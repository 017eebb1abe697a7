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
    [(4,0), (3,1), (2,2)].
    """
    if n < 1 or d < 1:
        raise ValueError("n and d must be positive")
    out: list[Partition] = []
    _fill(out, [], n, d, n)
    return out


def _fill(
    out: list[Partition], prefix: list[int], remaining: int, slots: int, cap: int
):
    # Module level, not a closure: a recursive closure is a reference cycle
    # that would keep ``out`` alive until the cyclic garbage collector runs.
    if slots == 0:
        if remaining == 0:
            out.append(Partition(tuple(prefix)))
        return
    lo = -(-remaining // slots)  # ceil: keep parts non-increasing feasible
    for p in range(min(cap, remaining), lo - 1, -1):
        _fill(out, prefix + [p], remaining - p, slots - 1, p)


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


@lru_cache(maxsize=32)
def block_table(n: int, d: int) -> tuple[BlockDims, ...]:
    """Every block of (C^d)^{(x)n} in ``enumerate_partitions(n, d)`` order,
    with its exact ``dim_u`` and ``dim_v``; memoized per (n, d), like
    ``schur_weyl.schur_basis``. The table depends only on (n, d), so every
    spectrum query and basis of that size reads the same one."""
    return tuple(BlockDims(lam, dim_u(lam), dim_v(lam)) for lam in enumerate_partitions(n, d))


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


def cycle_type(sigma: Sequence[int]) -> Partition:
    """Cycle type of a permutation in one-line notation, as a partition."""
    n = len(sigma)
    seen = [False] * n
    lengths = []
    for start in range(n):
        if seen[start]:
            continue
        length = 0
        k = start
        while not seen[k]:
            seen[k] = True
            k = sigma[k]
            length += 1
        lengths.append(length)
    lengths.sort(reverse=True)
    return Partition(tuple(lengths))


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


def schur_polynomials(p: Sequence[float], n: int) -> dict[Partition, float]:
    """Schur polynomials s_lam(p) of every partition lam of n with at most
    d = len(p) parts, keyed as in ``enumerate_partitions(n, d)``.

    Branching rule (Macdonald, Symmetric Functions and Hall Polynomials,
    ch. I): s_lam(x_1..x_k) is the sum of s_mu(x_1..x_{k-1}) x_k^{|lam|-|mu|}
    over the mu interlacing lam. For each last part a of lam, the values of
    mu times x_k^a are carried to lam one part at a time, last part first:
    replacing mu_j by lam_j >= mu_j is U[t] += x_k U[t - e_j] in increasing
    t_j wherever t_j > t_{j+1} (t_{k-1} > a for the last part of mu). For
    p >= 0 every term is a product of non-negative numbers, so nothing
    cancels (Demmel & Koev, Math. Comp. 75 (2006)). The work arrays are flat,
    sized by the tuples of d - 1 parts, and no call retains them. The keys
    are the partitions of ``block_table(n, d)``, in its order.
    """
    if n < 1 or len(p) < 1:
        raise ValueError("n and d must be positive")
    # Row r for k - 1 variables is the r-th non-increasing (k-1)-tuple mu
    # with |mu| <= n in increasing lexicographic order: its size, last part
    # and value, and per part j < k - 1 the row of mu - e_j (-1: none;
    # lookups through a -1 are masked out). The empty tuple's "last part" n
    # caps the first part.
    size, last, table, pred = np.zeros(1, int), np.full(1, n), np.ones(1), []
    for k, x in enumerate(map(float, p), 1):
        count = np.minimum(n - size, last) + 1  # the last parts a that fit
        start = np.cumsum(count) - count
        below = np.arange(len(last)) - 1  # the row of mu - e_{k-1}
        values = np.zeros(count.sum())  # the k-tuples (mu, a), in order
        for a in range(count.max()):
            # (mu, a) exists where a fits, and such rows read only such rows
            u, fits = table * x**a, count > a
            for step in reversed(pred + [np.where(last > a, below, -1)]):
                step, weight = step.copy(), x  # a doubling scan along chains
                live = np.flatnonzero((step >= 0) & fits)
                while len(live):
                    u[live] += weight * u[step[live]]
                    step[live] = step[step[live]]
                    live = live[step[live] >= 0]
                    weight *= weight
            values[start[fits] + a] = u[fits]
        if k == len(p):
            # the tuples of size n, reversed, are in enumeration order
            top = values[(start + count - 1)[n - size <= last]][::-1]
            return dict(zip((row.lam for row in block_table(n, k)), top.tolist()))
        rows = np.repeat(np.arange(len(count)), count)
        a = np.arange(len(rows)) - start[rows]  # the rows (mu, a) of k parts
        pred = [q[rows] for q in pred + [np.where(last > 0, below, -1)]]
        pred = [np.where((q >= 0) & (a < count[q]), start[q] + a, -1) for q in pred]
        size, last, table = size[rows] + a, a, values


def schur_polynomial(lam: Partition, p: Sequence[float]) -> float:
    """Evaluate the Schur polynomial s_lam at the point p.

    For probability vectors p this is the per-copy block weight divided by
    the symmetric-group dimension. A lookup into ``schur_polynomials``.
    """
    d = len(p)
    if len(lam.trimmed()) > d:
        return 0.0
    return schur_polynomials(p, lam.n)[lam.padded(d)]


def as_spectrum(values: Iterable[float]) -> tuple[float, ...]:
    """Validate a Schmidt-coefficient spectrum: non-increasing, sums to 1."""
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
    return vec


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
    members = [
        (lam, dv * s)
        for (lam, _, dv), s in zip(block_table(n, d), values)
        if region(lam.normalized())
    ]
    if not members:
        return 0.0, 0.0, True
    lhs = sum(q for _, q in members)
    min_div = min(relative_entropy(lam.normalized(), spectrum) for lam, _ in members)
    rhs = (n + 1) ** (d * (d + 1) / 2) * math.exp(-n * min_div)
    return lhs, rhs, lhs <= rhs
