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
from functools import cached_property, lru_cache
from itertools import accumulate
from operator import mul
from typing import Callable, Collection, Iterable, NamedTuple, Sequence

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
    (``_trusted``) and afresh on every call: nothing is cached. The
    prefixes are walked depth first from an explicit stack, not by
    recursion, so d is not bounded by the recursion limit.
    """
    if n < 1 or d < 1:
        raise ValueError("n and d must be positive")
    if d == 1:
        return [_trusted((n,))]
    out: list[Partition] = []
    # (prefix, boxes left, slots left, cap on the next part), depth first
    stack = [((), n, d, n)]
    while stack:
        prefix, rest, slots, cap = stack.pop()
        lo = -(-rest // slots)  # ceil: keep parts non-increasing feasible
        top = min(cap, rest)
        if slots == 2:  # the last part is forced, and lo keeps it <= p
            out.extend([_trusted(prefix + (p, rest - p)) for p in range(top, lo - 1, -1)])
        else:  # pushed smallest first, so the largest part is taken first
            stack.extend([(prefix + (p,), rest - p, slots - 1, p) for p in range(lo, top + 1)])
    return out


def _trusted(parts: tuple[int, ...]) -> Partition:
    """A ``Partition`` of parts known to be valid, without ``__post_init__``:
    non-increasing Python ints summing to n >= 1, as
    ``enumerate_partitions`` builds them."""
    lam = object.__new__(Partition)
    object.__setattr__(lam, "parts", parts)
    return lam


def dim_u(lam: Partition) -> int:
    """Dimension of the unitary-group irreducible block for lam.

    The Weyl dimension formula, the product over slot pairs i < j of
    (lam_i - lam_j + j - i)/(j - i) over the d explicit slots of lam, in
    exact integers. Pairs of two zero parts give 1, and the pairs of a
    non-zero part i with the z = d - l zero slots, l the non-zero parts,
    give C(lam_i + d - 1 - i, z) / C(d - 1 - i, z); so the work is O(l^2),
    not O(d^2).
    """
    parts = lam.parts if lam.parts[-1] else lam.trimmed()
    zeros = lam.num_parts - len(parts)
    num = den = 1
    for i, part in enumerate(parts):
        for j in range(i + 1, len(parts)):
            num *= part - parts[j] + j - i
            den *= j - i
        if zeros:
            slots = lam.num_parts - 1 - i
            num *= math.comb(part + slots, zeros)
            den *= math.comb(slots, zeros)
    q, r = divmod(num, den)
    assert r == 0, f"non-integer dimension for {lam}"
    return q


def dim_v(lam: Partition) -> int:
    """Dimension of the symmetric-group irreducible block (number of
    standard tableaux of shape lam); exact integer arithmetic over the
    non-zero parts, since trailing zeros do not change it."""
    return _dim_v(lam, math.factorial)


def _dim_v(lam: Partition, factorial: Callable[[int], int]) -> int:
    """``dim_v(lam)`` by the hook-length formula in its beta-number form,
    n! prod_{i<j} (l_i - l_j) / prod_i l_i!, l_i = lam_i + k - 1 - i over
    the k non-zero parts, with m! read from ``factorial(m)``: a table build
    passes one table of factorials up to n + k - 1 for all its blocks."""
    parts = lam.parts if lam.parts[-1] else lam.trimmed()
    k = len(parts)
    ls = [parts[i] + k - 1 - i for i in range(k)]
    num = factorial(sum(parts))
    for i in range(k):
        for j in range(i + 1, k):
            num *= ls[i] - ls[j]
    den = 1
    for l in ls:
        den *= factorial(l)
    q, r = divmod(num, den)
    assert r == 0, f"non-integer dimension for {lam}"
    return q


class BlockDims(NamedTuple):
    """One block of (C^d)^{(x)n}: its Young index and exact dimensions."""

    lam: Partition
    dim_u: int
    dim_v: int


class BlockTable(tuple):
    """The blocks of (C^d)^{(x)n} as ``BlockDims`` rows, in enumeration
    order, with per-block columns that depend on (n, d) alone. Each column
    is built on its first read and then kept with the table, so the
    memoized ``block_table`` holds them for every later query of its size.
    """

    @cached_property
    def float_dim_v(self) -> np.ndarray:
        """dim_v as float64; ValueError when one is beyond the float range
        (nothing is kept then)."""
        try:
            return np.array([float(dv) for _, _, dv in self])
        except OverflowError as exc:
            raise ValueError(f"a dim_v at n={self[0].lam.n} is beyond the float range") from exc

    @cached_property
    def retained(self) -> np.ndarray:
        """The boolean mask of the blocks with dim_u <= dim_v, the ones the
        transfer protocol keeps."""
        return np.array([du <= dv for _, du, dv in self], dtype=bool)

    @cached_property
    def offsets(self) -> np.ndarray:
        """Where each block's u rows start in ``contents``, and K = sum
        dim_u after the last: block i holds rows offsets[i] to
        offsets[i + 1]."""
        return np.cumsum([0] + [du for _, du, _ in self])

    @cached_property
    def labels(self) -> str:
        """Each block's label, ``str(lam)`` as the CLI prints it, one line
        each: a caller splits the one string, which holds them in about a
        fifth of the bytes of a tuple of strings."""
        return "\n".join([str(lam) for lam, _, _ in self])

    @cached_property
    def points(self) -> np.ndarray:
        """Each block's point lam/n on the simplex (``Partition.normalized``),
        one row per block."""
        return np.array([lam.normalized() for lam, _, _ in self])

    @cached_property
    def contents(self) -> np.ndarray:
        """The letter counts of every u index of every block: a (K, d) array,
        K = sum dim_u, blocks in table order, each block's dim_u rows by
        torus weight, highest first (decreasing lexicographic order of the
        counts), in the smallest unsigned type that holds n.

        A u index is a Gelfand-Tsetlin pattern lam = lam^(d), lam^(d-1),
        ..., lam^(1), each lam^(k - 1) interlacing lam^(k) (Gelfand &
        Tsetlin, 1950); letter k - 1 occurs |lam^(k)| - |lam^(k-1)| times.
        The patterns are grown one level at a time, every block at once, no
        string of n letters being formed. Each level's rows are put in
        stable order of (block, -|lam^(k-1)|), so that after the last level
        the rows are in order of block, then of |lam^(1)|, |lam^(2)|, ...
        decreasing, which is the order of the counts. RuntimeError when a
        block's pattern count is not its dim_u."""
        n, d = self[0].lam.n, self[0].lam.num_parts
        small = np.min_scalar_type(n)
        width = min(n, d)  # the parts that can be non-zero
        shape = np.array([lam.parts[:width] for lam, _, _ in self], dtype=np.int64)
        block = np.arange(len(self))
        parents, sizes = [], [np.full(len(self), n, dtype=small)]  # level d, d - 1, ..., 1
        for k in range(d - 1, 0, -1):
            # lam^(k) interlaces lam^(k + 1): part i in [lam_(i+1), lam_i]
            # for i < k, parts at or past width being 0
            m = min(k, width)
            lo = np.zeros((len(shape), m), dtype=np.int64)
            lo[:, : min(m, width - 1)] = shape[:, 1 : m + 1]
            choices = shape[:, :m] - lo + 1
            count = choices.prod(axis=1)
            parent = np.repeat(np.arange(len(shape)), count)
            offset = np.arange(len(parent)) - np.repeat(np.cumsum(count) - count, count)
            child = np.zeros((len(parent), width), dtype=np.int64)
            for i in range(m):  # a mixed-radix count over the free parts
                child[:, i] = lo[parent, i] + offset % choices[parent, i]
                offset //= choices[parent, i]
            size = child.sum(axis=1)
            order = np.argsort(block[parent] * (n + 1) + (n - size), kind="stable")
            parent = parent[order]
            shape, block = child[order], block[parent]
            parents.append(parent)
            sizes.append(size[order].astype(small))
        # back up each final row's chain: letter k - 1 counts |lam^(k)| - |lam^(k-1)|
        out = np.empty((len(shape), d), dtype=small)
        row = np.arange(len(shape))
        below = out[:, 0] = sizes[-1]
        for k in range(1, d):
            row = parents[-k][row]
            above = sizes[-k - 1][row]
            out[:, k] = above - below
            below = above
        got = np.bincount(block, minlength=len(self)).tolist()
        for (lam, du, _), count in zip(self, got):
            if count != du:
                raise RuntimeError(
                    f"{lam} has {count} Gelfand-Tsetlin patterns on {d} letters, not dim_u = {du}"
                )
        return out


def block_rows(n: int, d: int) -> BlockTable:
    """Every block of (C^d)^{(x)n} in ``enumerate_partitions(n, d)`` order,
    with its exact ``dim_u`` and ``dim_v``, built afresh on each call from
    one table of factorials. A caller that reads each (n, d) once, such as
    a sweep over n, reads this rather than ``block_table``, and so evicts no
    table that other queries reuse."""
    # the largest factorial a block needs is (lam_1 + k - 1)!, k <= min(n, d)
    factorial = list(accumulate(range(1, n + min(n, d)), mul, initial=1)).__getitem__
    return BlockTable(
        BlockDims(lam, dim_u(lam), _dim_v(lam, factorial)) for lam in enumerate_partitions(n, d)
    )


@lru_cache(maxsize=32)
def block_table(n: int, d: int) -> BlockTable:
    """``block_rows(n, d)``, memoized per (n, d) with the columns it builds,
    like ``schur_weyl.schur_basis``. The table depends only on (n, d), so
    every spectrum query and basis of that size reads the same one."""
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


class _SchurPlan(NamedTuple):
    """The index work of ``_schur_values`` at one (n, d) (``_schur_plan``):
    the rows of every scan's chains and their depths, scan after scan in
    two flat arrays; per level, its scans in the order they run, each its
    slice of the two and its doubling rounds; and the bytes one evaluation
    declares, the plan's own included."""

    order: np.ndarray
    depth: np.ndarray
    levels: tuple[tuple[tuple[int, int, int], ...], ...]
    peak: int


@lru_cache(maxsize=32)
def _schur_plan(n: int, d: int) -> _SchurPlan:
    """The scans of ``_schur_values`` at (n, d), memoized per (n, d) like
    ``block_table``: they depend on (n, d) alone, so every spectrum reuses
    them.

    The scan of part j runs along the chains t, t - e_j, t - 2 e_j, ...; the
    depth of a row t, its steps to the chain's head, is t_j - t_{j+1}. A row
    (mu, a) keeps the depth and the head (q, a) it has in the chain of mu at
    the level before, q mu's head; for the last part of mu its depth is
    that part less a, and its head is the row (mu', a), mu' mu with that
    part set to a. So heads and depths carry over from level to level, with
    no walk along a chain. Parts j >= n are 0 in every row and are not
    scanned. Each level is declared to the byte budget before it is laid
    out, with the plan's bytes so far. The rows are kept in the smallest
    unsigned type that holds them, the depths in the smallest that holds n,
    each in one array, so that the plan is a few allocations.
    """
    what = f"Schur evaluation at n={n}, d={d}"
    depth_type = np.min_scalar_type(n)
    size, last = np.zeros(1, np.int32), np.full(1, n, np.int32)
    chains, levels, held, kept = [], [], 0, 0
    orders, depths = [np.empty(0, np.uint8)], [np.empty(0, depth_type)]
    for k in range(1, d + 1):
        count = np.minimum(n - size, last) + 1
        # building or evaluating a level holds at most 8 (d + 6) bytes a row
        # beside the plan so far, and 64 KiB for the headers of its arrays
        rows_bytes = 8 * (d + 6) * int(count.sum()) + 2**16
        check_bytes(held + rows_bytes, what)
        start = np.cumsum(count, dtype=np.int32) - count
        rows = np.repeat(np.arange(len(count), dtype=np.int32), count)
        a = np.arange(len(rows), dtype=np.int32) - start[rows]  # the rows (mu, a)
        chains = [(start[head[rows]] + a, depth[rows]) for head, depth in chains]
        if 1 < k <= n + 1:  # mu's last part, part k - 2, can be non-zero
            depth = (last[rows] - a).astype(depth_type)
            chains.append((start[rows - depth] + a, depth))
        scans = []
        for j in reversed(range(len(chains))):
            # the last level lifts no chains: each part's arrays go once laid out
            head, depth = chains.pop() if k == d else chains[j]
            order, deep = _chain_layout(head, depth)
            scans.append((kept, kept + len(order), int(depth.max()).bit_length()))
            kept += len(order)
            orders.append(order)
            depths.append(deep)
            # each row's index (at most 4 bytes) and depth, and 512 bytes for
            # the scan's objects
            held += len(order) * (4 + deep.itemsize) + 512
        levels.append(tuple(scans))
        size, last = size[rows] + a, a
    order = np.concatenate(orders, dtype=np.min_scalar_type(len(a) - 1))
    depth = np.concatenate(depths, dtype=depth_type)
    order.flags.writeable = depth.flags.writeable = False  # shared by every caller
    return _SchurPlan(order, depth, tuple(levels), held + rows_bytes)


def _chain_layout(head: np.ndarray, depth: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The rows of every chain of more than one row, chain by chain, head
    first and depth increasing, in the smallest unsigned type that holds
    them, and their depths. Each row goes to its chain's start plus its
    depth."""
    steps = np.flatnonzero(depth).astype(np.int32)  # the rows that take a step
    first = head[steps]
    below = np.bincount(first, minlength=len(head))  # rows under each head
    heads = np.flatnonzero(below).astype(np.int32)
    length = below[heads] + 1
    del below
    at = np.zeros(len(head), np.int32)
    at[heads] = np.cumsum(length) - length
    order = np.empty(int(length.sum()), np.min_scalar_type(len(head) - 1))
    deep = np.zeros(len(order), depth.dtype)
    order[at[heads]] = heads
    place = at[first] + depth[steps]
    order[place], deep[place] = steps, depth[steps]
    return order, deep


def _schur_values(p: Sequence[float], n: int) -> tuple[np.ndarray, np.ndarray]:
    """The sizes and Schur polynomials s_t(p) of every non-increasing
    d-tuple t with |t| <= n, d = len(p), in increasing lexicographic order.

    Branching rule (Macdonald, Symmetric Functions and Hall Polynomials,
    ch. I): s_lam(x_1..x_k) is the sum of s_mu(x_1..x_{k-1}) x_k^{|lam|-|mu|}
    over the mu interlacing lam. The rows (mu, a) of every k-tuple start at
    s_mu times x_k^a, and the values are carried to lam one part at a time,
    last part first: replacing mu_j by lam_j >= mu_j is U[t] += x_k U[t - e_j]
    in increasing t_j wherever t_j > t_{j+1} (t_{k-1} > a for the last part
    of mu). For p >= 0 every term is a product of non-negative numbers, so
    nothing cancels (Demmel & Koev, Math. Comp. 75 (2006)). A row's value
    depends only on the rows below it, so it is the same bits whatever n is.

    The chains of each part come from the plan (``_schur_plan``); per
    spectrum only float work remains. The rows of a scan are gathered chain
    by chain, and each doubling round m = 1, 2, 4, ... adds x^m times the
    row m places back to every row of depth >= m, all rows at once; a row
    meets the same products and sums, in the same order, as under a pointer
    chase down its chain.
    """
    if n < 1 or len(p) < 1:
        raise ValueError("n and d must be positive")
    plan = _schur_plan(n, len(p))
    check_bytes(plan.peak, f"Schur evaluation at n={n}, d={len(p)}")
    # Row r for k - 1 variables is the r-th non-increasing (k-1)-tuple mu
    # with |mu| <= n in increasing lexicographic order: its size, last part
    # and value. The empty tuple's "last part" n caps the first part.
    size, last, table = np.zeros(1, np.int32), np.full(1, n, np.int32), np.ones(1)
    for x, scans in zip(map(float, p), plan.levels):
        count = np.minimum(n - size, last) + 1  # the last parts a that fit
        start = np.cumsum(count, dtype=np.int32) - count
        rows = np.repeat(np.arange(len(count), dtype=np.int32), count)
        a = np.arange(len(rows), dtype=np.int32) - start[rows]  # the rows (mu, a)
        u = table[rows]
        u *= np.array([x**j for j in range(count.max())])[a]
        for begin, end, rounds in scans:
            order, depth = plan.order[begin:end], plan.depth[begin:end]
            v, weight = u[order], x
            for m in (1 << i for i in range(rounds)):
                term = v[:-m] * weight
                term += v[m:]
                np.putmask(v[m:], depth[m:] >= m, term)
                weight *= weight
            u[order] = v
        size, last, table = size[rows] + a, a, u
    return size, table


def schur_array(p: Sequence[float], n: int) -> np.ndarray:
    """Schur polynomials s_lam(p) of every partition lam of n with at most
    d = len(p) parts, as one array in ``block_table(n, d)`` order: the
    size-n slice of one evaluation (``_schur_values``)."""
    size, values = _schur_values(p, n)
    # the tuples of size n, reversed, are in enumeration order
    return values[size == n][::-1]


def schur_ladder(p: Sequence[float], n: int) -> list[list[float]]:
    """The Schur polynomials of every size m <= n from one evaluation: entry
    m lists s_lam(p) over ``block_table(m, d)`` in its order, bit for bit
    ``schur_array(p, m)``; entry 0 is the empty partition's 1. Reads
    no block table."""
    size, values = _schur_values(p, n)
    size, values = size[::-1], values[::-1]
    order = np.argsort(size, kind="stable")  # by size, in enumeration order
    bounds = np.cumsum(np.bincount(size, minlength=n + 1))[:-1]
    return [part.tolist() for part in np.split(values[order], bounds)]


def require_distribution(weights: Collection[float], what: str) -> None:
    """Raise ValueError if a weight is below -1e-12 or their fsum is more
    than 1e-9 from 1 (or either is NaN)."""
    total, low = math.fsum(weights), min(weights)
    if not (low >= -1e-12 and abs(total - 1.0) <= 1e-9):
        raise ValueError(
            f"block weights of {what} are not a distribution: "
            f"sum {total!r}, min {low!r}"
        )


def block_weights(
    p: Sequence[float], n: int, table: BlockTable, values: Sequence[float]
) -> np.ndarray:
    """Block weights q_lam = dim_v(lam) * s_lam(p) at size n as one array in
    the order of ``table``, the blocks at (n, d): its ``float_dim_v``
    column times the Schur values in its order. Raises ValueError when a
    dim_v is beyond the float range, and unless the weights are
    non-negative and sum to 1 (``require_distribution``)."""
    weights = table.float_dim_v * values
    require_distribution(weights.tolist(), f"{tuple(p)} at n={n}")
    return weights


def spectrum_weights(p: Sequence[float], n: int) -> np.ndarray:
    """``block_weights`` at size n, in ``block_table(n, len(p))`` order, from
    the memoized table and one Schur evaluation (``schur_array``): the one
    weights route of every spectrum query."""
    return block_weights(p, n, block_table(n, len(p)), schur_array(p, n))


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
    weights = spectrum_weights(spectrum, n).tolist()
    points = map(tuple, block_table(n, d).points.tolist())  # one per block
    members = [(point, q) for point, q in zip(points, weights) if region(point)]
    if not members:
        return 0.0, 0.0, True
    lhs = sum(q for _, q in members)
    min_div = min(relative_entropy(point, spectrum) for point, _ in members)
    rhs = (n + 1) ** (d * (d + 1) / 2) * math.exp(-n * min_div)
    return lhs, rhs, lhs <= rhs
