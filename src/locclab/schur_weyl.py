"""Explicit matrix-level symmetry decomposition of (C^d)^{(x)n}.

The tensor power splits into blocks indexed by Young indices lambda, each a
product of a unitary-group factor (dimension dim_u) and a symmetric-group
factor (dimension dim_v). This module constructs an orthonormal basis
organized by these blocks, with explicit (u, v) index maps, and extracts the
standard form of the n-fold power of a bipartite pure state: per-block
weights q_lambda and the state-dependent parts phi_lambda, from the block
table's letter counts of each u index, every block at once. These arrays
serve every input: a state in Schmidt form needs nothing more, and any
other adds its Schmidt decomposition, whose factors the form carries and
turns its parts by on access. No d^n x d^n array is formed.

The basis is the Young-Yamanouchi basis (Okounkov-Vershik, Selecta Math.
2 (1996)), built the same way for every d and with no randomness: the u
basis of each block is built on its row-reading tableau T0, and Young's
orthogonal form carries it to the other standard tableaux, which label v.
On T0 the u basis is the image of the Young symmetrizer R C, the column
antisymmetrizer of T0 followed by its row symmetrizer: s_k fixes the T0
vectors when letters k and k + 1 share a row, so they lie in
Sym^{lam_1} (x) Sym^{lam_2} (x) ..., which holds V_lam once (Kostka
number K_{lam lam} = 1), and that copy is the image of R C. Its weight-w
part is spanned by the images of the strings of the semistandard tableaux
of content w (Fulton, Young Tableaux (1997), sections 7-8), orthonormalized
by Gram-Schmidt in tableau order. Basis vectors are real throughout, since
the construction only sums permutations of strings with integer signs and
applies real triangular and orthogonal combinations. Realness is what
makes the same basis usable verbatim on both halves of a bipartite state
(the pairing of multiplicity indices involves an entrywise conjugate).

Permutations keep the torus weight of a string (its letter counts), so
every basis vector lies in the span of the strings of one weight w, and
with rows and columns grouped by weight the basis is block-diagonal. The
basis is built, stored, saved and loaded as these m_w x m_w blocks, m_w
the multinomial count of w (Bacon-Chuang-Harrow, arXiv:quant-ph/0407082);
the dense block columns (``SchurBlock.vectors``) and the dense d^n x d^n
matrix (``SchurBasis.matrix``) are built on access, for callers that do
dense arithmetic; the v = 0 columns of every block
(``SchurBasis.references``) on the first access, for the irreps of the
Schmidt factors of a state not in Schmidt form.

The character route, kept independent of the basis and of the Schur
evaluator to cross-check both, takes the weights by the Frobenius formula
from the power traces tr(rho^k), with no d^n array (``weights_by_projector``).

Calls that build arrays growing with d or n first pass the bytes they will
allocate to ``states.check_bytes``, the one size guard.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from operator import itemgetter
from pathlib import Path
from typing import NamedTuple, Sequence

import numpy as np

from .partitions import (
    BlockTable,
    Partition,
    block_table,
    character,
    class_size,
    dim_u,
    dim_v,
    enumerate_partitions,
    require_distribution,
    spectrum_weights,
    standard_tableaux,
)
from .states import StateVector, check_bytes

CONSTRUCTION_VERSION = 4

_MAX_CHARACTER_N = 14
_WEIGHT_FLOOR = 1e-14  # blocks at or below this weight carry no u part


class BasisAlignmentError(RuntimeError):
    """A check that the block basis pairs the two halves of a state failed."""


@dataclass(frozen=True)
class SchurBlock:
    """Orthonormal vectors of one lambda block, stored by torus weight.

    Column u * dim_v + v holds the basis vector with unitary-group index u
    and multiplicity index v; ``span`` is the range of the basis matrix's
    columns (and of block coordinates) that the block occupies. The u index
    runs over torus weights, highest first, so the columns of one weight
    form one range: ``pieces`` holds, per weight of the block, (rows, first
    column, amplitudes), the rows being the codes of the strings of that
    weight and the amplitudes a view of the basis's weight block.
    """

    lam: Partition
    dim_u: int
    dim_v: int
    size: int  # d^n, the number of rows
    span: slice
    pieces: tuple[tuple[np.ndarray, int, np.ndarray], ...]

    @property
    def vectors(self) -> np.ndarray:
        """The block's columns as a dense (d^n, dim_u * dim_v) array, built
        on every access."""
        width = self.dim_u * self.dim_v
        check_bytes(8 * self.size * width, f"the dense {self.lam} block")
        out = np.zeros((self.size, width))
        for rows, start, amps in self.pieces:
            out[rows, start : start + amps.shape[1]] = amps
        return out


@dataclass(frozen=True)
class SchurBasis:
    """Block basis of (C^d)^{(x)n}, stored by torus weight.

    Every column lies in the span of the strings of one torus weight w (one
    set of letter counts), so with rows and columns grouped by weight the
    basis is block-diagonal. ``weight_blocks`` holds the m_w x m_w blocks,
    weights highest first, m_w the multinomial count of w, as views of the
    flat ``amplitudes``; a block's columns are in increasing matrix-column
    order. ``rows`` and ``columns`` give the matrix row and column of each
    weight-block row and column, weight blocks in order. ``kostka[i, w]``
    is the number of u indices of weight w in the i-th block of
    ``enumerate_partitions(n, d)``.
    """

    n: int
    d: int
    blocks: dict[Partition, SchurBlock]
    kostka: np.ndarray
    amplitudes: np.ndarray
    weight_blocks: tuple[np.ndarray, ...]
    rows: np.ndarray
    columns: np.ndarray

    @property
    def matrix(self) -> np.ndarray:
        """All basis vectors as dense columns, blocks in decreasing-lex
        order, built on every access by one scatter of ``amplitudes``."""
        dim = self.rows.size
        check_bytes(2 * 8 * dim * dim, f"the dense basis at n={self.n}, d={self.d}")
        out = np.zeros(dim * dim)
        out[self._places] = self.amplitudes
        return out.reshape(dim, dim)

    @cached_property
    def references(self) -> np.ndarray:
        """The v = 0 column of every u of every block, blocks in order, as
        a (d^n, K) array, K = sum dim_u, made on the first access and kept.
        Column k has the letter counts of row k of the (n, d) block table's
        ``contents``. With b the columns of block lam, b^T X^{(x)n} b is the
        block's irrep of X, the same for every v."""
        columns = np.zeros((self.rows.size, int(self.kostka.sum())))
        at = 0
        for block in self.blocks.values():
            dv = block.dim_v
            for rows, start, amps in block.pieces:
                columns[rows, at + start // dv : at + (start + amps.shape[1]) // dv] = amps[:, ::dv]
            at += block.dim_u
        return columns

    @cached_property
    def _places(self) -> np.ndarray:
        """Place of each entry of ``amplitudes`` in the flattened matrix,
        made on the first ``matrix`` access and kept."""
        dim, at, out = self.rows.size, 0, []
        for square in self.weight_blocks:
            span = slice(at, at + len(square))
            out.append((self.rows[span, None] * dim + self.columns[span]).ravel())
            at += len(square)
        return np.concatenate(out)


@dataclass(frozen=True)
class _TorusWeights:
    """The d^length strings of ``length`` letters grouped by torus weight.

    A string's code reads its letters as base-d digits, first letter most
    significant. Weights are numbered in decreasing lexicographic order of
    their letter counts (c_0, ..., c_{d-1}), which is increasing order of
    the code of the sorted string. ``order`` lists the codes weight by
    weight, each weight's in increasing order, weight w from ``starts[w]``
    on; ``rank[c]`` is the place of code c among the strings of its weight
    ``label[c]``.
    """

    label: np.ndarray
    rank: np.ndarray
    order: np.ndarray
    starts: np.ndarray

    def rows(self, w: int) -> np.ndarray:
        return self.order[self.starts[w] : self.starts[w + 1]]


def _torus_weights(length: int, d: int) -> _TorusWeights:
    _, label = np.unique(_sorted_codes(length, d), return_inverse=True)
    order = np.argsort(label, kind="stable")
    sizes = np.bincount(label)
    starts = np.concatenate(([0], np.cumsum(sizes)))
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size) - np.repeat(starts[:-1], sizes)
    return _TorusWeights(label, rank, order, starts)


class _Strings:
    """The strings of n letters over d grouped by torus weight (``weights``),
    and the permutations that exchange two letters, as maps from each
    string's place in its weight to the place of its image; made for one
    build."""

    def __init__(self, n: int, d: int):
        self.n, self.d = n, d
        self.weights = _torus_weights(n, d)
        self._swaps: dict[tuple[int, int], np.ndarray] = {}

    def swap(self, i: int, j: int, w: int) -> np.ndarray:
        """Letters i and j exchanged, on the strings of weight w."""
        weights = self.weights
        if (i, j) not in self._swaps:
            codes = np.arange(self.d**self.n).reshape((self.d,) * self.n)
            self._swaps[i, j] = weights.rank[codes.swapaxes(i, j).ravel()[weights.order]]
        return self._swaps[i, j][weights.starts[w] : weights.starts[w + 1]]


def _basis_bytes(n: int, d: int) -> int:
    """The bytes ``build_schur_basis`` counts.

    - The weight blocks and the Young copies of one block, both at most
      sum_w m_w^2 floats.
    - The letters of every string, n x d^n indices, from which the sorted
      code of each string is read.
    - The terms of one block: for each of its K = dim_u semistandard
      tableaux and each of the prod_j mu_j! permutations of its columns
      (mu_j the column lengths), the code of the permuted string with its
      row class, place and sign, 64 bytes; and 24 n bytes per permutation
      for the permutations themselves.
    - The per-weight stacks of one block, at most 48 bytes per entry of
      its u basis. They are built while the copies of the block before are
      held; the copies of all blocks together are sum_w m_w^2 floats, and a
      block holds at most dim_v d^n entries (a Kostka number is at most
      dim_v), so the stacks pass the first term by at most
      max_v (48 - 8 v) v d^n = 72 d^n bytes.
    - 2 KiB per string for the index arrays and the small arrays and
      records kept per weight, which set the peak when there are few
      letters over many.
    """
    terms = max(
        (64 * du + 24 * n) * math.prod(map(math.factorial, _column_lengths(lam)))
        for lam, du, _ in block_table(n, d)
    )
    return 16 * _same_weight_pairs(n, d) + (2048 + 72 + 8 * n) * d**n + terms


def _same_weight_pairs(n: int, d: int) -> int:
    """Sum over the torus weights w of n letters of m_w^2: the pairs of
    strings with the same letter counts. Splitting the alphabet into a and
    b letters, S(a + b, j) = sum_k C(j, k)^2 S(a, k) S(b, j - k); d letters
    are reached by squaring."""

    def join(s, t):
        return [
            sum(math.comb(j, k) ** 2 * s[k] * t[j - k] for k in range(j + 1))
            for j in range(n + 1)
        ]

    out, power = [1] + [0] * n, [1] * (n + 1)
    while d:
        if d & 1:
            out = join(out, power)
        power = join(power, power)
        d >>= 1
    return out[n]


def _column_lengths(lam: Partition) -> list[int]:
    """The length of each column of the Young diagram of lam, left to right."""
    parts = lam.trimmed()
    return [sum(part > j for part in parts) for j in range(parts[0])]


def _semistandard_strings(lam: Partition, d: int) -> np.ndarray:
    """Every semistandard tableau of shape lam with letters below d, as the
    string of its entries read row by row (the positions of the row-reading
    tableau T0), in increasing code order: a (K, n) array, K = dim_u(lam).
    Built row by row from the non-decreasing rows: box j of row i sits in a
    column of length mu_j and takes a letter above the box over it and at
    most d - mu_j + i, so that every partial filling completes."""
    parts = lam.trimmed()
    lengths = np.array(_column_lengths(lam))
    out, above = np.zeros((1, 0), dtype=np.int64), np.full((1, parts[0]), -1)
    for i, part in enumerate(parts):
        rows = np.array(list(itertools.combinations_with_replacement(range(d), part)))
        rows = rows[(rows <= d - lengths[:part] + i).all(axis=1)]
        old, new = np.nonzero((rows > above[:, None, :part]).all(axis=2))
        out, above = np.hstack([out[old], rows[new]]), rows[new]
    return out


def _column_group(lam: Partition) -> tuple[np.ndarray, np.ndarray]:
    """Every permutation q of the positions of T0 that keeps each column,
    as the (|Q|, n) positions a string is read through, with its sign."""
    parts = lam.trimmed()
    starts = np.cumsum((0,) + parts)[:-1]
    tall = [m for m in _column_lengths(lam) if m > 1]  # the first columns, longest first
    sizes = [math.factorial(m) for m in tall]
    choices = np.indices(sizes).reshape(len(tall), math.prod(sizes)).T
    perms = np.tile(np.arange(lam.n), (len(choices), 1))
    signs = np.ones(len(choices))
    for m in sorted(set(tall)):
        cols = [j for j, length in enumerate(tall) if length == m]
        orders = np.array(list(itertools.permutations(range(m))))
        above = np.triu(np.ones((m, m), dtype=bool), 1)
        inversions = ((orders[:, :, None] > orders[:, None, :]) & above).sum(axis=(1, 2))
        parity = 1 - 2 * (inversions % 2)
        positions = starts[:m] + np.array(cols)[:, None]  # (columns, m)
        pick = orders[choices[:, cols]]  # (|Q|, columns, m)
        perms[:, positions] = positions[np.arange(len(cols))[:, None], pick]
        signs *= parity[choices[:, cols]].prod(axis=1)
    return perms, signs


def _sorted_codes(length: int, d: int) -> np.ndarray:
    """The code of each of the d^length strings of ``length`` letters with
    its letters sorted, the smallest code of its torus weight."""
    letters = np.indices((d,) * length).reshape(length, -1)
    letters.sort(axis=0)
    code = np.zeros(letters.shape[1], dtype=np.int64)
    for row in letters:
        code *= d
        code += row
    return code


def _row_classes(codes: np.ndarray, lam: Partition, d: int, sorted_codes: dict) -> np.ndarray:
    """The code of each string with the letters within each row of T0
    sorted, the smallest code of its row class: strings the row group of T0
    maps to one another share it. ``sorted_codes[l]`` is
    ``_sorted_codes(l, d)``."""
    out, end = np.zeros_like(codes), 0
    for part in lam.trimmed():
        end += part
        scale = d ** (lam.n - end)
        out += sorted_codes[part][codes // scale % d**part] * scale
    return out


def _reference_vectors(lam: Partition, d: int, strings: _Strings, sorted_codes: dict) -> list:
    """The u basis of the lam block, on its row-reading tableau T0, as
    (w, amplitudes on the strings of weight w) per torus weight w, highest
    first.

    It is the image of R C, C = sum_q sgn(q) q over the column group of T0
    and R = sum_p p over its row group, whose weight-w part is spanned by
    the images of the strings of the semistandard tableaux of content w
    (``_semistandard_strings``). An image is constant on row classes
    (strings equal up to reordering the letters within each row of T0), so
    the images are formed on classes: class c gets stab(c) sum_q sgn(q)
    [q s in c], stab(c) = |R| / |c| the permutations of the row group that
    fix one string of c. Each weight's images are orthonormalized in the
    metric |c| by Gram-Schmidt in tableau order (a Cholesky factor of the
    Gram matrix, then forward substitution), the weights with k tableaux
    as one (classes, k) stack for each k, and expanded to strings by one
    gather. Each column's first non-zero entry is positive.
    """
    weights = strings.weights
    n, size, count = lam.n, d**lam.n, np.diff(weights.starts)
    tableaux = _semistandard_strings(lam, d)
    want = dim_u(lam)
    if len(tableaux) != want:
        raise BasisAlignmentError(
            f"{lam} has {len(tableaux)} semistandard tableaux on {d} letters, not dim_u = {want}"
        )
    powers = d ** np.arange(n - 1, -1, -1, dtype=np.int64)
    tab_w = weights.label[tableaux @ powers]
    order = np.argsort(tab_w, kind="stable")  # by weight, each in code order
    tableaux, tab_w = tableaux[order], tab_w[order]
    n_tabs = np.bincount(tab_w, minlength=count.size)
    string_w = np.repeat(np.arange(count.size), count)
    # a class is numbered by the place of its smallest string in
    # ``weights.order``, its first string there: classes come weight by
    # weight, as the strings do
    place = weights.starts[weights.label] + weights.rank
    key = place[_row_classes(weights.order, lam, d, sorted_codes)]
    members = np.bincount(key, minlength=size)
    index = np.cumsum(members > 0) - 1  # the class of each place
    first = np.flatnonzero(members)
    members, class_w, cls = members[first], string_w[first], index[key]
    # the images as one (classes, k) array per tableau count k, each in
    # class order; slot[c] is the place of class c's row in ``images``
    class_k = n_tabs[class_w]
    by_k = np.argsort(class_k, kind="stable")
    widths = class_k[by_k]
    slot = np.empty_like(by_k)
    slot[by_k] = np.cumsum(widths) - widths
    perms, signs = _column_group(lam)
    # the code of q s for every tableau s and q: letter k of q s is letter
    # perms[q, k] of s, so s enters with the powers of d spread by q
    spread = np.zeros((n, len(perms)), dtype=np.int64)
    spread[perms, np.arange(len(perms))[:, None]] = powers
    terms = _row_classes((tableaux @ spread).ravel(), lam, d, sorted_codes)
    term_cls = index[place[terms]]
    column = np.arange(len(tableaux)) - (np.cumsum(n_tabs) - n_tabs)[tab_w]
    images = np.bincount(
        slot[term_cls] + np.repeat(column, len(perms)),
        weights=np.tile(signs, len(tableaux)),
        minlength=int(widths.sum()),
    )
    stab = math.prod(map(math.factorial, lam.trimmed())) / members  # |R| / |c|
    images *= np.repeat(stab[by_k], widths)
    for k in np.unique(widths[widths > 0]):
        part = by_k[widths == k]
        stack = images[slot[part[0]] : slot[part[0]] + part.size * k].reshape(part.size, k)
        try:
            _orthonormalize(stack, members[part], class_w[part], first[part])
        except np.linalg.LinAlgError:
            raise BasisAlignmentError(
                f"the tableau images of {lam} are dependent: their span is not dim_u = {want}"
            ) from None
    # one gather: each string of a weight with tableaux takes its class's row
    width = class_k[cls]
    ends = np.cumsum(width)
    flat = images[np.repeat(slot[cls] - ends + width, width) + np.arange(ends[-1])]
    held = np.flatnonzero(n_tabs)
    starts = ends[weights.starts[held]] - width[weights.starts[held]]
    return [
        (int(w), flat[s : s + count[w] * n_tabs[w]].reshape(count[w], n_tabs[w]))
        for w, s in zip(held, starts)
    ]


def _orthonormalize(
    stack: np.ndarray, metric: np.ndarray, weight: np.ndarray, first: np.ndarray
) -> None:
    """Gram-Schmidt, in place, of the columns of each weight's rows of
    ``stack``, in the metric diag(``metric``): the rows of one weight are
    contiguous, ``weight`` holds each row's. A Cholesky factor of each
    weight's Gram matrix, then forward substitution. Each column's leading
    entry, the one above 1e-10 of the row with the smallest ``first``, is
    made positive. LinAlgError when the columns of a weight are dependent:
    a squared pivot over its Gram entry, the share of a column off the
    columns before it, is at least 0.18 for the tableau images up to
    (n, d) = (10, 3) and (6, 6), and only rounding for a dependent column;
    at or below 1e-8 is refused."""
    k = stack.shape[1]
    heads = np.diff(weight, prepend=-1) != 0  # each weight's first row
    new, owner = np.flatnonzero(heads), np.cumsum(heads) - 1
    weighted = stack * metric[:, None]
    gram = np.empty((new.size, k, k))
    for j in range(k):  # one row of the Gram matrices at a time
        gram[:, j, : j + 1] = np.add.reduceat(weighted[:, j, None] * stack[:, : j + 1], new)
        gram[:, : j + 1, j] = gram[:, j, : j + 1]
    chol = np.linalg.cholesky(gram)
    pivots = np.diagonal(chol, axis1=1, axis2=2) ** 2 / np.diagonal(gram, axis1=1, axis2=2)
    if not pivots.min() > 1e-8:  # NaN fails too
        raise np.linalg.LinAlgError("dependent columns")
    for j in range(k):
        stack[:, j] -= (stack[:, :j] * chol[owner, j, :j]).sum(axis=1)
        stack[:, j] /= chol[owner, j, j]
    lead = np.where(np.abs(stack) > 1e-10, first[:, None], np.iinfo(first.dtype).max)
    hit = lead == np.minimum.reduceat(lead, new)[owner]
    stack *= np.sign(np.add.reduceat(np.where(hit, stack, 0.0), new))[owner]


def _young_steps(lam: Partition) -> list[tuple[int, int, int]]:
    """(k, earlier tableau, r) for every standard tableau after the first.

    Tableau v is the v-th word of ``standard_tableaux(lam)``. Every tableau
    T after the first has a descent k (letter k + 1 in a lower row than
    letter k + 2), and swapping the two gives an earlier tableau P. Young's
    orthogonal form, s_k v_P = v_P / r + sqrt(1 - 1/r^2) v_T with
    r = c_{k+1}(P) - c_k(P), then yields v_T from v_P.
    """
    words = standard_tableaux(lam)
    index = {word: v for v, word in enumerate(words)}
    steps = []
    for word in words[1:]:
        k = next(k for k in range(lam.n - 1) if word[k] > word[k + 1])
        prev = word[:k] + (word[k + 1], word[k]) + word[k + 2 :]
        # in P, letter k + 1 sits in row a = word[k] and letter k in row
        # b = word[k + 1], each after the letters of word[:k] in its row
        a, b = word[k], word[k + 1]
        r = (word[:k].count(a) - a) - (word[:k].count(b) - b)
        steps.append((k, index[prev], r))
    return steps


def _young_form(ref: list, steps: list, strings: _Strings) -> np.ndarray:
    """The block's amplitudes for every tableau, one row per tableau v:
    weight by weight as in ``ref``, the (string, u) entries of that weight,
    row-major. Row 0 is ``ref``; each later row comes from an earlier one
    by Young's orthogonal form, s_k applied as a row permutation within
    each weight."""
    places, size = [], 0  # the place of each (string, u) entry in a row
    for _, vecs in ref:
        places.append(size + np.arange(vecs.size).reshape(vecs.shape))
        size += vecs.size
    copies = np.empty((len(steps) + 1, size))
    copies[0] = np.concatenate([vecs for _, vecs in ref], axis=None)
    swaps: dict[int, np.ndarray] = {}
    for v, (k, prev, r) in enumerate(steps, 1):
        if k not in swaps:
            # where s_k v_P reads each entry: the string with letters k and
            # k + 1 exchanged, the same u
            swaps[k] = np.concatenate(
                [at[strings.swap(k, k + 1, w)] for at, (w, _) in zip(places, ref)], axis=None
            )
        src = copies[prev]
        copies[v] = (src[swaps[k]] - src / r) / math.sqrt(1 - 1 / r**2)
    return copies


def build_schur_basis(n: int, d: int, seed: int | None = None) -> SchurBasis:
    """Deterministic orthonormal block basis of (C^d)^{(x)n}, the
    Young-Yamanouchi basis, built weight block by weight block.

    Column (u, v) of block lam is an eigenvector of every Jucys-Murphy
    element X_k = sum_{i<k} (i k) with eigenvalue the content of letter k
    in the v-th standard tableau of ``standard_tableaux(lam)``
    (Okounkov-Vershik). The u basis is built on the row-reading tableau T0
    as the image of the Young symmetrizer R C, with no eigenproblem
    (``_reference_vectors``): the T0 vectors are invariant under the row
    group of T0, and V_lam occurs once in its invariants, so they span that
    image. Within a torus weight the u vectors are the Gram-Schmidt
    orthonormalization of the images of the semistandard tableaux of that
    content, in increasing order of their strings' codes. Young's
    orthogonal form (``_young_steps``) carries the u basis to the other
    tableaux, so it is the same for every v; s_k commutes with the unitary
    action, so the u index stays aligned across tableaux. Permutations keep
    the torus weight and are applied as row permutations within each
    weight, never as matrices. ``seed`` is ignored; it is accepted for
    callers that still pass one.
    """
    check_bytes(_basis_bytes(n, d), f"the block basis at n={n}, d={d}")
    table = block_table(n, d)
    strings = _Strings(n, d)
    weights = strings.weights
    lengths = {part for lam, _, _ in table for part in lam.trimmed()} - {n}
    sorted_codes = {length: _sorted_codes(length, d) for length in lengths}
    # on all n letters, the smallest code of each string's weight
    sorted_codes[n] = weights.order[weights.starts[weights.label]]
    sizes = np.diff(weights.starts)
    amplitudes = np.empty(int(sizes @ sizes))
    squares = _weight_blocks(amplitudes, sizes)
    kostka = np.zeros((len(table), sizes.size), dtype=np.int64)
    filled = np.zeros_like(sizes)
    for row, (lam, _, _) in enumerate(table):
        ref = _reference_vectors(lam, d, strings, sorted_codes)
        copies = _young_form(ref, _young_steps(lam), strings)
        end = 0
        for w, vecs in ref:
            m, c = vecs.shape
            start, stop = filled[w], filled[w] + c * len(copies)
            if stop > m:
                raise BasisAlignmentError(f"more than m_w = {m} columns of weight {w}")
            # column u * dim_v + v of the block; the reshape of the column
            # range is a view, as its rows are contiguous
            cols = squares[w][:, start:stop].reshape(m, c, len(copies))
            entries = copies[:, end : end + vecs.size].reshape(-1, m, c)
            cols[...] = entries.transpose(1, 2, 0)
            kostka[row, w], filled[w] = c, stop
            end += vecs.size
    if np.any(filled != sizes):
        raise BasisAlignmentError("the weight blocks are not filled")
    return _assemble(n, d, kostka, amplitudes, weights)


def _weight_blocks(amplitudes: np.ndarray, sizes: np.ndarray) -> tuple[np.ndarray, ...]:
    """The m_w x m_w blocks, one after the other in ``amplitudes``, as views."""
    ends = np.cumsum(sizes * sizes)
    return tuple(
        amplitudes[end - m * m : end].reshape(m, m) for m, end in zip(sizes, ends)
    )


def _assemble(
    n: int, d: int, kostka: np.ndarray, amplitudes: np.ndarray, weights: _TorusWeights
) -> SchurBasis:
    """The basis with weight blocks ``amplitudes`` and u counts ``kostka``:
    each block's pieces, and the matrix row and column of each weight-block
    row and column."""
    sizes = np.diff(weights.starts)
    squares = _weight_blocks(amplitudes, sizes)
    rows = [weights.rows(w) for w in range(sizes.size)]
    filled = [0] * sizes.size
    runs = []  # (weight, first matrix column, width), block by block
    blocks = {}
    offset = 0
    for (lam, du, dv), counts in zip(block_table(n, d), kostka.tolist()):
        pieces, u = [], 0
        for w, count in enumerate(counts):
            if count:
                start, width = filled[w], count * dv
                pieces.append((rows[w], u * dv, squares[w][:, start : start + width]))
                runs.append((w, offset + u * dv, width))
                filled[w] += width
                u += count
        span = slice(offset, offset + du * dv)
        blocks[lam] = SchurBlock(lam, du, dv, d**n, span, tuple(pieces))
        offset = span.stop
    runs.sort(key=lambda run: run[0])  # stable: blocks in order within a weight
    _, first, width = np.array(runs).T
    # the columns of each run, the runs one after the other
    columns = np.repeat(first - (np.cumsum(width) - width), width) + np.arange(width.sum())
    return SchurBasis(n, d, blocks, kostka, amplitudes, squares, weights.order, columns)


@lru_cache(maxsize=32)
def _memo_basis(n: int, d: int) -> SchurBasis:
    return build_schur_basis(n, d)


def schur_basis(n: int, d: int, seed: int | None = None) -> SchurBasis:
    """Memoized basis constructor, one entry per (n, d); bases are
    immutable and shareable. ``seed`` is ignored."""
    return _memo_basis(n, d)


# hit and miss counts for callers that report them (perfbench/worker.py)
schur_basis.cache_info = _memo_basis.cache_info


def save_basis(basis: SchurBasis, path: str | Path) -> Path:
    """Serialize a basis to a versioned binary cache file: the weight
    blocks, flat, and the u counts per block and weight."""
    path = Path(path)
    if path.suffix != ".npz":
        path = path.with_suffix(path.suffix + ".npz")
    meta = np.array([basis.n, basis.d, CONSTRUCTION_VERSION], dtype=np.int64)
    np.savez(path, meta=meta, kostka=basis.kostka, amplitudes=basis.amplitudes)
    return path


def load_basis(path: str | Path) -> SchurBasis:
    """Load a basis saved by :func:`save_basis`, bit-identical amplitudes."""
    with np.load(Path(path)) as data:
        meta = [int(x) for x in data["meta"]]
        if meta[-1] != CONSTRUCTION_VERSION:
            raise ValueError(
                f"cache version {meta[-1]} != supported {CONSTRUCTION_VERSION}"
            )
        n, d = meta[:2]
        kostka, amplitudes = data["kostka"], data["amplitudes"]
    weights = _torus_weights(n, d)
    sizes = np.diff(weights.starts)
    if kostka.shape != (len(block_table(n, d)), sizes.size) or (
        amplitudes.shape != (sizes @ sizes,)
    ):
        raise ValueError(f"{path} does not hold the weight blocks of n={n}, d={d}")
    return _assemble(n, d, kostka, amplitudes, weights)


def load_or_build_basis(
    n: int, d: int, seed: int | None = None, cache_dir: str | Path | None = None
) -> SchurBasis:
    """Fetch a basis from the cache directory, building and saving on miss.
    ``seed`` is ignored."""
    if cache_dir is None:
        return schur_basis(n, d)
    cache_dir = Path(cache_dir)
    cache_dir.mkdir(parents=True, exist_ok=True)
    path = cache_dir / f"schur_n{n}_d{d}_v{CONSTRUCTION_VERSION}.npz"
    if path.exists():
        return load_basis(path)
    basis = build_schur_basis(n, d)
    save_basis(basis, path)
    return basis


@dataclass(frozen=True)
class StandardForm:
    """Per-block decomposition data of the n-fold power of a bipartite state.

    weights[lam] is the squared amplitude q_lambda, the squared norm of the
    block. parts[lam] is the normalized u part of the block in the Schmidt
    frame, held as its diagonal, a 1-D array of length dim_u; ``factors``
    holds the Schmidt factors (U, V^H) of an amplitude matrix off its
    diagonal (None for a diagonal one, its own frame). ``phi`` gives every
    part as a dense matrix turned by them: block lam of B^T psi B (its rows
    and columns ``schur_basis(n, d).blocks[lam].span``) is
    sqrt(q_lambda) phi[lam] (x) 1/sqrt(dim_v): the multiplicity part
    sum_v |v v> / sqrt(dim_v) does not depend on the input state. Blocks of
    weight at or below 1e-14 carry no part. ``spectrum`` holds the Schmidt
    coefficients, the squared singular values of the amplitude matrix,
    non-increasing.
    """

    n: int
    d: int
    weights: dict[Partition, float]
    parts: dict[Partition, np.ndarray]
    spectrum: tuple[float, ...]
    factors: tuple[np.ndarray, np.ndarray] | None

    @property
    def phi(self) -> dict[Partition, np.ndarray]:
        """Every part as a dense dim_u x dim_u array, built on every access
        behind its count (``_turned``): the only read of the block basis
        for a form off its diagonal."""
        return _turned(self.parts, self.factors, self.n, self.d, "the dense phi")


def weights_analytic(p: Sequence[float], n: int) -> dict[Partition, float]:
    """Block weights q_lambda = dim_v(lam) * s_lam(p) from the Schmidt
    spectrum alone; fast path that needs no matrices. Raises ValueError
    unless the weights are non-negative and sum to 1, as the matrix routes
    check, and when a dim_v is beyond the float range: the array of
    ``spectrum_weights``, keyed in ``block_table`` order."""
    weights = spectrum_weights(p, n).tolist()
    return dict(zip((lam for lam, _, _ in block_table(n, len(p))), weights))


def _sum_dim_u(n: int, d: int) -> int:
    """The sum of dim_u over the blocks of (C^d)^{(x)n}: the coefficient of
    t^n in (1 - t)^-d (1 - t^2)^-m, m = d(d - 1)/2, by the Littlewood
    identity for the sum of all Schur polynomials, at x_i = t."""
    m = d * (d - 1) // 2
    if m == 0:  # d = 1: the one block (n)
        return 1
    if d == 2:  # the sum of lam_1 - lam_2 + 1 over lam_2 <= n / 2
        return (n + 2) ** 2 // 4
    return sum(
        math.comb(n - 2 * k + d - 1, d - 1) * math.comb(k + m - 1, k) for k in range(n // 2 + 1)
    )


@lru_cache(maxsize=64)
def standard_form_bytes(n: int, d: int) -> int:
    """The bytes ``StandardForm.phi`` and ``TeleportResult.final_state``
    count at (n, d) to turn the parts of an amplitude matrix off its
    diagonal, memoized: the larger of the basis build and, with
    K = sum dim_u, the kept basis, its v = 0 columns with 8 n bytes a
    column for the contents column, the SVD's 112 d^2 bytes (its factors
    are held), and two complex d^n x K arrays at once (the
    stacked products of U and V^H with those columns and their reordered
    copy), which bound every later array. Past d^n = 2^32, where one float
    a string passes the budget, sum_w m_w^2 and K are bounded by d^2n and
    d^n, not summed. ValueError unless n and d are positive."""
    if n < 1 or d < 1:
        raise ValueError("n and d must be positive")
    size = d**n
    if size > 2**32:
        return 88 * size * size + 112 * d * d + 2048 * size
    width = _sum_dim_u(n, d)
    held = 8 * _same_weight_pairs(n, d) + 1024 * size + 8 * width * (size + n)
    return max(_basis_bytes(n, d), held + 112 * d * d + 64 * size * width)


@lru_cache(maxsize=64)
def frame_bytes(n: int, d: int) -> int:
    """The bytes ``standard_form`` and ``run_teleport`` count at (n, d),
    memoized; a matrix off its diagonal adds its SVD (``_checked_matrix``).
    With K = sum dim_u, the number of u indices, and w = min(n, d), the
    parts of a Young index that can be non-zero, per u index:

    - 2 d: its letter counts, the contents column, kept with the block
      table (two bytes each at most under the budget);
    - the larger of the two phases that hold the most:
      - 24 w + 8 d + 56: building the contents column one Gelfand-Tsetlin
        level at a time, its last level's parts (int64) beside their
        reordered copy and the level before's, seven index arrays, and
        the links of each earlier level, at most K rows each;
      - 16 d + 24: each u index's letter powers (complex), then Delta and
        its squares.

    The arrays over the u indices that outlive these (Delta, the normalized,
    conditioned, final and weighted u parts, and the per-block scales
    repeated, 80 bytes an index in ``run_teleport``) fit under the first
    phase. 2^18 more for numpy's cast buffers while the powers are taken
    (8192 complex entries for each of two operands), and 64 KiB for the
    per-block arrays and small records.

    The u parts are kept as their diagonals, so nothing grows with
    sum dim_u^2. K >= dim_u of the block (n), C(n + d - 1, d - 1): at d >= 3
    that bound is sized first, by its log, and when its count alone passes
    the budget that count is returned, K unsummed (past 2^64, for the power
    of two below the bound, and for n past 2^53, where lgamma is no longer
    exact, for K >= C(n + 2, 2) > 2^105). At d = 2, K = (n + 2)^2 // 4.
    ValueError unless n and d are positive."""
    if n < 1 or d < 1:
        raise ValueError("n and d must be positive")
    per_index = 2 * d + max(24 * min(n, d) + 8 * d + 56, 16 * d + 24)

    def count(width: int) -> int:
        return per_index * width + 2**18 + 2**16

    if d > 2:
        if n > 2**53:
            return count(1 << 105)
        log2_top = (math.lgamma(n + d) - math.lgamma(n + 1) - math.lgamma(d)) / math.log(2)
        if log2_top > 64:
            return count(1 << int(log2_top - 1))
        if count(math.comb(n + d - 1, d - 1)) > 2**32:
            return count(math.comb(n + d - 1, d - 1))
    return count(_sum_dim_u(n, d))


def _power_times(mats: np.ndarray, cols: np.ndarray, n: int) -> np.ndarray:
    """mat^{(x)n} @ cols for each of a stack of d x d matrices, cols a
    (d^n, k) array: products with mat^{(x)c} on c letters at a time,
    d^c <= 16 (the n mod c left over first), each transforming the first
    letters and moving them last, so that after the last one every letter
    is transformed once and back in its place. Returns the stack; at most
    two arrays of its size are held at once."""
    count, d, k = len(mats), mats.shape[1], cols.shape[1]
    powers = [mats]  # mat^{(x)(j + 1)} at j
    while len(powers) < n and d ** (len(powers) + 1) <= 16:
        product = powers[-1][:, :, None, :, None] * mats[:, None, :, None, :]
        powers.append(product.reshape(count, d ** (len(powers) + 1), -1))
    c, out = len(powers), cols
    for letters in ([n % c] if n % c else []) + [c] * (n // c):
        m = d**letters
        step = powers[letters - 1] @ out.reshape(-1, m, len(cols) // m * k)
        del out
        out = step.reshape(count, m, -1, k).transpose(0, 2, 1, 3).reshape(count, -1, k)
        del step
    return out


def schmidt_diagonal(mat: np.ndarray) -> np.ndarray | None:
    """The diagonal of a square amplitude matrix with no non-zero entry off
    it, real when no entry has an imaginary part; None when an entry off
    the diagonal is non-zero. Such a matrix is in its own Schmidt frame:
    every state the command line builds (``bell``, ``product``,
    ``--schmidt``) is. The matrix holds no entry off the diagonal when it
    has as many non-zero entries as its diagonal, a view: nothing is
    copied."""
    diagonal = mat.diagonal()
    if np.count_nonzero(mat) != np.count_nonzero(diagonal):
        return None
    return diagonal if np.count_nonzero(diagonal.imag) else diagonal.real


def _diagonal_spectrum(diagonal: np.ndarray) -> tuple[float, ...]:
    """The Schmidt coefficients of a diagonal amplitude matrix, the squared
    moduli of its diagonal, non-increasing."""
    return tuple([x * x for x in sorted(map(abs, diagonal.tolist()), reverse=True)])


class _Frame(NamedTuple):
    """The frame arrays at (n, d), every block at once in ``table`` order:
    Delta at each of the K = sum dim_u u indices, each block's |Delta_lam|^2
    and weight q_lam, the mask of the blocks above the weight floor (the
    ones that carry a u part), the spectrum, and the Schmidt factors
    (U, V^H) of an amplitude matrix off its diagonal (None for a diagonal
    one, whose frame is its own)."""

    table: BlockTable
    delta: np.ndarray
    squares: np.ndarray
    weights: np.ndarray
    carried: np.ndarray
    spectrum: tuple[float, ...]
    factors: tuple[np.ndarray, np.ndarray] | None

    def blocks(self, flat: np.ndarray, mask: np.ndarray) -> dict[Partition, np.ndarray]:
        """The blocks of mask, each keyed to its slice (a view) of flat, an
        array over the u indices."""
        bounds, keep = self.table.offsets.tolist(), mask.tolist()
        spans = itertools.compress(map(slice, bounds, bounds[1:]), keep)
        labels = itertools.compress(map(itemgetter(0), self.table), keep)
        return dict(zip(labels, map(flat.__getitem__, spans)))


def _schmidt_frame(mat: np.ndarray, diagonal: np.ndarray | None, n: int) -> _Frame:
    """The frame arrays of ``standard_form`` and ``run_teleport``,
    whole-array: with s the diagonal of a diagonal amplitude matrix, or else
    its singular values (``_schmidt_factors``, which also gives the
    factors), Delta = prod_i s_i^{c_i} at every u index of
    ``block_table(n, d)``'s contents column, each block's |Delta_lam|^2 by
    one reduceat over its offsets column, and q_lam = dim_v |Delta_lam|^2:
    pi_lam(U) and pi_lam(V^H) are unitary, so the weights need Delta alone.
    The caller has checked the input (``_checked_matrix``). ValueError when
    a dim_v is beyond the float range, found before the contents column is
    read; BasisAlignmentError on a failed check of ``_schmidt_factors`` and
    unless the weights sum to |phi|^(2n) within 1e-10."""
    table = block_table(n, len(mat))
    dims = table.float_dim_v
    factors = None
    if diagonal is None:
        diagonal, factors = _schmidt_factors(mat)
    delta = np.multiply.reduce(diagonal ** table.contents, axis=1)
    mass = np.square(delta.real)
    if delta.dtype.kind == "c":
        mass += np.square(delta.imag)
    squares = np.add.reduceat(mass, table.offsets[:-1])
    weights = dims * squares
    spectrum = _diagonal_spectrum(diagonal)
    # the blocks hold all of |phi>^(x)n, of squared norm |phi|^(2n), the
    # n-th power of the spectrum's sum: an admitted norm 1 + 1e-10 puts
    # that 2n * 1e-10 away from 1
    total, expected = math.fsum(weights.tolist()), math.fsum(spectrum) ** n
    if not abs(total - expected) <= 1e-10:
        raise BasisAlignmentError(f"weights sum to {total}, not |phi|^(2n) = {expected}")
    return _Frame(table, delta, squares, weights, weights > _WEIGHT_FLOOR, spectrum, factors)


def _schmidt_factors(mat: np.ndarray) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray]]:
    """The singular values s of mat, non-increasing, and its factors
    (U, V^H), in real arithmetic for a real mat. BasisAlignmentError unless
    U diag(s) V^H is mat within 1e-12."""
    if not mat.imag.any():
        mat = mat.real
    left, svals, right = np.linalg.svd(mat)
    residual = float(np.linalg.norm((left * svals) @ right - mat))
    if not residual <= 1e-12:
        raise BasisAlignmentError(f"Schmidt decomposition residual {residual:.2e} above 1e-12")
    return svals, (left, right)


def _block_irreps(factors: tuple[np.ndarray, np.ndarray], n: int, table) -> dict:
    """pi_lam(U) and pi_lam(V^H) stacked, keyed by each block lam of
    ``table``, (U, V^H) the Schmidt factors. Each pi_lam is a diagonal block
    of R(X) = B0^T X^{(x)n} B0, B0 the v = 0 columns of every block
    (``SchurBasis.references``), X^{(x)n} applied a few tensor factors at a
    time; real factors are applied in real arithmetic. BasisAlignmentError
    unless the part of R(U) and R(V^H) outside the diagonal blocks (the
    cross-block amplitude) is at most 1e-10 and every pi_lam is unitary
    within 1e-10."""
    cols = schur_basis(n, len(factors[0])).references
    powers = _power_times(np.stack(factors), cols, n)
    if np.iscomplexobj(powers):  # B0^T in real arithmetic: the float view interleaves re, im
        reps = (cols.T @ powers.view(np.float64)).view(np.complex128)
    else:
        reps = cols.T @ powers
    del powers
    # every pi_lam(U) and pi_lam(V^H), taken out of R, leaving the cross-block part
    pis, at = {}, 0
    for lam, du, _ in table:
        span = slice(at, at + du)
        pis[lam] = reps[:, span, span].copy()
        reps[:, span, span] = 0.0
        at += du
    cross = math.sqrt(np.vdot(reps, reps).real)
    if not cross <= 1e-10:  # NaN fails too
        raise BasisAlignmentError(f"cross-block amplitude {cross:.2e} above 1e-10")
    del reps
    for lam, pi in pis.items():
        gram = pi.conj().transpose(0, 2, 1) @ pi
        gram -= np.eye(len(gram[0]))
        err = math.sqrt(np.vdot(gram, gram).real)  # bounds every entry
        if not err <= 1e-10:
            which = int(np.vdot(gram[1], gram[1]).real > np.vdot(gram[0], gram[0]).real)
            raise BasisAlignmentError(
                f"pi_{lam}({('U', 'V^H')[which]}) is not unitary: its Gram matrices are "
                f"{err:.2e} from the identity, above 1e-10"
            )
    return pis


def _turned(parts: dict, factors: tuple | None, n: int, d: int, what: str) -> dict:
    """Each part, a diagonal x per block, as a dense dim_u x dim_u array
    behind a count of ``what`` at (n, d): diag(x) (the matrix, 512 bytes a
    block, 64 KiB for the records), or pi_lam(U) diag(x) pi_lam(V^H) for
    factors (U, V^H) (``_block_irreps``), behind ``standard_form_bytes``."""
    nbytes = sum(x.itemsize * len(x) ** 2 + 512 for x in parts.values()) + 2**16
    check_bytes(nbytes if factors is None else standard_form_bytes(n, d), f"{what} at n={n}, d={d}")
    if factors is None:
        return {lam: np.diag(x) for lam, x in parts.items()}
    pis = _block_irreps(factors, n, block_table(n, d))
    return {lam: (pis[lam][0] * x) @ pis[lam][1] for lam, x in parts.items()}


def _checked_matrix(phi: StateVector, n: int, what: str) -> tuple[np.ndarray, np.ndarray | None]:
    """The amplitude matrix of a d x d bipartite state and its diagonal
    (``schmidt_diagonal``, None when an entry off it is non-zero), once the
    dims, the bytes of ``what`` at (n, d) and the norm are checked: the one
    input check of ``standard_form`` and ``run_teleport``. Every input
    counts ``frame_bytes``; a matrix off its diagonal adds its SVD, with its
    LAPACK workspace and factors (about 106 d^2 bytes measured, complex)."""
    if len(phi.dims) != 2 or phi.dims[0] != phi.dims[1]:
        raise ValueError(f"need a d x d bipartite state, got dims {phi.dims}")
    d = phi.dims[0]
    mat = phi.amplitude_matrix()
    diagonal = schmidt_diagonal(mat)
    svd = 112 * d * d if diagonal is None else 0
    check_bytes(frame_bytes(n, d) + svd, f"{what} at n={n}, d={d}")
    phi.require_normalized()
    return mat, diagonal


def standard_form(phi: StateVector, n: int) -> StandardForm:
    """Decompose |phi>^{(x)n} into block weights and paired-block states,
    the u parts normalized.

    With M = U diag(s) V^H the amplitude matrix, |phi>^{(x)n} has matrix
    U^{(x)n} diag(s)^{(x)n} (V^H)^{(x)n}, and each factor commutes with
    permutations. The same real basis B is used on both halves, so by
    Schur-Weyl duality block lam of B^T psi B is
    pi_lam(U) Delta_lam pi_lam(V^H) (x) 1_v (Harrow, arXiv:quant-ph/0512255,
    section 7). Delta_lam is diagonal in the Gelfand-Tsetlin u basis:
    prod_i s_i^{c_i} at a u index of letter counts c, read from the block
    table's ``contents`` column, which depends on (n, d) alone.

    The weights, the spectrum and the norms come from Delta alone, over
    every block at once (``_schmidt_frame``): q_lam = dim_v |Delta_lam|^2,
    and the part of block lam is Delta_lam / |Delta_lam|, kept as its
    diagonal. pi_lam(U) and pi_lam(V^H) are unitary, so the form carries U
    and V^H (``factors``) and ``phi`` applies them on access. A diagonal M
    (``schmidt_diagonal``) is its own Schmidt frame: U and V^H are the
    identity up to a diagonal of phases and an order of the letters, and
    pi_lam(M) itself is diagonal, prod_i m_ii^{c_i}, so its form takes no
    SVD. Any other M adds its SVD alone. No input reads the basis.

    Each failed check is a BasisAlignmentError: those of
    ``_schmidt_factors``, and the weights sum to |phi|^(2n) within 1e-10.
    A dim_v beyond the float range is a ValueError. The v >= 1 columns are
    not read, so not checked here: the pairing they carry follows from the
    construction, and the dense route the tests compare against checks it.
    """
    mat, diagonal = _checked_matrix(phi, n, "standard_form")
    frame = _schmidt_frame(mat, diagonal, n)
    table = frame.table
    # each carried block's Delta over its norm, 0 elsewhere
    norms = np.sqrt(frame.squares)
    scale = np.divide(1.0, norms, out=np.zeros(len(table)), where=frame.carried)
    offsets = table.offsets
    parts = frame.blocks(frame.delta * scale.repeat(offsets[1:] - offsets[:-1]), frame.carried)
    weights = dict(zip(map(itemgetter(0), table), frame.weights.tolist()))
    return StandardForm(n, len(mat), weights, parts, frame.spectrum, frame.factors)


def weights_by_projector(phi: StateVector, n: int) -> dict[Partition, float]:
    """Independent weight computation: the trace of each character
    projector against rho^{(x)n}, rho the reduced density matrix, by the
    Frobenius formula q_lam = dim_v(lam) sum_mu chi_lam(mu) prod_i
    tr(rho^{mu_i}) / z_mu, with tr(rho^k) from matrix powers of rho; no
    d^n array is built. As sum_mu |chi_lam(mu)| / z_mu <= 1, q_lam rounds
    by about n dim_v(lam) 2^-52 at most: 2.2e-10 at n = 14, under the 1e-9
    weight tolerance, 4.1e-9 at n = 16; so n <= 14. Raises ValueError
    unless the weights are non-negative and sum to 1."""
    if n > _MAX_CHARACTER_N:
        raise ValueError(
            f"n = {n} is above {_MAX_CHARACTER_N}: beyond it the character "
            "sum can round by more than the 1e-9 weight tolerance"
        )
    rho = phi.reduced_density()
    traces, power = [1.0], np.eye(rho.shape[0])
    for _ in range(n):
        power = power @ rho
        traces.append(float(np.real(np.trace(power))))
    group = math.factorial(n)
    classes = [
        (mu, math.prod(traces[k] for k in mu.trimmed()) * class_size(mu) / group)
        for mu in enumerate_partitions(n, n)
    ]
    weights = {
        lam: dv * math.fsum(character(lam, mu) * t for mu, t in classes)
        for lam, _, dv in block_table(n, phi.dims[0])
    }
    require_distribution(weights.values(), f"the projector route at n={n}")
    return weights
