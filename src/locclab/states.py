"""Dense state vectors on tensor products of small local spaces."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_NORM_TOL = 1e-10
_MAX_BYTES = 2**32


def check_bytes(nbytes: int, what: str):
    """The one size guard: ValueError when ``nbytes``, the bytes a call is
    about to allocate as counted from its array shapes, exceed the budget."""
    if nbytes > _MAX_BYTES:
        # a huge count is named by its bit length: its decimal digits may be
        # past the interpreter's limit for integer-to-string conversion
        count = nbytes
        if isinstance(nbytes, int) and nbytes.bit_length() > 64:
            count = f"at least 2^{nbytes.bit_length() - 1}"
        raise ValueError(f"{what} needs {count} bytes, over the {_MAX_BYTES}-byte budget")


def as_generator(rng) -> tuple[np.random.Generator, int | None]:
    """The one seed normaliser: a generator and the seed to record. An int
    seeds a fresh generator (None means 0); a given generator is used as is
    and records no seed."""
    seed = seed_of(rng)
    return (rng if seed is None else np.random.default_rng(seed)), seed


def seed_of(rng) -> int | None:
    """The seed ``as_generator`` records for rng, with no generator made."""
    if isinstance(rng, (int, np.integer)) or rng is None:
        return int(rng) if rng is not None else 0
    return None


@dataclass(frozen=True)
class StateVector:
    """Amplitudes over the computational basis of a tensor-product space.

    ``dims`` lists the local dimensions; their product is the vector length.
    """

    amplitudes: np.ndarray
    dims: tuple[int, ...]

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex).reshape(-1)
        object.__setattr__(self, "amplitudes", amps)
        object.__setattr__(self, "dims", tuple(int(d) for d in self.dims))
        if math.prod(self.dims) != amps.size:
            raise ValueError(
                f"dims {self.dims} incompatible with vector of length {amps.size}"
            )

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def normalized(self) -> "StateVector":
        nrm = self.norm()
        if nrm < 1e-14:
            raise ValueError("cannot normalize the zero vector")
        return StateVector(self.amplitudes / nrm, self.dims)

    def require_normalized(self) -> "StateVector":
        # the norm from one dot product, which np.linalg.norm rounds alike
        # to within an ulp or so, far inside the tolerance
        norm = math.sqrt(np.vdot(self.amplitudes, self.amplitudes).real)
        if not abs(norm - 1.0) <= _NORM_TOL:  # a NaN norm fails too
            raise ValueError(f"state norm {norm} is not 1 within {_NORM_TOL}")
        return self

    def overlap(self, other: "StateVector") -> complex:
        """<self|other>; ValueError when the two states' dims differ."""
        if self.dims != other.dims:
            raise ValueError(f"cannot compare states with dims {self.dims} and {other.dims}")
        return complex(np.vdot(self.amplitudes, other.amplitudes))

    def fidelity(self, other: "StateVector") -> float:
        return float(abs(self.overlap(other)) ** 2)

    def amplitude_matrix(self) -> np.ndarray:
        """For a bipartite state, the matrix M with |phi> = (M x 1)|Omega>."""
        if len(self.dims) != 2:
            raise ValueError("amplitude_matrix needs a bipartite state")
        return self.amplitudes.reshape(self.dims)

    def schmidt_coefficients(self) -> np.ndarray:
        """Squared singular values of the amplitude matrix, non-increasing."""
        svals = np.linalg.svd(self.amplitude_matrix(), compute_uv=False)
        return svals**2

    def reduced_density(self) -> np.ndarray:
        """Partial trace of a bipartite pure state onto the first side."""
        m = self.amplitude_matrix()
        return m @ m.conj().T


def _preset_matrix(d: int) -> np.ndarray:
    """The zero d x d amplitude matrix of a preset, for 1 <= d in budget."""
    if d < 1:
        raise ValueError(f"local dimension {d} is below 1")
    check_bytes(16 * d * d, f"a {d} x {d} preset state")
    return np.zeros((d, d), dtype=complex)


def bell_state(d: int = 2) -> StateVector:
    """Maximally entangled d x d state, flat Schmidt spectrum."""
    m = _preset_matrix(d)
    np.fill_diagonal(m, 1 / math.sqrt(d))
    return StateVector(m.reshape(-1), (d, d))


def product_state(d: int = 2) -> StateVector:
    """|00>: the extreme case with largest Schmidt coefficient 1."""
    m = _preset_matrix(d)
    m[0, 0] = 1.0
    return StateVector(m.reshape(-1), (d, d))


def state_from_schmidt(spectrum) -> StateVector:
    """Bipartite state sum_k sqrt(p_k)|kk> with the given Schmidt spectrum."""
    p = np.asarray(spectrum, dtype=float)
    d = p.size
    check_bytes(24 * d * d, f"a {d} x {d} state")  # real diagonal, complex copy
    m = np.diag(np.sqrt(p)).astype(complex)
    return StateVector(m.reshape(-1), (d, d))


def bipartite_tensor_power(phi: StateVector, n: int) -> np.ndarray:
    """Matrix of |phi>^{(x)n} with row = joint A index, column = joint B index.

    The n-fold power of a bipartite state interleaves A and B factors; this
    reorders them to (A_1..A_n, B_1..B_n) and reshapes to a d^n x d^n matrix,
    which equals the n-fold Kronecker power of the amplitude matrix. Each
    factor is one broadcast product, entry for entry the product ``np.kron``
    forms.
    """
    m = phi.amplitude_matrix()
    check_bytes(32 * m.size**n, f"the {n}-fold tensor power")  # and the one before
    out = np.array([[1.0 + 0j]])
    for _ in range(n):
        out = (out[:, None, :, None] * m[None, :, None, :]).reshape(out.shape[0] * len(m), -1)
    return out
