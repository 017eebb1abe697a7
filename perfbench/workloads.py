"""The four benchmark workloads and their result checks.

Every workload is a closed loop: one client, and the next operation starts
only after the previous one completed. A workload is made of rounds. A round
is the workload's stated size mix: every size of its ladder, each with a
fixed set of operation kinds. The seeded generator fills each round with
fresh inputs (Schmidt spectra, flat-ish or skewed with the largest
coefficient up to 0.97, and protocol seeds) and fixes the order in which the
round is visited. The library receives only these generated inputs. Because
every round has the same composition, a run of whole rounds gives the same
mix on every seed and every commit.

An operation's ``run`` holds only library calls and is the timed part. Its
``check`` runs afterwards, untimed: it raises :class:`CheckFailed` when the
result is wrong, and returns the outcome label of a success. Expected
structured outcomes count as successes: ``NothingToTeleportError`` or
status ``vacuous`` for a product state, and CLI exit code 1 with a JSON
error where that is the right answer.

One defect is known at this commit: the weights of d >= 4 ``spectra``
queries cancel catastrophically. An operation that may show it carries
``known_defect``; a :class:`WeightCheckFailed` of such an operation is
recorded as that known defect and listed, not counted as a failed
operation. Any other failure, including an exception raised by the library,
counts as failed and makes the run incorrect.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import shutil
import tempfile
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import Any, Callable

import numpy as np

from locclab import cli, estimation, locc, models, partitions, schur_weyl, teleport
from locclab.states import bipartite_tensor_power, product_state, state_from_schmidt

from recorder import Recorder

WEIGHT_TOL = 1e-9  # the repository's pinned weight tolerance
PATH_SUM_TOL = 1e-10
ORTHONORMAL_TOL = 1e-10
CROSS_TOL = 1e-8


class CheckFailed(Exception):
    """The library returned a result that fails the workload's check."""


class WeightCheckFailed(CheckFailed):
    """Block weights, or a retained or region weight, are negative, above
    one, or do not sum to one."""


@dataclass
class Op:
    kind: str
    d: int
    n: int
    run: Callable[[Recorder], Any]
    check: Callable[[Any, Recorder], str]
    known_defect: bool = False  # a WeightCheckFailed here is expected


# ----------------------------------------------------------------------
# input generation


def flat_spectrum(rng: np.random.Generator, d: int) -> tuple[float, ...]:
    p = np.sort(rng.dirichlet(np.full(d, 4.0)))[::-1]
    return tuple(float(x) for x in p / p.sum())


def skewed_spectrum(rng: np.random.Generator, d: int) -> tuple[float, ...]:
    """Largest coefficient uniform in [0.85, 0.97], the rest flat-ish."""
    p1 = rng.uniform(0.85, 0.97)
    rest = np.sort(rng.dirichlet(np.ones(d - 1)))[::-1] * (1.0 - p1)
    p = np.concatenate([[p1], rest])
    return tuple(float(x) for x in p / p.sum())


def spectrum_arg(p) -> str:
    return ",".join(repr(x) for x in p)


def small_seed(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2**16))


@lru_cache(maxsize=None)
def count_partitions(n: int, d: int) -> int:
    """Number of partitions of n into at most d parts (benchmark-side)."""
    if n == 0:
        return 1
    if n < 0 or d == 0:
        return 0
    return count_partitions(n, d - 1) + count_partitions(n - d, d)


# ----------------------------------------------------------------------
# shared checks


def value_of(result: Any) -> Any:
    """The result of a run, or a check failure when the run raised."""
    if isinstance(result, BaseException):
        raise CheckFailed(f"raised {type(result).__name__}: {result}")
    return result


def check_weights(weights, rec: Recorder) -> None:
    """Every weight >= -1e-9 and the weights sum to 1 within 1e-9."""
    rec.count("spectra.weight_check.attempts")
    values = list(weights)
    low, total = min(values), math.fsum(values)
    if low < -WEIGHT_TOL or abs(total - 1.0) > WEIGHT_TOL:
        rec.count("spectra.weight_check.failures")
        raise WeightCheckFailed(f"weights: min {low:.3e}, sum {total!r}")


def check_unit_interval(value: float, what: str, rec: Recorder) -> None:
    rec.count("spectra.weight_check.attempts")
    if not (-WEIGHT_TOL <= value <= 1.0 + WEIGHT_TOL):
        rec.count("spectra.weight_check.failures")
        raise WeightCheckFailed(f"{what} {value!r} outside [0, 1]")


def check_weights_match(got: dict, p, n: int, what: str) -> str:
    """Weights from a matrix route equal ``weights_analytic`` within 1e-9."""
    want = schur_weyl.weights_analytic(p, n)
    if got.keys() != want.keys():
        raise CheckFailed(f"{what} weights have other blocks than the analytic ones")
    err = max(abs(got[lam] - want[lam]) for lam in want)
    if err > WEIGHT_TOL:
        raise CheckFailed(f"{what} weights differ from analytic by {err:.2e}")
    return "ok"


@dataclass
class CliResult:
    code: int
    stdout: str
    stderr: str

    def json(self) -> dict:
        try:
            return json.loads(self.stdout)
        except json.JSONDecodeError as exc:
            raise CheckFailed(f"exit {self.code}, stdout is not JSON: {exc}") from None


class Cli:
    """Runs ``cli.main(argv)`` in-process and checks that a repeated argv
    gives byte-identical output (compared by digest, so that remembering
    every request costs little memory)."""

    def __init__(self):
        self.seen: dict[tuple[str, ...], tuple[int, bytes]] = {}

    def run(self, rec: Recorder, argv: list[str]) -> CliResult:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = rec.call(f"cli.main.{argv[0]}", cli.main, argv)
            except SystemExit as exc:  # usage errors exit through argparse
                code = exc.code
        return CliResult(code, out.getvalue(), err.getvalue())

    def op(self, kind: str, d: int, n: int, argv: list[str],
           check: Callable[[CliResult, Recorder], str]) -> Op:
        def run(rec):
            return self.run(rec, argv)

        def checked(result, rec):
            result = value_of(result)
            digest = (result.code, hashlib.sha256(result.stdout.encode()).digest())
            if self.seen.setdefault(tuple(argv), digest) != digest:
                raise CheckFailed(f"output of {argv} differs from an earlier run")
            try:
                return check(result, rec)
            except KeyError as exc:
                raise CheckFailed(f"output of {argv[0]} lacks {exc}") from None

        return Op(kind, d, n, run, checked)


def expect_exit(result: CliResult, code: int) -> dict:
    if result.code != code:
        raise CheckFailed(f"exit code {result.code}, expected {code}: {result.stderr.strip()}")
    return result.json()


# ----------------------------------------------------------------------
# spectra: matrix-free spectrum queries


SPECTRA_SIZES = (
    (2, 30), (2, 60), (2, 100),
    (3, 12), (3, 20), (3, 28),
    (4, 20), (4, 40), (4, 60),
    (5, 20), (5, 30), (5, 40),
)
SPECTRA_KINDS = ("weights", "decompose", "ideal_fidelity", "large_deviation_bound",
                 "enumerate_partitions")
SWEEP_N_MAX = (20, 40)
# Weights cancel at d >= 4 at this commit: skewed inputs fail every time at
# d=4 n>=40 and d=5 n>=30 and now and then at d=5 n=20, flat-ish ones now
# and then at d=4 n=60 and d=5 n=40.
CANCELLING_MIN_D = 4
CANCELLING_KINDS = ("weights", "decompose", "ideal_fidelity", "large_deviation_bound")


class Spectra:
    """Schur-polynomial evaluation and partition enumeration; no matrix is
    built. Skewed d >= 4 inputs stay in the mix: their weights cancel
    catastrophically at this commit, and each such check failure is
    recorded as the known defect."""

    name = "spectra"

    def __init__(self, sizes=SPECTRA_SIZES, sweeps=SWEEP_N_MAX):
        self.sizes, self.sweeps = sizes, sweeps
        self.cli = Cli()

    def setup(self, rng):
        pass

    def round(self, rng: np.random.Generator, index: int) -> list[Op]:
        ops = []
        # Which (kind, size) pairs get a skewed spectrum is fixed, so every
        # round costs the same; each kind still meets skewed d >= 4 inputs.
        for i, (d, n) in enumerate(self.sizes):
            for j, kind in enumerate(SPECTRA_KINDS):
                skewed = (i + j) % 2 == 0
                p = skewed_spectrum(rng, d) if skewed else flat_spectrum(rng, d)
                ops.append(self._op(kind, d, n, p))
        for k, n_max in enumerate(self.sweeps):
            p = skewed_spectrum(rng, 2) if k % 2 == 0 else flat_spectrum(rng, 2)
            ops.append(self._sweep(p[0], n_max))
        return [ops[i] for i in rng.permutation(len(ops))]

    def _op(self, kind, d, n, p) -> Op:
        op = self._make_op(kind, d, n, p)
        op.known_defect = d >= CANCELLING_MIN_D and kind in CANCELLING_KINDS
        return op

    def _make_op(self, kind, d, n, p) -> Op:
        blocks = count_partitions(n, d)

        if kind == "weights":
            def run(rec):
                return rec.call("schur_weyl.weights_analytic",
                                schur_weyl.weights_analytic, p, n)

            def check(result, rec):
                rec.count("partitions.blocks_evaluated", blocks)
                check_weights(value_of(result).values(), rec)
                return "ok"

            return Op(kind, d, n, run, check)

        if kind == "decompose":
            def check_decompose(result, rec):
                rec.count("partitions.blocks_evaluated", blocks)
                payload = expect_exit(result, 0)
                check_weights(payload["weights"].values(), rec)
                return "ok"

            argv = ["decompose", "--schmidt", spectrum_arg(p), "--n", str(n)]
            return self.cli.op(kind, d, n, argv, check_decompose)

        if kind == "ideal_fidelity":
            def run(rec):
                return rec.call("teleport.ideal_fidelity", teleport.ideal_fidelity, p, n)

            def check(result, rec):
                rec.count("partitions.blocks_evaluated", blocks)
                check_unit_interval(value_of(result), "retained weight", rec)
                return "ok"

            return Op(kind, d, n, run, check)

        if kind == "large_deviation_bound":
            def region(q):  # blocks whose point lies 0.1 or more from the spectrum
                return max(abs(a - b) for a, b in zip(q, p)) >= 0.1

            def run(rec):
                return rec.call("partitions.large_deviation_bound",
                                partitions.large_deviation_bound, p, region, n)

            def check(result, rec):
                lhs, rhs, holds = value_of(result)
                members = sum(region(lam.normalized())
                              for lam in partitions.enumerate_partitions(n, d))
                rec.count("partitions.blocks_evaluated", members)
                check_unit_interval(lhs, "region weight", rec)
                if not holds or lhs > rhs:
                    raise CheckFailed(f"bound violated: {lhs!r} > {rhs!r}")
                return "ok"

            return Op(kind, d, n, run, check)

        def run(rec):
            return rec.call("partitions.enumerate_partitions",
                            partitions.enumerate_partitions, n, d)

        def check(result, rec):
            lams = value_of(result)
            if len(lams) != blocks:
                raise CheckFailed(f"{len(lams)} partitions, expected {blocks}")
            if any(lam.n != n or len(lam.parts) != d for lam in lams):
                raise CheckFailed("partition of the wrong size")
            return "ok"

        return Op("enumerate_partitions", d, n, run, check)

    def _sweep(self, p1: float, n_max: int) -> Op:
        blocks = sum(count_partitions(m, 2) for m in range(1, n_max + 1))

        def check(result, rec):
            rec.count("partitions.blocks_evaluated", blocks)
            if result.code != 0:
                raise CheckFailed(f"exit code {result.code}: {result.stderr.strip()}")
            rows = result.stdout.strip().splitlines()
            if rows[0] != "n,fidelity,bound" or len(rows) != n_max + 1:
                raise CheckFailed("malformed bound-sweep CSV")
            for row in rows[1:]:
                _, fid, bound = (float(x) for x in row.split(","))
                check_unit_interval(fid, "retained weight", rec)
                if fid < bound - WEIGHT_TOL:
                    raise CheckFailed(f"fidelity {fid!r} below its lower bound {bound!r}")
            return "ok"

        argv = ["bound-sweep", "--p1", repr(p1), "--n-max", str(n_max)]
        return self.cli.op("bound-sweep", 2, n_max, argv, check)


# ----------------------------------------------------------------------
# basis: cold block-basis construction


BASIS_SIZES = (
    tuple((2, n) for n in range(6, 13))
    + tuple((3, n) for n in range(3, 7))
    + tuple((4, n) for n in range(2, 6))
    + tuple((5, n) for n in range(2, 5))
)
PROJECTOR_SIZES = ((2, 6), (2, 7), (3, 3), (3, 4), (3, 5), (3, 6))


def block_width_sum(basis) -> int:
    return sum(b.dim_u * b.dim_v for b in basis.blocks.values())


def check_orthonormal(basis, rng: np.random.Generator) -> None:
    """Block widths sum to d^n, and the columns are orthonormal: for random
    unit probes r, |B^T B r - r| <= 1e-10."""
    dim = basis.d ** basis.n
    if block_width_sum(basis) != dim:
        raise CheckFailed(f"block widths sum to {block_width_sum(basis)}, not {dim}")
    probes = rng.standard_normal((dim, 4))
    probes /= np.linalg.norm(probes, axis=0)
    image = np.zeros((dim, 4))
    offset = 0
    for block in basis.blocks.values():
        width = block.vectors.shape[1]
        image += block.vectors @ probes[offset:offset + width]
        offset += width
    back = np.vstack([block.vectors.T @ image for block in basis.blocks.values()])
    err = float(np.linalg.norm(back - probes, axis=0).max())
    if err > ORTHONORMAL_TOL:
        raise CheckFailed(f"columns not orthonormal: probe error {err:.2e}")


def check_same(got, built, what: str) -> str:
    """A reloaded basis is bit-identical to the one built before it."""
    if built is None:
        raise CheckFailed(f"no checked basis to compare the {what} one with")
    if got.blocks.keys() != built.blocks.keys() or not all(
            np.array_equal(got.blocks[lam].vectors, built.blocks[lam].vectors)
            for lam in got.blocks):
        raise CheckFailed(f"{what} basis is not bit-identical")
    return "ok"


class Basis:
    """Cold construction of block bases, the write side of schur_weyl.

    The sizes are visited round-robin in ladder order. The order is fixed,
    not seeded, because the library keeps class sums in a bounded cache: a
    seeded order changed which of them were held at the largest build, and
    peak RSS with it. Every commit and every seed shows the cache the same
    reuse pattern. Each size is built once per round, half of the sizes
    with ``build_schur_basis`` followed by ``save_basis`` and
    ``load_basis``, the other half through ``load_or_build_basis`` into a
    fresh cache directory, first as a miss (build and save), then as a hit
    (load). The halves swap every round; both routes do one build, one save
    and one load, so every round costs the same.
    """

    name = "basis"

    def __init__(self, scratch: Path, sizes=BASIS_SIZES, projector_sizes=PROJECTOR_SIZES):
        self.scratch = scratch
        self.sizes, self.projector_sizes = sizes, projector_sizes

    def setup(self, rng):
        pass

    def round(self, rng: np.random.Generator, index: int) -> list[Op]:
        ops = []
        for i, (d, n) in enumerate(self.sizes):
            seed = small_seed(rng)
            probe_rng = np.random.default_rng(small_seed(rng))
            directory = Path(tempfile.mkdtemp(prefix=f"r{index}_", dir=self.scratch))
            if (i + index) % 2 == 0:
                ops += self._build_save_load(d, n, seed, directory, probe_rng)
            else:
                ops += self._load_or_build(d, n, seed, directory, probe_rng)
            if (d, n) in self.projector_sizes:
                ops.append(self._projector(d, n, flat_spectrum(rng, d)))
        return ops

    def _build_save_load(self, d, n, seed, directory, probe_rng) -> list[Op]:
        built = {}
        path = directory / f"basis_n{n}_d{d}.npz"

        def build(rec):
            return rec.call("schur_weyl.build_schur_basis",
                            schur_weyl.build_schur_basis, n, d, seed)

        def check_build(result, rec):
            basis = value_of(result)
            rec.count("schur_weyl.basis_columns_built", d**n)
            check_orthonormal(basis, probe_rng)
            built["basis"] = basis
            return "ok"

        def save(rec):
            return rec.call("schur_weyl.save_basis", schur_weyl.save_basis,
                            built["basis"], path)

        def check_save(result, rec):
            written = Path(value_of(result))
            if not written.is_file():
                raise CheckFailed(f"save_basis wrote no file at {written}")
            rec.count("schur_weyl.npz_bytes_written", written.stat().st_size)
            built["path"] = written
            return "ok"

        def load(rec):
            return rec.call("schur_weyl.load_basis", schur_weyl.load_basis, built["path"])

        def check_load(result, rec):
            shutil.rmtree(directory)
            return check_same(value_of(result), built.pop("basis", None), "reloaded")

        return [Op("build_schur_basis", d, n, build, check_build),
                Op("save_basis", d, n, save, check_save),
                Op("load_basis", d, n, load, check_load)]

    def _load_or_build(self, d, n, seed, directory, probe_rng) -> list[Op]:
        first = {}

        def lookup(rec):
            return rec.call("schur_weyl.load_or_build_basis",
                            schur_weyl.load_or_build_basis, n, d, seed, directory)

        def new_files(before: set) -> list[Path]:
            return [p for p in directory.iterdir() if p not in before]

        def miss(rec):
            first["before"] = set(directory.iterdir())
            return lookup(rec)

        def check_miss(result, rec):
            basis = value_of(result)
            written = new_files(first["before"])
            if not written:
                raise CheckFailed("cache lookup in an empty directory wrote no file")
            rec.count("schur_weyl.load_or_build_basis.misses")
            rec.count("schur_weyl.basis_columns_built", d**n)
            rec.count("schur_weyl.npz_bytes_written", sum(p.stat().st_size for p in written))
            check_orthonormal(basis, probe_rng)
            first["basis"] = basis
            return "ok"

        def hit(rec):
            first["before"] = set(directory.iterdir())
            return lookup(rec)

        def check_hit(result, rec):
            basis = value_of(result)
            if new_files(first["before"]):
                raise CheckFailed("second lookup missed the cache")
            rec.count("schur_weyl.load_or_build_basis.hits")
            shutil.rmtree(directory)
            return check_same(basis, first.pop("basis", None), "cached")

        return [Op("load_or_build_basis.miss", d, n, miss, check_miss),
                Op("load_or_build_basis.hit", d, n, hit, check_hit)]

    def _projector(self, d, n, p) -> Op:
        phi = state_from_schmidt(p)

        def run(rec):
            return rec.call("schur_weyl.weights_by_projector",
                            schur_weyl.weights_by_projector, phi, n)

        def check(result, rec):
            return check_weights_match(value_of(result), p, n, "projector")

        return Op("weights_by_projector", d, n, run, check)


# ----------------------------------------------------------------------
# teleport: warm protocol runs


TELEPORT_SIZES = (
    tuple((2, n) for n in range(2, 7))
    + tuple((3, n) for n in range(2, 5))
    + tuple((4, n) for n in range(2, 4))
)


def teleport_dense_bytes(d: int, n: int, status: str) -> int:
    """Bytes of the dense complex arrays a run computes, from their shapes.

    A completed run holds the d^(2n) x d^(2n) transcript density plus five
    d^n x d^n matrices (tensor power, coefficients, projected, conditioned,
    final coefficients); a product state stops after the first three.
    """
    square = 16 * d ** (2 * n)
    if status == "ok":
        return 16 * d ** (4 * n) + 5 * square
    if status == "nothing_to_teleport":
        return 3 * square
    return 0


def check_fidelities(fidelity: float, success_prob: float, p, n: int) -> None:
    """Both equal ``ideal_fidelity`` of the spectrum within 1e-9."""
    want = teleport.ideal_fidelity(p, n)
    for name, got in (("fidelity", fidelity), ("success_prob", success_prob)):
        if abs(got - want) > WEIGHT_TOL:
            raise CheckFailed(f"{name} {got!r} != ideal_fidelity {want!r}")


def counting_failures(check):
    """The check, counting each failure in teleport.outcomes.check_failures."""
    def counted(result, rec):
        try:
            return check(result, rec)
        except CheckFailed:
            rec.count("teleport.outcomes.check_failures")
            raise

    return counted


class Teleport:
    """Warm protocol runs, the read side of schur_weyl plus the dense
    d^(2n) arithmetic in teleport. Every basis is built in set-up."""

    name = "teleport"

    def __init__(self, sizes=TELEPORT_SIZES):
        self.sizes = sizes
        self.cli = Cli()
        self.cli_pool: dict[tuple[int, int], list[list[str]]] = {}

    def setup(self, rng):
        for d, n in self.sizes:
            # same positional key as the library's own calls, so the
            # memoized basis is the one the protocol runs look up
            schur_weyl.schur_basis(n, d, 0)
            seeds = [str(small_seed(rng)) for _ in range(3)]
            self.cli_pool[(d, n)] = [
                ["teleport", "--schmidt", spectrum_arg(flat_spectrum(rng, d)),
                 "--n", str(n), "--seed", seeds[0]],
                ["teleport", "--schmidt", spectrum_arg(skewed_spectrum(rng, d)),
                 "--n", str(n), "--seed", seeds[1]],
                ["teleport", "--state", "product", "--d", str(d), "--n", str(n),
                 "--seed", seeds[2]],
            ]

    def round(self, rng: np.random.Generator, index: int) -> list[Op]:
        """Per size: an entangled and a product-state run, a standard form,
        and two CLI requests (one entangled, one product) whose argv repeat
        across rounds, so that their output can be compared byte for
        byte."""
        ops = []
        for i, (d, n) in enumerate(self.sizes):
            skewed = (i + index) % 2 == 0
            p = skewed_spectrum(rng, d) if skewed else flat_spectrum(rng, d)
            ops.append(self._run(d, n, p, small_seed(rng)))
            ops.append(self._run(d, n, (1.0,) + (0.0,) * (d - 1), small_seed(rng)))
            ops.append(self._standard_form(d, n, flat_spectrum(rng, d)))
            pool = self.cli_pool[(d, n)]
            for argv in (pool[index % 2], pool[2]):
                ops.append(self.cli.op("cli.teleport", d, n, argv, self._check_cli(d, n)))
        return [ops[i] for i in rng.permutation(len(ops))]

    def _run(self, d, n, p, seed) -> Op:
        product = p[0] == 1.0
        phi = product_state(d) if product else state_from_schmidt(p)

        def run(rec):
            return rec.call("teleport.run_teleport", teleport.run_teleport, phi, n, seed)

        def check(result, rec):
            if product and isinstance(result, teleport.NothingToTeleportError):
                return self._outcome(rec, d, n, "nothing_to_teleport")
            res = value_of(result)
            if product and res.status != "vacuous":
                raise CheckFailed(f"product state gave status {res.status}")
            check_fidelities(res.fidelity, res.success_prob, p, n)
            return self._outcome(rec, d, n, res.status)

        return Op("run_teleport.product" if product else "run_teleport", d, n, run,
                  counting_failures(check))

    @staticmethod
    def _outcome(rec, d, n, status) -> str:
        rec.count(f"teleport.outcomes.{status}")
        rec.count("teleport.dense_bytes_computed", teleport_dense_bytes(d, n, status))
        return status

    def _standard_form(self, d, n, p) -> Op:
        phi = state_from_schmidt(p)

        def run(rec):
            return rec.call("schur_weyl.standard_form", schur_weyl.standard_form, phi, n)

        def check(result, rec):
            return check_weights_match(value_of(result).weights, p, n, "standard_form")

        return Op("standard_form", d, n, run, check)

    def _check_cli(self, d, n):
        def check(result, rec):
            payload = result.json()
            if payload.get("error") == "nothing-to-teleport":
                if result.code != 1 or payload["fidelity"] != 0.0:
                    raise CheckFailed("nothing-to-teleport with the wrong exit or fidelity")
                return self._outcome(rec, d, n, "nothing_to_teleport")
            if result.code != 0:
                raise CheckFailed(f"exit code {result.code}: {result.stderr.strip()}")
            check_fidelities(payload["fidelity"], payload["success_prob"],
                             payload["schmidt_spectrum"], n)
            return self._outcome(rec, d, n, payload["status"])

        return counting_failures(check)


# ----------------------------------------------------------------------
# adaptive: protocol runtime and estimation


TWO_STAGE_N = 400
TWO_STAGE_TRIALS = 16
PROTOCOL_SIZES = (2, 3, 4)
ADDITIVITY_ROUNDS = (2, 3, 4, 5, 6)
CLI_ADDITIVITY_ROUNDS = 3
ZOO = ("qubit-full", "qubit-conjugate", "real-amplitude", "anticopy-pair")


def random_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    z = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / math.sqrt(2)
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def theta_inside(rng: np.random.Generator, model) -> np.ndarray:
    out = []
    for lo, hi in model.box():
        lo, hi = max(lo, -math.pi), min(hi, math.pi)
        out.append(rng.uniform(lo + 0.2 * (hi - lo), hi - 0.2 * (hi - lo)))
    return np.array(out)


class Adaptive:
    """Python loops and small dense matrices in locc, estimation and
    models. The largest basis is d = 2 n = 4."""

    name = "adaptive"

    def __init__(self, protocol_sizes=PROTOCOL_SIZES, additivity_rounds=ADDITIVITY_ROUNDS,
                 trials=TWO_STAGE_TRIALS):
        self.protocol_sizes = protocol_sizes
        self.additivity_rounds = additivity_rounds
        self.trials = trials
        self.cli = Cli()

    def setup(self, rng):
        pass

    def round(self, rng: np.random.Generator, index: int) -> list[Op]:
        groups = [[self._two_stage(rng)] for _ in range(2)]
        groups += [self._protocol_group(rng, n) for n in self.protocol_sizes]
        groups += [[self._additivity(rng, rounds)] for rounds in self.additivity_rounds]
        for name in ZOO:
            groups.append([self._fisher(rng, name)])
            groups.append([self._measurement(rng, name)])
        groups += [[op] for op in self._cli_ops(rng, index)]
        return [op for i in rng.permutation(len(groups)) for op in groups[i]]

    def _two_stage(self, rng) -> Op:
        model = models.real_amplitude()
        lo, hi = model.box()[0]
        theta = float(rng.uniform(0.5, 2.5))
        seed = small_seed(rng)

        def run(rec):
            return rec.call("locc.two_stage_estimate", locc.two_stage_estimate,
                            model, model, TWO_STAGE_N, self.trials, seed, theta_true=theta)

        def check(result, rec):
            if isinstance(result, locc.EstimationFailureError):
                rec.count("locc.two_stage.estimation_failures")
            report = value_of(result)
            rec.count("locc.two_stage.trials", report.trials)
            est = report.estimates
            if report.trials != self.trials or not np.all(np.isfinite(est)):
                raise CheckFailed("two-stage estimates missing or not finite")
            if np.any(est < lo) or np.any(est > hi):
                raise CheckFailed("two-stage estimate outside the model domain")
            return "ok"

        return Op("two_stage_estimate", 2, TWO_STAGE_N, run, check)

    def _protocol_group(self, rng, n) -> list[Op]:
        shared = {}
        state = bipartite_tensor_power(state_from_schmidt(flat_spectrum(rng, 2)), n).reshape(-1)
        seed = small_seed(rng)

        def build(rec):
            return rec.call("locc.teleport_protocol", locc.teleport_protocol, n)

        def check_build(result, rec):
            protocol = value_of(result)
            if (protocol.dim_a, protocol.dim_b, len(protocol.rounds)) != (2**n, 2**n, 2):
                raise CheckFailed("teleport protocol has the wrong shape")
            shared["protocol"] = protocol
            return "ok"

        def paths(rec):
            return rec.call("locc.enumerate_paths", locc.enumerate_paths,
                            shared["protocol"], state)

        def check_paths(result, rec):
            dist = value_of(result)
            rec.count("locc.enumerate_paths.paths_returned", len(dist))
            total = math.fsum(dist.values())
            if abs(total - 1.0) > PATH_SUM_TOL or min(dist.values()) < 0:
                raise CheckFailed(f"path probabilities sum to {total!r}")
            return "ok"

        def sample(rec):
            return rec.call("locc.run_locc", locc.run_locc, shared["protocol"], state, seed)

        def check_sample(result, rec):
            transcript = value_of(result)
            trace = float(np.real(np.trace(transcript.final_state)))
            prob = transcript.path_probability
            if len(transcript.messages) != 2 or not 0.0 < prob <= 1.0 + PATH_SUM_TOL:
                raise CheckFailed(f"transcript path probability {prob!r}")
            if abs(trace - 1.0) > PATH_SUM_TOL:
                raise CheckFailed(f"final state has trace {trace!r}")
            return "ok"

        return [Op("teleport_protocol", 2, n, build, check_build),
                Op("enumerate_paths", 2, n, paths, check_paths),
                Op("run_locc", 2, n, sample, check_sample)]

    def _additivity(self, rng, rounds) -> Op:
        protocol = locc.random_adaptive_protocol(rng, rounds=rounds)
        model_a = locc.random_qubit_model(rng)
        model_b = locc.random_qubit_model(rng)
        theta = [float(rng.uniform(-1.0, 1.0))]

        def run(rec):
            return rec.call("locc.verify_fisher_additivity", locc.verify_fisher_additivity,
                            protocol, model_a, model_b, theta)

        def check(result, rec):
            cross = value_of(result).cross
            if not cross <= CROSS_TOL:
                raise CheckFailed(f"additivity cross term {cross:.2e}")
            return "ok"

        return Op("verify_fisher_additivity", 2, rounds, run, check)

    def _fisher(self, rng, name) -> Op:
        model = models.get_model(name)
        theta = theta_inside(rng, model)

        def run(rec):
            return rec.call("estimation.fisher_data", estimation.fisher_data, model, theta)

        def check(result, rec):
            betas = value_of(result).betas
            if not all(0.0 <= b <= 1.0 for b in betas):
                raise CheckFailed(f"betas outside [0, 1]: {betas}")
            return "ok"

        return Op("fisher_data", model.param_dim, 0, run, check)

    def _measurement(self, rng, name) -> Op:
        model = models.get_model(name)
        theta = theta_inside(rng, model)
        dim = model.state(theta).size
        u = random_unitary(rng, dim)
        povm = estimation.Povm(tuple(np.outer(u[:, k], u[:, k].conj()) for k in range(dim)))

        def run(rec):
            return rec.call("estimation.measurement_fisher", estimation.measurement_fisher,
                            povm, model, theta)

        def check(result, rec):
            j_m = value_of(result)
            j_s = estimation.fisher_data(model, theta).j_s
            low = float(np.linalg.eigvalsh(4 * j_s - j_m).min())
            if low < -1e-8 * max(1.0, float(np.abs(j_s).max())):
                raise CheckFailed(f"J_M exceeds 4 J_S (eigenvalue {low:.2e})")
            return "ok"

        return Op("measurement_fisher", dim, model.param_dim, run, check)

    def _cli_ops(self, rng, index) -> list[Op]:
        """One request of each of the six commands. The ``gap`` sign and the
        ``anticopy`` angles alternate between rounds."""
        sign, theta = (("+", "1.0,0.7"), ("-", "0.9,0.4"))[index % 2]
        model = ZOO[int(rng.integers(len(ZOO)))]
        point = ",".join(f"{x:.6f}" for x in theta_inside(rng, models.get_model(model)))
        beta_a, beta_b = (f"{x:.6f}" for x in rng.uniform(0.0, 1.0, 2))
        weight_a, weight_b = (f"{x:.6f}" for x in rng.uniform(0.5, 2.0, 2))
        states = ["bell", spectrum_arg(flat_spectrum(rng, 2)),
                  spectrum_arg(skewed_spectrum(rng, 2))]
        return [
            self.cli.op("cli.fisher", 2, 0, ["fisher", "--model", model, "--theta", point],
                        check_cli_fisher),
            self.cli.op("cli.gap", 2, 0, ["gap", "--a", weight_a, "--b", weight_b,
                                          "--betaA", beta_a, "--betaB", beta_b,
                                          "--sign", sign],
                        check_cli_gap),
            self.cli.op("cli.anticopy", 2, 0, ["anticopy", "--theta", theta],
                        check_cli_anticopy),
            self.cli.op("cli.detect", 2, 0, ["detect", "--states", *states],
                        check_cli_detect),
            self.cli.op("cli.additivity", 2, CLI_ADDITIVITY_ROUNDS,
                        ["additivity", "--rounds", str(CLI_ADDITIVITY_ROUNDS),
                         "--seed", str(small_seed(rng)),
                         "--theta", f"{rng.uniform(-1.0, 1.0):.6f}"],
                        check_cli_additivity),
            self.cli.op("cli.two-stage", 2, TWO_STAGE_N,
                        ["two-stage", "--n", str(TWO_STAGE_N), "--trials", str(self.trials),
                         "--theta", f"{rng.uniform(0.5, 2.5):.6f}", "--seed", str(small_seed(rng))],
                        check_cli_two_stage),
        ]


def check_cli_fisher(result, rec):
    betas = expect_exit(result, 0)["betas"]
    if not all(0.0 <= b <= 1.0 for b in betas):
        raise CheckFailed(f"betas outside [0, 1]: {betas}")
    return "ok"


def check_cli_gap(result, rec):
    gap = expect_exit(result, 0)["gap"]
    if not gap >= -1e-12:
        raise CheckFailed(f"negative gap {gap!r}")
    return "ok"


def check_cli_anticopy(result, rec):
    payload = expect_exit(result, 0)
    if abs(payload["betaA"] - 1) > 1e-8 or abs(payload["betaB"] - 1) > 1e-8 \
            or abs(payload["betaProduct"]) > 1e-8:
        raise CheckFailed("anticopy angles are not (1, 1, 0)")
    return "ok"


def check_cli_detect(result, rec):
    payload = expect_exit(result, 0)
    if not 0.0 <= payload["max_pairwise_overlap_sq"] <= 1.0 + 1e-12:
        raise CheckFailed("overlap outside [0, 1]")
    return "ok"


def check_cli_additivity(result, rec):
    cross = expect_exit(result, 0)["cross"]
    if not cross <= CROSS_TOL:
        raise CheckFailed(f"additivity cross term {cross:.2e}")
    return "ok"


def check_cli_two_stage(result, rec):
    payload = expect_exit(result, 0)
    if not (math.isfinite(payload["mse"]) and math.isfinite(payload["n_mse"])):
        raise CheckFailed("two-stage error is not finite")
    return "ok"


def make_workload(name: str, scratch: Path, tiny: bool = False):
    """The named workload at its stated size mix, or at a tiny mix for the
    benchmark's own tests."""
    if name == "spectra":
        return Spectra(((2, 8), (3, 6), (4, 6), (5, 5)), (6,)) if tiny else Spectra()
    if name == "basis":
        return Basis(scratch, ((2, 3), (3, 3), (4, 2)), ((2, 3), (3, 3))) if tiny \
            else Basis(scratch)
    if name == "teleport":
        return Teleport(((2, 2), (2, 3), (3, 2))) if tiny else Teleport()
    if name == "adaptive":
        return Adaptive((2,), (2,), 2) if tiny else Adaptive()
    raise KeyError(f"unknown workload '{name}'")
