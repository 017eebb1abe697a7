"""A seeded sweep of the CLI: argv drawn from fixed seeds, valid and hostile,
each run in-process through ``cli.main``, must end in one of four ways.

- exit 0 with parseable, finite stdout, in which probabilities, fidelities
  and weights lie in [0, 1], weights sum to 1 within 1e-9, and a bound is at
  most its fidelity;
- exit 1 with empty stdout and one JSON line on stderr, which is how an
  ``additivity`` run of 17 rounds or more must end;
- exit 1 with ``teleport``'s ``nothing-to-teleport`` record;
- exit 2, a usage error.

The commands are read from ``cli.build_parser()``, so a command without a
generator here fails the sweep.
"""

import argparse
import contextlib
import csv
import io
import json
import math
import warnings
import zlib

import numpy as np
import pytest

from locclab import cli

# drawn in place of a valid value, one option at a time; time is not
# guarded, so a large count is drawn only where a size guard refuses it
HOSTILE_FLOATS = ["nan", "inf", "-inf", "0", "-1", "-0.5", "1e300", "-1e300", "abc", "", "1e-320"]
HOSTILE_COUNTS = ["0", "-1", "-7", "2.5", "1e3", "abc", "", "nan"]
HOSTILE_SIZES = HOSTILE_COUNTS + ["1000000"]
HOSTILE_SPECTRA = [
    "0.5,0.6", "0.3,0.3", "0.4,0.6", "1,-0.1,0.1", "nan,1", "0.5,inf", "a,b", "", "1",
    "0.7,0.3,", "1e300,-1e300", "0.25,0.25,0.25,0.25,0.25",
]
ARGV_PER_COMMAND = 56
MAX_N = {2: 8, 3: 5, 4: 4, 5: 3, 6: 3}  # teleport sizes that keep a run small
MAX_DECOMPOSE_N = {2: 100, 3: 60, 4: 60, 5: 30, 6: 20}  # d = 4, n = 60 as in CI


def _commands() -> dict[str, argparse.ArgumentParser]:
    parser = cli.build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return dict(sub.choices)


def _float(rng, lo: float, hi: float) -> str:
    return repr(float(rng.uniform(lo, hi)))


def _spectrum(rng, d: int) -> str:
    p = np.sort(rng.dirichlet(np.full(d, 0.7)))[::-1]
    return ",".join(repr(float(x)) for x in p / p.sum())


def _state(rng, d: int) -> list[str]:
    """A preset of local dimension d, or a Schmidt list of length d, maybe with
    a --d that restates it."""
    if rng.random() < 0.4:
        argv = ["--state", str(rng.choice(["bell", "product"]))]
        return argv + (["--d", str(d)] if d != 2 or rng.random() < 0.5 else [])
    argv = ["--schmidt", _spectrum(rng, d)]
    return argv + (["--d", str(d)] if rng.random() < 0.3 else [])


def _hostile_state(rng) -> list[str]:
    kind = rng.integers(3)
    if kind == 0:
        return ["--schmidt", str(rng.choice(HOSTILE_SPECTRA))]
    if kind == 1:  # a --d that disagrees with the list
        d = int(rng.integers(2, 7))
        return ["--schmidt", _spectrum(rng, d), "--d", str(d + int(rng.integers(1, 3)))]
    return ["--state", "bell", "--d", str(rng.choice(HOSTILE_SIZES))]


def _decompose(rng, tmp_path) -> list[str]:
    d = int(rng.integers(2, 7))
    return ["--n", str(int(rng.integers(1, MAX_DECOMPOSE_N[d] + 1)))] + _state(rng, d)


def _teleport(rng, tmp_path) -> list[str]:
    d = int(rng.integers(2, 7))
    return ["--n", str(int(rng.integers(1, MAX_N[d] + 1)))] + _state(rng, d)


def _bound_sweep(rng, tmp_path) -> list[str]:
    if rng.random() < 0.3:  # past n = 78 the bound at p1 = 0.6 is positive
        return ["--p1", "0.6", "--n-max", str(int(rng.integers(79, 200)))]
    return ["--p1", _float(rng, 0.5, 1.0), "--n-max", str(int(rng.integers(1, 120)))]


def _fisher(rng, tmp_path) -> list[str]:
    if rng.random() < 0.3:
        thetas = [0.9, 1.0, 1.1]
        states = [[[math.cos(t / 2), 0.0], [math.sin(t / 2), 0.0]] for t in thetas]
        family = tmp_path / "family.json"
        family.write_text(json.dumps({"thetas": thetas, "states": states}))
        return ["--model-json", str(family), "--theta", str(rng.choice(["0.9", "1.0", "1.1"]))]
    model = str(rng.choice(["qubit-full", "qubit-conjugate", "real-amplitude"]))
    theta = [_float(rng, 0.01, math.pi - 0.01)]
    if model != "real-amplitude":
        theta.append(_float(rng, -10.0, 10.0))
    return ["--model", model, "--theta", ",".join(theta)]


def _gap(rng, tmp_path) -> list[str]:
    return ["--a", _float(rng, 0.0, 5.0), "--b", _float(rng, 0.0, 5.0),
            "--betaA", _float(rng, 0.0, 1.0), "--betaB", _float(rng, 0.0, 1.0),
            "--sign", str(rng.choice(["+", "-"]))]


def _anticopy(rng, tmp_path) -> list[str]:
    return ["--theta", _float(rng, 0.01, math.pi - 0.01) + "," + _float(rng, -10.0, 10.0)]


def _detect(rng, tmp_path) -> list[str]:
    d = int(rng.integers(2, 7))
    states = [str(rng.choice(["bell", "product"])) if rng.random() < 0.3 else _spectrum(rng, d)
              for _ in range(int(rng.integers(2, 5)))]
    return ["--states", *states] + (["--d", str(d)] if rng.random() < 0.5 else [])


def _additivity(rng, tmp_path) -> list[str]:
    # from 17 rounds on the walk would pass the path limit, and is refused
    rounds = rng.integers(17, 41) if rng.random() < 0.25 else rng.integers(0, 6)
    return ["--rounds", str(int(rounds)), "--theta", _float(rng, -math.pi, math.pi)]


def _past_the_path_limit(argv: list[str]) -> bool:
    value = argv[argv.index("--rounds") + 1] if "--rounds" in argv else ""
    return argv[0] == "additivity" and value.isdigit() and int(value) >= 17


def _two_stage(rng, tmp_path) -> list[str]:
    argv = ["--n", str(int(rng.integers(25, 1000))), "--trials", str(int(rng.integers(0, 24))),
            "--theta", _float(rng, 0.01, math.pi - 0.01)]
    if rng.random() < 0.3:
        argv += ["--model", str(rng.choice(["real-amplitude", "qubit-full"]))]
    return argv + (["--format", "csv"] if rng.random() < 0.5 else [])


GENERATORS = {
    "decompose": _decompose,
    "teleport": _teleport,
    "bound-sweep": _bound_sweep,
    "fisher": _fisher,
    "gap": _gap,
    "anticopy": _anticopy,
    "detect": _detect,
    "additivity": _additivity,
    "two-stage": _two_stage,
}


def _spoil(rng, argv: list[str]) -> list[str]:
    """argv with one hostile change: an option's value replaced, a state
    replaced, an option dropped, or an unknown option added."""
    kind = rng.integers(4)
    values = [k for k in range(1, len(argv)) if argv[k - 1].startswith("--")
              and not argv[k].startswith("--")]
    if kind == 0 and values:
        k = int(rng.choice(values))
        pool = {"--n": HOSTILE_SIZES, "--n-max": HOSTILE_SIZES, "--d": HOSTILE_SIZES,
                "--seed": HOSTILE_SIZES, "--rounds": HOSTILE_SIZES,
                "--trials": HOSTILE_COUNTS}.get(argv[k - 1], HOSTILE_FLOATS)
        return argv[:k] + [str(rng.choice(pool))] + argv[k + 1:]
    if kind == 1 and ("--schmidt" in argv or "--state" in argv):
        drop = {"--schmidt", "--state", "--d"}
        kept = [a for k, a in enumerate(argv)
                if a not in drop and (k == 0 or argv[k - 1] not in drop)]
        return kept + _hostile_state(rng)
    if kind == 2 and values:
        k = int(rng.choice(values))
        return argv[:k - 1] + argv[k + 1:]
    return argv + ["--no-such-option"]


def _draw(command: str, tmp_path) -> list[list[str]]:
    rng = np.random.default_rng([20261019, zlib.crc32(command.encode())])
    out = []
    for _ in range(ARGV_PER_COMMAND):
        argv = [command] + GENERATORS[command](rng, tmp_path)
        if rng.random() < 0.5:
            argv += ["--seed", str(int(rng.integers(0, 100)))]
        out.append(_spoil(rng, argv) if rng.random() < 0.4 else argv)
    return out


def _run(argv: list[str]) -> tuple[int, str, str, list]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue(), caught


def _refuse_non_finite(token: str):
    raise ValueError(f"non-finite number {token} in stdout")


def _check_unit(value, what: str) -> None:
    assert 0.0 <= value <= 1.0, (what, value)


def _check_record(command: str, text: str) -> None:
    """The figures of a successful run: parseable, finite, in range."""
    if command in ("bound-sweep", "two-stage") and not text.startswith("{"):
        rows = list(csv.reader(io.StringIO(text)))
        assert rows[0] in (["n", "fidelity", "bound"], ["trial", "estimate", "squared_error"])
        values = [[float(x) for x in row] for row in rows[1:]]
        assert all(math.isfinite(x) for row in values for x in row)
        if rows[0][0] == "n":
            assert [row[0] for row in values] == list(range(1, len(values) + 1))
            for _, fidelity, bound in values:
                _check_unit(fidelity, "fidelity")
                assert bound <= fidelity, (bound, fidelity)
        return
    record = json.loads(text, parse_constant=_refuse_non_finite)
    # byte for byte the stdlib's indented encoding of what it holds
    assert text == json.dumps(record, indent=2, sort_keys=True) + "\n"
    assert record["command"] == command
    if "weights" in record:
        for label, weight in record["weights"].items():
            _check_unit(weight, label)
        assert abs(math.fsum(record["weights"].values()) - 1.0) <= 1e-9
        assert abs(record["weight_sum"] - 1.0) <= 1e-9
    for key in ("success_prob", "fidelity", "unconditional_fidelity",
                "max_pairwise_overlap_sq", "max_largest_schmidt"):
        if key in record:
            _check_unit(record[key], key)
    if "bound" in record:
        assert record["bound"] <= record["fidelity"], record


def test_every_command_has_a_generator():
    assert set(_commands()) == set(GENERATORS)


@pytest.mark.parametrize("command", sorted(_commands()))
def test_seeded_argv_end_in_one_of_four_ways(command, tmp_path, monkeypatch):
    monkeypatch.delenv(cli.OUTPUT_DIR_ENV, raising=False)
    codes = set()
    for argv in _draw(command, tmp_path):
        code, out, err, caught = _run(argv)
        codes.add(code)
        if code != 2 and _past_the_path_limit(argv):
            assert code == 1 and out == "" and "path count exceeds" in err, argv
        if code == 0:
            _check_record(command, out)
        elif code == 1 and out:
            record = json.loads(out)
            assert command == "teleport" and record["error"] == "nothing-to-teleport", argv
            assert err == "" and record["fidelity"] == 0.0 == record["success_prob"], argv
        elif code == 1:
            lines = err.splitlines()
            assert len(lines) == 1 and not caught, (argv, err, caught)
            assert set(json.loads(lines[0])) == {"error", "message"}, argv
        else:
            assert code == 2, (argv, code, out, err)
    assert 0 in codes, command  # the sweep reaches a valid run of every command
