import collections
import importlib
import json
import math
import os
import pkgutil
import random
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

import locclab
from locclab import cli, estimation, locc, partitions, teleport
from locclab.cli import main
from locclab.partitions import Partition, enumerate_partitions
from locclab.teleport import ideal_fidelity


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


def test_consecutive_in_process_calls_share_no_state(capsys):
    run_json(capsys, "teleport", "--state", "bell", "--n", "4", "--seed", "3")
    payload = run_json(capsys, "decompose", "--state", "bell", "--n", "4")
    assert payload["seed"] == 0
    with pytest.raises(SystemExit) as exc:
        main(["decompose", "--n", "4"])
    assert exc.value.code == 2
    assert run_json(capsys, "decompose", "--state", "bell", "--n", "4") == payload


# ---------------------------------------------------------------- decompose


def test_decompose_bell_n4(capsys):
    payload = run_json(capsys, "decompose", "--state", "bell", "--n", "4")
    assert payload["weights"]["(3,1)"] == pytest.approx(0.5625, abs=1e-12)
    assert payload["good_set"] == ["(2,2)", "(3,1)"]
    assert payload["dims"]["(3,1)"] == {"dim_u": 3, "dim_v": 3}
    assert payload["seed"] == 0


def test_decompose_product_n3(capsys):
    payload = run_json(capsys, "decompose", "--state", "product", "--n", "3")
    weights = {k: v for k, v in payload["weights"].items() if v > 1e-15}
    assert weights == {"(3,0)": pytest.approx(1.0)}


def test_decompose_custom_schmidt(capsys):
    payload = run_json(capsys, "decompose", "--schmidt", "0.8,0.2", "--n", "6")
    assert payload["weight_sum"] == pytest.approx(1.0, abs=1e-12)


def test_decompose_skewed_d4_n60(capsys):
    payload = run_json(
        capsys, "decompose", "--schmidt", "0.97,0.01,0.01,0.01", "--n", "60"
    )
    assert abs(payload["weight_sum"] - 1.0) <= 1e-9
    assert min(payload["weights"].values()) >= 0.0


def test_a_cold_decompose_computes_each_dimension_once(capsys, monkeypatch):
    calls = collections.Counter()

    def counted(func):
        def wrapper(lam, *rest):
            calls[func.__name__, lam] += 1
            return func(lam, *rest)

        return wrapper

    # every module that holds its own name for any of the functions; a table
    # build reads dim_v's formula (_dim_v) with one factorial table
    originals = (partitions.dim_u, partitions.dim_v, partitions._dim_v)
    for info in pkgutil.iter_modules(locclab.__path__):
        module = importlib.import_module(f"locclab.{info.name}")
        for func in originals:
            if getattr(module, func.__name__, None) is func:
                monkeypatch.setattr(module, func.__name__, counted(func))
    partitions.block_table.cache_clear()
    run_json(capsys, "decompose", "--schmidt", "0.4,0.3,0.2,0.1", "--n", "60")
    blocks = enumerate_partitions(60, 4)
    assert calls == collections.Counter(
        {(name, lam): 1 for lam in blocks for name in ("dim_u", "_dim_v")}
    )


def test_decompose_formats_each_block_label_once(capsys, monkeypatch):
    calls = collections.Counter()
    label = partitions.Partition.__str__

    def counted(lam):
        calls[lam] += 1
        return label(lam)

    monkeypatch.setattr(partitions.Partition, "__str__", counted)
    partitions.block_table.cache_clear()
    payload = run_json(capsys, "decompose", "--schmidt", "0.4,0.3,0.2,0.1", "--n", "60")
    blocks = enumerate_partitions(60, 4)
    assert calls == collections.Counter(blocks)  # once per memo fill
    assert list(payload["weights"]) == sorted(label(lam) for lam in blocks)
    assert run_json(capsys, "decompose", "--schmidt", "0.4,0.3,0.2,0.1", "--n", "60")
    assert calls == collections.Counter(blocks)  # and not at all on a warm call


def test_decompose_non_distribution_is_a_structured_error(capsys, monkeypatch):
    def negative(p, n):
        return np.full(len(enumerate_partitions(n, len(p))), -1.0)

    monkeypatch.setattr(partitions, "schur_array", negative)
    code, out, err = run_cli(capsys, "decompose", "--schmidt", "0.8,0.2", "--n", "4")
    assert code == 1 and out == ""
    assert json.loads(err)["error"] == "ValueError"


def test_decompose_beyond_float_range_is_a_structured_error(capsys):
    # dim_v of the middle blocks at n=1200 is far above the largest float
    code, out, err = run_cli(capsys, "decompose", "--schmidt", "0.6,0.4", "--n", "1200")
    assert code == 1 and out == ""
    assert json.loads(err)["error"] == "ValueError"


def test_decompose_clips_a_tiny_negative_schmidt_entry(capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy RuntimeWarning fails the test
        code, out, err = run_cli(capsys, "decompose", "--schmidt", "1,-5e-13", "--n", "2")
    assert code == 0 and err == ""
    payload = json.loads(out)
    assert payload["schmidt_spectrum"] == [1.0, 0.0]
    assert min(payload["weights"].values()) >= 0.0


def test_decompose_requires_state(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["decompose", "--n", "3"])
    assert exc.value.code == 2


@pytest.mark.parametrize("command", ["decompose", "teleport"])
def test_state_and_schmidt_are_mutually_exclusive(command, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, "--state", "bell", "--schmidt", "0.9,0.1", "--n", "2"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["decompose", "--schmidt", "0.6,0.4", "--d", "3", "--n", "3"],
        ["teleport", "--schmidt", "0.6,0.4", "--d", "3", "--n", "3"],
        ["detect", "--states", "bell", "0.9,0.1", "--d", "3"],
    ],
    ids=lambda argv: argv[0],
)
def test_d_that_disagrees_with_the_schmidt_list_is_a_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "--d 3 disagrees" in capsys.readouterr().err


def test_d_sets_presets_and_may_restate_the_list_length(capsys):
    default = run_json(capsys, "teleport", "--state", "bell", "--n", "3")
    assert default["d"] == 2
    payload = run_json(capsys, "teleport", "--state", "bell", "--d", "3", "--n", "3")
    assert payload["d"] == 3
    listed = ["decompose", "--schmidt", "0.5,0.3,0.2", "--n", "3"]
    assert run_json(capsys, *listed, "--d", "3") == run_json(capsys, *listed)
    payload = run_json(capsys, "detect", "--states", "bell", "bell", "--d", "3")
    assert payload["max_largest_schmidt"] == pytest.approx(1 / 3)


def test_decompose_malformed_schmidt(capsys):
    code, out, err = run_cli(capsys, "decompose", "--schmidt", "0.2,0.8", "--n", "3")
    assert code == 1
    assert "error" in json.loads(err)


# ---------------------------------------------------------------- teleport


def test_teleport_bell(capsys):
    payload = run_json(capsys, "teleport", "--state", "bell", "--n", "4", "--seed", "7")
    assert payload["fidelity"] == pytest.approx(0.6875, abs=1e-9)
    assert payload["seed"] == 7
    assert payload["status"] == "ok"


def test_teleport_product_structured_error(capsys):
    code, out, err = run_cli(capsys, "teleport", "--state", "product", "--n", "3")
    assert code == 1
    payload = json.loads(out)
    assert payload["error"] == "nothing-to-teleport"
    assert payload["fidelity"] == 0.0


@pytest.mark.parametrize(
    "argv",
    [["--state", "bell", "--d", "1", "--n", "2"], ["--schmidt", "1", "--n", "2"]],
    ids=["bell-d1", "schmidt-1"],
)
def test_teleport_refuses_d1_before_any_basis_is_built(capsys, monkeypatch, argv):
    def fail(*args, **kwargs):
        raise AssertionError("the frame arrays built at d = 1")

    monkeypatch.setattr(teleport, "_schmidt_frame", fail)
    code, out, err = run_cli(capsys, "teleport", *argv)
    assert code == 1 and out == ""
    error = json.loads(err)
    assert error["error"] == "ValueError" and "d = 1" in error["message"]


@pytest.mark.parametrize("d, n", [(45, 1), (36, 2), (44, 1)])
def test_teleport_past_the_bound_float_range_reports_a_finite_vacuous_bound(capsys, d, n):
    payload = run_json(capsys, "teleport", "--state", "bell", "--d", str(d), "--n", str(n))
    assert payload["status"] == "vacuous"
    assert math.isfinite(payload["bound"]) and payload["bound"] <= payload["fidelity"]


def test_decompose_at_n_1_and_d_1000_is_one_block(capsys):
    start = time.perf_counter()
    payload = run_json(capsys, "decompose", "--state", "bell", "--d", "1000", "--n", "1")
    assert time.perf_counter() - start < 5.0
    label = str(Partition((1,) + (0,) * 999))
    assert payload["dims"] == {label: {"dim_u": 1000, "dim_v": 1}}
    assert abs(payload["weights"][label] - 1.0) <= 1e-12


def test_teleport_bell_n8_is_inside_the_budget(capsys):
    payload = run_json(capsys, "teleport", "--state", "bell", "--n", "8")
    assert abs(payload["fidelity"] - ideal_fidelity((0.5, 0.5), 8)) <= 1e-9


def test_a_size_past_the_decimal_conversion_limit_names_the_call_and_budget(capsys):
    # frame_bytes at (2000, 1000) has over 6,000 decimal digits
    code, out, err = run_cli(capsys, "teleport", "--state", "bell", "--d", "1000", "--n", "2000")
    assert code == 1 and out == "" and len(err.splitlines()) == 1
    message = json.loads(err)["message"]
    assert message.startswith("run_teleport at n=2000, d=1000 needs at least 2^")
    assert "budget" in message


def test_a_teleport_past_the_float_edge_is_one_json_line(capsys):
    code, out, err = run_cli(capsys, "teleport", "--schmidt", "0.6,0.4", "--n", "1035")
    assert code == 1 and out == "" and len(err.splitlines()) == 1
    error = json.loads(err)
    assert error == {"error": "ValueError", "message": "a dim_v at n=1035 is beyond the float range"}


@pytest.mark.parametrize(
    "argv",
    [
        ["teleport", "--state", "bell", "--d", "6", "--n", "16"],
        ["decompose", "--state", "bell", "--d", "100000", "--n", "1"],
        ["decompose", "--state", "bell", "--d", "0", "--n", "2"],
        ["detect", "--states", "bell", "product", "--d", "0"],
        ["teleport", "--state", "product", "--d", "0", "--n", "2"],
        ["teleport", "--state", "bell", "--n", "1" + "0" * 400],
    ],
    ids=["teleport-n16", "bell-d100000", "decompose-d0", "detect-d0", "teleport-d0", "teleport-n1e400"],
)
def test_sizes_and_dimensions_outside_the_guards_are_structured_errors(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == ""
    assert json.loads(err)["error"] == "ValueError"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["decompose", "--schmidt", "nan,0.5", "--n", "3"], "outside"),
        (["gap", "--a", "nan", "--b", "1", "--betaA", "0.5", "--betaB", "0.5"], "finite"),
        (["gap", "--a", "1", "--b", "inf", "--betaA", "0.5", "--betaB", "0.5"], "finite"),
        (["additivity", "--theta", "nan"], "norm nan"),
        (["additivity", "--theta", "inf"], "theta inf"),
        (["additivity", "--theta", "1e308"], "theta 1e+308"),
        (["additivity", "--theta", "1e300"], "theta 1e+300"),
        (["additivity", "--rounds", "-1"], "rounds"),
        (["two-stage", "--n", "100", "--trials", "-1"], "trials"),
        (["two-stage", "--theta", "inf"], "theta_true"),
        (["fisher", "--model", "qubit-full", "--theta", "1.0,inf"], "outside the model domain"),
        (["anticopy", "--theta", "1.0,inf"], "outside the model domain"),
    ],
    ids=["decompose-nan", "gap-nan", "gap-inf", "additivity-nan", "additivity-inf",
         "additivity-1e308", "additivity-1e300", "rounds-negative", "trials-negative",
         "two-stage-inf", "fisher-inf", "anticopy-inf"],
)
def test_non_finite_input_and_negative_counts_are_structured_errors(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == ""
    assert len(err.splitlines()) == 1, err
    error = json.loads(err)
    assert error["error"] == "ValueError" and message in error["message"]


def test_a_nan_figure_is_never_printed(capsys, monkeypatch):
    nan = estimation.GapResult(math.nan, math.nan, math.nan)
    monkeypatch.setattr(estimation, "locc_gap", lambda *args: nan)
    argv = ["gap", "--a", "1", "--b", "1", "--betaA", "0.5", "--betaB", "0.5"]
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == ""
    assert json.loads(err)["error"] == "ValueError"
    # the very line the stdlib's indented encoder gives for the same record
    args = cli.build_parser().parse_args(argv)
    record = {**args.func(args), "command": "gap", "seed": 0}
    with pytest.raises(ValueError) as exc:
        json.dumps(record, indent=2, sort_keys=True, allow_nan=False)
    assert err == json.dumps({"error": "ValueError", "message": str(exc.value)}) + "\n"


# ---------------------------------------------------------------- the writer

# strings the writer must encode as the stdlib does: quotes, braces, what looks
# like an item boundary once escaped, control and non-ASCII characters
AWKWARD_STRINGS = ["", "a", '"', "\\", "{", "}", "},\n  {", '},\\n  {"', "[1,\n 2]", "\x00\x1f\t\r",
                   "\u00e9\u4e2d\U0001f600", "\ud800", "\u2028", ": ", ",\n"]
AWKWARD_SCALARS = [None, True, False, 0, -1, 2**70, -(10**30), 0.0, -0.0, 5e-324, 1e308,
                   -1e308, 0.1, 1 / 3, 2.5e-300]


def _random_record(rng, depth: int):
    """A random value: a scalar, or a dict, list or tuple of random values,
    empty ones and dicts of flat dicts among them."""
    roll = rng.random()
    if depth == 0 or roll < 0.35:
        pool = AWKWARD_SCALARS + AWKWARD_STRINGS
        return pool[rng.randrange(len(pool))]
    size = rng.choice([0, 1, 2, 3, 6])
    if roll < 0.55:
        items = [_random_record(rng, depth - 1) for _ in range(size)]
        return tuple(items) if rng.random() < 0.3 else items
    keys = [rng.choice(AWKWARD_STRINGS) + str(i) for i in range(size)] + rng.sample(
        AWKWARD_STRINGS, rng.choice([0, 2])
    )
    if roll < 0.75:  # a dict of flat dicts, some of them empty
        return {key: {inner: rng.choice(AWKWARD_SCALARS) for inner in
                      rng.sample(AWKWARD_STRINGS, rng.choice([0, 1, 2]))} for key in keys}
    return {key: _random_record(rng, depth - 1) for key in keys}


def test_the_writer_is_the_stdlib_indented_encoder_byte_for_byte():
    rng = random.Random(20261020)
    for i in range(600):
        record = _random_record(rng, 4)
        want = json.dumps(record, indent=2, sort_keys=True, allow_nan=False)
        assert cli.dumps(record) == want, (i, record)
        if isinstance(record, (dict, list, tuple)):  # the C route, whatever the size
            assert cli._indented(record, "") == want, (i, record)
    # the CLI's own shapes: a decompose record, and keys that are not strings
    args = cli.build_parser().parse_args(["decompose", "--schmidt", "0.4,0.3,0.2,0.1", "--n", "12"])
    for record in (cli.cmd_decompose(args), {3: 1.0, 1: [2]}, {2.5: 1, 1.5: {}}):
        assert cli.dumps(record) == json.dumps(record, indent=2, sort_keys=True, allow_nan=False)


@pytest.mark.parametrize(
    "record",
    [{"a": math.nan}, {"b": {"c": [1.0, -math.inf]}}, {"d": {"e": {"f": math.inf}}},
     {math.nan: 1}, {"g": object()}, {"h": 1, 2: 3}],
)
def test_the_writer_raises_what_the_stdlib_encoder_raises(record):
    with pytest.raises((TypeError, ValueError)) as want:
        json.dumps(record, indent=2, sort_keys=True, allow_nan=False)
    with pytest.raises(want.type) as got:
        cli.dumps(record)
    assert str(got.value) == str(want.value)


# ---------------------------------------------------------------- bound sweep


def test_bound_sweep_rows(capsys):
    code, out, err = run_cli(capsys, "bound-sweep", "--p1", "0.5", "--n-max", "30")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "n,fidelity,bound"
    assert len(lines) == 31
    final = lines[-1].split(",")
    assert float(final[1]) >= 0.99
    for line in lines[1:]:
        _, fid, bound = line.split(",")
        assert float(fid) >= float(bound)


def test_bound_sweep_product(capsys):
    code, out, err = run_cli(capsys, "bound-sweep", "--p1", "1.0", "--n-max", "10")
    assert code == 0
    for line in out.strip().split("\n")[1:]:
        assert float(line.split(",")[1]) == 0.0


def test_bound_sweep_bad_p1(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bound-sweep", "--p1", "1.5", "--n-max", "5"])
    assert exc.value.code == 2


@pytest.mark.parametrize("p1", ["0.3", "0.4999", "nan"])
def test_bound_sweep_p1_below_one_half_is_a_usage_error(p1, capsys):
    # --p1 is the larger of the two Schmidt coefficients
    with pytest.raises(SystemExit) as exc:
        main(["bound-sweep", "--p1", p1, "--n-max", "5"])
    assert exc.value.code == 2
    assert "--p1 must be in [0.5, 1]" in capsys.readouterr().err


def test_bound_sweep_leaves_the_block_table_memo_alone(capsys):
    run_json(capsys, "decompose", "--schmidt", "0.4,0.3,0.2,0.1", "--n", "20")
    before = partitions.block_table.cache_info()
    code, out, _ = run_cli(capsys, "bound-sweep", "--p1", "0.6", "--n-max", "40")
    assert code == 0 and len(out.splitlines()) == 41
    after = partitions.block_table.cache_info()
    assert (after.misses, after.currsize) == (before.misses, before.currsize)


def test_bound_sweep_past_the_float_range_is_refused_before_it_starts(capsys):
    # the sweep to n = 2000 ran 17.5 s before it reached n = 1035
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "bound-sweep", "--p1", "0.6", "--n-max", "2000")
    assert time.perf_counter() - start < 2.0
    assert code == 1 and out == ""
    assert json.loads(err) == {
        "error": "ValueError", "message": "a dim_v at n=1035 is beyond the float range"
    }


@pytest.mark.parametrize("extra", [["--n-max", "0"], ["--n-max", "-3"], ["--n-max", "5", "--d", "2"]])
def test_bound_sweep_usage_errors(extra):
    with pytest.raises(SystemExit) as exc:
        main(["bound-sweep", "--p1", "0.5", *extra])
    assert exc.value.code == 2


# ---------------------------------------------------------------- estimation commands


def test_fisher_command(capsys):
    payload = run_json(capsys, "fisher", "--model", "qubit-full", "--theta", "1.0,0.7")
    assert payload["betas"][0] == pytest.approx(1.0, abs=1e-8)
    assert payload["J_S"][0][0] == pytest.approx(1 / 16, abs=1e-10)
    assert payload["weighted_cr"] == pytest.approx(4.0, abs=1e-6)


def test_fisher_model_and_model_json_are_mutually_exclusive(tmp_path, capsys):
    spec_file = tmp_path / "family.json"
    spec_file.write_text("{}")
    with pytest.raises(SystemExit) as exc:
        main(["fisher", "--model", "qubit-full", "--model-json", str(spec_file),
              "--theta", "1.0"])
    assert exc.value.code == 2
    assert "not allowed with argument" in capsys.readouterr().err


def test_gap_command(capsys):
    payload = run_json(
        capsys,
        "gap", "--a", "1", "--b", "1", "--betaA", "0.8", "--betaB", "0.2", "--sign", "+",
    )
    assert payload["gap"] == pytest.approx(0.0761, abs=5e-5)


def test_anticopy_command(capsys):
    payload = run_json(capsys, "anticopy")
    assert payload["betaA"] == pytest.approx(1.0, abs=1e-8)
    assert payload["betaB"] == pytest.approx(1.0, abs=1e-8)
    assert payload["betaProduct"] == pytest.approx(0.0, abs=1e-8)
    assert payload["gap"] == pytest.approx(1.0, abs=1e-6)


def test_detect_command(capsys):
    payload = run_json(capsys, "detect", "--states", "bell", "bell")
    assert payload["holds"] is True


def test_detect_single_state_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["detect", "--states", "bell"])
    assert exc.value.code == 2


def test_detect_states_of_different_dimensions_is_a_structured_error(capsys):
    code, out, err = run_cli(capsys, "detect", "--states", "bell", "0.5,0.5,0")
    assert code == 1 and out == ""
    error = json.loads(err)
    assert error["error"] == "ValueError"
    assert "(2, 2)" in error["message"] and "(3, 3)" in error["message"]


def test_additivity_command(capsys):
    payload = run_json(capsys, "additivity", "--rounds", "2", "--seed", "3")
    assert payload["cross"] <= 1e-8


def test_two_stage_command(capsys):
    payload = run_json(
        capsys, "two-stage", "--n", "100", "--trials", "40", "--theta", "1.0"
    )
    assert payload["reference_cr"] == pytest.approx(0.5, abs=1e-12)
    assert payload["n_mse"] > 0


def test_two_stage_passes_one_family_without_model_b(capsys, monkeypatch):
    shared = []
    estimate = locc.two_stage_estimate

    def spy(model_a, model_b, *args, **kwargs):
        shared.append(model_b is model_a)
        return estimate(model_a, model_b, *args, **kwargs)

    monkeypatch.setattr(locc, "two_stage_estimate", spy)
    run_json(capsys, "two-stage", "--n", "100", "--trials", "2")
    run_json(capsys, "two-stage", "--n", "100", "--trials", "2", "--model-b", "real-amplitude")
    assert shared == [True, False]


def test_estimation_failure_keeps_its_label(capsys, monkeypatch):
    def fail(*args, **kwargs):
        raise locc.EstimationFailureError("flat likelihood")

    monkeypatch.setattr(locc, "two_stage_estimate", fail)
    code, out, err = run_cli(capsys, "two-stage", "--n", "100", "--trials", "2")
    assert code == 1 and out == ""
    assert json.loads(err) == {"error": "estimation-failure", "message": "flat likelihood"}


# ---------------------------------------------------------------- reproducibility


DOCUMENTED_COMMANDS = [
    ["decompose", "--state", "bell", "--n", "4"],
    ["decompose", "--schmidt", "0.8,0.2", "--n", "6"],
    ["teleport", "--state", "bell", "--n", "4", "--seed", "1"],
    ["bound-sweep", "--p1", "0.5", "--n-max", "20"],
    ["fisher", "--model", "qubit-full", "--theta", "1.0,0.7"],
    ["gap", "--a", "1", "--b", "1", "--betaA", "0.8", "--betaB", "0.2"],
    ["anticopy"],
    ["detect", "--states", "bell", "0.9,0.1"],
    ["additivity", "--rounds", "2", "--seed", "3"],
    ["two-stage", "--n", "100", "--trials", "25", "--seed", "5"],
    ["two-stage", "--n", "100", "--trials", "5", "--format", "csv"],
]


@pytest.mark.parametrize(
    "argv", DOCUMENTED_COMMANDS, ids=lambda a: a[0] + "-csv" if "csv" in a else a[0]
)
def test_byte_identical_reruns(argv, tmp_path, capsys):
    out1 = tmp_path / "first.out"
    out2 = tmp_path / "second.out"
    assert main(argv + ["--output", str(out1)]) == 0
    assert main(argv + ["--output", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    code, stdout, _ = run_cli(capsys, *argv)
    assert code == 0 and out1.read_bytes() == stdout.encode()


def test_two_stage_csv_goes_to_stdout(capsys):
    code, out, err = run_cli(capsys, "two-stage", "--n", "100", "--trials", "5", "--format", "csv")
    assert code == 0 and err == ""
    lines = out.strip().split("\n")
    assert lines[0] == "trial,estimate,squared_error"
    assert len(lines) == 6
    assert all(len([float(x) for x in line.split(",")]) == 3 for line in lines[1:])


@pytest.mark.parametrize(
    "argv, error",
    [
        (["additivity", "--rounds", "17"], "RuntimeError"),
        (["additivity", "--rounds", "40"], "RuntimeError"),
        (["gap", "--a", "1", "--b", "1", "--betaA", "0.8", "--betaB", "0.2", "--output", None],
         "IsADirectoryError"),
    ],
    ids=["path-limit", "path-limit-40-rounds", "output-is-a-directory"],
)
def test_path_limit_and_output_errors_are_structured(capsys, tmp_path, argv, error):
    argv = [str(tmp_path) if arg is None else arg for arg in argv]
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == ""
    assert len(err.splitlines()) == 1
    assert json.loads(err)["error"] == error


@pytest.mark.parametrize("rounds, message", [(16, "built"), (17, "path count exceeds 100000")])
def test_additivity_refuses_past_the_path_limit_before_building(capsys, monkeypatch, rounds,
                                                                message):
    # two outcomes per round: 2^16 leaves fit under the limit, 2^17 do not
    def build(rng, rounds):
        raise RuntimeError("built")

    monkeypatch.setattr(locc, "random_adaptive_protocol", build)
    code, out, err = run_cli(capsys, "additivity", "--rounds", str(rounds))
    assert code == 1 and out == "" and json.loads(err)["message"] == message


@pytest.mark.parametrize(
    "argv, code",
    [
        (["decompose", "--state", "bell", "--n", "4"], 0),
        (["gap", "--a", "nan", "--b", "1", "--betaA", "0.8", "--betaB", "0.2"], 1),
        (["decompose", "--n", "4"], 2),
        (["fisher", "--model", "qubit-full", "--theta", "1.0,inf"], 1),
    ],
    ids=["ok", "failure", "usage", "non-finite-theta"],
)
def test_module_entry_point_exit_codes(argv, code):
    src = str(Path(locclab.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, "-m", "locclab.cli", *argv], capture_output=True, text=True, env=env
    )
    assert proc.returncode == code, proc.stderr
    if code == 0:
        assert json.loads(proc.stdout)["command"] == "decompose"
    elif code == 1:
        assert proc.stdout == "" and json.loads(proc.stderr)["error"] == "ValueError"
    else:
        assert proc.stdout == "" and "usage" in proc.stderr


def test_output_dir_env(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("LOCCLAB_OUTPUT_DIR", str(tmp_path))
    assert main(["gap", "--a", "1", "--b", "1", "--betaA", "0.5", "--betaB", "0.5",
                 "--output", "gap.json"]) == 0
    assert (tmp_path / "gap.json").exists()


def test_fisher_model_json(tmp_path, capsys):
    import numpy as np

    thetas = np.linspace(0.0, 2.0, 81)
    states = [[[math.cos(t / 2), 0.0], [math.sin(t / 2), 0.0]] for t in thetas]
    spec_file = tmp_path / "family.json"
    spec_file.write_text(json.dumps({"thetas": thetas.tolist(), "states": states}))
    payload = run_json(capsys, "fisher", "--model-json", str(spec_file), "--theta", "1.0")
    assert payload["J_S"][0][0] == pytest.approx(1 / 16, rel=1e-3)


def test_fisher_missing_model_json_names_the_file(tmp_path, capsys):
    missing = tmp_path / "missing.json"
    code, out, err = run_cli(capsys, "fisher", "--model-json", str(missing), "--theta", "1.0")
    assert code == 1 and out == ""
    error = json.loads(err)
    assert error["error"] == "FileNotFoundError" and str(missing) in error["message"]
