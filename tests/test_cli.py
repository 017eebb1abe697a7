import json
import math

import pytest

from locclab import schur_weyl
from locclab.cli import main
from locclab.partitions import enumerate_partitions
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


def test_decompose_non_distribution_is_a_structured_error(capsys, monkeypatch):
    def negative(p, n):
        return dict.fromkeys(enumerate_partitions(n, len(p)), -1.0)

    monkeypatch.setattr(schur_weyl, "schur_polynomials", negative)
    code, out, err = run_cli(capsys, "decompose", "--schmidt", "0.8,0.2", "--n", "4")
    assert code == 1 and out == ""
    assert json.loads(err)["error"] == "ValueError"


def test_decompose_beyond_float_range_is_a_structured_error(capsys):
    # dim_v of the middle blocks at n=1200 is far above the largest float
    code, out, err = run_cli(capsys, "decompose", "--schmidt", "0.6,0.4", "--n", "1200")
    assert code == 1 and out == ""
    assert json.loads(err)["error"] == "ValueError"


def test_decompose_requires_state(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["decompose", "--n", "3"])
    assert exc.value.code == 2


@pytest.mark.parametrize("command", ["decompose", "teleport"])
def test_state_and_schmidt_are_mutually_exclusive(command, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, "--state", "bell", "--schmidt", "0.9,0.1", "--n", "2"])
    assert exc.value.code == 2


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


def test_teleport_bell_n8_is_inside_the_budget(capsys):
    payload = run_json(capsys, "teleport", "--state", "bell", "--n", "8")
    assert abs(payload["fidelity"] - ideal_fidelity((0.5, 0.5), 8)) <= 1e-9


@pytest.mark.parametrize(
    "argv",
    [
        ["teleport", "--state", "bell", "--n", "13"],
        ["decompose", "--state", "bell", "--d", "100000", "--n", "1"],
        ["decompose", "--state", "bell", "--d", "0", "--n", "2"],
        ["detect", "--states", "bell", "product", "--d", "0"],
        ["teleport", "--state", "product", "--d", "0", "--n", "2"],
    ],
    ids=["teleport-n13", "bell-d100000", "decompose-d0", "detect-d0", "teleport-d0"],
)
def test_sizes_and_dimensions_outside_the_guards_are_structured_errors(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == ""
    assert json.loads(err)["error"] == "ValueError"


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


def test_additivity_command(capsys):
    payload = run_json(capsys, "additivity", "--rounds", "2", "--seed", "3")
    assert payload["cross"] <= 1e-8


def test_two_stage_command(capsys):
    payload = run_json(
        capsys, "two-stage", "--n", "100", "--trials", "40", "--theta", "1.0"
    )
    assert payload["reference_cr"] == pytest.approx(0.5, abs=1e-12)
    assert payload["n_mse"] > 0


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
]


@pytest.mark.parametrize("argv", DOCUMENTED_COMMANDS, ids=lambda a: a[0])
def test_byte_identical_reruns(argv, tmp_path):
    out1 = tmp_path / "first.out"
    out2 = tmp_path / "second.out"
    assert main(argv + ["--output", str(out1)]) == 0
    assert main(argv + ["--output", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


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
