"""Command-line front end.

Single-result commands emit JSON; sweeps emit CSV. Every output artifact
echoes the seed that generated it, and identical invocations produce
byte-identical files. Exit codes: 0 success, 1 computation failure,
2 usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import estimation, locc, models, schur_weyl, teleport
from .partitions import as_spectrum, dim_u, dim_v
from .states import StateVector, bell_state, product_state, state_from_schmidt

OUTPUT_DIR_ENV = "LOCCLAB_OUTPUT_DIR"


def _resolve_output(path: str | None) -> Path | None:
    if path is None:
        return None
    p = Path(path)
    base = os.environ.get(OUTPUT_DIR_ENV)
    if base and not p.is_absolute():
        p = Path(base) / p
    return p


def _emit(text: str, path: Path | None):
    if path is None:
        sys.stdout.write(text)
    else:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)


def _emit_json(payload: dict, path: Path | None):
    _emit(json.dumps(payload, indent=2, sort_keys=True) + "\n", path)


def _parse_state(text: str, d: int) -> tuple[StateVector, tuple[float, ...]]:
    """A preset name ('bell', 'product') or a comma-separated Schmidt list,
    as the state and its Schmidt spectrum."""
    if text == "bell":
        return bell_state(d), (1.0 / d,) * d
    if text == "product":
        return product_state(d), (1.0,) + (0.0,) * (d - 1)
    spectrum = as_spectrum([float(x) for x in text.split(",")])
    return state_from_schmidt(spectrum), spectrum


def cmd_decompose(args) -> int:
    phi, spectrum = _parse_state(args.state or args.schmidt, args.d)
    weights = schur_weyl.weights_analytic(spectrum, args.n)
    payload = {
        "command": "decompose",
        "n": args.n,
        "d": phi.dims[0],
        "seed": args.seed,
        "schmidt_spectrum": list(spectrum),
        "weights": {str(lam): q for lam, q in weights.items()},
        "good_set": sorted(
            str(lam) for lam in weights if teleport.retained(lam)
        ),
        "dims": {
            str(lam): {"dim_u": dim_u(lam), "dim_v": dim_v(lam)}
            for lam in weights
        },
        "weight_sum": sum(weights.values()),
    }
    _emit_json(payload, _resolve_output(args.output))
    return 0


def cmd_teleport(args) -> int:
    phi, _ = _parse_state(args.state or args.schmidt, args.d)
    try:
        res = teleport.run_teleport(phi, args.n, args.seed)
    except teleport.NothingToTeleportError as exc:
        _emit_json(
            {
                "command": "teleport",
                "error": "nothing-to-teleport",
                "message": str(exc),
                "n": exc.n,
                "d": exc.d,
                "fidelity": 0.0,
                "success_prob": 0.0,
                "seed": args.seed,
            },
            _resolve_output(args.output),
        )
        return 1
    payload = {"command": "teleport", **res.to_json_dict()}
    payload["seed"] = args.seed
    payload["tolerances"] = {"final_state_vs_target": 1e-8}
    _emit_json(payload, _resolve_output(args.output))
    return 0


def cmd_bound_sweep(args) -> int:
    if not 0.0 < args.p1 <= 1.0:
        raise UsageError("--p1 must be in (0, 1]")
    if args.n_max < 1:
        raise UsageError("--n-max must be at least 1")
    rows = ["n,fidelity,bound"]
    spectrum = (args.p1, 1.0 - args.p1)
    for n in range(1, args.n_max + 1):
        fid = teleport.ideal_fidelity(spectrum, n)
        bound = teleport.fidelity_lower_bound(args.p1, n, len(spectrum))
        rows.append(f"{n},{fid!r},{bound!r}")
    _emit("\n".join(rows) + "\n", _resolve_output(args.output))
    return 0


def _load_model(args):
    if getattr(args, "model_json", None):
        return models.model_from_json(args.model_json)
    return models.get_model(args.model)


def cmd_fisher(args) -> int:
    model = _load_model(args)
    theta = np.array([float(x) for x in args.theta.split(",")])
    data = estimation.fisher_data(model, theta)
    payload = {
        "command": "fisher",
        "model": model.name,
        "theta": theta.tolist(),
        "seed": args.seed,
        "J_S": data.j_s.tolist(),
        "J_tilde": data.j_tilde.tolist(),
        "betas": list(data.betas),
        "weighted_cr": estimation.weighted_cr_value(data.betas),
        "tolerances": {"beta_range": 1e-9},
    }
    _emit_json(payload, _resolve_output(args.output))
    return 0


def cmd_gap(args) -> int:
    res = estimation.locc_gap(args.a, args.b, args.betaA, args.betaB, args.sign)
    payload = {
        "command": "gap",
        "a": args.a,
        "b": args.b,
        "betaA": args.betaA,
        "betaB": args.betaB,
        "sign": args.sign,
        "seed": args.seed,
        "global_best": res.global_best,
        "locc_best": res.locc_best,
        "gap": res.gap,
        "tolerances": {"gap_nonnegative": 1e-12},
    }
    _emit_json(payload, _resolve_output(args.output))
    return 0


def cmd_anticopy(args) -> int:
    theta = np.array([float(x) for x in args.theta.split(",")])
    model_a, model_b = models.anticopy_pair()
    data_a = estimation.fisher_data(model_a, theta)
    data_b = estimation.fisher_data(model_b, theta)
    prod = models.product_model(model_a, model_b)
    data_p = estimation.fisher_data(prod, theta)
    gap = estimation.locc_gap(1.0, 1.0, data_a.betas[0], data_b.betas[0], "-")
    payload = {
        "command": "anticopy",
        "theta": theta.tolist(),
        "seed": args.seed,
        "betaA": data_a.betas[0],
        "betaB": data_b.betas[0],
        "betaProduct": data_p.betas[0],
        "gap": gap.gap,
        "J_S_match": float(np.max(np.abs(data_a.j_s - data_b.j_s))),
        "tolerances": {"beta": 1e-8, "J_S_match": 1e-10},
    }
    _emit_json(payload, _resolve_output(args.output))
    return 0


def cmd_detect(args) -> int:
    if len(args.states) < 2:
        raise UsageError("detect needs at least two states")
    states = [_parse_state(s, args.d)[0] for s in args.states]
    lhs, rhs, holds = estimation.detection_condition(states)
    payload = {
        "command": "detect",
        "states": list(args.states),
        "seed": args.seed,
        "max_pairwise_overlap_sq": lhs,
        "max_largest_schmidt": rhs,
        "holds": holds,
        "tolerances": {"schmidt_extraction": 1e-12},
    }
    _emit_json(payload, _resolve_output(args.output))
    return 0


def cmd_additivity(args) -> int:
    rng = np.random.default_rng(args.seed)
    protocol = locc.random_adaptive_protocol(rng, rounds=args.rounds)
    model_a = locc.random_qubit_model(np.random.default_rng(args.seed + 1))
    model_b = locc.random_qubit_model(np.random.default_rng(args.seed + 2))
    res = locc.verify_fisher_additivity(protocol, model_a, model_b, [args.theta])
    payload = {
        "command": "additivity",
        "rounds": args.rounds,
        "theta": args.theta,
        "seed": args.seed,
        "J_total": res.j_total.tolist(),
        "J_A": res.j_a.tolist(),
        "J_B": res.j_b.tolist(),
        "cross": res.cross,
        "tolerances": {"cross": 1e-8},
    }
    _emit_json(payload, _resolve_output(args.output))
    return 0


def cmd_two_stage(args) -> int:
    model_a = models.get_model(args.model)
    model_b = models.get_model(args.model_b or args.model)
    report = locc.two_stage_estimate(
        model_a, model_b, args.n, args.trials, args.seed, theta_true=args.theta
    )
    if args.format == "csv":
        out = _resolve_output(args.output)
        if out is None:
            raise UsageError("--format csv requires --output")
        report.to_csv(out)
        return 0
    payload = {
        "command": "two-stage",
        "model": args.model,
        "n": report.n_copies,
        "trials": report.trials,
        "theta": report.theta_true,
        "seed": args.seed,
        "stage1_copies": report.stage1_copies,
        "mse": report.mse,
        "n_mse": report.n_mse,
        "reference_cr": report.reference_cr,
        "tolerances": {"n_mse_vs_reference": 0.2},
    }
    _emit_json(payload, _resolve_output(args.output))
    return 0


class UsageError(Exception):
    pass


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="locclab",
        description=(
            "Block decompositions of bipartite state ensembles, the "
            "self-teleportation protocol and its fidelity bounds, and "
            "local-measurement estimation experiments."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--seed", type=int, default=0, help="seed echoed into outputs")
        p.add_argument("--output", default=None, help="output file (default stdout)")

    def add_state(p):
        group = p.add_mutually_exclusive_group(required=True)
        group.add_argument("--state", choices=["bell", "product"])
        group.add_argument("--schmidt", help="comma list, e.g. 0.8,0.2")

    p = sub.add_parser(
        "decompose",
        help="block weights of the n-fold power of a bipartite state",
    )
    add_state(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, default=2)
    add_common(p)
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("teleport", help="run the transfer protocol end to end")
    add_state(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, default=2)
    add_common(p)
    p.set_defaults(func=cmd_teleport)

    p = sub.add_parser(
        "bound-sweep",
        help="CSV of achieved fidelity vs the closed-form lower bound over n",
    )
    p.add_argument("--p1", type=float, required=True, help="largest Schmidt coefficient")
    p.add_argument("--n-max", type=int, required=True)
    add_common(p)
    p.set_defaults(func=cmd_bound_sweep)

    p = sub.add_parser("fisher", help="metric, Berry form, and invariant angles")
    p.add_argument("--model", default="qubit-full")
    p.add_argument("--model-json", default=None, help="tabulated family JSON file")
    p.add_argument("--theta", required=True, help="comma list")
    add_common(p)
    p.set_defaults(func=cmd_fisher)

    p = sub.add_parser("gap", help="closed-form local-vs-global gap")
    p.add_argument("--a", type=float, required=True)
    p.add_argument("--b", type=float, required=True)
    p.add_argument("--betaA", type=float, required=True)
    p.add_argument("--betaB", type=float, required=True)
    p.add_argument("--sign", choices=["+", "-"], default="+")
    add_common(p)
    p.set_defaults(func=cmd_gap)

    p = sub.add_parser(
        "anticopy", help="the conjugate-pair example: angles and maximal gap"
    )
    p.add_argument("--theta", default="1.0,0.7")
    add_common(p)
    p.set_defaults(func=cmd_anticopy)

    p = sub.add_parser("detect", help="local state-detection sufficient condition")
    p.add_argument("--states", nargs="+", required=True,
                   help="presets or Schmidt lists, e.g. bell 0.8,0.2")
    p.add_argument("--d", type=int, default=2)
    add_common(p)
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser(
        "additivity",
        help="per-party information split of a random adaptive protocol",
    )
    p.add_argument("--rounds", type=int, default=2)
    p.add_argument("--theta", type=float, default=0.4)
    add_common(p)
    p.set_defaults(func=cmd_additivity)

    p = sub.add_parser(
        "two-stage", help="adaptive local estimation Monte-Carlo experiment"
    )
    p.add_argument("--model", default="real-amplitude")
    p.add_argument("--model-b", default=None)
    p.add_argument("--n", type=int, default=400)
    p.add_argument("--trials", type=int, default=2000)
    p.add_argument("--theta", type=float, default=1.0)
    p.add_argument("--format", choices=["json", "csv"], default="json")
    add_common(p)
    p.set_defaults(func=cmd_two_stage)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        parser.exit(2, f"usage error: {exc}\n")
    except (ValueError, KeyError) as exc:
        sys.stderr.write(
            json.dumps({"error": type(exc).__name__, "message": str(exc)}) + "\n"
        )
        return 1
    except locc.EstimationFailureError as exc:
        sys.stderr.write(
            json.dumps({"error": "estimation-failure", "message": str(exc)}) + "\n"
        )
        return 1


if __name__ == "__main__":
    sys.exit(main())
