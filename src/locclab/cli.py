"""Command-line front end.

Each command returns its result: a record, written as JSON with the
command and seed added, or CSV text for sweeps. ``main`` is the one
writer, to stdout or ``--output``, and identical invocations produce
byte-identical output. Exit codes: 0 success, 1 computation or output
failure (one JSON line on stderr), 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from itertools import chain, compress
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy as np

from . import estimation, locc, models, teleport
from .partitions import as_spectrum, block_table, spectrum_weights
from .states import StateVector, bell_state, product_state, state_from_schmidt

OUTPUT_DIR_ENV = "LOCCLAB_OUTPUT_DIR"

_CONTAINERS = (dict, list, tuple)
# Each C-encoder call costs a few microseconds to set up, about what the
# pure-Python encoder spends on a handful of items; below this many items,
# over a record's top level and the containers directly in it, json.dumps's
# own encoder is the faster writer.
_FAST_ITEMS = 32
# json.dumps(indent=2, sort_keys=True, allow_nan=False) builds this encoder on
# every call; it keeps no state between calls
_STDLIB = json.JSONEncoder(indent=2, sort_keys=True, allow_nan=False)


def _encoder(item_separator: str) -> json.JSONEncoder:
    """The compact encoder of ``main``'s settings with the given item
    separator: with no indent, CPython's C encoder runs it."""
    return json.JSONEncoder(
        separators=(item_separator, ": "), sort_keys=True, allow_nan=False
    )


def _any_container(kinds: set[type]) -> bool:
    return any(issubclass(kind, _CONTAINERS) for kind in kinds)


def _indented(obj, outer: str) -> str:
    """The text ``json.dumps(indent=2, sort_keys=True, allow_nan=False)``
    gives the container obj when it starts at indentation outer.

    The indented encoder writes each item on its own line, after ",\n" and
    the inner indentation. So a container of scalars is one compact C
    encoding with that item separator, its brackets then opened onto their
    own lines; and the scalars among containers are one encoding with "\n"
    between them, split there. An encoded scalar holds no raw newline (JSON
    escapes every control character), so each split is unambiguous. A dict
    whose values are all flat dicts is one encoding of the list of them,
    split at the "},\n<indent>{" that can only join two of them."""
    if isinstance(obj, dict):
        keys = sorted(obj)
        values, opener, closer = list(map(obj.__getitem__, keys)), "{", "}"
    else:
        keys, values, opener, closer = None, obj, "[", "]"
    if not values:
        return opener + closer
    inner = outer + "  "
    open_, close = opener + "\n" + inner, "\n" + outer + closer
    kinds = set(map(type, values))
    if not _any_container(kinds):
        return open_ + _encoder(",\n" + inner).encode(obj)[1:-1] + close
    if (keys is not None and all(issubclass(kind, dict) for kind in kinds)
            and not _any_container(set(map(type, chain.from_iterable(map(dict.values, values)))))):
        deeper = inner + "  "
        bodies = _encoder(",\n" + deeper).encode(values)[2:-2].split("},\n" + deeper + "{")
        parts = map(("{{\n" + deeper + "{}\n" + inner + "}}").format, bodies)
        if "" in bodies:  # an empty dict
            parts = [part if body else "{}" for part, body in zip(parts, bodies)]
    else:
        parts = [_indented(value, inner) if isinstance(value, _CONTAINERS) else None for value in values]
        scalars = [value for value in values if not isinstance(value, _CONTAINERS)]
        if scalars:
            encoded = iter(_encoder("\n").encode(scalars)[1:-1].split("\n"))
            parts = [next(encoded) if part is None else part for part in parts]
    if keys is not None:
        parts = map("{}: {}".format, map(encode_basestring_ascii, keys), parts)
    return open_ + (",\n" + inner).join(parts) + close


def dumps(record) -> str:
    """``json.dumps(record, indent=2, sort_keys=True, allow_nan=False)``,
    byte for byte, from the C encoder (``_indented``): with an indent,
    CPython up to 3.13 runs the pure-Python encoder. A bare scalar or a
    small record (``_FAST_ITEMS``) is written by ``json.dumps``'s own
    encoder; so is a record the fast route cannot write, one with a NaN or
    an infinite figure, a key that is not a string or a value JSON has no
    form for, and that encoder then raises its own error."""
    if isinstance(record, _CONTAINERS):
        values = record.values() if isinstance(record, dict) else record
        items = len(record) + sum(len(v) for v in values if isinstance(v, _CONTAINERS))
        try:
            if items >= _FAST_ITEMS:
                return _indented(record, "")
        except (TypeError, ValueError):
            pass
    return _STDLIB.encode(record)


def _write(text: str, path: str | None) -> None:
    """Write text to stdout, or to the file at path; a relative path is
    taken against $LOCCLAB_OUTPUT_DIR when that is set."""
    if path is None:
        sys.stdout.write(text)
        return
    target = Path(os.environ.get(OUTPUT_DIR_ENV, ""), path)
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(text)


def _parse_state(text: str, d: int | None) -> tuple[StateVector, tuple[float, ...]]:
    """A preset name ('bell', 'product') of local dimension d (default 2) or
    a comma-separated Schmidt list, as the state and its Schmidt spectrum. A
    d given beside a list must be the list's length (UsageError)."""
    if text in ("bell", "product"):
        d = 2 if d is None else d
        if text == "bell":
            return bell_state(d), (1.0 / d,) * d
        return product_state(d), (1.0,) + (0.0,) * (d - 1)
    values = [float(x) for x in text.split(",")]
    if d is not None and d != len(values):
        raise UsageError(f"--d {d} disagrees with the {len(values)} Schmidt coefficients {text}")
    spectrum = as_spectrum(values)
    return state_from_schmidt(spectrum), spectrum


def cmd_decompose(args) -> dict:
    phi, spectrum = _parse_state(args.state or args.schmidt, args.d)
    d = phi.dims[0]
    weights = spectrum_weights(spectrum, args.n).tolist()  # in block_table order
    table = block_table(args.n, d)
    labels = table.labels.split("\n")
    return {
        "n": args.n,
        "d": d,
        "schmidt_spectrum": list(spectrum),
        "weights": dict(zip(labels, weights)),
        "good_set": sorted(compress(labels, table.retained)),
        "dims": {label: {"dim_u": du, "dim_v": dv} for label, (_, du, dv) in zip(labels, table)},
        "weight_sum": math.fsum(weights),
    }


def cmd_teleport(args) -> dict:
    phi, _ = _parse_state(args.state or args.schmidt, args.d)
    res = teleport.run_teleport(phi, args.n, args.seed)
    return {**res.to_json_dict(), "tolerances": {"final_state_vs_target": 1e-8}}


def cmd_bound_sweep(args) -> str:
    # p1 is the larger of the two Schmidt coefficients
    if not 0.5 <= args.p1 <= 1.0:
        raise UsageError("--p1 must be in [0.5, 1]")
    if args.n_max < 1:
        raise UsageError("--n-max must be at least 1")
    rows = ["n,fidelity,bound"]
    fidelities = teleport.ideal_fidelities((args.p1, 1.0 - args.p1), args.n_max)
    for n, fid in fidelities.items():
        bound = teleport.fidelity_lower_bound(args.p1, n, 2)
        rows.append(f"{n},{fid!r},{bound!r}")
    return "\n".join(rows) + "\n"


def cmd_fisher(args) -> dict:
    if args.model_json:
        model = models.model_from_json(args.model_json)
    else:
        model = models.get_model(args.model)
    theta = np.array([float(x) for x in args.theta.split(",")])
    data = estimation.fisher_data(model, theta)
    return {
        "model": model.name,
        "theta": theta.tolist(),
        "J_S": data.j_s.tolist(),
        "J_tilde": data.j_tilde.tolist(),
        "betas": list(data.betas),
        "weighted_cr": estimation.weighted_cr_value(data.betas),
        "tolerances": {"beta_range": 1e-9},
    }


def cmd_gap(args) -> dict:
    res = estimation.locc_gap(args.a, args.b, args.betaA, args.betaB, args.sign)
    return {
        "a": args.a,
        "b": args.b,
        "betaA": args.betaA,
        "betaB": args.betaB,
        "sign": args.sign,
        "global_best": res.global_best,
        "locc_best": res.locc_best,
        "gap": res.gap,
        "tolerances": {"gap_nonnegative": 1e-12},
    }


def cmd_anticopy(args) -> dict:
    theta = np.array([float(x) for x in args.theta.split(",")])
    model_a, model_b = models.anticopy_pair()
    data_a = estimation.fisher_data(model_a, theta)
    data_b = estimation.fisher_data(model_b, theta)
    prod = models.product_model(model_a, model_b)
    data_p = estimation.fisher_data(prod, theta)
    gap = estimation.locc_gap(1.0, 1.0, data_a.betas[0], data_b.betas[0], "-")
    return {
        "theta": theta.tolist(),
        "betaA": data_a.betas[0],
        "betaB": data_b.betas[0],
        "betaProduct": data_p.betas[0],
        "gap": gap.gap,
        "J_S_match": float(np.max(np.abs(data_a.j_s - data_b.j_s))),
        "tolerances": {"beta": 1e-8, "J_S_match": 1e-10},
    }


def cmd_detect(args) -> dict:
    if len(args.states) < 2:
        raise UsageError("detect needs at least two states")
    states = [_parse_state(s, args.d)[0] for s in args.states]
    lhs, rhs, holds = estimation.detection_condition(states)
    return {
        "states": list(args.states),
        "max_pairwise_overlap_sq": lhs,
        "max_largest_schmidt": rhs,
        "holds": holds,
        "tolerances": {"schmidt_extraction": 1e-12},
    }


def cmd_additivity(args) -> dict:
    # every round has two outcomes, so the walk would pass the path limit
    # (2^rounds > limit, that is rounds >= the limit's bit length): refuse
    # before anything is built
    if args.rounds >= locc._PATH_LIMIT.bit_length():
        raise RuntimeError(f"path count exceeds {locc._PATH_LIMIT}")
    rng = np.random.default_rng(args.seed)
    protocol = locc.random_adaptive_protocol(rng, rounds=args.rounds)
    model_a = locc.random_qubit_model(np.random.default_rng(args.seed + 1))
    model_b = locc.random_qubit_model(np.random.default_rng(args.seed + 2))
    res = locc.verify_fisher_additivity(protocol, model_a, model_b, [args.theta])
    return {
        "rounds": args.rounds,
        "theta": args.theta,
        "J_total": res.j_total.tolist(),
        "J_A": res.j_a.tolist(),
        "J_B": res.j_b.tolist(),
        "cross": res.cross,
        "tolerances": {"cross": 1e-8},
    }


def cmd_two_stage(args) -> dict | str:
    model_a = models.get_model(args.model)
    model_b = models.get_model(args.model_b) if args.model_b else model_a
    report = locc.two_stage_estimate(
        model_a, model_b, args.n, args.trials, args.seed, theta_true=args.theta
    )
    if args.format == "csv":
        return report.to_csv()
    return {
        "model": args.model,
        "n": report.n_copies,
        "trials": report.trials,
        "theta": report.theta_true,
        "stage1_copies": report.stage1_copies,
        "mse": report.mse,
        "n_mse": report.n_mse,
        "reference_cr": report.reference_cr,
        "tolerances": {"n_mse_vs_reference": 0.2},
    }


class UsageError(Exception):
    pass


_D_HELP = "local dimension of a preset (default 2); beside a Schmidt list, its length"


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
    p.add_argument("--d", type=int, default=None, help=_D_HELP)
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("teleport", help="run the transfer protocol end to end")
    add_state(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, default=None, help=_D_HELP)
    p.set_defaults(func=cmd_teleport)

    p = sub.add_parser(
        "bound-sweep",
        help="CSV of achieved fidelity vs the closed-form lower bound over n",
    )
    p.add_argument("--p1", type=float, required=True,
                   help="largest of the two Schmidt coefficients, in [0.5, 1]")
    p.add_argument("--n-max", type=int, required=True)
    p.set_defaults(func=cmd_bound_sweep)

    p = sub.add_parser("fisher", help="metric, Berry form, and invariant angles")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--model", default="qubit-full")
    group.add_argument("--model-json", default=None, help="tabulated family JSON file")
    p.add_argument("--theta", required=True, help="comma list")
    p.set_defaults(func=cmd_fisher)

    p = sub.add_parser("gap", help="closed-form local-vs-global gap")
    p.add_argument("--a", type=float, required=True)
    p.add_argument("--b", type=float, required=True)
    p.add_argument("--betaA", type=float, required=True)
    p.add_argument("--betaB", type=float, required=True)
    p.add_argument("--sign", choices=["+", "-"], default="+")
    p.set_defaults(func=cmd_gap)

    p = sub.add_parser(
        "anticopy", help="the conjugate-pair example: angles and maximal gap"
    )
    p.add_argument("--theta", default="1.0,0.7")
    p.set_defaults(func=cmd_anticopy)

    p = sub.add_parser("detect", help="local state-detection sufficient condition")
    p.add_argument("--states", nargs="+", required=True,
                   help="presets or Schmidt lists, e.g. bell 0.8,0.2")
    p.add_argument("--d", type=int, default=None, help=_D_HELP)
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser(
        "additivity",
        help="per-party information split of a random adaptive protocol",
    )
    p.add_argument("--rounds", type=int, default=2)
    p.add_argument("--theta", type=float, default=0.4)
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
    p.set_defaults(func=cmd_two_stage)

    for p in sub.choices.values():
        p.add_argument("--seed", type=int, default=0, help="seed echoed into outputs")
        p.add_argument("--output", default=None, help="output file (default stdout)")
    return parser


def _run(args) -> tuple[int, dict | str]:
    """The exit code and result of the chosen command; a product state's
    empty retained weight is a result record with exit code 1."""
    try:
        return 0, args.func(args)
    except teleport.NothingToTeleportError as exc:
        return 1, {
            "error": "nothing-to-teleport",
            "message": str(exc),
            "n": exc.n,
            "d": exc.d,
            "fidelity": 0.0,
            "success_prob": 0.0,
        }


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code, result = _run(args)
        if isinstance(result, dict):
            record = {**result, "command": args.command, "seed": args.seed}
            # a NaN or infinite figure raises ValueError rather than print invalid JSON
            result = dumps(record) + "\n"
        _write(result, args.output)
        return code
    except UsageError as exc:
        parser.exit(2, f"usage error: {exc}\n")
    except (ValueError, KeyError, OSError, RuntimeError, AssertionError) as exc:
        if isinstance(exc, locc.EstimationFailureError):
            label = "estimation-failure"
        else:
            label = type(exc).__name__
        sys.stderr.write(json.dumps({"error": label, "message": str(exc)}) + "\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
