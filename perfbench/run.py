"""locclab benchmark: one closed-loop workload, end to end or traced.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload spectra --seed 1 --seconds 20 --trace 0

The workloads are ``spectra``, ``basis``, ``teleport`` and ``adaptive``; see
``perfbench/README.md`` for what each one loads and bypasses. With
``--trace 0`` the run measures the end-to-end metrics; with ``--trace 1`` it
measures the per-layer metrics from spans recorded around the benchmark's
calls into the library, and the tracing overhead.

This parent process imports neither numpy nor the library. It pins the BLAS
thread count in the environment of every process it starts, samples set-up
time in several fresh processes, runs the workload in one more, prints every
metric by name with its unit and sample count, and ends with one JSON line:
``{"correct", "attempted", "failed", "metrics"}``. An operation whose result
fails its check, or that raises, is counted in ``failed`` and listed by kind,
and makes ``correct`` false. The one exception is the known weight
cancellation of d >= 4 ``spectra`` queries (see ``workloads``): those failed
weight checks are listed by kind and counted in ``known_defect_frac`` and the
per-layer ``spectra.weight_check.failures``, not in ``failed``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = ("spectra", "basis", "teleport", "adaptive")
END_TO_END = (
    ("setup_s", "s"),
    ("throughput_ops_s", "ops/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
)
BLAS_THREADS = 1  # one client in one process; at most nproc
# Set-up samples besides the measuring process. Over ten seeds, one
# host-normalized sample spread by up to 28% (quartile distance over
# median), more than the bound; the median of nine by at most 12%.
SETUP_PROCESSES = 8
DEADLINE_S = 170.0

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


class BenchError(RuntimeError):
    pass


def git_commit(root: Path) -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def run_worker(args, extra: list[str], deadline: float) -> dict:
    """Start one worker process, wait for it, and return its JSON result."""
    spawned_at = time.monotonic()
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--spawned-at", repr(spawned_at), *extra]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("worker exceeded the run deadline") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")
    lines = out.strip().splitlines()
    if not lines:
        raise BenchError("worker printed no result")
    return json.loads(lines[-1])


def is_correct(res: dict) -> bool:
    """At least one operation ran, and none failed."""
    return res["attempted"] >= 1 and res["failed"] == 0


def report(args, res: dict, setups: list[dict], commit: str) -> dict:
    """Print every metric by name with its unit and sample count; return
    the metrics of the final JSON line."""
    machine = {**res["machine"], "commit": commit, "seed": args.seed,
               "workload": args.workload}
    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print("machine " + json.dumps(machine, sort_keys=True))
    s = res["summary"]
    rows = [
        ("setup_s", statistics.median(x["setup_s"] for x in setups), "s",
         f"{len(setups)} set-ups; raw median "
         f"{statistics.median(x['raw_setup_s'] for x in setups):.4g} s"),
        ("throughput_ops_s", s["throughput_ops_s"], "ops/s",
         f"median of {s['rounds']} rounds; {s['ops']} ops in {s['wall_s']:.2f} s"),
        ("latency_p50_ms", s["latency_p50_ms"], "ms", f"{s['ops']} ops"),
        ("latency_p90_ms", s["latency_p90_ms"], "ms",
         f"{s['ops']} ops, {s['samples_beyond_p90']} beyond p90"),
        ("peak_rss_mb", res["peak_rss_mb"], "MB", "1 process"),
        ("fail_frac", res["failed"] / res["attempted"], "ratio",
         f"{res['failed']} of {res['attempted']} ops"),
        ("known_defect_frac", res["known_defect"] / res["attempted"], "ratio",
         f"{res['known_defect']} of {res['attempted']} ops"),
    ]
    title = "end-to-end" + (" (untraced rounds of the traced run)" if args.trace else "")
    print(f"{title}, operation times host-normalized:")
    for name, value, unit, samples in rows:
        print(f"  {name:<18} {value:>14.6g} {unit:<6} {samples}")
    print(f"  raw wall time: {s['raw_throughput_ops_s']:.6g} ops/s (median round), "
          f"p50 {s['raw_latency_p50_ms']:.6g} ms, p90 {s['raw_latency_p90_ms']:.6g} ms; "
          f"median host factor {s['host_factor_median']:.4f}")
    for key, title in (
            ("known_defect_by_kind", "known weight cancellation at d >= 4, by operation kind "
                                     "(checked; not counted in failed):"),
            ("failures_by_kind", "FAILED operations by kind (the result is not correct):")):
        if res[key]:
            print(title)
            for kind, info in res[key].items():
                print(f"  {kind}: {info['count']}")
                for example in info["examples"]:
                    print(f"    {example}")
    if args.trace:
        t = res["traced_summary"]
        print(f"per-layer (traced rounds: {t['ops']} ops in {t['wall_s']:.2f} s; "
              f"spans in {res['spans_file']}):")
        for name, metric in res["per_layer"].items():
            print(f"  {name:<46} {metric['value']:>14.6g} {metric['unit']}")
        return res["per_layer"]
    return {name: {"value": value, "unit": unit} for name, value, unit, _ in rows
            if name in dict(END_TO_END)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "locclab" / "__init__.py").is_file():
        print(f"perfbench: no locclab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    try:
        setups = [run_worker(args, ["--setup-only"], deadline)
                  for _ in range(SETUP_PROCESSES)]
        res = run_worker(args, [], deadline)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    setups.append(res)
    metrics = report(args, res, setups, git_commit(ROOT))

    record = {"args": vars(args), "commit": git_commit(ROOT),
              "setup_samples": [{k: s[k] for k in ("setup_s", "raw_setup_s")} for s in setups],
              **res}
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(json.dumps({
        "correct": is_correct(res),
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
