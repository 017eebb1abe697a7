"""One benchmark process: set up a workload, run its closed loop, report.

Started by ``run.py`` with the BLAS thread count pinned in its environment
and ``src`` on ``PYTHONPATH``. Prints one JSON object as its last line of
standard output. With ``--setup-only`` it stops after set-up, so that the
parent can sample set-up time several times.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path
from time import perf_counter

import numpy as np

from locclab import schur_weyl
from probe import CALIBRATION_REF_S, calibrate
from recorder import PER_LAYER, Recorder, latency_summary, per_layer_metrics
from workloads import CheckFailed, WeightCheckFailed, make_workload

MIN_OPS = 100  # at least ten samples beyond the 90th percentile
EXAMPLES_PER_KIND = 3
SETUP_PROBES = 10


def machine() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "ram_gb": round(os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") / 2**30, 2),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(os.environ.get("OPENBLAS_NUM_THREADS", "0")),
    }


class Loop:
    """Runs whole rounds of a workload until the time is up."""

    def __init__(self, workload, rng: np.random.Generator, first_round):
        self.workload, self.rng = workload, rng
        self.pending = first_round
        self.index = 0
        self.failures: dict[str, list[str]] = defaultdict(list)
        self.known: dict[str, list[str]] = defaultdict(list)
        self.attempted = 0

    def next_round(self):
        ops = self.pending or self.workload.round(self.rng, self.index)
        self.pending = None
        self.index += 1
        return ops

    def run_round(self, rec: Recorder) -> None:
        for op in self.next_round():
            self.attempted += 1
            rec.probe_host()
            span = rec.begin_op(op.kind, op.d, op.n)
            try:
                result = op.run(rec)
            except Exception as exc:  # the library failed; checked below
                result = exc
            span.end = perf_counter()
            try:
                span.outcome = op.check(result, rec)
            except CheckFailed as exc:
                line = f"d={op.d} n={op.n}: {exc}"
                if op.known_defect and isinstance(exc, WeightCheckFailed):
                    span.outcome = "known_defect"
                    self.known[op.kind].append(line)
                else:
                    span.outcome = "failed"
                    self.failures[op.kind].append(line)
            del result  # keep one result alive at a time, as a client would

    def measure(self, recs: list[Recorder], seconds: float) -> list[dict]:
        """Closed loop over whole rounds, given to the recorders in turn,
        for at least ``seconds`` and ``MIN_OPS`` operations per recorder;
        one summary per recorder."""
        start = perf_counter()
        rounds: list[list] = [[] for _ in recs]
        while True:
            for rec, done in zip(recs, rounds):
                round_start, first = perf_counter(), len(rec.ops)
                self.run_round(rec)
                done.append((first, len(rec.ops), perf_counter() - round_start))
            if perf_counter() - start >= seconds and min(len(r.ops) for r in recs) >= MIN_OPS:
                break
        summaries = []
        for rec, done in zip(recs, rounds):
            rec.probe_host()  # a probe after the last operation too
            summaries.append(latency_summary(rec, done))
        return summaries


def failure_report(failures: dict[str, list[str]]) -> dict:
    return {kind: {"count": len(items), "examples": items[:EXAMPLES_PER_KIND]}
            for kind, items in sorted(failures.items())}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.monotonic() of the parent when it started this process")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--tiny", action="store_true", help="tiny size mix, for tests")
    args = parser.parse_args(argv)

    root = Path(__file__).resolve().parent.parent
    scratch_root = root / ".perfbench_tmp"
    scratch_root.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(dir=scratch_root))
    try:
        rng = np.random.default_rng(args.seed)
        workload = make_workload(args.workload, scratch, tiny=args.tiny)
        workload.setup(rng)
        loop = Loop(workload, rng, workload.round(rng, 0))
        raw_setup_s = time.monotonic() - args.spawned_at
        probes = [calibrate() for _ in range(SETUP_PROBES)]
        setup = {"setup_s": raw_setup_s * CALIBRATION_REF_S * len(probes) / sum(probes),
                 "raw_setup_s": raw_setup_s}
        if args.setup_only:
            print(json.dumps(setup))
            return 0

        recs = [Recorder(args.workload, tracing=False)]
        if args.trace:
            # One warm-up round fills the library's caches, then untraced
            # and traced rounds alternate, so that neither half is the cold
            # or the earlier one. The warm-up round is checked too.
            loop.run_round(Recorder(args.workload, tracing=False))
            recs.append(Recorder(args.workload, tracing=True))
        summaries = loop.measure(recs, args.seconds)
        failed = sum(len(v) for v in loop.failures.values())
        known_defect = sum(len(v) for v in loop.known.values())
        attempted = loop.attempted
        result = {
            **setup,
            "summary": summaries[0],
            "attempted": attempted,
            "failed": failed,
            "known_defect": known_defect,
            "failures_by_kind": failure_report(loop.failures),
            "known_defect_by_kind": failure_report(loop.known),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "machine": machine(),
        }
        if args.trace:
            traced, traced_summary = recs[1], summaries[1]
            info = schur_weyl.schur_basis.cache_info()
            extra = {
                "fail_frac": failed / attempted,
                "spectra.known_defect_frac": known_defect / attempted,
                "trace.overhead_frac":
                    1.0 - traced_summary["throughput_ops_s"] / summaries[0]["throughput_ops_s"],
                "schur_weyl.schur_basis.cache_hits": info.hits,
                "schur_weyl.schur_basis.cache_misses": info.misses,
            }
            metrics = per_layer_metrics(traced, extra)
            units = {name: unit for name, unit, _ in PER_LAYER}
            out_dir = root / ".perfbench_out"
            out_dir.mkdir(exist_ok=True)
            spans_path = out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl"
            traced.write_spans(spans_path)
            result.update({
                "traced_summary": traced_summary,
                "per_layer": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
                "spans_file": str(spans_path.relative_to(root)),
            })
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
