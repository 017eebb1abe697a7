"""Spans, counters and the per-layer metric table of the benchmark.

Spans are recorded only from the benchmark's own code, around each call it
makes into a public library function; tracing inside the library is not
done here. Every span has the name ``<module>.<function>`` (CLI commands are
``cli.main.<command>``), start and end times, and its parent: the operation
span, which carries the workload, the operation kind, d and n. Spans stay in
memory and are written out when the run ends.

Counters are kept whether or not tracing is on; they are cheap and the
failure counts feed ``fail_frac`` on every run.
"""

from __future__ import annotations

import json
import math
import statistics
from collections import Counter
from dataclasses import asdict, dataclass
from time import perf_counter
from typing import Any, Callable

import numpy as np

from probe import CALIBRATION_REF_S, calibrate

CALIBRATION_WINDOW_S = 1.0


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the operation span

    @property
    def ms(self) -> float:
        return (self.end - self.start) * 1e3


@dataclass
class OpSpan:
    index: int
    workload: str
    kind: str
    d: int
    n: int
    start: float
    end: float = 0.0
    outcome: str = ""

    @property
    def ms(self) -> float:
        return (self.end - self.start) * 1e3


class Recorder:
    """Records spans (when ``tracing``), counters (always) and host-speed
    probes."""

    def __init__(self, workload: str, tracing: bool):
        self.workload = workload
        self.tracing = tracing
        self.counts: Counter = Counter()
        self.ops: list[OpSpan] = []
        self.spans: list[Span] = []
        self.probes: list[tuple[float, float]] = []  # (end time, duration)

    def probe_host(self) -> None:
        duration = calibrate()
        self.probes.append((perf_counter(), duration))

    def call(self, name: str, fn: Callable[..., Any], *args, **kwargs) -> Any:
        """Call ``fn`` and, when tracing, record a span named ``name``."""
        if not self.tracing:
            return fn(*args, **kwargs)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.spans.append(Span(name, start, perf_counter(), len(self.ops) - 1))

    def count(self, name: str, value: float = 1) -> None:
        self.counts[name] += value

    def begin_op(self, kind: str, d: int, n: int) -> OpSpan:
        op = OpSpan(len(self.ops), self.workload, kind, d, n, perf_counter())
        self.ops.append(op)
        return op

    def write_spans(self, path) -> None:
        with open(path, "w") as handle:
            for op in self.ops:
                handle.write(json.dumps({"type": "operation", **asdict(op)}) + "\n")
            for span in self.spans:
                handle.write(json.dumps({"type": "call", **asdict(span)}) + "\n")


def harrell_davis(values, q: float) -> float:
    """Harrell-Davis estimate of the q-quantile: a Beta(q(n+1), (1-q)(n+1))
    weighted mean of the order statistics; 0.0 for an empty list. The
    operation mix has gaps between the costs of its sizes; where a quantile
    falls near one, the nearest-rank value jumps across it from run to run,
    this estimate moves smoothly."""
    n = len(values)
    if n == 0:
        return 0.0
    a, b = q * (n + 1), (1 - q) * (n + 1)
    steps = 64 * n
    x = (np.arange(steps) + 0.5) / steps  # midpoints on (0, 1)
    log_pdf = (a - 1) * np.log(x) + (b - 1) * np.log1p(-x)
    pdf = np.exp(log_pdf - log_pdf.max())
    weights = pdf.reshape(n, 64).sum(axis=1)
    return float(np.dot(weights / weights.sum(), np.sort(values)))


CLI_COMMANDS = (
    "decompose", "teleport", "bound-sweep", "fisher", "gap", "anticopy",
    "detect", "additivity", "two-stage",
)

# Layers whose weights pass is counted in partitions.blocks_evaluated.
_WEIGHING_SPANS = (
    "schur_weyl.weights_analytic",
    "teleport.ideal_fidelity",
    "partitions.large_deviation_bound",
    "cli.main.decompose",
    "cli.main.bound-sweep",
)


def _span_stats(spans: list[Span], ops: list[OpSpan], name: str, fields: tuple[str, ...],
                where: Callable[[OpSpan], bool] | None = None) -> dict[str, float]:
    times = [s.ms for s in spans if s.name == name and (where is None or where(ops[s.parent]))]
    stats = {
        "calls": len(times),
        "busy_ms": sum(times),
        "p50_ms": harrell_davis(times, 0.5),
        "p90_ms": harrell_davis(times, 0.9),
    }
    return {f"{name}.{f}": stats[f] for f in fields}


# (name, unit, better) of every per-layer metric, in report order.
PER_LAYER: list[tuple[str, str, str]] = []


def _add(names, unit, better):
    PER_LAYER.extend((n, unit, better) for n in names)


_SPAN_FIELDS = {
    "schur_weyl.weights_analytic": ("calls", "busy_ms", "p90_ms"),
    "teleport.ideal_fidelity": ("busy_ms",),
    "partitions.large_deviation_bound": ("busy_ms",),
    "partitions.enumerate_partitions": ("busy_ms",),
    "schur_weyl.build_schur_basis": ("calls", "busy_ms", "p90_ms"),
    "schur_weyl.save_basis": ("busy_ms",),
    "schur_weyl.load_basis": ("busy_ms",),
    "schur_weyl.weights_by_projector": ("busy_ms",),
    "schur_weyl.standard_form": ("calls", "busy_ms", "p50_ms"),
    "teleport.run_teleport": ("calls", "busy_ms", "p50_ms", "p90_ms"),
    "locc.two_stage_estimate": ("calls", "busy_ms", "p50_ms"),
    "locc.enumerate_paths": ("calls", "busy_ms", "p90_ms"),
    "locc.run_locc": ("busy_ms",),
    "locc.teleport_protocol": ("busy_ms",),
    "locc.verify_fisher_additivity": ("busy_ms",),
    "estimation.fisher_data": ("busy_ms",),
    "estimation.measurement_fisher": ("busy_ms",),
}
_SPAN_FIELDS.update({f"cli.main.{c}": ("calls", "busy_ms") for c in CLI_COMMANDS})

_UNITS = {"calls": ("count", "higher"), "busy_ms": ("ms", "lower"),
          "p50_ms": ("ms", "lower"), "p90_ms": ("ms", "lower")}
for _name, _fields in _SPAN_FIELDS.items():
    for _f in _fields:
        PER_LAYER.append((f"{_name}.{_f}", *_UNITS[_f]))
_add(["schur_weyl.build_schur_basis.d2.busy_ms",
      "schur_weyl.build_schur_basis.d3plus.busy_ms"], "ms", "lower")
_add(["partitions.blocks_evaluated", "schur_weyl.basis_columns_built",
      "schur_weyl.load_or_build_basis.hits", "schur_weyl.schur_basis.cache_hits",
      "teleport.outcomes.ok", "teleport.outcomes.vacuous",
      "teleport.outcomes.nothing_to_teleport", "locc.two_stage.trials",
      "locc.enumerate_paths.paths_returned", "spectra.weight_check.attempts"],
     "count", "higher")
_add(["schur_weyl.load_or_build_basis.misses", "schur_weyl.schur_basis.cache_misses",
      "teleport.outcomes.check_failures", "locc.two_stage.estimation_failures",
      "spectra.weight_check.failures"], "count", "lower")
_add(["partitions.us_per_block", "locc.two_stage.us_per_trial"], "us", "lower")
_add(["schur_weyl.npz_bytes_written", "teleport.dense_bytes_computed"], "B", "lower")
_add(["fail_frac", "spectra.known_defect_frac", "trace.overhead_frac"], "ratio", "lower")

_COUNTERS = (
    "partitions.blocks_evaluated", "schur_weyl.basis_columns_built",
    "schur_weyl.load_or_build_basis.hits", "schur_weyl.load_or_build_basis.misses",
    "schur_weyl.npz_bytes_written", "teleport.dense_bytes_computed",
    "teleport.outcomes.ok", "teleport.outcomes.vacuous",
    "teleport.outcomes.nothing_to_teleport", "teleport.outcomes.check_failures",
    "locc.two_stage.trials", "locc.two_stage.estimation_failures",
    "locc.enumerate_paths.paths_returned",
    "spectra.weight_check.attempts", "spectra.weight_check.failures",
)


def per_layer_metrics(rec: Recorder, extra: dict[str, float]) -> dict[str, float]:
    """Every per-layer metric from a traced run; ``extra`` supplies the
    values measured outside the recorder (fail_frac, trace overhead, cache
    statistics)."""
    spans, ops = rec.spans, rec.ops
    out: dict[str, float] = {}
    for name, fields in _SPAN_FIELDS.items():
        out.update(_span_stats(spans, ops, name, fields))
    build = "schur_weyl.build_schur_basis"
    out[f"{build}.d2.busy_ms"] = _span_stats(
        spans, ops, build, ("busy_ms",), lambda op: op.d == 2)[f"{build}.busy_ms"]
    out[f"{build}.d3plus.busy_ms"] = _span_stats(
        spans, ops, build, ("busy_ms",), lambda op: op.d >= 3)[f"{build}.busy_ms"]
    for name in _COUNTERS:
        out[name] = rec.counts[name]
    weighing_ms = sum(s.ms for s in spans if s.name in _WEIGHING_SPANS)
    blocks = rec.counts["partitions.blocks_evaluated"]
    out["partitions.us_per_block"] = 1e3 * weighing_ms / blocks if blocks else 0.0
    trials = rec.counts["locc.two_stage.trials"]
    two_stage_ms = out["locc.two_stage_estimate.busy_ms"]
    out["locc.two_stage.us_per_trial"] = 1e3 * two_stage_ms / trials if trials else 0.0
    out.update(extra)
    missing = [name for name, _, _ in PER_LAYER if name not in out]
    if missing:
        raise KeyError(f"per-layer metrics not computed: {missing}")
    return {name: out[name] for name, _, _ in PER_LAYER}


def host_factors(ops: list[OpSpan], probes: list[tuple[float, float]]) -> np.ndarray:
    """Per operation, CALIBRATION_REF_S over the mean probe time within
    CALIBRATION_WINDOW_S of the operation: the factor that scales its wall
    time to the reference host speed."""
    times = np.array([t for t, _ in probes])
    cumulative = np.concatenate([[0.0], np.cumsum([d for _, d in probes])])
    lo = np.searchsorted(times, [op.start - CALIBRATION_WINDOW_S for op in ops])
    hi = np.searchsorted(times, [op.end + CALIBRATION_WINDOW_S for op in ops], side="right")
    return CALIBRATION_REF_S * (hi - lo) / (cumulative[hi] - cumulative[lo])


def latency_summary(rec: Recorder, rounds: list[tuple[int, int, float]]) -> dict:
    """End-to-end figures of one timed loop of whole rounds, each given as
    (first operation, end operation, wall seconds).

    Operation times are host-normalized (see ``probe``); the raw wall
    times are summarised too. Every round has the same mix, so throughput is
    taken from the median round: operations per second of library time.
    """
    raw = np.array([op.ms for op in rec.ops])
    factors = host_factors(rec.ops, rec.probes)
    norm = raw * factors
    beyond = len(raw) - math.ceil(0.9 * len(raw))
    return {
        "ops": len(raw),
        "rounds": len(rounds),
        "wall_s": sum(wall for _, _, wall in rounds),
        "throughput_ops_s": statistics.median(
            1e3 * (end - first) / norm[first:end].sum() for first, end, _ in rounds),
        "latency_p50_ms": harrell_davis(norm, 0.5),
        "latency_p90_ms": harrell_davis(norm, 0.9),
        "samples_beyond_p90": beyond,
        "host_factor_median": float(np.median(factors)),
        "raw_throughput_ops_s": statistics.median(
            (end - first) / wall for first, end, wall in rounds),
        "raw_latency_p50_ms": harrell_davis(raw, 0.5),
        "raw_latency_p90_ms": harrell_davis(raw, 0.9),
        "round_s": [wall for _, _, wall in rounds],
    }
