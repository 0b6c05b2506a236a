"""The timed closed loop, its statistics, and the traced run's layer summary.

A run executes whole passes over a workload's op list until ``seconds``
of wall time have gone by (the pass in progress finishes), so a run is a
whole number of passes that each do the same kind of work.  Only the op
call itself is timed; checks run between ops.
"""

from __future__ import annotations

import math
import resource
import statistics
import time
from collections import Counter, defaultdict
from typing import Dict, List, Optional

from tracer import BOUNDARIES, LAYER_OF, Tracer
from workloads import COUNT_KEYS, OUTCOMES

__all__ = ["Pass", "run_passes", "end_to_end", "layer_summary", "tail"]

#: Every run makes at least this many passes.  ``op_tail_ms`` reports the
#: percentile that leaves ten samples beyond it in this many passes, so
#: the percentile depends only on the op list, and because passes are
#: whole, the same ops sit at it however many passes a run makes.
MIN_PASSES = 3
#: Data-backend payloads are float64: bytes copied = words x 8 (computed).
BYTES_PER_WORD = 8


class Pass:
    """One pass over an op list: per-op wall times, problems and counts."""

    def __init__(self, index: int) -> None:
        self.index = index
        self.walls_ns: List[int] = []
        self.op_ids: List[int] = []
        self.problems: List[Optional[str]] = []
        self.counts: List[dict] = []
        #: Peak RSS of the process when the pass ended, in MB.
        self.peak_rss_mb = 0.0

    @property
    def seconds(self) -> float:
        return sum(self.walls_ns) / 1e9

    @property
    def ok(self) -> int:
        return sum(p is None for p in self.problems)

    def totals(self) -> Dict[str, float]:
        """Model counts summed over the pass (the pins), outcomes counted."""
        out: Dict[str, float] = defaultdict(float)
        for counts in self.counts:
            for key, value in counts.items():
                if key == "outcome":
                    out[f"outcome.{value}"] += 1
                else:
                    out[key] += value
        return dict(out)


def run_op(workload, op, op_id: int, tracer: Optional[Tracer]):
    """Time one op, then check it; returns ``(wall_ns, problem, counts)``."""
    if tracer is not None:
        tracer.op = op_id
    start = time.perf_counter_ns()
    try:
        result = workload.execute(op)
        error = None
    except Exception as exc:  # an untyped failure is a failed op
        error = exc
    wall = time.perf_counter_ns() - start
    if tracer is not None:
        tracer.op = None
    if error is not None:
        return wall, f"{type(error).__name__}: {error}", {}
    try:
        problem, counts = workload.check(op, result)
    except Exception as exc:  # a check that crashes is a failed op too
        problem, counts = f"check raised {type(exc).__name__}: {exc}", {}
    return wall, problem, counts


def run_passes(workload, seconds: float, first: int = 0,
               tracer: Optional[Tracer] = None, op_base: int = 0) -> List[Pass]:
    """Whole passes from pass ``first`` until ``seconds`` have gone by."""
    passes: List[Pass] = []
    deadline = time.perf_counter() + seconds
    op_id = op_base
    index = first
    while len(passes) < MIN_PASSES or time.perf_counter() < deadline:
        current = Pass(index)
        for op in workload.pass_ops(index):
            wall, problem, counts = run_op(workload, op, op_id, tracer)
            current.walls_ns.append(wall)
            current.op_ids.append(op_id)
            current.problems.append(problem)
            current.counts.append(counts)
            op_id += 1
        current.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        passes.append(current)
        index += 1
    return passes


def tail(walls_ms: List[float], pass_size: int) -> Dict[str, float]:
    """The highest percentile with at least ten samples beyond it in
    :data:`MIN_PASSES` passes of ``pass_size`` ops (nearest rank)."""
    values = sorted(walls_ms)
    n = len(values)
    pct = max(0.0, 100 * (1 - 10 / (MIN_PASSES * pass_size)))
    rank = min(n - 1, max(0, math.ceil(pct / 100 * n) - 1))
    return {"value": values[rank], "percentile": pct, "samples": n,
            "beyond": n - 1 - rank}


def end_to_end(passes: List[Pass], simulates: bool) -> dict:
    """Untraced metrics of a run.

    Rates pool all passes.  Peak RSS is read after :data:`MIN_PASSES`
    passes, a fixed amount of work, so that a faster program that fits
    more ops (and more cache entries) into the run does not read as one
    that uses more memory.
    """
    walls_ms = [w / 1e6 for p in passes for w in p.walls_ns]
    seconds = sum(p.seconds for p in passes)
    out = {
        "ops_per_s": sum(p.ok for p in passes) / seconds,
        "peak_rss_mb": passes[min(len(passes), MIN_PASSES) - 1].peak_rss_mb,
        "op_p50_ms": statistics.median(walls_ms),
        "op_tail": tail(walls_ms, len(passes[0].walls_ns)),
        "passes": len(passes),
        "ops": len(walls_ms),
    }
    if simulates:
        out["sim_msgs_per_s"] = sum(
            p.totals().get("messages", 0) for p in passes) / seconds
    return out


# ---------------------------------------------------------------------- #
# the traced run                                                         #
# ---------------------------------------------------------------------- #


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_summary(workload, tracer: Tracer, passes: List[Pass],
                  cache_deltas: Dict[str, tuple]) -> dict:
    """Per-layer metrics of the traced passes, per pass, plus checks.

    Self time is a span's duration minus the time its child spans cover;
    ``harness.self_s`` is op time no root span covers.  The checks:

    * every span's self time and every op's harness time is >= 0, so the
      layer self times plus harness time add up to the op wall times;
    * on a fault-free network, wrapped rounds and messages equal the
      model's rounds and per-rank sent messages exactly.
    """
    spans = tracer.spans
    names = [name for name, _m, _p, _a in BOUNDARIES]
    child_ns = [0] * len(spans)
    for span in spans:
        if span[3] >= 0:
            child_ns[span[3]] += span[2] - span[1]
    self_ns: Dict[str, int] = defaultdict(int)
    calls: Counter = Counter()
    aux: Dict[str, list] = defaultdict(list)
    root_ns: Dict[int, int] = defaultdict(int)
    negative = 0
    for index, (name_id, start, end, parent, op, extra) in enumerate(spans):
        name = names[name_id]
        own = end - start - child_ns[index]
        negative += own < 0
        self_ns[LAYER_OF.get(name, name)] += own
        calls[name] += 1
        if extra:
            aux[name].append(extra)
        if parent < 0:
            root_ns[op] += end - start
    walls = {op: w for p in passes for op, w in zip(p.op_ids, p.walls_ns)}
    harness_ns = sum(w - root_ns[op] for op, w in walls.items())
    negative += sum(w < root_ns[op] for op, w in walls.items())
    total_self = sum(self_ns.values()) + harness_ns

    n = len(passes)
    totals: Dict[str, float] = defaultdict(float)
    for p in passes:
        for key, value in p.totals().items():
            totals[key] += value

    def per_pass(x: float) -> float:
        return x / n

    def self_s(layer: str) -> float:
        return per_pass(self_ns.get(layer, 0) / 1e9)

    rounds = [r for r in aux["machine.network"] if r[0]]
    wrapped_rounds = len(rounds)
    wrapped_messages = sum(r[0] for r in rounds)
    charged_words = sum(r[1] for r in rounds)
    message_words = sum(aux["machine.message"])
    data_backend = workload.backend_name == "data"
    matmul_flops = sum(aux["machine.backend"])
    data_matmul_s = _data_matmul_seconds(spans, names, child_ns)
    gflops = _ratio(matmul_flops, data_matmul_s) / 1e9
    batch = aux["analysis.oracle_vec"]
    fault_counts = aux["machine.faults"]
    grid_hits, grid_misses = cache_deltas.get("grid_selection", (0, 0))
    plan_hits, plan_misses = cache_deltas.get("plan", (0, 0))

    metrics = {
        "algorithms.run.calls": per_pass(calls["algorithms.run"]),
        "algorithms.run.self_s": self_s("algorithms.run"),
        "algorithms.grid_selection.calls": per_pass(calls["algorithms.grid_selection"]),
        "algorithms.grid_selection.self_s": self_s("algorithms.grid_selection"),
        "algorithms.grid_selection.cache_hit_ratio": _ratio(grid_hits, grid_hits + grid_misses),
        "collectives.calls": per_pass(calls["collectives"]),
        "collectives.self_s": self_s("collectives"),
        "machine.network.rounds": per_pass(wrapped_rounds),
        "machine.network.messages": per_pass(wrapped_messages),
        "machine.network.self_s": self_s("machine.network"),
        "machine.network.goodput": _ratio(totals.get("clean_words", totals.get("words", 0))
                                          if workload.simulates else 0, charged_words),
        "machine.message.count": per_pass(calls["machine.message"]),
        "machine.message.self_s": self_s("machine.message"),
        "machine.message.bytes_copied": per_pass(
            message_words * BYTES_PER_WORD if data_backend else 0),
        "machine.backend.calls": per_pass(
            calls["machine.backend"] + calls["machine.backend.symbolic"]),
        "machine.backend.self_s": self_s("machine.backend"),
        "machine.backend.gflops": gflops,
        "machine.backend.rate_vs_numpy": _ratio(gflops, workload.numpy_gflops()),
        "analysis.plan.calls": per_pass(calls["analysis.plan"]),
        "analysis.plan.self_s": self_s("analysis.plan"),
        "analysis.plan.cache_hit_ratio": _ratio(plan_hits, plan_hits + plan_misses),
        "analysis.oracle_vec.calls": per_pass(calls["analysis.oracle_vec"]),
        "analysis.oracle_vec.rows": per_pass(sum(b[0] for b in batch)),
        "analysis.oracle_vec.self_s": self_s("analysis.oracle_vec"),
        "analysis.oracle_vec.valid_ratio": _ratio(sum(b[1] for b in batch),
                                                  sum(b[0] for b in batch)),
        "analysis.oracle.calls": per_pass(calls["analysis.oracle"]),
        "analysis.oracle.self_s": self_s("analysis.oracle"),
        "core.crossover.self_s": self_s("core.crossover"),
        "machine.faults.injected": per_pass(sum(f[0] for f in fault_counts)),
        "machine.faults.retries": per_pass(sum(f[1] for f in fault_counts)),
        "machine.faults.words_resent": per_pass(sum(f[2] for f in fault_counts)),
        "machine.checkpoint.calls": per_pass(
            calls["machine.checkpoint"] + calls["machine.checkpoint.restore"]),
        "machine.checkpoint.self_s": self_s("machine.checkpoint"),
        "analysis.survive.self_s": self_s("analysis.survive"),
        "harness.self_s": per_pass(harness_ns / 1e9),
    }
    for outcome in OUTCOMES:
        metrics[f"chaos.outcome.{outcome}"] = per_pass(totals.get(f"outcome.{outcome}", 0))
    for key in COUNT_KEYS:
        metrics[f"model.{key}"] = per_pass(totals.get(key, 0))

    problems = []
    if negative:
        problems.append(f"{negative} spans or ops have negative self time "
                        f"(spans not nested inside their parent or op)")
    wall_ns = sum(walls.values())
    if total_self != wall_ns:
        problems.append(f"layer self times + harness = {total_self} ns, "
                        f"op wall time = {wall_ns} ns")
    if workload.simulates and workload.clean_network:
        if wrapped_rounds != totals.get("rounds", 0):
            problems.append(f"wrapped rounds {wrapped_rounds} != model rounds "
                            f"{totals.get('rounds', 0)}")
        if wrapped_messages != totals.get("messages", 0):
            problems.append(f"wrapped messages {wrapped_messages} != per-rank sent "
                            f"messages {totals.get('messages', 0)}")
    completeness = {
        "spans": len(spans),
        "layers_plus_harness_s": total_self / 1e9,
        "op_wall_s": wall_ns / 1e9,
        "wrapped_rounds": wrapped_rounds,
        "model_rounds": totals.get("rounds", 0),
        "wrapped_messages": wrapped_messages,
        "model_messages": totals.get("messages", 0),
        "bytes_copied_basis": "computed: message words x 8 bytes (float64) "
                              "on data-backend workloads, 0 on symbolic",
        "problems": problems,
    }
    return {"metrics": metrics, "completeness": completeness}


def _data_matmul_seconds(spans, names, child_ns) -> float:
    """Self time of ``DataBackend.matmul`` spans only (symbolic has no rate)."""
    data_id = names.index("machine.backend")
    return sum(
        s[2] - s[1] - child_ns[i] for i, s in enumerate(spans) if s[0] == data_id
    ) / 1e9
