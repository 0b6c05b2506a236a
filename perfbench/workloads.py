"""The benchmark's four seeded workloads, driven through ``repro``'s public API.

Every workload is one client in a closed loop (the next op is sent when
the previous one returns) with ``workers=1``: all ops run in this process.
An op list is plain data generated from the benchmark seed; the program
only ever sees the generated inputs.  Each workload splits into

* ``setup()``: seeded input generation and the untimed references the
  checks compare against (oracle predictions, numpy products, clean runs);
* ``pass_ops(i)``: the ops of timed pass ``i``;
* ``execute(op)``: the one timed call;
* ``check(op, result)``: correctness, outside the timed window.  It
  returns the failure reason (``None`` when the op is correct) and the
  op's model counts, which the harness pins.
"""

from __future__ import annotations

import bisect
import hashlib
import json
import math
import random
import time
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.algorithms import registry
from repro.algorithms.abft import ABFT_ALGORITHMS
from repro.analysis import chaos, oracle, plan, survive
from repro.core.shapes import ProblemShape
from repro.exceptions import FaultDetectedError, FaultError, RankFailedError
from repro.machine import backend, faults

__all__ = ["WORKLOADS", "Workload", "make_workload"]

#: Model counts every op reports; summed over a pass they are the pins.
COUNT_KEYS = ("words", "rounds", "flops", "messages")


def _rng(seed: int, *salt: Any) -> random.Random:
    """A ``random.Random`` keyed on the seed and a salt, stable across runs."""
    digest = hashlib.sha256(json.dumps([seed, *salt]).encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "little"))


def _np_seed(seed: int, *salt: Any) -> int:
    return _rng(seed, "numpy", *salt).getrandbits(63)


def _cost_counts(cost, run) -> Dict[str, float]:
    return {
        "words": cost.words,
        "rounds": cost.rounds,
        "flops": cost.flops,
        "messages": sum(run.machine.network.sent_messages),
    }


def _cost_mismatch(cost, expected) -> Optional[str]:
    if (cost.rounds, cost.words, cost.flops) != (
        expected.rounds, expected.words, expected.flops
    ):
        return (
            f"model cost {cost.rounds} rounds / {cost.words:g} words / "
            f"{cost.flops:g} flops differs from predict_cost "
            f"{expected.rounds} / {expected.words:g} / {expected.flops:g}"
        )
    return None


class Workload:
    """Base class: a seeded op list plus its set-up, op and check."""

    name = ""
    #: Whether the ops run the simulator (and so report simulated messages).
    simulates = True
    #: Whether the network is fault-free, so traced rounds must equal the
    #: model's round count exactly.
    clean_network = True
    backend_name = ""

    def __init__(self, seed: int, smoke: bool = False) -> None:
        self.seed = seed
        self.smoke = smoke

    def setup(self) -> None:
        """Generate the inputs and the references the checks use."""

    def pass_ops(self, index: int) -> List[dict]:
        """The ops of timed pass ``index`` (the same list for every pass
        unless the workload streams fresh keys)."""
        return self.ops

    def warmup_ops(self) -> List[dict]:
        return self.ops

    def describe(self) -> List[dict]:
        """The generated op list, as plain data, for the fingerprint."""
        return self.ops

    def fingerprint(self) -> str:
        doc = json.dumps(
            {"workload": self.name, "seed": self.seed, "smoke": self.smoke,
             "ops": self.describe()},
            sort_keys=True,
        )
        return hashlib.sha256(doc.encode()).hexdigest()

    def execute(self, op: dict) -> Any:
        raise NotImplementedError

    def check(self, op: dict, result: Any) -> Tuple[Optional[str], Dict[str, float]]:
        raise NotImplementedError

    def info(self) -> dict:
        """Workload facts for the report (working-set size and the like)."""
        return {}

    def numpy_gflops(self) -> float:
        """Rate of a plain numpy ``A @ B`` over one pass's problems (0 when
        the workload multiplies no real matrices)."""
        return 0.0


class DataOperands:
    """Seeded real operands per shape, with the numpy product of each.

    The product is timed here (median of three) because
    ``machine.backend.rate_vs_numpy`` divides by it.
    """

    def __init__(self) -> None:
        self.operands: Dict[tuple, Tuple[np.ndarray, np.ndarray]] = {}
        self.product: Dict[tuple, np.ndarray] = {}
        self.seconds: Dict[tuple, float] = {}

    def add(self, dims: tuple, seed: int) -> None:
        if dims in self.operands:
            return
        rng = np.random.default_rng(seed)
        A, B = rng.random(dims[:2]), rng.random(dims[1:])
        times = []
        for _ in range(3):
            start = time.perf_counter()
            C = A @ B
            times.append(time.perf_counter() - start)
        self.operands[dims] = (A, B)
        self.product[dims] = C
        self.seconds[dims] = sorted(times)[1]

    def gflops(self, ops: List[dict]) -> float:
        flops = sum(2 * math.prod(op["dims"]) for op in ops)
        return flops / sum(self.seconds[op["dims"]] for op in ops) / 1e9

    def working_set_mib(self) -> float:
        arrays = [a for pair in self.operands.values() for a in pair]
        arrays += list(self.product.values())
        return sum(a.nbytes for a in arrays) / 2**20


# ---------------------------------------------------------------------- #
# sim-symbolic                                                           #
# ---------------------------------------------------------------------- #

#: One row per (Theorem 3 case, base shape, P).  An applicable registry
#: algorithm runs at a point when the oracle supports it at every scale in
#: SYMBOLIC_SCALES with the same round count, and its predicted rounds x P
#: (a bound on the messages it sends) stays within SYMBOLIC_CEILING.  The
#: ceiling keeps one pass near two host seconds; it admits summa_abft at
#: P=64 (1217 rounds x 64 = 77,888 slots, 68,608 messages: the ROADMAP's
#: columnar-rounds target, whose schedule does not depend on the shape).
#: The case-3 P=64 point starts at 64^3 because the oracle refuses
#: summa_abft at 32^3.
SYMBOLIC_POINTS = (
    (1, (8192, 128, 64), 64),
    (1, (16384, 128, 64), 128),
    (2, (1024, 256, 16), 64),
    (2, (2048, 512, 32), 256),
    (3, (64, 64, 64), 64),
    (3, (128, 128, 128), 512),
    (3, (256, 256, 256), 4096),
)
SYMBOLIC_CEILING = 80_000
#: The seed scales each point's shape by one of these factors.  Symbolic
#: runs move shape descriptors, so host time and message counts do not
#: depend on the factor, while words and flops do.
SYMBOLIC_SCALES = (1, 2, 4)


def _symbolic_rounds(alg: str, base: tuple, P: int) -> Optional[int]:
    """Predicted rounds of ``alg`` at every scale of ``base``, if they agree."""
    rounds = set()
    for scale in SYMBOLIC_SCALES:
        shape = ProblemShape(*(d * scale for d in base))
        if not oracle.oracle_supported(alg, shape, P):
            return None
        rounds.add(oracle.predict_cost(alg, shape, P).cost.rounds)
    return rounds.pop() if len(rounds) == 1 else None


class SimSymbolic(Workload):
    name = "sim-symbolic"
    backend_name = "symbolic"

    def __init__(self, seed: int, smoke: bool = False) -> None:
        super().__init__(seed, smoke)
        rng = _rng(seed, self.name)
        points = SYMBOLIC_POINTS[:1] if smoke else SYMBOLIC_POINTS
        ops = []
        for case, base, P in points:
            scale = rng.choice(SYMBOLIC_SCALES)
            dims = tuple(d * scale for d in base)
            for alg in registry.applicable_algorithms(ProblemShape(*base), P):
                rounds = _symbolic_rounds(alg, base, P)
                if rounds is not None and rounds * P <= SYMBOLIC_CEILING:
                    ops.append({"alg": alg, "dims": dims, "P": P, "case": case})
        rng.shuffle(ops)
        self.ops = ops[:4] if smoke else ops

    def setup(self) -> None:
        self.operands = {}
        self.expected = {}
        for op in self.ops:
            key = (op["alg"], op["dims"], op["P"])
            self.operands[op["dims"]] = backend.symbolic_operands(op["dims"])
            self.expected[key] = oracle.predict_cost(
                op["alg"], ProblemShape(*op["dims"]), op["P"]
            ).cost

    def execute(self, op: dict) -> Any:
        A, B = self.operands[op["dims"]]
        return registry.run_algorithm(op["alg"], A, B, op["P"], backend="symbolic")

    def check(self, op, run):
        expected = self.expected[(op["alg"], op["dims"], op["P"])]
        return _cost_mismatch(run.cost, expected), _cost_counts(run.cost, run)


# ---------------------------------------------------------------------- #
# sim-data                                                               #
# ---------------------------------------------------------------------- #

#: Few ranks, large blocks: ``(shape, P, algorithms left out)``.  Every
#: other applicable algorithm the oracle supports runs.  fox_otto is left
#: out everywhere: its min-plus kernel is not a BLAS product, so it would
#: not measure backend.matmul against numpy.  row_1d/outer_1d at P=64 are
#: left out: each copies the full 768^2 operand to every rank (0.3-0.6 s
#: per run at 768^3), which would turn the workload into one payload-copy test.
DATA_POINTS = (
    ((768, 768, 768), 8, ()),
    ((512, 512, 512), 8, ()),
    ((512, 512, 512), 64, ("row_1d", "outer_1d")),
    ((1024, 256, 512), 16, ()),
)


class SimData(Workload):
    name = "sim-data"
    backend_name = "data"

    def __init__(self, seed: int, smoke: bool = False) -> None:
        super().__init__(seed, smoke)
        points = (((128, 128, 128), 8, ()),) if smoke else DATA_POINTS
        ops = []
        for dims, P, skip in points:
            shape = ProblemShape(*dims)
            for alg in registry.applicable_algorithms(shape, P):
                if alg in skip or alg == "fox_otto":
                    continue
                if oracle.oracle_supported(alg, shape, P):
                    ops.append({"alg": alg, "dims": dims, "P": P,
                                "operand_seed": _np_seed(seed, dims)})
        # Registry order, not shuffled: the order in which payload arrays are
        # freed decides how much heap the allocator keeps, so a fixed order
        # keeps peak RSS comparable across seeds.
        self.ops = ops[:2] if smoke else ops

    def setup(self) -> None:
        self.data = DataOperands()
        self.expected = {}
        for op in self.ops:
            self.data.add(op["dims"], op["operand_seed"])
            self.expected[(op["alg"], op["dims"], op["P"])] = oracle.predict_cost(
                op["alg"], ProblemShape(*op["dims"]), op["P"]
            ).cost

    def execute(self, op: dict) -> Any:
        A, B = self.data.operands[op["dims"]]
        return registry.run_algorithm(op["alg"], A, B, op["P"])

    def check(self, op, run):
        dims = op["dims"]
        problem = _cost_mismatch(run.cost, self.expected[(op["alg"], dims, op["P"])])
        if problem is None and not np.allclose(
            np.asarray(run.C), self.data.product[dims], rtol=1e-9, atol=1e-9
        ):
            problem = "product differs from numpy A @ B"
        return problem, _cost_counts(run.cost, run)

    def numpy_gflops(self) -> float:
        return self.data.gflops(self.ops)

    def info(self) -> dict:
        return {"sim_data_working_set_mib": round(self.data.working_set_mib(), 1)}


# ---------------------------------------------------------------------- #
# chaos-faulty                                                           #
# ---------------------------------------------------------------------- #

#: One data-backend point per Theorem 3 case, each larger than the chaos
#: matrix defaults (P = 4/16/4), where a cell costs only ~1.4 ms.
CHAOS_POINTS = (
    (1, (512, 32, 16), 16),
    (2, (256, 128, 16), 32),
    (3, (64, 64, 64), 16),
)

#: ``ChaosOutcome.outcome`` values, as reported counts.
OUTCOMES = ("clean", "recovered", "reconstructed", "detected", "rank_failed")


class ChaosFaulty(Workload):
    name = "chaos-faulty"
    backend_name = "data"
    clean_network = False

    def __init__(self, seed: int, smoke: bool = False) -> None:
        super().__init__(seed, smoke)
        points = CHAOS_POINTS[2:] if smoke else CHAOS_POINTS
        rng = _rng(seed, self.name)
        ops = []
        for case, dims, P in points:
            algs = registry.applicable_algorithms(ProblemShape(*dims), P)
            if smoke:
                algs = ["alg1", "summa"]
            for alg in algs:
                for schedule in chaos.ALL_SCHEDULES:
                    ops.append({
                        "alg": alg, "dims": dims, "P": P, "case": case,
                        "schedule": schedule,
                        "fault_seed": rng.getrandbits(31),
                        "operand_seed": _np_seed(seed, dims),
                    })
        rng.shuffle(ops)
        self.ops = ops

    def setup(self) -> None:
        """Operands and the fault-free reference run of every cell."""
        self.data = DataOperands()
        self.clean = {}
        self.reference_problem = {}
        for op in self.ops:
            dims = op["dims"]
            self.data.add(dims, op["operand_seed"])
            key = (op["alg"], dims, op["P"])
            if key not in self.clean:
                A, B = self.data.operands[dims]
                run = registry.run_algorithm(op["alg"], A, B, op["P"])
                self.clean[key] = run
                expected = oracle.predict_cost(op["alg"], ProblemShape(*dims), op["P"])
                problem = _cost_mismatch(run.cost, expected.cost)
                if (problem is None and run.semiring == "plus_times"
                        and not np.allclose(run.C, self.data.product[dims])):
                    problem = "clean reference product differs from numpy A @ B"
                self.reference_problem[key] = problem

    def numpy_gflops(self) -> float:
        return self.data.gflops(self.ops)

    def execute(self, op: dict) -> Any:
        A, B = self.data.operands[op["dims"]]
        model = chaos.schedule_model(op["schedule"], op["fault_seed"])
        run = error = None
        with faults.inject(model) as injector:
            try:
                if model.recovery is not None and op["alg"] not in ABFT_ALGORITHMS:
                    run = survive.run_survivable(op["alg"], A, B, op["P"])
                else:
                    run = registry.run_algorithm(op["alg"], A, B, op["P"])
            except FaultError as exc:
                error = exc
        # repro's chaos harness reads every cell's fault counts here; it is the
        # boundary where the traced run counts machine.faults.
        injector.summary()
        return run, error, injector

    def check(self, op, result):
        """The chaos quadchotomy, re-verified from first principles."""
        run, error, injector = result
        key = (op["alg"], op["dims"], op["P"])
        clean = self.clean[key]
        counts = {k: 0 for k in COUNT_KEYS}
        counts["clean_words"] = 0.0
        problem = self.reference_problem[key]
        if isinstance(error, RankFailedError):
            counts["outcome"] = "rank_failed"
        elif isinstance(error, FaultDetectedError):
            counts["outcome"] = "detected"
        elif error is not None:
            return f"untyped fault error {type(error).__name__}: {error}", counts
        else:
            counts.update(_cost_counts(run.cost, run))
            counts["clean_words"] = clean.cost.words
            expected = clean.cost.words + injector.words_resent + injector.words_recovered
            if abs(run.cost.words - expected) > 1e-9 * max(1.0, expected):
                problem = problem or (
                    f"unaccounted words: {run.cost.words:g} != clean "
                    f"{clean.cost.words:g} + resent + recovered"
                )
            if injector.recoveries:
                counts["outcome"] = "reconstructed"
                same = np.allclose(run.C, clean.C)
            else:
                counts["outcome"] = "recovered" if injector.faults_injected else "clean"
                same = np.array_equal(run.C, clean.C)
            if not same:
                problem = problem or "silent corruption: product differs from clean run"
            try:
                run.machine.check_conservation()
            except FaultDetectedError as exc:
                problem = problem or f"conservation broken: {exc}"
        return problem, counts


# ---------------------------------------------------------------------- #
# plan-stream                                                            #
# ---------------------------------------------------------------------- #

#: Shares of the three op kinds.  Cache hits stay well below one half so
#: the median op is a cold single query.
PLAN_MIX = (("miss", 0.70), ("hit", 0.20), ("batch", 0.10))
PLAN_PASS_OPS = 100
PLAN_MAX_P = 10**7
#: Share of single queries that carry a memory budget (Section 6.2
#: crossover through core.crossover.compare_bounds).
PLAN_MEMORY_SHARE = 0.5


#: 5-smooth numbers (2^a 3^b 5^c) up to 10^11.  Planner queries draw their
#: processor counts and dimensions from these: real machines and problems
#: have such sizes, and the registry's grids need them to divide evenly.
SMOOTH = sorted(
    2**a * 3**b * 5**c
    for a in range(37) for b in range(24) for c in range(16)
    if 2**a * 3**b * 5**c <= 10**11
)


def _smooth_near(x: float) -> int:
    """The smallest 5-smooth number >= ``x``."""
    return SMOOTH[bisect.bisect_left(SMOOTH, x)]


def _log_uniform(rng: random.Random, lo: float, hi: float) -> int:
    """A 5-smooth number drawn log-uniformly from ``[lo, hi]``."""
    target = math.exp(rng.uniform(math.log(lo), math.log(max(lo, hi))))
    index = min(bisect.bisect_left(SMOOTH, target), len(SMOOTH) - 1)
    return max(SMOOTH[bisect.bisect_left(SMOOTH, lo)], SMOOTH[index])


def _exact(dims) -> bool:
    """Inside the vectorized oracle's exact int64/float64 range (with margin)."""
    m, n, k = dims
    return m * n * k * min(dims) < 2**50 and m * n + n * k + m * k < 2**50


def _plan_key(rng: random.Random, case: int, P: int) -> Tuple[Tuple[int, int, int], int]:
    """A shape in Theorem 3 ``case`` at ``P`` (sorted ``m >= n >= k``) with
    ``mnk >= P``, so the planner has admissible algorithms to rank.  It is
    returned in random orientation and inside the oracle's exact range."""
    while True:
        if case == 1:  # P <= m/n
            n = _log_uniform(rng, 1, 1000)
            k = _log_uniform(rng, 1, n)
            m = n * P * rng.choice((1, 2, 3, 4))
        elif case == 2:  # m/n <= P <= mn/k^2
            a = _log_uniform(rng, 1, min(P, 10**4))
            lo = math.isqrt(P // a) + 1
            n = _log_uniform(rng, lo, max(lo, 10**4))
            m = n * a
            k = _log_uniform(rng, 1, max(1, n * math.sqrt(a / P)))
        else:  # P >= mn/k^2
            lo = round(P ** (1 / 3)) + 1
            k = _log_uniform(rng, lo, max(lo, 3000))
            n = k * rng.choice((1, 2)) if P >= 4 else k
            m = n * rng.choice((1, 2)) if P * k * k >= 2 * n * n else n
        if _exact((m, n, k)):
            break
    dims = [m, n, k]
    rng.shuffle(dims)
    return tuple(dims), P


class PlanStream(Workload):
    name = "plan-stream"
    simulates = False

    def __init__(self, seed: int, smoke: bool = False) -> None:
        super().__init__(seed, smoke)
        self.pass_size = 12 if smoke else PLAN_PASS_OPS
        self._seen: List[dict] = []

    def _query(self, rng: random.Random, case: int, P: int) -> dict:
        dims, P = _plan_key(rng, case, P)
        M = None
        if rng.random() < PLAN_MEMORY_SHARE:
            m, n, k = dims
            M = float((m * n + m * k + n * k) // P + 1) * _log_uniform(rng, 2, 1000)
        return {"dims": dims, "P": P, "M": M}

    def _block(self, tag: Any, size: int, max_P: int = PLAN_MAX_P) -> List[dict]:
        """``size`` ops with fresh keys; hits repeat keys of earlier blocks.

        Every block has the exact PLAN_MIX shares, cold queries at one
        ladder of processor counts spread over ``log P``, batch sizes over
        64-256 rows, and the three cases in turn within each kind, so
        blocks differ in their keys but not in the kind of work they ask
        for.
        """
        rng = _rng(self.seed, self.name, tag)
        kinds = [k for k, share in PLAN_MIX for _ in range(round(share * size))]
        rng.shuffle(kinds)
        n_miss, n_batch = kinds.count("miss"), kinds.count("batch")
        rungs = list(range(n_miss))
        # Batch j pairs the j-th size with case 1 + j % 3.
        batches = [
            (8 if self.smoke else 64 + (192 * j) // max(1, n_batch - 1), 1 + j % 3)
            for j in range(n_batch)
        ]
        rng.shuffle(batches)
        ops = []
        for kind in kinds:
            if kind == "hit" and self._seen:
                ops.append({"kind": "hit", **rng.choice(self._seen)})
            elif kind == "batch":
                rows, case = batches.pop()
                # An atlas row set: the planner's pinned shape for the case
                # and ``rows`` processor counts drawn log-uniformly from 2
                # to max_P.  Unlike single queries these are not smooth
                # numbers, so a row costs a divisor scan rather than a long
                # grid search.
                grid = sorted({
                    int(math.exp(rng.uniform(math.log(2), math.log(max_P))))
                    for _ in range(rows)
                })
                ops.append({"kind": "batch", "dims": plan.ATLAS_SHAPES[case].dims,
                            "P": grid})
            else:
                # Rung i of a fixed ladder of smooth processor counts: a
                # cold pick's cost follows P's divisors, so a fixed ladder
                # keeps passes and seeds alike while shapes stay fresh.
                # (A hit with nothing to repeat yet becomes a cold query.)
                rung = rungs.pop() if rungs else rng.randrange(n_miss)
                P = _smooth_near(max_P ** ((rung + 0.5) / n_miss))
                ops.append({"kind": "miss", **self._query(rng, 1 + rung % 3, P)})
        self._seen.extend(
            {"dims": op["dims"], "P": op["P"], "M": op["M"]}
            for op in ops if op["kind"] == "miss"
        )
        return ops

    def setup(self) -> None:
        self.cache = plan.PlanCache()
        self._seen = []
        self._passes: Dict[int, List[dict]] = {}
        # Warm-up: the planner's answer sheet for each pinned atlas shape,
        # at the atlas processor counts and every power of two up to
        # PLAN_MAX_P (CARMA rows, whose region replay is the one oracle
        # path that costs up to a second and ~100 MB cold), then a small
        # block that loads every other code path once.  Batch rows that
        # repeat these keys are cache hits, as in a running planner.
        sheet = sorted(set(plan.atlas_processor_counts(PLAN_MAX_P)) | {
            2**e for e in range(1, PLAN_MAX_P.bit_length())})
        self._warmup = [
            {"kind": "batch", "dims": shape.dims, "P": sheet}
            for shape in plan.ATLAS_SHAPES.values()
        ] + self._block("warmup", 10, max_P=10**4)

    def warmup_ops(self) -> List[dict]:
        return self._warmup

    def pass_ops(self, index: int) -> List[dict]:
        if index not in self._passes:
            self._passes[index] = self._block(index, self.pass_size)
        return self._passes[index]

    def describe(self) -> List[dict]:
        """The generator's parameters plus the first pass (keys are
        generated pass by pass, so the stream is unbounded)."""
        probe = PlanStream(self.seed, self.smoke)
        probe.setup()
        return [
            {"mix": PLAN_MIX, "pass_ops": self.pass_size, "max_P": PLAN_MAX_P,
             "memory_share": PLAN_MEMORY_SHARE},
            *probe.warmup_ops(),
            *probe.pass_ops(0),
        ]

    def execute(self, op: dict) -> Any:
        if op["kind"] == "batch":
            n = len(op["P"])
            return plan.plan_batch([op["dims"]] * n, op["P"], cache=self.cache)
        return [plan.plan(op["dims"], op["P"], M=op["M"], cache=self.cache)]

    def check(self, op, results):
        """Every answer against the scalar oracle (batch rows: the winner)."""
        counts = {k: 0 for k in COUNT_KEYS}
        for result in results:
            for cand in result.candidates:
                counts["words"] += cand.words
                counts["rounds"] += cand.rounds
                counts["flops"] += cand.flops
            to_check = result.candidates if op["kind"] != "batch" else result.candidates[:1]
            for cand in to_check:
                try:
                    pred = oracle.predict_cost(cand.algorithm, result.shape, result.P)
                except Exception as exc:  # the planner admitted a refused point
                    return f"planner admitted {cand.algorithm} but oracle refused: {exc}", counts
                if (pred.cost.words, pred.cost.rounds, pred.cost.flops) != (
                    cand.words, cand.rounds, cand.flops
                ):
                    return (
                        f"planner answer for {cand.algorithm} at "
                        f"{result.shape.dims}/P={result.P} disagrees with predict_cost"
                    ), counts
        return None, counts


WORKLOADS = {
    cls.name: cls for cls in (SimSymbolic, SimData, PlanStream, ChaosFaulty)
}


def make_workload(name: str, seed: int, smoke: bool = False) -> Workload:
    return WORKLOADS[name](seed, smoke)
