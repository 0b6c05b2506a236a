"""Differential harness: vectorized oracle == scalar oracle, zero tolerance.

:func:`repro.analysis.oracle_vec.predict_batch` re-implements every
closed form array-wise and replaces typed refusals with a validity mask.
Its contract is *bit-exact agreement* with the scalar oracle — costs,
config strings, bounds, attainment ratios, sweep-style gap ratios — and
*exact mask agreement*: ``valid[i]`` is False precisely where the scalar
oracle raises :class:`~repro.exceptions.OracleUnsupportedError`.

The main test sweeps a seeded randomized grid of 500+ configurations
(divisor-friendly and deliberately ragged shapes, processor counts from
1 to five digits) spanning all three Theorem 3 cases, across every
registry algorithm and ``alg1``'s collective variants, comparing every
field at **zero tolerance** — ``==`` on floats, no ``approx`` anywhere.
A second check chains the equality to both execution backends through
:func:`~repro.analysis.verification.cross_check_oracle` (scalar == both
simulators, vectorized == scalar, hence vectorized == both simulators).

The scatter-allgather broadcast kernels get their own exhaustive test:
the closed-form interval/overlap evaluation versus the scalar replay,
for every root rotation, over all small ``(p, w)``.
"""

import math

import numpy as np
import pytest

from repro.analysis.oracle import (
    ORACLE_ALGORITHMS,
    _scatter_allgather_broadcast,
    predict_cost,
)
from repro.analysis.oracle_vec import (
    _sab_all_roots,
    _sab_merged_roots,
    predict_batch,
)
from repro.analysis.verification import (
    check_cost_against_bound,
    cross_check_oracle,
)
from repro.core.cases import Regime, classify
from repro.core.shapes import ProblemShape
from repro.exceptions import OracleUnsupportedError, ShapeError

SEED = 20260808
N_CONFIGS = 520

#: Dimension pool mixing highly divisible values (so square/3D grids are
#: admissible) with primes and odd values (so refusals are exercised).
_DIM_POOL = [
    1, 2, 3, 4, 5, 6, 7, 8, 9, 12, 16, 17, 24, 32, 36, 48, 60, 64, 72,
    96, 100, 128, 144, 192, 240, 256, 360, 512, 720, 1024, 1296, 2048,
]
#: Processor pool: small, square, power-of-two, prime and composite P.
_PROC_POOL = [
    1, 2, 3, 4, 5, 6, 7, 8, 9, 12, 16, 24, 25, 27, 32, 36, 48, 64, 81,
    100, 128, 144, 216, 256, 441, 512, 576, 1024, 2025, 4096, 10000,
]


def _random_grid():
    """The seeded (shape, P) grid every differential test sweeps."""
    rng = np.random.default_rng(SEED)
    rows = []
    for _ in range(N_CONFIGS):
        dims = tuple(int(d) for d in rng.choice(_DIM_POOL, size=3))
        P = int(rng.choice(_PROC_POOL))
        rows.append((dims, P))
    # Pin a few corners the random draw may miss: P exceeding dims,
    # singleton grids, and the case-1/2 boundaries.
    rows += [
        ((64, 4, 4), 4), ((32, 32, 4), 16), ((16, 16, 16), 4),
        ((16, 16, 16), 8), ((36, 36, 36), 9), ((64, 64, 8), 64),
        ((7, 5, 3), 4), ((9, 9, 9), 4), ((1, 1, 1), 1), ((2, 2, 2), 4096),
    ]
    return rows


GRID = _random_grid()


def _eq(a, b) -> bool:
    """Zero-tolerance equality treating NaN == NaN as equal."""
    if isinstance(a, float) and isinstance(b, float):
        return (math.isnan(a) and math.isnan(b)) or a == b
    return a == b


def _assert_row_matches(batch, i, name, shape, P, collective=None):
    """Row ``i`` of ``batch`` equals the scalar oracle on every field."""
    try:
        expected = predict_cost(name, shape, P, collective_algorithm=collective)
    except OracleUnsupportedError:
        assert not batch.valid[i], (
            f"{name} on {shape} P={P}: scalar refuses but mask says valid"
        )
        assert batch.configs[i] is None
        with pytest.raises(OracleUnsupportedError):
            batch.prediction(i)
        return
    assert batch.valid[i], (
        f"{name} on {shape} P={P}: scalar predicts but mask says invalid"
    )
    got = batch.prediction(i)
    check = check_cost_against_bound(shape, P, expected.cost)
    pairs = [
        ("rounds", expected.cost.rounds, got.cost.rounds),
        ("words", expected.cost.words, got.cost.words),
        ("flops", expected.cost.flops, got.cost.flops),
        ("config", expected.config, got.config),
        ("bound", expected.bound, got.bound),
        ("attainment", expected.attainment, got.attainment),
        ("gap_ratio", check.gap_ratio, float(batch.gap_ratio[i])),
        ("satisfied", check.satisfied, bool(batch.satisfied[i])),
    ]
    for field, a, b in pairs:
        assert _eq(a, b), (
            f"{name} on {shape} P={P}: {field} diverged "
            f"(scalar {a!r}, vectorized {b!r})"
        )


def test_grid_covers_all_three_cases():
    regimes = {classify(ProblemShape(*dims), P) for dims, P in GRID}
    assert regimes == {Regime.ONE_D, Regime.TWO_D, Regime.THREE_D}


def test_grid_is_large_enough():
    assert len(GRID) >= 500


@pytest.mark.parametrize("name", ORACLE_ALGORITHMS)
def test_differential_against_scalar(name):
    shapes = [dims for dims, _ in GRID]
    procs = [P for _, P in GRID]
    batch = predict_batch(name, shapes, procs)
    assert len(batch) == len(GRID)
    for i, (dims, P) in enumerate(GRID):
        _assert_row_matches(batch, i, name, ProblemShape(*dims), P)
    # The grid must exercise both sides of the mask for every algorithm —
    # a vacuous all-valid or all-refused run proves nothing.
    assert batch.valid.any(), f"{name}: no valid configuration in the grid"
    assert not batch.valid.all(), f"{name}: no refusal in the grid"


@pytest.mark.parametrize(
    "collective", ["ring", "bruck", "recursive_doubling", "mystery"]
)
def test_differential_alg1_collectives(collective):
    sub = GRID[::4]
    shapes = [dims for dims, _ in sub]
    procs = [P for _, P in sub]
    batch = predict_batch(
        "alg1", shapes, procs, collective_algorithm=collective
    )
    for i, (dims, P) in enumerate(sub):
        _assert_row_matches(
            batch, i, "alg1", ProblemShape(*dims), P, collective=collective
        )


#: One point per Theorem 3 case where every backend comparison is cheap.
_BACKEND_POINTS = [
    ("alg1", (64, 4, 4), 4),
    ("summa", (32, 32, 4), 16),
    ("cannon", (16, 16, 16), 4),
]


@pytest.mark.parametrize("backend", ["data", "symbolic"])
@pytest.mark.parametrize("name,dims,P", _BACKEND_POINTS)
def test_matches_both_backends(name, dims, P, backend):
    """vectorized == scalar == simulated cost on each backend."""
    shape = ProblemShape(*dims)
    cross_check_oracle(name, shape, P, backend=backend)  # scalar == sim
    batch = predict_batch(name, shape, P)
    _assert_row_matches(batch, 0, name, shape, P)  # vectorized == scalar


class TestScatterAllgatherKernels:
    """Closed-form broadcast words vs the scalar replay, exhaustively."""

    def test_single_root_totals(self):
        for p in range(2, 18):
            for w in range(p, 4 * p + 4):
                rounds, total = _sab_all_roots(p, w)
                expected_total = 0
                for rho in range(p):
                    r, words = _scatter_allgather_broadcast(p, w, (rho,))
                    assert r == rounds, (p, w, rho)
                    expected_total += words
                assert total == expected_total, (p, w)

    def test_merged_roots(self):
        for p in range(2, 18):
            for w in range(p, 4 * p + 4):
                assert _sab_merged_roots(p, w) == _scatter_allgather_broadcast(
                    p, w, range(p)
                ), (p, w)

    def test_empty_pieces_refused(self):
        with pytest.raises(OracleUnsupportedError):
            _sab_all_roots(8, 7)
        with pytest.raises(OracleUnsupportedError):
            _sab_merged_roots(8, 7)


class TestBatchInterface:
    def test_unknown_algorithm_raises(self):
        with pytest.raises(OracleUnsupportedError, match="unknown algorithm"):
            predict_batch("strassen", (8, 8, 8), 4)

    def test_nonpositive_dims_raise(self):
        with pytest.raises(ShapeError):
            predict_batch("alg1", (0, 8, 8), 4)

    def test_nonpositive_P_is_masked(self):
        batch = predict_batch("alg1", [(8, 8, 8), (8, 8, 8)], [0, 4])
        assert not batch.valid[0] and batch.valid[1]
        with pytest.raises(OracleUnsupportedError):
            batch.prediction(0)

    @pytest.mark.parametrize("name", sorted(ORACLE_ALGORITHMS))
    def test_empty_batch_is_empty(self, name):
        batch = predict_batch(name, [], [])
        assert len(batch) == 0
        assert batch.dims.shape == (0, 3)
        assert batch.configs == []

    def test_two_dims_raise_typed(self):
        with pytest.raises(ShapeError):
            predict_batch("alg1", (8, 8), 4)

    def test_length_mismatch_raises(self):
        with pytest.raises(ShapeError, match="mismatch"):
            predict_batch("alg1", [(8, 8, 8), (4, 4, 4)], [1, 2, 3])

    def test_broadcasting_one_shape_many_P(self):
        batch = predict_batch("cannon", (16, 16, 16), [1, 4, 5, 16])
        assert list(batch.valid) == [True, True, False, True]
        assert batch.configs[3] == "grid 4x4"

    def test_fallback_rows_match_scalar(self):
        """Rows beyond the exact int64/float64 range use the scalar path."""
        dims, P = (2 ** 20, 2 ** 20, 2 ** 14), 2 ** 16
        shape = ProblemShape(*dims)
        batch = predict_batch("summa", dims, P)
        _assert_row_matches(batch, 0, "summa", shape, P)
