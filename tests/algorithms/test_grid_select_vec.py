"""Differential witness: the array-pass grid picker against the scalar scan.

``select_grid`` scores expression (3) over every factor triple of ``P`` in
one numpy pass and replays the historical scan over the scores.  The
reference below is an independent, test-local copy of that historical
scalar scan — its own trial division, its own triple order, its own
inline formula — and the picker must agree with it on every field of the
:class:`GridChoice` and on every :class:`GridError` message.
"""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms import (
    GridChoice,
    ProcessorGrid,
    divisor_grids,
    factor_triples,
    select_grid,
)
from repro.algorithms.grid_selection import sorted_divisors
from repro.core import ProblemShape, classify
from repro.exceptions import GridError

WEIGHTS = [(0.0, 1.0), (0.5, 2.0), (1e3, 1.0)]


# --------------------------------------------------------------------- #
# the scalar reference                                                  #
# --------------------------------------------------------------------- #


def reference_divisors(P):
    small, large = [], []
    d = 1
    while d * d <= P:
        if P % d == 0:
            small.append(d)
            if d != P // d:
                large.append(P // d)
        d += 1
    return small + large[::-1]


def reference_triples(P):
    for p1 in reference_divisors(P):
        rest = P // p1
        for p2 in reference_divisors(rest):
            yield (p1, p2, rest // p2)


def reference_rounds(p):
    if p <= 1:
        return 0
    if p & (p - 1) == 0:
        return p.bit_length() - 1
    return p - 1


def reference_words(shape, dims):
    n1, n2, n3 = shape.dims
    p1, p2, p3 = dims
    return (
        n1 * n2 * (p3 - 1) / p3 / (p1 * p2)
        + n2 * n3 * (p1 - 1) / p1 / (p2 * p3)
        + n1 * n3 * (p2 - 1) / p2 / (p1 * p3)
    )


def reference_select(shape, P, require_divisibility=False, alpha=0.0, beta=1.0):
    """The historical per-triple scan, returning a GridChoice or GridError."""
    best = None
    best_objective = float("inf")
    n1, n2, n3 = shape.dims
    for dims in reference_triples(P):
        p1, p2, p3 = dims
        divides = n1 % p1 == 0 and n2 % p2 == 0 and n3 % p3 == 0
        if require_divisibility and not divides:
            continue
        rounds = reference_rounds(p3) + reference_rounds(p1) + reference_rounds(p2)
        objective = alpha * rounds + beta * reference_words(shape, dims)
        if best is None or objective < best_objective - 1e-12 or (
            abs(objective - best_objective) <= 1e-12 and dims > best[0]
        ):
            best = (dims, divides)
            best_objective = objective
    if best is None:
        return GridError(
            f"no factor triple of P={P} divides the dimensions {shape.dims}"
        )
    dims, divides = best
    return GridChoice(
        grid=ProcessorGrid(*dims),
        cost=reference_words(shape, dims),
        regime=classify(shape, P),
        divides=divides,
    )


def picked(shape, P, require_divisibility=False, alpha=0.0, beta=1.0):
    try:
        return select_grid(shape, P, require_divisibility, alpha, beta)
    except GridError as exc:
        return exc


def assert_same(got, want):
    if isinstance(want, GridError):
        assert isinstance(got, GridError), got
        assert str(got) == str(want)
        return
    assert isinstance(got, GridChoice), got
    assert got.grid == want.grid
    assert repr(got.cost) == repr(want.cost)
    assert got.regime is want.regime
    assert got.divides == want.divides
    assert got == want


# --------------------------------------------------------------------- #
# property-based differential                                           #
# --------------------------------------------------------------------- #

dims_st = st.one_of(
    st.integers(1, 10**5),
    st.builds(
        lambda a, b, c: 2**a * 3**b * 5**c,
        st.integers(0, 12), st.integers(0, 6), st.integers(0, 5),
    ),
    st.integers(10**7, 10**9),
)


@st.composite
def shapes(draw):
    a, b, c = draw(dims_st), draw(dims_st), draw(dims_st)
    # Permutation-symmetric shapes put exact ties between mirrored grids.
    form = draw(st.sampled_from(["abc", "aab", "aba", "baa", "aaa"]))
    pick = {"a": a, "b": b, "c": c}
    return ProblemShape(*(pick[ch] for ch in form))


smooth_P = st.builds(
    lambda a, b, c: 2**a * 3**b * 5**c,
    st.integers(0, 23), st.integers(0, 14), st.integers(0, 10),
).filter(lambda P: P <= 10**7)

weights = st.sampled_from(WEIGHTS)


@settings(max_examples=150)
@given(shapes(), st.integers(1, 10**5), st.booleans(), weights)
def test_matches_scalar_scan_small_P(shape, P, require, w):
    assert_same(picked(shape, P, require, *w), reference_select(shape, P, require, *w))


@settings(max_examples=40)
@given(shapes(), smooth_P, st.booleans(), weights)
def test_matches_scalar_scan_smooth_P(shape, P, require, w):
    assert_same(picked(shape, P, require, *w), reference_select(shape, P, require, *w))


# --------------------------------------------------------------------- #
# pinned cases                                                          #
# --------------------------------------------------------------------- #

TALL = ProblemShape(10000, 1000, 1000)


def test_two_ulp_gap_is_not_an_improvement():
    # (1229, 47, 3) scores two ulps below (1229, 3, 47), but near 10^4 the
    # scan's `b < a - 1e-12` is false in float: an argmin would differ.
    from repro.algorithms import alg1_cost

    first, later = ProcessorGrid(1229, 3, 47), ProcessorGrid(1229, 47, 3)
    assert alg1_cost(TALL, later) < alg1_cost(TALL, first)
    assert select_grid(TALL, 173289).grid.dims == (1229, 3, 47)
    assert_same(picked(TALL, 173289), reference_select(TALL, 173289))


@pytest.mark.parametrize("alpha,beta,dims", [(0.5, 2.0, (255, 25, 27)), (0.0, 1.0, (255, 27, 25))])
def test_one_ulp_tie_depends_on_weights(alpha, beta, dims):
    assert select_grid(TALL, 172125, alpha=alpha, beta=beta).grid.dims == dims
    assert_same(
        picked(TALL, 172125, False, alpha, beta),
        reference_select(TALL, 172125, False, alpha, beta),
    )


@pytest.mark.parametrize(
    "shape,P",
    [
        # Every numerator n_a n_b (p - 1) is beyond 2**53: all Python ints.
        (ProblemShape(10**8, 10**8, 3), 720),
        # Mixed: n1 n2 = 10^12, so rows with p3 > 9008 leave the float path.
        (ProblemShape(10**6, 10**6, 7), 2**10 * 3**4 * 5**2),
        (ProblemShape(3 * 10**7, 10**6, 10**6), 55440),
        # Dimensions beyond int64 still get exact divisibility flags.
        (ProblemShape(2**70 * 45, 3, 2**64 + 1), 720),
    ],
)
@pytest.mark.parametrize("w", WEIGHTS)
def test_numerators_beyond_2_53(shape, P, w):
    n1, n2, n3 = shape.dims
    assert any(
        max(n1 * n2 * (p3 - 1), n2 * n3 * (p1 - 1), n1 * n3 * (p2 - 1)) > 2**53
        for p1, p2, p3 in reference_triples(P)
    )
    for require in (False, True):
        assert_same(picked(shape, P, require, *w), reference_select(shape, P, require, *w))


@pytest.mark.parametrize("alpha,beta", [(0, 1), (3, 2), (np.float64(0.5), 2.0)])
def test_non_float_weights(alpha, beta):
    for shape, P in [(TALL, 172125), (ProblemShape(96, 24, 6), 720)]:
        assert_same(
            picked(shape, P, False, alpha, beta),
            reference_select(shape, P, False, alpha, beta),
        )


def test_refusal_message_matches():
    shape = ProblemShape(7, 11, 13)
    want = reference_select(shape, 4, True)
    assert isinstance(want, GridError)
    assert_same(picked(shape, 4, True), want)


# --------------------------------------------------------------------- #
# divisors and triples                                                  #
# --------------------------------------------------------------------- #


def test_sorted_divisors_small_P():
    for P in range(1, 10**4 + 1):
        assert list(sorted_divisors(P)) == reference_divisors(P), P


def test_sorted_divisors_random_large_P():
    rng = random.Random(20220527)
    for P in [rng.randrange(1, 10**12) for _ in range(5)] + [999966000289, 963761198400]:
        assert list(sorted_divisors(P)) == reference_divisors(P), P


@pytest.mark.parametrize("P", [1, 2, 12, 64, 720, 8648640])
def test_factor_triples_order(P):
    assert list(factor_triples(P)) == list(reference_triples(P))


@pytest.mark.parametrize(
    "shape,P",
    [
        (ProblemShape(96, 24, 6), 720),
        (ProblemShape(9600, 2400, 600), 512),
        (ProblemShape(2**70 * 45, 3, 2**64 + 1), 720),
    ],
)
def test_divisor_grids_match_reference(shape, P):
    n1, n2, n3 = shape.dims
    want = sorted(
        (
            GridChoice(ProcessorGrid(*d), reference_words(shape, d), classify(shape, P), True)
            for d in reference_triples(P)
            if n1 % d[0] == 0 and n2 % d[1] == 0 and n3 % d[2] == 0
        ),
        key=lambda c: c.cost,
    )
    assert divisor_grids(shape, P) == want


# --------------------------------------------------------------------- #
# typed P validation                                                    #
# --------------------------------------------------------------------- #

SHAPE = ProblemShape(96, 24, 6)
PICKERS = [
    lambda P: select_grid(SHAPE, P),
    lambda P: divisor_grids(SHAPE, P),
    sorted_divisors,
    factor_triples,
]


@pytest.mark.parametrize("pick", PICKERS)
def test_string_P_is_typed(pick):
    with pytest.raises(GridError, match="'8'"):
        pick("8")


@pytest.mark.parametrize("pick", PICKERS)
def test_P_beyond_int64_is_refused_at_once(pick):
    with pytest.raises(GridError, match=str(2**64)):
        pick(2**64)
    with pytest.raises(GridError, match=str(2**63)):
        pick(2**63)


@pytest.mark.parametrize("pick", PICKERS)
def test_float_P_is_typed(pick):
    with pytest.raises(GridError, match="2.5"):
        pick(2.5)


@pytest.mark.parametrize("pick", PICKERS)
@pytest.mark.parametrize("flag", [True, False, np.True_])
def test_bool_P_is_refused(pick, flag):
    with pytest.raises(GridError, match=str(flag)):
        pick(flag)


@pytest.mark.parametrize("pick", PICKERS)
@pytest.mark.parametrize("P", [0, -8])
def test_nonpositive_P_is_refused(pick, P):
    with pytest.raises(GridError, match=str(P)):
        pick(P)


@pytest.mark.parametrize("P", [np.int64(8), np.int32(8), np.uint16(8)])
def test_numpy_integer_P_is_accepted(P):
    choice = select_grid(SHAPE, P)
    assert choice == select_grid(SHAPE, 8)
    assert type(choice.grid.p1) is int
    assert sorted_divisors(P) == (1, 2, 4, 8)
    assert list(factor_triples(P)) == list(reference_triples(8))


def test_divisor_scan_crosses_chunks():
    # The scan takes 2**20 candidates per chunk; q = 2**20 + 7 is a prime
    # found only in the second chunk, and 2**42 - 11 is a prime that
    # needs two chunks to clear.
    q = 2**20 + 7
    assert sorted_divisors(q * q) == (1, q, q * q)
    assert list(sorted_divisors(6 * q * q)) == reference_divisors(6 * q * q)
    P = 2**42 - 11
    assert sorted_divisors(P) == (1, P)
    assert math.prod(select_grid(SHAPE, P).grid.dims) == P
