"""Optimal processor grid selection — Section 5.2.

Given matrix dimensions and ``P`` processors, choose grid dimensions
``p, q, r`` (associated with the sorted dimensions ``m >= n >= k``) so
Algorithm 1 attains the Theorem 3 lower bound:

* **Case 1** (``P <= m/n``): 1D grid ``(P, 1, 1)`` — split only the
  largest dimension.
* **Case 2** (``m/n <= P <= mn/k^2``): 2D grid with ``m/p = n/q``:
  ``p = sqrt(P m / n)``, ``q = sqrt(P n / m)``, ``r = 1``.
* **Case 3** (``mn/k^2 <= P``): 3D grid with cubical local volumes
  ``m/p = n/q = k/r``: ``p = (P/(mnk))^(1/3) m`` etc. (Agarwal et al. 1995).

The continuous formulas above rarely give integers, so this module offers
two entries:

* :func:`continuous_optimal_grid` — the exact real-valued optimum (used to
  verify the case structure and as a search anchor);
* :func:`select_grid` — the best *integer* grid, found by enumerating all
  ordered factor triples of ``P`` and minimizing expression (3), optionally
  restricted to grids that divide the matrix dimensions (required to run
  the executable Algorithm 1 evenly).

For the paper's Figure 2 example (9600 x 2400 x 600) the integer search
recovers exactly the grids in the figure: ``3x1x1``, ``12x3x1``, ``32x8x2``.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import operator
from typing import Iterator, List, Tuple

import numpy as np

from ..core.cases import Regime, classify
from ..core.shapes import ProblemShape
from ..exceptions import GridError
from .cost_models import (
    _check_time_weights,
    _collective_rounds,
    alg1_cost,
    alg1_objective,
)
from .grid import ProcessorGrid

__all__ = [
    "GridChoice",
    "continuous_optimal_grid",
    "factor_triples",
    "select_grid",
    "sorted_divisors",
    "grid_is_exactly_optimal",
    "processor_count",
]

#: Largest processor count the picker accepts: the int64 range of its
#: factor-triple arrays.
_MAX_P = 2**63 - 1

#: Candidates (divisors, or mask cells of factor triples) per numpy chunk.
_CHUNK = 1 << 20

#: float64 holds every integer below this exactly.
_EXACT = 2**53


@dataclasses.dataclass(frozen=True)
class GridChoice:
    """A selected grid together with its predicted cost and context."""

    grid: ProcessorGrid
    cost: float
    regime: Regime
    divides: bool


def _sorted_axis_order(shape: ProblemShape) -> Tuple[int, int, int]:
    """Positions of the dimensions sorted descending.

    Returns indices ``(im, in_, ik)`` into ``(n1, n2, n3)`` such that
    ``dims[im] >= dims[in_] >= dims[ik]`` (stable on ties).
    """
    dims = shape.dims
    order = sorted(range(3), key=lambda i: (-dims[i], i))
    return tuple(order)  # type: ignore[return-value]


def continuous_optimal_grid(shape: ProblemShape, P: int) -> Tuple[float, float, float]:
    """Real-valued optimal grid ``(p1, p2, p3)`` in the original axis order.

    The case formulas of Section 5.2, mapped from sorted ``(p, q, r)`` back
    to the dimensions they split.  Products equal ``P`` exactly.
    """
    if P < 1:
        raise GridError(f"P must be at least 1, got {P}")
    m, n, k = shape.sorted_dims
    regime = classify(shape, P)
    if regime is Regime.ONE_D:
        p, q, r = float(P), 1.0, 1.0
    elif regime is Regime.TWO_D:
        p = (P * m / n) ** 0.5
        q = (P * n / m) ** 0.5
        r = 1.0
    else:
        scale = (P / (m * n * k)) ** (1.0 / 3.0)
        p, q, r = scale * m, scale * n, scale * k
    grid = [0.0, 0.0, 0.0]
    im, in_, ik = _sorted_axis_order(shape)
    grid[im], grid[in_], grid[ik] = p, q, r
    return tuple(grid)  # type: ignore[return-value]


def processor_count(P) -> int:
    """Processor count rule: ``operator.index``-able, not bool, ``1 <= P <= 2**63 - 1``.

    Returns ``P`` as a plain int; anything else raises a
    :class:`GridError` naming ``P``.  The picker's boundary, applied by
    :func:`select_grid`, :func:`sorted_divisors`, :func:`factor_triples`
    and :func:`divisor_grids`: numpy integers pass, while strings, floats,
    bools and values outside the int64 range of the factor-triple arrays
    are refused.
    """
    if isinstance(P, (bool, np.bool_)):
        raise GridError(f"P must be an integer processor count, got {P!r}")
    try:
        value = operator.index(P)
    except TypeError:
        raise GridError(f"P must be an integer processor count, got {P!r}") from None
    if value < 1:
        raise GridError(f"P must be at least 1, got {value}")
    if value > _MAX_P:
        raise GridError(f"P must be at most 2**63 - 1, got {value}")
    return value


def sorted_divisors(P: int) -> Tuple[int, ...]:
    """Ascending divisors of ``P``, found by trial division up to ``sqrt(P)``.

    ``O(sqrt(P))`` instead of the naive ``O(P)`` scan — the difference
    between milliseconds and minutes for the planner's ``P = 10^7``
    atlases.  The scan runs in numpy chunks of ``2**20`` candidates, so
    its memory stays bounded up to ``P = 2**63 - 1``.  Cached: sweeps and
    planners ask for the same processor counts over and over.
    """
    return _sorted_divisors(processor_count(P))


@functools.lru_cache(maxsize=4096)
def _sorted_divisors(P: int) -> Tuple[int, ...]:
    root = math.isqrt(P)
    small = np.concatenate([
        d[P % d == 0]
        for d in (
            np.arange(lo, min(lo + _CHUNK, root + 1), dtype=np.int64)
            for lo in range(1, root + 1, _CHUNK)
        )
    ])
    large = P // small[::-1]
    if root * root == P:
        large = large[1:]
    return tuple(np.concatenate([small, large]).tolist())


def _factor_triple_columns(P: int):
    """Divisors of ``P`` (int64) and, for every ordered factor triple in
    :func:`factor_triples` order, the positions ``(i1, i2, i3)`` of
    ``p1, p2, p3`` among them.

    A ``p2`` belongs to ``p1`` when it divides ``rest = P // p1`` (tested
    as ``rest % p2``, never as the overflowing ``p1 * p2``).  The
    row-major nonzeros of that divisor-by-divisor mask are the
    lexicographic order; rows go in chunks so the mask stays under
    ``2**20`` cells.  ``p2 -> rest // p2`` reverses the ascending divisors
    of ``rest``, so each row's ``p3`` positions are its ``p2`` positions
    backwards.
    """
    divs = np.array(_sorted_divisors(P), dtype=np.int64)
    n = len(divs)
    rest = P // divs
    step = max(1, _CHUNK // n)
    flat = np.concatenate([
        np.flatnonzero(rest[lo:lo + step, None] % divs == 0) + lo * n
        for lo in range(0, n, step)
    ])
    i1, i2 = np.divmod(flat, n)
    counts = np.bincount(i1, minlength=n)
    mirror = 2 * np.cumsum(counts) - counts - 1  # row start + row end - 1
    i3 = i2[mirror[i1] - np.arange(len(flat))]
    return divs, (i1, i2, i3)


def factor_triples(P: int) -> Iterator[Tuple[int, int, int]]:
    """All ordered triples ``(p1, p2, p3)`` of positive ints with product ``P``.

    Iteration order (``p1`` ascending, then ``p2`` ascending) is part of
    the contract: :func:`select_grid`'s tie-break depends on which
    candidate it sees first, and the golden fixtures pin the result.
    """
    divs, cols = _factor_triple_columns(processor_count(P))
    return zip(*(divs[c].tolist() for c in cols))


def _divides(shape: ProblemShape, divs: np.ndarray, cols) -> np.ndarray:
    """:meth:`ProcessorGrid.divides` for every triple.

    ``n % d == (n % P) % d`` for every divisor ``d`` of ``P``, which keeps
    the table in int64 however large ``n`` is.
    """
    P = int(divs[-1])
    out = np.ones(len(cols[0]), dtype=bool)
    for n, col in zip(shape.dims, cols):
        out &= ((n % P) % divs == 0)[col]
    return out


def _objectives(shape: ProblemShape, P: int, p1, p2, p3, rounds, alpha, beta) -> List[float]:
    """:func:`~repro.algorithms.cost_models.alg1_objective` for every row.

    Rows whose expression (3) numerators ``n_a n_b (p - 1)`` are all below
    ``2**53`` run as one float64 array pass, bit-identical to Python ints
    there (see :func:`~repro.algorithms.cost_models.expression3_terms`);
    the rest, and every row when ``alpha``/``beta`` are not floats, run
    the same source on Python ints.
    """
    n1, n2, n3 = shape.dims
    columns = (p1, p2, p3, rounds)
    limits = [(_EXACT - 1) // w for w in (n1 * n2, n2 * n3, n1 * n3)]
    if not (isinstance(alpha, float) and isinstance(beta, float)) or min(limits) == 0:
        exact = np.zeros(len(p1), dtype=bool)
    elif P - 1 <= min(limits):  # no factor of P exceeds P
        return alg1_objective(n1, n2, n3, *columns, alpha, beta).tolist()
    else:
        exact = (p3 - 1 <= limits[0]) & (p1 - 1 <= limits[1]) & (p2 - 1 <= limits[2])
    out = np.zeros(len(p1))
    fast = np.flatnonzero(exact)
    if fast.size:
        out[fast] = alg1_objective(n1, n2, n3, *(c[fast] for c in columns), alpha, beta)
    values = out.tolist()
    for i in np.flatnonzero(~exact).tolist():
        row = (int(c[i]) for c in columns)
        values[i] = alg1_objective(n1, n2, n3, *row, alpha, beta)
    return values


def select_grid(
    shape: ProblemShape,
    P: int,
    require_divisibility: bool = False,
    alpha: float = 0.0,
    beta: float = 1.0,
) -> GridChoice:
    """The best integer grid for ``shape`` on ``P`` processors.

    Enumerates every ordered factor triple of ``P`` and picks the one
    minimizing ``alpha * rounds + beta * words`` — with the default
    ``alpha = 0`` that is exactly expression (3), the paper's
    bandwidth-only objective.  A positive ``alpha`` trades bandwidth for
    latency (fewer, larger messages), which matters for small problems on
    high-latency networks.

    With ``require_divisibility=True`` only grids whose dimensions divide
    the matrix dimensions are considered (needed to *run* Algorithm 1 with
    perfectly even blocks); a :class:`~repro.exceptions.GridError` is
    raised when none exists.  ``P`` must pass :func:`processor_count`.

    Ties are broken toward the lexicographically largest-first grid, which
    matches the paper's convention of splitting bigger dimensions more.

    The returned ``GridChoice.cost`` is always the bandwidth words
    (expression 3), regardless of the selection objective.

    Examples
    --------
    >>> s = ProblemShape(9600, 2400, 600)
    >>> select_grid(s, 3).grid.dims
    (3, 1, 1)
    >>> select_grid(s, 36).grid.dims
    (12, 3, 1)
    >>> select_grid(s, 512).grid.dims
    (32, 8, 2)
    """
    P = processor_count(P)
    outcome = _select_grid_outcome(shape, P, require_divisibility, alpha, beta)
    if isinstance(outcome, GridError):
        raise outcome
    return outcome


@functools.lru_cache(maxsize=65536)
def _select_grid_outcome(
    shape: ProblemShape,
    P: int,
    require_divisibility: bool,
    alpha: float,
    beta: float,
):
    """The memoized body of :func:`select_grid`.

    Returns the :class:`GridChoice`, or the :class:`GridError` to raise —
    refusals are as hot as successes in applicability scans and planner
    sweeps, and ``lru_cache`` alone would recompute a raising call every
    time, so both outcomes are cached as values.

    Every factor triple is scored in one array pass; the historical scan
    then replays over the scores verbatim.  An argmin would not do: the
    scan's ``1e-12`` tolerance is absolute, so near ``10^4`` a float gap of
    two ulps is a strict improvement yet ``b < a - 1e-12`` is false.
    Candidates arrive in strictly increasing lexicographic order, so the
    historical ``dims > best`` tie-break always holds and drops out.
    """
    divs, cols = _factor_triple_columns(P)
    divides = _divides(shape, divs, cols)
    if require_divisibility:
        keep = np.flatnonzero(divides)
        cols = tuple(c[keep] for c in cols)
        divides = divides[keep]
    if len(divides) == 0:
        return GridError(
            f"no factor triple of P={P} divides the dimensions {shape.dims}"
        )
    _check_time_weights(alpha, beta)
    i1, i2, i3 = cols
    # 0.0 * rounds is 0.0 for any round count: alpha = 0 skips them.
    rounds = np.zeros(len(i1), dtype=np.int64)
    if alpha != 0:
        table = np.fromiter(map(_collective_rounds, divs.tolist()), np.int64, len(divs))
        rounds = table[i3] + table[i1] + table[i2]
    objectives = _objectives(
        shape, P, divs[i1], divs[i2], divs[i3], rounds, alpha, beta
    )
    best = None
    best_objective = float("inf")
    for i, objective in enumerate(objectives):
        if best is None or objective < best_objective - 1e-12 or (
            abs(objective - best_objective) <= 1e-12
        ):
            best = i
            best_objective = objective
    grid = ProcessorGrid(*(int(divs[c[best]]) for c in cols))
    return GridChoice(
        grid=grid, cost=alg1_cost(shape, grid),
        regime=classify(shape, P), divides=bool(divides[best]),
    )


def grid_is_exactly_optimal(shape: ProblemShape, P: int, grid: ProcessorGrid) -> bool:
    """Does ``grid`` attain the Theorem 3 bound *exactly*?

    True iff expression (3) on this grid equals
    ``D - (mn + mk + nk)/P``; this happens precisely when the grid matches
    the continuous optimum (the integrality assumption of Section 5.2).
    """
    from ..core.lower_bounds import communication_lower_bound

    cost = alg1_cost(shape, grid)
    bound = communication_lower_bound(shape, P)
    return abs(cost - bound) <= 1e-9 * max(1.0, bound)


def divisor_grids(shape: ProblemShape, P: int) -> List[GridChoice]:
    """All divisibility-respecting grids, sorted by predicted cost.

    Useful for ablations over suboptimal grid choices.
    """
    P = processor_count(P)
    divs, cols = _factor_triple_columns(P)
    keep = np.flatnonzero(_divides(shape, divs, cols))
    regime = classify(shape, P)
    out = []
    for dims in zip(*(divs[c[keep]].tolist() for c in cols)):
        grid = ProcessorGrid(*dims)
        out.append(GridChoice(grid=grid, cost=alg1_cost(shape, grid), regime=regime, divides=True))
    out.sort(key=lambda c: c.cost)
    return out
