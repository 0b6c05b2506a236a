"""Closed-form communication cost of Algorithm 1 — expression (3).

Section 5.1 of the paper derives the per-processor (critical-path)
communication cost of Algorithm 1 on a ``p1 x p2 x p3`` grid:

* All-Gather of ``A``-blocks over p3-fibers: ``(1 - 1/p3) n1 n2 / (p1 p2)``
* All-Gather of ``B``-blocks over p1-fibers: ``(1 - 1/p1) n2 n3 / (p2 p3)``
* Reduce-Scatter of ``C``-blocks over p2-fibers: ``(1 - 1/p2) n1 n3 / (p1 p3)``

summing to

    ``n1 n2/(p1 p2) + n2 n3/(p2 p3) + n1 n3/(p1 p3)
      - (n1 n2 + n2 n3 + n1 n3)/P``.

The test suite asserts the simulator reproduces each line of this breakdown
*exactly*; the grid-selection module minimizes the total over grids.
"""

from __future__ import annotations

import dataclasses

from ..core.shapes import ProblemShape
from ..exceptions import GridError
from .grid import ProcessorGrid

__all__ = [
    "Alg1CostBreakdown",
    "alg1_cost",
    "alg1_cost_terms",
    "alg1_latency_rounds",
    "alg1_memory_words",
    "alg1_objective",
    "alg1_time",
    "expression3_terms",
]


def _exact_fraction(words: int, p: int) -> float:
    """``(1 - 1/p) * words`` computed as ``words * (p - 1) / p`` for float
    exactness on integer word counts."""
    return words * (p - 1) / p


@dataclasses.dataclass(frozen=True)
class Alg1CostBreakdown:
    """Per-collective communication words of Algorithm 1 (critical path).

    ``allgather_a``/``allgather_b``/``reduce_scatter_c`` are the three
    collective terms; ``total`` is expression (3).
    """

    shape: ProblemShape
    grid: ProcessorGrid
    allgather_a: float
    allgather_b: float
    reduce_scatter_c: float

    @property
    def total(self) -> float:
        return self.allgather_a + self.allgather_b + self.reduce_scatter_c

    @property
    def accessed(self) -> float:
        """Words accessed per processor: cost plus initially owned data.

        Equals the positive terms of expression (3) — the quantity matched
        against ``D`` of Theorem 3 (and, per Section 6.2, the local memory
        Algorithm 1 needs to leading order).
        """
        s, g = self.shape, self.grid
        return (
            s.n1 * s.n2 / (g.p1 * g.p2)
            + s.n2 * s.n3 / (g.p2 * g.p3)
            + s.n1 * s.n3 / (g.p1 * g.p3)
        )


def expression3_terms(n1, n2, n3, p1, p2, p3):
    """Expression (3)'s three collective terms, in breakdown order.

    The one source of the formula: :func:`alg1_cost_terms` evaluates it on
    Python ints, and the grid picker on int64 arrays of whole factor-triple
    lists.  The two agree bit for bit wherever every numerator
    ``n_a n_b (p - 1)`` is below ``2**53``: both operands of the first
    division are then exact in float64, so IEEE division equals Python's
    correctly rounded ``int / int``, and the remaining operations are the
    same float64 operations in the same order.
    """
    return (
        _exact_fraction(n1 * n2, p3) / (p1 * p2),
        _exact_fraction(n2 * n3, p1) / (p2 * p3),
        _exact_fraction(n1 * n3, p2) / (p1 * p3),
    )


def alg1_objective(n1, n2, n3, p1, p2, p3, rounds, alpha, beta):
    """``alpha * rounds + beta * words`` with ``words`` = expression (3).

    The words are summed in :attr:`Alg1CostBreakdown.total` order.  Runs
    on Python ints and int64 arrays alike (see :func:`expression3_terms`
    for when the two agree bit for bit).
    """
    a, b, c = expression3_terms(n1, n2, n3, p1, p2, p3)
    return alpha * rounds + beta * (a + b + c)


def alg1_cost_terms(shape: ProblemShape, grid: ProcessorGrid) -> Alg1CostBreakdown:
    """Expression (3)'s three collective terms for ``shape`` on ``grid``.

    Works for any grid (divisibility is only needed by the executable
    algorithm, not the formula).
    """
    a, b, c = expression3_terms(*shape.dims, *grid.dims)
    return Alg1CostBreakdown(
        shape=shape, grid=grid, allgather_a=a, allgather_b=b, reduce_scatter_c=c,
    )


def alg1_cost(shape: ProblemShape, grid: ProcessorGrid) -> float:
    """Total communication words of Algorithm 1 — expression (3).

    Examples
    --------
    >>> alg1_cost(ProblemShape(9600, 2400, 600), ProcessorGrid(32, 8, 2))
    210937.5
    """
    return alg1_cost_terms(shape, grid).total


def _collective_rounds(p: int) -> int:
    """Rounds of one bandwidth-optimal collective over a ``p``-fiber.

    ``log2 p`` when ``p`` is a power of two (recursive doubling/halving),
    else ``p - 1`` (ring) — matching the ``auto`` dispatch the executable
    Algorithm 1 uses.  (Bruck would give ``ceil(log2 p)`` for All-Gathers
    at any ``p``; we model the default dispatch.)
    """
    if p <= 1:
        return 0
    if p & (p - 1) == 0:
        return p.bit_length() - 1
    return p - 1


def alg1_latency_rounds(shape: ProblemShape, grid: ProcessorGrid) -> int:
    """Communication rounds of Algorithm 1 on ``grid`` (``auto`` collectives).

    The three collectives run over disjoint fiber families, but the phases
    are sequential: total rounds = rounds(p3) + rounds(p1) + rounds(p2).
    """
    del shape  # rounds depend only on the grid under the auto dispatch
    p1, p2, p3 = grid.dims
    return _collective_rounds(p3) + _collective_rounds(p1) + _collective_rounds(p2)


def alg1_time(
    shape: ProblemShape,
    grid: ProcessorGrid,
    alpha: float = 0.0,
    beta: float = 1.0,
) -> float:
    """Modelled communication time ``alpha * rounds + beta * words``.

    With ``alpha = 0`` this is expression (3) scaled by ``beta`` — the
    paper's bandwidth-only objective; a positive ``alpha`` lets
    :func:`~repro.algorithms.grid_selection.select_grid` trade a slightly
    larger bandwidth for far fewer messages (relevant for small problems
    on high-latency networks, per the Section 3.1 discussion).
    """
    _check_time_weights(alpha, beta)
    return alg1_objective(
        *shape.dims, *grid.dims, alg1_latency_rounds(shape, grid), alpha, beta
    )


def _check_time_weights(alpha: float, beta: float) -> None:
    """Refuse negative ``alpha``/``beta`` with a :class:`GridError`."""
    if alpha < 0 or beta < 0:
        raise GridError(f"alpha and beta must be non-negative, got {alpha}, {beta}")


def alg1_memory_words(shape: ProblemShape, grid: ProcessorGrid) -> float:
    """Leading-order per-processor memory footprint of Algorithm 1.

    Each processor ends the gather phase holding its full ``A`` and ``B``
    blocks and the local product ``D`` before reduce-scattering:
    ``n1 n2/(p1 p2) + n2 n3/(p2 p3) + n1 n3/(p1 p3)`` words — the
    ``accessed`` term.  Section 6.2's observation: for 3D grids this
    asymptotically exceeds the minimum ``(n1 n2 + n2 n3 + n1 n3)/P`` needed
    to store the problem, while for 1D/2D grids it is within a constant.
    """
    if grid.size < 1:
        raise GridError("empty grid")
    return alg1_cost_terms(shape, grid).accessed
