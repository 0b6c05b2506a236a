"""Tests for the algorithm registry."""

import numpy as np
import pytest

from repro.algorithms import REGISTRY, applicable_algorithms, run_algorithm
from repro.core import ProblemShape


class TestApplicability:
    def test_all_algorithms_registered(self):
        assert set(REGISTRY) == {
            "alg1", "row_1d", "outer_1d", "cannon", "fox", "fox_otto",
            "summa", "c25d", "carma", "alg1_abft", "summa_abft",
        }

    def test_square_power_of_four(self):
        names = applicable_algorithms(ProblemShape(16, 16, 16), 4)
        assert "alg1" in names
        assert "cannon" in names       # 4 = 2^2
        assert "carma" in names        # power of two
        assert "summa" in names

    def test_cannon_needs_square_processor_count(self):
        names = applicable_algorithms(ProblemShape(16, 16, 16), 8)
        assert "cannon" not in names

    def test_carma_needs_power_of_two(self):
        names = applicable_algorithms(ProblemShape(16, 16, 16), 12)
        assert "carma" not in names

    def test_carma_rejects_odd_split_shapes(self):
        # First split would halve n1 = 15 (odd).
        assert "carma" not in applicable_algorithms(ProblemShape(15, 8, 8), 2)

    def test_row_1d_needs_enough_rows(self):
        assert "row_1d" not in applicable_algorithms(ProblemShape(2, 16, 16), 4)


class TestRuns:
    @pytest.mark.parametrize("name", sorted(REGISTRY))
    def test_registered_run_is_correct(self, rng, name):
        shape = ProblemShape(16, 16, 16)
        P = 4
        if name not in applicable_algorithms(shape, P):
            pytest.skip(f"{name} not applicable")
        A, B = rng.random((16, 16)), rng.random((16, 16))
        run = run_algorithm(name, A, B, P)
        # Verify against the run's own semiring product: fox_otto defaults
        # to min_plus, everything else to plus_times.
        from repro.machine.semiring import resolve_semiring

        sr = resolve_semiring(run.semiring)
        assert np.allclose(run.C, sr.matmul_data(A, B))
        assert run.cost.words >= 0
        assert run.name == name
        assert run.config

    def test_alg1_uses_optimal_grid(self, rng):
        A, B = rng.random((96, 24)), rng.random((24, 6))
        run = run_algorithm("alg1", A, B, 2)
        assert "2x1x1" in run.config

    def test_summa_picks_balanced_grid(self, rng):
        A, B = rng.random((12, 12)), rng.random((12, 12))
        run = run_algorithm("summa", A, B, 4)
        assert run.config == "grid 2x2"

    def test_c25d_prefers_replication(self, rng):
        A, B = rng.random((8, 8)), rng.random((8, 8))
        run = run_algorithm("c25d", A, B, 8)  # 2x2x2 possible
        assert run.config == "grid 2x2x2"


class TestPickerDefectsPropagate:
    """A bug in the grid picker must surface, not read as "not applicable"."""

    @pytest.fixture
    def broken_picker(self, monkeypatch):
        from repro.algorithms import abft, registry

        def boom(shape, P, *args, **kwargs):
            raise RuntimeError("picker defect")

        monkeypatch.setattr(registry, "select_grid", boom)
        monkeypatch.setattr(abft, "select_grid", boom)

    def test_alg1_applicability(self, broken_picker):
        with pytest.raises(RuntimeError, match="picker defect"):
            REGISTRY["alg1"].applicable(ProblemShape(16, 16, 16), 8)

    def test_alg1_abft_grid(self, broken_picker):
        from repro.algorithms.abft import alg1_abft_grid

        with pytest.raises(RuntimeError, match="picker defect"):
            alg1_abft_grid(ProblemShape(16, 16, 16), 8)

    def test_applicable_algorithms(self, broken_picker):
        with pytest.raises(RuntimeError, match="picker defect"):
            applicable_algorithms(ProblemShape(16, 16, 16), 8)

    def test_grid_refusal_still_means_not_applicable(self):
        from repro.algorithms.abft import alg1_abft_grid

        assert not REGISTRY["alg1"].applicable(ProblemShape(16, 16, 16), 0)
        assert alg1_abft_grid(ProblemShape(16, 16, 16), 2.5) is None
