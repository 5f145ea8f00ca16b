"""Scenario generators and end-to-end solves through the batched runtime."""

import numpy as np
import pytest

from repro.csp import CSPConfig, SpikingCSPSolver, available_scenarios, make_instance
from repro.csp.scenarios.coloring import (
    AUSTRALIA_EDGES,
    australia_instance,
    random_coloring_instance,
)
from repro.csp.scenarios.latin import latin_instance, random_latin_square
from repro.csp.scenarios.queens import queens_graph, queens_instance
from repro.csp.solver import solve_instances


class TestRegistry:
    def test_scenarios_registered(self):
        assert {"coloring", "australia", "queens", "latin", "sudoku"} <= set(available_scenarios())

    def test_unknown_scenario_raises(self):
        with pytest.raises(KeyError):
            make_instance("tsp")

    def test_instances_are_deterministic(self):
        for scenario, params in [
            ("coloring", {"num_vertices": 8, "num_colors": 3}),
            ("queens", {"n": 5}),
            ("latin", {"n": 4}),
        ]:
            g1, c1 = make_instance(scenario, seed=5, **params)
            g2, c2 = make_instance(scenario, seed=5, **params)
            assert c1 == c2
            assert g1.num_neurons == g2.num_neurons
            for idx in range(g1.num_neurons):
                assert g1.conflicting_neurons(idx) == g2.conflicting_neurons(idx)

    def test_coloring_seeds_vary_structure(self):
        g1, _ = make_instance("coloring", seed=0, num_vertices=10, num_colors=3)
        g2, _ = make_instance("coloring", seed=1, num_vertices=10, num_colors=3)
        assert (
            g1.statistics().num_conflict_edges != g2.statistics().num_conflict_edges
            or any(
                g1.conflicting_neurons(i) != g2.conflicting_neurons(i)
                for i in range(g1.num_neurons)
            )
        )


class TestColoring:
    def test_planted_partition_is_a_solution(self):
        rng = np.random.default_rng(3)
        graph, clamps = random_coloring_instance(10, 3, seed=3)
        # Reconstruct the planted groups exactly as the generator does.
        order = rng.permutation(10)
        group = np.empty(10, dtype=np.int64)
        group[order] = np.arange(10) % 3
        values = group + 1
        decided = np.ones(10, dtype=bool)
        assert graph.is_solution(values, decided)
        # The symmetry-breaking clamp agrees with the planted witness.
        ((name, value),) = clamps.items()
        assert value == int(values[int(name[1:])])

    def test_australia_structure(self):
        graph, clamps = australia_instance()
        assert graph.num_variables == 7
        assert graph.num_neurons == 21
        assert graph.statistics().num_conflict_edges == 2 * 3 * len(AUSTRALIA_EDGES)
        assert graph.clamps_consistent(clamps)


class TestQueens:
    def test_known_solution_accepted(self):
        graph = queens_graph(6)
        solution = np.asarray([2, 4, 6, 1, 3, 5])  # a classic 6-queens solution
        assert graph.is_solution(solution, np.ones(6, dtype=bool))

    def test_attacking_placement_rejected(self):
        graph = queens_graph(6)
        same_column = np.asarray([1, 1, 6, 2, 5, 3])
        diagonal = np.asarray([1, 2, 6, 3, 5, 4])  # rows 0/1 on a diagonal
        assert not graph.is_solution(same_column, np.ones(6, dtype=bool))
        assert not graph.is_solution(diagonal, np.ones(6, dtype=bool))

    def test_instance_has_no_clamps(self):
        graph, clamps = queens_instance(5, seed=2)
        assert clamps == {}
        assert graph.num_neurons == 25


class TestLatin:
    @pytest.mark.parametrize("n", [3, 4, 6])
    def test_random_latin_square_property(self, n):
        square = random_latin_square(n, seed=11)
        expected = set(range(1, n + 1))
        for i in range(n):
            assert set(square[i, :]) == expected
            assert set(square[:, i]) == expected

    def test_completion_instance_is_satisfiable(self):
        graph, clamps = latin_instance(4, seed=9, clamp_fraction=0.4)
        assert graph.clamps_consistent(clamps)
        assert len(clamps) == max(1, int(0.4 * 16))
        # The source square is a witness solution.
        square = random_latin_square(4, seed=9)
        values = square.ravel()
        assert graph.is_solution(values, np.ones(16, dtype=bool))


class TestSolves:
    """Deterministic solve-rate assertions through the batched runtime.

    The instance seeds, solver seeds and step budgets below were verified
    to converge on the fixed-point backend; they are deterministic, so
    these assertions are exact, not statistical.
    """

    def test_australia_solves(self):
        graph, clamps = australia_instance()
        results = SpikingCSPSolver(graph, seed=1).solve_batch(
            [clamps] * 2, max_steps=1000, check_interval=10
        )
        assert all(r.solved for r in results)
        for result in results:
            assert graph.is_solution(result.values, result.decided)

    def test_latin_completion_solves(self):
        instances = [make_instance("latin", n=4, seed=s) for s in range(3)]
        results = solve_instances(instances, seeds=[7, 7, 7], max_steps=2000)
        assert sum(r.solved for r in results) == 3

    @pytest.mark.slow
    def test_queens_solves(self):
        graph, clamps = queens_instance(6)
        results = SpikingCSPSolver(graph, seed=2).solve_batch(
            [clamps] * 2, max_steps=3000, check_interval=10
        )
        assert all(r.solved for r in results)
        for result in results:
            assert graph.is_solution(result.values, result.decided)

    @pytest.mark.slow
    def test_coloring_solves(self):
        instances = [make_instance("coloring", seed=s) for s in range(3)]
        results = solve_instances(instances, seeds=[1, 1, 1], max_steps=4000)
        assert sum(r.solved for r in results) >= 2
        for (graph, _), result in zip(instances, results):
            if result.solved:
                assert graph.is_solution(result.values, result.decided)

    @pytest.mark.parametrize(
        "scenario, params, solver_seed",
        [
            ("coloring", {"num_vertices": 12, "num_colors": 3}, 1),
            ("queens", {"n": 6}, 1),
            ("latin", {"n": 4, "clamp_fraction": 0.5}, 7),
        ],
    )
    def test_scenario_solve_rate_floor(self, scenario, params, solver_seed):
        """Every family solves at least 3 of its 4 instances in 4000 steps.

        One noise seed per replica: the queens instances are structurally
        identical, so seed diversity has to come from the solver side.
        """
        instances = [make_instance(scenario, seed=i, **params) for i in range(4)]
        seeds = [solver_seed + i for i in range(4)]
        results = solve_instances(instances, seeds=seeds, max_steps=4000, check_interval=10)
        assert sum(r.solved for r in results) / len(results) >= 0.75
        for (graph, _), result in zip(instances, results):
            if result.solved:
                assert graph.is_solution(result.values, result.decided)

    def test_batch_is_bit_identical_to_sequential(self):
        instances = [make_instance("latin", n=4, seed=s) for s in range(2)]
        batched = solve_instances(instances, seeds=[7, 7], max_steps=400)
        for (graph, clamps), batch_result in zip(instances, batched):
            solo = SpikingCSPSolver(graph, seed=7).solve(clamps, max_steps=400)
            assert np.array_equal(solo.values, batch_result.values)
            assert np.array_equal(solo.decided, batch_result.decided)
            assert solo.total_spikes == batch_result.total_spikes
            assert solo.steps == batch_result.steps
            assert solo.solved == batch_result.solved

    def test_solver_rejects_unknown_backend(self):
        graph, _ = australia_instance()
        with pytest.raises(ValueError):
            SpikingCSPSolver(graph, backend="analog")

    def test_solver_rejects_inconsistent_clamps(self):
        graph, _ = australia_instance()
        with pytest.raises(ValueError):
            SpikingCSPSolver(graph, seed=1).solve({"SA": 1, "NSW": 1})

    def test_solve_instances_validates_sizes_and_seeds(self):
        small = australia_instance()
        big = make_instance("latin", n=4, seed=0)
        with pytest.raises(ValueError):
            solve_instances([small, big])
        with pytest.raises(ValueError):
            solve_instances([small, small], seeds=[1])

    def test_empty_batches(self):
        graph, _ = australia_instance()
        assert SpikingCSPSolver(graph).solve_batch([]) == []
        assert solve_instances([]) == []

    def test_float64_backend_runs(self):
        graph, clamps = australia_instance()
        config = CSPConfig()
        with np.errstate(over="ignore", invalid="ignore"):
            result = SpikingCSPSolver(graph, config, backend="float64", seed=1).solve(
                clamps, max_steps=100, check_interval=10
            )
        assert result.steps <= 100
        assert result.neuron_updates == result.steps * graph.num_neurons
