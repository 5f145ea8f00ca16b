"""Property and unit tests for the generic constraint graph."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.csp import ConstraintGraph, Variable


def _random_graph(num_vars, domain_sizes, edge_seed=0, edge_count=0):
    variables = [
        Variable(f"x{i}", tuple(range(1, size + 1)))
        for i, size in enumerate(domain_sizes)
    ]
    graph = ConstraintGraph(variables, name="random")
    rng = np.random.default_rng(edge_seed)
    added = 0
    while added < edge_count:
        a, b = rng.integers(0, num_vars, size=2)
        if a == b:
            continue
        va = int(rng.integers(1, domain_sizes[a] + 1))
        vb = int(rng.integers(1, domain_sizes[b] + 1))
        graph.add_conflict(int(a), va, int(b), vb)
        added += 1
    return graph


#: Strategy: 2..6 variables with ragged domain sizes 1..5.
_domain_sizes = st.lists(st.integers(min_value=1, max_value=5), min_size=2, max_size=6)


class TestIndexing:
    @given(_domain_sizes)
    @settings(max_examples=50, deadline=None)
    def test_index_coordinate_bijection(self, sizes):
        graph = _random_graph(len(sizes), sizes)
        seen = set()
        for vi, var in enumerate(graph.variables):
            for value in var.domain:
                idx = graph.neuron_index(vi, value)
                assert 0 <= idx < graph.num_neurons
                assert idx not in seen
                seen.add(idx)
                assert graph.neuron_coordinates(idx) == (vi, value)
        # The map is onto: every neuron index is hit exactly once.
        assert len(seen) == graph.num_neurons == sum(sizes)

    def test_variables_are_contiguous_and_ordered(self):
        graph = _random_graph(3, [2, 3, 4])
        assert list(graph.offsets) == [0, 2, 5, 9]
        assert graph.neuron_index("x1", 1) == 2
        assert graph.neuron_index("x2", 4) == 8

    def test_homogeneous_domain_is_settled_at_construction(self):
        shared = ConstraintGraph([Variable(f"x{i}", (1, 2, 3)) for i in range(4)])
        assert shared.homogeneous_domain == (1, 2, 3)
        assert shared.homogeneous_domain is shared.homogeneous_domain
        mixed = ConstraintGraph([Variable("a", (1, 2, 3)), Variable("b", (1, 3, 2))])
        assert mixed.homogeneous_domain is None
        ragged = ConstraintGraph([Variable("a", (1, 2)), Variable("b", (1, 2, 3))])
        assert ragged.homogeneous_domain is None
        assert ConstraintGraph([Variable("only", (5, 7))]).homogeneous_domain == (5, 7)

    def test_lookup_errors(self):
        graph = _random_graph(2, [2, 2])
        with pytest.raises(KeyError):
            graph.variable_index("nope")
        with pytest.raises(IndexError):
            graph.variable_index(5)
        with pytest.raises(ValueError):
            graph.neuron_index("x0", 99)
        with pytest.raises(ValueError):
            graph.neuron_coordinates(graph.num_neurons)

    def test_duplicate_variable_names_rejected(self):
        with pytest.raises(ValueError):
            ConstraintGraph([Variable("x", (1,)), Variable("x", (1, 2))])

    def test_empty_domain_rejected(self):
        with pytest.raises(ValueError):
            Variable("x", ())


class TestConflicts:
    @given(
        _domain_sizes,
        st.integers(min_value=0, max_value=2**31 - 1),
        st.integers(min_value=0, max_value=30),
    )
    @settings(max_examples=50, deadline=None)
    def test_conflicts_are_symmetric(self, sizes, edge_seed, edge_count):
        graph = _random_graph(len(sizes), sizes, edge_seed=edge_seed, edge_count=edge_count)
        for idx in range(graph.num_neurons):
            for target in graph.conflicting_neurons(idx):
                assert idx in graph.conflicting_neurons(target)
                assert target != idx

    @given(_domain_sizes)
    @settings(max_examples=25, deadline=None)
    def test_one_hot_mutex_is_implicit(self, sizes):
        graph = _random_graph(len(sizes), sizes)
        for vi, var in enumerate(graph.variables):
            for value in var.domain:
                idx = graph.neuron_index(vi, value)
                siblings = {graph.neuron_index(vi, other) for other in var.domain if other != value}
                assert siblings <= set(graph.conflicting_neurons(idx))

    def test_intra_variable_conflict_rejected(self):
        graph = _random_graph(2, [3, 3])
        with pytest.raises(ValueError):
            graph.add_conflict("x0", 1, "x0", 2)

    def test_not_equal_covers_shared_values(self):
        graph = ConstraintGraph([Variable("a", (1, 2, 3)), Variable("b", (2, 3, 4))])
        graph.add_not_equal("a", "b")
        # Shared values 2 and 3 conflict; 1 and 4 have no partner.
        assert graph.neuron_index("b", 2) in graph.conflicting_neurons(graph.neuron_index("a", 2))
        assert graph.neuron_index("b", 3) in graph.conflicting_neurons(graph.neuron_index("a", 3))
        explicit_of_a1 = [
            t
            for t in graph.conflicting_neurons(graph.neuron_index("a", 1))
            if graph.neuron_coordinates(t)[0] != 0
        ]
        assert explicit_of_a1 == []

    def test_statistics(self):
        graph = ConstraintGraph([Variable("a", (1, 2)), Variable("b", (1, 2))])
        graph.add_not_equal("a", "b")
        stats = graph.statistics()
        assert stats.num_variables == 2
        assert stats.num_neurons == 4
        assert stats.num_conflict_edges == 4  # 2 values x 2 directions
        assert stats.num_mutex_edges == 4
        assert stats.max_out_degree == 2
        assert stats.mean_out_degree == 2.0


class TestSynapses:
    def test_matrix_shape_and_weights(self):
        graph = ConstraintGraph([Variable("a", (1, 2)), Variable("b", (1, 2))])
        graph.add_not_equal("a", "b")
        syn = graph.build_synapses(inhibition_weight=-5.0, self_excitation=0.5)
        assert syn.matrix.shape == (4, 4)
        dense = syn.matrix.toarray()
        np.testing.assert_allclose(np.diag(dense), 0.5)
        # Every conflict contributes exactly one -5 in each direction.
        assert (dense == -5.0).sum() == 4 + 4  # explicit + mutex edges
        # Self-excitation entries survive at weight 0 (structure preserved).
        syn0 = graph.build_synapses(inhibition_weight=-5.0, self_excitation=0.0)
        assert syn0.num_synapses == syn.num_synapses

    def test_propagation_matches_manual_sum(self):
        graph = _random_graph(3, [3, 2, 4], edge_seed=3, edge_count=10)
        syn = graph.build_synapses(inhibition_weight=-2.0, self_excitation=1.0)
        rng = np.random.default_rng(0)
        fired = rng.random(graph.num_neurons) < 0.4
        out = syn.propagate(fired)
        dense = syn.matrix.toarray()
        np.testing.assert_allclose(out, dense @ fired.astype(np.float64))


class TestClampsAndSolutions:
    def _graph(self):
        graph = ConstraintGraph(
            [Variable("a", (1, 2)), Variable("b", (1, 2)), Variable("c", (1, 2))]
        )
        graph.add_not_equal("a", "b")
        graph.add_not_equal("b", "c")
        return graph

    def test_resolve_clamps_roundtrip(self):
        graph = self._graph()
        resolved = graph.resolve_clamps({"a": 1, "c": 2})
        assert resolved == graph.resolve_clamps(resolved)
        assert [(vi, value) for vi, value, _ in resolved] == [(0, 1), (2, 2)]

    def test_resolved_output_takes_the_fast_path(self):
        graph = self._graph()
        resolved = graph.resolve_clamps({"a": 1, "c": 2})
        # The method's own (validated) output is returned as-is.
        assert graph.resolve_clamps(resolved) is resolved

    def test_conflicting_double_clamp_rejected(self):
        graph = self._graph()
        with pytest.raises(ValueError):
            graph.resolve_clamps([("a", 1), ("a", 2)])

    def test_plain_triple_lists_are_still_validated(self):
        # A hand-built list of 3-tuples must not ride the resolved-output
        # shortcut: conflicting duplicates are rejected and name refs
        # plus stale neuron indices are re-resolved, exactly as pre-PR.
        graph = self._graph()
        with pytest.raises(ValueError):
            graph.resolve_clamps([(0, 2, 1), (0, 1, 0)])
        resolved = graph.resolve_clamps([("a", 1, 999)])
        assert resolved == [(0, 1, graph.neuron_index("a", 1))]

    def test_clamps_consistency(self):
        graph = self._graph()
        assert graph.clamps_consistent({"a": 1, "b": 2})
        assert not graph.clamps_consistent({"a": 1, "b": 1})

    def test_drive_vector_silences_clamped_siblings(self):
        graph = self._graph()
        drive = graph.drive_vector({"b": 2}, clamp_drive=10.0, free_bias=3.0)
        assert drive[graph.neuron_index("b", 2)] == 10.0
        assert drive[graph.neuron_index("b", 1)] == 0.0
        assert drive[graph.neuron_index("a", 1)] == 3.0

    def test_is_solution(self):
        graph = self._graph()
        good = np.asarray([1, 2, 1])
        bad = np.asarray([1, 1, 2])
        all_decided = np.ones(3, dtype=bool)
        assert graph.is_solution(good, all_decided)
        assert not graph.is_solution(bad, all_decided)
        assert not graph.is_solution(good, np.asarray([True, True, False]))

    def test_assignment_dict(self):
        graph = self._graph()
        values = np.asarray([1, 2, 0])
        decided = np.asarray([True, True, False])
        assert graph.assignment_dict(values, decided) == {"a": 1, "b": 2}
