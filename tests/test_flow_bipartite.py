"""Bipartite matcher and max-marginals vs brute-force enumeration."""

import itertools
import threading
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.flow.bipartite import (
    SMALL_ASSIGNMENT_MARGIN,
    BipartiteMatcher,
    solve_small_assignment,
)

NEG_INF = float("-inf")


def brute_force_best(weights, right_caps, forced=None):
    """Best max-cardinality assignment weight; left capacities all one.

    ``forced`` optionally pins left node i to right node j.  Returns -inf
    when infeasible.
    """
    n_left = len(weights)
    n_right = len(right_caps)
    total_right = sum(right_caps)
    target = min(n_left, total_right)
    best = NEG_INF
    options = [None] + list(range(n_right))
    for assign in itertools.product(options, repeat=n_left):
        if forced is not None and assign[forced[0]] != forced[1]:
            continue
        chosen = [a for a in assign if a is not None]
        if len(chosen) != target:
            continue
        counts = Counter(chosen)
        if any(counts[j] > right_caps[j] for j in counts):
            continue
        w = sum(weights[i][a] for i, a in enumerate(assign) if a is not None)
        best = max(best, w)
    return best


weight_matrix = st.integers(1, 3).flatmap(
    lambda n_left: st.integers(1, 3).flatmap(
        lambda n_right: st.tuples(
            st.lists(
                st.lists(st.integers(-5, 9), min_size=n_right, max_size=n_right),
                min_size=n_left,
                max_size=n_left,
            ),
            st.lists(st.integers(0, 2), min_size=n_right, max_size=n_right),
        )
    )
)


class TestMatcherBasics:
    def test_simple_diagonal(self):
        m = BipartiteMatcher([[5, 1], [1, 5]], [1, 1], [1, 1])
        r = m.solve()
        assert r.pairs == [(0, 0), (1, 1)]
        assert r.total_weight == 10.0

    def test_negative_weights_still_saturate(self):
        # Flow maximization precedes cost: both columns must be matched even
        # though one weight is negative (paper Section 4.1 semantics).
        m = BipartiteMatcher([[-1.0, -5.0], [-5.0, -1.0]], [1, 1], [1, 1])
        r = m.solve()
        assert len(r.pairs) == 2
        assert r.total_weight == -2.0

    def test_capacity_sharing(self):
        # One right node with capacity 2 absorbs both left nodes.
        m = BipartiteMatcher([[3.0], [2.0]], [1, 1], [2])
        r = m.solve()
        assert r.pairs == [(0, 0), (1, 0)]
        assert r.total_weight == 5.0

    def test_right_surplus_uses_best(self):
        m = BipartiteMatcher([[1.0, 9.0, 2.0]], [1], [1, 1, 1])
        r = m.solve()
        assert r.pairs == [(0, 1)]

    def test_zero_capacity_right_unused(self):
        m = BipartiteMatcher([[100.0, 1.0]], [1], [0, 1])
        r = m.solve()
        assert r.pairs == [(0, 1)]

    def test_validation(self):
        with pytest.raises(ValueError):
            BipartiteMatcher([[1.0]], [1, 2], [1])
        with pytest.raises(ValueError):
            BipartiteMatcher([[1.0, 2.0]], [1], [1])
        with pytest.raises(ValueError):
            BipartiteMatcher([[1.0]], [-1], [1])

    def test_right_of(self):
        m = BipartiteMatcher([[5, 1], [1, 5]], [1, 1], [1, 1])
        r = m.solve()
        assert r.right_of(0) == 0
        assert r.right_of(7) is None

    def test_network_requires_solve(self):
        m = BipartiteMatcher([[1.0]], [1], [1])
        with pytest.raises(RuntimeError):
            _ = m.network
        with pytest.raises(RuntimeError):
            m.max_marginals()


class TestNearTies:
    def test_near_tied_weights_terminate_at_the_optimum(self):
        # Weights 1e-10..1e-9 apart once left a residual cycle of cost
        # below -EPS, and the augmenting-path walk followed it forever.
        weights = [
            [1e-09, 1e-10, 0.7500000001],
            [0.7500000001, 0.5000000001, 0.75],
            [1.0, 1.000000001, 0.0],
        ]
        results = []
        worker = threading.Thread(
            target=lambda: results.append(
                BipartiteMatcher(weights, [1] * 3, [1] * 3).solve()
            ),
            daemon=True,
        )
        worker.start()
        worker.join(timeout=30)
        assert not worker.is_alive(), "solve() did not terminate"
        assert results[0].pairs == [(0, 2), (1, 0), (2, 1)]
        best = brute_force_best(weights, [1] * 3)
        assert abs(results[0].total_weight - best) < 1e-9


class TestAgainstBruteForce:
    @settings(max_examples=80, deadline=None)
    @given(weight_matrix)
    def test_optimal_weight(self, data):
        weights, right_caps = data
        expected = brute_force_best(weights, right_caps)
        m = BipartiteMatcher(weights, [1] * len(weights), right_caps)
        r = m.solve()
        if expected == NEG_INF:
            assert r.pairs == []
        else:
            assert abs(r.total_weight - expected) < 1e-6

    @settings(max_examples=50, deadline=None)
    @given(weight_matrix)
    def test_max_marginals_match_brute_force(self, data):
        weights, right_caps = data
        m = BipartiteMatcher(weights, [1] * len(weights), right_caps)
        m.solve()
        mm = m.max_marginals()
        for i in range(len(weights)):
            for j in range(len(right_caps)):
                expected = brute_force_best(weights, right_caps, forced=(i, j))
                got = mm[i][j]
                if expected == NEG_INF:
                    assert got == NEG_INF
                else:
                    assert abs(got - expected) < 1e-6, (
                        f"mm[{i}][{j}]: got {got}, want {expected}, "
                        f"weights={weights}, caps={right_caps}"
                    )

    @settings(max_examples=40, deadline=None)
    @given(weight_matrix)
    def test_matching_respects_capacities(self, data):
        weights, right_caps = data
        m = BipartiteMatcher(weights, [1] * len(weights), right_caps)
        r = m.solve()
        counts = Counter(j for _, j in r.pairs)
        for j, c in counts.items():
            assert c <= right_caps[j]
        lefts = [i for i, _ in r.pairs]
        assert len(lefts) == len(set(lefts))


#: Coarse weight grid (exact ties are common) plus the near-tie offsets
#: added on top: below, at, and just above the flow solver's EPS, and
#: below the small solver's margin.
GRID = [0.0, 0.25, 0.5, 0.75, 1.0]
NUDGES = [0.0, 1e-10, 1e-9, 1e-7]

small_matrix = st.integers(1, 3).flatmap(
    lambda n_left: st.integers(1, 3).flatmap(
        lambda n_right: st.lists(
            st.lists(
                st.tuples(st.sampled_from(GRID), st.sampled_from(NUDGES)).map(
                    lambda wn: wn[0] + wn[1]
                ),
                min_size=n_right,
                max_size=n_right,
            ),
            min_size=n_left,
            max_size=n_left,
        )
    )
)


def flow_positive_pairs(weights):
    """The unit-capacity flow solver's matching without its zero pads."""
    result = BipartiteMatcher(
        weights, [1] * len(weights), [1] * len(weights[0])
    ).solve()
    return [(i, j) for i, j in result.pairs if weights[i][j] > 0.0]


class TestSmallAssignment:
    @settings(max_examples=400, deadline=None)
    @given(small_matrix)
    def test_agrees_with_flow_solver(self, weights):
        got = solve_small_assignment(weights)
        if got is not None:
            assert got == flow_positive_pairs(weights), weights

    def test_clear_winner_solved_directly(self):
        weights = [[0.9, 0.2, 0.0], [0.1, 0.0, 0.8]]
        assert solve_small_assignment(weights) == [(0, 0), (1, 2)]
        assert flow_positive_pairs(weights) == [(0, 0), (1, 2)]

    def test_tall_matrix(self):
        weights = [[0.3], [0.7], [0.0]]
        assert solve_small_assignment(weights) == [(1, 0)]

    def test_zero_pads_do_not_count_as_ties(self):
        # Row 1 is all zero: where the flow solver parks it changes no
        # weight, so the optimum is still unambiguous.
        assert solve_small_assignment([[0.5, 0.0], [0.0, 0.0]]) == [(0, 0)]

    @pytest.mark.parametrize("offset", [0.0, 1e-10, 1e-9, 1e-7])
    def test_ties_within_margin_fall_back(self, offset):
        assert offset < SMALL_ASSIGNMENT_MARGIN
        for weights in (
            [[0.5 + offset, 0.5], [0.5, 0.5]],
            [[0.5, 0.5 + offset], [0.5 + offset, 0.5]],
        ):
            assert solve_small_assignment(weights) is None

    def test_margin_above_threshold_is_solved(self):
        weights = [[0.5 + 1e-5, 0.5], [0.5, 0.5]]
        assert solve_small_assignment(weights) == [(0, 0), (1, 1)]

    @pytest.mark.parametrize("weights", [
        [[0.5, -0.1], [0.2, 0.3]],
        [[float("nan")]],
        [[0.1] * 4],
        [[0.1]] * 4,
        [],
    ])
    def test_out_of_scope_matrices_fall_back(self, weights):
        assert solve_small_assignment(weights) is None
