"""Capacitated max-weight bipartite matching (Sections 4.1–4.2.3).

The table-independent inference step reduces column labeling to a
generalized maximum matching: columns on the left, labels on the right,
node capacities enforcing mutex/min-match, solved as min-cost max-flow
(§4.2.1).  The matcher keeps its residual network alive after solving so
Fig. 3's max-marginals — "optimum under a forced assignment (c, l)" — can
be read off with one Bellman–Ford pass per right node.

:func:`solve_small_assignment` is the exact shortcut for the tiny
unit-capacity problems the edge layer (§3.3) solves by the thousand: it
enumerates every assignment of an at most 3×3 matrix and answers only
when the optimum is unambiguous, leaving ties to the flow solver.
"""

from __future__ import annotations

from itertools import permutations
from typing import Dict, List, Optional, Sequence, Tuple

from .network import EPS, FlowNetwork

__all__ = [
    "SMALL_ASSIGNMENT_MARGIN",
    "SMALL_ASSIGNMENT_MAX",
    "MatchingResult",
    "BipartiteMatcher",
    "solve_small_assignment",
]

NEG_INF = float("-inf")

#: Largest side :func:`solve_small_assignment` enumerates (3×3 is six
#: permutations; the flow solver handles everything bigger).
SMALL_ASSIGNMENT_MAX = 3
#: The enumerated optimum must beat every other matched-pair set by more
#: than this, far above the flow solver's accumulated ``EPS`` slack, so
#: both solvers provably agree; anything closer is left to the flow solver.
SMALL_ASSIGNMENT_MARGIN = 1e-6


def _assignments(n_left: int, n_right: int) -> Tuple[Tuple[Tuple[int, int], ...], ...]:
    """Every maximum-cardinality assignment of an ``n_left x n_right``
    unit-capacity problem, each as its ``(left, right)`` pairs sorted by left."""
    if n_left <= n_right:
        return tuple(
            tuple(enumerate(rights))
            for rights in permutations(range(n_right), n_left)
        )
    return tuple(
        tuple(sorted((left, right) for right, left in enumerate(lefts)))
        for lefts in permutations(range(n_left), n_right)
    )


_ASSIGNMENTS = {
    (n_left, n_right): _assignments(n_left, n_right)
    for n_left in range(1, SMALL_ASSIGNMENT_MAX + 1)
    for n_right in range(1, SMALL_ASSIGNMENT_MAX + 1)
}


def solve_small_assignment(
    weights: Sequence[Sequence[float]],
) -> Optional[List[Tuple[int, int]]]:
    """Exact max-weight matching of a small non-negative unit-capacity matrix.

    Returns the sorted ``(left, right)`` pairs of positive weight that
    ``BipartiteMatcher(weights, [1] * n_left, [1] * n_right).solve()``
    matches — the flow solver also pads its matching with zero-weight
    pairs, which carry no weight and are left out here.  Returns ``None``
    (solve with the flow solver instead) when the matrix is empty, has a
    side above :data:`SMALL_ASSIGNMENT_MAX` or a negative entry, or when
    the best set of positive pairs does not beat the runner-up set by more
    than :data:`SMALL_ASSIGNMENT_MARGIN`, so ties are never broken here.
    """
    n_left = len(weights)
    n_right = len(weights[0]) if n_left else 0
    if not (
        0 < n_left <= SMALL_ASSIGNMENT_MAX
        and 0 < n_right <= SMALL_ASSIGNMENT_MAX
    ):
        return None
    for row in weights:
        for w in row:
            if not w >= 0.0:  # negative or NaN
                return None
    best: Optional[Tuple[Tuple[int, int], ...]] = None
    best_total = runner_up = NEG_INF
    for assignment in _ASSIGNMENTS[(n_left, n_right)]:
        support = tuple(p for p in assignment if weights[p[0]][p[1]] > 0.0)
        if support == best:
            continue
        total = sum(weights[i][j] for i, j in support)
        if total > best_total:
            best, best_total, runner_up = support, total, best_total
        elif total > runner_up:
            runner_up = total
    if best is None or best_total - runner_up <= SMALL_ASSIGNMENT_MARGIN:
        return None
    return list(best)


class MatchingResult:
    """Outcome of a matching solve."""

    __slots__ = ("pairs", "total_weight")

    def __init__(self, pairs: List[Tuple[int, int]], total_weight: float) -> None:
        self.pairs = pairs
        self.total_weight = total_weight

    def right_of(self, left: int) -> Optional[int]:
        """The right node matched to ``left``, if any."""
        for l, r in self.pairs:
            if l == left:
                return r
        return None


class BipartiteMatcher:
    """Max-weight matching between capacitated left and right node sets.

    Parameters
    ----------
    weights:
        Dense ``len(left_caps) x len(right_caps)`` weight matrix; weights may
        be negative (the matching must still saturate left capacity — flow
        maximization comes first, exactly as in the paper's reduction).
    left_caps, right_caps:
        Non-negative integer capacities per node.
    """

    def __init__(
        self,
        weights: Sequence[Sequence[float]],
        left_caps: Sequence[int],
        right_caps: Sequence[int],
    ) -> None:
        self.weights = [list(row) for row in weights]
        self.left_caps = list(left_caps)
        self.right_caps = list(right_caps)
        if len(self.weights) != len(self.left_caps):
            raise ValueError("weights rows must match left_caps")
        for row in self.weights:
            if len(row) != len(self.right_caps):
                raise ValueError("weights columns must match right_caps")
        if any(c < 0 for c in self.left_caps + self.right_caps):
            raise ValueError("capacities must be non-negative")

        self._network: Optional[FlowNetwork] = None
        self._left_nodes: List[int] = []
        self._right_nodes: List[int] = []
        self._lr_edges: Dict[Tuple[int, int], int] = {}
        self._result: Optional[MatchingResult] = None

    # -- solving -----------------------------------------------------------

    def solve(self) -> MatchingResult:
        """Build the flow network, run min-cost max-flow, extract matching."""
        n_left, n_right = len(self.left_caps), len(self.right_caps)
        total_left = sum(self.left_caps)
        total_right = sum(self.right_caps)

        net = FlowNetwork(2)  # 0 = source, 1 = sink
        s, t = 0, 1
        self._left_nodes = [net.add_node() for _ in range(n_left)]
        self._right_nodes = [net.add_node() for _ in range(n_right)]

        for i, u in enumerate(self._left_nodes):
            net.add_edge(s, u, float(self.left_caps[i]), 0.0)
        for j, v in enumerate(self._right_nodes):
            net.add_edge(v, t, float(self.right_caps[j]), 0.0)
        for i, u in enumerate(self._left_nodes):
            for j, v in enumerate(self._right_nodes):
                cap = float(min(self.left_caps[i], self.right_caps[j]))
                if cap <= 0:
                    continue
                eid = net.add_edge(u, v, cap, -self.weights[i][j])
                self._lr_edges[(i, j)] = eid

        # Balance the two sides with a dummy node on the deficient side
        # (§4.2.1) so max flow saturates every real capacity.
        if total_right > total_left:
            dummy = net.add_node()
            net.add_edge(s, dummy, float(total_right - total_left), 0.0)
            for j, v in enumerate(self._right_nodes):
                if self.right_caps[j] > 0:
                    net.add_edge(dummy, v, float(self.right_caps[j]), 0.0)
        elif total_left > total_right:
            dummy = net.add_node()
            net.add_edge(dummy, t, float(total_left - total_right), 0.0)
            for i, u in enumerate(self._left_nodes):
                if self.left_caps[i] > 0:
                    net.add_edge(u, dummy, float(self.left_caps[i]), 0.0)

        net.min_cost_max_flow(s, t)
        self._network = net

        pairs: List[Tuple[int, int]] = []
        total_weight = 0.0
        for (i, j), eid in self._lr_edges.items():
            if net.flow[eid] > EPS:
                pairs.append((i, j))
                total_weight += self.weights[i][j] * round(net.flow[eid])
        pairs.sort()
        self._result = MatchingResult(pairs, total_weight)
        return self._result

    # -- max-marginals (Fig. 3) -----------------------------------------------

    def max_marginals(self) -> List[List[float]]:
        """All-pairs forced-assignment optima.

        ``mm[i][j]`` is the best total matching weight subject to left ``i``
        being matched to right ``j``; ``-inf`` when infeasible.  Requires
        :meth:`solve` to have run.  Implements Fig. 3: one Bellman–Ford pass
        from each right node over the final residual graph, then
        ``Opt - d(j, i) - cost(i, j)``.
        """
        if self._network is None or self._result is None:
            raise RuntimeError("call solve() before max_marginals()")
        net = self._network
        opt = self._result.total_weight
        n_left, n_right = len(self.left_caps), len(self.right_caps)

        mm = [[NEG_INF] * n_right for _ in range(n_left)]
        for j in range(n_right):
            if self.right_caps[j] == 0:
                continue
            dist = net.residual_shortest_paths(self._right_nodes[j])
            for i in range(n_left):
                eid = self._lr_edges.get((i, j))
                if eid is None:
                    continue
                if net.flow[eid] > EPS:
                    # (i, j) already in the optimum.
                    mm[i][j] = opt
                    continue
                d = dist[self._left_nodes[i]]
                if d == float("inf"):
                    continue
                # cost(i, j) = -weight; mm = Opt - d(j,i) - cost(i,j).
                mm[i][j] = opt - d - (-self.weights[i][j])
        return mm

    @property
    def network(self) -> FlowNetwork:
        """The underlying flow network (after :meth:`solve`)."""
        if self._network is None:
            raise RuntimeError("call solve() first")
        return self._network
