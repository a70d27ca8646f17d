"""Max-marginal computation (Section 4.2.3, Fig. 3).

``µ_tc(l)`` is the best achievable table score when column ``c`` is forced
to take label ``l``, under mutex and all-Irr only — must-match and
min-match are *deliberately excluded* so the relative magnitudes across
labels stay comparable (the paper calls this out explicitly).

For query labels and ``na`` this is a forced-assignment bipartite optimum,
computed for all (c, l) pairs at once from the residual graph of a single
min-cost-flow solve (one Bellman–Ford per label).  For ``nr``, all-Irr
forces the whole table, so ``µ_tc(nr)`` is the all-``nr`` table score.

A table's max-marginals depend only on its own node potentials, so a
table whose entries the problem already records
(:attr:`~repro.core.model.ColumnMappingProblem.max_marginals` — the
confidence pass's stage-1 tables, carried into the full problem) is
returned from there instead of being solved again.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..core.model import ColumnMappingProblem
from ..flow.bipartite import BipartiteMatcher
from .base import column_distributions

__all__ = ["table_max_marginals", "all_max_marginals"]


def table_max_marginals(
    problem: ColumnMappingProblem,
    ti: int,
    potentials: Optional[Dict[Tuple[int, int], List[float]]] = None,
) -> Dict[Tuple[int, int], List[float]]:
    """µ_tc(l) for every column of table ``ti`` and every label.

    Returns dense per-column lists over the full label space
    (q query labels, na, nr).  With ``potentials`` unset, a table whose
    max-marginals ``problem.max_marginals`` already records is not
    re-solved.
    """
    table = problem.tables[ti]
    labels = problem.labels
    q = labels.q
    nt = table.num_cols
    if potentials is None:
        known = problem.max_marginals
        if nt and (ti, 0) in known:
            return {(ti, ci): known[(ti, ci)] for ci in range(nt)}
        theta = problem.node_potentials
    else:
        theta = potentials

    # Bipartite graph without must-match (no M1) and without min-match
    # (na capacity = nt), exactly Fig. 3's construction.
    weights = [
        [theta[(ti, ci)][l] for l in range(q)] + [theta[(ti, ci)][labels.na]]
        for ci in range(nt)
    ]
    matcher = BipartiteMatcher(weights, [1] * nt, [1] * q + [nt])
    matcher.solve()
    mm = matcher.max_marginals()

    nr_score = sum(theta[(ti, ci)][labels.nr] for ci in range(nt))

    out: Dict[Tuple[int, int], List[float]] = {}
    for ci in range(nt):
        row = [mm[ci][l] for l in range(q)]
        row.append(mm[ci][q])  # na
        row.append(nr_score)  # nr (all-Irr forces the whole table)
        out[(ti, ci)] = row
    return out


def all_max_marginals(
    problem: ColumnMappingProblem,
    potentials: Optional[Dict[Tuple[int, int], List[float]]] = None,
) -> Dict[Tuple[int, int], List[float]]:
    """Max-marginals for every column of every table."""
    out: Dict[Tuple[int, int], List[float]] = {}
    for ti in range(len(problem.tables)):
        out.update(table_max_marginals(problem, ti, potentials))
    return out


def all_distributions(
    problem: ColumnMappingProblem,
) -> Dict[Tuple[int, int], List[float]]:
    """Pr(l | tc) for every column (softmaxed max-marginals)."""
    return column_distributions(problem, all_max_marginals(problem))
