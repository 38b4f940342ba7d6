"""``MinTriang⟨κ⟩(G)``: minimum-cost minimal triangulation (Figure 3).

Dynamic programming over full blocks by ascending cardinality
(Bouchitté–Todinca, generalized to arbitrary split-monotone bag costs):

* for each full block ``(S, C)`` choose the PMC ``Ω`` with
  ``S ⊂ Ω ⊆ S ∪ C`` minimizing ``κ(G[S ∪ C], H_{R(S,C)}(Ω))``, where the
  triangulation assembles ``Ω`` with the previously stored optima of the
  sub-blocks of ``Ω`` inside the realization (Equation (1));
* finally choose the top-level PMC minimizing ``κ(G, H_G(Ω))``.

A triangulation is represented by its bag set — its maximal cliques — which
suffices because κ is a bag cost; the chordal graph itself is materialized
only on demand.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from ..graphs.graph import Graph, Vertex
from ..costs.base import Bag, BagCost, INFEASIBLE
from ..separators.blocks import Block
from ..triangulation.saturate import saturate_bags
from .context import TriangulationContext

Separator = frozenset[Vertex]
PMC = frozenset[Vertex]

__all__ = [
    "Triangulation",
    "min_triangulation",
    "min_triangulation_with_context",
    "min_triangulation_and_table",
]


@dataclass(frozen=True)
class Triangulation:
    """A minimal triangulation as its bag set (maximal cliques) plus cost.

    ``graph`` is the graph that was triangulated.  The chordal graph, the
    fill edges and the identifying minimal separator set are derived
    lazily.
    """

    graph: Graph
    bags: frozenset[Bag]
    cost: float

    @cached_property
    def chordal_graph(self) -> Graph:
        """The triangulation ``H`` itself (``G`` with every bag saturated)."""
        return saturate_bags(self.graph, self.bags)

    @cached_property
    def minimal_separators(self) -> frozenset[Separator]:
        """``MinSep(H)`` — the maximal pairwise-parallel set identifying H.

        Computed as the clique-tree adhesions over the bag set
        (Parra–Scheffler, Theorem 2.5).
        """
        from ..graphs.cliquetree import clique_tree_from_cliques

        edges = clique_tree_from_cliques(set(self.bags))
        seps = {a & b for a, b in edges}
        seps.discard(frozenset())
        return frozenset(seps)

    @property
    def width(self) -> int:
        """Width of the decomposition: largest bag size minus one."""
        return max((len(b) for b in self.bags), default=0) - 1

    def fill_in(self) -> int:
        """Number of fill edges relative to :attr:`graph`."""
        from ..costs.classic import count_fill_edges

        return count_fill_edges(self.graph, self.bags)

    def __len__(self) -> int:
        return len(self.bags)


def _assemble_bags(
    context: TriangulationContext,
    block: Block | None,
    omega: PMC,
    table: dict[Block, tuple[list[Bag] | None, float]],
) -> list[Bag] | None:
    """Bags of ``H(Ω)`` inside ``block``: ``[Ω] ++ child optima``.

    Bags across ``Ω`` and the children are pairwise distinct (Lemma A.1:
    they are the maximal cliques of the assembled triangulation), so a
    plain list works and avoids per-candidate set hashing.  Returns
    ``None`` when some required child block is infeasible (possible only
    under a width bound or constraints) or not tabulated (possible only
    under a width bound, where its separator was filtered out).
    """
    bags: list[Bag] = [omega]
    for child in context.children_of(block, omega):
        entry = table.get(child)
        if entry is None:
            return None
        child_bags, child_cost = entry
        if child_bags is None or child_cost == INFEASIBLE:
            return None
        bags.extend(child_bags)
    return bags


_Table = dict[Block, tuple[list[Bag] | None, float]]


def _run_block_dp(
    context: TriangulationContext,
    cost: BagCost,
    reusable: _Table | None = None,
    touched: "frozenset[int] | None" = None,
) -> _Table:
    """The per-block DP loop (lines 3–5 of Figure 3).

    When ``reusable`` is given, blocks outside the ``touched`` index set
    copy their entry from it instead of recomputing — used by the ranked
    enumerator to share the unconstrained table across constrained runs
    (a block too small to contain any constraint separator has the same
    optimum under ``κ[I,X]`` as under ``κ``, recursively; the touched set
    comes from :meth:`TriangulationContext.touched_blocks`).
    """
    table: _Table = {}
    for idx, block in enumerate(context.blocks):  # ascending |S ∪ C|
        if reusable is not None and touched is not None and idx not in touched:
            table[block] = reusable[block]
            continue
        sub = context.block_subgraph(block)
        best_bags: list[Bag] | None = None
        best_cost = INFEASIBLE
        for omega in context.pmc_index.get(block, ()):
            bags = _assemble_bags(context, block, omega, table)
            if bags is None:
                continue
            value = cost.evaluate(sub, bags)
            if value < best_cost:
                best_cost = value
                best_bags = bags
        table[block] = (best_bags, best_cost)
    return table


def min_triangulation_and_table(
    context: TriangulationContext,
    cost: BagCost,
    reusable_table: _Table | None = None,
    constraint_separators: "frozenset[frozenset[Vertex]] | None" = None,
) -> tuple[Triangulation | None, _Table]:
    """``MinTriang⟨κ⟩`` over a prebuilt context, exposing the DP table.

    ``reusable_table`` / ``constraint_separators`` enable the ranked
    enumerator's table-sharing optimization: a block is recomputed only if
    some constraint separator fits inside it, found in O(touched) via the
    context's block → separator containment index rather than by scanning
    every block.  The triangulation is ``None`` when no feasible one
    exists (only possible with a width bound or an unsatisfiable
    constrained cost).
    """
    graph = context.graph
    if graph.num_vertices() == 0:
        empty = Triangulation(graph, frozenset(), cost.evaluate(graph, frozenset()))
        return empty, {}

    touched = None
    if reusable_table is not None and constraint_separators is not None:
        touched = context.touched_blocks(constraint_separators)

    table = _run_block_dp(context, cost, reusable_table, touched)

    best_bags = None
    best_cost = INFEASIBLE
    # Canonical order (not the raw pmcs set): ties must resolve the same
    # way under both graph kernels and across resumed processes.
    for omega in context.root_pmc_order():
        bags = _assemble_bags(context, None, omega, table)
        if bags is None:
            continue
        value = cost.evaluate(graph, bags)
        if value < best_cost:
            best_cost = value
            best_bags = bags
    if best_bags is None:
        return None, table
    return Triangulation(graph, frozenset(best_bags), best_cost), table


def min_triangulation_with_context(
    context: TriangulationContext, cost: BagCost
) -> Triangulation | None:
    """``MinTriang⟨κ⟩`` over a prebuilt context.

    Returns ``None`` when no feasible triangulation exists (only possible
    with a width bound or an unsatisfiable constrained cost).
    """
    result, _table = min_triangulation_and_table(context, cost)
    return result


def min_triangulation(
    graph: Graph,
    cost: BagCost,
    context: TriangulationContext | None = None,
    width_bound: int | None = None,
    kernel: str = "auto",
) -> Triangulation | None:
    """Minimum-``κ`` minimal triangulation of ``graph``.

    Disconnected graphs are triangulated component-wise (a minimal
    triangulation of a disconnected graph is the union of minimal
    triangulations of its components); the reported cost is ``κ`` evaluated
    on the combined bag set.  Per-component optimization is globally
    optimal for any cost that is monotone in each component's bags —
    all built-in costs qualify.

    Parameters
    ----------
    graph:
        Graph to triangulate.
    cost:
        A split-monotone bag cost.
    context:
        Optional prebuilt :class:`TriangulationContext` (connected graphs
        only; ignored for disconnected inputs).
    width_bound:
        Restrict to triangulations of width ≤ bound (``MinTriangB``).
    kernel:
        Graph kernel for the context initialization when none is passed
        in: ``"sets"``, ``"bitset"`` or ``"auto"`` (default) — see
        :meth:`TriangulationContext.build`.
    """
    if context is not None:
        return min_triangulation_with_context(context, cost)
    if graph.num_vertices() == 0 or graph.is_connected():
        ctx = TriangulationContext.build(
            graph, width_bound=width_bound, kernel=kernel
        )
        return min_triangulation_with_context(ctx, cost)

    all_bags: set[Bag] = set()
    for comp in graph.connected_components():
        sub = graph.subgraph(comp)
        ctx = TriangulationContext.build(
            sub, width_bound=width_bound, kernel=kernel
        )
        result = min_triangulation_with_context(ctx, cost)
        if result is None:
            return None
        all_bags |= result.bags
    combined = frozenset(all_bags)
    return Triangulation(graph, combined, cost.evaluate(graph, combined))
