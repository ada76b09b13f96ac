"""Quotient of the (p+1)-regular tree by the one-loop group: an m-cycle
with truncated tree branches, exported as Graphviz DOT.

Purely combinatorial; node and edge counts are the only claims.  Every
vertex of the full tree has valence p + 1; the cycle consumes two slots
at its vertices (both slots of the self-loop when m = 1), one slot is
the parent edge inside a branch, and the rest continue downward.
"""

from __future__ import annotations

from .padic import capped_product, is_prime

DEFAULT_NODE_CAP = 20000


def tree_quotient(
    p: int, m: int, depth: int, node_cap: int = DEFAULT_NODE_CAP
) -> tuple[list[str], list[tuple[str, str]]]:
    """Nodes and edges of the quotient graph truncated at the given depth.

    Exactly m p^depth nodes and m p^depth edges (one independent cycle).
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if m < 1:
        raise ValueError("cycle length must be >= 1")
    if depth < 0:
        raise ValueError("depth must be >= 0")
    total = capped_product(m, p, depth, node_cap)
    if total > node_cap:
        raise ValueError(f"{m}*{p}^{depth} nodes exceeds the node cap of {node_cap}")
    nodes = [f"c{i}" for i in range(m)]
    edges = [(f"c{i}", f"c{(i + 1) % m}") for i in range(m)]
    frontier = list(nodes)
    for level in range(1, depth + 1):
        fanout = p - 1 if level == 1 else p
        next_frontier = []
        for parent in frontier:
            for b in range(fanout):
                child = f"{parent}_{b}"
                nodes.append(child)
                edges.append((parent, child))
                next_frontier.append(child)
        frontier = next_frontier
    if len(nodes) != total or len(edges) != total:
        raise ArithmeticError(
            f"quotient has {len(nodes)} nodes and {len(edges)} edges, expected {total} each"
        )
    return nodes, edges


def tree_quotient_dot(
    p: int, m: int, depth: int, node_cap: int = DEFAULT_NODE_CAP
) -> str:
    """DOT text (undirected graph) for the truncated quotient."""
    nodes, edges = tree_quotient(p, m, depth, node_cap)
    lines = ["graph tate_quotient {"]
    lines.extend(f'  "{name}";' for name in nodes)
    lines.extend(f'  "{a}" -- "{b}";' for a, b in edges)
    lines.append("}")
    return "\n".join(lines) + "\n"
