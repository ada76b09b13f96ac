"""Quotient of the (p+1)-regular tree by the one-loop group: an m-cycle
with truncated tree branches, exported as Graphviz DOT.

Purely combinatorial; node and edge counts are the only claims.  Every
vertex of the full tree has valence p + 1; the cycle consumes two slots
at its vertices (both slots of the self-loop when m = 1), one slot is
the parent edge inside a branch, and the rest continue downward.
"""

from __future__ import annotations


def tree_quotient(p: int, m: int, depth: int) -> tuple[list[str], list[tuple[str, str]]]:
    """Nodes and edges of the quotient graph truncated at the given depth.

    For a prime p and m >= 1: exactly m p^depth nodes and m p^depth edges
    (one independent cycle).
    """
    if depth < 0:
        raise ValueError("depth must be >= 0")
    total = m * p**depth
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


def tree_quotient_dot(p: int, m: int, depth: int) -> str:
    """DOT text (undirected graph) for the truncated quotient."""
    nodes, edges = tree_quotient(p, m, depth)
    lines = ["graph tate_quotient {"]
    lines.extend(f'  "{name}";' for name in nodes)
    lines.extend(f'  "{a}" -- "{b}";' for a, b in edges)
    lines.append("}")
    return "\n".join(lines) + "\n"
