"""Quotient-graph construction and DOT export."""

import pytest

from tateop.tree import tree_quotient, tree_quotient_dot


def test_node_and_edge_counts():
    nodes, edges = tree_quotient(2, 5, 0)
    assert len(nodes) == 5 and len(edges) == 5
    nodes, edges = tree_quotient(2, 5, 1)
    assert len(nodes) == 10 and len(edges) == 10
    nodes, edges = tree_quotient(3, 1, 1)
    assert len(nodes) == 3 and len(edges) == 3
    for p, m, depth in [(2, 1, 3), (3, 2, 2), (5, 4, 1), (7, 3, 0)]:
        nodes, edges = tree_quotient(p, m, depth)
        assert len(nodes) == m * p**depth
        assert len(edges) == m * p**depth


def test_self_loop_only_for_single_shell():
    _, edges = tree_quotient(3, 1, 0)
    assert edges == [("c0", "c0")]
    _, edges = tree_quotient(3, 2, 0)
    assert ("c0", "c0") not in edges
    assert set(edges) == {("c0", "c1"), ("c1", "c0")} or len(edges) == 2


def test_interior_degree_is_p_plus_one():
    p, m, depth = 3, 4, 2
    nodes, edges = tree_quotient(p, m, depth)
    deg = {n: 0 for n in nodes}
    for a, b in edges:
        deg[a] += 1
        deg[b] += 1  # a self-loop counts twice, as in graph theory
    leaves = {n for n in nodes if n.count("_") == depth}
    for n in nodes:
        if n in leaves:
            assert deg[n] == 1
        else:
            assert deg[n] == p + 1


def test_dot_output_shape_and_determinism():
    dot = tree_quotient_dot(2, 5, 1)
    assert dot.startswith("graph tate_quotient {")
    assert dot.rstrip().endswith("}")
    assert '"c0" -- "c1";' in dot
    assert dot == tree_quotient_dot(2, 5, 1)


def test_depth_validation():
    with pytest.raises(ValueError):
        tree_quotient(3, 1, -1)
