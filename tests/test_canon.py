"""Canonical form checked against brute-force relabeling oracles."""

import itertools
from collections import Counter

import numpy as np
import pytest

from heigen import Hypergraph, are_isomorphic, canonical_form, hyperstar
from heigen.analysis import enumerate_family, enumerate_hypertrees, random_rooted_hypertree
from heigen import canon
from heigen.canon import SearchBudgetExceeded, twin_classes
from heigen.constructions import (
    complete_hypergraph,
    cycle_blowup,
    kth_power_of_graph,
)

from corpus import corpus_graphs


def relabel(g: Hypergraph, perm) -> Hypergraph:
    edges = [tuple(sorted(perm[v] for v in e)) for e in g.edges]
    return Hypergraph(g.n, g.k, tuple(sorted(edges)))


def brute_canonical(g: Hypergraph):
    best = None
    for perm in itertools.permutations(range(g.n)):
        cand = relabel(g, perm).edges
        if best is None or cand < best:
            best = cand
    return (g.n, g.k, best)


def small_graphs():
    out = [
        Hypergraph(2, 2, ((0, 1),)),
        Hypergraph(4, 2, ((0, 1), (2, 3))),
        hyperstar(2, 3).graph,
        Hypergraph(6, 3, ((0, 1, 2), (2, 3, 4), (4, 5, 0))),
        Hypergraph(5, 4, ((0, 1, 2, 3), (1, 2, 3, 4))),
        complete_hypergraph(5, 4),
        Hypergraph(7, 4, ((0, 1, 2, 3), (0, 4, 5, 6))),
        Hypergraph(6, 2, ((0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0))),
    ]
    return out


def test_matches_brute_force_on_small_graphs():
    """Relabelled inputs reach the all-permutations minimum too, so the
    completion bound never prunes the subtree holding it."""
    single_edge = Hypergraph(4, 4, ((0, 1, 2, 3),))
    rng = np.random.default_rng(3)
    graphs = small_graphs() + [g for g in corpus_graphs() if g.n <= 8]
    graphs += [g for m in range(1, 6) for g in enumerate_hypertrees(m, 2)]
    graphs += [random_rooted_hypertree(rng, 7, 2).graph for _ in range(2)]
    graphs += enumerate_family(single_edge, 1)
    for g in graphs:
        want = brute_canonical(g)
        assert canonical_form(g) == want
        for _ in range(5):
            assert canonical_form(relabel(g, rng.permutation(g.n))) == want


def test_family_members_stay_within_a_small_node_budget(monkeypatch):
    monkeypatch.setattr(canon, "NODE_BUDGET", 1000)
    for g in enumerate_family(complete_hypergraph(5, 4), 2):
        canonical_form(g)


def test_relabelled_k2_tree_stays_within_node_budget(monkeypatch):
    monkeypatch.setattr(canon, "NODE_BUDGET", 200_000)
    rng = np.random.default_rng(10)
    tree = random_rooted_hypertree(rng, 10, 2).graph
    canonical_form(relabel(tree, rng.permutation(tree.n)))


def test_relabelled_12_edge_tree_stays_within_node_budget(monkeypatch):
    """This tree took 178 388 nodes when children were ranked by their edges
    and 22 190 in index order; the refined order needs about 2 300."""
    monkeypatch.setattr(canon, "NODE_BUDGET", 40_000)
    rng = np.random.default_rng(0)
    tree = random_rooted_hypertree(rng, 12, 2).graph
    canonical_form(relabel(tree, rng.permutation(tree.n)))


def test_relabelled_20_edge_tree_stays_within_node_budget(monkeypatch):
    """This tree took more than 3 000 000 nodes in index order; the refined
    order needs about 8 200."""
    monkeypatch.setattr(canon, "NODE_BUDGET", 20_000)
    rng = np.random.default_rng(2)
    tree = random_rooted_hypertree(rng, 20, 2).graph
    canonical_form(relabel(tree, rng.permutation(tree.n)))


def test_search_size_does_not_depend_on_the_labelling(monkeypatch):
    """In index order, relabellings of this 15-edge tree took 34 637 to
    623 855 nodes; the refined order takes 10 540 on each of them."""
    monkeypatch.setattr(canon, "NODE_BUDGET", 12_000)
    rng = np.random.default_rng(0)
    tree = random_rooted_hypertree(rng, 15, 2).graph
    want = canonical_form(tree)
    for _ in range(5):
        assert canonical_form(relabel(tree, rng.permutation(tree.n))) == want


def test_invariant_under_relabeling():
    rng = np.random.default_rng(5)
    for g in corpus_graphs():
        if g.n > 14:
            continue
        want = canonical_form(g)
        for _ in range(10):
            perm = rng.permutation(g.n)
            assert canonical_form(relabel(g, perm)) == want


def test_canonical_graph_is_isomorphic_fixed_point():
    for g in corpus_graphs():
        if g.n > 14:
            continue
        c = Hypergraph(*canonical_form(g))
        assert canonical_form(c) == canonical_form(g)
        assert c.edges == canonical_form(g)[2]


def test_twin_classes_partition():
    g = hyperstar(3, 4).graph
    classes = twin_classes(g)
    assert sorted(v for cl, _ in classes for v in cl) == list(range(g.n))
    # center is alone, each edge's leaves form one class
    sizes = sorted(len(cl) for cl, _ in classes)
    assert sizes == [1, 3, 3, 3]
    for h in [g] + corpus_graphs():
        for cl, star in twin_classes(h):
            for v in cl:
                assert star == tuple(h.edges.index(e) for e in h.edge_star(v))


def test_empty_graph_has_an_empty_form():
    assert canonical_form(Hypergraph(0, 4, ())) == (0, 4, ())


def test_isomorphic_and_not():
    a = kth_power_of_graph([(0, 1), (0, 2), (0, 3)], 4)
    b = hyperstar(3, 4).graph
    assert are_isomorphic(a, b)
    path = kth_power_of_graph([(0, 1), (1, 2), (2, 3)], 4)
    broom = kth_power_of_graph([(0, 1), (1, 2), (1, 3)], 4)
    assert not are_isomorphic(path, broom)
    assert not are_isomorphic(a, complete_hypergraph(5, 4))
    assert not are_isomorphic(a, kth_power_of_graph([(0, 1), (0, 2)], 4))


def test_budget_raises(monkeypatch):
    monkeypatch.setattr(canon, "NODE_BUDGET", 2)
    g = cycle_blowup(6, 6)
    with pytest.raises(SearchBudgetExceeded):
        canonical_form(g)


def test_class_shapes_reject_without_a_search(monkeypatch):
    """Equal degree sequences and class sizes, but the twin pair has degree
    2 in one graph and 3 in the other: the (class size, degree) pairs tell
    them apart, so neither graph is labelled."""
    a = Hypergraph(7, 4, ((0, 1, 2, 4), (0, 1, 2, 6), (0, 4, 5, 6), (3, 4, 5, 6)))
    b = Hypergraph(7, 4, ((0, 1, 4, 5), (0, 2, 3, 6), (0, 2, 5, 6), (1, 2, 3, 6)))
    assert sorted(a.degree(v) for v in range(7)) == sorted(b.degree(v) for v in range(7))
    assert sorted(Counter(map(a.edge_star, range(7))).values()) == sorted(Counter(map(b.edge_star, range(7))).values())
    calls = []
    monkeypatch.setattr(canon, "canonical_form", lambda g: calls.append(g) or canonical_form(g))
    assert not are_isomorphic(a, b)
    assert calls == []


@pytest.mark.parametrize(
    "g, nodes",
    [
        (hyperstar(5, 4).graph, 89),
        (cycle_blowup(5, 4), 33),
        # a member of enumerate_hypertrees(5, 4), whose nine members take 635
        (Hypergraph(16, 4, ((0, 1, 2, 3), (0, 4, 5, 6), (1, 7, 8, 9), (2, 10, 11, 12), (3, 13, 14, 15))), 115),
    ],
)
def test_node_counts_are_pinned(monkeypatch, g, nodes):
    """The search visits exactly this many nodes, so a change to the class
    order or the completion bound shows here."""
    monkeypatch.setattr(canon, "NODE_BUDGET", nodes)
    canonical_form(g)
    monkeypatch.setattr(canon, "NODE_BUDGET", nodes - 1)
    with pytest.raises(SearchBudgetExceeded):
        canonical_form(g)


def incidence_nx(g: Hypergraph):
    """Vertex+edge colored bipartite incidence graph for the VF2 oracle."""
    nx = pytest.importorskip("networkx")
    b = nx.Graph()
    for v in range(g.n):
        b.add_node(("v", v), kind="vertex")
    for j, e in enumerate(g.edges):
        b.add_node(("e", j), kind="edge")
        for v in e:
            b.add_edge(("e", j), ("v", v))
    return b


def test_agrees_with_vf2_oracle():
    nx = pytest.importorskip("networkx")
    from networkx.algorithms.isomorphism import categorical_node_match

    nm = categorical_node_match("kind", None)
    graphs = [g for g in corpus_graphs() if g.n <= 12]
    rng = np.random.default_rng(11)
    picks = rng.permutation(len(graphs))[:12]
    for i in picks:
        for j in picks:
            a, b = graphs[i], graphs[j]
            if a.k != b.k:
                continue
            vf2 = nx.is_isomorphic(incidence_nx(a), incidence_nx(b), node_match=nm)
            assert are_isomorphic(a, b) == vf2
