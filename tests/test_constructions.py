import numpy as np
import pytest

from heigen import (
    Hypergraph,
    RootedHypergraph,
    attach_hypertrees,
    blowup_power,
    coalesce,
    complete_hypergraph,
    cycle_blowup,
    hyperstar,
    is_connected,
    is_hypertree,
    kth_power_of_graph,
    relocate,
)
from heigen.analysis import (
    CAMPAIGN_K,
    RELOCATION_N_MAX,
    random_connected_hypergraph,
    random_rooted_hypertree,
)
from heigen.canon import are_isomorphic
from heigen.hypergraph import find_odd_bipartition, induced_subhypergraph


def single_edge(k=4):
    return Hypergraph(k, k, (tuple(range(k)),))


def test_hyperstar_shape():
    for m in range(1, 6):
        for k in (2, 4, 6):
            s = hyperstar(m, k)
            g = s.graph
            assert s.root == 0
            assert g.n == 1 + m * (k - 1)
            assert g.m == m
            assert g.degree(0) == m
            assert all(g.degree(v) == 1 for v in range(1, g.n))
            assert is_hypertree(g)
    with pytest.raises(ValueError):
        hyperstar(-1, 4)


def test_power_of_graph():
    star = kth_power_of_graph([(0, 1), (0, 2), (0, 3)], 4)
    assert are_isomorphic(star, hyperstar(3, 4).graph)
    path = kth_power_of_graph([(0, 1), (1, 2)], 4)
    assert path.n == 7 and path.m == 2
    assert is_hypertree(path)
    # power of a tree with m edges is a hypertree on m(k-1)+1 vertices
    tree = [(0, 1), (1, 2), (1, 3), (3, 4)]
    for k in (2, 4, 6):
        p = kth_power_of_graph(tree, k)
        assert is_hypertree(p)
        assert p.n == len(tree) * (k - 1) + 1
    with pytest.raises(ValueError):
        kth_power_of_graph([(0, 0)], 4)
    with pytest.raises(ValueError):
        kth_power_of_graph([(0, 1), (1, 0)], 4)


def test_blowup_power():
    c4 = cycle_blowup(4, 4)
    assert c4.n == 8 and c4.m == 4
    assert all(len(e) == 4 for e in c4.edges)
    with pytest.raises(ValueError):
        blowup_power([(0, 1)], 3)
    # odd-bipartite exactly when the base graph is bipartite
    bases = {
        "path": ([(0, 1), (1, 2)], True),
        "c4": ([(0, 1), (1, 2), (2, 3), (3, 0)], True),
        "c3": ([(0, 1), (1, 2), (2, 0)], False),
        "c5": ([(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)], False),
    }
    for edges, bipartite in bases.values():
        g = blowup_power(edges, 4)
        assert (find_odd_bipartition(g) is not None) == bipartite


def test_complete_hypergraph():
    g = complete_hypergraph(5, 4)
    assert g.n == 5 and g.m == 5
    assert complete_hypergraph(6, 4).m == 15
    assert all(g.degree(v) == 4 for v in range(5))
    with pytest.raises(ValueError):
        complete_hypergraph(3, 4)


def test_coalesce_merges_roots():
    a = RootedHypergraph(single_edge(), 0)
    b = RootedHypergraph(single_edge(), 2)
    c = coalesce(a, b)
    assert c.graph.n == 7
    assert c.graph.m == 2
    assert c.root == 0
    assert c.graph.degree(0) == 2
    assert are_isomorphic(c.graph, hyperstar(2, 4).graph)
    assert c.host_m == 1
    assert c.branch_root_edges() == ((0, 4, 5, 6),)


def test_coalesce_stars_add():
    for a, b in ((1, 1), (2, 3), (4, 1)):
        c = coalesce(hyperstar(a, 4), hyperstar(b, 4))
        assert are_isomorphic(c.graph, hyperstar(a + b, 4).graph)


def test_coalesce_sizes_and_errors():
    c = coalesce(RootedHypergraph(complete_hypergraph(5, 4), 0), hyperstar(3, 4))
    assert c.graph.n == 5 + 10 - 1
    assert is_connected(c.graph)
    with pytest.raises(ValueError):
        coalesce(RootedHypergraph(single_edge(4), 0), RootedHypergraph(single_edge(6), 0))


def test_relocate_alignment():
    g0 = kth_power_of_graph([(0, 1), (1, 2), (2, 3)], 4)
    h = hyperstar(2, 4)
    relo = relocate(g0, 0, 3, h)
    before, after = relo.before, relo.after
    assert before.n == after.n and before.m == after.m
    assert set(relo.branch_vertices) == set(range(g0.n, before.n))
    sub_b, _ = induced_subhypergraph(before, range(g0.n))
    sub_a, _ = induced_subhypergraph(after, range(g0.n))
    assert sub_b == g0 == sub_a
    # graphs differ exactly in the branch edges
    assert before.edges[:g0.m] == after.edges[:g0.m] == g0.edges
    with pytest.raises(ValueError):
        relocate(g0, 1, 1, h)


def _campaign_instances(count=10):
    """Relocation instances drawn as relocation_campaign draws them."""
    k = CAMPAIGN_K
    for seed in range(count):
        rng = np.random.default_rng(seed)
        branch_m = int(rng.integers(1, 3))
        n0 = int(rng.integers(k, RELOCATION_N_MAX - branch_m * (k - 1) + 1))
        g0 = random_connected_hypergraph(rng, n0, int(rng.integers(0, 3)), k)
        h = random_rooted_hypertree(rng, branch_m, k)
        v1, v2 = (int(v) for v in rng.choice(n0, size=2, replace=False))
        yield g0, v1, v2, h


def _relabel(edges, old, new):
    return [tuple(sorted(new if v == old else v for v in e)) for e in edges]


def test_relocation_invariants_on_campaign_instances():
    for g0, v1, v2, h in _campaign_instances():
        relo = relocate(g0, v1, v2, h)
        before, after = relo.before, relo.after
        assert before.edges[:g0.m] == g0.edges == after.edges[:g0.m]
        assert relo.branch_vertices == range(g0.n, before.n)
        assert after.n == before.n == g0.n + h.graph.n - 1
        assert list(after.edges[g0.m:]) == _relabel(before.edges[g0.m:], v2, v1)
        coal = coalesce(RootedHypergraph(g0, v2), h)
        assert coal.graph == before and coal.host_m == g0.m
        # branch vertices other than the root take fresh labels in ascending order
        fresh = [w for w in range(h.graph.n) if w != h.root]
        label = {**dict(zip(fresh, range(g0.n, before.n))), h.root: v2}
        root_edges = [tuple(sorted(label[w] for w in e)) for e in h.graph.edge_star(h.root)]
        assert list(coal.branch_root_edges()) == root_edges


def test_relocate_single_edge_host():
    e = single_edge()
    relo = relocate(e, 0, 1, RootedHypergraph(single_edge(), 0))
    assert are_isomorphic(relo.before, relo.after)
    assert is_hypertree(relo.before)


def test_attach_hypertrees():
    g0 = single_edge()
    out = attach_hypertrees(g0, [(0, hyperstar(2, 4)), (1, hyperstar(1, 4))])
    assert out.m == 1 + 3
    assert out.n == 4 + 3 * 3
    assert is_connected(out)
    sub, _ = induced_subhypergraph(out, range(4))
    assert sub == g0
    assert attach_hypertrees(g0, []) == g0
    with pytest.raises(ValueError):
        attach_hypertrees(g0, [(0, RootedHypergraph(complete_hypergraph(5, 4), 0))])
    with pytest.raises(ValueError):
        attach_hypertrees(Hypergraph(8, 4, ((0, 1, 2, 3), (4, 5, 6, 7))), [])


def test_attach_matches_coalesce_star():
    g0 = complete_hypergraph(5, 4)
    via_attach = attach_hypertrees(g0, [(2, hyperstar(3, 4))])
    via_coalesce = coalesce(RootedHypergraph(g0, 2), hyperstar(3, 4)).graph
    assert via_attach == via_coalesce
