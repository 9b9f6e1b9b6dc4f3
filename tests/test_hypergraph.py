import itertools

import pytest

from heigen import (
    Bipartition,
    Hypergraph,
    find_odd_bipartition,
    induced_subhypergraph,
    is_connected,
    is_hypertree,
    is_odd_bipartition,
)
from heigen import hypergraph as hg
from heigen.constructions import complete_hypergraph, cycle_blowup, hyperstar

from corpus import corpus_graphs


def test_construction_normalizes_and_validates():
    g = Hypergraph(5, 4, ((3, 1, 0, 2),))
    assert g.edges == ((0, 1, 2, 3),)
    assert g.m == 1
    with pytest.raises(ValueError):
        Hypergraph(4, 4, ((0, 1, 2),))
    with pytest.raises(ValueError):
        Hypergraph(4, 4, ((0, 1, 2, 2),))
    with pytest.raises(ValueError):
        Hypergraph(4, 4, ((0, 1, 2, 4),))
    with pytest.raises(ValueError):
        Hypergraph(5, 4, ((0, 1, 2, 3), (3, 2, 1, 0)))
    with pytest.raises(ValueError):
        Hypergraph(4, 1, ())
    with pytest.raises(ValueError):
        Hypergraph(-1, 2, ())


def test_degree_and_star():
    g = hyperstar(3, 4).graph
    assert g.degree(0) == 3
    assert g.degree(5) == 1
    assert len(g.edge_star(0)) == 3
    assert g.edge_star(1) == ((0, 1, 2, 3),)
    iso = Hypergraph(5, 4, ((0, 1, 2, 3),))
    assert iso.degree(4) == 0
    assert iso.edge_star(4) == ()
    with pytest.raises(ValueError):
        g.degree(99)
    with pytest.raises(ValueError):
        g.edge_star(-1)


def test_connectivity():
    assert is_connected(Hypergraph(0, 2, ()))
    assert is_connected(Hypergraph(1, 2, ()))
    assert not is_connected(Hypergraph(2, 2, ()))
    assert is_connected(Hypergraph(4, 4, ((0, 1, 2, 3),)))
    assert not is_connected(Hypergraph(5, 4, ((0, 1, 2, 3),)))
    two = Hypergraph(8, 4, ((0, 1, 2, 3), (4, 5, 6, 7)))
    assert not is_connected(two)
    assert is_connected(hyperstar(3, 4).graph)


def test_induced_subhypergraph():
    g = complete_hypergraph(5, 4)
    sub, labels = induced_subhypergraph(g, [0, 1, 2, 3])
    assert sub.edges == ((0, 1, 2, 3),)
    assert labels == (0, 1, 2, 3)
    sub2, labels2 = induced_subhypergraph(g, [4, 2, 1, 0])
    assert sub2.m == 1
    assert labels2 == (0, 1, 2, 4)
    whole, _ = induced_subhypergraph(g, range(5))
    assert whole.edges == g.edges
    empty, _ = induced_subhypergraph(g, [0, 1])
    assert empty.m == 0 and empty.n == 2


def test_is_hypertree():
    assert is_hypertree(Hypergraph(4, 4, ((0, 1, 2, 3),)))
    for m in (1, 2, 3):
        assert is_hypertree(hyperstar(m, 4).graph)
    assert not is_hypertree(complete_hypergraph(5, 4))
    assert not is_hypertree(Hypergraph(8, 4, ((0, 1, 2, 3), (4, 5, 6, 7))))
    # right edge count but disconnected, padded with isolated vertices
    assert not is_hypertree(Hypergraph(5, 4, ((0, 1, 2, 3),)))


def brute_odd_bipartition(g):
    """Exhaustive search over all 2^n sides; the independent parity oracle."""
    for bits in itertools.product((0, 1), repeat=g.n):
        if all(sum(bits[v] for v in e) % 2 == 1 for e in g.edges):
            return Bipartition(bits)
    return None


def test_parity_solver_against_brute_force():
    for g in corpus_graphs():
        if g.n > 12:
            continue
        got = find_odd_bipartition(g)
        want = brute_odd_bipartition(g)
        assert (got is None) == (want is None), g
        if got is not None:
            assert is_odd_bipartition(g, got)


def test_parity_known_negatives():
    assert find_odd_bipartition(complete_hypergraph(5, 4)) is None
    assert find_odd_bipartition(cycle_blowup(5, 4)) is None
    assert find_odd_bipartition(cycle_blowup(3, 4)) is None


def test_parity_known_positives():
    for g in (Hypergraph(4, 4, ((0, 1, 2, 3),)), hyperstar(3, 4).graph, cycle_blowup(4, 4)):
        bip = find_odd_bipartition(g)
        assert bip is not None
        assert is_odd_bipartition(g, bip)
        ones, zeros = bip.parts()
        assert len(ones) + len(zeros) == g.n


def test_bipartition_validation():
    with pytest.raises(ValueError):
        Bipartition((0, 2))
    g = Hypergraph(4, 4, ((0, 1, 2, 3),))
    with pytest.raises(ValueError):
        is_odd_bipartition(g, Bipartition((1, 0)))


def test_file_round_trip(tmp_path):
    for g in corpus_graphs()[:8]:
        path = tmp_path / "g.json"
        hg.save(g, path)
        assert hg.load(path) == g
        assert hg.dumps(hg.loads(hg.dumps(g))) == hg.dumps(g)
    # the wrap-around edge of a cycle blowup is stored last; files list edges sorted
    g = cycle_blowup(3, 4)
    back = hg.loads(hg.dumps(g))
    assert back.edges == tuple(sorted(g.edges))
    # equality and hashing go by the edge set, not the stored order
    assert back == g and hash(back) == hash(g)
    assert back != Hypergraph(g.n + 1, g.k, g.edges)


def test_file_validation_rejects_malformed():
    good = hg.dumps(Hypergraph(4, 4, ((0, 1, 2, 3),)))
    with pytest.raises(ValueError):
        hg.loads(good.replace("hypergraph/1", "hypergraph/2"))
    with pytest.raises(ValueError):
        hg.loads('{"format": "hypergraph/1", "k": 4, "n": 4}')
    with pytest.raises(ValueError):
        hg.loads(good.replace('"n": 4', '"n": 4, "extra": 1'))
    with pytest.raises(ValueError):
        hg.loads('{"format": "hypergraph/1", "k": 4, "n": 4, "edges": [[3, 2, 1, 0]]}')
    with pytest.raises(ValueError):
        hg.loads('{"format": "hypergraph/1", "k": 4, "n": 4, "edges": [[0, 1, 2, "3"]]}')
    with pytest.raises(ValueError):
        hg.loads('{"format": "hypergraph/1", "k": 2, "n": 3, "edges": [[1, 2], [0, 1]]}')
    with pytest.raises(ValueError):
        hg.loads(good.replace('"n": 4', '"n": true'))
    with pytest.raises(ValueError):
        hg.loads('{"format": "hypergraph/1", "k": 2, "n": 2, "edges": [[false, true]]}')
