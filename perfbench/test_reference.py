"""Known answers for the benchmark's reference code.

    python3 -m pytest perfbench/test_reference.py
"""

import math

import numpy as np
import pytest

import reference as ref


def cycle_blowup(length):
    return 2 * length, [(2 * i, 2 * i + 1, 2 * j, 2 * j + 1) for i, j in ((i, (i + 1) % length) for i in range(length))]


def test_single_edge_least_eigenpair():
    edges = ref.as_edges([(0, 1, 2, 3)])
    assert ref.residual(4, edges, -1.0, np.array([1.0, 1.0, 1.0, -1.0])) == 0.0
    assert ref.residual(4, edges, -0.9, np.array([1.0, 1.0, 1.0, -1.0])) > 0.01
    lo, hi = ref.rho_bracket(4, edges)
    assert lo <= 1.0 <= hi and hi - lo < 1e-9
    assert ref.odd_bipartite(4, [(0, 1, 2, 3)])


@pytest.mark.parametrize("m", [1, 3, 7, 40])
def test_hyperstar_is_odd_bipartite_with_rho_the_fourth_root_of_m(m):
    n, edges = ref.hyperstar_edges(m, 4)
    lo, hi = ref.rho_bracket(n, ref.as_edges(edges))
    assert abs(hi - m**0.25) < 1e-9 and abs(lo - m**0.25) < 1e-9
    assert ref.odd_bipartite(n, edges)


def test_c5_blowup_eigenpair_from_the_graph_eigenvector():
    """lambda_min of the C5 blowup is lambda_min(C5) = -(1 + sqrt 5)/2, with
    eigenvector x_{2v} = sqrt|y_v|, x_{2v+1} = sign(y_v) sqrt|y_v|."""
    pairs = [(i, (i + 1) % 5) for i in range(5)]
    lam = ref.graph_least_eigenvalue(5, pairs)
    assert abs(lam + (1 + math.sqrt(5)) / 2) < 1e-12
    a = np.zeros((5, 5))
    for u, v in pairs:
        a[u, v] = a[v, u] = 1.0
    y = np.linalg.eigh(a)[1][:, 0]
    x = np.empty(10)
    x[0::2] = np.sqrt(np.abs(y))
    x[1::2] = np.sign(y) * np.sqrt(np.abs(y))
    n, edges = cycle_blowup(5)
    assert ref.residual(n, ref.as_edges(edges), lam, x) < 1e-12
    assert not ref.odd_bipartite(n, edges)


def test_even_cycle_blowup_is_odd_bipartite():
    n, edges = cycle_blowup(6)
    assert ref.odd_bipartite(n, edges)
    lo, hi = ref.rho_bracket(n, ref.as_edges(edges))
    assert abs(hi - 2.0) < 1e-9 and abs(ref.graph_least_eigenvalue(6, [(i, (i + 1) % 6) for i in range(6)]) + 2.0) < 1e-12


def test_tree_counts_for_k2():
    counts = [len(ref.pendant_growth_classes(2, [(0, 1)], 2, r)) for r in range(5)]
    assert counts == [1, 1, 2, 3, 6]


def test_hypertree_counts_for_k4():
    assert [len(ref.pendant_growth_classes(4, [(0, 1, 2, 3)], 4, r)) for r in range(4)] == [1, 1, 2, 4]


def test_vf2_isomorphism_on_incidence_graphs():
    n, star = ref.hyperstar_edges(3, 4)
    perm = np.random.default_rng(0).permutation(n)
    relabelled = [tuple(sorted(int(perm[v]) for v in e)) for e in star]
    assert ref.isomorphic((n, star), (n, relabelled))
    path = [(0, 1, 2, 3), (3, 4, 5, 6), (6, 7, 8, 9)]
    assert not ref.isomorphic((n, star), (10, path))
    classes = ref.IsoClasses()
    assert classes.add(n, star) and not classes.add(n, relabelled) and classes.add(10, path)


def test_glued_hyperstar_on_an_edge_is_a_hypertree_of_the_family():
    n, edges = ref.glue_hyperstar(4, [(0, 1, 2, 3)], 2, 2, 4)
    assert (n, len(edges)) == (10, 3)
    assert ref.isomorphic((n, edges), ref.hyperstar_edges(3, 4))
