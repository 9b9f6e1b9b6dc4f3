"""Eigensolver tests: hand-computed values, closed forms, dual-route checks."""

import numpy as np
import pytest

from heigen import (
    EigenResult,
    Hypergraph,
    SolverConfig,
    UnsupportedUniformityError,
    brute_force_min,
    branch_contribution,
    coalesce,
    complete_hypergraph,
    cycle_blowup,
    hyperstar,
    kth_power_of_graph,
    knorm,
    least_h_eigenvalue,
    rayleigh,
    relocate,
    residual,
    spectral_radius,
    tensor_apply,
    transport_vector,
)
from heigen.analysis import random_connected_hypergraph
from heigen.constructions import RootedHypergraph
from heigen.hypergraph import induced_subhypergraph
from heigen import spectral
from heigen.spectral import _ipow, _Kernel

from corpus import corpus_graphs

FAST = SolverConfig(restarts=8, seed=0)


def single_edge(k=4):
    return Hypergraph(k, k, (tuple(range(k)),))


def test_tensor_apply_hand_values():
    g = single_edge(4)
    out = tensor_apply(g, [1.0, 2.0, 2.0, 2.0])
    assert np.allclose(out, [8.0, 4.0, 4.0, 4.0])
    s = hyperstar(2, 4).graph
    x = np.arange(1.0, 8.0)
    at_center = 2.0 * 3.0 * 4.0 + 5.0 * 6.0 * 7.0
    assert np.isclose(tensor_apply(s, x)[0], at_center)
    assert np.isclose(tensor_apply(s, x)[3], 1.0 * 2.0 * 3.0)
    empty = tensor_apply(Hypergraph(3, 2, ()), [1.0, 2.0, 3.0])
    assert empty.dtype == np.float64 and not empty.any()


def loop_apply(g, x):
    """Per-edge Python-loop reference for tensor_apply."""
    out = [0.0] * g.n
    for e in g.edges:
        for v in e:
            p = 1.0
            for u in e:
                if u != v:
                    p *= x[u]
            out[v] += p
    return np.array(out)


@pytest.mark.parametrize("k", [2, 4, 6])
def test_batched_kernel_matches_loop_reference(k):
    """Each row of the batched contraction equals the one-vector functions,
    and both equal the per-edge loop within rounding."""
    rng = np.random.default_rng(k)
    for _ in range(5):
        g = random_connected_hypergraph(rng, int(rng.integers(k + 2, 16)), int(rng.integers(0, 4)), k)
        xs = rng.normal(size=(6, g.n))
        kernel = _Kernel(g, len(xs))
        applied, forms = kernel.apply(xs), kernel.form(xs)
        for x, row, f in zip(xs, applied, forms):
            assert np.array_equal(row, tensor_apply(g, x))
            assert f == rayleigh(g, x)
            scale = loop_apply(g, np.abs(x))  # bounds every sum's rounding
            assert np.all(np.abs(row - loop_apply(g, x)) <= 1e-13 * scale)
            assert abs(f - loop_apply(g, x) @ x) <= 1e-13 * (scale @ np.abs(x))


@pytest.mark.parametrize("p", [1, 2, 3, 4, 5, 6])
def test_integer_power_matches_pow(p):
    x = np.random.default_rng(p).uniform(-2.0, 2.0, 1000)
    assert np.all(np.abs(_ipow(x, p) - x**p) <= 1e-14 * np.abs(x**p))


def test_rayleigh_and_residual_hand_values():
    g = single_edge(4)
    x = [1.0, 2.0, 2.0, 2.0]
    assert np.isclose(rayleigh(g, x), 4 * 8.0)
    assert np.isclose(residual(g, 1.0, x), 7.0)
    # exact eigenpair of a single edge: one sign flipped, eigenvalue -1
    t = 4.0 ** -0.25
    y = t * np.array([-1.0, 1.0, 1.0, 1.0])
    assert residual(g, -1.0, y) < 1e-15
    assert np.isclose(rayleigh(g, y), -1.0)


def test_vector_validation():
    g = single_edge(4)
    with pytest.raises(ValueError):
        tensor_apply(g, [1.0, 2.0])
    with pytest.raises(ValueError):
        rayleigh(g, [1.0, np.nan, 0.0, 0.0])
    with pytest.raises(ValueError):
        residual(g, 0.0, np.ones((2, 2)))


def test_knorm():
    assert np.isclose(knorm(np.array([1.0, 2.0, 2.0, 2.0]), 4), 49.0 ** 0.25)
    assert np.isclose(knorm(np.array([3.0, -4.0]), 2), 5.0)


def test_rayleigh_scale_and_sign_symmetry():
    rng = np.random.default_rng(3)
    for g in corpus_graphs():
        if g.m == 0 or g.k % 2:
            continue
        x = rng.normal(size=g.n)
        f = rayleigh(g, x)
        t = 1.7
        assert abs(rayleigh(g, t * x) - t**g.k * f) <= 1e-10 * max(1.0, abs(f) * t**g.k)
        assert np.isclose(rayleigh(g, -x), f)


def test_gradient_matches_finite_differences():
    """d rayleigh / dx equals k * tensor_apply, checked by central differences."""
    rng = np.random.default_rng(9)
    g = kth_power_of_graph([(0, 1), (1, 2), (1, 3)], 4)
    x = rng.uniform(0.2, 1.0, g.n) * rng.choice([-1.0, 1.0], g.n)
    grad = g.k * tensor_apply(g, x)
    h = 1e-5
    for v in range(g.n):
        e = np.zeros(g.n)
        e[v] = h
        fd = (rayleigh(g, x + e) - rayleigh(g, x - e)) / (2 * h)
        assert abs(fd - grad[v]) <= 1e-5 * max(1.0, abs(grad[v]))


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(restarts=0)
    with pytest.raises(ValueError):
        SolverConfig(max_iters=-1)
    d = SolverConfig().to_json_dict()
    assert d["restarts"] == 32


def test_eigen_result_invariants():
    for g in (single_edge(4), hyperstar(3, 4).graph, complete_hypergraph(5, 4)):
        res = least_h_eigenvalue(g, FAST)
        assert isinstance(res, EigenResult)
        assert res.converged
        assert abs(knorm(res.vector, g.k) - 1.0) <= 1e-12
        assert abs(residual(g, res.eigenvalue, res.vector) - res.residual) <= 1e-12
        assert res.residual <= 1e-8
        d = res.to_json_dict()
        assert "lambda" in d and np.isclose(d["lambda"], res.eigenvalue)
        assert len(d["vector"]) == g.n
        assert d["iterations"] == res.iterations and 1 <= res.iterations <= FAST.max_iters


def test_single_edge_closed_form():
    for k in (2, 4, 6):
        res = least_h_eigenvalue(single_edge(k), FAST)
        assert abs(res.eigenvalue + 1.0) <= 1e-9


def test_hyperstar_closed_form():
    for m in range(1, 6):
        res = least_h_eigenvalue(hyperstar(m, 4).graph, FAST)
        assert abs(res.eigenvalue + m**0.25) <= 1e-8
    res = least_h_eigenvalue(hyperstar(4, 2).graph, FAST)
    assert abs(res.eigenvalue + 2.0) <= 1e-9


def test_descent_stops_once_certified():
    res = least_h_eigenvalue(hyperstar(3, 4).graph, FAST)
    assert res.iterations < FAST.max_iters
    assert res.residual <= spectral.CERTIFY_TOLERANCE
    assert abs(res.eigenvalue + 3**0.25) <= 1e-12


def test_uncertified_descent_runs_to_the_cap():
    # K_{1,4}: the polished residual stalls near 2.4e-8, above the certify level
    res = least_h_eigenvalue(hyperstar(4, 2).graph, FAST)
    assert res.residual > spectral.CERTIFY_TOLERANCE
    assert res.iterations == FAST.max_iters


def test_certified_stop_keeps_the_eigenvalue(monkeypatch):
    graphs = [g for g in corpus_graphs() if g.m and g.k % 2 == 0]
    stopped = [least_h_eigenvalue(g, FAST) for g in graphs]
    monkeypatch.setattr(spectral, "FIRST_CHECK", FAST.max_iters + 1)
    for g, early in zip(graphs, stopped):
        full = least_h_eigenvalue(g, FAST)
        assert early.iterations <= full.iterations
        assert abs(early.eigenvalue - full.eigenvalue) <= 1e-12
        assert early.converged == full.converged


def test_solver_agrees_with_brute_force():
    for g in (hyperstar(2, 4).graph, hyperstar(3, 4).graph,
              kth_power_of_graph([(0, 1), (1, 2)], 4),
              complete_hypergraph(5, 4)):
        a = least_h_eigenvalue(g, FAST).eigenvalue
        b = brute_force_min(g, samples=128).eigenvalue
        assert abs(a - b) <= 1e-8


def test_odd_uniformity_rejected():
    with pytest.raises(UnsupportedUniformityError):
        least_h_eigenvalue(single_edge(3))
    with pytest.raises(UnsupportedUniformityError):
        brute_force_min(single_edge(5))
    with pytest.raises(UnsupportedUniformityError):
        spectral_radius(single_edge(3))


def test_edgeless_rejected():
    with pytest.raises(ValueError):
        least_h_eigenvalue(Hypergraph(4, 4, ()))


def test_brute_force_size_cap():
    with pytest.raises(ValueError):
        brute_force_min(complete_hypergraph(17, 4))


def test_least_is_below_random_rayleigh():
    rng = np.random.default_rng(21)
    g = cycle_blowup(4, 4)
    lam = least_h_eigenvalue(g, FAST).eigenvalue
    for _ in range(20):
        x = rng.normal(size=g.n)
        x /= knorm(x, g.k)
        assert lam <= rayleigh(g, x) + 1e-9


def test_induced_subgraph_bound():
    """Zero-extending a subgraph minimizer shows lambda_min only drops."""
    g = complete_hypergraph(6, 4)
    lam = least_h_eigenvalue(g, FAST).eigenvalue
    sub, _ = induced_subhypergraph(g, range(5))
    lam_sub = least_h_eigenvalue(sub, FAST).eigenvalue
    assert lam <= lam_sub + 1e-8
    assert lam <= -1.0 + 1e-8


def test_cooccurring_twins_share_magnitude():
    g = cycle_blowup(3, 4)
    res = least_h_eigenvalue(g, FAST)
    assert abs(res.eigenvalue) > 1e-6
    x = res.vector
    # blowup blocks {0,1}, {2,3}, {4,5} always appear together
    for u, v in ((0, 1), (2, 3), (4, 5)):
        assert abs(abs(x[u]) ** 4 - abs(x[v]) ** 4) <= 1e-8


def test_odd_bipartite_identity_spot_check():
    g = kth_power_of_graph([(0, 1), (1, 2), (2, 3)], 4)
    lam = least_h_eigenvalue(g, FAST).eigenvalue
    rho = spectral_radius(g).eigenvalue
    assert abs(lam + rho) <= 1e-8


def test_spectral_radius_closed_forms():
    r = spectral_radius(single_edge(4))
    assert abs(r.eigenvalue - 1.0) <= 1e-10
    assert 1 <= r.iterations <= SolverConfig().max_iters
    assert abs(spectral_radius(single_edge(2)).eigenvalue - 1.0) <= 1e-10
    for m in (2, 3, 5):
        r = spectral_radius(hyperstar(m, 4).graph)
        assert abs(r.eigenvalue - m**0.25) <= 1e-9
        assert np.all(r.vector > 0)
    # complete graph: the uniform vector is the positive eigenvector
    g = complete_hypergraph(5, 4)
    r = spectral_radius(g)
    assert abs(r.eigenvalue - 4.0) <= 1e-9
    u = np.full(5, 5.0 ** -0.25)
    assert residual(g, 4.0, u) <= 1e-12


def slow_power_iteration(g, max_iters=20000):
    """Independent route to the spectral radius: plain-python shifted iteration.

    The min/max ratios bracket the shifted radius from below and above, so the
    midpoint at the stopping width is a certified estimate.
    """
    x = [1.0] * g.n
    shift = 1.0 + max(g.degree(v) for v in range(g.n))
    hi = lo = 0.0
    for _ in range(max_iters):
        ax = loop_apply(g, x)
        y = [shift * xv ** (g.k - 1) + av for xv, av in zip(x, ax)]
        ratios = [y[i] / x[i] ** (g.k - 1) for i in range(g.n)]
        hi, lo = max(ratios), min(ratios)
        if hi - lo < 1e-9:
            break
        x = [yv ** (1.0 / (g.k - 1)) for yv in y]
        nrm = sum(xv**g.k for xv in x) ** (1.0 / g.k)
        x = [xv / nrm for xv in x]
    return (hi + lo) / 2.0 - shift


def test_spectral_radius_matches_independent_iteration():
    g = kth_power_of_graph([(0, 1), (1, 2), (1, 3), (3, 4)], 4)
    assert abs(spectral_radius(g).eigenvalue - slow_power_iteration(g)) <= 1e-7


def test_spectral_radius_requires_connected():
    with pytest.raises(ValueError):
        spectral_radius(Hypergraph(8, 4, ((0, 1, 2, 3), (4, 5, 6, 7))))


def test_branch_contribution_hand_value():
    g = Hypergraph(7, 4, ((0, 1, 2, 3), (0, 4, 5, 6)))
    x = np.array([1.0, 0.5, 0.5, 0.5, 2.0, 1.0, 1.0])
    assert np.isclose(branch_contribution(g, x, [(0, 4, 5, 6)], 0), 2.0)
    assert np.isclose(branch_contribution(g, x, g.edges, 0), 2.125)
    with pytest.raises(ValueError):
        branch_contribution(g, x, [(0, 1, 2, 4)], 0)
    with pytest.raises(ValueError):
        branch_contribution(g, x, [(0, 1, 2, 3)], 5)


def test_branch_contribution_nonpositive_at_optimum():
    merged = coalesce(RootedHypergraph(complete_hypergraph(5, 4), 0), hyperstar(2, 4))
    res = least_h_eigenvalue(merged.graph, FAST)
    edges = [merged.graph.edges[j] for j in merged.branch_edges]
    val = branch_contribution(merged.graph, res.vector, edges, merged.root)
    assert val <= 1e-9


def _sample_relocation():
    host = kth_power_of_graph([(0, 1), (1, 2), (2, 3)], 4)
    return relocate(host, 0, 9, hyperstar(1, 4))


def test_transport_identity_when_values_match():
    relo = _sample_relocation()
    x = np.full(relo.before.n, 0.5)
    out = transport_vector(x, relo)
    assert out.case == "positive"
    assert np.isclose(out.scale, 1.0)
    assert np.allclose(out.vector, x)


def test_transport_zero_case_copies():
    relo = _sample_relocation()
    x = np.linspace(0.2, 1.0, relo.before.n)
    x[relo.v2] = 0.0
    out = transport_vector(x, relo, case="zero")
    assert out.scale == 1.0
    assert np.allclose(out.vector, x)
    assert np.isclose(knorm(out.vector, 4), knorm(x, 4))


def test_transport_positive_scales_branch():
    relo = _sample_relocation()
    rng = np.random.default_rng(8)
    x = rng.uniform(0.1, 0.4, relo.before.n)
    x[relo.v1] = 0.9
    out = transport_vector(x, relo, case="positive")
    s = x[relo.v1] / x[relo.v2]
    assert np.isclose(out.scale, s)
    branch = list(relo.branch_vertices)
    assert np.allclose(out.vector[branch], s * x[branch])
    host = [v for v in range(relo.before.n) if v not in set(branch)]
    assert np.allclose(out.vector[host], x[host])


def test_transport_negative_case():
    relo = _sample_relocation()
    x = np.full(relo.before.n, 0.5)
    x[relo.v2] = -0.25
    out = transport_vector(x, relo)
    assert out.case == "negative"
    assert out.scale > 0
    branch = list(relo.branch_vertices)
    assert np.allclose(out.vector[branch], -out.scale * x[branch])


def test_transport_flips_to_nonnegative_pivot():
    relo = _sample_relocation()
    x = np.full(relo.before.n, -0.5)
    out = transport_vector(x, relo)
    assert out.vector[relo.v1] >= 0.0


def test_transport_errors():
    relo = _sample_relocation()
    x = np.full(relo.before.n, 0.5)
    x[relo.v1] = 0.1
    with pytest.raises(ValueError):
        transport_vector(x, relo)
    y = np.full(relo.before.n, 0.5)
    with pytest.raises(ValueError):
        transport_vector(y, relo, case="zero")
    with pytest.raises(ValueError):
        transport_vector(y, relo, case="sideways")


def test_transport_reports_host_contribution():
    relo = _sample_relocation()
    x = np.full(relo.before.n, 0.5)
    out = transport_vector(x, relo)
    expect = sum(
        float(np.prod(x[list(e)])) for e in relo.host_root_edges_before()
    )
    assert np.isclose(out.host_contribution, expect)
