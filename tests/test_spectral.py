"""Eigensolver tests: hand-computed values, closed forms, dual-route checks."""

import itertools
from dataclasses import asdict

import numpy as np
import pytest

from heigen import (
    EigenResult,
    Hypergraph,
    SolverConfig,
    UnsupportedUniformityError,
    blowup_power,
    brute_force_min,
    branch_contribution,
    coalesce,
    complete_hypergraph,
    cycle_blowup,
    enumerate_family,
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
from heigen.analysis import _grow_family, enumerate_hypertrees, random_connected_hypergraph
from heigen.constructions import RootedHypergraph
from heigen.hypergraph import induced_subhypergraph, is_connected
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
    and both equal the per-edge loop within rounding.  One kernel of 32
    rows serves batches of 1, 6 and 32 rows in turn, each on the index
    ``kernel.index`` builds for it, so the kernel's buffers serve batches
    of every size in any order.  A kernel over three graphs of one shape
    then serves batches whose owner runs skip a graph or hold one row, and
    each row equals the one-vector functions of its own graph."""
    rng = np.random.default_rng(k)
    for _ in range(5):
        g = random_connected_hypergraph(rng, int(rng.integers(k + 2, 16)), int(rng.integers(0, 4)), k)
        xs = rng.normal(size=(32, g.n))
        kernel = _Kernel(g, len(xs))
        for rows in (32, 6, 1, 6, 32, 1):
            batch, index = xs[:rows], kernel.index(np.zeros(rows, dtype=np.intp))
            forms_before, applied, forms = kernel.form(batch, index), kernel.apply(batch, index), kernel.form(batch, index)
            assert np.array_equal(forms_before, forms)
            for x, row, f in zip(batch, applied, forms):
                assert np.array_equal(row, tensor_apply(g, x))
                assert f == rayleigh(g, x)
        index = kernel.index(np.zeros(6, dtype=np.intp))
        for x, row, f in zip(xs[:6], kernel.apply(xs[:6], index), kernel.form(xs[:6], index)):
            scale = loop_apply(g, np.abs(x))  # bounds every sum's rounding
            assert np.all(np.abs(row - loop_apply(g, x)) <= 1e-13 * scale)
            assert abs(f - loop_apply(g, x) @ x) <= 1e-13 * (scale @ np.abs(x))
    graphs = enumerate_family(cycle_blowup(3, k), 2)[:3]
    xs = rng.normal(size=(12, graphs[0].n))
    kernel = _Kernel(graphs, len(xs))
    for runs in ([(0, 5), (2, 7)], [(0, 2), (1, 1), (2, 3)], [(2, 1)], [(2, 3), (0, 9)], [(0, 5), (2, 7)]):
        owner = np.repeat(*zip(*runs))
        batch, index = xs[: len(owner)], kernel.index(owner)
        # the apply between the two forms reuses the gather buffer
        forms_before, applied, forms = kernel.form(batch, index), kernel.apply(batch, index), kernel.form(batch, index)
        assert np.array_equal(forms_before, forms)
        for x, j, row, f in zip(batch, owner, applied, forms):
            assert np.array_equal(row, tensor_apply(graphs[j], x))
            assert f == rayleigh(graphs[j], x)


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
    with pytest.raises(ValueError):
        brute_force_min(single_edge(4), refine_iters=0)
    d = asdict(SolverConfig())
    assert d["restarts"] == 32
    assert set(d) == {"restarts", "max_iters", "seed"}


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
    res = least_h_eigenvalue(hyperstar(3, 4).graph, FAST, method="descent")
    assert res.iterations < FAST.max_iters
    assert res.residual <= spectral.CERTIFY_TOLERANCE
    assert abs(res.eigenvalue + 3**0.25) <= 1e-12


def test_descent_certifies_k14():
    # K_{1,4}: a descent that stalls near residual 2.4e-8, above the Newton
    # band, runs to the cap uncertified
    res = least_h_eigenvalue(hyperstar(4, 2).graph, FAST, method="descent")
    assert res.residual <= spectral.CERTIFY_TOLERANCE
    assert abs(res.eigenvalue + 2.0) <= 1e-12


def test_uncertified_descent_runs_to_the_cap():
    # the odd cycle blowup of length 101 is still short of its minimum at the cap
    res = least_h_eigenvalue(cycle_blowup(101, 4), FAST, method="descent")
    assert res.residual > spectral.CERTIFY_TOLERANCE
    assert res.iterations == FAST.max_iters


@pytest.fixture
def two_check_rule(monkeypatch):
    """Descent without the curvature stop: a group stops only when two
    certified checks in a row agree, as it did before that stop."""
    monkeypatch.setattr(spectral, "_tangent_curvature", lambda kernel, lam, x: -np.inf)


@pytest.mark.parametrize(
    "graph, cfg, lam_hex, res_hex, iterations, converged",
    [
        # rows freeze at iterations 12, 13, 16 and 17
        pytest.param(lambda: complete_hypergraph(5, 4), FAST,
                     "-0x1.40c506b1753cap+1", "0x1.0000000000000p-52", 17, True, id="K5^4"),
        # a member of Tm:cycle:3:4,m=2; rows freeze from iteration 62 on
        pytest.param(lambda: Hypergraph(12, 4, ((0, 1, 2, 3), (2, 3, 4, 5), (0, 1, 4, 5), (0, 6, 7, 8), (0, 9, 10, 11))),
                     FAST, "-0x1.598f09454f5b0p+0", "0x1.0000000000000p-52", 100, True, id="Tm-member"),
        # runs to the iteration cap, backtracking on most iterations
        pytest.param(lambda: cycle_blowup(101, 4), FAST,
                     "-0x1.ffae347b3cba4p+0", "0x1.140bfdc9ca200p-17", 2000, False, id="cycle-blowup-101"),
        # at iteration 1833 one of 28 live rows fails all 60 trial steps
        pytest.param(lambda: blowup_power([(i, i + 1) for i in range(49)], 4), SolverConfig(),
                     "-0x1.ff076645e89f9p+0", "0x1.4000000000000p-54", 2000, True, id="path-blowup-50"),
    ],
)
def test_descent_results_are_pinned(two_check_rule, graph, cfg, lam_hex, res_hex, iterations, converged):
    """Descent results pinned bit for bit: compacting the live rows and
    stacking the backtracking halvings must leave every row's trajectory
    unchanged, through freezes and the 60-trial cap."""
    res = least_h_eigenvalue(graph(), cfg, method="descent")
    assert (res.eigenvalue.hex(), res.residual.hex()) == (lam_hex, res_hex)
    assert (res.iterations, res.converged) == (iterations, converged)


def test_descent_stops_at_its_first_certified_minimum(monkeypatch):
    """The Tm-member's check at 25 does not certify; the one at 50 does, with
    positive tangent curvature, and ends the descent there (at 100 under
    the two-check rule).  Above ``CURVATURE_MAX_N`` no curvature is
    computed and the two-check rule alone stops it."""
    curvatures = []
    real = spectral._tangent_curvature
    monkeypatch.setattr(spectral, "_tangent_curvature", lambda *args: curvatures.append(real(*args)) or curvatures[-1])
    g = Hypergraph(12, 4, ((0, 1, 2, 3), (2, 3, 4, 5), (0, 1, 4, 5), (0, 6, 7, 8), (0, 9, 10, 11)))
    res = least_h_eigenvalue(g, FAST, method="descent")
    assert (res.eigenvalue.hex(), res.residual.hex()) == ("-0x1.598f09454f5b0p+0", "0x1.0000000000000p-52")
    assert (res.iterations, res.converged) == (50, True)
    assert len(curvatures) == 1 and curvatures[0] > 0.1
    monkeypatch.setattr(spectral, "CURVATURE_MAX_N", g.n - 1)
    assert least_h_eigenvalue(g, FAST, method="descent").iterations == 100 and len(curvatures) == 1


def test_flat_tangent_curvature_keeps_the_two_check_rule():
    """With five restarts (seed 3) on this member of Tm:complete:5:4,m=3,
    the check at 25 certifies lambda = -2.5171075 with tangent curvature
    1e-17, a flat direction, 1.1e-4 above the least eigenvalue the restarts
    reach by 50; a test for nonnegative curvature stopped there."""
    g = Hypergraph(14, 4, ((0, 1, 2, 3), (0, 1, 2, 4), (0, 1, 3, 4), (0, 2, 3, 4), (1, 2, 3, 4),
                           (0, 5, 6, 7), (5, 8, 9, 10), (6, 11, 12, 13)))
    res = least_h_eigenvalue(g, SolverConfig(restarts=5, max_iters=300, seed=3), method="descent")
    assert abs(res.eigenvalue + 2.517390279281178) <= 1e-12 and res.converged
    assert res.iterations == 50


def _bits(r):
    return (r.eigenvalue.hex(), r.residual.hex(), r.iterations, r.converged, r.vector.tobytes())


@pytest.mark.parametrize(
    "restarts, max_iters, iterations",
    [
        # groups certify at the checks at 50 and 400, and freeze at 64 and 86
        (1, 2000, (64, 50, 86, 50, 50, 400, 64, 50)),
        (2, 300, (67, 50, 86, 50, 50, 300, 74, 50)),
        (32, 2000, (100, 50, 50, 50, 50, 400, 100, 50)),
        (33, 26, (26,) * 8),
        (32, 25, (25,) * 8),
        (33, 2, (2,) * 8),
        (1, 1, (1,) * 8),
        # the cap falls on a check while other groups have left earlier
        (32, 400, (100, 50, 50, 50, 50, 400, 100, 50)),
        (1, 100, (64, 50, 86, 50, 50, 100, 64, 50)),
    ],
)
def test_grouped_descent_matches_lone_solves(two_check_rule, restarts, max_iters, iterations):
    """Each member of Tm:cycle:3:4,m=2 and an oracle on its own graph run as
    start groups of one descent; every group ends with the bits of its lone
    solve, whether it certifies, freezes or reaches the cap."""
    cfg = SolverConfig(restarts=restarts, max_iters=max_iters)
    family = enumerate_family(cycle_blowup(3, 4), 2)
    jobs = []
    for g in family:
        jobs += [(g, spectral._restart_starts(g, cfg)), (g, spectral._oracle_starts(g, 64, 0))]
    grouped = spectral.descend(jobs, max_iters)
    lone = []
    for g in family:
        lone += [least_h_eigenvalue(g, cfg, method="descent"), brute_force_min(g, 64, max_iters, 0)]
    assert [_bits(r) for r in grouped] == [_bits(r) for r in lone]
    assert tuple(r.iterations for r in grouped) == iterations


@pytest.mark.parametrize(
    "restarts, max_iters, iterations",
    [
        # groups stop at their first certified check, at 25 or 50, or freeze
        # at 64 and 74; on the third member, whose least eigenvector is zero
        # on two vertices, the curvature is zero and the two-check rule
        # stops both groups (at 50 and 400)
        (1, 2000, (50, 25, 50, 25, 50, 400, 64, 25)),
        (2, 300, (50, 25, 50, 25, 50, 300, 74, 25)),
        (32, 2000, (50, 25, 25, 25, 50, 400, 50, 25)),
        (33, 26, (26, 25, 25, 25, 26, 26, 26, 25)),
        (32, 400, (50, 25, 25, 25, 50, 400, 50, 25)),
        (1, 100, (50, 25, 50, 25, 50, 100, 64, 25)),
    ],
)
def test_grouped_descent_matches_lone_solves_at_the_curvature_stop(restarts, max_iters, iterations):
    """As above, with groups that stop at their first certified check on
    their tangent curvature."""
    test_grouped_descent_matches_lone_solves(None, restarts, max_iters, iterations)


def test_grouped_descent_group_that_runs_out_of_trials(two_check_rule):
    """On the path blowup with 50 classes, start 16 of the default seed
    fails all 60 trial steps at iteration 1833.  Alone in its group it ends
    there; among the 32 default starts its group runs to the cap."""
    g = blowup_power([(i, i + 1) for i in range(49)], 4)
    cfg = SolverConfig()
    starts = spectral._restart_starts(g, cfg)
    grouped = spectral.descend([(g, starts[16:17]), (g, starts)], cfg.max_iters)
    lone = [spectral.descend([(g, starts[16:17])], cfg.max_iters)[0], least_h_eigenvalue(g, cfg, method="descent")]
    assert [_bits(r) for r in grouped] == [_bits(r) for r in lone]
    assert [r.iterations for r in grouped] == [1833, 2000]


def test_grouped_descent_write_back_leaves_other_groups_alone():
    """The one-row group ``near`` on K5^4 runs out of trials at iteration
    1, and its point is written back while the other group's rows still
    need their iteration-1 points for their iteration-2 BB steps.  Each
    group ends with the bits of its lone descent: 19 iterations for the
    restart group, not the 14 it took when the write-back reached its last
    points."""
    g = complete_hypergraph(5, 4)
    near = np.array([[float.fromhex(h) for h in (
        "-0x1.807e1dade1f8fp-1", "0x1.48fffac564fb2p-1", "0x1.48fffac4d25c0p-1",
        "0x1.48fffab7ba212p-1", "0x1.48fffabd0f0ccp-1",
    )]])
    starts = spectral._restart_starts(g, SolverConfig(restarts=4, seed=6))
    grouped = spectral.descend([(g, near), (g, starts)], 2000)
    lone = [spectral.descend([(g, near)], 2000)[0], spectral.descend([(g, starts)], 2000)[0]]
    assert [_bits(r) for r in grouped] == [_bits(r) for r in lone]
    assert grouped[1].iterations == 19


def random_graph_pairs(seed, n, extra):
    """A recursive random spanning tree plus ``extra`` distinct random chords."""
    rng = np.random.default_rng(seed)
    pairs = {(int(rng.integers(i)), i) for i in range(1, n)}
    while len(pairs) < n - 1 + extra:
        pairs.add(tuple(sorted(int(v) for v in rng.choice(n, 2, replace=False))))
    return sorted(pairs)


def test_graph_blowup_certifies_the_least_eigenvalue():
    # no odd bipartition, so this takes descent; a stalled descent stops at
    # the cap, here up to 4.6e-4 above the minimum
    pairs = random_graph_pairs(1, 30, 15)
    a = np.zeros((30, 30))
    for u, v in pairs:
        a[u, v] = a[v, u] = 1.0
    res = least_h_eigenvalue(blowup_power(pairs, 4))
    assert res.method == "descent" and res.converged
    assert res.residual <= spectral.CERTIFY_TOLERANCE
    assert abs(res.eigenvalue - np.linalg.eigvalsh(a)[0]) <= 1e-10


def test_unconverged_or_right_on_a_long_odd_cycle():
    """A result marked converged must be the least eigenvalue; one that
    stops short must say so."""
    res = least_h_eigenvalue(cycle_blowup(101, 4))
    assert not res.converged or abs(res.eigenvalue + 2 * np.cos(np.pi / 101)) <= 1e-6


def test_hessian_apply_matches_finite_differences():
    """M v is the derivative of A x^{k-1} along v, by central differences."""
    rng = np.random.default_rng(3)
    for g in (kth_power_of_graph([(0, 1), (1, 2), (1, 3)], 4), complete_hypergraph(7, 6),
              hyperstar(3, 2).graph):
        kernel = _Kernel(g)
        x = rng.uniform(0.2, 1.0, g.n) * rng.choice([-1.0, 1.0], g.n)
        v = rng.normal(size=g.n)
        h = 1e-5
        fd = (tensor_apply(g, x + h * v) - tensor_apply(g, x - h * v)) / (2 * h)
        mv = kernel.hessian_apply(kernel.pair_products(x), v)
        assert np.max(np.abs(fd - mv)) <= 1e-6 * max(1.0, np.max(np.abs(mv)))


def test_minres_solves_symmetric_indefinite_systems():
    rng = np.random.default_rng(5)
    a = rng.normal(size=(12, 12))
    a = a + a.T
    assert np.linalg.eigvalsh(a)[0] < 0 < np.linalg.eigvalsh(a)[-1]
    b = rng.normal(size=12)
    z = spectral._minres(lambda v: a @ v, b, 2 * len(b))
    assert np.max(np.abs(a @ z - b)) <= 1e-8 * np.max(np.abs(b))


def test_least_ritz_value_matches_eigvalsh():
    """Lanczos with full reorthogonalization over the whole space, then
    Sturm bisection, gives the least eigenvalue of small symmetric
    operators, repeated, clustered or zero ones included."""
    rng = np.random.default_rng(11)
    mats = []
    for n in (1, 2, 3, 8, 20):
        a = rng.normal(size=(n, n))
        mats.append(a + a.T)
    q = np.linalg.qr(rng.normal(size=(9, 9)))[0]
    for spectrum in ([-2.0] * 3 + [1.0] * 3 + [4.0] * 3, [1e-9, 1e-9 + 1e-12] + [3.0] * 7, [-5.0] * 9):
        mats.append((q * spectrum) @ q.T)
    mats.append(np.zeros((4, 4)))
    for a in mats:
        n = len(a)
        alpha, beta = spectral._lanczos(lambda v: (a * v).sum(axis=1), rng.normal(size=n), n)
        least = np.linalg.eigvalsh(a)[0]
        assert abs(spectral._least_ritz_value(alpha, beta) - least) <= 1e-12 * max(1.0, np.abs(a).max())


def test_least_ritz_value_of_the_second_difference():
    # eigenvalues 2 - 2 cos(j pi / (n + 1)), j = 1..n
    for n in (1, 2, 7, 60):
        least = spectral._least_ritz_value([2.0] * n, [-1.0] * (n - 1))
        assert abs(least - (2 - 2 * np.cos(np.pi / (n + 1)))) <= 1e-14


@pytest.mark.parametrize(
    "n, pairs",
    [
        (5, [(0, 1), (1, 2), (2, 3), (3, 4)]),
        (5, [(0, 1), (0, 2), (0, 3), (0, 4)]),
        (5, list(itertools.combinations(range(5), 2))),
        (6, [(i, (i + 1) % 6) for i in range(6)]),
        (7, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5), (5, 3), (5, 6)]),
    ],
    ids=["path-P5", "star-K14", "complete-K5", "cycle-C6", "two-triangles"],
)
def test_tangent_curvature_of_graph_eigenpairs(n, pairs):
    """For k = 2 the tangent operator at an eigenpair (lam_i, x_i) is
    A - lam_i I on the complement of x_i, whose least eigenvalue is
    min over j != i of lam_j - lam_i: negative at every pair but the least.
    The star and K5 have eigenvalues of multiplicity 3 and 4, with
    eigenvectors antisymmetric on swapped vertices, which a start symmetric
    in those vertices would miss."""
    g = Hypergraph(n, 2, tuple(pairs))
    a = np.zeros((n, n))
    for u, v in pairs:
        a[u, v] = a[v, u] = 1.0
    lams, vecs = np.linalg.eigh(a)
    kernel = _Kernel(g)
    for i in range(n):
        curvature = spectral._tangent_curvature(kernel, lams[i], vecs[:, i])
        assert abs(curvature - (np.delete(lams, i).min() - lams[i])) <= 1e-10
        assert (curvature < -1e-6) == (lams[i] > lams[0] + 1e-9)


def test_newton_finish_certifies_stalled_residuals():
    # the T1(C3^4) member: the fixed-point polish alone stalls at 1.4e-12
    # and the descent ran all 2000 iterations
    res = least_h_eigenvalue(enumerate_family(cycle_blowup(3, 4), 1)[0])
    assert res.method == "descent"
    assert res.iterations < SolverConfig().max_iters
    assert res.residual <= spectral.CERTIFY_TOLERANCE
    assert abs(res.eigenvalue + 1.218849872797116) <= 1e-12
    # odd cycle blowups: the polish alone stalls near 4.7e-12
    for length in (10, 12):
        res = least_h_eigenvalue(cycle_blowup(length, 4), method="descent")
        assert res.iterations < SolverConfig().max_iters
        assert res.residual <= spectral.CERTIFY_TOLERANCE
        assert abs(res.eigenvalue + 2.0) <= 1e-12


def test_newton_finish_stops_at_rounding_level(monkeypatch):
    """A pair already at rounding level takes no Newton step: MINRES could
    not meet its tolerance on a right-hand side that small."""
    kernel = _Kernel(single_edge(4))
    x0 = np.array([1.0, 1.0, 1.0, -1.0]) * 4**-0.25
    lam0, _, res0 = spectral._eigen_terms(kernel, x0)
    assert lam0 == pytest.approx(-1.0) and res0 <= 1e-15
    calls = []
    monkeypatch.setattr(spectral, "_minres", lambda *args: calls.append(args))
    lam, x, res = spectral._newton_finish(kernel, lam0, x0, res0)
    assert calls == []
    assert (lam, x, res) == (lam0, x0, res0)


def test_newton_finish_skips_unconverged_candidates(monkeypatch):
    """The finish only tightens pairs already below RESIDUAL_TOLERANCE."""
    calls = []
    finish = spectral._newton_finish

    def counted(*args):
        calls.append(args)
        return finish(*args)

    monkeypatch.setattr(spectral, "_newton_finish", counted)
    res = least_h_eigenvalue(cycle_blowup(101, 4), SolverConfig(max_iters=100))
    assert not res.converged
    assert calls == []


def test_polish_tries_at_most_one_snapped_candidate(monkeypatch):
    """An uncertified check polishes the plain candidate and one snapped at
    ``SNAP``, never more."""
    per_polish = []
    polish, polish_once = spectral._polish, spectral._polish_once

    def counted_polish(*args):
        per_polish.append(0)
        return polish(*args)

    def counted_once(*args):
        per_polish[-1] += 1
        return polish_once(*args)

    monkeypatch.setattr(spectral, "_polish", counted_polish)
    monkeypatch.setattr(spectral, "_polish_once", counted_once)
    res = least_h_eigenvalue(cycle_blowup(101, 4), SolverConfig(max_iters=100), method="descent")
    assert not res.converged
    assert per_polish and max(per_polish) <= 2


def test_method_names_the_solver():
    res = least_h_eigenvalue(hyperstar(3, 4).graph, FAST)
    assert res.method == "power" and res.to_json_dict()["method"] == "power"
    assert least_h_eigenvalue(complete_hypergraph(5, 4), FAST).method == "descent"
    assert least_h_eigenvalue(hyperstar(3, 4).graph, FAST, method="descent").method == "descent"
    assert spectral_radius(hyperstar(3, 4).graph).method == "power"
    with pytest.raises(ValueError):
        least_h_eigenvalue(hyperstar(3, 4).graph, FAST, method="bogus")


def test_odd_bipartite_star_certifies_for_k2():
    # K_{1,4}: descent stalls near residual 2.4e-8; the signed Perron vector does not
    res = least_h_eigenvalue(hyperstar(4, 2).graph, FAST)
    assert res.converged and res.method == "power"
    assert abs(res.eigenvalue + 2.0) <= 1e-12
    assert res.residual <= 1e-12


def test_even_cycle_blowup_is_exact():
    res = least_h_eigenvalue(cycle_blowup(100, 4))
    assert res.converged and res.method == "power"
    assert abs(res.eigenvalue + 2.0) <= 1e-12


def test_tree_blowup_matches_eigvalsh():
    # a recursive random tree: vertex i hangs from a uniform earlier vertex
    rng = np.random.default_rng(0)
    pairs = [(int(rng.integers(i)), i) for i in range(1, 60)]
    a = np.zeros((60, 60))
    for u, v in pairs:
        a[u, v] = a[v, u] = 1.0
    res = least_h_eigenvalue(blowup_power(pairs, 4))
    assert res.converged
    assert abs(res.eigenvalue - np.linalg.eigvalsh(a)[0]) <= 1e-10


def test_fast_path_agrees_with_descent():
    graphs = [g for g in corpus_graphs() if g.m and g.k % 2 == 0]
    graphs += [hyperstar(4, 2).graph, kth_power_of_graph([(0, 1), (1, 2), (1, 3)], 2)]
    for g in graphs:
        auto = least_h_eigenvalue(g)
        descent = least_h_eigenvalue(g, method="descent")
        assert auto.converged >= descent.converged
        # the signed Perron vector is exact, so never above a descent minimum
        assert auto.eigenvalue <= descent.eigenvalue + 1e-12, g
        if descent.residual <= spectral.CERTIFY_TOLERANCE:
            assert abs(auto.eigenvalue - descent.eigenvalue) <= 1e-12, g


def test_certified_stop_keeps_the_eigenvalue(monkeypatch):
    graphs = [g for g in corpus_graphs() if g.m and g.k % 2 == 0]
    stopped = [least_h_eigenvalue(g, FAST, method="descent") for g in graphs]
    monkeypatch.setattr(spectral, "FIRST_CHECK", FAST.max_iters + 1)
    for g, early in zip(graphs, stopped):
        full = least_h_eigenvalue(g, FAST, method="descent")
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
    lam = least_h_eigenvalue(g, FAST, method="descent").eigenvalue
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


def hypertree_50():
    """The 50-edge random hypertree the solve-large benchmark solves: each
    pendant edge attaches at a uniform existing vertex."""
    rng = np.random.default_rng(0)
    n, edges = 4, [(0, 1, 2, 3)]
    for _ in range(49):
        edges.append((int(rng.integers(n)), n, n + 1, n + 2))
        n += 3
    return Hypergraph(n, 4, tuple(edges))


@pytest.mark.parametrize("length, steps", [(100, 15), (200, 16)])
def test_long_path_blowups_certify(length, steps):
    """Power iteration alone crawls on long paths and stopped at the cap;
    the Newton-Noda finish reaches the closed form in a few steps."""
    res = least_h_eigenvalue(blowup_power([(i, i + 1) for i in range(length - 1)], 4))
    assert res.method == "power" and res.converged
    assert res.iterations == steps
    assert abs(res.eigenvalue + 2 * np.cos(np.pi / (length + 1))) <= 1e-12


def test_hyperstar_fast_path_is_pinned():
    """A hyperstar's bracket closes during the power phase, so it never
    hands over and keeps the power iteration's bits."""
    res = least_h_eigenvalue(hyperstar(173, 4).graph)
    assert (res.eigenvalue.hex(), res.iterations) == ("-0x1.d037ad2bf9894p+1", 11)


def test_newton_noda_runs_only_once_power_iteration_stalls(monkeypatch):
    calls = []
    real = spectral._newton_noda

    def counted(kernel, x, iterations, max_iters):
        calls.append(iterations)
        return real(kernel, x, iterations, max_iters)

    monkeypatch.setattr(spectral, "_newton_noda", counted)
    for m in (5, 173, 300):
        assert least_h_eigenvalue(hyperstar(m, 4).graph).converged
    assert calls == []
    res = least_h_eigenvalue(hypertree_50())
    assert len(calls) == 1 and res.converged
    # 22 power steps and 8 Newton-Noda steps; power steps alone took 705
    assert (calls[0], res.iterations) == (22, 30)


def test_failed_newton_noda_step_is_retried_once_then_ends_the_steps(monkeypatch):
    """A step that does not narrow the bracket (here from a flat w) is
    solved once more to 1e-12; when that fails too, no step is kept."""
    tols = []

    def flat(op, b, iters, tol=spectral.MINRES_TOLERANCE):
        tols.append(tol)
        return np.ones_like(b)

    monkeypatch.setattr(spectral, "_minres", flat)
    res = least_h_eigenvalue(hypertree_50())
    assert tols[:2] == [0.1, 1e-12]
    assert res.iterations == 22


def test_spectral_radius_vector_is_positive_and_closes_its_bracket():
    """The returned vector is strictly positive, and its own Collatz-Wielandt
    ratios agree to 1e-12 relative, so rho is pinned by them alone."""
    graphs = [g for g in corpus_graphs() if g.k % 2 == 0 and g.m and is_connected(g)]
    graphs += [t for k in (2, 4) for m in range(1, 6) for t in enumerate_hypertrees(m, k)]
    graphs += [t for m in range(1, 5) for t in _grow_family(single_edge(6), m - 1)]
    for g in graphs:
        r = spectral_radius(g)
        assert np.all(r.vector > 0.0)
        ratios = tensor_apply(g, r.vector) / r.vector ** (g.k - 1)
        assert ratios.max() - ratios.min() <= 1e-12 * ratios.max()
        assert ratios.min() <= r.eigenvalue * (1 + 1e-12) and r.eigenvalue <= ratios.max() * (1 + 1e-12)


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
    edges = merged.graph.edges[merged.host_m:]
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
    out = transport_vector(x, relo)
    assert out.case == "zero"
    assert out.scale == 1.0
    assert np.allclose(out.vector, x)
    assert np.isclose(knorm(out.vector, 4), knorm(x, 4))


def test_transport_positive_scales_branch():
    relo = _sample_relocation()
    rng = np.random.default_rng(8)
    x = rng.uniform(0.1, 0.4, relo.before.n)
    x[relo.v1] = 0.9
    out = transport_vector(x, relo)
    assert out.case == "positive"
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


def test_transport_reports_host_contribution():
    relo = _sample_relocation()
    x = np.full(relo.before.n, 0.5)
    out = transport_vector(x, relo)
    branch = set(relo.branch_vertices)
    expect = sum(
        float(np.prod(x[list(e)]))
        for e in relo.before.edges
        if relo.v2 in e and not branch & set(e)
    )
    assert np.isclose(out.host_contribution, expect)
