"""Acceptance gate: twelve checks, one printed verdict line each.

Each test prints "[criterion N] label: PASS" or ": FAIL" so a teed test run
reads as a checklist.  Tolerances are part of the contract and are asserted
exactly as stated, not loosened.
"""

import itertools
import json

import numpy as np
import pytest

from heigen import (
    Hypergraph,
    SolverConfig,
    brute_force_min,
    complete_hypergraph,
    cycle_blowup,
    enumerate_family,
    enumerate_hypertrees,
    find_minimizer,
    hyperstar,
    least_h_eigenvalue,
    rayleigh,
    spectral_radius,
    tensor_apply,
)
from heigen.analysis import (
    check_minimizer_structure,
    coalescence_campaign,
    random_connected_hypergraph,
    relocation_campaign,
)
from heigen.canon import are_isomorphic
from heigen.cli import main
from heigen.constructions import RootedHypergraph, coalesce
from heigen.hypergraph import find_odd_bipartition

from corpus import corpus_graphs


class _verdict:
    """Prints the criterion line whichever way the block exits."""

    def __init__(self, number, label):
        self.number = number
        self.label = label

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        word = "PASS" if exc_type is None else "FAIL"
        print(f"[criterion {self.number}] {self.label}: {word}")
        return False


@pytest.fixture(scope="module")
def coalescence_records():
    return coalescence_campaign(trials=20, seed=0)


def test_criterion_1_single_edge_baseline():
    with _verdict(1, "single-edge baseline"):
        for k in (2, 4, 6):
            g = Hypergraph(k, k, (tuple(range(k)),))
            lam = least_h_eigenvalue(g).eigenvalue
            assert abs(lam + 1.0) <= 1e-8, f"k={k}: {lam}"


def test_criterion_2_hyperstar_closed_form():
    with _verdict(2, "hyperstar closed form"):
        for m in range(1, 6):
            g = hyperstar(m, 4).graph
            lam = least_h_eigenvalue(g).eigenvalue
            assert abs(lam + m**0.25) <= 1e-6, f"m={m}: {lam}"
            if m <= 3:
                brute = brute_force_min(g).eigenvalue
                assert abs(lam - brute) <= 1e-6, f"m={m} brute gap"


def test_criterion_3_odd_bipartite_identity_on_hypertrees():
    with _verdict(3, "hypertree identity lambda_min = -rho"):
        for m in range(1, 5):
            for g in enumerate_hypertrees(m, 4):
                lam = least_h_eigenvalue(g, method="descent").eigenvalue
                rho = spectral_radius(g).eigenvalue
                assert abs(lam + rho) <= 1e-6, f"m={m} n={g.n}: {lam} vs -{rho}"


def test_criterion_4_hyperstar_is_unique_hypertree_minimizer():
    with _verdict(4, "hyperstar uniquely minimal among hypertrees"):
        for m in (2, 3, 4):
            fam = enumerate_hypertrees(m, 4)
            report = find_minimizer(fam, family_name=f"hypertrees m={m}")
            assert report.all_converged and report.oracle_agrees
            assert len(report.minimizer_indices) == 1
            win = report.minimizers[0]
            assert are_isomorphic(win.graph, hyperstar(m, 4).graph)
            others = [e.eigenvalue for i, e in enumerate(report.entries)
                      if i not in report.minimizer_indices]
            if others:
                assert min(others) - win.eigenvalue > 1e-4, f"m={m} margin"


def test_criterion_5_attachment_family_minimizer_structure():
    with _verdict(5, "minimizer of T_m(G0) is G0 with a hyperstar"):
        hosts = [
            Hypergraph(4, 4, ((0, 1, 2, 3),)),
            complete_hypergraph(5, 4),
            cycle_blowup(3, 4),
        ]
        for g0 in hosts:
            for m in (1, 2):
                fam = enumerate_family(g0, m)
                refs = [
                    coalesce(RootedHypergraph(g0, u), hyperstar(m, 4)).graph
                    for u in range(g0.n)
                ]
                report = find_minimizer(fam, family_name=f"T_{m}")
                status, detail = check_minimizer_structure(report, refs)
                assert status == "pass", f"n0={g0.n} m={m}: {status} {detail}"


def test_criterion_6_relocation_never_raises_lambda():
    with _verdict(6, "relocation bound over 30 seeded instances"):
        records = relocation_campaign(trials=30, seed=0)
        assert len(records) == 30
        for r in records:
            assert r.status == "pass", r.detail
            assert r.lambda_after <= r.lambda_before + 1e-6
            assert r.transported_value <= r.lambda_before + 1e-6


def test_criterion_7_coalescence_monotonicity(coalescence_records):
    with _verdict(7, "coalescence lowers lambda, strictly off zeros"):
        assert len(coalescence_records) == 20
        for r in coalescence_records:
            assert r.status == "pass", r.detail
            assert r.lambda_host >= r.lambda_merged - 1e-6
            if abs(r.root_value) > 1e-6:
                assert r.lambda_host > r.lambda_merged


def test_criterion_8_branch_contribution_nonpositive(coalescence_records):
    with _verdict(8, "branch edge products nonpositive at optimum"):
        for r in coalescence_records:
            assert r.branch_root_sum is not None
            assert r.branch_root_sum <= 1e-9, f"alpha={r.branch_root_sum}"


def test_criterion_9_solver_agrees_with_brute_force():
    with _verdict(9, "solver vs brute force on 50 random graphs"):
        rng = np.random.default_rng(0)
        for i in range(50):
            n = int(rng.integers(4, 11))
            g = random_connected_hypergraph(rng, n, int(rng.integers(0, 3)), 4)
            lam = least_h_eigenvalue(g).eigenvalue
            brute = brute_force_min(g).eigenvalue
            assert abs(lam - brute) <= 1e-6, f"instance {i} n={n}: {lam} vs {brute}"


def test_criterion_10_gradient_matches_finite_differences():
    with _verdict(10, "finite-difference gradient check"):
        rng = np.random.default_rng(1)
        h = 1e-5
        for i in range(20):
            n = int(rng.integers(4, 10))
            g = random_connected_hypergraph(rng, n, int(rng.integers(0, 3)), 4)
            x = rng.uniform(0.2, 1.0, g.n) * rng.choice([-1.0, 1.0], g.n)
            grad = g.k * tensor_apply(g, x)
            for v in range(g.n):
                e = np.zeros(g.n)
                e[v] = h
                fd = (rayleigh(g, x + e) - rayleigh(g, x - e)) / (2 * h)
                assert abs(fd - grad[v]) <= 1e-5 * max(1.0, abs(grad[v]))


def brute_parity_witness(g):
    for bits in itertools.product((0, 1), repeat=g.n):
        if all(sum(bits[v] for v in e) % 2 == 1 for e in g.edges):
            return bits
    return None


def test_criterion_11_parity_solver_against_brute_force():
    with _verdict(11, "odd-bipartition solver vs 2^n brute force"):
        checked = 0
        for g in corpus_graphs():
            if g.n > 12:
                continue
            got = find_odd_bipartition(g)
            want = brute_parity_witness(g)
            assert (got is None) == (want is None), f"n={g.n} edges={g.edges}"
            checked += 1
        assert checked >= 10
        assert find_odd_bipartition(complete_hypergraph(5, 4)) is None
        assert find_odd_bipartition(cycle_blowup(5, 4)) is None


def test_criterion_12_byte_identical_reports(tmp_path):
    with _verdict(12, "determinism of JSON reports"):
        src = str(tmp_path / "star.json")
        assert main(["generate", "hyperstar", "3", "4", "--out", src]) == 0
        a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        assert main(["lambda-min", src, "--json", "--out", a]) == 0
        assert main(["lambda-min", src, "--json", "--out", b]) == 0
        assert open(a, "rb").read() == open(b, "rb").read()
        va, vb = str(tmp_path / "va.json"), str(tmp_path / "vb.json")
        args = ["verify", "coalescence", "--trials", "3", "--json"]
        assert main([*args, "--out", va]) == 0
        assert main([*args, "--out", vb]) == 0
        assert open(va, "rb").read() == open(vb, "rb").read()
        payload = json.loads(open(va).read())
        assert payload["manifest"]["seed"] == 0
