"""Family enumeration, minimizer search, and the verification campaigns."""

import itertools
import json
from collections import Counter
from dataclasses import asdict

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
    kth_power_of_graph,
    least_h_eigenvalue,
    verify_coalescence_monotonicity,
    verify_odd_bipartite_identity,
    verify_relocation,
)
from heigen import analysis, spectral
from heigen.analysis import (
    RELOCATION_DRAWS,
    RelocationRecord,
    check_minimizer_structure,
    coalescence_campaign,
    family_from_spec,
    identity_corpus,
    random_connected_hypergraph,
    random_rooted_hypertree,
    relocation_campaign,
)
from heigen.canon import are_isomorphic, canonical_form
from heigen.constructions import RootedHypergraph
from heigen.hypergraph import is_connected, is_hypertree

FAST = SolverConfig(restarts=8, seed=0)


def single_edge(k=4):
    return Hypergraph(k, k, (tuple(range(k)),))


def test_hypertree_counts():
    assert [len(enumerate_hypertrees(m, 2)) for m in range(1, 6)] == [1, 1, 2, 3, 6]
    assert [len(enumerate_hypertrees(m, 4)) for m in range(1, 6)] == [1, 1, 2, 4, 9]


def test_hypertree_members_are_distinct_hypertrees():
    fam = enumerate_hypertrees(4, 4)
    for g in fam:
        assert is_hypertree(g)
        assert g.m == 4 and g.n == 13
    forms = {canonical_form(g) for g in fam}
    assert len(forms) == len(fam)


def test_enumerate_bounds():
    with pytest.raises(ValueError):
        enumerate_hypertrees(0, 4)
    with pytest.raises(ValueError):
        enumerate_hypertrees(6, 4)
    with pytest.raises(ValueError):
        enumerate_hypertrees(2, 3)
    with pytest.raises(ValueError):
        enumerate_family(single_edge(), 5)
    with pytest.raises(ValueError):
        enumerate_family(Hypergraph(8, 4, ((0, 1, 2, 3), (4, 5, 6, 7))), 1)


def test_enumerate_family_basics():
    g0 = complete_hypergraph(5, 4)
    assert enumerate_family(g0, 0) == [g0]
    fam = enumerate_family(g0, 2)
    assert len(fam) == 3
    for g in fam:
        assert g.m == g0.m + 2
        assert g.n == g0.n + 2 * 3
        assert is_connected(g)
        # the host survives with its original labels
        host_edges = tuple(e for e in g.edges if max(e) < g0.n)
        assert host_edges == g0.edges
    assert len(enumerate_family(cycle_blowup(3, 4), 2)) == 4


def nx_family_oracle(g0: Hypergraph, rounds: int):
    """Independent route to the attachment family: grow in all ways, dedup by
    VF2 on colored incidence graphs."""
    nx = pytest.importorskip("networkx")
    from networkx.algorithms.isomorphism import categorical_node_match

    nm = categorical_node_match("kind", None)

    def to_nx(g):
        b = nx.Graph()
        for v in range(g.n):
            b.add_node(("v", v), kind="vertex")
        for j, e in enumerate(g.edges):
            b.add_node(("e", j), kind="edge")
            for v in e:
                b.add_edge(("e", j), ("v", v))
        return b

    level = [g0]
    for _ in range(rounds):
        new = []
        for g in level:
            for v in range(g.n):
                edge = (v,) + tuple(range(g.n, g.n + g.k - 1))
                grown = Hypergraph(g.n + g.k - 1, g.k, g.edges + (edge,))
                if not any(
                    nx.is_isomorphic(to_nx(grown), to_nx(h), node_match=nm)
                    for h in new
                ):
                    new.append(grown)
        level = new
    return level


def test_family_count_matches_vf2_oracle():
    g0 = complete_hypergraph(5, 4)
    assert len(enumerate_family(g0, 2)) == len(nx_family_oracle(g0, 2))
    t = single_edge()
    assert len(enumerate_family(t, 3)) == len(nx_family_oracle(t, 3))


def index_order_growth(seed: Hypergraph, rounds: int) -> list[Hypergraph]:
    """Family growth with a pendant edge at every vertex, in index order,
    keeping the first child of each canonical form."""
    level = {canonical_form(seed): seed}
    for _ in range(rounds):
        nxt = {}
        for g in level.values():
            for v in range(g.n):
                child = Hypergraph(g.n + g.k - 1, g.k, g.edges + ((v,) + tuple(range(g.n, g.n + g.k - 1)),))
                nxt.setdefault(canonical_form(child), child)
        level = nxt
    return [level[key] for key in sorted(level)]


@pytest.mark.parametrize(
    "seed, rounds",
    [
        (single_edge(2), 5),
        (single_edge(4), 4),
        (complete_hypergraph(5, 4), 2),
        (cycle_blowup(3, 4), 2),
        (kth_power_of_graph([(0, 1), (1, 2)], 4), 2),
    ],
    ids=["hypertrees-k2-m6", "hypertrees-k4-m5", "complete-5-4-m2", "cycle-3-4-m2", "path-power-m2"],
)
def test_twin_class_growth_keeps_the_members_and_their_order(seed, rounds):
    """One pendant edge per twin class grows the same graphs, with the same
    labels and in the same order, as one at every vertex."""
    grown = analysis._grow_family(seed, rounds)
    assert [(g.n, g.edges) for g in grown] == [(g.n, g.edges) for g in index_order_growth(seed, rounds)]


# Canonical forms of the members, in report order, as first computed.
MEMBER_FORMS = {
    "Tm:edge:4,m=3": [
        (13, 4, ((0, 1, 2, 3), (0, 4, 5, 6), (0, 7, 8, 9), (0, 10, 11, 12))),
        (13, 4, ((0, 1, 2, 3), (0, 4, 5, 6), (0, 7, 8, 9), (1, 10, 11, 12))),
        (13, 4, ((0, 1, 2, 3), (0, 4, 5, 6), (1, 7, 8, 9), (2, 10, 11, 12))),
        (13, 4, ((0, 1, 2, 3), (0, 4, 5, 6), (1, 7, 8, 9), (4, 10, 11, 12))),
    ],
    "Tm:complete:5:4,m=2": [
        (11, 4, ((0, 1, 2, 3), (0, 1, 2, 4), (0, 1, 3, 4), (0, 2, 3, 4), (0, 5, 6, 7), (0, 8, 9, 10), (1, 2, 3, 4))),
        (11, 4, ((0, 1, 2, 3), (0, 1, 2, 4), (0, 1, 3, 4), (0, 2, 3, 4), (0, 5, 6, 7), (1, 2, 3, 4), (1, 8, 9, 10))),
        (11, 4, ((0, 1, 2, 3), (0, 1, 2, 4), (0, 1, 3, 4), (0, 2, 3, 4), (0, 5, 6, 7), (1, 2, 3, 4), (5, 8, 9, 10))),
    ],
}


@pytest.mark.parametrize("spec", sorted(MEMBER_FORMS))
def test_members_come_in_canonical_form_order(spec):
    """Reports list members in this order, so their bytes depend on it."""
    _, fam, _ = family_from_spec(spec)
    forms = [canonical_form(g) for g in fam]
    assert forms == sorted(forms) == MEMBER_FORMS[spec]


def test_find_minimizer_prefers_hyperstar():
    for m in (2, 3):
        fam = enumerate_hypertrees(m, 4)
        report = find_minimizer(fam, FAST, family_name=f"hypertrees m={m}")
        assert report.all_converged
        assert report.oracle_agrees
        assert len(report.minimizer_indices) == 1
        winner = report.minimizers[0].graph
        assert are_isomorphic(winner, hyperstar(m, 4).graph)


def test_find_minimizer_report_shape():
    fam = enumerate_hypertrees(3, 4)
    report = find_minimizer(fam, FAST, family_name="pair")
    d = report.to_json_dict()
    assert d["schema"] == "heigen-report/1"
    assert d["family"] == "pair"
    assert len(d["entries"]) == 2
    # a hypertree takes the power path and certifies, so it gets no oracle
    assert d["entries"][0]["oracle_gap"] is None
    member = family_from_spec("Tm:cycle:3:4,m=1")[1]
    gap = find_minimizer(member, FAST).entries[0].oracle_gap
    assert isinstance(gap, float) and gap <= 1e-6
    with pytest.raises(ValueError):
        find_minimizer([], FAST)


def _count_descents(monkeypatch) -> list:
    """Record the groups of every grouped descent call."""
    calls = []
    descend = spectral._descend_batch

    def counted(graphs, starts, max_iters):
        calls.append(len(graphs))
        return descend(graphs, starts, max_iters)

    monkeypatch.setattr(spectral, "_descend_batch", counted)
    return calls


def test_find_minimizer_runs_one_grouped_descent(monkeypatch):
    """The members of Tm:cycle:3:4,m=2 have one shape and no odd
    bipartition, and more than ORACLE_MAX_N vertices: one call, one group
    per member."""
    calls = _count_descents(monkeypatch)
    family = family_from_spec("Tm:cycle:3:4,m=2")[1]
    report = find_minimizer(family)
    assert calls == [len(family)]
    assert all(e.oracle_gap is None for e in report.entries)


def test_find_minimizer_skips_the_oracle_on_certified_power_results(monkeypatch):
    """Hypertrees are odd-bipartite, so every member takes the power path
    and certifies: no descent and no oracle run."""
    calls = _count_descents(monkeypatch)
    oracles = []
    monkeypatch.setattr(analysis, "_oracle_starts", lambda *args: oracles.append(args))
    report = find_minimizer(family_from_spec("hypertrees:m=3,k=4")[1])
    assert calls == [] and oracles == []
    assert all(e.residual <= spectral.CERTIFY_TOLERANCE and e.oracle_gap is None for e in report.entries)


def test_find_minimizer_groups_the_oracle_with_its_member(monkeypatch):
    """Tm:cycle:3:4,m=1 has one member, with 9 vertices: its descent and
    its oracle run as two groups of one call, each with the bits of the
    lone solve."""
    calls = _count_descents(monkeypatch)
    (g,) = family_from_spec("Tm:cycle:3:4,m=1")[1]
    entry = find_minimizer([g], FAST).entries[0]
    assert calls == [2]
    lone = least_h_eigenvalue(g, FAST)
    oracle = brute_force_min(g, analysis.ORACLE_SAMPLES, FAST.max_iters, FAST.seed)
    assert (entry.eigenvalue, entry.residual) == (lone.eigenvalue, lone.residual)
    assert entry.oracle_gap == abs(lone.eigenvalue - oracle.eigenvalue)


def test_find_minimizer_reports_are_reproducible():
    fam = enumerate_hypertrees(3, 4)
    a = find_minimizer(fam, FAST, family_name="t3").to_json_dict()
    b = find_minimizer(fam, FAST, family_name="t3").to_json_dict()
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_find_minimizer_flags_ties():
    g = hyperstar(2, 4).graph
    report = find_minimizer([g, g], FAST)
    assert len(report.minimizer_indices) == 2
    status, detail = check_minimizer_structure(report, [g])
    assert status == "violation"
    assert "2 minimizers" in detail


def test_verify_relocation_improves_toward_center():
    host = kth_power_of_graph([(0, 1), (0, 2), (0, 3)], 4)
    rec = verify_relocation(host, 0, 1, hyperstar(1, 4), FAST)
    assert rec.status == "pass"
    # moving the pendant edge from a leaf onto the center makes a 4-star
    assert rec.lambda_after < rec.lambda_before - 1e-3
    assert abs(rec.lambda_after + 4.0 ** 0.25) <= 1e-6
    assert rec.case in ("positive", "zero", "negative")
    assert abs(rec.x_v1) >= abs(rec.x_v2)
    assert rec.transported_value <= rec.lambda_before + 1e-6
    d = asdict(rec)
    assert d["status"] == "pass" and d["n"] == host.n + 3


def test_verify_relocation_precondition_status():
    """The branch holder outweighs its symmetric twin, so relocating between
    interchangeable endpoints fails the eigenvector precondition both ways."""
    host = kth_power_of_graph([(0, 1), (1, 2)], 4)
    one_way = verify_relocation(host, 0, 2, hyperstar(1, 4), FAST)
    other = verify_relocation(host, 2, 0, hyperstar(1, 4), FAST)
    assert one_way.status == "precondition-failed"
    assert other.status == "precondition-failed"
    assert one_way.lambda_after is None
    assert "|x[v1]|" in asdict(one_way)["detail"]


def test_verify_coalescence_single_edges():
    rec = verify_coalescence_monotonicity(
        RootedHypergraph(single_edge(), 0), RootedHypergraph(single_edge(), 0), FAST
    )
    assert rec.status == "pass"
    assert abs(rec.lambda_host + 1.0) <= 1e-8
    assert abs(rec.lambda_merged + 2.0 ** 0.25) <= 1e-8
    assert rec.strict_required
    assert rec.branch_root_sum <= 1e-9
    assert asdict(rec)["n_merged"] == 7


def test_verify_coalescence_rejects_disconnected():
    disc = Hypergraph(8, 4, ((0, 1, 2, 3), (4, 5, 6, 7)))
    with pytest.raises(ValueError):
        verify_coalescence_monotonicity(
            RootedHypergraph(disc, 0), hyperstar(1, 4), FAST
        )


def test_identity_record_both_directions():
    tree = kth_power_of_graph([(0, 1), (1, 2)], 4)
    rec = verify_odd_bipartite_identity(tree, FAST)
    assert rec.status == "pass" and rec.has_witness
    assert abs(rec.gap) <= 1e-6
    rec = verify_odd_bipartite_identity(complete_hypergraph(5, 4), FAST)
    assert rec.status == "pass" and not rec.has_witness
    assert rec.gap > 1e-6


def test_identity_check_runs_descent(monkeypatch):
    """The fast path returns -rho by construction, so the identity check
    must compute lambda_min by descent."""
    calls = []
    descend = spectral._descend_batch

    def counted(*args):
        calls.append(args)
        return descend(*args)

    monkeypatch.setattr(spectral, "_descend_batch", counted)
    rec = verify_odd_bipartite_identity(kth_power_of_graph([(0, 1), (1, 2)], 4), FAST)
    assert rec.status == "pass" and rec.has_witness
    assert len(calls) == 1


def test_identity_suite_groups_descents_by_shape(monkeypatch):
    """The suite runs one grouped descent per shape (n, m, k), and each
    record is the one-graph check's."""
    graphs = identity_corpus()
    single = [asdict(verify_odd_bipartite_identity(g, FAST)) for g in graphs]
    calls = _count_descents(monkeypatch)
    grouped = [asdict(r) for r in analysis.verify_odd_bipartite_identities(graphs, FAST)]
    assert grouped == single
    assert sorted(calls) == sorted(Counter((g.n, g.m, g.k) for g in graphs).values())


def test_identity_descent_above_minus_rho_is_no_violation():
    """With restarts=8, descent certifies lambda = -2.115023 on this
    odd-bipartite graph, whose least eigenvalue is -rho = -3.088073."""
    g = Hypergraph(7, 4, ((0, 1, 3, 5), (0, 2, 3, 6), (0, 4, 5, 6), (1, 3, 4, 5), (3, 4, 5, 6)))
    rec = verify_odd_bipartite_identity(g, SolverConfig(restarts=8))
    assert rec.has_witness
    assert rec.status != "violation"


@pytest.mark.parametrize("shift, status", [(0.5, "inconclusive"), (-0.5, "violation"), (0.0, "pass")])
def test_identity_gap_sign_decides_the_status(monkeypatch, shift, status):
    """lambda_min >= -rho always holds: a descent value above -rho is a
    missed minimum, one below it a real violation."""
    g = kth_power_of_graph([(0, 1), (1, 2)], 4)
    rho = spectral.spectral_radius(g).eigenvalue

    def solve(jobs, max_iters):
        return [spectral.EigenResult(-rho + shift, np.ones(graph.n), 0.0, 1, True, "descent") for graph, _ in jobs]

    monkeypatch.setattr(analysis, "descend", solve)
    rec = verify_odd_bipartite_identity(g, FAST)
    assert rec.has_witness and rec.status == status
    assert rec.gap == pytest.approx(shift, abs=1e-12)
    if status == "inconclusive":
        assert "short of the minimum" in rec.detail


def test_identity_corpus_composition():
    corpus = identity_corpus()
    assert len(corpus) == 1 + 1 + 2 + 4 + 3
    assert sum(1 for g in corpus if is_hypertree(g)) == 8


def test_random_generators():
    rng = np.random.default_rng(4)
    for _ in range(5):
        g = random_connected_hypergraph(rng, 9, 2, 4)
        assert g.n == 9 and g.k == 4
        assert is_connected(g)
    rt = random_rooted_hypertree(rng, 3, 4)
    assert is_hypertree(rt.graph)
    assert 0 <= rt.root < rt.graph.n


def test_random_graph_draws_no_edge_beyond_the_k_subsets():
    """With n = k the covering edge is the only k-subset, so asking for
    extra edges draws nothing more."""

    class CountingRng:
        def __init__(self, seed):
            self.rng, self.choices = np.random.default_rng(seed), 0

        def choice(self, *args, **kwargs):
            self.choices += 1
            return self.rng.choice(*args, **kwargs)

        def integers(self, *args, **kwargs):
            return self.rng.integers(*args, **kwargs)

    rng = CountingRng(0)
    g = random_connected_hypergraph(rng, 4, 2, 4)
    assert g.edges == ((0, 1, 2, 3),)
    assert rng.choices == 1


def test_campaigns_smoke():
    recs = relocation_campaign(trials=3, seed=2, cfg=FAST)
    assert len(recs) == 3
    assert all(r.status == "pass" for r in recs)
    crecs = coalescence_campaign(trials=3, seed=2, cfg=FAST)
    assert len(crecs) == 3
    assert all(r.status == "pass" for r in crecs)


def test_swapped_relocation_reuses_the_first_solve(monkeypatch):
    """When the verifier swaps the orientation, the swapped after-graph is
    the first before-graph, so it is solved once; the record is the one the
    public check gives for the first orientation, and for the swapped one."""
    relocations, solves = [], []
    real_relocate, real_solve = analysis.relocate, analysis.least_h_eigenvalue

    def spy_relocate(g0, v1, v2, h):
        relocations.append((g0, v1, v2, h))
        return real_relocate(g0, v1, v2, h)

    def spy_solve(g, cfg=None, method="auto"):
        solves.append(g)
        return real_solve(g, cfg, method)

    monkeypatch.setattr(analysis, "relocate", spy_relocate)
    monkeypatch.setattr(analysis, "least_h_eigenvalue", spy_solve)
    [rec] = relocation_campaign(trials=1, seed=0, cfg=FAST)
    (g0, v1, v2, h), swapped = relocations
    assert swapped == (g0, v2, v1, h) and rec.status == "pass"
    # the first before-graph and the swapped one; no third solve
    assert len(solves) == 2
    solves.clear()
    assert verify_relocation(g0, v1, v2, h, FAST) == rec
    assert len(solves) == 2
    monkeypatch.undo()
    assert rec == verify_relocation(g0, v2, v1, h, FAST)


def test_relocation_campaign_is_bounded(monkeypatch):
    """Draws failing the precondition both ways end each record as
    inconclusive after RELOCATION_DRAWS draws instead of looping forever."""
    calls = []

    def always_fails(g0, v1, v2, h, cfg, tolerance):
        calls.append((v1, v2))
        return RelocationRecord(status="precondition-failed", v1=v2, v2=v1, n=g0.n, m=g0.m)

    monkeypatch.setattr(analysis, "verify_relocation", always_fails)
    recs = relocation_campaign(trials=2, seed=0, cfg=FAST)
    assert [r.status for r in recs] == ["inconclusive", "inconclusive"]
    assert "precondition failed both ways" in recs[0].detail
    assert len(calls) == 2 * RELOCATION_DRAWS


def test_family_from_spec():
    name, fam, refs = family_from_spec("hypertrees:m=3,k=4")
    assert name == "hypertrees:m=3,k=4"
    assert len(fam) == 2 and len(refs) == 1
    assert are_isomorphic(refs[0], hyperstar(3, 4).graph)

    _, fam, refs = family_from_spec("Tm:edge:4,m=1")
    assert len(fam) == 1 and len(refs) == 4
    assert all(are_isomorphic(r, refs[0]) for r in refs)

    _, fam, refs = family_from_spec("Tm:complete:5:4,m=2")
    assert len(fam) == 3 and len(refs) == 5

    _, fam, _ = family_from_spec("Tm:cycle:3:4,m=2")
    assert len(fam) == 4

    for bad in (
        "hypertrees:m=2",
        "hypertrees:m=2,k=4,q=1",
        "hypertrees:m=3,k=4,m=2",
        "Tm:pentagon:5,m=1",
        "Tm:edge:4,m=x",
        "mystery:m=1",
    ):
        with pytest.raises(ValueError):
            family_from_spec(bad)


def test_check_minimizer_structure_statuses():
    fam = enumerate_hypertrees(3, 4)
    report = find_minimizer(fam, FAST)
    status, _ = check_minimizer_structure(report, [hyperstar(3, 4).graph])
    assert status == "pass"
    wrong_ref = kth_power_of_graph([(0, 1), (1, 2), (2, 3)], 4)
    status, detail = check_minimizer_structure(report, [wrong_ref])
    assert status == "violation"
    assert "structure" in detail
