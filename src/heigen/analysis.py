"""Enumeration of small hypergraph families and verification campaigns.

Families are generated by pendant-edge growth with canonical-form dedup:
every graph built from a host by attaching hypertrees arises from a chain of
single-edge attachments, each sharing exactly one vertex with the current
graph, so level-wise growth with one representative per isomorphism class
is exhaustive.  The verifiers compute eigenvalues on both sides of a
structural operation and record pass/violation/inconclusive outcomes;
non-convergent solves poison a record to inconclusive, never to pass.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace

import numpy as np

from .hypergraph import Hypergraph, find_odd_bipartition, is_connected
from .constructions import (
    Relocation,
    RootedHypergraph,
    coalesce,
    complete_hypergraph,
    cycle_blowup,
    hyperstar,
    relocate,
)
from .canon import are_isomorphic, canonical_form, twin_classes
from .spectral import (
    CERTIFY_TOLERANCE,
    EIGENVALUE_TOLERANCE,
    EigenResult,
    SolverConfig,
    _as_vector,
    _fast_path,
    _oracle_starts,
    _restart_starts,
    descend,
    knorm,
    least_h_eigenvalue,
    rayleigh,
    spectral_radius,
)


def _attach_pendant_edge(g: Hypergraph, v: int) -> Hypergraph:
    edge = (v,) + tuple(range(g.n, g.n + g.k - 1))
    return Hypergraph(g.n + g.k - 1, g.k, g.edges + (edge,))


def _grow_family(seed: Hypergraph, rounds: int) -> list[Hypergraph]:
    """The graphs grown from seed by ``rounds`` pendant edges, one per
    isomorphism class, in canonical-form order.  Twins give isomorphic
    children, so each parent grows one child per twin class, at its least
    member: the first child of each form that attaching at every vertex in
    index order would keep."""
    level = {canonical_form(seed): seed}
    for _ in range(rounds):
        nxt: dict = {}
        for g in level.values():
            for members, _ in twin_classes(g):
                child = _attach_pendant_edge(g, members[0])
                nxt.setdefault(canonical_form(child), child)
        level = nxt
    return [level[key] for key in sorted(level)]


def enumerate_hypertrees(m: int, k: int) -> list[Hypergraph]:
    """All k-uniform hypertrees with m edges, one per isomorphism class."""
    if k not in (2, 4):
        raise ValueError(f"hypertree enumeration supports k in (2, 4), got {k}")
    if not 1 <= m <= 5:
        raise ValueError(f"hypertree enumeration supports 1 <= m <= 5, got {m}")
    return _grow_family(hyperstar(1, k).graph, m - 1)


def enumerate_family(g0: Hypergraph, m: int) -> list[Hypergraph]:
    """All graphs obtained from g0 by attaching hypertrees with m edges
    total, one per isomorphism class.  Members keep g0 on labels 0..n0-1."""
    if not is_connected(g0):
        raise ValueError("family host must be connected")
    if not 0 <= m <= 4:
        raise ValueError(f"family enumeration supports 0 <= m <= 4, got {m}")
    return _grow_family(g0, m)


@dataclass(frozen=True)
class SearchEntry:
    graph: Hypergraph
    eigenvalue: float
    residual: float
    converged: bool
    oracle_gap: float | None = None

    def to_json_dict(self) -> dict:
        return {
            "n": self.graph.n,
            "k": self.graph.k,
            "m": self.graph.m,
            "edges": [list(e) for e in self.graph.edges],
            "lambda": self.eigenvalue,
            "residual": self.residual,
            "converged": self.converged,
            "oracle_gap": self.oracle_gap,
        }


@dataclass(frozen=True)
class SearchReport:
    family: str
    tolerance: float
    config: SolverConfig
    entries: tuple[SearchEntry, ...]
    minimizer_indices: tuple[int, ...]

    @property
    def minimizers(self) -> tuple[SearchEntry, ...]:
        return tuple(self.entries[i] for i in self.minimizer_indices)

    @property
    def all_converged(self) -> bool:
        return all(e.converged for e in self.entries)

    @property
    def oracle_agrees(self) -> bool:
        return all(
            e.oracle_gap is None or e.oracle_gap <= self.tolerance for e in self.entries
        )

    def to_json_dict(self) -> dict:
        return {
            "schema": "heigen-report/1",
            "family": self.family,
            "tolerance": self.tolerance,
            "solver": asdict(self.config),
            "entries": [e.to_json_dict() for e in self.entries],
            "minimizer_indices": list(self.minimizer_indices),
        }


# find_minimizer's oracle cross-check: the most vertices a member may have,
# and the magnitude profiles brute_force_min's sign scoring samples.
ORACLE_MAX_N = 10
ORACLE_SAMPLES = 256


def find_minimizer(
    family,
    cfg: SolverConfig = SolverConfig(),
    tolerance: float = EIGENVALUE_TOLERANCE,
    family_name: str = "",
) -> SearchReport:
    """Least eigenvalue of every member, with the minimizing members marked.

    Members with an odd bipartition take ``least_h_eigenvalue``'s power
    path.  A power result with residual at most ``CERTIFY_TOLERANCE`` is
    exact (lambda_min = -rho), so it gets no oracle and a gap of None.
    Every other member with at most ``ORACLE_MAX_N`` vertices is
    cross-checked against ``brute_force_min``'s oracle, and the gap is
    recorded per entry.  The descents of the other members and the oracles
    run as one grouped descent (see ``descend``), with the bits of their
    lone solves.  Ties within tolerance are reported as multiple
    minimizers, never broken.
    """
    family = list(family)
    if not family:
        raise ValueError("family must be nonempty")
    solved: list[EigenResult | None] = [_fast_path(g, cfg) for g in family]
    jobs, slots = [], []
    for i, (g, r) in enumerate(zip(family, solved)):
        if r is None:
            jobs.append((g, _restart_starts(g, cfg)))
            slots.append((i, False))
        if g.n <= ORACLE_MAX_N and (r is None or r.residual > CERTIFY_TOLERANCE):
            jobs.append((g, _oracle_starts(g, ORACLE_SAMPLES, cfg.seed)))
            slots.append((i, True))
    oracle = {}
    for (i, is_oracle), r in zip(slots, descend(jobs, cfg.max_iters)):
        if is_oracle:
            oracle[i] = r.eigenvalue
        else:
            solved[i] = r
    entries = tuple(
        SearchEntry(
            graph=g,
            eigenvalue=r.eigenvalue,
            residual=r.residual,
            converged=r.converged,
            oracle_gap=abs(r.eigenvalue - oracle[i]) if i in oracle else None,
        )
        for i, (g, r) in enumerate(zip(family, solved))
    )
    lo = min(e.eigenvalue for e in entries)
    mins = tuple(i for i, e in enumerate(entries) if e.eigenvalue <= lo + tolerance)
    return SearchReport(
        family=family_name or f"family of {len(family)}",
        tolerance=tolerance,
        config=cfg,
        entries=entries,
        minimizer_indices=mins,
    )


@dataclass(frozen=True, eq=False)
class TransportResult:
    """A candidate vector carried across a relocation, with the bookkeeping
    the comparison argument needs."""

    vector: np.ndarray
    case: str
    scale: float
    host_contribution: float


def transport_vector(x, relo: Relocation) -> TransportResult:
    """Carry a vector on the before-graph to the after-graph of a relocation.

    With s = |x_{v1}/x_{v2}| (requires |x_{v1}| >= |x_{v2}|), the branch part
    is scaled by s when x_{v2} > 0 ("positive"), copied unchanged when
    x_{v2} = 0 ("zero"), and scaled by -s when x_{v2} < 0 ("negative"), after
    flipping the whole vector to make x_{v1} nonnegative if needed (k is
    even, so the flip changes nothing measurable).  Also reports the sum of
    host-edge products at the detachment vertex.
    """
    g = relo.before
    x = _as_vector(g, x)
    xv1, xv2 = float(x[relo.v1]), float(x[relo.v2])
    if abs(xv1) < abs(xv2):
        raise ValueError(
            f"transport requires |x[v1]| >= |x[v2]|, got |{xv1}| < |{xv2}|"
        )
    if xv1 < 0.0:
        x = -x
        xv1, xv2 = -xv1, -xv2
    case = "positive" if xv2 > 0.0 else ("negative" if xv2 < 0.0 else "zero")
    out = x.copy()
    scale = 1.0
    if case != "zero":
        branch = list(relo.branch_vertices)
        ratio = xv1 / xv2
        scale = abs(ratio)
        out[branch] = ratio * x[branch]
    host_sum = 0.0
    for e in relo.host.edge_star(relo.v2):
        host_sum += float(np.prod(x[list(e)]))
    return TransportResult(vector=out, case=case, scale=scale, host_contribution=host_sum)


@dataclass(frozen=True)
class RelocationRecord:
    status: str  # pass | violation | inconclusive | precondition-failed
    v1: int
    v2: int
    n: int
    m: int
    case: str | None = None
    lambda_before: float | None = None
    lambda_after: float | None = None
    transported_value: float | None = None
    scale: float | None = None
    host_contribution: float | None = None
    x_v1: float | None = None
    x_v2: float | None = None
    detail: str = ""


def verify_relocation(
    g0: Hypergraph,
    v1: int,
    v2: int,
    h: RootedHypergraph,
    cfg: SolverConfig = SolverConfig(),
    tolerance: float = EIGENVALUE_TOLERANCE,
) -> RelocationRecord:
    """Check that moving the branch toward the heavier endpoint never raises
    the least eigenvalue, along with the transported-vector bound that
    drives the argument.

    The branch moves from v2 to v1 when the before-graph's least eigenvector
    has |x[v1]| >= |x[v2]|.  Otherwise the move from v1 to v2 is checked
    instead; its after-graph is the graph just solved, so that solve is
    reused.  The record is precondition-failed only when both orientations
    fail, and is then the swapped one's."""
    after = None
    for a, b in ((v1, v2), (v2, v1)):
        relo = relocate(g0, a, b, h)
        before = least_h_eigenvalue(relo.before, cfg)
        base = dict(v1=relo.v1, v2=relo.v2, n=relo.before.n, m=relo.before.m)
        if not before.converged:
            return RelocationRecord(status="inconclusive", detail="before-graph solve did not converge", **base)
        x = before.vector
        xv1, xv2 = float(x[relo.v1]), float(x[relo.v2])
        if abs(xv1) >= abs(xv2):
            break
        # the swapped after-graph is this before-graph, edge for edge
        after = before
    else:
        return RelocationRecord(
            status="precondition-failed",
            detail="|x[v1]| < |x[v2]| for the computed eigenvector",
            x_v1=xv1,
            x_v2=xv2,
            **base,
        )
    tr = transport_vector(x, relo)
    carried = rayleigh(relo.after, tr.vector) / knorm(tr.vector, relo.after.k) ** relo.after.k
    if after is None:
        after = least_h_eigenvalue(relo.after, cfg)
    if not after.converged:
        return RelocationRecord(status="inconclusive", detail="after-graph solve did not converge", **base)
    ok = (
        after.eigenvalue <= before.eigenvalue + tolerance
        and carried <= before.eigenvalue + tolerance
    )
    return RelocationRecord(
        status="pass" if ok else "violation",
        case=tr.case,
        lambda_before=before.eigenvalue,
        lambda_after=after.eigenvalue,
        transported_value=carried,
        scale=tr.scale,
        host_contribution=tr.host_contribution,
        x_v1=xv1,
        x_v2=xv2,
        **base,
    )


def branch_contribution(g: Hypergraph, x, branch_edges, root: int) -> float:
    """Sum of the full vertex products x^e over branch edges through root.

    For a first eigenvector of a graph glued from a host and a branch this
    quantity is nonpositive; tests rely on that sign.
    """
    x = _as_vector(g, x)
    edge_set = set(g.edges)
    total = 0.0
    for e in branch_edges:
        t = tuple(sorted(int(v) for v in e))
        if t not in edge_set:
            raise ValueError(f"{t} is not an edge of the graph")
        if root not in t:
            raise ValueError(f"edge {t} does not contain the root {root}")
        total += float(np.prod(x[list(t)]))
    return total


@dataclass(frozen=True)
class CoalescenceRecord:
    status: str  # pass | violation | inconclusive
    root: int
    n_host: int
    n_merged: int
    lambda_host: float | None = None
    lambda_merged: float | None = None
    root_value: float | None = None
    strict_required: bool = False
    branch_root_sum: float | None = None
    detail: str = ""


def verify_coalescence_monotonicity(
    g0: RootedHypergraph,
    h: RootedHypergraph,
    cfg: SolverConfig = SolverConfig(),
    tolerance: float = EIGENVALUE_TOLERANCE,
) -> CoalescenceRecord:
    """Check that gluing a branch onto the host can only lower the least
    eigenvalue, strictly so when the host's eigenvector is nonzero at the
    gluing vertex; also records the branch-edge product sum at the root."""
    if not is_connected(g0.graph) or not is_connected(h.graph):
        raise ValueError("coalescence verification requires connected inputs")
    coal = coalesce(g0, h)
    host = least_h_eigenvalue(g0.graph, cfg)
    merged = least_h_eigenvalue(coal.graph, cfg)
    base = dict(root=g0.root, n_host=g0.graph.n, n_merged=coal.graph.n)
    if not (host.converged and merged.converged):
        return CoalescenceRecord(status="inconclusive", detail="a solve did not converge", **base)
    root_value = float(host.vector[g0.root])
    strict = abs(root_value) > EIGENVALUE_TOLERANCE
    alpha = branch_contribution(coal.graph, merged.vector, coal.branch_root_edges(), coal.root)
    ok = host.eigenvalue >= merged.eigenvalue - tolerance
    if strict:
        ok = ok and host.eigenvalue > merged.eigenvalue + 1e-9
    return CoalescenceRecord(
        status="pass" if ok else "violation",
        lambda_host=host.eigenvalue,
        lambda_merged=merged.eigenvalue,
        root_value=root_value,
        strict_required=strict,
        branch_root_sum=alpha,
        **base,
    )


@dataclass(frozen=True)
class IdentityRecord:
    status: str  # pass | violation | inconclusive
    n: int
    m: int
    has_witness: bool
    lambda_min: float | None = None
    rho: float | None = None
    gap: float | None = None
    detail: str = ""


def verify_odd_bipartite_identity(
    g: Hypergraph,
    cfg: SolverConfig = SolverConfig(),
    tolerance: float = EIGENVALUE_TOLERANCE,
) -> IdentityRecord:
    """``verify_odd_bipartite_identities`` of the one graph g."""
    return verify_odd_bipartite_identities([g], cfg, tolerance)[0]


def verify_odd_bipartite_identities(
    graphs: list[Hypergraph],
    cfg: SolverConfig = SolverConfig(),
    tolerance: float = EIGENVALUE_TOLERANCE,
) -> list[IdentityRecord]:
    """With an odd bipartition the least eigenvalue must equal minus the
    spectral radius; without one, connectedness forces a strict gap.

    lambda_min >= -rho always holds, and lambda_min comes from descent (the
    fast path gives -rho by construction), an upper bound.  So with a
    witness, a gap above tolerance means descent missed the minimum:
    inconclusive, not a violation.  Graphs of one shape share one grouped
    descent (see ``descend``), whose results have the bits of lone solves."""
    lows = descend([(g, _restart_starts(g, cfg)) for g in graphs], cfg.max_iters)
    return [_identity_record(g, lo, cfg, tolerance) for g, lo in zip(graphs, lows)]


def _identity_record(g: Hypergraph, lo: EigenResult, cfg: SolverConfig, tolerance: float) -> IdentityRecord:
    """The identity record of g from its descent result lo."""
    bip = find_odd_bipartition(g)
    hi = spectral_radius(g, cfg)
    base = dict(n=g.n, m=g.m, has_witness=bip is not None)
    if not (lo.converged and hi.converged):
        return IdentityRecord(status="inconclusive", detail="a solve did not converge", **base)
    gap = lo.eigenvalue + hi.eigenvalue
    values = dict(lambda_min=lo.eigenvalue, rho=hi.eigenvalue, gap=gap, **base)
    if bip is None:
        return IdentityRecord(status="pass" if gap > tolerance else "violation", **values)
    if gap > tolerance:
        return IdentityRecord(
            status="inconclusive", detail="descent stopped above -rho, short of the minimum", **values
        )
    return IdentityRecord(status="pass" if gap >= -tolerance else "violation", **values)


def identity_corpus() -> list[Hypergraph]:
    """Default graphs for the odd-bipartite identity suite: all small
    4-uniform hypertrees plus three graphs with no odd bipartition."""
    graphs: list[Hypergraph] = []
    for m in range(1, 5):
        graphs.extend(enumerate_hypertrees(m, 4))
    graphs.append(complete_hypergraph(5, 4))
    graphs.append(cycle_blowup(3, 4))
    graphs.append(cycle_blowup(5, 4))
    return graphs


def random_connected_hypergraph(rng: np.random.Generator, n: int, extra_edges: int, k: int) -> Hypergraph:
    """Random connected k-uniform graph covering all n vertices: a covering
    chain of edges, then extra distinct random edges."""
    if n < k:
        raise ValueError(f"need n >= k, got n={n}, k={k}")
    first = tuple(sorted(int(v) for v in rng.choice(n, size=k, replace=False)))
    edges = {first}
    covered = set(first)
    while len(covered) < n:
        fresh = [v for v in range(n) if v not in covered]
        take = int(rng.integers(1, min(k - 1, len(fresh)) + 1))
        new_part = rng.choice(fresh, size=take, replace=False)
        old_part = rng.choice(sorted(covered), size=k - take, replace=False)
        e = tuple(sorted(int(v) for v in (*new_part, *old_part)))
        edges.add(e)
        covered.update(e)
    # draws for more edges than the comb(n, k) distinct ones would be wasted
    want = min(len(edges) + extra_edges, math.comb(n, k))
    for _ in range(1000):
        if len(edges) >= want:
            break
        e = tuple(sorted(int(v) for v in rng.choice(n, size=k, replace=False)))
        edges.add(e)
    return Hypergraph(n, k, tuple(sorted(edges)))


def random_rooted_hypertree(rng: np.random.Generator, m: int, k: int) -> RootedHypergraph:
    """Random hypertree grown by pendant attachment, with a random root."""
    g = hyperstar(1, k).graph
    for _ in range(m - 1):
        g = _attach_pendant_edge(g, int(rng.integers(g.n)))
    return RootedHypergraph(g, int(rng.integers(g.n)))


# Draws per relocation record before it is reported inconclusive.  Campaign
# seeds 0-3 need at most 2.5 draws per record on average, so a record that
# uses up 50 points at the solver, not at chance.
RELOCATION_DRAWS = 50
# Uniformity of campaign instances, and the most vertices a relocation has.
CAMPAIGN_K = 4
RELOCATION_N_MAX = 12


def relocation_campaign(
    trials: int = 30,
    seed: int = 0,
    cfg: SolverConfig = SolverConfig(),
    tolerance: float = EIGENVALUE_TOLERANCE,
) -> list[RelocationRecord]:
    """Seeded random relocation instances, each checked by
    ``verify_relocation`` in the orientation the eigenvector precondition
    allows; instances failing it both ways are redrawn.  A record that finds
    no instance within RELOCATION_DRAWS draws is reported inconclusive."""
    rng = np.random.default_rng(seed)
    records: list[RelocationRecord] = []
    while len(records) < trials:
        for _ in range(RELOCATION_DRAWS):
            branch_m = int(rng.integers(1, 3))
            n0_max = RELOCATION_N_MAX - branch_m * (CAMPAIGN_K - 1)
            n0 = int(rng.integers(CAMPAIGN_K, n0_max + 1))
            g0 = random_connected_hypergraph(rng, n0, int(rng.integers(0, 3)), CAMPAIGN_K)
            h = random_rooted_hypertree(rng, branch_m, CAMPAIGN_K)
            v1, v2 = (int(v) for v in rng.choice(n0, size=2, replace=False))
            rec = verify_relocation(g0, v1, v2, h, cfg, tolerance)
            if rec.status != "precondition-failed":
                break
        else:
            rec = replace(
                rec,
                status="inconclusive",
                detail=f"precondition failed both ways in {RELOCATION_DRAWS} draws",
            )
        records.append(rec)
    return records


def coalescence_campaign(
    trials: int = 20,
    seed: int = 0,
    cfg: SolverConfig = SolverConfig(),
    tolerance: float = EIGENVALUE_TOLERANCE,
) -> list[CoalescenceRecord]:
    """Seeded random coalescence instances: random connected host, random
    rooted hypertree branch."""
    rng = np.random.default_rng(seed)
    records = []
    for _ in range(trials):
        n0 = int(rng.integers(CAMPAIGN_K, 9))
        g0 = random_connected_hypergraph(rng, n0, int(rng.integers(0, 3)), CAMPAIGN_K)
        root = int(rng.integers(n0))
        h = random_rooted_hypertree(rng, int(rng.integers(1, 3)), CAMPAIGN_K)
        records.append(
            verify_coalescence_monotonicity(RootedHypergraph(g0, root), h, cfg, tolerance)
        )
    return records


def family_from_spec(text: str) -> tuple[str, list[Hypergraph], list[Hypergraph]]:
    """Parse a family descriptor into (name, members, expected minimizers).

    Forms: ``hypertrees:m=M,k=K`` and ``Tm:<base>,m=M`` with base one of
    ``edge:K``, ``complete:N:K``, ``cycle:L:K``.
    """
    text = text.strip()
    head, _, tail = text.partition(":")
    if head == "hypertrees":
        params = _parse_params(tail, {"m", "k"})
        m, k = params["m"], params["k"]
        fam = enumerate_hypertrees(m, k)
        return text, fam, [hyperstar(m, k).graph]
    if head == "Tm":
        base_text, _, mpart = tail.rpartition(",")
        params = _parse_params(mpart, {"m"})
        m = params["m"]
        parts = base_text.split(":")
        if parts[0] == "edge" and len(parts) == 2:
            g0 = hyperstar(1, int(parts[1])).graph
        elif parts[0] == "complete" and len(parts) == 3:
            g0 = complete_hypergraph(int(parts[1]), int(parts[2]))
        elif parts[0] == "cycle" and len(parts) == 3:
            g0 = cycle_blowup(int(parts[1]), int(parts[2]))
        else:
            raise ValueError(f"unknown family base {base_text!r}")
        fam = enumerate_family(g0, m)
        refs = [coalesce(RootedHypergraph(g0, u), hyperstar(m, g0.k)).graph for u in range(g0.n)]
        return text, fam, refs
    raise ValueError(f"unknown family spec {text!r}")


def _parse_params(text: str, expected: set[str]) -> dict[str, int]:
    out = {}
    for piece in text.split(","):
        piece = piece.strip()
        if not piece:
            continue
        key, _, val = piece.partition("=")
        if key not in expected or not val.lstrip("-").isdigit():
            raise ValueError(f"bad family parameter {piece!r}")
        if key in out:
            raise ValueError(f"family parameter {key!r} given twice")
        out[key] = int(val)
    if set(out) != expected:
        raise ValueError(f"family spec needs parameters {sorted(expected)}")
    return out


def check_minimizer_structure(
    report: SearchReport, references: list[Hypergraph]
) -> tuple[str, str]:
    """Classify a minimizer report against the expected minimizers.

    Returns (status, detail): pass when exactly one minimizer matches a
    reference up to isomorphism, inconclusive when any solve is unreliable,
    violation otherwise.
    """
    if not report.all_converged:
        return "inconclusive", "a family member's solve did not converge"
    if not report.oracle_agrees:
        return "inconclusive", "solver disagrees with the brute-force oracle"
    if len(report.minimizer_indices) != 1:
        return "violation", f"{len(report.minimizer_indices)} minimizers within tolerance"
    winner = report.minimizers[0].graph
    if not any(are_isomorphic(winner, ref) for ref in references):
        return "violation", "minimizer does not match the expected structure"
    return "pass", ""
