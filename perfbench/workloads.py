"""The benchmark's three workloads: inputs, operations and output checks.

A workload is built from its seed (this is the set-up that ``setup_s``
times) and holds one round of operations.  ``run.py`` repeats whole rounds,
so every run attempts the same operations in the same proportions.

After the timed loop, ``references`` computes the values the outputs are
checked against, with ``reference.py`` only, and ``check`` classifies one
output:

- ``PASS``: the output agrees with the reference;
- ``FAIL``: heigen itself reported failure (a nonzero exit code, a result
  marked not converged, or an exception);
- ``WRONG``: heigen reported success but the output disagrees with the
  reference.  Any WRONG output makes the run incorrect.
"""

from __future__ import annotations

import itertools
import json
import os
from typing import Callable, NamedTuple

import numpy as np

import heigen
from heigen import analysis, canon, cli, spectral

import reference as ref

PASS, FAIL, WRONG = "pass", "fail", "wrong"
TOL = 1e-6
RESIDUAL_TOL = 1e-8


class Op(NamedTuple):
    kind: str
    label: str
    run: Callable[[str], object]  # called with a tag unique to the round and op


def call(module, name: str, *args):
    """An operation calling module.name(*args); the attribute is looked up
    at call time, so tracing wrappers installed after set-up are seen."""
    return lambda tag: getattr(module, name)(*args)


# ---------------------------------------------------------------- shapes
# Hypergraphs are built here as (n, edges) with plain numpy randomness and
# handed to heigen as Hypergraph values; no heigen constructor is used.


def single_edge(k: int) -> tuple[int, list]:
    return k, [tuple(range(k))]


def blowup(pairs) -> tuple[int, list]:
    """4-uniform blowup power: vertex v becomes {2v, 2v+1}."""
    n = 1 + max(max(p) for p in pairs)
    return 2 * n, [tuple(sorted((2 * u, 2 * u + 1, 2 * v, 2 * v + 1))) for u, v in pairs]


def cycle_pairs(length: int) -> list:
    return [(i, (i + 1) % length) for i in range(length)]


def complete_edges(n: int, k: int) -> tuple[int, list]:
    return n, list(itertools.combinations(range(n), k))


def random_tree_pairs(rng: np.random.Generator, n: int) -> list:
    """Recursive random tree: vertex i hangs from a uniform earlier vertex."""
    return [(int(rng.integers(i)), i) for i in range(1, n)]


def random_graph_pairs(rng: np.random.Generator, n: int, extra: int) -> list:
    """A random spanning tree plus ``extra`` distinct random chords."""
    pairs = {tuple(sorted(p)) for p in random_tree_pairs(rng, n)}
    while len(pairs) < n - 1 + extra:
        pairs.add(tuple(sorted(int(v) for v in rng.choice(n, 2, replace=False))))
    return sorted(pairs)


def grow_pendants(rng: np.random.Generator, n: int, edges, k: int, count: int) -> tuple[int, list]:
    """Attach ``count`` pendant edges, each at a uniform existing vertex."""
    edges = list(edges)
    for _ in range(count):
        edges.append((int(rng.integers(n)),) + tuple(range(n, n + k - 1)))
        n += k - 1
    return n, edges


def relabel(rng: np.random.Generator, n: int, edges) -> tuple[int, list]:
    perm = rng.permutation(n)
    return n, sorted(tuple(sorted(int(perm[v]) for v in e)) for e in edges)


def to_heigen(n: int, edges) -> heigen.Hypergraph:
    return heigen.Hypergraph(n, len(edges[0]), tuple(tuple(e) for e in edges))


# ---------------------------------------------------------------- verify

# Family specs as the heigen CLI spells them, with the base graph, its
# uniformity, the number of pendant edges grown and whether the expected
# minimizer is a plain hyperstar (hypertree families) or the base with a
# hyperstar glued at one vertex (Tm families).
FAMILIES = {
    "hypertrees:m=3,k=4": (single_edge(4), 4, 2, "hyperstar"),
    "hypertrees:m=4,k=4": (single_edge(4), 4, 3, "hyperstar"),
    "Tm:edge:4,m=2": (single_edge(4), 4, 2, "glued"),
    "Tm:edge:4,m=3": (single_edge(4), 4, 3, "glued"),
    "Tm:cycle:3:4,m=1": (blowup(cycle_pairs(3)), 4, 1, "glued"),
    "Tm:cycle:3:4,m=2": (blowup(cycle_pairs(3)), 4, 2, "glued"),
    "Tm:complete:5:4,m=1": (complete_edges(5, 4), 4, 1, "glued"),
    "Tm:complete:5:4,m=2": (complete_edges(5, 4), 4, 2, "glued"),
}
MINIMIZER_FAMILIES = tuple(FAMILIES)
IDENTITY_FAMILIES = ("hypertrees:m=3,k=4", "hypertrees:m=4,k=4", "Tm:cycle:3:4,m=1", "Tm:complete:5:4,m=1")
# The relocation trials use the first campaign seeds, not seed-drawn ones:
# a trial's cost swings from about 1 s to 7 s with the precondition redraws
# its seed needs, which alone spread ops_per_s by 20 % over five seeds.
# Campaign seed 2 needs redraws, so attempts_per_record still sees them.
RELOCATION_SEEDS = ("0", "1", "2")
COALESCENCES = 3
# The family calls keep the CLI's default seed.  With seed-drawn solver and
# oracle seeds, brute_force_min misses the minimum on some seeds (on
# Tm:complete:5:4,m=1 with --seed 596836679 it settles at -2.516832 against
# the solver's -2.525900) and the call exits 2, so failures would depend on
# the seed.
FAMILY_SEED = "0"


class Verify:
    """In-process ``heigen verify ... --json --out`` calls: the paper's
    relocation and coalescence results, the minimizer structure and the
    odd-bipartite identity, end to end through the CLI."""

    name = "verify"

    def __init__(self, seed: int, outdir: str):
        self.outdir = outdir
        seeds = np.random.default_rng(seed).integers(0, 2**31 - 1, size=COALESCENCES)
        argvs = []
        for campaign_seed in RELOCATION_SEEDS:
            argvs.append(("relocation", ["verify", "relocation", "--trials", "1", "--seed", campaign_seed]))
        for s in seeds:
            argvs.append(("coalescence", ["verify", "coalescence", "--trials", "1", "--seed", str(s)]))
        for fam in MINIMIZER_FAMILIES:
            argvs.append(("minimizer", ["verify", "minimizer", "--family", fam, "--seed", FAMILY_SEED]))
        for fam in IDENTITY_FAMILIES:
            argvs.append(("identity", ["verify", "odd-bipartite-identity", "--family", fam, "--seed", FAMILY_SEED]))
        self.argvs = argvs
        self.ops = [Op(kind, " ".join(argv), self._runner(argv)) for kind, argv in argvs]
        # the op repeated outside the timed region for the byte-identity check
        self.repeat_index = len(self.ops) - 1
        self._first_bytes: dict[int, bytes] = {}

    def _runner(self, argv):
        def run(tag: str):
            path = os.path.join(self.outdir, f"{tag}.json")
            return cli.main(argv + ["--json", "--out", path]), path

        return run

    def references(self) -> None:
        self.refs = {}
        for spec, ((n0, edges0), k, rounds, shape) in FAMILIES.items():
            members = ref.pendant_growth_classes(n0, edges0, k, rounds)
            if shape == "hyperstar":
                expected = [ref.hyperstar_edges(rounds + 1, k)]
            else:
                expected = [ref.glue_hyperstar(n0, edges0, u, rounds, k) for u in range(n0)]
            self.refs[spec] = (members, expected, shape == "hyperstar", rounds + 1)

    def repeat(self) -> bool:
        """Run one operation again, untimed; its report must be byte-identical."""
        _, path = self.ops[self.repeat_index].run("repeat")
        with open(path, "rb") as fh:
            return fh.read() == self._first_bytes[self.repeat_index]

    def check(self, i: int, outs: list) -> str:
        if isinstance(outs[i], Exception):
            return FAIL
        rc, path = outs[i]
        if rc != 0:
            return FAIL
        with open(path, "rb") as fh:
            raw = fh.read()
        if self._first_bytes.setdefault(i, raw) != raw:
            return WRONG  # equal manifests must give equal bytes in every round
        payload = json.loads(raw)
        kind, argv = self.argvs[i]
        summary = payload["summary"]
        if summary["violation"] or summary["inconclusive"]:
            return WRONG  # exit code 0 must mean every record passed
        ok = getattr(self, f"_check_{kind}")(payload, argv)
        return PASS if ok else WRONG

    @staticmethod
    def _check_relocation(payload, argv) -> bool:
        recs = payload["records"]
        return len(recs) == 1 and all(
            r["status"] == "pass" and r["lambda_after"] <= r["lambda_before"] + TOL for r in recs
        )

    @staticmethod
    def _check_coalescence(payload, argv) -> bool:
        recs = payload["records"]
        return len(recs) == 1 and all(
            r["status"] == "pass" and r["lambda_merged"] <= r["lambda_host"] + TOL for r in recs
        )

    def _check_minimizer(self, payload, argv) -> bool:
        members, expected, is_hypertree_family, m = self.refs[argv[3]]
        report = payload["report"]
        entries = report["entries"]
        graphs = [(e["n"], [tuple(x) for x in e["edges"]]) for e in entries]
        if payload["status"] != "pass" or not _same_classes(graphs, members):
            return False
        if len(report["minimizer_indices"]) != 1:
            return False
        win = entries[report["minimizer_indices"][0]]
        if not any(ref.isomorphic(graphs[report["minimizer_indices"][0]], g) for g in expected):
            return False
        if is_hypertree_family and abs(win["lambda"] + m**0.25) > TOL:
            return False
        for (n, edges), e in zip(graphs, entries):
            lo, hi = ref.rho_bracket(n, ref.as_edges(edges))
            if e["lambda"] < -hi - TOL:
                return False  # every H-eigenvalue has modulus at most rho
            if ref.odd_bipartite(n, edges) and abs(e["lambda"] + hi) > TOL:
                return False
        return True

    def _check_identity(self, payload, argv) -> bool:
        members = self.refs[argv[3]][0]
        recs = payload["records"]
        if len(recs) != len(members) or any(r["status"] != "pass" for r in recs):
            return False
        want = sorted((ref.rho_bracket(n, ref.as_edges(e))[1], ref.odd_bipartite(n, e)) for n, e in members)
        got = sorted((r["rho"], r["has_witness"]) for r in recs)
        if any(abs(a[0] - b[0]) > TOL for a, b in zip(want, got)):
            return False
        if sum(w for _, w in want) != sum(r["has_witness"] for r in recs):
            return False
        for r in recs:
            gap = r["lambda_min"] + r["rho"]
            if gap < -TOL or (r["has_witness"] and abs(gap) > TOL):
                return False
        return True


def _same_classes(graphs, members) -> bool:
    """The graphs are pairwise non-isomorphic and each is isomorphic to one
    of ``members``, which has as many entries."""
    if len(graphs) != len(members):
        return False
    seen = ref.IsoClasses()
    if not all(seen.add(*g) for g in graphs):
        return False
    return all(not seen.add(*g) for g in members)


# ---------------------------------------------------------------- solve-large

# Hyperstar edge counts are drawn per seed from these ranges.  The last
# star sets the peak memory (its dense scatter matrix is (4m) x (3m + 1)),
# so its range is narrow.
STAR_RANGES = ((125, 175), (275, 325), (490, 500))
# Random structures come from fixed generator seeds: with the seed-drawn
# structure, about one instance in twelve misses the 1e-8 residual because
# of the descent's iteration cap, which would make failures depend on the
# seed.
FIXED_HYPERTREE = (0, 50)  # (generator seed, edges)
# Kept failures, operations that fail on every run because the descent
# stops at its iteration cap before it converges.  They count in ``failed``
# whether heigen reports the failure or not: the tree blowup comes back
# marked converged, with residual 2.8e-10, at an eigenvalue 2.4e-6 above
# the least one.
KEPT_TREE = (0, 60)  # (generator seed, base vertices)
KEPT_GRAPH = (0, 150, 75)  # (generator seed, base vertices, chords)
KEPT_CYCLES = (101, 100)


class SolveLarge:
    """``least_h_eigenvalue`` on graphs with hundreds to about 1500 vertices,
    where the per-iteration array work dominates."""

    name = "solve-large"

    def __init__(self, seed: int, outdir: str):
        rng = np.random.default_rng(seed)
        cases = []  # (kind, label, (n, edges), reference recipe)
        for lo, hi in STAR_RANGES:
            m = int(rng.integers(lo, hi + 1))
            cases.append(("hyperstar", f"hyperstar({m},4)", ref.hyperstar_edges(m, 4), ("star", m)))
        gseed, m = FIXED_HYPERTREE
        ht = grow_pendants(np.random.default_rng(gseed), *single_edge(4), 4, m - 1)
        cases.append(("hypertree", f"random hypertree m={m}", ht, ("rho",)))
        gseed, nb = KEPT_TREE
        pairs = random_tree_pairs(np.random.default_rng(gseed), nb)
        cases.append(("kept-failure", f"random tree blowup n={nb}", blowup(pairs), ("graph", nb, pairs)))
        gseed, nb, extra = KEPT_GRAPH
        pairs = random_graph_pairs(np.random.default_rng(gseed), nb, extra)
        cases.append(("kept-failure", f"random graph blowup n={nb}", blowup(pairs), ("graph", nb, pairs)))
        for length in KEPT_CYCLES:
            pairs = cycle_pairs(length)
            cases.append(("kept-failure", f"cycle_blowup({length},4)", blowup(pairs), ("graph", length, pairs)))
        self.cases = cases
        self.graphs = [to_heigen(n, edges) for _, _, (n, edges), _ in cases]
        self.ops = [Op(kind, label, call(spectral, "least_h_eigenvalue", g))
                    for (kind, label, _, _), g in zip(cases, self.graphs)]

    def references(self) -> None:
        self.refs = []
        for _, _, (n, edges), recipe in self.cases:
            if recipe[0] == "star":
                self.refs.append(-recipe[1] ** 0.25)
            elif recipe[0] == "rho":
                self.refs.append(-ref.rho_bracket(n, ref.as_edges(edges))[1])
            else:
                self.refs.append(ref.graph_least_eigenvalue(recipe[1], recipe[2]))

    def check(self, i: int, outs: list) -> str:
        out = outs[i]
        if isinstance(out, Exception) or not out.converged:
            return FAIL
        n, edges = self.cases[i][2]
        res = ref.residual(n, ref.as_edges(edges), out.eigenvalue, out.vector)
        if abs(out.eigenvalue - self.refs[i]) <= TOL and res <= RESIDUAL_TOL:
            return PASS
        return FAIL if self.cases[i][0] == "kept-failure" else WRONG


# ---------------------------------------------------------------- enumerate

# Enumerations whose single call takes about 0.1-2 s; inputs are fixed.
ENUMERATIONS = (
    ("hypertrees", 5, 2),
    ("hypertrees", 4, 4),
    ("family", "edge:4", 3),
    ("family", "cycle:3:4", 2),
    ("family", "complete:5:4", 2),
    ("family", "edge:2", 4),
)
BASES = {
    "edge:2": single_edge(2),
    "edge:4": single_edge(4),
    "cycle:3:4": blowup(cycle_pairs(3)),
    "complete:5:4": complete_edges(5, 4),
}
# Family members for the isomorphism operations: (base, pendant edges),
# cycled through; one graph per entry of ISO_GRAPHS.  Their shapes come
# from a fixed generator seed and only their relabellings from the workload
# seed: canonical_form's cost is set by the shape (5 ms against 35 ms for
# two members of one family), and seed-drawn shapes moved op_p50_ms by a
# quarter between seeds.
MEMBER_SHAPES = (("edge:4", 3), ("cycle:3:4", 2), ("edge:2", 4), ("complete:5:4", 1))
ISO_GRAPHS = 32
MEMBER_SEED = 0


class Enumerate:
    """Family enumeration and canonical labeling; no eigenvalue is computed."""

    name = "enumerate"

    def __init__(self, seed: int, outdir: str):
        rng = np.random.default_rng(seed)
        ops, self.expect = [], []
        for what, a, b in ENUMERATIONS:
            if what == "hypertrees":
                ops.append(Op("enumerate", f"enumerate_hypertrees({a}, {b})", call(analysis, "enumerate_hypertrees", a, b)))
                self.expect.append(("members", single_edge(b), b, a - 1))
            else:
                n0, edges0 = BASES[a]
                g0 = to_heigen(n0, edges0)
                ops.append(Op("enumerate", f"enumerate_family({a}, {b})", call(analysis, "enumerate_family", g0, b)))
                self.expect.append(("members", (n0, edges0), len(edges0[0]), b))
        shapes = np.random.default_rng(MEMBER_SEED)
        for j in range(ISO_GRAPHS):
            base, count = MEMBER_SHAPES[j % len(MEMBER_SHAPES)]
            n0, edges0 = BASES[base]
            k = len(edges0[0])
            g = grow_pendants(shapes, n0, edges0, k, count)
            # a sibling: the same growth with the last pendant edge moved
            moved = list(g[1])
            last = moved[-1]
            moved[-1] = (int(shapes.integers(g[0] - k + 1)),) + last[1:]
            h = (g[0], moved)
            copies = [relabel(rng, *g) for _ in range(5)] + [relabel(rng, *h)]
            hg = [to_heigen(n, e) for n, e in copies]
            label = f"{base}+{count} #{j}"
            ops.append(Op("canonical_form", label, call(canon, "canonical_form", hg[0])))
            self.expect.append(("form", g))
            ops.append(Op("canonical_form", label + " relabelled", call(canon, "canonical_form", hg[1])))
            self.expect.append(("same-form", len(ops) - 2, g))
            ops.append(Op("are_isomorphic", label + " copies", call(canon, "are_isomorphic", hg[2], hg[3])))
            self.expect.append(("iso", g, g))
            ops.append(Op("are_isomorphic", label + " sibling", call(canon, "are_isomorphic", hg[4], hg[5])))
            self.expect.append(("iso", g, h))
        self.ops = ops

    def references(self) -> None:
        self.refs = []
        for e in self.expect:
            if e[0] == "members":
                (n0, edges0), k, rounds = e[1], e[2], e[3]
                self.refs.append(ref.pendant_growth_classes(n0, edges0, k, rounds))
            elif e[0] == "iso":
                self.refs.append(ref.isomorphic(e[1], e[2]))
            else:
                self.refs.append(None)

    def check(self, i: int, outs: list) -> str:
        out = outs[i]
        if isinstance(out, Exception):
            return FAIL
        e = self.expect[i]
        if e[0] == "members":
            ok = _same_classes([(g.n, list(g.edges)) for g in out], self.refs[i])
        elif e[0] == "iso":
            ok = out == self.refs[i]
        else:
            n, k, edges = out
            ok = ref.isomorphic((n, list(edges)), e[-1])
            if e[0] == "same-form":
                ok = ok and out == outs[e[1]]
        return PASS if ok else WRONG


WORKLOADS = {w.name: w for w in (Verify, SolveLarge, Enumerate)}
