"""Builders for named hypergraph families and the two grafting operations.

Coalescence glues two rooted hypergraphs at their roots; branch relocation
detaches a rooted branch from one host vertex and reattaches it at another.
Both preserve vertex labels of the host so spectral data can be compared
coordinate-wise across the operation.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .hypergraph import Hypergraph, is_connected, is_hypertree


@dataclass(frozen=True)
class RootedHypergraph:
    """A hypergraph with one distinguished vertex."""

    graph: Hypergraph
    root: int

    def __post_init__(self) -> None:
        if not 0 <= self.root < self.graph.n:
            raise ValueError(f"root {self.root} is not a vertex of the graph")


def hyperstar(m: int, k: int) -> RootedHypergraph:
    """m pairwise disjoint k-edges sharing exactly the center vertex 0."""
    if m < 0:
        raise ValueError(f"edge count must be nonnegative, got {m}")
    n = 1 + m * (k - 1)
    edges = []
    for j in range(m):
        lo = 1 + j * (k - 1)
        edges.append((0,) + tuple(range(lo, lo + k - 1)))
    return RootedHypergraph(Hypergraph(n, k, tuple(edges)), 0)


def _check_graph_edges(edges) -> tuple[list[tuple[int, int]], int]:
    """Validate a simple-graph edge list; returns pairs and inferred n."""
    pairs = []
    seen = set()
    top = -1
    for e in edges:
        u, v = (int(x) for x in e)
        if u == v:
            raise ValueError(f"graph edge ({u}, {v}) is a loop")
        key = (min(u, v), max(u, v))
        if key in seen:
            raise ValueError(f"duplicate graph edge {key}")
        if key[0] < 0:
            raise ValueError(f"graph edge {key} has a negative vertex")
        seen.add(key)
        pairs.append(key)
        top = max(top, key[1])
    return pairs, top + 1


def kth_power_of_graph(edges, k: int) -> Hypergraph:
    """Expand each 2-edge of a simple graph with k-2 fresh vertices.

    Original vertices are 0..max label; fresh vertices are appended after
    them, grouped per edge in edge order.
    """
    if k < 2:
        raise ValueError(f"uniformity k must be at least 2, got {k}")
    pairs, n = _check_graph_edges(edges)
    out = []
    nxt = n
    for u, v in pairs:
        out.append(tuple(sorted((u, v) + tuple(range(nxt, nxt + k - 2)))))
        nxt += k - 2
    return Hypergraph(nxt, k, tuple(out))


def blowup_power(edges, k: int) -> Hypergraph:
    """Replace each vertex of a simple graph by a block of k/2 clones.

    Each 2-edge becomes the union of its endpoint blocks, so k must be even.
    Vertex v's block is {v*k/2, ..., v*k/2 + k/2 - 1}.
    """
    if k % 2 or k < 2:
        raise ValueError(f"blowup power needs even k >= 2, got {k}")
    pairs, n = _check_graph_edges(edges)
    half = k // 2
    block = lambda v: tuple(range(v * half, (v + 1) * half))
    out = [tuple(sorted(block(u) + block(v))) for u, v in pairs]
    return Hypergraph(n * half, k, tuple(out))


def cycle_blowup(length: int, k: int) -> Hypergraph:
    """Blowup power of the cycle on ``length`` vertices."""
    if length < 3:
        raise ValueError(f"cycle length must be at least 3, got {length}")
    edges = [(i, (i + 1) % length) for i in range(length)]
    return blowup_power(edges, k)


def complete_hypergraph(n: int, k: int) -> Hypergraph:
    """All k-subsets of {0, ..., n-1} as edges."""
    if n < k:
        raise ValueError(f"complete hypergraph needs n >= k, got n={n}, k={k}")
    return Hypergraph(n, k, tuple(itertools.combinations(range(n), k)))


@dataclass(frozen=True)
class Coalescence(RootedHypergraph):
    """Result of gluing two rooted hypergraphs at their shared root.

    Host vertices and edges keep their labels and order; branch vertices
    other than its root are appended in ascending original order, and the
    branch edges follow the first ``host_m`` (host) edges of ``graph``.
    """

    host_m: int

    def branch_root_edges(self) -> tuple[tuple[int, ...], ...]:
        """The branch's edges through the shared root, as vertex tuples."""
        return tuple(e for e in self.graph.edges[self.host_m:] if self.root in e)


def coalesce(host: RootedHypergraph, branch: RootedHypergraph) -> Coalescence:
    """Identify the two roots; the merged vertex keeps the host root's label."""
    g1, g2 = host.graph, branch.graph
    if g1.k != g2.k:
        raise ValueError(f"uniformity mismatch: {g1.k} vs {g2.k}")
    if g1.n == 0 or g2.n == 0:
        raise ValueError("coalescence needs nonempty vertex sets")
    fresh = (v for v in range(g2.n) if v != branch.root)
    label = {v: g1.n + i for i, v in enumerate(fresh)}
    label[branch.root] = host.root
    edges = g1.edges + tuple(tuple(sorted(label[v] for v in e)) for e in g2.edges)
    merged = Hypergraph(g1.n + g2.n - 1, g1.k, edges)
    return Coalescence(graph=merged, root=host.root, host_m=g1.m)


@dataclass(frozen=True)
class Relocation:
    """A branch grafted at host vertex v2 (``before``) versus at v1 (``after``).

    Both graphs begin with the host's edges in order, and the branch occupies
    the same appended labels ``branch_vertices`` in both, so a vector on one
    is meaningful on the other.
    """

    host: Hypergraph
    before: Hypergraph
    after: Hypergraph
    v1: int
    v2: int

    @property
    def branch_vertices(self) -> range:
        """The branch's vertices other than its root, in both graphs."""
        return range(self.host.n, self.before.n)


def relocate(host: Hypergraph, v1: int, v2: int, branch: RootedHypergraph) -> Relocation:
    """Build the pair (host at v2 with branch, host at v1 with branch)."""
    if v1 == v2:
        raise ValueError("relocation endpoints must be distinct")
    return Relocation(
        host=host,
        before=coalesce(RootedHypergraph(host, v2), branch).graph,
        after=coalesce(RootedHypergraph(host, v1), branch).graph,
        v1=v1,
        v2=v2,
    )


def attach_hypertrees(host: Hypergraph, assignments) -> Hypergraph:
    """Coalesce rooted hypertrees onto host vertices, one per assignment.

    ``assignments`` is a sequence of (vertex, rooted hypertree) pairs; vertex
    labels refer to the original host throughout, which stays valid because
    every step preserves them.
    """
    if not is_connected(host):
        raise ValueError("host must be connected")
    current = host
    for v, rt in assignments:
        if not 0 <= v < host.n:
            raise ValueError(f"attachment vertex {v} is not a host vertex")
        if not is_hypertree(rt.graph):
            raise ValueError("attached branch must be a hypertree")
        current = coalesce(RootedHypergraph(current, v), rt).graph
    return current
