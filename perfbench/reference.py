"""Reference values for the benchmark's checks, computed without heigen.

Nothing here imports heigen: a hypergraph is a vertex count and an (m, k)
integer array of edges.  The pieces are

- an edge contraction (A x^{k-1})_v written column by column, used to
  recompute the eigen-equation residual of a returned eigenpair;
- a Collatz-Wielandt power iteration that brackets the spectral radius rho
  of a connected hypergraph (Ng, Qi & Zhou, SIAM J. Matrix Anal. Appl. 31,
  2009); for odd-bipartite graphs the least H-eigenvalue is -rho (Shao, Shan
  & Wu, Linear Multilinear Algebra 2015);
- numpy.linalg.eigvalsh of a simple graph, whose least adjacency eigenvalue
  equals the least H-eigenvalue of its blowup power;
- networkx VF2 on vertex-edge incidence graphs, for isomorphism tests and
  for counting the isomorphism classes that pendant-edge growth reaches.
"""

from __future__ import annotations

import numpy as np

# networkx is imported where it is used, so that building a workload's
# inputs (which the set-up time measures) does not pay for it.


def as_edges(edges) -> np.ndarray:
    """Edges as an (m, k) int array."""
    return np.asarray([sorted(e) for e in edges], dtype=np.int64)


def contract(n: int, edges: np.ndarray, x: np.ndarray) -> np.ndarray:
    """(A x^{k-1})_v: for every edge and every position j in it, add the
    product of the other k-1 entries of x to the vertex at position j."""
    ex = x[edges]
    out = np.zeros(n)
    for j in range(edges.shape[1]):
        others = np.prod(np.delete(ex, j, axis=1), axis=1)
        out += np.bincount(edges[:, j], weights=others, minlength=n)
    return out


def residual(n: int, edges: np.ndarray, lam: float, x: np.ndarray) -> float:
    """Max-norm violation of A x^{k-1} = lam x^{[k-1]}, with x scaled to unit
    k-norm first so that the figure does not depend on the vector's scale."""
    k = edges.shape[1]
    x = np.asarray(x, dtype=np.float64)
    x = x / np.sum(np.abs(x) ** k) ** (1.0 / k)
    return float(np.max(np.abs(contract(n, edges, x) - lam * x ** (k - 1))))


def rho_bracket(n: int, edges: np.ndarray, width: float = 1e-10, max_iters: int = 200_000) -> tuple[float, float]:
    """Collatz-Wielandt bracket lo <= rho <= hi of a connected hypergraph.

    For every positive x, min_v and max_v of (A x^{k-1})_v / x_v^{k-1} bound
    rho.  The iteration x <- (A x^{k-1} + x^{k-1})^{1/(k-1)} (the unit shift
    makes the map primitive) drives both ends together.  Raises if the
    bracket is still wider than ``width`` times hi after ``max_iters`` steps.
    """
    k = edges.shape[1]
    x = np.ones(n)
    for _ in range(max_iters):
        y = contract(n, edges, x)
        ratios = y / x ** (k - 1)
        lo, hi = float(ratios.min()), float(ratios.max())
        if hi - lo <= width * hi:
            return lo, hi
        x = (y + x ** (k - 1)) ** (1.0 / (k - 1))
        x /= x.max()
    raise RuntimeError(f"Collatz-Wielandt bracket still [{lo}, {hi}] after {max_iters} steps")


def odd_bipartite(n: int, edges) -> bool:
    """Whether some vertex set meets every edge in an odd number of
    vertices: GF(2) elimination with each equation held as an int bitmask
    (bit n is the right-hand side 1)."""
    basis: dict[int, int] = {}  # leading bit -> reduced row
    for e in edges:
        row = (1 << n) | sum(1 << int(v) for v in e)
        while row & ((1 << n) - 1):
            lead = (row & ((1 << n) - 1)).bit_length() - 1
            if lead not in basis:
                basis[lead] = row
                break
            row ^= basis[lead]
        else:
            if row:
                return False  # reduced to 0 = 1
    return True


def graph_least_eigenvalue(n: int, pairs) -> float:
    """Least adjacency eigenvalue of a simple graph on vertices 0..n-1."""
    a = np.zeros((n, n))
    for u, v in pairs:
        a[u, v] = a[v, u] = 1.0
    return float(np.linalg.eigvalsh(a)[0])


def incidence_graph(n: int, edges):
    """Bipartite vertex-edge incidence graph; hypergraphs are isomorphic
    exactly when these are, by a map that keeps each side."""
    import networkx as nx

    g = nx.Graph()
    g.add_nodes_from((("v", v) for v in range(n)), side=0)
    g.add_nodes_from((("e", j) for j in range(len(edges))), side=1)
    g.add_edges_from((("v", int(v)), ("e", j)) for j, e in enumerate(edges) for v in e)
    return g


def _same_side(a: dict, b: dict) -> bool:
    return a["side"] == b["side"]


def _invariant(g) -> str:
    import networkx as nx

    return nx.weisfeiler_lehman_graph_hash(g, node_attr="side", iterations=3)


def _vf2(g, h) -> bool:
    import networkx as nx

    return nx.is_isomorphic(g, h, node_match=_same_side)


def isomorphic(a: tuple[int, list], b: tuple[int, list]) -> bool:
    """VF2 isomorphism of two hypergraphs given as (n, edges)."""
    return _vf2(incidence_graph(*a), incidence_graph(*b))


class IsoClasses:
    """Hypergraphs kept one per isomorphism class, bucketed by a
    Weisfeiler-Lehman hash and separated by VF2 inside each bucket."""

    def __init__(self):
        self.members: list[tuple[int, list]] = []
        self._buckets: dict[str, list] = {}

    def add(self, n: int, edges) -> bool:
        """Keep (n, edges) if no kept graph is isomorphic to it; True if kept."""
        g = incidence_graph(n, edges)
        bucket = self._buckets.setdefault(_invariant(g), [])
        if any(_vf2(g, h) for h in bucket):
            return False
        bucket.append(g)
        self.members.append((n, [tuple(e) for e in edges]))
        return True


def pendant_growth_classes(n0: int, edges0, k: int, rounds: int) -> list[tuple[int, list]]:
    """One representative per isomorphism class of the graphs reached from
    (n0, edges0) by ``rounds`` pendant-edge attachments (a new edge sharing
    exactly one vertex with the current graph)."""
    level = [(n0, [tuple(e) for e in edges0])]
    for _ in range(rounds):
        nxt = IsoClasses()
        for n, edges in level:
            for v in range(n):
                nxt.add(n + k - 1, edges + [(v,) + tuple(range(n, n + k - 1))])
        level = nxt.members
    return level


def hyperstar_edges(m: int, k: int) -> tuple[int, list]:
    """m k-edges that share only the centre vertex 0."""
    return 1 + m * (k - 1), [(0,) + tuple(range(1 + j * (k - 1), 1 + (j + 1) * (k - 1))) for j in range(m)]


def glue_hyperstar(n0: int, edges0, root: int, m: int, k: int) -> tuple[int, list]:
    """The host (n0, edges0) with a hyperstar of m edges glued at ``root``
    by its centre."""
    ns, star = hyperstar_edges(m, k)
    relabel = lambda v: root if v == 0 else n0 + v - 1
    return n0 + ns - 1, [tuple(e) for e in edges0] + [tuple(relabel(v) for v in e) for e in star]
