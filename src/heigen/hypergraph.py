"""k-uniform hypergraphs: storage, structural predicates, odd bipartitions, file I/O.

Vertices are the integers 0..n-1.  Edges are k-element subsets of the vertex
set, stored as sorted tuples in insertion order with set semantics: graphs
with the same n, k and edge set are equal whatever their edge order.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from functools import cached_property

import numpy as np

FILE_FORMAT = "hypergraph/1"


@dataclass(frozen=True, repr=False, eq=False)
class Hypergraph:
    """Immutable k-uniform hypergraph on vertex set {0, ..., n-1}."""

    n: int
    k: int
    edges: tuple[tuple[int, ...], ...] = ()

    def __post_init__(self) -> None:
        if not isinstance(self.n, int) or not isinstance(self.k, int):
            raise ValueError("n and k must be integers")
        if self.k < 2:
            raise ValueError(f"uniformity k must be at least 2, got {self.k}")
        if self.n < 0:
            raise ValueError(f"vertex count must be nonnegative, got {self.n}")
        norm = []
        seen = set()
        for e in self.edges:
            t = tuple(sorted(int(v) for v in e))
            if len(t) != self.k:
                raise ValueError(f"edge {tuple(e)} does not have {self.k} vertices")
            if len(set(t)) != self.k:
                raise ValueError(f"edge {tuple(e)} has repeated vertices")
            if t[0] < 0 or t[-1] >= self.n:
                raise ValueError(f"edge {tuple(e)} is not within 0..{self.n - 1}")
            if t in seen:
                raise ValueError(f"duplicate edge {t}")
            seen.add(t)
            norm.append(t)
        object.__setattr__(self, "edges", tuple(norm))

    @property
    def m(self) -> int:
        return len(self.edges)

    @cached_property
    def _edge_set(self) -> frozenset[tuple[int, ...]]:
        return frozenset(self.edges)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Hypergraph):
            return NotImplemented
        return (self.n, self.k, self._edge_set) == (other.n, other.k, other._edge_set)

    def __hash__(self) -> int:
        return hash((self.n, self.k, self._edge_set))

    @cached_property
    def edge_array(self) -> np.ndarray:
        """Edges as an (m, k) int array; empty graphs give shape (0, k)."""
        if not self.edges:
            return np.empty((0, self.k), dtype=np.intp)
        arr = np.asarray(self.edges, dtype=np.intp)
        arr.setflags(write=False)
        return arr

    @cached_property
    def _vertex_edges(self) -> tuple[tuple[int, ...], ...]:
        star: list[list[int]] = [[] for _ in range(self.n)]
        for j, e in enumerate(self.edges):
            for v in e:
                star[v].append(j)
        return tuple(tuple(s) for s in star)

    def _check_vertex(self, v: int) -> int:
        if not isinstance(v, (int, np.integer)) or not 0 <= v < self.n:
            raise ValueError(f"vertex {v} is not in 0..{self.n - 1}")
        return int(v)

    def degree(self, v: int) -> int:
        """Number of edges containing v."""
        return len(self._vertex_edges[self._check_vertex(v)])

    def edge_star(self, v: int) -> tuple[tuple[int, ...], ...]:
        """The edges containing v, in stored order."""
        return tuple(self.edges[j] for j in self._vertex_edges[self._check_vertex(v)])

    def incident_edge_indices(self, v: int) -> tuple[int, ...]:
        """Indices into ``edges`` of the edges containing v."""
        return self._vertex_edges[self._check_vertex(v)]

    def __repr__(self) -> str:
        return f"Hypergraph(n={self.n}, k={self.k}, m={self.m})"


@dataclass(frozen=True)
class Bipartition:
    """Vertex 2-coloring; ``side[v]`` is 1 for the odd part, 0 otherwise."""

    side: tuple[int, ...]

    def __post_init__(self) -> None:
        if any(s not in (0, 1) for s in self.side):
            raise ValueError("sides must be 0 or 1")
        object.__setattr__(self, "side", tuple(int(s) for s in self.side))

    def parts(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        ones = tuple(v for v, s in enumerate(self.side) if s == 1)
        zeros = tuple(v for v, s in enumerate(self.side) if s == 0)
        return ones, zeros


def is_connected(g: Hypergraph) -> bool:
    """True when every pair of vertices is joined by a walk through shared edges.

    Graphs with at most one vertex count as connected; isolated vertices in
    larger graphs do not.
    """
    if g.n <= 1:
        return True
    seen = [False] * g.n
    seen[0] = True
    stack = [0]
    reached = 1
    while stack:
        v = stack.pop()
        for j in g.incident_edge_indices(v):
            for u in g.edges[j]:
                if not seen[u]:
                    seen[u] = True
                    reached += 1
                    stack.append(u)
    return reached == g.n


def induced_subhypergraph(g: Hypergraph, vertices) -> tuple[Hypergraph, tuple[int, ...]]:
    """Restrict to the edges lying inside ``vertices``, relabeling to 0..len-1.

    Returns the restricted graph and the old labels in relabeling order
    (position i holds the original label of new vertex i).
    """
    keep = sorted({g._check_vertex(v) for v in vertices})
    index = {v: i for i, v in enumerate(keep)}
    kept_edges = [tuple(index[v] for v in e) for e in g.edges if all(v in index for v in e)]
    return Hypergraph(len(keep), g.k, tuple(kept_edges)), tuple(keep)


def is_hypertree(g: Hypergraph) -> bool:
    """Connected and acyclic: m(k-1) == n-1 with all vertices reachable."""
    return is_connected(g) and g.m * (g.k - 1) == g.n - 1


def is_odd_bipartition(g: Hypergraph, bip: Bipartition) -> bool:
    """Check that every edge meets the 1-side in an odd number of vertices."""
    if len(bip.side) != g.n:
        raise ValueError(f"bipartition covers {len(bip.side)} vertices, graph has {g.n}")
    return all(sum(bip.side[v] for v in e) % 2 == 1 for e in g.edges)


def find_odd_bipartition(g: Hypergraph) -> Bipartition | None:
    """Search for a bipartition with every edge odd on one side, or None.

    One GF(2) equation per edge: the incidence row times the side vector
    must equal 1.  Gaussian elimination decides solvability exactly.
    """
    if g.m == 0:
        return Bipartition((0,) * g.n)
    a = np.zeros((g.m, g.n + 1), dtype=np.uint8)
    for j, e in enumerate(g.edges):
        a[j, list(e)] = 1
    a[:, g.n] = 1
    row = 0
    pivots: list[int] = []
    for col in range(g.n):
        hits = np.nonzero(a[row:, col])[0]
        if hits.size == 0:
            continue
        p = row + int(hits[0])
        if p != row:
            a[[row, p]] = a[[p, row]]
        others = np.nonzero(a[:, col])[0]
        others = others[others != row]
        a[others] ^= a[row]
        pivots.append(col)
        row += 1
        if row == g.m:
            break
    if np.any((a[:, : g.n].sum(axis=1) == 0) & (a[:, g.n] == 1)):
        return None
    side = [0] * g.n
    for i, col in enumerate(pivots):
        side[col] = int(a[i, g.n])
    bip = Bipartition(tuple(side))
    assert is_odd_bipartition(g, bip)
    return bip


def to_json_dict(g: Hypergraph) -> dict:
    return {
        "format": FILE_FORMAT,
        "k": g.k,
        "n": g.n,
        "edges": sorted(list(e) for e in g.edges),
    }


def dumps(g: Hypergraph) -> str:
    """Canonical serialization: sorted keys, two-space indent, trailing newline."""
    return json.dumps(to_json_dict(g), sort_keys=True, indent=2) + "\n"


def _is_json_int(v) -> bool:
    """A JSON integer; true and false parse to bool, a subclass of int."""
    return isinstance(v, int) and not isinstance(v, bool)


def from_json_dict(obj) -> Hypergraph:
    if not isinstance(obj, dict):
        raise ValueError("hypergraph document must be a JSON object")
    expected = {"format", "k", "n", "edges"}
    if set(obj) != expected:
        raise ValueError(f"hypergraph document must have exactly the keys {sorted(expected)}")
    if obj["format"] != FILE_FORMAT:
        raise ValueError(f"unsupported format {obj['format']!r}, expected {FILE_FORMAT!r}")
    n, k, edges = obj["n"], obj["k"], obj["edges"]
    if not (_is_json_int(n) and _is_json_int(k)):
        raise ValueError("n and k must be integers")
    if not isinstance(edges, list) or not all(isinstance(e, list) for e in edges):
        raise ValueError("edges must be a list of lists")
    for e in edges:
        if not all(_is_json_int(v) for v in e):
            raise ValueError(f"edge {e} has non-integer vertices")
        if list(e) != sorted(e):
            raise ValueError(f"edge {e} is not sorted ascending")
    if edges != sorted(edges):
        raise ValueError("the edge list is not sorted")
    return Hypergraph(n, k, tuple(tuple(e) for e in edges))


def loads(text: str) -> Hypergraph:
    return from_json_dict(json.loads(text))


def save(g: Hypergraph, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(g))


def load(path) -> Hypergraph:
    with open(path, "r", encoding="utf-8") as fh:
        return loads(fh.read())


def file_sha256(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()
