"""Isomorphism-invariant canonical forms for small uniform hypergraphs.

Vertices with identical edge stars are interchangeable by an automorphism,
so they fall into twin classes, and every edge is a disjoint union of whole
classes.  Relabelings that keep each class contiguous reach every edge list
the quotient structure can produce, so the lexicographic minimum over class
orderings is a true canonical form.  A branch-and-bound over class orderings
finds it, pruning a node when its edges, padded with the next free labels,
sort no lower than the incumbent: no completion sorts below that padding.
Children are tried in the order of a colour refinement of the classes,
computed once per call, so the search's size does not depend on how the
input is labelled; the result does not depend on that order at all, because
it is the least leaf and the bound holds for every completion.  A search
visiting more than ``NODE_BUDGET`` nodes raises ``SearchBudgetExceeded``.
"""

from __future__ import annotations

from collections import defaultdict

from .hypergraph import Hypergraph

CanonicalForm = tuple[int, int, tuple[tuple[int, ...], ...]]

# Far beyond anything the desk-scale families need; read at call time.
NODE_BUDGET = 1_000_000


def twin_classes(g: Hypergraph) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Vertex classes with identical edge stars as (members, star) pairs, the
    star being the indices of the class's edges, ordered by least member.

    The stars are built here rather than read from the graph's cached ones:
    family growth labels every child it makes, and each member it keeps
    would otherwise carry a tuple per vertex for as long as it lives.
    """
    stars: list[list[int]] = [[] for _ in range(g.n)]
    for j, e in enumerate(g.edges):
        for v in e:
            stars[v].append(j)
    by_star: dict[tuple[int, ...], list[int]] = defaultdict(list)
    for v, star in enumerate(stars):
        by_star[tuple(star)].append(v)
    return [(tuple(c), star) for star, c in by_star.items()]  # first seen, so least member first


class SearchBudgetExceeded(RuntimeError):
    pass


def _refined_order(sizes: list[int], class_edges: list[tuple[int, ...]], m: int) -> list[int]:
    """Class indices by colour refinement, ties by least member.

    A class starts coloured by its degree (highest first) and size; each
    round recolours it by its colour and the sorted colours of the other
    classes in each of its edges, until no colour splits.  Colours are ranks
    of such signatures, so the order depends on the labelling only through
    ties, and the search visits about as many nodes for every relabelling.
    """
    edge_classes: list[list[int]] = [[] for _ in range(m)]
    for i, es in enumerate(class_edges):
        for j in es:
            edge_classes[j].append(i)
    colour: list = [(-len(es), size) for size, es in zip(sizes, class_edges)]
    while True:
        sig = [
            (colour[i], tuple(sorted(tuple(sorted(colour[c] for c in edge_classes[j] if c != i)) for j in es)))
            for i, es in enumerate(class_edges)
        ]
        rank = {s: t for t, s in enumerate(sorted(set(sig)))}
        if len(rank) == len(set(colour)):
            return sorted(range(len(sizes)), key=lambda i: (rank[sig[i]], i))
        colour = [rank[s] for s in sig]


def canonical_form(g: Hypergraph) -> CanonicalForm:
    """Lexicographically least edge list over class-contiguous relabelings.

    Equal outputs characterize isomorphic graphs.  Raises
    SearchBudgetExceeded if the branch-and-bound visits more than
    ``NODE_BUDGET`` nodes.
    """
    classes = twin_classes(g)
    sizes = [len(c) for c, _ in classes]
    # Every member of a class has exactly the class's star, so an edge that
    # meets a class contains all of it: each edge is a union of whole classes.
    class_edges = [star for _, star in classes]
    m, k = g.m, g.k
    order = _refined_order(sizes, class_edges, m)

    known: list[list[int]] = [[] for _ in range(m)]
    used = [False] * len(classes)
    best: list[tuple[int, ...]] | None = None
    nodes = 0

    def viable(next_label: int) -> bool:
        """Completion bound against the incumbent; True means keep searching.

        An edge's labels still to come are distinct and at least
        ``next_label``, so its final tuple is elementwise at least its known
        labels padded with ``next_label, next_label + 1, ...``.  Sorting is
        monotone, so no completion sorts below the padded edges, and pruning
        when they are no smaller than the incumbent keeps every strictly
        smaller leaf.
        """
        if best is None:
            return True
        bound = sorted(tuple(p) + tuple(range(next_label, next_label + k - len(p))) for p in known)
        return bound < best

    def descend(next_label: int) -> None:
        nonlocal best, nodes
        nodes += 1
        if nodes > NODE_BUDGET:
            raise SearchBudgetExceeded(f"canonical search exceeded {NODE_BUDGET} nodes")
        if next_label == g.n:
            best = sorted(tuple(p) for p in known)  # viable() passes only smaller leaves
            return
        for c in order:
            if used[c]:
                continue
            block = list(range(next_label, next_label + sizes[c]))
            used[c] = True
            for j in class_edges[c]:
                known[j].extend(block)
            if viable(next_label + sizes[c]):
                descend(next_label + sizes[c])
            for j in class_edges[c]:
                del known[j][-sizes[c]:]
            used[c] = False

    descend(0)
    if best is None:
        raise RuntimeError("canonical search ended without a labelling")
    return (g.n, g.k, tuple(best))


def are_isomorphic(g1: Hypergraph, g2: Hypergraph) -> bool:
    if (g1.n, g1.k, g1.m) != (g2.n, g2.k, g2.m):
        return False
    # (size, degree) per class: implies equal degree sequences and class sizes
    shape1, shape2 = (sorted((len(c), len(star)) for c, star in twin_classes(g)) for g in (g1, g2))
    if shape1 != shape2:
        return False
    return canonical_form(g1) == canonical_form(g2)
