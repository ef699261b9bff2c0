"""Centres, distances and canonical codes of finite trees.

A tree is an adjacency dict {vertex: neighbours} on sortable vertex ids.
The code of a rooted subtree is "(" + the sorted codes of its children +
")"; two rooted trees are isomorphic exactly when their codes are equal.
The canonical code of an unrooted tree roots it at its centre, found by
peeling leaves layer by layer: "(...)" for a single centre vertex, and
"[" + the two sorted half codes + "]" for a centre edge.

`hung` walks a tree hung from its centre once, for the codes; the same
walk gives each vertex's depth below the centre, hence its eccentricity,
and its Aut-orbit label, the codes on its path from the centre
(`Hung.orbits`, which the catalog's growth reads).  `hang` adds the runs
of equal sibling subtrees and whether the centre edge flips.  Aut is
built from the permutations of each run and the flip (Jordan, 1869), so
|Aut| = prod m! over the runs, times 2 for a flip (`order_of_runs`, which
`aut_order` and the Aut(S) generators share).

These strings fix the order of the shape catalog, and so the index of
each catalog shape, and they match the subtrees that give the Aut(S)
generators, so their exact form is part of the library's output.
"""

from __future__ import annotations

import math
from itertools import groupby
from typing import NamedTuple


def bfs(adj, root, parent=None) -> tuple:
    """Breadth-first order from root, never stepping onto parent, and the
    parent of each vertex reached (parent itself for root)."""
    order = [root]
    parent_of = {root: parent}
    for u in order:
        for n in adj[u]:
            if n != parent and n not in parent_of:
                parent_of[n] = u
                order.append(n)
    return order, parent_of


def distances(adj, start) -> dict:
    """Edge distance from start to every vertex of its component."""
    order, parent_of = bfs(adj, start)
    dist = {start: 0}
    for u in order[1:]:
        dist[u] = dist[parent_of[u]] + 1
    return dist


def center(adj) -> list:
    """The one or two central vertices, sorted, by peeling leaves."""
    deg = {v: len(ns) for v, ns in adj.items()}
    layer = [v for v, d in deg.items() if d <= 1]
    alive = len(adj)
    while alive > 2:
        alive -= len(layer)
        nxt = []
        for v in layer:
            for n in adj[v]:
                deg[n] -= 1
                if deg[n] == 1:
                    nxt.append(n)
        layer = nxt
    return sorted(layer)


class Hung(NamedTuple):
    """A tree hung from its centre, off one breadth-first walk of each half:
    the sorted centre vertices, the code of the subtree below each vertex,
    the walk (order, parent_of) of each half, and (vertex, parent) for each
    vertex with two children of one code, in walk order.  A centre vertex
    has one half, the whole tree; a centre edge has two, one on each side
    of it."""

    centre: list
    code: dict
    walks: list
    twins: list

    def canonical(self) -> str:
        """The canonical code; see the module docstring."""
        c, code = self.centre, self.code
        return code[c[0]] if len(c) == 1 else "[" + "".join(sorted(code[v] for v in c)) + "]"

    def orbits(self) -> tuple:
        """(labels, eccentricities, diameter).  The label of v is the tuple
        of the codes on the path from its centre vertex down to v.  Aut
        maps the centre onto itself, and a vertex only onto one whose path
        carries the same codes, and onto every such vertex, so two share a
        label exactly when they share an Aut-orbit (the halves of a centre
        edge that flips get the same labels).  With h the height of a half,
        ecc(v) = depth(v) + h + |centre| - 1 and the diameter is
        2h + |centre| - 1."""
        code, label = self.code, {}
        for order, parent_of in self.walks:
            label[order[0]] = (code[order[0]],)
            for u in order[1:]:
                label[u] = label[parent_of[u]] + (code[u],)
        # len(label[v]) is depth(v) + 1
        h = max(map(len, label.values())) - 1
        rest = h + len(self.centre) - 2
        ecc = {v: len(path) + rest for v, path in label.items()}
        return label, ecc, 2 * h + len(self.centre) - 1


def hung(adj) -> Hung:
    """The tree hung from its centre; see `Hung`."""
    c = center(adj)
    halves = [(c[0], None)] if len(c) == 1 else [(c[0], c[1]), (c[1], c[0])]
    code, walks, twins = {}, [], []
    for root, parent in halves:
        order, parent_of = bfs(adj, root, parent)
        below = []  # twins of this half, bottom up
        for u in reversed(order):
            if len(adj[u]) == 1:  # a leaf: its one neighbour is its parent
                code[u] = "()"
                continue
            p = parent_of[u]
            kids = sorted([code[n] for n in adj[u] if n != p])
            code[u] = "(" + "".join(kids) + ")"
            if len(set(kids)) < len(kids):
                below.append((u, p))
        walks.append((order, parent_of))
        twins.extend(reversed(below))
    return Hung(c, code, walks, twins)


def hang(adj) -> tuple:
    """The tree hung from its centre as (centre, code, runs, flips): the
    sorted centre vertices, the code of the subtree below each vertex,
    (parent, sorted siblings) for each run of two or more children with
    equal codes, in breadth-first visit order (one half of a centre edge,
    then the other), and whether the two halves have equal codes."""
    t = hung(adj)
    c, code, runs = t.centre, t.code, []
    for u, p in t.twins:
        kids = sorted((code[n], n) for n in adj[u] if n != p)
        for _, run in groupby(kids, key=lambda kid: kid[0]):
            sibs = [n for _, n in run]
            if len(sibs) > 1:
                runs.append((u, sibs))
    return c, code, runs, len(c) == 2 and code[c[0]] == code[c[1]]


def order_of_runs(runs, flips) -> int:
    """|Aut| from the runs and flip of `hang`: m! for each run of m equal
    sibling subtrees, times 2 when the centre edge flips."""
    return math.prod(math.factorial(len(sibs)) for _, sibs in runs) * (2 if flips else 1)


def aut_order(adj) -> int:
    """Order of the automorphism group of a tree, off one `hang`."""
    return order_of_runs(*hang(adj)[2:])


def canonical_code(adj) -> str:
    """Canonical code of an unlabeled tree; see the module docstring."""
    return hung(adj).canonical()
