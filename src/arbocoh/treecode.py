"""Centres, distances and canonical codes of finite trees.

A tree is an adjacency dict {vertex: neighbours} on sortable vertex ids.
The code of a rooted subtree is "(" + the sorted codes of its children +
")"; two rooted trees are isomorphic exactly when their codes are equal.
The canonical code of an unrooted tree roots it at its centre, found by
peeling leaves layer by layer: "(...)" for a single centre vertex, and
"[" + the two sorted half codes + "]" for a centre edge.

These strings fix the order of the shape catalog, and so the index of
each catalog shape, and they match the subtrees that give the Aut(S)
generators, so their exact form is part of the library's output.
"""

from __future__ import annotations


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


def diameter(adj) -> int:
    """Longest path length, by two breadth-first sweeps."""
    ecc = distances(adj, next(iter(adj)))
    return max(distances(adj, max(ecc, key=ecc.get)).values())


def center(adj) -> list:
    """The one or two central vertices, sorted, by peeling leaves."""
    deg = {v: len(ns) for v, ns in adj.items()}
    layer = sorted(v for v, d in deg.items() if d <= 1)
    alive = set(adj)
    while len(alive) > 2:
        nxt = []
        for v in layer:
            alive.discard(v)
            for n in adj[v]:
                if n in alive:
                    deg[n] -= 1
                    if deg[n] == 1:
                        nxt.append(n)
        layer = sorted(nxt)
    return sorted(alive)


def rooted_codes(adj, root, parent=None) -> dict:
    """Code of the subtree below each vertex, with the tree hung from root
    and the branch through parent cut off."""
    order, parent_of = bfs(adj, root, parent)
    code = {}
    for u in reversed(order):
        kids = sorted(code[n] for n in adj[u] if n != parent_of[u])
        code[u] = "(" + "".join(kids) + ")"
    return code


def canonical_code(adj) -> str:
    """Canonical code of an unlabeled tree; see the module docstring."""
    c = center(adj)
    if len(c) == 1:
        return rooted_codes(adj, c[0])[c[0]]
    a, b = c
    halves = sorted((rooted_codes(adj, a, b)[a], rooted_codes(adj, b, a)[b]))
    return "[" + "".join(halves) + "]"
