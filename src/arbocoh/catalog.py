"""Enumeration of all complete-subtree shapes up to a diameter bound.

A complete subtree of diameter d >= 2 is determined by its internal tree
(the full-degree vertices), an arbitrary tree of diameter d - 2 with
maximum degree at most q+1; leaves are then attached to fill every
internal vertex up to degree q+1.  Unlabeled internal trees are generated
by leaf growth with deduplication by canonical code, whose codes also fix
the order of each growth level.  Each tree kept is hung from its centre
once (treecode.hung), and that one hang gives its code, its diameter, the
eccentricity of every vertex and every vertex's Aut-orbit label.  A leaf
is attached only at the first vertex of each orbit: a leaf at another
vertex of the orbit gives an isomorphic tree (the orbit rule of McKay,
"Isomorph-free exhaustive generation", J. Algorithms 26, 1998), which the
code check would drop.  The diameter bound prunes by eccentricity: a leaf
at v makes the diameter max(diam, ecc(v) + 1), so no grown tree is built
or searched only to be dropped.  The growth is exponential in the
diameter, so one enumeration counts at most GROWTH_BUDGET attachment
candidates, those pruned by the diameter bound or the orbit rule included,
and raises CatalogTooLarge past it (q=2 at diameter 9, the largest catalog
that fits, counts about 21,000); the shapes grow linearly in q, so a
catalog also raises it past VERTEX_BUDGET vertices over all its shapes
(q=30,000 at diameter 3 holds about 90,000).
"""

from __future__ import annotations

from typing import NamedTuple

from . import treecode
from .errors import CatalogTooLarge
from .shapes import complete_shape_from_internal, edge_shape, vertex_shape

GROWTH_BUDGET = 40_000  # leaf attachment candidates counted in one enumeration
VERTEX_BUDGET = 200_000  # vertices over all shapes of one catalog


class _Grown(NamedTuple):
    """A kept tree with what its one hang gives: its diameter, and the
    first vertex of each Aut-orbit at which a leaf keeps both bounds."""

    adj: dict
    diameter: int
    sites: list


def _keep(adj, hung, max_degree, max_diameter) -> _Grown:
    """The tree adj, hung as hung, with its sites of growth."""
    labels, ecc, diam = hung.orbits()
    sites, orbits = [], set()
    for v in range(len(adj)):
        if max_degree and len(adj[v]) >= max_degree:
            continue
        # a leaf at v makes the diameter max(diam, ecc(v) + 1), and diam is
        # within the bound already
        if max_diameter >= 0 and ecc[v] >= max_diameter:
            continue
        if labels[v] not in orbits:
            orbits.add(labels[v])
            sites.append(v)
    return _Grown(adj, diam, sites)


def _grow(max_vertices: int, max_degree: int, max_diameter: int) -> list:
    """The trees of `enumerate_trees`, each as a _Grown."""
    root = {0: []}
    level = [_keep(root, treecode.hung(root), max_degree, max_diameter)]
    out = list(level)
    grown_count = 0
    for _ in range(1, max_vertices):
        grown_count += sum(
            not max_degree or len(ns) < max_degree for t in level for ns in t.adj.values()
        )
        if grown_count > GROWTH_BUDGET:
            raise CatalogTooLarge(f"tree enumeration counted more than {GROWTH_BUDGET} candidate trees")
        seen = {}
        for adj, _, sites in level:
            n = len(adj)
            for v in sites:
                grown = {u: list(ns) for u, ns in adj.items()}
                grown[v].append(n)
                grown[n] = [v]
                hung = treecode.hung(grown)
                key = hung.canonical()
                if key not in seen:
                    seen[key] = _keep(grown, hung, max_degree, max_diameter)
        level = [seen[k] for k in sorted(seen)]
        if not level:
            break
        out.extend(level)
    return out


def enumerate_trees(max_vertices: int, max_degree: int = 0, max_diameter: int = -1) -> list:
    """All unlabeled trees with 1..max_vertices vertices, as adjacency
    dicts on integer vertices, grown leaf by leaf and deduplicated by
    canonical code.  Each kept tree is hung once: its code, its
    eccentricities and the orbit label of each vertex come from that one
    hang.  A leaf is attached only at the first vertex of each Aut-orbit,
    since a leaf at any other vertex of the orbit gives an isomorphic tree
    (McKay 1998); the degree and diameter bounds prune the attachments too
    (neither can decrease when a leaf is attached).  Raises
    CatalogTooLarge before growing a level that would take more than
    GROWTH_BUDGET attachments in all, counting every vertex under the
    degree bound, including those the diameter bound or the orbit rule
    prune."""
    return [t.adj for t in _grow(max_vertices, max_degree, max_diameter)]


def _internal_size_bound(q: int, internal_diameter: int) -> int:
    """Vertices of the largest degree-(q+1) tree of the given diameter,
    capped at GROWTH_BUDGET + 2.  Each level of growth counts at least one
    candidate (a leaf has degree 1 < q+1), so `enumerate_trees` refuses
    before it grows a level past GROWTH_BUDGET + 1 and the cap changes no
    catalog and no refusal; it keeps this loop short on huge diameters."""
    cap = GROWTH_BUDGET + 2
    total = 1
    layer = q + 1
    for _ in range((internal_diameter + 1) // 2):
        total += layer
        if total >= cap:
            return cap
        layer *= q
    return total


def enumerate_complete_shapes(q: int, max_diameter: int) -> list:
    """All complete shapes with diameter <= max_diameter, up to
    isomorphism, ordered by (diameter, vertex count, code)."""
    shapes = []
    if max_diameter >= 0:
        shapes.append((0, vertex_shape(q)))
    if max_diameter >= 1:
        shapes.append((1, edge_shape(q)))
    if max_diameter >= 2:
        bound = _internal_size_bound(q, max_diameter - 2)
        total = 0
        for adj, d, _ in _grow(bound, q + 1, max_diameter - 2):
            total += len(adj) * q + 2  # internal vertices plus their leaves
            if total > VERTEX_BUDGET:
                raise CatalogTooLarge(f"the catalog holds more than {VERTEX_BUDGET} vertices")
            ids = [f"i{v}" for v in adj]
            edges = [
                (f"i{u}", f"i{v}") for u, ns in adj.items() for v in ns if u < v
            ]
            shapes.append((d + 2, complete_shape_from_internal(q, ids, edges)))
    shapes.sort(key=lambda t: (t[0], len(t[1].vertices), t[1].edges))
    return [s for _, s in shapes]
