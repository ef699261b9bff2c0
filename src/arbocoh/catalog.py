"""Enumeration of all complete-subtree shapes up to a diameter bound.

A complete subtree of diameter d >= 2 is determined by its internal tree
(the full-degree vertices), an arbitrary tree of diameter d - 2 with
maximum degree at most q+1; leaves are then attached to fill every
internal vertex up to degree q+1.  Unlabeled internal trees are generated
by leaf growth with deduplication by treecode.canonical_code, whose codes
also fix the order of each growth level.  The diameter bound prunes by
eccentricity: three sweeps of each parent tree give ecc(v) for every v,
and a leaf at v makes the diameter max(diam, ecc(v) + 1), so no grown
tree is built or searched only to be dropped.  The growth is exponential
in the diameter, so one enumeration grows at most GROWTH_BUDGET trees and
raises CatalogTooLarge past it (q=2 at diameter 9, the largest catalog that
fits, grows about 21,000); the shapes grow linearly in q, so a catalog
also raises it past VERTEX_BUDGET vertices over all its shapes (q=30,000
at diameter 3 holds about 90,000).
"""

from __future__ import annotations

from .errors import CatalogTooLarge
from .shapes import complete_shape_from_internal, edge_shape, vertex_shape
from .treecode import canonical_code, diameter, eccentricities

GROWTH_BUDGET = 40_000  # trees grown by leaf attachment in one enumeration
VERTEX_BUDGET = 200_000  # vertices over all shapes of one catalog


def enumerate_trees(max_vertices: int, max_degree: int = 0, max_diameter: int = -1) -> list:
    """All unlabeled trees with 1..max_vertices vertices, as adjacency
    dicts on integer vertices.  Growth by leaf attachment with
    canonical-code dedup; degree and diameter bounds prune the search
    (neither can decrease when a leaf is attached).  Raises CatalogTooLarge
    before growing a level that would take more than GROWTH_BUDGET trees
    grown in all, pruned ones included."""
    out = [{0: []}]
    level = [{0: []}]
    grown_count = 0
    for _ in range(1, max_vertices):
        grown_count += sum(
            not max_degree or len(ns) < max_degree for adj in level for ns in adj.values()
        )
        if grown_count > GROWTH_BUDGET:
            raise CatalogTooLarge(f"tree enumeration grew more than {GROWTH_BUDGET} trees")
        seen = {}
        for adj in level:
            n = len(adj)
            ecc = eccentricities(adj) if max_diameter >= 0 else {}
            for v in range(n):
                if max_degree and len(adj[v]) >= max_degree:
                    continue
                # a leaf at v makes the diameter max(diam, ecc(v) + 1), and
                # diam is within the bound already
                if ecc and ecc[v] >= max_diameter:
                    continue
                grown = {u: list(ns) for u, ns in adj.items()}
                grown[v].append(n)
                grown[n] = [v]
                key = canonical_code(grown)
                if key not in seen:
                    seen[key] = grown
        level = [seen[k] for k in sorted(seen)]
        if not level:
            break
        out.extend(level)
    return out


def _internal_size_bound(q: int, internal_diameter: int) -> int:
    """Vertices of the largest degree-(q+1) tree of the given diameter."""
    r = (internal_diameter + 1) // 2
    total = 1
    layer = q + 1
    for _ in range(r):
        total += layer
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
        for adj in enumerate_trees(bound, max_degree=q + 1, max_diameter=max_diameter - 2):
            total += len(adj) * q + 2  # internal vertices plus their leaves
            if total > VERTEX_BUDGET:
                raise CatalogTooLarge(f"the catalog holds more than {VERTEX_BUDGET} vertices")
            d = diameter(adj)
            ids = [f"i{v}" for v in adj]
            edges = [
                (f"i{u}", f"i{v}") for u, ns in adj.items() for v in ns if u < v
            ]
            shapes.append((d + 2, complete_shape_from_internal(q, ids, edges)))
    shapes.sort(key=lambda t: (t[0], len(t[1].vertices), t[1].edges))
    return [s for _, s in shapes]
