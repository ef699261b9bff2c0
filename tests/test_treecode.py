"""Tree centres, distances and canonical codes, and the catalog order the
codes fix."""

import hashlib
import itertools
import json

import pytest

from arbocoh import treecode
from arbocoh.catalog import enumerate_complete_shapes, enumerate_trees
from arbocoh.shapes import Shape, centipede_shape, star_shape, y_shape

# sha256 digests of the catalog (shapes as sorted-key JSON), of the
# canonical code of every catalog shape, and of the codes of every tree
# with at most 8 vertices of degree <= q+1, one code per line.  Taken from
# the implementation before treecode existed; the catalog keys q{q}d{d}#{i}
# and the Aut(S) generators depend on these strings.
PINNED = {
    "shapes q2d6": "60868b25332f27949481b3f8d0e3a5b9e433fc6083b57139ecc4564fb1da4e5a",
    "codes q2d6": "6945df0c54c6d24614e3323d239d2b7f4481b612759c676b224628429e7db2b2",
    "trees q2": "7b378534862517a53ebbeaff5630f6e4fa58b0d6d8ad95bf996ab5320c53dc72",
    "shapes q3d4": "64a1182c586a898a025d99cd26f1eb66affa3739c2c561355fb9de00c680981a",
    "codes q3d4": "ca3f61ef5ef214aaf42edfc19e749ae76f24e4eaa49436e9cd859f8ca77047d3",
    "trees q3": "cb6d981414983ba76f7eda5a04b1d38f54fdf0ee9dfbf7c346eee98183c6a700",
}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("q,d", [(2, 6), (3, 4)])
def test_catalog_and_codes_pinned(q, d):
    every = enumerate_complete_shapes(q, d)
    assert _sha(json.dumps([s.to_json() for s in every], sort_keys=True)) == PINNED[f"shapes q{q}d{d}"]
    codes = "\n".join(treecode.canonical_code(s.adjacency()) for s in every)
    assert _sha(codes) == PINNED[f"codes q{q}d{d}"]
    trees = enumerate_trees(8, max_degree=q + 1)
    assert _sha("\n".join(treecode.canonical_code(t) for t in trees)) == PINNED[f"trees q{q}"]


# sha256 of the largest catalog that fits each q's work budget (and of two
# small-diameter ones), as sorted-key JSON: taken before the diameter bound
# pruned by eccentricity and before Shape cached its structure.
PINNED_LARGE = {
    (2, 9): "bf7fdbaceb00ae1ef4270ca046eebbc92226134faa56831e3f33fc60e7e4c54e",
    (3, 7): "112686a82702ad45e8edc572baea7a9419956ef894e0d2da703d8fb43f69eb49",
    (4, 6): "2d32739f700622bc6928aa7f3975ab3b0c77fc6803ff19b2092387e9771244c7",
    (5, 4): "01de670d0b8018200488e0efcc0801dcb99b9b2dc9e5daa8da05c20a3ba3d1e3",
    (6, 3): "8bdee915475cac8b81dba3754373c3bd3bf3fe39283b0b11b63a80e79a0b231c",
}


@pytest.mark.parametrize("q,d", sorted(PINNED_LARGE))
def test_large_catalogs_pinned(q, d):
    every = enumerate_complete_shapes(q, d)
    assert _sha(json.dumps([s.to_json() for s in every], sort_keys=True)) == PINNED_LARGE[q, d]


def test_code_forms():
    assert treecode.canonical_code({0: []}) == "()"
    assert treecode.canonical_code({0: [1], 1: [0]}) == "[()()]"
    assert treecode.canonical_code(star_shape(2).adjacency()) == "(()()())"
    # centipede(2, 3): centre edge between the two spine vertices
    assert treecode.canonical_code(centipede_shape(2, 3).adjacency()) == "[(()())(()())]"


def test_codes_are_label_free_and_separate_trees():
    s = y_shape(2)
    adj = s.adjacency()
    for perm in itertools.islice(itertools.permutations(range(len(s.vertices))), 0, 200, 17):
        rename = dict(zip(s.vertices, perm))
        moved = {rename[v]: [rename[n] for n in ns] for v, ns in adj.items()}
        assert treecode.canonical_code(moved) == treecode.canonical_code(adj)
    codes = [treecode.canonical_code(t) for t in enumerate_trees(9)]
    assert len(set(codes)) == len(codes)  # 1+1+1+2+3+6+11+23+47 unlabeled trees
    assert len(codes) == 95


def test_center_distances_diameter_against_all_pairs():
    for t in enumerate_trees(8, max_degree=3):
        dist = {v: treecode.distances(t, v) for v in t}
        ecc = {v: max(dist[v].values()) for v in t}
        radius = min(ecc.values())
        # the eccentricities and diameter read off the one hang, and the
        # two-sweep diameter of a Shape of the same tree
        _, hung_ecc, hung_diameter = treecode.hung(t).orbits()
        assert hung_ecc == ecc and hung_diameter == max(ecc.values())
        shape = Shape(2, map(str, t), [(str(u), str(v)) for u in t for v in t[u] if u < v])
        assert shape.diameter() == max(ecc.values())
        assert treecode.center(t) == sorted(v for v in t if ecc[v] == radius)


def _automorphisms(t):
    """Every automorphism of a tree on vertices 0..n-1 in which each vertex
    past 0 has a smaller neighbour (as enumerate_trees grows them), by
    backtracking: vertex k goes to an unused neighbour, of equal degree, of
    the image of its smaller neighbour.  An injective map that sends the
    n - 1 edges to edges is an automorphism."""
    n = len(t)
    parent = [None] + [min(t[k]) for k in range(1, n)]
    image = [None] * n

    def extend(k, used):
        if k == n:
            yield tuple(image)
            return
        options = t if k == 0 else t[image[parent[k]]]
        for w in options:
            if w not in used and len(t[w]) == len(t[k]):
                image[k] = w
                yield from extend(k + 1, used | {w})

    return list(extend(0, frozenset()))


def test_orbit_labels_are_the_aut_orbits():
    """Two vertices share an orbit label exactly when an automorphism maps
    one to the other, on every tree with at most 8 vertices."""
    trees = enumerate_trees(8)
    assert len(trees) == 48
    for t in trees:
        labels, _, _ = treecode.hung(t).orbits()
        auts = _automorphisms(t)
        assert len(auts) == treecode.aut_order(t)
        for v in t:
            orbit = {g[v] for g in auts}
            assert orbit == {w for w in t if labels[w] == labels[v]}, (t, v)


def _old_growth(max_vertices, max_degree=0, max_diameter=-1):
    """The growth loop before the orbit rule: every vertex of every parent
    within the bounds gets a leaf, eccentricities from all-pairs distances."""
    out = [{0: []}]
    level = [{0: []}]
    for _ in range(1, max_vertices):
        seen = {}
        for adj in level:
            n = len(adj)
            ecc = {v: max(treecode.distances(adj, v).values()) for v in adj}
            for v in range(n):
                if max_degree and len(adj[v]) >= max_degree:
                    continue
                if max_diameter >= 0 and ecc[v] >= max_diameter:
                    continue
                grown = {u: list(ns) for u, ns in adj.items()}
                grown[v].append(n)
                grown[n] = [v]
                key = treecode.canonical_code(grown)
                if key not in seen:
                    seen[key] = grown
        level = [seen[k] for k in sorted(seen)]
        if not level:
            break
        out.extend(level)
    return out


@pytest.mark.parametrize("max_degree", [0, 3, 4, 5])
def test_orbit_pruned_growth_keeps_every_tree_and_label(max_degree):
    """Growth at one vertex per Aut-orbit keeps the trees, their order,
    their integer vertex labels and their neighbour order."""
    for max_diameter in range(-1, 7):
        got = enumerate_trees(9, max_degree, max_diameter)
        want = _old_growth(9, max_degree, max_diameter)
        assert [list(t.items()) for t in got] == [list(t.items()) for t in want], max_diameter


def test_shapes_catalog_codes_each_orbit_once(monkeypatch):
    """The three catalogs of the shapes-catalog benchmark hang 243 grown
    candidates, one per Aut-orbit of each parent, where growth at every
    vertex hung 382; each enumeration also hangs its one-vertex root."""
    sizes = []
    monkeypatch.setattr(treecode, "hung", lambda adj, hung=treecode.hung: sizes.append(len(adj)) or hung(adj))
    for q, d in ((2, 7), (3, 6), (4, 5)):
        enumerate_complete_shapes(q, d)
    assert sizes.count(1) == 3
    assert len(sizes) - 3 == 243


def test_rooted_codes_and_bfs():
    adj = centipede_shape(2, 4).adjacency()
    order, parent_of = treecode.bfs(adj, "s1", "s0")
    assert order[0] == "s1" and "s0" not in order
    assert all(parent_of[v] in order[: order.index(v)] for v in order[1:])
    # hung from its centre s1: two spine branches of two leaves, one leaf
    c, code, runs, flips = treecode.hang(adj)
    assert c == ["s1"] and not flips
    assert code["s2"] == "(()())" and code["s1"] == "((()())(()())())"
    assert set(code) == set(adj)
    assert runs == [
        ("s1", ["s0", "s2"]),
        ("s0", ["s0.L0", "s0.L1"]),
        ("s2", ["s2.L0", "s2.L1"]),
    ]
    assert treecode.aut_order(adj) == 8
    # centipede(2, 3): a centre edge whose halves flip
    adj = centipede_shape(2, 3).adjacency()
    c, _, runs, flips = treecode.hang(adj)
    assert c == ["s0", "s1"] and flips
    assert [u for u, _ in runs] == ["s0", "s1"]
    assert treecode.aut_order(adj) == 8
    assert treecode.aut_order({0: []}) == 1 and treecode.aut_order({0: [1], 1: [0]}) == 2
