"""Tree centres, distances and canonical codes, and the catalog order the
codes fix."""

import hashlib
import itertools
import json

import pytest

from arbocoh import treecode
from arbocoh.catalog import enumerate_complete_shapes, enumerate_trees
from arbocoh.shapes import centipede_shape, star_shape, y_shape

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
        assert treecode.diameter(t) == max(ecc.values())
        assert treecode.eccentricities(t) == ecc
        assert treecode.center(t) == sorted(v for v in t if ecc[v] == radius)


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
