"""Complete subtrees: validation, maximal subtrees, heads, classification,
embeddings, and hit counts, cross-checked against subset brute force, the
labelled placement search and the closed-form hit count."""

import copy
import dataclasses
import hashlib
import itertools
import math
import pickle
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arbocoh import treecode, verify
from arbocoh.catalog import enumerate_complete_shapes
from arbocoh.errors import InvalidShape, NotATree, NotCuspidalShape, TooSmall
from arbocoh.perm import shape_automorphism_group
from arbocoh.shapes import (
    EmbeddedSubtree,
    Shape,
    ShapeClass,
    centipede_shape,
    classify_shape,
    complete_shape_from_internal,
    count_hitting,
    edge_shape,
    enumerate_embeddings,
    heads,
    hits,
    maximal_proper_complete_subtrees,
    place_tree,
    star_shape,
    validate_complete,
    vertex_shape,
    y_shape,
)
from arbocoh.tree import RayPrefix, Vertex, ball_words, median, word_neighbors
from arbocoh.verify import brute_force_maximal_subtrees, random_isometry, random_rays


# -- independent oracle: maximal complete subtrees by raw subset search -------


def brute_force_maximal(s: Shape):
    """All maximal proper complete subtrees by filtering every vertex
    subset; independent of the library's internal-vertex method."""
    ids = list(s.vertices)
    adj = s.adjacency()
    complete = []
    for r in range(1, len(ids)):
        for sub in itertools.combinations(ids, r):
            subset = set(sub)
            seen = {sub[0]}
            stack = [sub[0]]
            while stack:
                for n in adj[stack.pop()]:
                    if n in subset and n not in seen:
                        seen.add(n)
                        stack.append(n)
            if len(seen) != len(subset):
                continue
            degs = [sum(n in subset for n in adj[v]) for v in sub]
            if len(sub) == 1 or all(d in (1, s.q + 1) for d in degs):
                complete.append(frozenset(sub))
    return sorted(
        (t for t in complete if not any(t < u for u in complete)),
        key=lambda fs: tuple(sorted(fs)),
    )


def test_validate_complete_examples():
    assert validate_complete(vertex_shape(2))
    assert validate_complete(edge_shape(2))
    path3 = Shape(2, ["a", "b", "c"], [["a", "b"], ["b", "c"]])
    assert not validate_complete(path3)


def test_incomplete_shape_rejected_by_taxonomy():
    path3 = Shape(2, ["a", "b", "c"], [["a", "b"], ["b", "c"]])
    with pytest.raises(InvalidShape):
        classify_shape(path3)
    with pytest.raises(InvalidShape):
        maximal_proper_complete_subtrees(path3)


def test_not_a_tree():
    with pytest.raises(NotATree):
        validate_complete(Shape(2, ["a", "b", "c"], [["a", "b"]]))
    with pytest.raises(NotATree):
        validate_complete(
            Shape(3, ["a", "b", "c"], [["a", "b"], ["b", "c"], ["c", "a"]])
        )


@pytest.mark.parametrize(
    "shape,expect",
    [
        (star_shape(2), 3),
        (centipede_shape(2, 3), 2),
        (centipede_shape(2, 4), 2),
        (y_shape(2), 3),
        (star_shape(3), 4),
        (centipede_shape(3, 3), 2),
    ],
)
def test_maximal_subtrees_against_brute_force(shape, expect):
    got = maximal_proper_complete_subtrees(shape)
    assert len(got) == expect
    assert got == brute_force_maximal(shape)
    for sub in got:
        sub_ids = sorted(sub)
        sub_edges = [e for e in shape.edges if e[0] in sub and e[1] in sub]
        assert validate_complete(Shape(shape.q, sub_ids, sub_edges))


def test_star_maximal_are_edges():
    for sub in maximal_proper_complete_subtrees(star_shape(2)):
        assert len(sub) == 2


def test_maximal_subtrees_whole_catalog_against_brute_force():
    """Every complete shape with at most 16 vertices in the desk catalog."""
    from arbocoh.catalog import enumerate_complete_shapes

    shapes = enumerate_complete_shapes(2, 5) + enumerate_complete_shapes(3, 3)
    for s in shapes:
        if len(s.vertices) <= 16 and s.diameter() >= 2:
            got = maximal_proper_complete_subtrees(s)
            assert got == brute_force_maximal(s)
            if s.diameter() > 2:
                assert len(heads(s)) == len(got)


def _head_count(s: Shape) -> int:
    """The head count classify_shape reads off the leaves of I(S)."""
    cls = classify_shape(s)
    return 2 if cls.tag == "centipede" else cls.n_heads


@pytest.mark.parametrize("q,d", [(2, 7), (3, 5), (4, 4), (5, 3)])
def test_closed_form_matches_subset_search_on_catalog(q, d):
    """And every head count of classify_shape is the number of maximal
    subtrees, by both methods."""
    from arbocoh.catalog import enumerate_complete_shapes

    for s in enumerate_complete_shapes(q, d):
        if len(s.vertices) > 2:
            got = maximal_proper_complete_subtrees(s)
            assert got == brute_force_maximal_subtrees(s)
            if s.diameter() > 2:
                assert _head_count(s) == len(got)


def _internal_is_path(s: Shape) -> bool:
    """A tree is a path when no vertex has three neighbours in it."""
    internal = set(s.internal_vertices())
    adj = s.adjacency()
    return all(sum(n in internal for n in adj[v]) <= 2 for v in internal)


def test_centipede_exactly_when_internal_tree_is_a_path():
    from arbocoh.catalog import enumerate_complete_shapes

    for q in range(2, 6):
        for k in range(3, 7):
            s = centipede_shape(q, k)
            assert _internal_is_path(s)
            assert classify_shape(s) == ShapeClass("centipede", k=k)
            assert len(maximal_proper_complete_subtrees(s)) == 2
    for q, d in [(2, 7), (3, 5), (4, 4)]:
        for s in enumerate_complete_shapes(q, d):
            if s.diameter() > 2:
                assert (classify_shape(s).tag == "centipede") == _internal_is_path(s)


@st.composite
def internal_trees(draw, qs=(2, 3, 4), max_internal=12):
    """A complete shape from a random internal tree: q in qs and at most
    max_internal internal vertices, each of degree <= q+1 inside the tree."""
    q = draw(st.sampled_from(qs))
    n = draw(st.integers(1, max_internal))
    deg = [0] * n
    edges = []
    for v in range(1, n):
        u = draw(st.sampled_from([u for u in range(v) if deg[u] < q + 1]))
        deg[u] += 1
        deg[v] += 1
        edges.append((f"i{u}", f"i{v}"))
    return complete_shape_from_internal(q, [f"i{v}" for v in range(n)], edges)


@settings(max_examples=60, deadline=None)
@given(internal_trees())
def test_closed_form_matches_subset_search_on_random_trees(s):
    got = maximal_proper_complete_subtrees(s)
    assert got == brute_force_maximal_subtrees(s)
    if s.diameter() > 2:
        assert _head_count(s) == len(got)


@pytest.mark.parametrize("q,d", [(2, 9), (3, 6), (4, 5)])
def test_head_count_is_maximal_count_on_large_catalogs(q, d):
    """Catalogs too large for the subset search, the shapes-catalog
    benchmark's among them."""
    from arbocoh.catalog import enumerate_complete_shapes

    for s in enumerate_complete_shapes(q, d):
        if s.diameter() > 2:
            assert _head_count(s) == len(maximal_proper_complete_subtrees(s))


def test_shape_structure_is_built_once_and_read_only():
    s = y_shape(3)
    adj = s.adjacency()
    assert adj is s.adjacency()
    assert all(isinstance(ns, tuple) and list(ns) == sorted(ns) for ns in adj.values())
    with pytest.raises(TypeError):
        adj["c"] = ()
    with pytest.raises(TypeError):
        del adj["c"]
    assert s.internal_vertices() == ("b0", "b1", "b2", "c")
    assert [s.degree(v) for v in s.internal_vertices()] == [4] * 4
    for a, b in itertools.combinations(s.vertices, 2):
        p = s.path(a, b)
        assert p[0] == a and p[-1] == b and len(set(p)) == len(p)
        assert all(y in adj[x] for x, y in zip(p, p[1:]))
        assert s.path(b, a) == p[::-1]
    assert max(len(s.path(a, b)) for a in s.vertices for b in s.vertices) - 1 == s.diameter()


def test_shape_identity_unchanged_by_cached_structure():
    """==, hash, repr and pickle see q, vertices and edges only, before and
    after the structure and the vertex index are built; the pickle digests
    were taken before either was cached."""
    pinned = {
        "cent": "17422eae56675bd6000d29496cc0f001326ec03380ef4feb9c55b28e06a2cda4",
        "y": "1ca266324c28443c51467e213587e47feb1f7c41d63aa14ad4d87e2626d68faf",
    }
    for name, build in (("cent", lambda: centipede_shape(2, 4)), ("y", lambda: y_shape(3))):
        used, fresh = build(), build()
        used.diameter(), used.path(used.vertices[0], used.vertices[-1])
        assert dict(used.index) == {v: i for i, v in enumerate(used.vertices)}
        with pytest.raises(TypeError):
            used.index[used.vertices[0]] = 1
        assert used == fresh and hash(used) == hash(fresh) == hash((used.q, used.vertices, used.edges))
        assert repr(used) == repr(fresh) == f"Shape(q={used.q}, vertices={used.vertices!r}, edges={used.edges!r})"
        for s in (used, fresh):
            data = pickle.dumps(s, protocol=4)
            assert hashlib.sha256(data).hexdigest() == pinned[name]
            back = pickle.loads(data)
            assert back == s and back.diameter() == s.diameter()
            assert copy.deepcopy(s) == s
    # an lru_cache keyed by shape hits for an equal shape built afresh
    assert shape_automorphism_group(y_shape(2)) is shape_automorphism_group(y_shape(2))


def test_image_words_built_once_per_embedding():
    """image_words returns one frozenset per embedding; ==, hash and repr
    still see the shape and the placement only."""
    s = centipede_shape(2, 4)
    used, fresh = (enumerate_embeddings(s, Vertex(()), 3)[5] for _ in range(2))
    image = used.image_words()
    assert image is used.image_words()
    assert image == frozenset(w for _, w in used.placement)
    assert used == fresh and hash(used) == hash(fresh) == hash((used.shape, used.placement))
    assert repr(used) == repr(fresh) == f"EmbeddedSubtree(shape={s!r}, placement={used.placement!r})"


def test_maximal_subtrees_too_small():
    with pytest.raises(TooSmall):
        maximal_proper_complete_subtrees(edge_shape(2))


def test_heads_counts():
    assert len(heads(centipede_shape(2, 3))) == 2
    assert len(heads(centipede_shape(3, 4))) == 2
    assert len(heads(y_shape(2))) == 3
    with pytest.raises(TooSmall):
        heads(star_shape(2))


def test_head_count_equals_maximal_count_small_shapes():
    shapes = [
        centipede_shape(2, 3),
        centipede_shape(2, 4),
        centipede_shape(2, 5),
        y_shape(2),
        centipede_shape(3, 3),
    ]
    for s in shapes:
        assert len(s.vertices) <= 16
        assert len(heads(s)) == len(maximal_proper_complete_subtrees(s))


def test_classify_examples():
    assert classify_shape(vertex_shape(2)).tag == "vertex"
    assert classify_shape(edge_shape(3)).tag == "edge"
    cls = classify_shape(star_shape(2))
    assert (cls.tag, cls.k) == ("centipede", 2)
    cls = classify_shape(centipede_shape(2, 4))
    assert (cls.tag, cls.k) == ("centipede", 4)
    cls = classify_shape(y_shape(2))
    assert (cls.tag, cls.n_heads, cls.diam) == ("multi_headed", 3, 4)


def test_enumerate_embeddings_examples():
    assert len(enumerate_embeddings(star_shape(2), Vertex(()), 1)) == 1
    assert len(enumerate_embeddings(edge_shape(2), Vertex(()), 1)) == 3
    EmbeddedSubtree(edge_shape(2), {"v0": (0,), "v1": (0, 1)})
    # siblings, and two children of the root: distance 2 through the parent
    for v0, v1 in (((0, 0), (0, 1)), ((0,), (1,))):
        with pytest.raises(ValueError, match=r"edge \(v0, v1\) not mapped to adjacent words"):
            EmbeddedSubtree(edge_shape(2), {"v0": v0, "v1": v1})


def test_embedding_count_isometry_invariant():
    rng = np.random.default_rng(5)
    s = star_shape(2)
    base = len(enumerate_embeddings(s, Vertex(()), 2))
    f = random_isometry(rng, 2, 4, move=2)
    moved = len(enumerate_embeddings(s, f.apply_vertex(Vertex(())), 2))
    assert base == moved


def test_embeddings_deduped_and_deterministic():
    s = star_shape(2)
    embs = enumerate_embeddings(s, Vertex(()), 2)
    images = [e.image_words() for e in embs]
    assert len(set(images)) == len(images)
    assert embs == enumerate_embeddings(s, Vertex(()), 2)


# (embedding count, sha256 of their placements) and (section count, sha256
# of the sorted canonical-section items) around V[1] at radius diameter+1,
# sections taken from every len(embs)//4-th embedding onto each embedding.
# Taken from the implementation before the placement search was shared.
PLACEMENTS_PINNED = {
    "star2": (10, "9ac04953605feca2d60fcaf25608ae844f5850a3fb371b958c2ec3de8779fa2c",
              50, "fc728ab7e7c9d511929c5bcccafd808b76f5db7a18e8adc72398aeb10269443d"),
    "cent23": (21, "4ac9f0511f5117ac9f1122d1394769ae3ceeac53d6ff0f0f21fe6900dbf337c5",
               105, "5c25d31fc67f056df5f5ef72c679540755f3105be14a29a1954db0658ee1f86f"),
    "cent24": (66, "161f2ed7a22586880fc4f715dde8662950e6d4afaddda16e60c456739cad3ac5",
               330, "117119afb93220468d3c724c4cdf999f8ff5be441c71c15fd111ec309a7d6985"),
    "y2": (22, "3e9ea348590f22aa81e189392fadf0b2dbefe962a149e30b608807ea6f743718",
           110, "ce993930dd458fd416d8645474b65d602575660f14cb4b4b71aab219ecc14565"),
}


@pytest.mark.parametrize(
    "name,shape",
    [("star2", star_shape(2)), ("cent23", centipede_shape(2, 3)),
     ("cent24", centipede_shape(2, 4)), ("y2", y_shape(2))],
)
def test_placements_pinned(name, shape):
    from arbocoh.witness import canonical_section, reference_configuration

    embs = enumerate_embeddings(shape, Vertex((1,)), shape.diameter() + 1)
    # canonical_section reads only the reference placement
    template = reference_configuration(centipede_shape(2, 3), 5)
    secs = []
    for e_ref in embs[:: max(1, len(embs) // 4)]:
        ref = dataclasses.replace(template, shape=shape, embedding=e_ref)
        secs.extend(sorted(canonical_section(ref, e).items()) for e in embs)
    got = (
        len(embs), hashlib.sha256(repr([e.placement for e in embs]).encode()).hexdigest(),
        len(secs), hashlib.sha256(repr(secs).encode()).hexdigest(),
    )
    assert got == PLACEMENTS_PINNED[name]


# -- independent oracle: the labelled placement search -------------------------


def labelled_embeddings(s: Shape, anchor: Vertex, radius: int) -> list:
    """enumerate_embeddings by placing every vertex of s, leaves included,
    so each image is found |Aut(s)| times, and keeping the least placement
    of each image; independent of the library's internal-tree method."""
    q = s.q
    ball = set(ball_words(anchor.word, radius, q))
    ball_nbrs = {w: [x for x in word_neighbors(w, q) if x in ball] for w in ball}
    adj = s.adjacency()
    start = max(s.vertices, key=lambda v: (len(adj[v]), v))
    order, parent_of = treecode.bfs(adj, start)
    cols = [order.index(v) for v in s.vertices]
    found = {}

    def keep_least(placed):
        key = frozenset(placed)
        cand = tuple([placed[c] for c in cols])
        if key not in found or cand < found[key]:
            found[key] = cand

    place_tree(order, parent_of, ball, ball_nbrs.__getitem__, keep_least)
    return [
        EmbeddedSubtree(s, dict(zip(s.vertices, found[key])))
        for key in sorted(found, key=lambda fs: tuple(sorted(fs)))
    ]


def labelled_hit_count(s: Shape, rays) -> int:
    """count_hitting by the labelled search: the images through the median
    at a full-degree vertex.  An internal vertex is not a leaf, so every
    vertex of s lies within diameter - 1 of it, and the ball of that radius
    around the median holds every such image."""
    return sum(
        hits(e, *rays) for e in labelled_embeddings(s, median(*rays), s.diameter() - 1)
    )


def relabelled(s: Shape, seed: int) -> Shape:
    """The same tree under random vertex ids, so that their sorted order
    no longer follows the tree."""
    rng = random.Random(seed)
    ids = rng.sample(range(100 * len(s.vertices)), len(s.vertices))
    new = {v: f"x{i}" for v, i in zip(s.vertices, ids)}
    return Shape(s.q, [new[v] for v in s.vertices], [(new[a], new[b]) for a, b in s.edges])


def closed_form_hit_count(s: Shape) -> int:
    """sum over u in I of N_u, divided by |Aut(I)|, with I the internal tree
    and N_u = (q+1)_{deg u} prod_{x != u} (q)_{deg x - 1} the placements
    of I with u at a fixed vertex, (n)_k the falling factorial and degrees
    taken in I."""
    internal = s.internal_vertices()
    edges = [e for e in s.edges if e[0] in internal and e[1] in internal]
    deg = {u: sum(u in e for e in edges) for u in internal}
    total = sum(
        math.perm(s.q + 1, deg[u])
        * math.prod(math.perm(s.q, deg[x] - 1) for x in internal if x != u)
        for u in internal
    )
    aut = shape_automorphism_group(Shape(s.q, internal, edges)).order
    assert total % aut == 0
    return total // aut


# every catalog shape of diameter <= 4 at q=2 D<=5, q=3 D<=4 and q=4 D<=3
SMALL_CATALOG = [
    s
    for q, d in ((2, 5), (3, 4), (4, 3))
    for s in enumerate_complete_shapes(q, d)
    if s.diameter() <= 4
]
BASEPOINT_TRIPLE = (RayPrefix((0,) * 6), RayPrefix((1,) + (0,) * 5), RayPrefix((2,) + (0,) * 5))


@pytest.mark.parametrize("q", [2, 3])
def test_flip_windows_match_labelled_search(q):
    """Every window the flip suite draws: 3 kinds at each anchor of depth
    0..3, radius 2."""
    for make in verify._FLIP_SHAPES:
        s = make(q)
        for anchor in ball_words((), 3, q):
            got = enumerate_embeddings(s, Vertex(anchor), 2)
            want = labelled_embeddings(s, Vertex(anchor), 2)
            assert [e.placement for e in got] == [e.placement for e in want]


@pytest.mark.parametrize("index", range(len(SMALL_CATALOG)))
def test_catalog_embeddings_match_labelled_search(index):
    """Relabelled catalog shapes at three anchors and radii 0..3 (radius 3
    only up to 14 vertices: the q=3 radius-2 ball takes the labelled search
    about a second there)."""
    s = relabelled(SMALL_CATALOG[index], index)
    for anchor in [(), (1,), (0, 1)]:
        for radius in range(4 if len(s.vertices) <= 14 else 3):
            got = enumerate_embeddings(s, Vertex(anchor), radius)
            want = labelled_embeddings(s, Vertex(anchor), radius)
            assert [e.placement for e in got] == [e.placement for e in want]


@st.composite
def small_placements(draw):
    """A vertex, an edge or a complete shape with at most 4 internal
    vertices, at q in {2, 3}, under random vertex ids; an anchor of depth
    <= 3 and a radius 0..3."""
    qs = st.sampled_from([2, 3])
    s = draw(st.one_of(
        st.builds(vertex_shape, qs), st.builds(edge_shape, qs), internal_trees((2, 3), 4)
    ))
    s = relabelled(s, draw(st.integers(0, 2**32)))
    depth = draw(st.integers(0, 3))
    anchor = tuple(draw(st.integers(0, s.q if i == 0 else s.q - 1)) for i in range(depth))
    return s, Vertex(anchor), draw(st.integers(0, 3))


@settings(max_examples=40, deadline=None)
@given(small_placements())
def test_embeddings_match_labelled_search_property(case):
    s, anchor, radius = case
    got = enumerate_embeddings(s, anchor, radius)
    want = labelled_embeddings(s, anchor, radius)
    assert [e.placement for e in got] == [e.placement for e in want]


@pytest.mark.parametrize("index", range(len(SMALL_CATALOG)))
def test_hit_counts_match_labelled_search(index):
    """At the triple whose median is the basepoint, and at a random triple
    for the shapes the labelled search places in milliseconds."""
    s = relabelled(SMALL_CATALOG[index], index)
    if s.diameter() < 2:
        with pytest.raises(NotCuspidalShape):
            count_hitting(s, *BASEPOINT_TRIPLE)
        return
    assert median(*BASEPOINT_TRIPLE) == Vertex(())
    triples = [BASEPOINT_TRIPLE]
    if len(s.vertices) <= 14:
        triples.append(random_rays(np.random.default_rng(index), s.q, 3, 8))
    for rays in triples:
        assert count_hitting(s, *rays) == labelled_hit_count(s, rays)


@pytest.mark.parametrize("q,d", [(2, 7), (3, 5), (4, 4), (5, 3)])
def test_hit_counts_match_closed_form_on_catalog(q, d):
    rays = random_rays(np.random.default_rng(q), q, 3, 10)
    for s in enumerate_complete_shapes(q, d):
        if s.diameter() >= 2:
            assert count_hitting(s, *rays) == closed_form_hit_count(s)


def test_hit_counts_exact_values():
    """The frontier shapes whose labelled search took seconds per triple
    (`verify reps` checks the shapes of acceptance criterion 6)."""
    ball3 = complete_shape_from_internal(3, "cabde", [("c", x) for x in "abde"])
    expected = [
        (y_shape(3), 16),
        (centipede_shape(3, 5), 72),
        (ball3, 5),
    ]
    rng = np.random.default_rng(4)
    for s, count in expected:
        assert closed_form_hit_count(s) == count
        for rays in [BASEPOINT_TRIPLE, *(random_rays(rng, s.q, 3, 12) for _ in range(3))]:
            assert count_hitting(s, *rays) == count


def test_hits_examples():
    s = star_shape(2)
    center_star = next(
        e for e in enumerate_embeddings(s, Vertex(()), 1) if () in e.image_words()
    )
    r3 = [RayPrefix((0, 0)), RayPrefix((1, 0)), RayPrefix((2, 0))]
    assert hits(center_star, *r3)
    # median at (0,), a leaf of the star: miss
    assert not hits(center_star, RayPrefix((0, 0, 1)), RayPrefix((0, 1, 1)), RayPrefix((1, 0)))
    v = vertex_shape(2)
    ve = EmbeddedSubtree(v, {"v0": ()})
    assert not hits(ve, *r3)


def test_count_hitting_examples_and_constancy():
    rng = np.random.default_rng(12)
    star, c3 = star_shape(2), centipede_shape(2, 3)
    for _ in range(10):
        rays = random_rays(rng, 2, 3, 10)
        assert count_hitting(star, *rays) == 1
        assert count_hitting(c3, *rays) == 3
    with pytest.raises(NotCuspidalShape):
        count_hitting(edge_shape(2), *random_rays(rng, 2, 3, 10))


def test_centipede_spine_diameter_on_geodesic():
    # a k-centipede placed on a geodesic overlaps it in diameter exactly k
    from arbocoh.witness import reference_configuration

    for k in (2, 3, 4):
        s = centipede_shape(2, k)
        ref = reference_configuration(s, k + 4)
        line = set()
        for p in range(-(k + 4), k + 5):
            line.add((0,) * (-p) if p <= 0 else (1,) + (0,) * (p - 1))
        overlap = [w for w in ref.embedding.image_words() if w in line]
        dmax = max(
            len(a) + len(b) - 2 * len(_lcp(a, b)) for a in overlap for b in overlap
        )
        assert dmax == k


def _lcp(a, b):
    out = []
    for x, y in zip(a, b):
        if x != y:
            break
        out.append(x)
    return tuple(out)


def test_shape_json_roundtrip():
    s = centipede_shape(2, 4)
    assert Shape.from_json(s.to_json()) == s
