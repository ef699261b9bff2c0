"""Permutation groups: closure, conjugacy classes, stabilizers, and tree
automorphism groups (checked against brute force and the order-8 dihedral
presentation)."""

import hashlib
import json
import random
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arbocoh import treecode
from arbocoh.catalog import enumerate_complete_shapes
from arbocoh.errors import GroupTooLarge
from arbocoh.perm import (
    DEFAULT_ORDER_BOUND,
    PermGroup,
    Permutation,
    _aut_generators,
    all_subgroups,
    closure,
    conjugacy_classes,
    pointwise_stabilizer,
    setwise_stabilizer,
    shape_automorphism_group,
)
from arbocoh.reptheory import enumerate_nondegenerate
from arbocoh.shapes import (
    Shape,
    centipede_shape,
    edge_shape,
    maximal_proper_complete_subtrees,
    star_shape,
    vertex_shape,
    y_shape,
)
from arbocoh.verify import brute_force_automorphisms


def sym3():
    return closure([Permutation((1, 0, 2)), Permutation((1, 2, 0))])


def members(G, mask):
    """The elements a subgroup mask selects, as Permutations."""
    return [p for p, keep in zip(G.elements, mask) if keep]


def test_closure_examples():
    assert closure([], degree=3).order == 1
    assert closure([Permutation((1, 0))]).order == 2
    assert sym3().order == 6


def test_index_is_one_key_search(monkeypatch):
    """index makes one indices call per element it finds, one for a
    permutation of the right degree outside the group and none for one of
    another degree; both raise KeyError."""
    G = closure([Permutation((1, 0, 2))])
    real, calls = PermGroup.indices, []

    def counting(self, rows):
        calls.append(len(rows))
        return real(self, rows)

    monkeypatch.setattr(PermGroup, "indices", counting)
    assert [G.index(p) for p in G.elements] == list(range(G.order))
    assert calls == [1] * G.order
    calls.clear()
    for p in (Permutation((1, 2, 0)), Permutation((1, 0))):
        with pytest.raises(KeyError):
            G.index(p)
    assert calls == [1]


def test_closure_bound():
    with pytest.raises(GroupTooLarge):
        closure([Permutation((1, 2, 0, 4, 5, 6, 3))], bound=5)


def test_user_permutations_are_checked_once():
    """A Permutation built from user data must be a bijection; products,
    inverses and closure elements are bijections by construction and are
    not checked again."""
    for bad in ((0, 0), (0, 2), (1, 1, 0)):
        with pytest.raises(ValueError):
            Permutation(bad)
    with pytest.raises(ValueError):
        Permutation.from_dict(3, {0: 1})
    p, q = Permutation((1, 2, 0)), Permutation((1, 0, 2))

    def refuse(self):
        raise AssertionError("bijection checked again")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Permutation, "__post_init__", refuse)
        assert (p * q).mapping == (2, 1, 0)
        assert p.inverse().mapping == (2, 0, 1)
        assert closure([p, q]).order == 6


def test_default_and_explicit_bound_share_one_cache_entry():
    shape_automorphism_group.cache_clear()
    s = star_shape(3)
    G = shape_automorphism_group(s)
    assert shape_automorphism_group(s, DEFAULT_ORDER_BOUND) is G
    assert shape_automorphism_group(s, bound=10**6) is G
    info = shape_automorphism_group.cache_info()
    assert info.misses == 1 and info.hits == 2 and info.maxsize is not None


def test_conjugacy_classes():
    assert conjugacy_classes(closure([], degree=2)).tolist() == [0]
    sizes = np.bincount(conjugacy_classes(sym3())).tolist()
    assert sizes == [1, 2, 3] or sizes == [1, 3, 2]
    assert sorted(sizes) == [1, 2, 3]
    d4 = shape_automorphism_group(centipede_shape(2, 4))
    assert d4.order == 8
    assert len(set(conjugacy_classes(d4).tolist())) == 5


def test_stabilizer_examples():
    G = sym3()
    assert pointwise_stabilizer(G, [0, 1]).sum() == 1
    assert setwise_stabilizer(G, [0, 1]).sum() == 2
    for pts in ([0], [0, 1], [1, 2]):
        pw = pointwise_stabilizer(G, pts)
        sw = setwise_stabilizer(G, pts)
        assert pw.shape == (G.order,) and not pw.flags.writeable
        assert not (pw & ~sw).any()


@pytest.mark.parametrize(
    "shape,order",
    [
        (vertex_shape(2), 1),
        (edge_shape(2), 2),
        (star_shape(2), 6),
        (centipede_shape(2, 3), 8),
        (centipede_shape(2, 4), 8),
        (centipede_shape(2, 5), 8),
        (y_shape(2), 48),
        (star_shape(3), 24),
        (centipede_shape(3, 3), 72),
    ],
)
def test_aut_order_and_brute_force(shape, order):
    G = shape_automorphism_group(shape)
    assert G.order == order
    if len(shape.vertices) <= 10:
        assert set(G.elements) == brute_force_automorphisms(shape)


@pytest.mark.parametrize("k", [3, 4, 5])
def test_dihedral_presentation(k):
    G = shape_automorphism_group(centipede_shape(2, k))
    assert G.order == 8
    pairs = [
        (s, t)
        for s in G.elements
        for t in G.elements
        if s.order() == 2 and t.order() == 2 and (s * t).order() == 4
    ]
    assert any(closure([s, t], degree=G.degree).order == 8 for s, t in pairs)


def test_all_subgroups_refuses_large_groups_at_once():
    """S_7 has order 5040: the exponential search is refused before it
    starts, without building the element view."""
    G = shape_automorphism_group(star_shape(6))
    with pytest.raises(GroupTooLarge):
        all_subgroups(G)
    assert "elements" not in vars(G)


def test_groups_compare_by_their_arrays():
    """Closures of one generating set, listed in another order, with a
    repeat and with the identity, are one group: equal, with one hash and
    one character table cache entry."""
    from arbocoh.chartab import character_table

    a, b = Permutation((1, 0, 2, 3)), Permutation((1, 2, 3, 0))
    G = closure([a, b])
    H = closure([b, a, b, Permutation.identity(4)])
    assert H.generators != G.generators
    assert H == G and hash(H) == hash(G)
    assert closure([a]) != closure([Permutation((0, 1, 3, 2))])  # one order, two arrays
    assert closure([a]) != G and closure([a], degree=4) != closure([Permutation((1, 0))])
    character_table.cache_clear()
    assert character_table(H) is character_table(G)
    info = character_table.cache_info()
    assert info.misses == 1 and info.hits == 1


def test_lagrange_over_subgroups():
    for G in (sym3(), shape_automorphism_group(star_shape(3))):
        subs = all_subgroups(G)
        assert all(G.order % H.sum() == 0 for H in subs)
    # S4 has 30 subgroups
    assert len(all_subgroups(shape_automorphism_group(star_shape(3)))) == 30


def test_pointwise_stabilizer_realizes_head_permutations():
    """The stabilizer of a maximal subtree moves only its complement, and
    every complement-supported automorphism belongs to it."""
    for s in (star_shape(2), centipede_shape(2, 4), y_shape(2)):
        G = shape_automorphism_group(s)
        index = {v: i for i, v in enumerate(s.vertices)}
        for sub in maximal_proper_complete_subtrees(s):
            a_j = pointwise_stabilizer(G, [index[v] for v in sub])
            comp = {index[v] for v in s.vertices if v not in sub}
            complement_supported = {
                p
                for p in G.elements
                if {i for i in range(p.degree) if p(i) != i} <= comp
            }
            assert set(members(G, a_j)) == complement_supported


def test_aj_matches_ball_isometry_restrictions():
    """Ground truth for the stabilizer identification: restrict honest tree
    isometries of a ball that fix the subtree pointwise and preserve the
    star setwise, and compare with the abstract stabilizer."""
    from arbocoh.shapes import enumerate_embeddings
    from arbocoh.tree import Vertex, ball_words, word_neighbors

    s = star_shape(2)
    emb = next(
        e for e in enumerate_embeddings(s, Vertex(()), 1) if () in e.image_words()
    )
    placement = emb.mapping()
    image = [placement[v] for v in s.vertices]
    sub = maximal_proper_complete_subtrees(s)[0]
    fixed = {placement[v] for v in sub}

    # enumerate all automorphisms of the radius-2 ball fixing `fixed`
    ball = ball_words((), 2, 2)
    restrictions = set()

    def extend(i, mp):
        if i == len(ball):
            restrictions.add(tuple(mp[w] for w in image))
            return
        u = ball[i]
        if u == ():
            cands = [()]
        else:
            parent_img = mp[u[:-1]]
            used = set(mp.values())
            cands = [
                w
                for w in word_neighbors(parent_img, 2)
                if len(w) == len(u) and w not in used
            ]
        for c in cands:
            if u in fixed and c != u:
                continue
            if c in fixed and u != c:
                continue
            mp[u] = c
            extend(i + 1, mp)
            del mp[u]

    extend(0, {})

    G = shape_automorphism_group(s)
    index = {v: i for i, v in enumerate(s.vertices)}
    a_j = pointwise_stabilizer(G, [index[v] for v in sub])
    abstract = {
        tuple(placement[s.vertices[p(index[v])]] for v in s.vertices)
        for p in members(G, a_j)
    }
    assert restrictions == abstract


def _catalog_shapes():
    for q, d in ((2, 6), (3, 4), (4, 3)):
        for i, s in enumerate(enumerate_complete_shapes(q, d)):
            yield pytest.param(s, id=f"q{q}d{d}#{i}")


@pytest.mark.parametrize("s", _catalog_shapes())
def test_aut_order_from_codes_matches_closure(s):
    """|Aut(S)| as a product of factorials of equal sibling runs (times 2
    for a symmetric centre edge) equals the order the closure enumerates."""
    _gens, order = _aut_generators(s)
    assert order == shape_automorphism_group(s).order


def _relabelled(s: Shape, seed: int) -> Shape:
    """The same tree under random vertex ids, so that their sorted order
    no longer follows the tree."""
    ids = random.Random(seed).sample(range(100 * len(s.vertices)), len(s.vertices))
    new = {v: f"x{i}" for v, i in zip(s.vertices, ids)}
    return Shape(s.q, [new[v] for v in s.vertices], [(new[a], new[b]) for a, b in s.edges])


def test_aut_generators_pinned():
    """sha256 of (|Aut(S)|, generator images) over every catalog shape at
    (2, D<=7), (3, D<=5) and (4, D<=4), each also under random vertex ids.
    The closure's element order, and so the class order and every printed
    table, follow the generator list; the digest was taken before the
    centre-hung walk moved into treecode."""
    out = []
    for q, d in ((2, 7), (3, 5), (4, 4)):
        for i, s in enumerate(enumerate_complete_shapes(q, d)):
            for t in (s, _relabelled(s, i)):
                gens, order = _aut_generators(t)
                out.append([order, [list(g.mapping) for g in gens]])
    assert len(out) == 136
    digest = hashlib.sha256(json.dumps(out).encode()).hexdigest()
    assert digest == "98898966ab8f420f6bdc8b9c49fdda4e27b0356f1cdef2e23e8d70b42e80839e"


@st.composite
def small_trees(draw):
    """A random tree on at most 9 vertices, each attached to an earlier
    one, under random vertex ids."""
    n = draw(st.integers(1, 9))
    parents = [draw(st.integers(0, v - 1)) for v in range(1, n)]
    ids = draw(st.lists(st.integers(0, 999), min_size=n, max_size=n, unique=True))
    edges = [(f"v{ids[v]}", f"v{ids[p]}") for v, p in enumerate(parents, start=1)]
    return Shape(2, [f"v{i}" for i in ids], edges)


@settings(max_examples=60, deadline=None)
@given(small_trees())
def test_aut_structure_matches_brute_force(s):
    """|Aut| read off the tree hung from its centre, and the closure of the
    generators read off the same structure, against the backtracking
    search over all vertex bijections."""
    brute = brute_force_automorphisms(s)
    gens, order = _aut_generators(s)
    assert treecode.aut_order(s.adjacency()) == order == len(brute)
    assert set(closure(gens, degree=len(s.vertices)).elements) == brute


def test_aut_order_over_bound_fails_before_enumeration():
    """centipede(8,6) has |Aut| = 8!^2 7!^3 * 2 (about 4.2e20): it raises
    from the codes alone, with no closure."""
    start = time.perf_counter()
    with pytest.raises(GroupTooLarge, match="416258056205107200000"):
        shape_automorphism_group(centipede_shape(8, 6))
    with pytest.raises(GroupTooLarge):
        shape_automorphism_group(star_shape(9))  # 10! > 10^6
    assert time.perf_counter() - start < 1.0
    # at the bound itself the group is still built
    assert shape_automorphism_group(star_shape(3), 24).order == 24
    with pytest.raises(GroupTooLarge):
        shape_automorphism_group(star_shape(3), 23)


def test_one_hang_per_cold_build(monkeypatch):
    """A cold Aut(S) build hangs the tree once, for its generators and its
    order alike, and so does a cold enumerate_nondegenerate, whose check
    that its table is of Aut(S) reads the same order."""
    calls = []
    monkeypatch.setattr(treecode, "hang", lambda adj, hang=treecode.hang: calls.append(adj) or hang(adj))
    s = _relabelled(centipede_shape(3, 4), 5)  # under fresh ids: not in the cache
    assert shape_automorphism_group(s).order == 144 and len(calls) == 1
    calls.clear()
    assert enumerate_nondegenerate(_relabelled(centipede_shape(3, 4), 6))
    assert len(calls) == 1
