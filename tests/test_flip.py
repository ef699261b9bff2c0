"""Branch-swap witnesses: postconditions, involution, and error cases."""

import hashlib
import time
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from arbocoh import flip
from arbocoh.config import Config
from arbocoh.errors import (
    ArbocohError,
    InsufficientDepth,
    NotDistinct,
    SubtreeHitsTriple,
    TooManyRays,
)
from arbocoh.flip import check_flip_witness, find_flip
from arbocoh.shapes import EmbeddedSubtree, edge_shape, enumerate_embeddings, star_shape
from arbocoh.tree import (
    RayPrefix,
    TreeIsometry,
    Vertex,
    ball_words,
    gromov_product,
    median,
    word_neighbors,
    word_path,
)
from arbocoh.verify import flip_suite, random_flip_instance, random_rays, random_word


def _ray(labels, depth=12):
    labels = tuple(labels)
    return RayPrefix(labels + (0,) * (depth - len(labels)))


def test_three_directions_no_subtree():
    rays = [_ray([0]), _ray([1]), _ray([2])]
    w = find_flip(2, rays, None, 12)
    assert not check_flip_witness(2, rays, None, w)
    # involution on the certified prefixes
    for word in list(w.h.mapping):
        assert w.h.mapping[w.h.mapping[word]] == word


def test_flip_fixes_named_subtree():
    # subtree = an edge hanging off the third branch; rays split at the root
    rays = [_ray([0]), _ray([1]), _ray([2, 1])]
    e = next(
        emb
        for emb in enumerate_embeddings(edge_shape(2), Vertex((2,)), 1)
        if emb.image_words() == frozenset({(2,), (2, 0)})
    )
    w = find_flip(2, rays, e, 12)
    assert not check_flip_witness(2, rays, e, w)
    assert w.h.mapping[(2,)] == (2,)
    assert w.h.mapping[(2, 0)] == (2, 0)


def test_flip_many_rays_subtree_off_spine():
    # six rays, subtree an edge off the spine between rays 0 and 2, after
    # the style of a two-sided configuration with a far cluster
    rays = [
        _ray([0, 0]),
        _ray([1, 0, 0]),
        _ray([2]),
        _ray([1, 0, 1, 0]),
        _ray([0, 1]),
        _ray([1, 0, 1, 1]),
    ]
    e = next(
        emb
        for emb in enumerate_embeddings(edge_shape(2), Vertex((0, 0)), 1)
        if emb.image_words() == frozenset({(0, 0), (0, 0, 0)})
    )
    w = find_flip(2, rays, e, 12)
    assert not check_flip_witness(2, rays, e, w)
    assert {w.i, w.j} == {3, 5}  # the deepest-splitting pair wins


def test_subtree_hitting_triple_rejected():
    rays = [_ray([0]), _ray([1]), _ray([2])]
    center_star = next(
        emb
        for emb in enumerate_embeddings(star_shape(2), Vertex(()), 1)
        if () in emb.image_words()
    )
    with pytest.raises(SubtreeHitsTriple):
        find_flip(2, rays, center_star, 12)


def test_flip_input_validation():
    rays = [_ray([0]), _ray([1]), _ray([2])]
    with pytest.raises(ValueError):
        find_flip(2, rays[:2], None, 12)
    with pytest.raises(InsufficientDepth):
        find_flip(2, rays, None, 13)
    same = [_ray([0]), _ray([0]), _ray([1])]
    with pytest.raises(NotDistinct):
        find_flip(2, same, None, 12)


def test_check_reports_every_fault_of_a_tampered_witness():
    """A witness whose map turns the three branches at the root: every
    check fails, in order, with its message."""
    turn = {0: 1, 1: 2, 2: 0}
    h = TreeIsometry(2, {w: (turn[w[0]],) + w[1:] if w else w for w in ball_words((), 2, 2)})
    rays = [RayPrefix((0, 0)), RayPrefix((1, 0)), RayPrefix((2, 0)), RayPrefix((0, 1))]
    s = EmbeddedSubtree(edge_shape(2), {"v0": (0,), "v1": (0, 1)})
    assert check_flip_witness(2, rays, s, flip.FlipWitness(0, 1, h, 5)) == [
        "subtree vertex [0] moved",
        "subtree vertex [0, 1] moved",
        "certified depth exceeds the visible spine overlap",
        "spines not exchanged at step 1",
        "ray 2 not fixed",
        "ray 3 not fixed",
        "not an involution at [0]",
        "ray 3 meets a swapped branch at the secondary median",
        "subtree vertex [0] meets a swapped branch",
        "subtree vertex [0, 1] meets a swapped branch",
    ]


def test_climbing_step_costs_nothing_in_q():
    """The root is swapped off the spines through a step that climbs past
    the turn of ray 0's spine: it is ranked by arithmetic, so the witness
    at q = 10^18 is the one at q = 3 and takes no time, where listing the
    q+1 neighbours took 1.2 s at q = 10^5."""
    rays = [_ray([0, 1]), _ray([0, 0, 0, 1]), _ray([0, 0, 0, 0])]
    small = find_flip(3, rays, None, 12)
    start = time.perf_counter()
    big = find_flip(10**18, rays, None, 12)
    assert time.perf_counter() - start < 0.5
    assert list(big.h.mapping.items()) == list(small.h.mapping.items())
    assert big.h.mapping[()] == (0, 0, 0, 1, 0, 1)
    assert not check_flip_witness(10**18, rays, None, big)


def test_random_rays_capacity():
    """(q+1) q^(depth-2) prefixes of length depth-1 exist: that many
    divergent rays can be drawn, one more raises instead of looping."""
    rng = np.random.default_rng(0)
    for q, depth in ((2, 2), (2, 3), (3, 2)):
        cap = (q + 1) * q ** (depth - 2)
        rays = random_rays(rng, q, cap, depth)
        assert len({r.word[: depth - 1] for r in rays}) == cap
        with pytest.raises(TooManyRays):
            random_rays(rng, q, cap + 1, depth)
    with pytest.raises(TooManyRays):
        random_rays(rng, 1, 2, 12)


def test_random_instances_small():
    rng = np.random.default_rng(99)
    for k in range(150):
        q = 2 if k % 2 == 0 else 3
        rays, s = random_flip_instance(rng, q, 12)
        w = find_flip(q, rays, s, 12)
        assert not check_flip_witness(q, rays, s, w), f"instance {k}"


def test_flip_suite_entry_point():
    report = flip_suite(Config(seed=5), n_instances=60)
    assert report["passed"]
    assert report["checks"][0]["instances"] == 60


def test_clustered_rays_fuzz():
    """Adversarial configurations: most rays packed below a common deep
    vertex, some outside.  Forces deep medians, secondary medians above
    the median, and swaps of branches containing the basepoint."""
    from arbocoh.tree import lcp_len
    from arbocoh.verify import random_word

    rng = np.random.default_rng(101)
    depth, full = 12, 15
    for k in range(300):
        q = 2 if k % 2 == 0 else 3
        base = random_word(rng, q, int(rng.integers(1, 7)))
        n = int(rng.integers(3, 8))
        rays = []
        guard = 0
        while len(rays) < n and guard < 200:
            guard += 1
            if rng.integers(0, 3) == 0:
                w = random_word(rng, q, full)
            else:
                w = (base + tuple(int(rng.integers(0, q)) for _ in range(full)))[:full]
            r = RayPrefix(w)
            if all(lcp_len(r.word, s.word) < depth for s in rays):
                rays.append(r)
        if len(rays) < 3:
            continue
        w = find_flip(q, rays, None, depth)
        assert not check_flip_witness(q, rays, None, w), f"instance {k}"


def _walk_match(q, spines, a, b, prev_a, prev_b, r, a2):
    """Rank-match a2 among the unpinned neighbours of a onto those of b:
    the step of the walk below, with its neighbour lists."""
    pin_a = pin_b = None
    if r >= 0:
        for k in (0, 1):
            sp = spines[k]
            if r < len(sp) and sp[r] == a:
                if r + 1 < len(sp) and r + 1 < len(spines[1 - k]):
                    pin_a = sp[r + 1]
                    pin_b = spines[1 - k][r + 1]
                break
    nbrs_a = [w for w in word_neighbors(a, q) if w != prev_a and w != pin_a]
    nbrs_b = [w for w in word_neighbors(b, q) if w != prev_b and w != pin_b]
    return nbrs_b[nbrs_a.index(a2)]


def _walk_from_m_prime(q, spines, u):
    """The branch swap as first written, for the oracle: the walk from m'
    to u replayed step by step on the mirror side.  Returns (image, side),
    side None for a word whose walk does not start along a spine."""
    m = spines[0][0]
    path = word_path(m, u)
    if len(path) == 1:
        return u, None
    side = None
    for k in (0, 1):
        if path[1] == spines[k][1]:
            side = k
    if side is None:
        return u, None
    src, dst = spines[side], spines[1 - side]
    a, b = m, m
    prev_a, prev_b = None, None
    r = 0
    for a2 in path[1:]:
        if r >= 0 and r + 1 < len(src) and r + 1 < len(dst) and a2 == src[r + 1]:
            a, b, prev_a, prev_b = a2, dst[r + 1], a, b
            r += 1
            continue
        b2 = _walk_match(q, spines, a, b, prev_a, prev_b, r, a2)
        a, b, prev_a, prev_b = a2, b2, a, b
        r = -1
    return b, side


def _word(draw, q, depth):
    return tuple(draw(st.integers(0, q if k == 0 else q - 1)) for k in range(depth))


@st.composite
def _spine_pairs(draw):
    """q, a median m and two ray prefixes of depth 3..12 whose paths from
    m part: m' anywhere, the root included, and either spine may climb."""
    q = draw(st.sampled_from([2, 3, 4]))
    m = _word(draw, q, draw(st.integers(0, 4)))
    rays = []
    for _ in range(2):
        depth = draw(st.integers(3, 12))
        cut = draw(st.integers(0, min(len(m), depth)))  # the labels shared with m
        rays.append(RayPrefix(m[:cut] + _word(draw, q, depth)[cut:]))
    return q, Vertex(m), rays[0], rays[1]


@settings(max_examples=150, deadline=None)
@given(_spine_pairs())
@example((2, Vertex((0, 0, 0, 0)), RayPrefix((0, 0, 0, 0, 1, 0, 0)), RayPrefix((0, 1, 0, 0, 0))))
@example((3, Vertex((1, 2, 0)), RayPrefix((1, 2, 0, 2, 1)), RayPrefix((1, 0, 2, 2, 1, 0, 1))))
@example((2, Vertex(()), RayPrefix((0, 1, 1)), RayPrefix((2, 0, 0, 1, 1))))
@example((4, Vertex((3, 1)), RayPrefix((0, 0, 0)), RayPrefix((1, 2, 3, 0))))
def test_images_match_the_walk_from_m_prime(case):
    """Every word of the balls around m', the two ray ends and the root:
    the branch it is swapped with (runs) and its image, against the walk
    from m'."""
    q, m, ray_i, ray_j = case
    try:
        spines = flip._spines(m, ray_i, ray_j)
    except InsufficientDepth:  # a ray prefix that m hangs below
        assume(False)
    assume(len(spines[0]) > 1 and len(spines[1]) > 1)
    swap = flip._BranchSwap(*spines)
    words = set(ball_words(spines[0][0], 3, q)) | set(ball_words((), 2, q))
    for sp in spines:
        words.update(ball_words(sp[-1], 2, q))
    words = sorted(words)
    side_of = {}
    for lo, hi, side in swap.runs(words):
        side_of.update(dict.fromkeys(words[lo:hi], side))
    for u in words:
        want, side = _walk_from_m_prime(q, spines, u)
        assert side_of.get(u) == side, u
        if side is not None:
            assert swap.image(u, side) == want, u


def _walked_witness(q, rays, s, i, j):
    """find_flip's witness map as first written: every prefix of a ray or
    subtree word, sorted, walked from m', then the images outside the
    domain walked too."""
    spines = flip._spines(median(rays[0], rays[1], rays[2]), rays[i], rays[j])
    dom = set()
    for w in [r.word for r in rays] + (sorted(s.image_words()) if s is not None else []):
        dom.update(w[:k] for k in range(len(w) + 1))
    mapping = {u: _walk_from_m_prime(q, spines, u)[0] for u in sorted(dom)}
    for u, v in list(mapping.items()):
        if v not in mapping:
            mapping[v] = _walk_from_m_prime(q, spines, v)[0]
    return list(mapping.items())


def _flip_outcomes(instances, depth=12, walked=False):
    out = []
    for q, rays, s in instances:
        try:
            w = find_flip(q, rays, s, depth)
        except Exception as exc:
            out.append((type(exc), str(exc)))
        else:
            items = _walked_witness(q, rays, s, w.i, w.j) if walked else list(w.h.mapping.items())
            out.append((w.i, w.j, items, w.certified_depth))
    return out


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([2, 3, 4]), st.integers(3, 12))
def test_skipping_fixed_words_matches_walking_every_word(seed, q, depth):
    """Witness maps equal, in insertion order, to walking every domain
    word from m': on random instances, and on clustered rays, whose
    median hangs deep so that spines climb from m'."""
    rng = np.random.default_rng(seed)
    instances = []
    for _ in range(10):
        try:
            rays, s = random_flip_instance(rng, q, depth)
        except TooManyRays:
            continue
        instances.append((q, rays, s))
    base = random_word(rng, q, int(rng.integers(1, depth)))
    rays = [RayPrefix(base + random_word(rng, q, depth)[len(base) :]) for _ in range(4)]
    instances.append((q, rays + [RayPrefix(random_word(rng, q, depth)) for _ in range(2)], None))
    assert _flip_outcomes(instances, depth) == _flip_outcomes(instances, depth, walked=True)


def _by_gromov_product(a, b, base, *lcps):
    """lcp_product as the oracle: the general gromov_product, which walks
    the words for its own lcps."""
    return gromov_product(a, b, base)


def _outcome(call):
    try:
        return call()
    except ArbocohError as exc:
        return (type(exc).__name__, str(exc))


def _flip_and_check(q, rays, s, depth, extra, s2):
    """find_flip's outcome, and check_flip_witness's on the same rays plus
    one that repeats or cuts a swapped ray, with a second subtree."""
    w = _outcome(lambda: find_flip(q, rays, s, depth))
    if not isinstance(w, flip.FlipWitness):
        return w, None
    cut_i, cut_j = RayPrefix(rays[w.i].word[:1]), RayPrefix(rays[w.j].word[:1])
    more = [[rays[w.i]], [cut_i], [cut_j], []][extra]
    return w, _outcome(lambda: check_flip_witness(q, rays + more, s2, w))


def _subtree_near(rng, q, words):
    """A random star or edge embedded around one of the words, cut or
    extended by a label, or None."""
    if not rng.integers(0, 3):
        return None
    anchor = words[int(rng.integers(0, len(words)))]
    anchor = anchor[: int(rng.integers(0, len(anchor) + 1))]
    anchor += tuple(int(x) for x in rng.integers(0, q, size=int(rng.integers(0, 2))))
    shape = (star_shape, edge_shape)[int(rng.integers(0, 2))](q)
    embs = enumerate_embeddings(shape, Vertex(anchor), 2)
    return embs[int(rng.integers(0, len(embs)))] if embs else None


def _shallow_instance(rng):
    """Shallow rays, subtrees that may hang below them, and a ray for the
    check that repeats or cuts one of the swapped rays: the inputs on
    which the Gromov products of find_flip and check_flip_witness raise."""
    q = int(rng.integers(2, 4))
    depth = int(rng.integers(1, 5))
    n = int(rng.integers(3, 7))
    rays = [RayPrefix(random_word(rng, q, depth + int(rng.integers(0, 3)))) for _ in range(n)]
    words = [r.word for r in rays[:3]] + [random_word(rng, q, 3)]
    s = _subtree_near(rng, q, words)
    extra = int(rng.integers(0, 4))
    return q, rays, s, depth, extra, _subtree_near(rng, q, words)


def _canonical(outcome):
    w, checked = outcome
    if isinstance(w, flip.FlipWitness):
        w = (w.i, w.j, sorted(w.h.mapping.items()), w.certified_depth)
    return repr((w, checked))


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_lcp_table_products_match_gromov_product(seed):
    """find_flip and check_flip_witness give the same witnesses, reports
    and errors, messages included, as with every product computed by
    gromov_product from the words."""
    rng = np.random.default_rng(seed)
    instances = [_shallow_instance(rng) for _ in range(40)]
    got = [_flip_and_check(*inst) for inst in instances]
    with mock.patch.object(flip, "lcp_product", _by_gromov_product):
        want = [_flip_and_check(*inst) for inst in instances]
    assert got == want


def test_shallow_instance_outcomes_pinned():
    """Witnesses, check reports and errors on 600 shallow instances, as
    sha256 of their canonical form: computed before the products came
    from lcp tables, so the order of every check and each message stays."""
    rng = np.random.default_rng(20)
    text = "\n".join(_canonical(_flip_and_check(*_shallow_instance(rng))) for _ in range(600))
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert digest == "82562daf2a7219be5bca68dc57c573b747c67182a98ced9f07760a6f92e732ca"
