"""Random isometry germs drawn on BFS codes: equal to the per-vertex draw,
draw for draw, on both sides of the size below which they are drawn word
by word, and the array validation that replaces the dict one.  A drawn
isometry that keeps its codes behaves as the dict-built one in every
operation.  Random words drawn in bulk equal the scalar draws."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arbocoh import verify
from arbocoh.errors import ArbocohError, InsufficientDepth
from arbocoh.shapes import centipede_shape, star_shape
from arbocoh.tree import RayPrefix, TreeIsometry, Vertex, ball_words, word_neighbors, word_rank
from arbocoh.verify import _check_image, random_isometry, random_isometry_on, random_word
from arbocoh.witness import reference_configuration


def _per_vertex_draw(rng, q, ordered_words, move):
    """The per-vertex loop the array code replaces: one rng.permutation per
    domain word, in the given parents-first order."""
    domain = set(ordered_words)
    mapping = {(): random_word(rng, q, move)}
    for u in ordered_words:
        fu = mapping[u]
        used, unmapped = set(), []
        for nb in word_neighbors(u, q):
            if nb in mapping:
                used.add(mapping[nb])
            elif nb in domain and len(nb) > len(u):
                unmapped.append(nb)
        avail = [w for w in word_neighbors(fu, q) if w not in used]
        idx = list(rng.permutation(len(avail)))
        for k, nb in enumerate(unmapped):
            mapping[nb] = avail[idx[k]]
    return TreeIsometry(q, mapping)


def _ancestor_closure(words):
    dom = set()
    for w in words:
        dom.update(w[:k] for k in range(len(w) + 1))
    return sorted(dom, key=lambda w: (len(w), w))


def _assert_same_draw(seed, draw_old, draw_new):
    r_old, r_new = np.random.default_rng(seed), np.random.default_rng(seed)
    r_old.integers(0, 7)  # start both mid-stream
    r_new.integers(0, 7)
    old, new = draw_old(r_old), draw_new(r_new)
    assert new.mapping == old.mapping
    assert list(new.mapping) == list(old.mapping)
    assert r_new.bit_generator.state == r_old.bit_generator.state


@pytest.mark.parametrize("q", [2, 3, 4])
@pytest.mark.parametrize("radius", range(8))
def test_ball_draw_matches_per_vertex_loop(q, radius):
    words = ball_words((), radius, q)
    for move in range(3):
        _assert_same_draw(
            100 * q + 10 * radius + move,
            lambda rng: _per_vertex_draw(rng, q, words, move),
            lambda rng: random_isometry(rng, q, radius, move),
        )


def _witness_words(shape, depth):
    ref = reference_configuration(shape, depth)
    return [ref.gamma0.word, ref.gamma1.word] + sorted(ref.embedding.image_words())


@pytest.mark.parametrize(
    "q, words",
    [
        (2, _witness_words(centipede_shape(2, 4), 10)),
        (2, _witness_words(centipede_shape(2, 3), 9)),
        (3, _witness_words(star_shape(3), 8)),
    ],
)
def test_witness_closure_draw_matches_per_vertex_loop(q, words):
    ordered = _ancestor_closure(words)
    for seed in range(40):
        move = seed % 3
        _assert_same_draw(
            seed,
            lambda rng: _per_vertex_draw(rng, q, ordered, move),
            lambda rng: random_isometry_on(rng, q, words, move),
        )


def test_random_closure_draw_matches_per_vertex_loop():
    rng = np.random.default_rng(17)
    for seed in range(200):
        q = int(rng.integers(2, 5))
        words = [random_word(rng, q, int(rng.integers(0, 14))) for _ in range(int(rng.integers(1, 7)))]
        move = int(rng.integers(0, 3))
        ordered = _ancestor_closure(words)
        _assert_same_draw(
            seed,
            lambda r: _per_vertex_draw(r, q, ordered, move),
            lambda r: random_isometry_on(r, q, words, move),
        )


@pytest.mark.parametrize("q", [2, 3])
def test_deep_closure_beyond_int64_codes(q):
    # depth 70 ranks exceed 2**63 at both q: codes become Python ints
    rng = np.random.default_rng(q)
    words = [random_word(rng, q, 70), random_word(rng, q, 66)]
    ordered = _ancestor_closure(words)
    _assert_same_draw(
        3,
        lambda r: _per_vertex_draw(r, q, ordered, 2),
        lambda r: random_isometry_on(r, q, words, 2),
    )


def _image_arrays(f):
    words = list(f.mapping)
    index = {w: i for i, w in enumerate(words)}
    par = np.array([index[w[:-1]] for w in words[1:]], dtype=np.int64)
    imgs = [f.mapping[w] for w in words]
    img_d = np.array([len(v) for v in imgs], dtype=np.int64)
    img_r = np.array([word_rank(v, f.q) for v in imgs], dtype=np.int64)
    return words, par, img_d, img_r


def test_image_check_accepts_drawn_isometries():
    rng = np.random.default_rng(4)
    for q in (2, 3):
        f = random_isometry(rng, q, 4, move=2)
        _words, par, img_d, img_r = _image_arrays(f)
        _check_image(q, par, img_d, img_r)


def test_image_check_rejects_corruptions():
    q = 3
    f = random_isometry(np.random.default_rng(8), q, 3, move=1)
    words, par, img_d, img_r = _image_arrays(f)
    index = {w: i for i, w in enumerate(words)}

    # two images swapped: a depth-1 word and a depth-3 word
    i, j = index[(0,)], index[(2, 1, 0)]
    d, r = img_d.copy(), img_r.copy()
    d[[i, j]], r[[i, j]] = d[[j, i]], r[[j, i]]
    with pytest.raises(ValueError, match="adjacency broken"):
        _check_image(q, par, d, r)

    # a duplicated image: two siblings sent to the same vertex
    i, j = index[(1, 0)], index[(1, 1)]
    d, r = img_d.copy(), img_r.copy()
    d[j], r[j] = d[i], r[i]
    with pytest.raises(ValueError, match="not injective"):
        _check_image(q, par, d, r)

    # a broken adjacency: a leaf sent to an unused vertex far from its
    # parent's image
    used = set(zip(img_d.tolist(), img_r.tolist()))
    far = next(rk for rk in range(4 * 3**5) if (6, rk) not in used)
    d, r = img_d.copy(), img_r.copy()
    d[index[(2, 2, 2)]], r[index[(2, 2, 2)]] = 6, far
    with pytest.raises(ValueError, match="adjacency broken"):
        _check_image(q, par, d, r)

    # a rank beyond its sphere
    d, r = img_d.copy(), img_r.copy()
    i = index[(0, 0)]
    r[i] = (q + 1) * q ** (d[i] - 1) if d[i] else 1
    with pytest.raises(ValueError, match="out of range"):
        _check_image(q, par, d, r)


def _scalar_word(rng, q, depth):
    """random_word as one scalar rng.integers call per label."""
    if depth == 0:
        return ()
    labels = [int(rng.integers(0, q + 1))]
    labels.extend(int(rng.integers(0, q)) for _ in range(depth - 1))
    return tuple(labels)


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_bulk_word_matches_scalar_draws(q):
    for seed in range(100):
        r_old, r_new = np.random.default_rng(seed), np.random.default_rng(seed)
        for depth in range(71):
            assert random_word(r_new, q, depth) == _scalar_word(r_old, q, depth)
            # other draws in between, as the suites make them
            for r in (r_old, r_new):
                r.integers(0, 4)
                if depth % 3 == 0:
                    r.permutation(q)
        assert r_new.bit_generator.state == r_old.bit_generator.state


def _all_draw_cases():
    for q in (2, 3, 4):
        for radius in range(6):
            words = ball_words((), radius, q)
            for move in range(3):
                yield (
                    100 * q + 10 * radius + move,
                    lambda rng, q=q, words=words, move=move: _per_vertex_draw(rng, q, words, move),
                    lambda rng, q=q, radius=radius, move=move: random_isometry(rng, q, radius, move),
                )
    rng = np.random.default_rng(23)
    for seed in range(60):
        q = int(rng.integers(2, 5))
        words = [random_word(rng, q, int(rng.integers(0, 14))) for _ in range(int(rng.integers(1, 7)))]
        words.append(random_word(rng, q, 70) if seed % 10 == 0 else ())
        move = int(rng.integers(0, 3))
        ordered = _ancestor_closure(words)
        yield (
            seed,
            lambda r, q=q, ordered=ordered, move=move: _per_vertex_draw(r, q, ordered, move),
            lambda r, q=q, words=words, move=move: random_isometry_on(r, q, words, move),
        )


@pytest.mark.parametrize("side", ["by-word", "by-layer"])
def test_draw_matches_per_vertex_loop_on_each_side_of_threshold(monkeypatch, side):
    monkeypatch.setattr(verify, "_LOOP_DOMAIN", 10**9 if side == "by-word" else 1)
    for seed, draw_old, draw_new in _all_draw_cases():
        _assert_same_draw(seed, draw_old, draw_new)


def test_threshold_splits_the_suite_domains():
    # the 24-word ancestor closure of `verify reps` is drawn word by word,
    # the radius-7 balls of `verify geometry` layer by layer
    reps_closure = _ancestor_closure(_witness_words(centipede_shape(2, 4), 10))
    assert len(reps_closure) < verify._LOOP_DOMAIN <= len(ball_words((), 7, 2))


def _ray_by_prefixes(f, r):
    """apply_ray as it read every prefix image: the oracle."""
    w = r.word
    if not w:
        return RayPrefix(())
    imgs = [f.apply_word(w[:t]) for t in range(len(w) + 1)]
    if imgs[-2] != imgs[-1][:-1]:
        raise InsufficientDepth("image cylinder is not a root cylinder; deepen the prefix")
    return RayPrefix(imgs[-1])


def _outcome(call):
    try:
        return ("ok", call())
    except ArbocohError as exc:
        return (type(exc).__name__, str(exc))


# ball radii from which random_isometry keeps its codes (64 words and up)
_CODED_RADIUS = {2: 5, 3: 4, 4: 3}


@settings(max_examples=40, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from([2, 3, 4]),
    st.integers(0, 2),
    st.integers(0, 1),
    st.integers(0, 2),
)
def test_coded_isometry_matches_dict_built(seed, q, extra, move, move2):
    radius = _CODED_RADIUS[q] + extra
    words = ball_words((), radius, q)
    r_dict, r_code = np.random.default_rng(seed), np.random.default_rng(seed)
    want = [_per_vertex_draw(r_dict, q, words, m) for m in (move, move2)]
    got = [random_isometry(r_code, q, radius, m) for m in (move, move2)]
    # the codes are kept, also by the inverse
    assert all(f._codes is not None and f.inverse()._codes is not None for f in got)

    rng = np.random.default_rng(seed + 1)
    probes = words + [  # words just outside the ball, and bad labels
        random_word(rng, q, radius + 1) for _ in range(20)
    ] + [(q + 1,), (0, q), (q, 0, -1)]
    rays = [RayPrefix(random_word(rng, q, int(rng.integers(0, radius + 5)))) for _ in range(40)]
    rays += [RayPrefix((q + 1, 0, 0)), RayPrefix((0, q) + (0,) * radius)]
    for g, f in zip(got, want):
        for h, k in ((g, f), (g.inverse(), f.inverse())):
            imgs = list(k.mapping.values())
            for w in probes + imgs + [v + (0,) for v in imgs[-5:]]:
                assert _outcome(lambda: h.apply_word(w)) == _outcome(lambda: k.apply_word(w))
                assert _outcome(lambda: h.apply_vertex(Vertex(w))) == _outcome(
                    lambda: k.apply_vertex(Vertex(w))
                )
            for r in rays + [RayPrefix(v) for v in imgs[-5:]]:
                want_ray = _outcome(lambda: _ray_by_prefixes(k, r))
                assert _outcome(lambda: h.apply_ray(r)) == want_ray
                assert _outcome(lambda: k.apply_ray(r)) == want_ray
            assert list(h.mapping.items()) == list(k.mapping.items())
            assert h == k and k == h
            assert repr(h) == repr(k)
    assert got[0] != got[1] or want[0] == want[1]
    for a, b in ((0, 1), (1, 0)):
        assert got[a].compose(got[b]) == want[a].compose(want[b])
        assert got[a].compose(got[a].inverse()).mapping == want[a].compose(want[a].inverse()).mapping
