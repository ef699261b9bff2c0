"""Random isometry germs: the bulk permutation draw equals the per-vertex
draw, draw for draw, on balls and on ancestor closures; the geometry suite
draws each isometry only on the few words it applies it to; random words
drawn in bulk equal the scalar draws."""

import numpy as np
import pytest

from arbocoh import verify
from arbocoh.config import Config
from arbocoh.shapes import centipede_shape, star_shape
from arbocoh.tree import TreeIsometry, ball_words, word_neighbors
from arbocoh.verify import random_isometry, random_isometry_on, random_word
from arbocoh.witness import reference_configuration


def _per_vertex_draw(rng, q, ordered_words, move):
    """The per-vertex loop the bulk draw replaces: one rng.permutation per
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
    # two branches 70 and 66 words deep
    rng = np.random.default_rng(q)
    words = [random_word(rng, q, 70), random_word(rng, q, 66)]
    ordered = _ancestor_closure(words)
    _assert_same_draw(
        3,
        lambda r: _per_vertex_draw(r, q, ordered, 2),
        lambda r: random_isometry_on(r, q, words, 2),
    )


@pytest.mark.parametrize("seed", range(4))
def test_geometry_suite_draws_isometries_on_few_words(monkeypatch, seed):
    # each of the 60 isometries is drawn on the ancestor closure of the
    # words it is applied to (three vertices and three depth-5 rays), not
    # on a radius-7 ball of up to 4,373 words
    sizes = []

    def spy(rng, q, words, move=0):
        f = random_isometry_on(rng, q, words, move)
        sizes.append(len(f.mapping))
        return f

    monkeypatch.setattr(verify, "random_isometry_on", spy)
    assert verify.geometry_suite(Config(seed=seed))["passed"]
    assert len(sizes) == 60
    assert max(sizes) <= 30


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
