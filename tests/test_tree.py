"""Exact tree geometry: distances, Gromov products, medians, Busemann
values, visual measures, and finite isometries."""

import pytest
from fractions import Fraction
from hypothesis import given, settings
from hypothesis import strategies as st

from arbocoh.errors import (
    DegenerateCylinder,
    InsufficientDepth,
    NotDistinct,
    OutOfDomain,
)
from arbocoh.tree import (
    O,
    RayPrefix,
    TreeIsometry,
    Vertex,
    busemann,
    cylinder_measure,
    distance,
    extend_isometry,
    gromov_product,
    identity_isometry,
    median,
    poisson_kernel,
    word_distance,
    word_neighbors,
    vertex_to_ray_path,
    word_path,
)
from arbocoh.verify import random_isometry, random_rays, random_word

import numpy as np


def test_distance_examples():
    assert distance(O, O) == 0
    assert distance(O, Vertex((0,))) == 1
    assert distance(Vertex((0, 1)), Vertex((2,))) == 3


def test_word_path_examples_and_walk():
    assert word_path((0, 1), (2,)) == [(0, 1), (0,), (), (2,)]
    assert word_path((1,), (1, 0, 1)) == [(1,), (1, 0), (1, 0, 1)]
    assert word_path((), ()) == [()]
    rng = np.random.default_rng(3)
    for _ in range(200):
        a = random_word(rng, 3, int(rng.integers(0, 6)))
        b = random_word(rng, 3, int(rng.integers(0, 6)))
        path = word_path(a, b)
        assert (path[0], path[-1], len(path)) == (a, b, word_distance(a, b) + 1)
        assert all(y in word_neighbors(x, 3) for x, y in zip(path, path[1:]))
        assert word_path(b, a) == path[::-1]


def test_gromov_product_examples():
    assert gromov_product(RayPrefix((0, 0)), RayPrefix((1, 0)), O) == 0
    assert gromov_product(RayPrefix((0, 0, 1)), RayPrefix((0, 1, 0)), O) == 1
    assert gromov_product(Vertex((0, 1)), Vertex((0,)), O) == 1


def _path_min_gromov(a, b, base):
    """Gromov product as the distance from base to the known geodesic
    path, with the prefix checks of the closed form: the oracle."""

    def proper_prefix(u, w):
        return len(u) < len(w) and w[: len(u)] == u

    if isinstance(a, Vertex) and isinstance(b, Vertex):
        path, frontiers = word_path(a.word, b.word), []
    elif isinstance(a, Vertex):
        path, frontiers = vertex_to_ray_path(a.word, b.word), [b.word]
    elif isinstance(b, Vertex):
        path, frontiers = vertex_to_ray_path(b.word, a.word), [a.word]
    else:
        wa, wb = a.word, b.word
        if wa == wb:
            raise NotDistinct("identical ray prefixes do not determine a geodesic")
        if proper_prefix(wa, wb) or proper_prefix(wb, wa):
            raise InsufficientDepth(
                f"prefixes {list(wa)}, {list(wb)} do not show where the rays diverge"
            )
        path, frontiers = word_path(wa, wb), [wa, wb]
    for f in frontiers:
        if proper_prefix(f, base.word):
            raise InsufficientDepth(
                f"base {base} hangs below the frontier {list(f)} of the geodesic"
            )
    return min(word_distance(base.word, v) for v in path)


@st.composite
def gromov_inputs(draw):
    """Two points and a base at q in {2, 3}; each word keeps a random
    prefix of an earlier one, so prefix relations and equal words are
    frequent."""
    q = draw(st.sampled_from([2, 3]))

    def word(stem):
        w = list(stem[: draw(st.integers(0, len(stem)))])
        for _ in range(draw(st.integers(0, 4))):
            w.append(draw(st.integers(0, q if not w else q - 1)))
        return tuple(w)

    wa = word(())
    wb = word(wa)
    wx = word(draw(st.sampled_from([wa, wb])))
    a, b = (draw(st.sampled_from([Vertex, RayPrefix]))(w) for w in (wa, wb))
    return a, b, Vertex(wx)


@settings(max_examples=600, deadline=None)
@given(gromov_inputs())
def test_gromov_closed_form_matches_path_min(args):
    try:
        want = _path_min_gromov(*args)
    except (NotDistinct, InsufficientDepth) as exc:
        with pytest.raises(type(exc)) as got:
            gromov_product(*args)
        assert type(got.value) is type(exc) and str(got.value) == str(exc)
    else:
        assert gromov_product(*args) == want


def _distance_form_gromov(a, b, base):
    """The Gromov product as it was computed before the lcp form: prefix
    checks, then (d(x,a) + d(x,b) - d(a,b)) / 2 on the words."""

    def proper_prefix(u, w):
        return len(u) < len(w) and w[: len(u)] == u

    wa, wb = a.word, b.word
    if isinstance(a, Vertex) and isinstance(b, Vertex):
        frontiers = ()
    elif isinstance(a, Vertex):
        if proper_prefix(wb, wa):
            raise InsufficientDepth(f"ray prefix {list(wb)} too shallow: vertex {list(wa)} hangs below it")
        frontiers = (wb,)
    elif isinstance(b, Vertex):
        if proper_prefix(wa, wb):
            raise InsufficientDepth(f"ray prefix {list(wa)} too shallow: vertex {list(wb)} hangs below it")
        frontiers = (wa,)
    else:
        if wa == wb:
            raise NotDistinct("identical ray prefixes do not determine a geodesic")
        if proper_prefix(wa, wb) or proper_prefix(wb, wa):
            raise InsufficientDepth(
                f"prefixes {list(wa)}, {list(wb)} do not show where the rays diverge"
            )
        frontiers = (wa, wb)
    x = base.word
    for f in frontiers:
        if proper_prefix(f, x):
            raise InsufficientDepth(f"base {base} hangs below the frontier {list(f)} of the geodesic")
    return (word_distance(x, wa) + word_distance(x, wb) - word_distance(wa, wb)) // 2


@settings(max_examples=600, deadline=None)
@given(gromov_inputs())
def test_lcp_form_matches_distance_form(args):
    try:
        want = _distance_form_gromov(*args)
    except (NotDistinct, InsufficientDepth) as exc:
        with pytest.raises(type(exc)) as got:
            gromov_product(*args)
        assert type(got.value) is type(exc) and str(got.value) == str(exc)
    else:
        assert gromov_product(*args) == want


def test_gromov_product_identical_rays_rejected():
    r = RayPrefix((0, 1))
    with pytest.raises(NotDistinct):
        gromov_product(r, RayPrefix((0, 1)), O)
    with pytest.raises(InsufficientDepth):
        gromov_product(r, RayPrefix((0, 1, 0)), O)


def test_gromov_base_below_frontier_rejected():
    # base hangs below the known prefix of one ray
    with pytest.raises(InsufficientDepth):
        gromov_product(RayPrefix((0,)), RayPrefix((1,)), Vertex((0, 1, 0)))


def test_median_examples():
    r0, r1, r2 = RayPrefix((0, 0)), RayPrefix((1, 0)), RayPrefix((2, 0))
    assert median(r0, r1, r2) == O
    a, b, c = RayPrefix((0, 0, 1)), RayPrefix((0, 1, 1)), RayPrefix((1, 0))
    assert median(a, b, c) == Vertex((0,))
    # symmetric under permutations
    assert median(c, a, b) == Vertex((0,))
    assert median(b, c, a) == Vertex((0,))


def test_median_errors():
    with pytest.raises(NotDistinct):
        median(RayPrefix((0,)), RayPrefix((0,)), RayPrefix((1,)))
    with pytest.raises(InsufficientDepth):
        median(RayPrefix((0,)), RayPrefix((0, 1)), RayPrefix((1,)))


def test_busemann_examples():
    g = RayPrefix((0, 0, 0))
    assert busemann(g, Vertex((1, 0)), Vertex((1, 0))) == 0
    assert busemann(g, O, Vertex((0,))) == 1
    assert busemann(g, Vertex((0,)), O) == -1


def test_busemann_insufficient_depth():
    with pytest.raises(InsufficientDepth):
        busemann(RayPrefix((0,)), Vertex((0, 1, 0)), O)


def test_poisson_kernel_examples():
    g = RayPrefix((0, 0, 0))
    assert poisson_kernel(Vertex((2,)), Vertex((2,)), g, 2) == 1
    assert poisson_kernel(O, Vertex((0,)), g, 2) == Fraction(2)
    assert poisson_kernel(O, Vertex((0,)), RayPrefix((1, 0, 0)), 3) == Fraction(1, 3)


def test_cylinder_measure_examples():
    assert cylinder_measure(O, Vertex((0,)), 2) == Fraction(1, 3)
    assert cylinder_measure(O, Vertex((0, 1)), 2) == Fraction(1, 6)
    assert sum(cylinder_measure(O, Vertex((i,)), 2) for i in range(3)) == 1
    with pytest.raises(DegenerateCylinder):
        cylinder_measure(O, O, 2)


@pytest.mark.parametrize("q", [2, 3])
def test_busemann_cocycle_random(q):
    rng = np.random.default_rng(10 + q)
    for _ in range(200):
        g = RayPrefix(random_word(rng, q, 10))
        x, y, z = (Vertex(random_word(rng, q, int(rng.integers(0, 6)))) for _ in range(3))
        assert busemann(g, x, y) + busemann(g, y, z) == busemann(g, x, z)
        assert busemann(g, x, y) == -busemann(g, y, x)
        assert abs(busemann(g, x, y)) <= distance(x, y)


@pytest.mark.parametrize("q", [2, 3])
def test_radon_nikodym_ratio_exact(q):
    rng = np.random.default_rng(20 + q)
    for _ in range(200):
        g = RayPrefix(random_word(rng, q, 12))
        w = Vertex(g.word[: int(rng.integers(8, 12))])
        x = Vertex(random_word(rng, q, int(rng.integers(0, 5))))
        y = Vertex(random_word(rng, q, int(rng.integers(0, 5))))
        ratio = cylinder_measure(y, w, q) / cylinder_measure(x, w, q)
        assert ratio == poisson_kernel(x, y, g, q)


def test_extend_identity_ball():
    g = extend_isometry(identity_isometry(2), 2)
    assert len(g.mapping) == 10  # 1 + 3 + 6
    assert all(k == v for k, v in g.mapping.items())


def test_extend_child_swap():
    h0 = TreeIsometry(2, {(): (), (0,): (1,), (1,): (0,), (2,): (2,)})
    h = extend_isometry(h0, 2)
    # lexicographic extension maps the subtree below (0,) onto (1,) label-wise
    assert h.mapping[(0, 0)] == (1, 0)
    assert h.mapping[(0, 1)] == (1, 1)
    assert h.mapping[(2, 0)] == (2, 0)
    # adjacency preserved everywhere (constructor validates, but be explicit)
    for w, v in h.mapping.items():
        if w and w[:-1] in h.mapping:
            assert distance(Vertex(v), Vertex(h.mapping[w[:-1]])) == 1


def test_extend_deterministic():
    h0 = TreeIsometry(2, {(): (), (0,): (1,), (1,): (0,), (2,): (2,)})
    once = extend_isometry(h0, 3)
    twice = extend_isometry(extend_isometry(h0, 3), 3)
    assert once == twice
    grown = extend_isometry(extend_isometry(h0, 1), 3)
    assert grown == once


def test_apply_isometry_examples():
    ident = extend_isometry(identity_isometry(2), 3)
    assert ident.apply(Vertex((0, 1))) == Vertex((0, 1))
    assert ident.apply(RayPrefix((2, 0))) == RayPrefix((2, 0))
    with pytest.raises(OutOfDomain):
        ident.apply(Vertex((0, 1, 0, 0)))


def test_apply_inverse_roundtrip():
    rng = np.random.default_rng(7)
    for q in (2, 3):
        f = random_isometry(rng, q, 5, move=1)
        fi = f.inverse()
        for _ in range(25):
            v = Vertex(random_word(rng, q, int(rng.integers(0, 5))))
            assert fi.apply_vertex(f.apply_vertex(v)) == v
            r = RayPrefix(random_word(rng, q, 4))
            assert fi.apply_ray(f.apply_ray(r)) == r


def test_isometry_preserves_distance_random_pairs():
    rng = np.random.default_rng(42)
    f = random_isometry(rng, 2, 6, move=2)
    for _ in range(100):
        u = Vertex(random_word(rng, 2, int(rng.integers(0, 6))))
        v = Vertex(random_word(rng, 2, int(rng.integers(0, 6))))
        assert distance(f.apply_vertex(u), f.apply_vertex(v)) == distance(u, v)


def test_isometry_preserves_median_and_products():
    rng = np.random.default_rng(43)
    for q in (2, 3):
        f = random_isometry(rng, q, 7, move=1)
        for _ in range(40):
            rays = random_rays(rng, q, 3, 5)
            imgs = [f.apply_ray(r) for r in rays]
            assert median(*imgs) == f.apply_vertex(median(*rays))
            base = Vertex(random_word(rng, q, int(rng.integers(0, 4))))
            assert gromov_product(imgs[0], imgs[1], f.apply_vertex(base)) == gromov_product(
                rays[0], rays[1], base
            )


def test_apply_ray_non_root_image_rejected():
    # swapping o with a child turns the cylinder inside out: the image is
    # not a root cylinder and the call must refuse rather than guess
    swap = TreeIsometry(2, {(): (0,), (0,): (), (1,): (0, 0), (2,): (0, 1)})
    with pytest.raises(InsufficientDepth):
        swap.apply_ray(RayPrefix((0,)))


def _ray_by_prefixes(f, r):
    """apply_ray read off the image of every prefix: the oracle."""
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
    except (InsufficientDepth, OutOfDomain) as exc:
        return (type(exc).__name__, str(exc))


def test_apply_ray_matches_every_prefix_image():
    # rays inside, across and past the domain, of drawn isometries and
    # their inverses; the inverse's domain is not a ball around o
    rng = np.random.default_rng(11)
    for q, radius in ((2, 4), (3, 3), (4, 2)):
        for move in range(3):
            f = random_isometry(rng, q, radius, move)
            for h in (f, f.inverse()):
                for _ in range(30):
                    r = RayPrefix(random_word(rng, q, int(rng.integers(0, radius + 3))))
                    assert _outcome(lambda: h.apply_ray(r)) == _outcome(lambda: _ray_by_prefixes(h, r))


def test_apply_ray_names_the_first_prefix_missing():
    """A miss of the root or of w[:-2] names the first prefix outside the
    domain, as a check of every prefix did; a hit checks no other prefix."""
    ball = TreeIsometry(2, {w: w for w in [(), (0,), (1,), (2,), (0, 1), (0, 1, 1)]})
    no_root = TreeIsometry(2, {(0,): (0,), (0, 0): (0, 0), (0, 1): (0, 1)})
    cases = [
        (ball, (0, 1, 1), "ok"),
        (ball, (0, 1, 1, 0), "[0, 1, 1, 0] not in isometry domain"),
        (ball, (0, 0, 1), "[0, 0] not in isometry domain"),
        (ball, (1, 0, 1, 0), "[1, 0] not in isometry domain"),
        (ball, (0, 1, 1, 0, 0, 1), "[0, 1, 1, 0] not in isometry domain"),
        (no_root, (0, 0), "[] not in isometry domain"),
        (no_root, (0,), "[] not in isometry domain"),
    ]
    for f, w, want in cases:
        r = RayPrefix(w)
        got = _outcome(lambda: f.apply_ray(r))
        assert got == _outcome(lambda: _ray_by_prefixes(f, r))
        assert got[0] == "ok" if want == "ok" else got == ("OutOfDomain", want)


def test_apply_ray_image_branch_contains_all_extensions():
    """The image cylinder word is a prefix of the image of every deeper
    vertex below the ray prefix: the returned cylinder is the exact image
    of the boundary set."""
    rng = np.random.default_rng(77)
    for q in (2, 3):
        for trial in range(15):
            f = random_isometry(rng, q, 8, move=int(rng.integers(0, 3)))
            r = RayPrefix(random_word(rng, q, 4))
            img = f.apply_ray(r)
            for _ in range(10):
                ext = r.word + tuple(int(rng.integers(0, q)) for _ in range(3))
                fw = f.apply_word(ext)
                assert fw[: len(img.word)] == img.word


def test_invalid_isometry_rejected():
    with pytest.raises(ValueError):
        TreeIsometry(2, {(): (), (0,): (0, 1)})  # image not adjacent to f(parent)
    with pytest.raises(ValueError):
        TreeIsometry(2, {(): (), (0,): (1,), (1,): (1,)})  # not injective
    with pytest.raises(ValueError):
        TreeIsometry(2, {(): (), (0, 0): (0, 0)})  # disconnected domain
