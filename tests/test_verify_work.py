"""Work the verify suites do not repeat, and ray batches that cannot hang:
each invariant is computed once per key, every cache is bounded and hands
out values no caller can change, and random_rays keeps its draws."""

import time

import numpy as np
import pytest

from arbocoh import chartab, perm, reptheory, shapes, verify, witness
from arbocoh.chartab import character_table, realize_irrep
from arbocoh.config import MAX_SUBTREE_Q, Config
from arbocoh.errors import InvalidInput, NumericalDegeneracy, TooManyRays
from arbocoh.perm import shape_automorphism_group
from arbocoh.shapes import centipede_shape, enumerate_embeddings, hits, least_embeddings
from arbocoh.tree import RayPrefix, Vertex, ball_words


def _redraw_until_distinct(rng, q, n, depth):
    """random_rays as it was first written: redraw the batch until every
    pair of rays differs before the given depth."""
    while True:
        rays = [RayPrefix(verify.random_word(rng, q, depth)) for _ in range(n)]
        if all(
            rays[i].word[: depth - 1] != rays[j].word[: depth - 1]
            for i in range(n)
            for j in range(i + 1, n)
        ):
            return rays


@pytest.mark.parametrize("q, n, depth", [(2, 3, 5), (2, 6, 5), (3, 7, 4), (2, 7, 12), (3, 60, 12)])
def test_random_rays_keeps_its_draws(q, n, depth):
    for seed in range(30):
        r_old, r_new = np.random.default_rng(seed), np.random.default_rng(seed)
        assert verify.random_rays(r_new, q, n, depth) == _redraw_until_distinct(r_old, q, n, depth)
        assert r_new.bit_generator.state == r_old.bit_generator.state


@pytest.mark.parametrize("q", [2, 3, 5, 2**32 - 1, 2**32, 2**63 - 1])
def test_batched_rays_match_word_draws(q):
    """A batch is one rng.integers call over an array of bounds: the rays of
    one random_word per ray, batch after batch, and the same generator
    state, with other draws in between; a refused batch draws nothing."""
    for n in range(1, 8):
        r_old, r_new = np.random.default_rng(n), np.random.default_rng(n)
        for depth in range(23):
            try:
                rays = verify.random_rays(r_new, q, n, depth)
            except TooManyRays:
                pass  # refused before any draw: the states below stay equal
            else:
                assert rays == _redraw_until_distinct(r_old, q, n, depth)
            for r in (r_old, r_new):
                r.integers(0, 4)
                if depth % 3 == 0:
                    r.random()  # a 64-bit draw beside the buffered 32-bit ones
            assert r_new.bit_generator.state == r_old.bit_generator.state


def test_improbable_batch_raises_before_any_draw():
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    with pytest.raises(TooManyRays, match="probability below"):
        verify.random_rays(rng, 2, 500, 12)
    assert rng.bit_generator.state == state


def test_subtree_q_over_bound_raises_before_any_draw():
    # the library call refuses at once, whoever calls it
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    start = time.perf_counter()
    with pytest.raises(InvalidInput, match=f"q <= {MAX_SUBTREE_Q}"):
        verify.random_flip_instance(rng, MAX_SUBTREE_Q + 1, 12)
    assert time.perf_counter() - start < 1
    assert rng.bit_generator.state == state


@pytest.mark.parametrize("q", [2**63, 10**24])
def test_ray_q_past_int64_raises_before_any_draw(q):
    # the letters are drawn as int64: the library refuses q >= 2^63 itself
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    with pytest.raises(InvalidInput, match="q < 2\\^63"):
        verify.random_rays(rng, q, 3, 12)
    assert rng.bit_generator.state == state


def test_ray_q_at_int64_limit_is_drawn():
    rays = verify.random_rays(np.random.default_rng(0), 2**63 - 1, 3, 12)
    assert len({r.word[:11] for r in rays}) == 3


def test_batches_are_capped(monkeypatch):
    monkeypatch.setattr(verify, "_RAY_BATCHES", 1)
    # 6 rays among 24 prefixes: distinct with probability about 0.5
    outcomes = set()
    for seed in range(20):
        try:
            verify.random_rays(np.random.default_rng(seed), 2, 6, 5)
            outcomes.add("drawn")
        except TooManyRays as exc:
            assert "in 1 batches" in str(exc)
            outcomes.add("capped")
    assert outcomes == {"drawn", "capped"}


def test_flip_suite_enumerates_no_window(monkeypatch):
    """The flip suite draws each subtree by its rank in the window and
    builds only that one: enumerate_embeddings is called zero times."""
    calls = []

    def counting(s, anchor, radius):
        calls.append((s, anchor.word, radius))
        return []

    monkeypatch.setattr(verify, "enumerate_embeddings", counting)
    monkeypatch.setattr(shapes, "enumerate_embeddings", counting)
    assert verify.flip_suite(Config(seed=2))["passed"]
    assert calls == []


@pytest.mark.parametrize("q", [2, 3, 4])
def test_rank_draw_matches_the_window(q):
    """Every kind, every anchor of depth <= 3 and every index: the window
    has the closed-form size, and the embedding built from the index is
    the window's entry, placement included."""
    for kind in range(len(verify._FLIP_SHAPES)):
        s = verify._flip_shape(kind, q)
        for anchor in ball_words((), 3, q):
            window = enumerate_embeddings(s, Vertex(anchor), 2)
            assert len(window) == (q + 2, (q + 1) ** 2, q + 1)[kind]
            for i, e in enumerate(window):
                (drawn,) = least_embeddings(s, verify._window_core(kind, q, anchor, i))
                assert drawn.placement == e.placement, (kind, anchor, i)


def test_subtree_draws_keep_their_order():
    """The draws of random_flip_instance, in their order, against the
    window enumerated and indexed as it first was."""
    for seed in range(40):
        for q in (2, 3):
            r_old, r_new = np.random.default_rng(seed), np.random.default_rng(seed)
            assert verify.random_flip_instance(r_new, q, 12) == _enumerated_instance(r_old, q, 12)
            assert r_new.bit_generator.state == r_old.bit_generator.state


def _enumerated_instance(rng, q, depth):
    """random_flip_instance drawing from the enumerated window."""
    rays = verify.random_rays(rng, q, int(rng.integers(3, 8)), depth)
    if rng.integers(0, 2) == 0:
        return rays, None
    kind = int(rng.integers(0, 3))
    for _ in range(20):
        anchor = verify.random_word(rng, q, int(rng.integers(0, 4)))
        embs = enumerate_embeddings(verify._flip_shape(kind, q), Vertex(anchor), 2)
        e = embs[int(rng.integers(0, len(embs)))]
        if not hits(e, rays[0], rays[1], rays[2]):
            return rays, e
    return rays, None


def test_reps_suite_builds_invariants_once(monkeypatch):
    stabilizers, checks = [], []
    real_stabilizer, real_check = chartab.pointwise_stabilizer, witness.check_witness_vector

    def counting_stabilizer(G, points):
        stabilizers.append(tuple(points))
        return real_stabilizer(G, points)

    def counting_check(model, ref, v):
        checks.append(model)
        return real_check(model, ref, v)

    monkeypatch.setattr(chartab, "pointwise_stabilizer", counting_stabilizer)
    monkeypatch.setattr(witness, "check_witness_vector", counting_check)
    chartab.realize_irrep.cache_clear()  # fresh models hold no projectors yet
    per_key = (witness._section_items, witness._ranked_reference, witness._check_vector, reptheory.analysis)
    for cache in per_key + (witness._geodesic_words,):
        cache.cache_clear()
    assert verify.reps_suite(Config(seed=2))["passed"]
    # one model and one endpoint pair throughout the witness check
    assert len({id(m) for m in checks}) == 1 and len(checks) > 1000
    assert len(stabilizers) == 1
    for cache in per_key:
        info = cache.cache_info()
        assert info.misses == info.currsize  # nothing computed twice
        assert info.hits > info.misses
    # the three geodesics of a ray triple serve every embedding near it
    info = witness._geodesic_words.cache_info()
    assert info.hits > 2 * info.misses


CACHES = [
    verify._flip_shape,
    verify._window_embedding,
    perm._subgroup_lattice,
    witness._section_items,
    witness._ranked_reference,
    witness._geodesic_words,
    witness._check_vector,
    reptheory.analysis,
]


def test_flip_suite_builds_each_window_entry_once():
    """At seed 1 the thousand instances draw 507 subtrees from 230 window
    entries: each entry's embedding is built once."""
    verify._window_embedding.cache_clear()
    assert verify.flip_suite(Config(seed=1))["passed"]
    info = verify._window_embedding.cache_info()
    assert (info.hits + info.misses, info.misses) == (507, 230)


def test_reps_suite_enumerates_each_subgroup_lattice_once():
    """The models' line subgroups and the projector-rank loop read one
    lattice per host: three enumerations for the three hosts."""
    perm._subgroup_lattice.cache_clear()
    chartab._line_subgroups.cache_clear()
    chartab.realize_irrep.cache_clear()
    assert verify.reps_suite(Config(seed=1))["passed"]
    info = perm._subgroup_lattice.cache_info()
    assert (info.misses, info.hits) == (3, 3)


@pytest.mark.parametrize("cache", CACHES, ids=lambda c: c.__name__)
def test_caches_are_bounded(cache):
    assert cache.cache_info().maxsize is not None


def test_cached_values_cannot_be_changed_by_callers():
    s = centipede_shape(2, 4)
    pairs = reptheory.admissible_vertex_pairs(s)
    pairs.clear()
    assert reptheory.admissible_vertex_pairs(s)
    a = reptheory.analysis(s, character_table(shape_automorphism_group(s)))
    assert isinstance(a.pairs, frozenset) and isinstance(a.subtrees, tuple)
    with pytest.raises(TypeError):
        a.row_of_fingerprint["deg1[1]"] = 0
    for counts, _order in a.heads + a.stabilizers(*min(a.pairs)):
        with pytest.raises(ValueError):
            counts[0] = 5

    ref = witness.reference_configuration(s, 10)
    section = witness.canonical_section(ref, ref.embedding)
    section.clear()
    assert witness.canonical_section(ref, ref.embedding)

    model = realize_irrep(character_table(shape_automorphism_group(s, 10**6)), 0)
    for p in model.pair_projectors(0, 1):
        with pytest.raises(ValueError):
            p[0, 0] = 5.0


def test_a_refused_table_fails_its_check_and_names_its_shape(monkeypatch):
    """character_tables_orthogonal counts the tables the integer proof
    certified, and fails naming the catalog shape whose table raised
    NumericalDegeneracy."""
    real, groups = verify.character_table, []

    def refuse_the_first(G):
        groups.append(G)
        if len(groups) == 1:
            raise NumericalDegeneracy("no rounded table passed the exact checks in 8 tries")
        return real(G)

    monkeypatch.setattr(verify, "character_table", refuse_the_first)
    report = verify.reps_suite(Config(seed=0))
    check = next(c for c in report["checks"] if c["name"] == "character_tables_orthogonal")
    assert not check["passed"] and not report["passed"]
    assert check["failures"] == ["q2d5#0"]
    assert check["proved"] == check["n_shapes"] - 1 > 0
