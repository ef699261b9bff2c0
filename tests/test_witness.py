"""The explicit degree-2 witness cochain: reference values, alternation,
equivariance, vector preconditions, and finite support of the coboundary."""

import numpy as np
import pytest

from arbocoh import shapes, treecode, verify, witness
from arbocoh.chartab import character_table, realize_irrep
from arbocoh.errors import BadVector, NotACentipede
from arbocoh.perm import shape_automorphism_group
from arbocoh.shapes import centipede_shape, enumerate_embeddings, hits, star_shape, y_shape
from arbocoh.tree import Vertex, median, word_neighbors
from arbocoh.verify import kernel_st_row, random_isometry_on, random_rays
from arbocoh.witness import (
    canonical_section,
    check_witness_vector,
    induced_reference_permutation,
    map_embedding,
    reference_configuration,
    witness_cochain,
)

DEPTH = 10


@pytest.fixture(scope="module")
def cent4_setup():
    s = centipede_shape(2, 4)
    t = character_table(shape_automorphism_group(s))
    model = realize_irrep(t, kernel_st_row(s))
    ref = reference_configuration(s, DEPTH)
    return s, model, ref


def test_reference_value_is_v(cent4_setup):
    s, model, ref = cent4_setup
    v = np.array([1.0 + 0j])
    out = witness_cochain(s, model, v, ref.gamma0, ref.gamma1, ref.embedding, DEPTH)
    assert np.allclose(out, v)


def test_swapped_rays_give_minus_v(cent4_setup):
    s, model, ref = cent4_setup
    v = np.array([1.0 + 0j])
    out = witness_cochain(s, model, v, ref.gamma1, ref.gamma0, ref.embedding, DEPTH)
    assert np.allclose(out, -v)


def test_off_geodesic_gives_zero(cent4_setup):
    s, model, ref = cent4_setup
    v = np.array([1.0 + 0j])
    embs = enumerate_embeddings(s, Vertex((2, 0)), 4)
    off = next(e for e in embs if all(w[:1] == (2,) for w in e.image_words()))
    out = witness_cochain(s, model, v, ref.gamma0, ref.gamma1, off, DEPTH)
    assert np.allclose(out, 0)


def test_bad_vector_rejected(cent4_setup):
    s, model, ref = cent4_setup
    t = model.table
    # the other non-degenerate linear character keeps a setwise-invariant
    # component, so the same vector fails its precondition
    other = next(
        r
        for r in range(t.n_rows)
        if t.degrees[r] == 1
        and r != model.row
        and all(abs(abs(v) - 1) < 1e-9 for v in t.characters[r])
    )
    from arbocoh.reptheory import enumerate_nondegenerate

    rows = dict((r, h2) for r, _d, h2 in enumerate_nondegenerate(s))
    flat = next(r for r, h2 in rows.items() if h2 == 0)
    model_flat = realize_irrep(t, flat)
    for _ in range(2):  # a bad vector is never remembered as tested
        with pytest.raises(BadVector):
            witness_cochain(s, model_flat, np.array([1.0 + 0j]), ref.gamma0, ref.gamma1, ref.embedding, DEPTH)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0, np.nan)])
def test_non_finite_vector_rejected(cent4_setup, bad):
    """NaN compares False with every tolerance, so finiteness is tested
    on its own."""
    s, model, ref = cent4_setup
    with pytest.raises(BadVector):
        check_witness_vector(model, ref, [bad])
    with pytest.raises(BadVector):
        witness_cochain(s, model, [bad], ref.gamma0, ref.gamma1, ref.embedding, DEPTH)


def test_a_good_vector_is_tested_once(monkeypatch, cent4_setup):
    """The projector test runs once per (model, endpoint pair, vector)."""
    s, model, ref = cent4_setup
    witness._check_vector.cache_clear()
    tested = []
    real = type(model).pair_projectors
    monkeypatch.setattr(type(model), "pair_projectors", lambda m, ix, iy: tested.append(1) or real(m, ix, iy))
    for v in ([1.0], [1.0], [-1.0], [-1.0 + 0j]):
        witness_cochain(s, model, v, ref.gamma0, ref.gamma1, ref.embedding, DEPTH)
    assert len(tested) == 2


def test_non_centipede_rejected():
    ys = y_shape(2)
    with pytest.raises(NotACentipede):
        reference_configuration(ys, DEPTH)


def test_rays_too_shallow_for_embedding_raise(cent4_setup):
    from arbocoh.errors import InsufficientDepth
    from arbocoh.tree import RayPrefix

    s, model, ref = cent4_setup
    v = np.array([1.0 + 0j])
    # prefixes ending exactly at the spine ends cannot certify the
    # configuration (no step beyond the spine is visible)
    with pytest.raises(InsufficientDepth):
        witness_cochain(
            s, model, v, RayPrefix((0, 0)), RayPrefix((1, 0)), ref.embedding, DEPTH
        )


def test_equivariance_and_alternation(cent4_setup):
    s, model, ref = cent4_setup
    v = np.array([1.0 + 0j])
    base = witness_cochain(s, model, v, ref.gamma0, ref.gamma1, ref.embedding, DEPTH)
    rng = np.random.default_rng(17)
    needed = [ref.gamma0.word, ref.gamma1.word] + sorted(ref.embedding.image_words())
    for _ in range(40):
        f = random_isometry_on(rng, 2, needed, move=int(rng.integers(0, 3)))
        fg, fh = f.apply_ray(ref.gamma0), f.apply_ray(ref.gamma1)
        fe = map_embedding(f, ref.embedding)
        lhs = witness_cochain(s, model, v, fg, fh, fe, DEPTH)
        twist = induced_reference_permutation(ref, ref.embedding, fe, f)
        assert np.allclose(lhs, model.matrix(twist) @ base, atol=1e-10)
        assert np.allclose(
            witness_cochain(s, model, v, fh, fg, fe, DEPTH), -lhs, atol=1e-10
        )


def test_coboundary_supported_on_hitting_set(cent4_setup):
    s, model, ref = cent4_setup
    v = np.array([1.0 + 0j])
    rng = np.random.default_rng(23)
    rays = random_rays(rng, 2, 3, DEPTH + 10)
    m = median(*rays)
    support_in_hits = True
    nonzero_somewhere = 0
    for e in enumerate_embeddings(s, m, 6):
        val = (
            witness_cochain(s, model, v, rays[1], rays[2], e, DEPTH)
            - witness_cochain(s, model, v, rays[0], rays[2], e, DEPTH)
            + witness_cochain(s, model, v, rays[0], rays[1], e, DEPTH)
        )
        nz = bool(np.max(np.abs(val)) > 1e-10)
        if nz:
            nonzero_somewhere += 1
            if not hits(e, *rays):
                support_in_hits = False
    assert support_in_hits
    assert nonzero_somewhere > 0  # the witness class is genuinely nonzero


def test_higher_degree_witness_q3_star():
    """Degree-3 model on the q=3 star: the witness value genuinely runs
    through matrices.  v is the (unique up to scale) vector fixed by the
    endpoint stabilizer with no setwise-invariant part."""
    from arbocoh.perm import pointwise_stabilizer, setwise_stabilizer
    from arbocoh.reptheory import enumerate_nondegenerate

    s = star_shape(3)
    t = character_table(shape_automorphism_group(s))
    row = next(r for r, _d, h2 in enumerate_nondegenerate(s) if h2 == 1)
    assert t.degrees[row] == 3
    model = realize_irrep(t, row)
    depth = 8
    ref = reference_configuration(s, depth)
    ix, iy = ref.endpoint_indices()
    G = t.group
    pq = model.subspace_projector(pointwise_stabilizer(G, [ix, iy]))
    pqt = model.subspace_projector(setwise_stabilizer(G, [ix, iy]))
    assert np.linalg.matrix_rank(pq) == 1
    assert np.max(np.abs(pqt)) < 1e-10
    rng = np.random.default_rng(5)
    v = pq @ rng.standard_normal(3)
    v = v / np.linalg.norm(v)

    base = witness_cochain(s, model, v, ref.gamma0, ref.gamma1, ref.embedding, depth)
    assert np.allclose(base, v, atol=1e-10)
    swapped = witness_cochain(s, model, v, ref.gamma1, ref.gamma0, ref.embedding, depth)
    assert np.allclose(swapped, -v, atol=1e-10)

    needed = [ref.gamma0.word, ref.gamma1.word] + sorted(ref.embedding.image_words())
    for _ in range(25):
        f = random_isometry_on(rng, 3, needed, move=int(rng.integers(0, 3)))
        fg, fh = f.apply_ray(ref.gamma0), f.apply_ray(ref.gamma1)
        fe = map_embedding(f, ref.embedding)
        lhs = witness_cochain(s, model, v, fg, fh, fe, depth)
        twist = induced_reference_permutation(ref, ref.embedding, fe, f)
        assert np.allclose(lhs, model.matrix(twist) @ base, atol=1e-9)
        assert np.allclose(
            witness_cochain(s, model, v, fh, fg, fe, depth), -lhs, atol=1e-9
        )


def test_witness_on_odd_centipede():
    # odd diameter: the reference spine is centered off the basepoint
    s = centipede_shape(2, 3)
    t = character_table(shape_automorphism_group(s))
    model = realize_irrep(t, kernel_st_row(s))
    depth = 9
    ref = reference_configuration(s, depth)
    v = np.array([1.0 + 0j])
    assert np.allclose(
        witness_cochain(s, model, v, ref.gamma0, ref.gamma1, ref.embedding, depth), v
    )
    rng = np.random.default_rng(9)
    needed = [ref.gamma0.word, ref.gamma1.word] + sorted(ref.embedding.image_words())
    base = v
    for _ in range(25):
        f = random_isometry_on(rng, 2, needed, move=int(rng.integers(0, 3)))
        fg, fh = f.apply_ray(ref.gamma0), f.apply_ray(ref.gamma1)
        fe = map_embedding(f, ref.embedding)
        lhs = witness_cochain(s, model, v, fg, fh, fe, depth)
        twist = induced_reference_permutation(ref, ref.embedding, fe, f)
        assert np.allclose(lhs, model.matrix(twist) @ base, atol=1e-10)


def test_witness_vector_existence_matches_h2():
    """Across the catalog centipedes: the difference of endpoint-stabilizer
    projectors has rank exactly h2, a valid witness vector exists iff
    h2 >= 1, and when it exists the reference value is the vector itself."""
    from arbocoh.catalog import enumerate_complete_shapes
    from arbocoh.errors import BadVector
    from arbocoh.perm import pointwise_stabilizer, setwise_stabilizer
    from arbocoh.reptheory import enumerate_nondegenerate
    from arbocoh.shapes import classify_shape
    from arbocoh.witness import check_witness_vector

    rng = np.random.default_rng(31)
    shapes = enumerate_complete_shapes(2, 5) + enumerate_complete_shapes(3, 3)
    centipedes = [
        s
        for s in shapes
        if len(s.vertices) > 2 and classify_shape(s).tag == "centipede"
    ]
    assert len(centipedes) >= 6
    for s in centipedes:
        t = character_table(shape_automorphism_group(s))
        depth = s.diameter() + 4
        ref = reference_configuration(s, depth)
        ix, iy = ref.endpoint_indices()
        G = t.group
        q_pt = pointwise_stabilizer(G, [ix, iy])
        q_set = setwise_stabilizer(G, [ix, iy])
        h2_of = {r: h2 for r, _d, h2 in enumerate_nondegenerate(s)}
        for r in range(t.n_rows):
            model = realize_irrep(t, r)
            diff = model.subspace_projector(q_pt) - model.subspace_projector(q_set)
            if r in h2_of:
                assert verify.projector_rank(diff) == h2_of[r]
                v = diff @ rng.standard_normal(model.degree)
                if h2_of[r] >= 1:
                    assert np.linalg.norm(v) > 1e-8
                    v = v / np.linalg.norm(v)
                    check_witness_vector(model, ref, v)
                    out = witness_cochain(
                        s, model, v, ref.gamma0, ref.gamma1, ref.embedding, depth
                    )
                    assert np.allclose(out, v, atol=1e-9)
                else:
                    # every endpoint-fixed vector keeps a setwise component
                    pv = model.subspace_projector(q_pt) @ rng.standard_normal(model.degree)
                    if np.linalg.norm(pv) > 1e-8:
                        with pytest.raises(BadVector):
                            check_witness_vector(model, ref, pv / np.linalg.norm(pv))


def test_diameter_two_star_witness():
    s = star_shape(2)
    t = character_table(shape_automorphism_group(s))
    from arbocoh.reptheory import enumerate_nondegenerate

    row = enumerate_nondegenerate(s)[0][0]
    model = realize_irrep(t, row)
    ref = reference_configuration(s, 8)
    v = np.array([1.0 + 0j])
    out = witness_cochain(s, model, v, ref.gamma0, ref.gamma1, ref.embedding, 8)
    assert np.allclose(out, v)
    out = witness_cochain(s, model, v, ref.gamma1, ref.gamma0, ref.embedding, 8)
    assert np.allclose(out, -v)


# seeds at which the support loop of `verify reps` meets a geodesic
# L(g, h) through the basepoint, whose carried reference ray climbs to o
LINE_THROUGH_BASEPOINT_SEEDS = (
    1, 7, 39, 59, 61, 147, 154, 167, 168, 171, 186, 247, 336, 344, 351, 389, 397,
)


@pytest.mark.parametrize("seed", LINE_THROUGH_BASEPOINT_SEEDS)
def test_witness_check_passes_on_lines_through_the_basepoint(seed):
    check = verify._witness_check(np.random.default_rng(seed), 10**6)
    assert check["passed"], check["mismatches"]


def full_search_section(words_a, words_b, q):
    """Oracle: the least isomorphism over the sorted words_a, by a search
    that places every vertex and so meets all |Aut| isomorphisms; None
    when the two word-subtrees are not isomorphic."""
    if len(words_a) != len(words_b):
        return None
    a_sorted = sorted(words_a)
    adj_a = {w: [x for x in word_neighbors(w, q) if x in words_a] for w in a_sorted}
    nbrs_b = {w: [x for x in word_neighbors(w, q) if x in words_b] for w in words_b}
    order, parent_of = treecode.bfs(adj_a, a_sorted[0])
    cols = [order.index(w) for w in a_sorted]
    best = []

    def keep_least(placed):
        cand = tuple([placed[c] for c in cols])
        if not best or cand < best[0]:
            best[:] = [cand]

    shapes.place_tree(order, parent_of, sorted(words_b), nbrs_b.__getitem__, keep_least)
    return tuple(zip(a_sorted, best[0])) if best else None


@pytest.mark.parametrize(
    "family",
    [[star_shape(3), centipede_shape(3, 3), centipede_shape(3, 4)], [y_shape(2)]],
    ids=["q3", "y2"],
)
def test_sections_match_the_full_search(family):
    """Every ordered pair of embeddings of the family, across shapes too
    (no section there), plus each image with one stray word added."""
    q = family[0].q
    images = [e.image_words() for s in family for e in enumerate_embeddings(s, Vertex(()), 3)]
    stray = (0,) * 6
    pairs = [(a, b) for a in images for b in images] + [(a, a | {stray}) for a in images]
    witness._section_items.cache_clear()
    found = 0
    for a, b in pairs:
        expected = full_search_section(a, b, q)
        assert witness._section_items(a, b, q) == expected
        found += expected is not None
    assert 0 < found < len(pairs)


def test_a_cold_section_places_the_internal_tree_alone(monkeypatch):
    """centipede(5,4) has |Aut| = 691,200; its internal tree is a path of
    three vertices, placed forwards and backwards onto the copy's."""
    s = centipede_shape(5, 4)
    ref = reference_configuration(s, DEPTH)
    e = enumerate_embeddings(s, Vertex(()), 4)[7]
    visits = []
    real = shapes.place_tree

    def counting(order, parent_of, roots, host_nbrs, visit):
        real(order, parent_of, roots, host_nbrs, lambda placed: visits.append(1) or visit(placed))

    monkeypatch.setattr(shapes, "place_tree", counting)
    monkeypatch.setattr(witness, "place_tree", counting, raising=False)
    witness._section_items.cache_clear()
    section = canonical_section(ref, e)
    assert set(section) == ref.embedding.image_words()
    assert set(section.values()) == e.image_words()
    assert 1 <= len(visits) <= 2
    identity = canonical_section(ref, ref.embedding)
    assert all(w == x for w, x in identity.items())
