"""The array-backed group path against element-loop oracles.

The oracles are the one-element-at-a-time implementations that the
array path replaced: breadth-first closure, conjugation orbits, counted
class constants, invariant dimensions summed over subgroup elements and
the subgroup searches by closures and by masks over every element; the
Cayley table of a closure is checked against lookups in the sorted key
index.  The closure, class and stabilizer checks
run on the q=2 D<=5 catalog groups, star(4..6), centipede(3,3) and
centipede(4,3), every one under three seeded vertex relabellings, which
reorder elements and classes inside the program."""

import json
import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from arbocoh import chartab, cli, reptheory
from arbocoh.catalog import enumerate_complete_shapes
from arbocoh.chartab import character_table, fixed_dims, invariant_dim, realize_irrep
from arbocoh.errors import ArbocohError
from arbocoh.perm import (
    PermGroup,
    Permutation,
    all_subgroups,
    closure,
    conjugacy_classes,
    shape_automorphism_group,
)
from arbocoh.reptheory import (
    RepDescriptor,
    admissible_vertex_pairs,
    canonical_vertex_pair,
    classify_bounded_cohomology,
    enumerate_nondegenerate,
    h2_dimension,
)
from arbocoh.shapes import (
    Shape,
    centipede_shape,
    maximal_proper_complete_subtrees,
    star_shape,
)
from arbocoh.verify import projector_rank

# -- oracles -------------------------------------------------------------------


def oracle_closure(gens, degree):
    """Elements in breadth-first discovery order, one product at a time."""
    ident = Permutation.identity(degree)
    elements, seen, frontier = [ident], {ident}, [ident]
    while frontier:
        nxt = []
        for p in frontier:
            for g in gens:
                r = g * p
                if r not in seen:
                    seen.add(r)
                    elements.append(r)
                    nxt.append(r)
        frontier = nxt
    return tuple(elements)


def oracle_classes(G):
    """Conjugation orbits sorted by (size, least element), each sorted."""
    seen, classes = set(), []
    for x in G.elements:
        if x in seen:
            continue
        orbit, frontier = {x}, [x]
        while frontier:
            y = frontier.pop()
            for g in G.generators:
                z = g * y * g.inverse()
                if z not in orbit:
                    orbit.add(z)
                    frontier.append(z)
        seen |= orbit
        classes.append(tuple(sorted(orbit)))
    classes.sort(key=lambda c: (len(c), c[0]))
    return classes


def as_classes(G, ids):
    """The class id array as tuples of elements, each sorted, in id order."""
    return [
        tuple(sorted(p for p, i in zip(G.elements, ids.tolist()) if i == c))
        for c in range(max(ids.tolist()) + 1)
    ]


def oracle_constants(classes):
    """c[i][j][l] = #{x in C_i : x^-1 z_l in C_j}, counted element by element."""
    k = len(classes)
    class_of = {p: i for i, c in enumerate(classes) for p in c}
    c = [[[0] * k for _ in range(k)] for _ in range(k)]
    for i in range(k):
        for x in classes[i]:
            for ell in range(k):
                c[i][class_of[x.inverse() * classes[ell][0]]][ell] += 1
    return c


def class_constants(G, ids):
    """a_ijl from the program: the class matrix of the i-th unit combination."""
    k = int(ids.max()) + 1
    inverses = chartab._class_inverses(G, ids)
    return np.stack([chartab._class_matrix(G, ids, *inverses, e) for e in np.eye(k, dtype=np.int64)])


def oracle_dim(t, row, elements):
    """(1/|H|) sum over H of the character, H given by its elements."""
    class_of = {p: i for i, c in enumerate(t.classes) for p in c}
    total = sum(int(t.characters[row, class_of[h]]) for h in elements)
    assert total % len(elements) == 0
    return total // len(elements)


def oracle_subgroups(G):
    """Every subgroup as its sorted element tuple, sorted by (order,
    elements): known subgroups are closed under one more element with
    `closure`."""
    ident = G.identity()
    known = {frozenset([ident]): (ident,)}
    frontier = list(known.values())
    while frontier:
        nxt = []
        for gens in frontier:
            for g in G.elements:
                K = frozenset(closure(set(gens) | {g}, degree=G.degree).elements)
                if K not in known:
                    known[K] = tuple(gens) + (g,)
                    nxt.append(known[K])
        frontier = nxt
    return sorted((tuple(sorted(K)) for K in known), key=lambda e: (len(e), e))


def mask_search_subgroups(G):
    """all_subgroups as it was before cyclic extension: every known
    subgroup closed with every element outside it, as masks over the
    multiplication table in sorted row order."""
    n = G.order
    lex = G._row_index()[1]
    rows = G.array[lex]
    mult = np.argsort(lex)[G.right_multiples(lex)[lex]]

    def closed(mask):
        while True:
            inside = np.flatnonzero(mask)
            mask[mult[np.ix_(inside, inside)]] = True
            if mask.sum() == len(inside):
                return mask

    trivial = np.arange(n) == 0
    known = {trivial.tobytes(): trivial}
    frontier = [trivial]
    while frontier:
        grown = (closed(H | (np.arange(n) == g)) for H in frontier for g in np.flatnonzero(~H))
        frontier = [known.setdefault(K.tobytes(), K) for K in grown if K.tobytes() not in known]
    subgroups = sorted((np.flatnonzero(K) for K in known.values()), key=lambda e: (len(e), e.tolist()))
    return [rows[e] for e in subgroups]


def fixing(G, points):
    return [p for p in G.elements if all(p(i) == i for i in points)]


def preserving(G, points):
    return [p for p in G.elements if {p(i) for i in points} == set(points)]


# -- inputs --------------------------------------------------------------------


def relabel(s: Shape, seed: int) -> Shape:
    rng = random.Random(seed)
    ids = rng.sample(range(100 * len(s.vertices)), len(s.vertices))
    new = {v: f"x{i}" for v, i in zip(s.vertices, ids)}
    return Shape(s.q, [new[v] for v in s.vertices], [(new[a], new[b]) for a, b in s.edges])


SHAPES = {f"q2d5#{i}": s for i, s in enumerate(enumerate_complete_shapes(2, 5))}
SHAPES.update({f"star{q}": star_shape(q) for q in (4, 5, 6)})
SHAPES.update({"centipede(3,3)": centipede_shape(3, 3), "centipede(4,3)": centipede_shape(4, 3)})
CASES = [(name, seed) for name in SHAPES for seed in (1, 2, 3)]


@pytest.mark.parametrize("name,seed", CASES, ids=[f"{n}~{s}" for n, s in CASES])
def test_array_path_matches_the_element_loops(name, seed):
    s = relabel(SHAPES[name], seed)
    G = shape_automorphism_group(s)
    assert G.elements == oracle_closure(G.generators, G.degree)
    assert G.array.tolist() == [list(p.mapping) for p in G.elements]
    ids = conjugacy_classes(G)
    classes = as_classes(G, ids)
    assert classes == oracle_classes(G)
    assert class_constants(G, ids).tolist() == oracle_constants(classes)

    if len(s.vertices) <= 2:
        return
    t = character_table(G)
    index = {v: i for i, v in enumerate(s.vertices)}
    a = reptheory.analysis(s, t)
    subs = maximal_proper_complete_subtrees(s)
    assert list(a.subtrees) == subs and len(a.heads) == len(subs)
    reduced = [(counts, order, fixing(G, [index[v] for v in sub])) for (counts, order), sub in zip(a.heads, subs)]
    if admissible_vertex_pairs(s):
        x, y = canonical_vertex_pair(s)
        pts = [index[x], index[y]]
        (c_point, n_point), (c_set, n_set) = a.stabilizers(x, y)
        reduced += [(c_point, n_point, fixing(G, pts)), (c_set, n_set, preserving(G, pts))]
    for counts, order, elements in reduced:
        assert order == len(elements)
        dims = fixed_dims(t, counts, [order])
        for row in range(t.n_rows):
            assert dims[row, 0] == oracle_dim(t, row, elements)


def cycle(n):
    return Permutation(tuple((i + 1) % n for i in range(n)))


SMALL_CLOSURES = {
    "3": [cycle(3)],
    "4": [cycle(4)],
    "5": [cycle(5)],
    "S4": [Permutation((1, 0, 2, 3)), cycle(4)],  # (0 1), (0 1 2 3)
    "A4": [Permutation((1, 0, 3, 2)), Permutation((1, 2, 0, 3))],  # (0 1)(2 3), (0 1 2)
}


@pytest.mark.parametrize("name", list(SMALL_CLOSURES))
def test_cyclic_groups_match_the_element_loops(name):
    """C_n, and S_4 and A_4 from an involution beside an element of order
    4 or 3.  C_n and A_4 have classes that are not closed under inversion,
    unlike the tree automorphism groups above, so x^-1 z and x z differ
    here; taking every generator g for an involution would conjugate x to
    g x g, which sends the identity to g^2 and merges two classes."""
    G = closure(SMALL_CLOSURES[name])
    assert G.elements == oracle_closure(G.generators, G.degree)
    ids = conjugacy_classes(G)
    classes = as_classes(G, ids)
    assert classes == oracle_classes(G)
    assert class_constants(G, ids).tolist() == oracle_constants(classes)


@st.composite
def generator_sets(draw):
    """A few permutations of at most five points of a degree up to 20
    (above 15 a row's key is its bytes), with repeats and the identity
    drawn in: groups of order at most 120."""
    degree = draw(st.sampled_from([1, 2, 3, 5, 6, 16, 20]))
    support = draw(st.lists(st.integers(0, degree - 1), min_size=1, max_size=5, unique=True))
    gens = []
    for images in draw(st.lists(st.permutations(support), max_size=3)):
        moves = dict(zip(support, images))
        gens.append(Permutation.from_dict(degree, moves))
    if gens and draw(st.booleans()):
        gens.append(gens[0])
    if draw(st.booleans()):
        gens.append(Permutation.identity(degree))
    return gens, degree


@settings(max_examples=80, deadline=None)
@given(generator_sets())
@example(([], 4))
@example(([Permutation((1, 2, 3, 4, 5, 0))], 6))  # cyclic
@example(([Permutation.from_dict(17, {0: 1, 1: 2, 2: 0})], 17))  # cyclic, byte keys
def test_cayley_table_matches_the_key_index(case):
    """Every product read off the Cayley table is the product the sorted
    key index finds: g_j * x for the stored rows, x * z down the table."""
    gens, degree = case
    G = closure(gens, degree=degree)
    assert G.elements == oracle_closure(G.generators, G.degree)
    m, n = len(G.generators), G.order
    assert G.cayley.shape == (m + 2, n) and not G.cayley.flags.writeable
    gen_rows = np.array([g.mapping for g in G.generators], dtype=np.intp).reshape(m, degree)
    for j in range(m):
        assert np.array_equal(G.cayley[j], G.indices(gen_rows[j][G.array]))
    parent, gen = G.cayley[m], G.cayley[m + 1]
    assert np.all(np.diff(parent) >= 0) and np.all(parent[1:] < np.arange(1, n))
    assert np.array_equal(G.cayley[gen[1:], parent[1:]], np.arange(1, n))
    for z in range(n):
        want = G.indices(G.array[:, G.array[z]])
        assert np.array_equal(G.right_multiples([z])[:, 0], want)
    assert np.array_equal(G.right_multiples(np.arange(n)), G.indices(G.array[:, G.array]).reshape(n, n))


@pytest.mark.parametrize("shape", [star_shape(6), centipede_shape(5, 3)], ids=["star6", "centipede(5,3)"])
def test_few_class_matrices_match_the_walk(shape):
    """B_i from the |C_i| k products of each class alone, composed from the
    element rows and looked up by key, equal the walk's class constants,
    for every class."""
    G = shape_automorphism_group(shape)
    ids = conjugacy_classes(G)
    reps = chartab._class_inverses(G, ids)[0]
    got = chartab._few_class_matrices(G, ids, reps, np.arange(len(reps)))
    assert np.array_equal(got, class_constants(G, ids))


@pytest.mark.parametrize("shape", [star_shape(2), star_shape(4), centipede_shape(3, 3)])
def test_classes_and_constants_look_up_no_product(monkeypatch, shape):
    """Class labels and the class matrix take their products from the
    Cayley table: no key lookup for the class labels (every generator of
    a tree group is an involution, its own inverse), one for the class
    inverses, read once per table, and none for the class matrix,
    whatever the number of classes."""
    calls = Counter()
    indices = PermGroup.indices

    def counting(self, rows):
        calls["indices"] += 1
        return indices(self, rows)

    G = shape_automorphism_group(shape)
    monkeypatch.setattr(PermGroup, "indices", counting)
    ids = conjugacy_classes(G)
    assert calls["indices"] == 0
    inverses = chartab._class_inverses(G, ids)
    assert calls["indices"] == 1
    chartab._class_matrix(G, ids, *inverses, np.ones(ids.max() + 1, dtype=np.int64))
    assert calls["indices"] == 1


def test_enumerate_nondegenerate_builds_each_stabilizer_once(monkeypatch):
    """A_j, Q and Qtilde are enumerated once per shape and table; later
    rows and later classify calls reuse their class counts."""
    calls = Counter()

    def counting(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    monkeypatch.setattr(reptheory, "pointwise_stabilizer", counting("pointwise", reptheory.pointwise_stabilizer))
    monkeypatch.setattr(reptheory, "setwise_stabilizer", counting("setwise", reptheory.setwise_stabilizer))
    reptheory.analysis.cache_clear()
    s = star_shape(6)
    rows = enumerate_nondegenerate(s)
    once = {"pointwise": len(maximal_proper_complete_subtrees(s)) + 1, "setwise": 1}
    assert calls == once
    assert enumerate_nondegenerate(s) == rows
    for row, _deg, h2 in rows:
        assert classify_bounded_cohomology(RepDescriptor.cuspidal(s, row), 2) == h2
    assert calls == once


def test_classification_searches_no_key(monkeypatch):
    """Once the tables are built, the analysis reads each stabilizer as a
    mask over the elements: with every key search refusing, the
    non-degenerate rows, the classification of every row in degrees 1-3
    and h2 on every admissible pair of the centipedes are unchanged.
    centipede(3,6) has 17 vertices and q2d7#46 has 30, so their keys are
    bytes.  The subgroup path reads masks too: invariant dimensions and
    projector ranks of every row under every subgroup of S_3, S_4 and
    centipede(2,4)'s D_8, and the pair projectors of centipede(2,4) at its
    canonical pair, from models rebuilt while the search refuses."""
    shapes = {
        "star(6)": star_shape(6),
        "centipede(3,6)": centipede_shape(3, 6),
        "q2d7#46": enumerate_complete_shapes(2, 7)[46],
    }
    tables = {name: character_table(shape_automorphism_group(s)) for name, s in shapes.items()}
    hosts = {"star(2)": star_shape(2), "star(3)": star_shape(3), "centipede(2,4)": centipede_shape(2, 4)}
    host_tables = {name: character_table(shape_automorphism_group(s)) for name, s in hosts.items()}

    def outcome(fn, *args):
        try:
            return fn(*args)
        except ArbocohError as exc:
            return type(exc).__name__, str(exc)

    def answers():
        out = {}
        for name, s in shapes.items():
            t = tables[name]
            out[name] = enumerate_nondegenerate(s)
            for row in range(t.n_rows):
                for n in (1, 2, 3):
                    out[name, row, n] = outcome(classify_bounded_cohomology, RepDescriptor.cuspidal(s, row), n)
        for name in ("star(6)", "centipede(3,6)"):
            s, t = shapes[name], tables[name]
            for x, y in admissible_vertex_pairs(s):
                for row, _deg, _h2 in out[name]:
                    out[name, row, x, y] = h2_dimension(s, t, row, x, y)
        for name, t in host_tables.items():
            models = [realize_irrep(t, row) for row in range(t.n_rows)]
            for i, H in enumerate(all_subgroups(t.group)):
                for row, model in enumerate(models):
                    out[name, "subgroup", i, row] = invariant_dim(t, row, H), projector_rank(model.subspace_projector(H))
        s, t = hosts["centipede(2,4)"], host_tables["centipede(2,4)"]
        ix, iy = (s.vertices.index(v) for v in canonical_vertex_pair(s))
        for row in range(t.n_rows):
            out["pair", row] = [P.tolist() for P in realize_irrep(t, row).pair_projectors(ix, iy)]
        return out

    before = answers()

    def refuse(*args):
        raise AssertionError("a key search on the classification path")

    monkeypatch.setattr(PermGroup, "indices", refuse)
    reptheory.analysis.cache_clear()
    realize_irrep.cache_clear()  # fresh models hold no pair projectors
    assert answers() == before


@pytest.mark.parametrize(
    "G",
    [
        shape_automorphism_group(star_shape(2)),
        shape_automorphism_group(relabel(star_shape(3), 1)),
        shape_automorphism_group(relabel(centipede_shape(2, 4), 2)),
        closure([Permutation((1, 2, 3, 4, 0))]),
    ],
    ids=["S3", "S4", "D8", "C5"],
)
def test_all_subgroups_matches_the_closure_search(G):
    """The mask search finds the subgroups of the closure search."""
    got = [tuple(sorted(p for p, keep in zip(G.elements, H) if keep)) for H in all_subgroups(G)]
    assert got == oracle_subgroups(G)


@pytest.mark.parametrize(
    "s",
    [centipede_shape(3, 3), enumerate_complete_shapes(2, 6)[11]],
    ids=["centipede(3,3)", "q2d6#11"],
)
def test_all_subgroups_matches_the_mask_search(s):
    """Cyclic extension over double cosets lists the arrays that closing
    every subgroup with every element outside it listed, in its order."""
    G = shape_automorphism_group(relabel(s, 3))
    lex = G._row_index()[1]  # element indices in sorted row order
    got = [G.array[lex[H[lex]]] for H in all_subgroups(G)]
    want = mask_search_subgroups(G)
    assert len(got) == len(want) and all(map(np.array_equal, got, want))


def test_subgroups_of_s5():
    """S_5 (star(4), at the search's order cap) has 156 subgroups (OEIS
    A005432: 1, 2, 6, 30, 156 for S_1..S_5), each closed under products
    and of an order dividing 120."""
    G = shape_automorphism_group(star_shape(4))
    subgroups = all_subgroups(G)
    assert G.order == 120 and len(subgroups) == 156
    for H in subgroups:
        assert G.order % H.sum() == 0
        rows = G.array[H]
        products = rows[:, rows].reshape(-1, G.degree)  # row [i, j] is h_i * h_j
        assert H[G.indices(products)].all()


def test_library_path_builds_no_element_objects(monkeypatch, capsys):
    """spectrum, chartab and classify of every row work on the element
    array alone: the only Permutations built are the generators of Aut(S)."""
    built = Counter()
    post_init, trusted = Permutation.__post_init__, Permutation._trusted.__func__

    def checked(self):
        built["checked"] += 1
        post_init(self)

    def unchecked(cls, mapping):
        built["trusted"] += 1
        return trusted(cls, mapping)

    monkeypatch.setattr(Permutation, "__post_init__", checked)
    monkeypatch.setattr(Permutation, "_trusted", classmethod(unchecked))
    for s in (star_shape(6), centipede_shape(4, 3)):
        for cache in (shape_automorphism_group, character_table, reptheory.analysis):
            cache.cache_clear()
        built.clear()
        shape = json.dumps(s.to_json())
        assert cli.main(["spectrum", shape]) == 0
        rows = json.loads(capsys.readouterr().out)["rows"]
        assert cli.main(["chartab", shape]) == 0
        for row in rows:
            desc = {"tag": "cuspidal", "shape": s.to_json(), "irrep": row["fingerprint"]}
            assert cli.main(["classify", json.dumps(desc), "-n", "2"]) == 0
        capsys.readouterr()
        G = shape_automorphism_group(s)
        assert "elements" not in vars(G)
        assert built == Counter(checked=len(G.generators))
