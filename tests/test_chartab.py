"""Character tables: textbook comparisons, exact integer checks and
orthogonality, the proof as the one judge of a proposal, invariant
dimensions, and unitary irreducible models (`verify reps` checks invariant
dimensions against explicit projector ranks)."""

import itertools
import os
import random
import subprocess
import sys

import numpy as np
import pytest

import arbocoh
from arbocoh import chartab
from arbocoh.catalog import enumerate_complete_shapes, enumerate_trees
from arbocoh.chartab import CharacterTable, character_table, invariant_dim, realize_irrep
from arbocoh.errors import GroupTooLarge, NonIntegralDimension, NotASubgroup, NumericalDegeneracy
from arbocoh.perm import (
    PermGroup,
    Permutation,
    all_subgroups,
    automorphism_order,
    closure,
    conjugacy_classes,
    pointwise_stabilizer,
    shape_automorphism_group,
)
from arbocoh.shapes import Shape, centipede_shape, star_shape


def sym3():
    return closure([Permutation((1, 0, 2)), Permutation((1, 2, 0))])


def _rows_as_multiset(t):
    """Character rows keyed by (degree, sorted values with multiplicity by
    class size) -- a basis-free fingerprint for comparing with textbooks."""
    out = []
    sizes = t.class_sizes()
    for r in range(t.n_rows):
        vals = []
        for c, n in enumerate(sizes):
            vals.extend([complex(t.characters[r, c])] * n)
        out.append((t.degrees[r], tuple(sorted(vals, key=lambda z: (z.real, z.imag)))))
    return sorted(out, key=str)


def test_trivial_group_table():
    t = character_table(closure([], degree=2))
    assert t.degrees == (1,)
    assert t.characters[0, 0] == 1


def test_sym3_table_matches_textbook():
    t = character_table(sym3())
    assert t.degrees == (1, 1, 2)
    # trivial: all ones; sign: 1 on e and 3-cycles, -1 on transpositions;
    # standard: 2, 0, -1 with class sizes 1, 3, 2
    textbook = sorted(
        [
            (1, tuple(sorted([1 + 0j] * 6, key=lambda z: (z.real, z.imag)))),
            (1, tuple(sorted([1 + 0j] + [-1 + 0j] * 3 + [1 + 0j] * 2, key=lambda z: (z.real, z.imag)))),
            (2, tuple(sorted([2 + 0j] + [0j] * 3 + [-1 + 0j] * 2, key=lambda z: (z.real, z.imag)))),
        ],
        key=str,
    )
    assert _rows_as_multiset(t) == textbook


def test_dihedral8_table_matches_textbook():
    t = character_table(shape_automorphism_group(centipede_shape(2, 4)))
    assert t.degrees == (1, 1, 1, 1, 2)
    sizes = sorted(t.class_sizes())
    assert sizes == [1, 1, 2, 2, 2]
    # four linear characters and the 2-dimensional one with trace pattern
    # (2, -2, 0, 0, 0)
    row2 = t.characters[4]
    assert t.degrees[4] == 2
    assert sorted(round(v.real) for v in row2) == [-2, 0, 0, 0, 2]


def test_orthogonality_residuals():
    """The residuals of both orthogonality relations are exactly 0, in
    integers: rows sum_l n_l chi_a(l) chi_b(l) - |G| delta_ab, and columns
    sum_a chi_a(l) chi_a(l') - (|G| / n_l) delta_ll'."""
    for shape in (star_shape(2), centipede_shape(2, 4), star_shape(3)):
        t = character_table(shape_automorphism_group(shape))
        X, order = t.characters, t.group.order
        n = np.array(t.class_sizes())
        assert X.dtype == np.int64 and np.all(order % n == 0)
        assert not np.any((X * n) @ X.T - order * np.eye(t.n_rows, dtype=np.int64))
        assert not np.any(X.T @ X - np.diag(order // n))
        assert sum(d * d for d in t.degrees) == order


def test_invariant_dim_examples():
    t = character_table(sym3())
    transposition = pointwise_stabilizer(t.group, [2])  # the identity and (0 1)
    assert transposition.sum() == 2
    # trivial character: always one invariant dimension
    triv = next(r for r in range(3) if all(abs(v - 1) < 1e-9 for v in t.characters[r]))
    assert invariant_dim(t, triv, transposition) == 1
    sign = next(
        r
        for r in range(3)
        if t.degrees[r] == 1 and any(abs(v + 1) < 1e-9 for v in t.characters[r])
    )
    assert invariant_dim(t, sign, transposition) == 0
    deg2 = next(r for r in range(3) if t.degrees[r] == 2)
    assert invariant_dim(t, deg2, transposition) == 1


def test_invariant_dim_rejects_non_subgroup():
    """A subgroup is a boolean mask over the elements of the table's group:
    a mask of another group, a group, an index array or a mask without the
    identity raises NotASubgroup."""
    t = character_table(sym3())
    other = closure([Permutation((1, 0))])
    for H in (pointwise_stabilizer(other, []), other, np.arange(6), np.arange(6) > 0):
        with pytest.raises(NotASubgroup):
            invariant_dim(t, 0, H)


def frobenius21():
    """x -> x + 1 and x -> 2x on Z/7: order 21, with two degree-3
    characters that take non-real values."""
    shift = Permutation(tuple((x + 1) % 7 for x in range(7)))
    return closure([shift, Permutation(tuple(2 * x % 7 for x in range(7)))])


def test_realize_irrep_models():
    # S_3, and S_4 = Aut(star(3)) with rows of degree 2 and 3
    sym4 = shape_automorphism_group(star_shape(3))
    for t in (character_table(sym3()), character_table(sym4)):
        for r in range(t.n_rows):
            model = realize_irrep(t, r)
            d = model.degree
            eye = np.eye(d)
            elems = t.group.elements
            for g in elems:
                M = model.matrix(g)
                assert np.max(np.abs(M @ M.conj().T - eye)) < 1e-10
                assert abs(np.trace(M) - t.characters[r, t.class_index(g)]) < 1e-10
            # multiplicativity on all pairs
            for g in elems:
                for h in elems:
                    assert np.max(
                        np.abs(model.matrix(g * h) - model.matrix(g) @ model.matrix(h))
                    ) < 1e-9


def test_lookups_reject_non_elements():
    """A Permutation outside the group, or of another degree, has no
    class and no model matrix."""
    t = character_table(sym3())
    model = realize_irrep(t, 2)
    for p in (Permutation((1, 0, 2, 3)), Permutation((0, 1))):
        assert p not in t.group
        with pytest.raises(KeyError):
            t.class_index(p)
        with pytest.raises(KeyError):
            model.matrix(p)
    with pytest.raises(NotASubgroup):
        model.subspace_projector(pointwise_stabilizer(closure([Permutation((1, 0, 2, 3))]), []))


def test_values_are_ints():
    """value reads the proved integer table: a Python int, not a complex."""
    t = character_table(sym3())
    for row in t.group.array.tolist():
        p = Permutation(tuple(row))
        for r in range(len(t.degrees)):
            v = t.value(r, p)
            assert type(v) is int and v == t.characters[r, t.class_index(p)]


def test_sign_model_is_signs():
    t = character_table(sym3())
    sign = next(
        r
        for r in range(3)
        if t.degrees[r] == 1 and any(abs(v + 1) < 1e-9 for v in t.characters[r])
    )
    model = realize_irrep(t, sign)
    for g in t.group.elements:
        v = complex(model.matrix(g)[0, 0])
        assert abs(v.imag) < 1e-12
        assert min(abs(v.real - 1), abs(v.real + 1)) < 1e-12


def test_models_past_the_order_bound_are_refused_before_allocation(monkeypatch):
    """Past MODEL_MAX_ORDER a row of degree above 1 raises GroupTooLarge
    before its |G| x |G| projector or product table exists; a degree-1 row
    is still realized."""
    t = character_table(shape_automorphism_group(star_shape(5)))  # S_6, order 720
    assert t.group.order > chartab.MODEL_MAX_ORDER >= 72  # centipede(3,3) is modelled
    monkeypatch.setattr(PermGroup, "right_multiples", lambda G, zs: pytest.fail("allocated"))
    with pytest.raises(GroupTooLarge, match="degree 5 refused at order 720 > 120"):
        realize_irrep(t, t.degrees.index(5))
    assert realize_irrep(t, t.degrees.index(1)).matrices.shape == (720, 1, 1)


def test_monotonicity_pointwise_vs_setwise():
    from arbocoh.perm import setwise_stabilizer

    host = centipede_shape(2, 4)
    G = shape_automorphism_group(host)
    t = character_table(G)
    index = {v: i for i, v in enumerate(host.vertices)}
    pts = [index[host.vertices[0]], index[host.vertices[-1]]]
    q_point = pointwise_stabilizer(G, pts)
    q_set = setwise_stabilizer(G, pts)
    for r in range(t.n_rows):
        assert invariant_dim(t, r, q_set) <= invariant_dim(t, r, q_point)


def _textbook(sizes, rows):
    """The _rows_as_multiset form of a table given by rows in class order."""
    out = []
    for row in rows:
        vals = [complex(v) for v, n in zip(row, sizes) for _ in range(n)]
        out.append((row[0], tuple(sorted(vals, key=lambda z: (z.real, z.imag)))))
    return sorted(out, key=str)


def test_sym4_table_matches_textbook():
    t = character_table(shape_automorphism_group(star_shape(3)))
    assert t.characters.dtype == np.int64 and t.degrees == (1, 1, 2, 3, 3)
    # classes: e, (12), (12)(34), (123), (1234)
    sizes = (1, 6, 3, 8, 6)
    rows = [
        (1, 1, 1, 1, 1),
        (1, -1, 1, 1, -1),
        (2, 0, 2, -1, 0),
        (3, 1, -1, 0, -1),
        (3, -1, -1, 0, 1),
    ]
    assert _rows_as_multiset(t) == _textbook(sizes, rows)


def test_sym5_table_matches_textbook():
    t = character_table(shape_automorphism_group(star_shape(4)))
    assert t.characters.dtype == np.int64 and t.degrees == (1, 1, 4, 4, 5, 5, 6)
    # classes: e, (12), (12)(34), (123), (123)(45), (1234), (12345)
    sizes = (1, 10, 15, 20, 20, 30, 24)
    rows = [
        (1, 1, 1, 1, 1, 1, 1),
        (1, -1, 1, 1, -1, -1, 1),
        (4, 2, 0, 1, -1, 0, -1),
        (4, -2, 0, 1, 1, 0, -1),
        (5, 1, 1, -1, 1, -1, 0),
        (5, -1, 1, -1, -1, 1, 0),
        (6, 0, -2, 0, 0, 0, 1),
    ]
    assert _rows_as_multiset(t) == _textbook(sizes, rows)


@pytest.mark.parametrize("shape", enumerate_complete_shapes(2, 5))
def test_catalog_tables_are_exact_integers(shape):
    """Every q=2, D<=5 catalog table is int64 and passes the class-algebra
    and orthogonality relations in Python ints, with structure constants
    counted here from the group elements."""
    G = shape_automorphism_group(shape)
    t = character_table(G)
    assert t.characters.dtype == np.int64
    k, order, sizes = len(t.classes), G.order, t.class_sizes()
    class_of = {p: i for i, c in enumerate(t.classes) for p in c}
    # a[i][j][l] = #{x in C_i : x^-1 z_l in C_j}, z_l the class representative
    a = [[[0] * k for _ in range(k)] for _ in range(k)]
    for ell, c in enumerate(t.classes):
        for x in G.elements:
            a[class_of[x]][class_of[x.inverse() * c[0]]][ell] += 1
    X = t.characters.tolist()
    assert X == sorted(X)  # by degree (the identity column), then values
    assert [row[0] for row in X] == list(t.degrees)
    assert sum(d * d for d in t.degrees) == order
    for ra, chi_a in enumerate(X):
        for rb, chi_b in enumerate(X):
            gram = sum(n * u * v for n, u, v in zip(sizes, chi_a, chi_b))
            assert gram == (order if ra == rb else 0)
    for chi in X:
        w = [n * v for n, v in zip(sizes, chi)]
        for i in range(k):
            for j in range(k):
                assert w[i] * w[j] == chi[0] * sum(a[i][j][ell] * w[ell] for ell in range(k))


def _first_class_matrix(G, ids):
    """The class matrix of the first combination character_table draws."""
    rng = random.Random(chartab._TABLE_SEED)
    k = int(ids.max()) + 1
    c = np.array([rng.randrange(1, chartab._COEFF_MAX) for _ in range(k)])
    return chartab._class_matrix(G, ids, *chartab._class_inverses(G, ids), c)


def _equal_size_swaps():
    """Every pair of classes of equal size, on star(4), star(5),
    centipede(3,3), centipede(2,4) and the q=2 D<=5 catalog shapes of
    more than 2 vertices."""
    hosts = {"star4": star_shape(4), "star5": star_shape(5)}
    hosts.update({"centipede(3,3)": centipede_shape(3, 3), "centipede(2,4)": centipede_shape(2, 4)})
    hosts.update({f"q2d5#{i}": s for i, s in enumerate(enumerate_complete_shapes(2, 5)) if len(s.vertices) > 2})
    for name, shape in hosts.items():
        sizes = np.bincount(conjugacy_classes(shape_automorphism_group(shape)))
        for i, j in itertools.combinations(range(len(sizes)), 2):
            if sizes[i] == sizes[j]:
                yield pytest.param(shape, i, j, id=f"{name}:{i},{j}")


@pytest.mark.parametrize("shape,i,j", list(_equal_size_swaps()))
def test_exact_check_rejects_an_orthonormal_impostor(shape, i, j):
    """Swapping the columns of two classes of one size keeps the rows
    orthonormal with the right degrees.  The proof accepts the swapped
    table exactly when it is the true table up to row order: when the swap
    is a symmetry of the table."""
    G = shape_automorphism_group(shape)
    t = character_table(G)
    M = _first_class_matrix(G, t.class_ids)
    n = np.bincount(t.class_ids)
    X = t.characters.astype(float)
    proved = chartab._integral_table(G, t.class_ids, n, X, M)
    assert proved is not None and np.array_equal(proved.characters, t.characters)
    swapped = X.copy()
    swapped[:, [i, j]] = X[:, [j, i]]
    assert np.array_equal((swapped * n) @ swapped.T, G.order * np.eye(t.n_rows))
    is_table = sorted(swapped.tolist()) == t.characters.tolist()
    got = chartab._integral_table(G, t.class_ids, n, swapped, M)
    assert (got is not None) == is_table
    if is_table:
        assert np.array_equal(got.characters, t.characters)


def test_integral_table_refuses_rows_that_are_not_finite():
    G = shape_automorphism_group(star_shape(3))
    t = character_table(G)
    M = _first_class_matrix(G, t.class_ids)
    n = np.bincount(t.class_ids)
    for bad in (np.inf, -np.inf, np.nan):
        for at in ((0, 0), (2, 3)):
            X = t.characters.astype(float)
            X[at] = bad
            assert chartab._integral_table(G, t.class_ids, n, X, M) is None


def test_proof_needs_orthonormality_and_distinct_eigenvalues():
    """Two impostors that pass every other check.  On D_8 the trivial row
    doubled and the degree-2 row (2, -2, 0, 0, 0) halved keep sum d^2 = 8
    and the exact central characters, but are not orthonormal.  Against
    M = B_1 = I the true table is an eigenbasis, with one eigenvalue k
    times over."""
    G = shape_automorphism_group(centipede_shape(2, 4))
    t = character_table(G)
    n = np.bincount(t.class_ids)
    M = _first_class_matrix(G, t.class_ids)
    X = t.characters.astype(float)
    assert chartab._integral_table(G, t.class_ids, n, X, M) is not None
    trivial, standard = [r for r in range(t.n_rows) if X[r].min() == 1 or X[r, 0] == 2]
    rescaled = X.copy()
    rescaled[trivial] *= 2
    rescaled[standard] /= 2
    assert chartab._integral_table(G, t.class_ids, n, rescaled, M) is None
    inverses = chartab._class_inverses(G, t.class_ids)
    identity = chartab._class_matrix(G, t.class_ids, *inverses, np.eye(t.n_rows, dtype=np.int64)[0])
    assert np.array_equal(identity, np.eye(t.n_rows))
    assert chartab._integral_table(G, t.class_ids, n, X, identity) is None


def _swap_size_20_classes(V, G):
    """V with the entries of the two S_5 classes of size 20 swapped in
    every eigenvector: an orthonormal table that breaks the class algebra."""
    ids = conjugacy_classes(G)
    i, j = np.flatnonzero(np.bincount(ids) == 20)
    V = V.copy()
    V[[i, j]] = V[[j, i]]
    return V


def _zero_identity_entry(V, G):
    """V with one eigenvector 0 at the identity class: an infinite row."""
    V = V.copy()
    V[0, 1] = 0
    return V


@pytest.mark.parametrize("breaks", [_zero_identity_entry, _swap_size_20_classes])
def test_broken_first_proposal_retries(monkeypatch, breaks):
    """The proof alone judges a proposal: a first eigen-solve broken into an
    infinite row, or into an orthonormal impostor, is refused, and the
    second try gives the exact table."""
    G = shape_automorphism_group(star_shape(4))
    want = character_table(G)
    real = np.linalg.eig
    calls = []

    def eig(M):
        E, V = real(M)
        calls.append(1)
        return (E, breaks(V, G)) if len(calls) == 1 else (E, V)

    monkeypatch.setattr(chartab.np.linalg, "eig", eig)
    got = character_table.__wrapped__(G)
    assert len(calls) == 2
    assert got.degrees == want.degrees and np.array_equal(got.characters, want.characters)


def test_groups_past_the_int64_bound_are_refused_before_class_work(monkeypatch):
    """A group whose proof products could pass int64 raises GroupTooLarge
    before its classes are computed: a larger coefficient ceiling brings
    the bound below |S_5| = 120.  At the real ceiling the last order that
    passes is 3,037,000 (10^6 |G|^2 < 2^63)."""

    def no_class_work(G):
        raise AssertionError("conjugacy_classes called")

    monkeypatch.setattr(chartab, "conjugacy_classes", no_class_work)
    for order, passes in ((3_037_000, True), (3_037_001, False)):
        group = type("OfOrder", (), {"order": order})()  # only the order is read first
        with pytest.raises(AssertionError if passes else GroupTooLarge):
            character_table.__wrapped__(group)
    monkeypatch.setattr(chartab, "_COEFF_MAX", 10**15)
    with pytest.raises(GroupTooLarge, match="int64 bound of the table proof"):
        character_table.__wrapped__(shape_automorphism_group(star_shape(4)))


def cyclic(n):
    return closure([Permutation(tuple((i + 1) % n for i in range(n)))])


def dihedral10():
    """x -> x + 1 and x -> -x on Z/5: every class is closed under
    inversion, but two characters take the irrational values (-1 +- 5^(1/2))/2."""
    return closure([Permutation((1, 2, 3, 4, 0)), Permutation((0, 4, 3, 2, 1))])


@pytest.mark.parametrize(
    "group,match,tries",
    [
        *((group, "not closed under inversion: the group has a non-real character", 0)
          for group in (cyclic(3), cyclic(4), cyclic(5), frobenius21())),
        (dihedral10(), "no rounded table passed the exact checks in 8 tries", 8),
    ],
    ids=["3", "4", "5", "frobenius21", "dihedral10"],
)
def test_irrational_groups_raise_numerical_degeneracy(monkeypatch, group, match, tries):
    """C_n for n >= 3 and the order-21 Frobenius group have a class not
    closed under inversion, so a non-real character: they raise before any
    class matrix is built.  The dihedral group of order 10 is real but not
    rational, so each of its tries fails the integer checks."""
    real = chartab._class_matrix
    calls = []
    monkeypatch.setattr(chartab, "_class_matrix", lambda *args: calls.append(1) or real(*args))
    with pytest.raises(NumericalDegeneracy, match=match):
        character_table(group)
    assert len(calls) == tries


def quaternion8():
    """Q_8 acting on itself by left multiplication, generated by i and j;
    its elements are the unit quaternions +-1, +-i, +-j, +-k."""

    def times(x, y):
        a, b, c, d = x
        e, f, g, h = y
        return (a * e - b * f - c * g - d * h, a * f + b * e + c * h - d * g,
                a * g - b * h + c * e + d * f, a * h + b * g - c * f + d * e)

    units = [tuple(sign * (i == j) for j in range(4)) for sign in (1, -1) for i in range(4)]
    return closure([Permutation(tuple(units.index(times(g, x)) for x in units)) for g in units[1:3]])


def test_models_draw_no_random_number(monkeypatch):
    """Every row of S_3, S_4 = Aut(star(3)), D_8 = Aut(centipede(2,4)) and
    Aut(centipede(3,3)) is cut out by a subgroup with no random draw, and
    its model is unitary with the row as its trace."""
    monkeypatch.setattr(np.random, "default_rng", lambda *args: pytest.fail("a random draw"))
    hosts = (star_shape(3), centipede_shape(2, 4), centipede_shape(3, 3))
    for t in map(character_table, [sym3()] + [shape_automorphism_group(s) for s in hosts]):
        for r in range(t.n_rows):
            model = realize_irrep.__wrapped__(t, r)
            assert model.degree == t.degrees[r]
            chartab._validate_model(model, t.characters[r, t.class_ids])


def test_every_small_tree_group_has_models():
    """Every row of Aut(T) gets a model, for the 44 distinct groups of the
    48 trees of at most 8 vertices with |Aut(T)| <= MODEL_MAX_ORDER."""
    groups = {}
    for adj in enumerate_trees(8):
        s = Shape(2, adj, [(a, b) for a in adj for b in adj[a] if a < b])
        if automorphism_order(s) <= chartab.MODEL_MAX_ORDER:
            groups.setdefault(shape_automorphism_group(s))
    tables = [character_table(G) for G in groups]
    models = [realize_irrep(t, r) for t in tables for r in range(t.n_rows)]
    assert (len(groups), len(models)) == (44, 155)


def test_quaternion_row_has_no_line_subgroup():
    """Every nontrivial subgroup of Q_8 holds -1, which acts as -1 on the
    degree-2 row: no subgroup fixes exactly one line of it."""
    t = character_table(quaternion8())
    assert t.degrees == (1, 1, 1, 1, 2)
    assert [invariant_dim(t, 4, H) for H in all_subgroups(t.group)] == [2, 0, 0, 0, 0, 0]
    with pytest.raises(NumericalDegeneracy, match=r"of row 4 \(degree 2\)"):
        realize_irrep(t, 4)


def test_invariant_dim_is_exact_division():
    G = shape_automorphism_group(star_shape(3))
    t = character_table(G)
    H = pointwise_stabilizer(G, [0])
    dims = [invariant_dim(t, r, H) for r in range(t.n_rows)]
    assert all(type(d) is int for d in dims)
    broken = t.characters.copy()
    broken[1, 1] += 1  # the sum over G now misses a multiple of |G| by |C_1|
    bad = CharacterTable(G, t.class_ids, broken, t.degrees)
    with pytest.raises(NonIntegralDimension):
        invariant_dim(bad, 1, pointwise_stabilizer(G, []))  # all of G


def test_import_leaves_mpmath_out():
    src = os.path.dirname(os.path.dirname(arbocoh.__file__))
    code = "import sys, arbocoh; print('mpmath' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def test_spectrum_leaves_numpy_ma_out():
    """spectrum of star(6), whose table comes from the few-class path,
    imports no numpy.ma: np.unique with default arguments would, at a
    cost of 12-19 ms on its first call (numpy 2.4)."""
    src = os.path.dirname(os.path.dirname(arbocoh.__file__))
    code = (
        "import contextlib, io, json, sys\n"
        "from arbocoh.cli import main\n"
        "from arbocoh.shapes import star_shape\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert main(['spectrum', json.dumps(star_shape(6).to_json())]) == 0\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    env = {k: v for k, v in os.environ.items() if k != "ARBOCOH_CONFIG"}
    env["PYTHONPATH"] = src
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"


def test_few_class_path_runs_only_past_one_walk():
    """The few-class path runs when one walk cannot hold the k columns and
    k^2 log2 k stays below |G|: S_7 (star(6)) takes it; S_5 (one walk of
    840 entries) and q2d7#46 (k = 230, |G| = 32,768) keep the walk."""
    assert chartab._few_classes(15, 5040)
    assert not chartab._few_classes(7, 120)
    assert not chartab._few_classes(230, 32768)
    assert chartab._few_classes(175, 691200) and chartab._few_classes(35, 28800)


@pytest.mark.parametrize(
    "shape",
    [star_shape(4), centipede_shape(3, 3), centipede_shape(2, 4)]
    + [s for s in enumerate_complete_shapes(2, 5) if len(s.vertices) > 2],
)
def test_groups_one_walk_covers_build_no_few_class_matrix(monkeypatch, shape):
    """Where k |G| <= _GATHER_CAP the table comes from the walk alone."""
    G = shape_automorphism_group(shape)
    assert int(conjugacy_classes(G).max() + 1) * G.order <= chartab._GATHER_CAP

    def refused(*args):
        raise AssertionError("a few-class matrix was built")

    monkeypatch.setattr(chartab, "_few_class_matrices", refused)
    got = character_table.__wrapped__(G)
    assert np.array_equal(got.characters, character_table(G).characters)


@pytest.mark.parametrize("shape", [star_shape(6), centipede_shape(5, 3)], ids=["star6", "centipede(5,3)"])
def test_few_class_path_looks_up_its_classes_only(monkeypatch, shape):
    """The few-class path looks up sum_{i in S} |C_i| k rows for a prefix
    S = 1 .. s of the smallest non-identity classes, never k |G|, and
    walks no Cayley table: for S_7 the 21 transpositions alone separate
    the 15 rows, 315 rows where the walk takes 75,600 products."""
    G = shape_automorphism_group(shape)
    want = character_table(G)
    sizes = np.bincount(want.class_ids)
    k = len(sizes)
    rows = []
    indices = PermGroup.indices

    def counting(self, r):
        rows.append(len(np.asarray(r).reshape(-1, self.degree)))
        return indices(self, r)

    def no_walk(*args):
        raise AssertionError("the class matrix walked the Cayley table")

    monkeypatch.setattr(PermGroup, "indices", counting)
    monkeypatch.setattr(chartab, "_class_matrix", no_walk)
    got = character_table.__wrapped__(G)
    assert np.array_equal(got.characters, want.characters) and got.degrees == want.degrees
    # the class inverses, then the products (the classes look up nothing:
    # every generator is an involution, its own inverse)
    assert rows[:1] == [k]
    looked_up = sum(rows[1:])
    assert looked_up in {k * int(sizes[1 : s + 1].sum()) for s in range(1, k)}
    assert looked_up < k * G.order // 50
    if shape == star_shape(6):
        assert rows[1:] == [21 * 15]
