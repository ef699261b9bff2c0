"""Non-degeneracy, the degree-2 dimension formula, and the classifier."""

import pytest

from arbocoh import reptheory, treecode
from arbocoh.catalog import enumerate_complete_shapes
from arbocoh.chartab import character_table, realize_irrep
from arbocoh.errors import (
    BadVertexChoice,
    DegenerateIrrep,
    InvalidDescriptor,
    NotACentipede,
    TooSmall,
)
from arbocoh.perm import Permutation, closure, shape_automorphism_group
from arbocoh.reptheory import (
    RepDescriptor,
    admissible_vertex_pairs,
    canonical_vertex_pair,
    classify_bounded_cohomology,
    enumerate_nondegenerate,
    h2_dimension,
    is_nondegenerate,
)
from arbocoh.shapes import (
    Shape,
    centipede_shape,
    edge_shape,
    maximal_proper_complete_subtrees,
    star_shape,
    y_shape,
)
from arbocoh.verify import projector_spectrum

import numpy as np


def _table(shape):
    return character_table(shape_automorphism_group(shape))


def _sign_row(shape):
    """Degree-1 row that is -1 somewhere (the sign character for stars)."""
    t = _table(shape)
    return next(
        r
        for r in range(t.n_rows)
        if t.degrees[r] == 1 and any(v.real < -0.5 for v in t.characters[r])
    )


def test_nondegenerate_star_examples():
    """An edge is too small to test (`verify reps` checks that the sign row
    alone is non-degenerate on star(2))."""
    with pytest.raises(TooSmall):
        is_nondegenerate(edge_shape(2), _table(star_shape(2)), 0)


def test_enumerate_nondegenerate_examples():
    """Off the centipedes every h2 is 0 (`verify reps` checks the stars and
    the dihedral centipedes)."""
    ys = enumerate_nondegenerate(y_shape(2))
    assert ys and all(h2 == 0 for _, _, h2 in ys)


def test_h2_star_sign_is_one():
    s = star_shape(2)
    t = _table(s)
    x, y = canonical_vertex_pair(s)
    assert h2_dimension(s, t, _sign_row(s), x, y) == 1


def test_h2_dimension_cent4_both_rows():
    s = centipede_shape(2, 4)
    t = _table(s)
    x, y = canonical_vertex_pair(s)
    dims = sorted(
        h2_dimension(s, t, row, x, y)
        for row, _deg, _h2 in enumerate_nondegenerate(s)
    )
    assert dims == [0, 1]


def test_h2_errors():
    s = centipede_shape(2, 4)
    t = _table(s)
    row1 = enumerate_nondegenerate(s)[0][0]
    with pytest.raises(NotACentipede):
        h2_dimension(y_shape(2), _table(y_shape(2)), 0, "b0.L0", "b1.L0")
    triv = next(r for r in range(t.n_rows) if all(abs(v - 1) < 1e-9 for v in t.characters[r]))
    x, y = canonical_vertex_pair(s)
    with pytest.raises(DegenerateIrrep):
        h2_dimension(s, t, triv, x, y)
    # both ends in the same head: invalid pair
    subs = [sorted(sub) for sub in maximal_proper_complete_subtrees(s)]
    same_end = sorted(set(s.vertices) - set(subs[0]))
    with pytest.raises(BadVertexChoice):
        h2_dimension(s, t, row1, same_end[0], same_end[1])


def test_classifier_spherical_and_special():
    for n in range(1, 7):
        assert classify_bounded_cohomology(RepDescriptor.spherical(2, 0.5), n) == 0
        assert classify_bounded_cohomology(RepDescriptor.spherical(2, 0.5 + 2j), n) == 0
        assert classify_bounded_cohomology(RepDescriptor.spherical(3, 0.3), n) == 0
        assert classify_bounded_cohomology(RepDescriptor.special(2, "+"), n) == 0
        assert classify_bounded_cohomology(RepDescriptor.special(2, "-"), n) == 0


def test_classifier_cuspidal():
    """The cold row of centipede(2,4) is 0 in degree 2 (`verify reps`
    checks its hot row, and every other degree)."""
    cent4 = centipede_shape(2, 4)
    cold = next(r for r, _d, h2 in enumerate_nondegenerate(cent4) if h2 == 0)
    assert classify_bounded_cohomology(RepDescriptor.cuspidal(cent4, cold), 2) == 0


def test_classifier_degree_one_always_zero():
    descriptors = [
        RepDescriptor.spherical(2, 0.5),
        RepDescriptor.special(2, "+"),
        RepDescriptor.cuspidal(star_shape(2), enumerate_nondegenerate(star_shape(2))[0][0]),
    ]
    for d in descriptors:
        assert classify_bounded_cohomology(d, 1) == 0


def test_classifier_rejects_bad_descriptors():
    with pytest.raises(InvalidDescriptor):
        classify_bounded_cohomology(RepDescriptor.spherical(2, 2.0), 2)
    with pytest.raises(InvalidDescriptor):
        classify_bounded_cohomology(RepDescriptor.special(2, "x"), 2)
    s = star_shape(2)
    t = _table(s)
    triv = next(r for r in range(t.n_rows) if all(abs(v - 1) < 1e-9 for v in t.characters[r]))
    with pytest.raises(InvalidDescriptor):
        classify_bounded_cohomology(RepDescriptor.cuspidal(s, triv), 2)
    with pytest.raises(InvalidDescriptor):
        classify_bounded_cohomology(RepDescriptor.cuspidal(edge_shape(2), 0), 2)


@pytest.mark.parametrize("s", [star_shape(3), centipede_shape(3, 3)])
def test_q3_shapes_against_projector_oracle(s):
    """Non-degeneracy and the degree-2 dimension read off projector ranks
    of realized models rather than character sums.  `verify reps` runs
    the oracle on the stars of q = 2, 3; centipede(3,3), with |Aut| = 72,
    runs here only."""
    t = _table(s)
    models = [realize_irrep(t, r) for r in range(t.n_rows)]
    assert projector_spectrum(s, models) == enumerate_nondegenerate(s)


def test_rows_outside_the_table_are_invalid():
    """Row -1 and row n_rows name no row: both raise InvalidDescriptor
    rather than wrapping round to the last row or indexing past the
    table."""
    s = centipede_shape(2, 4)
    t = _table(s)
    assert t.n_rows == 5
    x, y = canonical_vertex_pair(s)
    for row in (-1, t.n_rows, 10**20):
        with pytest.raises(InvalidDescriptor, match=f"row index {row} out of range"):
            is_nondegenerate(s, t, row)
        with pytest.raises(InvalidDescriptor, match=f"row index {row} out of range"):
            h2_dimension(s, t, row, x, y)
        with pytest.raises(InvalidDescriptor, match=f"row index {row} out of range"):
            classify_bounded_cohomology(RepDescriptor.cuspidal(s, row), 2)


def test_rows_that_are_not_integers_are_invalid():
    """A bool or a float names no row, even when it equals one; a numpy
    integer names the row it equals."""
    s = centipede_shape(2, 4)
    t = _table(s)
    x, y = canonical_vertex_pair(s)
    for row in (True, 1.0):
        with pytest.raises(InvalidDescriptor, match="row index must be an integer"):
            is_nondegenerate(s, t, row)
        with pytest.raises(InvalidDescriptor, match="row index must be an integer"):
            h2_dimension(s, t, row, x, y)
    a = reptheory.analysis(s, t)
    for row in range(t.n_rows):
        assert is_nondegenerate(s, t, np.int64(row)) == is_nondegenerate(s, t, row)
        assert a.fingerprint(np.int64(row)) == a.fingerprint(row)
    hot = next(r for r in range(t.n_rows) if is_nondegenerate(s, t, r))
    assert h2_dimension(s, t, np.int64(hot), x, y) == h2_dimension(s, t, hot, x, y)


def test_a_table_of_another_degree_is_invalid():
    """A table of a group on another number of points than the shape's
    vertices raises InvalidDescriptor, for every row."""
    s = centipede_shape(2, 4)
    t = _table(star_shape(2))
    x, y = canonical_vertex_pair(s)
    with pytest.raises(InvalidDescriptor, match="the table is on 4 points, the shape on 8"):
        is_nondegenerate(s, t, 0)
    with pytest.raises(InvalidDescriptor, match="the table is on 4 points"):
        h2_dimension(s, t, 0, x, y)
    # the size test still comes first
    with pytest.raises(TooSmall):
        is_nondegenerate(edge_shape(2), t, 0)


def _relabel(s, ids):
    names = dict(zip(s.vertices, ids))
    return Shape(s.q, [names[v] for v in s.vertices], [(names[a], names[b]) for a, b in s.edges])


def test_a_table_of_another_group_is_invalid():
    """A table of a group on the right number of points that is not Aut(s)
    raises InvalidDescriptor: Aut of a relabelled copy (another action on
    the sorted ids), S_6 on the six vertices of centipede(2, 3), and a
    proper subgroup of Aut(s)."""
    s = centipede_shape(2, 4)
    s2 = _relabel(s, [f"z{9 - i}" for i in range(len(s.vertices))])
    assert [is_nondegenerate(s2, _table(s2), r) for r in range(5)] == [True, True, False, False, False]
    with pytest.raises(InvalidDescriptor, match="not of the automorphism group"):
        is_nondegenerate(s2, _table(s), 0)

    s = centipede_shape(2, 3)
    n = len(s.vertices)
    sym6 = closure([Permutation.from_dict(n, {i: i + 1, i + 1: i}) for i in range(n - 1)])
    aut = shape_automorphism_group(s)
    for G in (sym6, closure(aut.generators[:1])):
        assert G.degree == n and G.order != aut.order
        with pytest.raises(InvalidDescriptor, match="not of the automorphism group"):
            is_nondegenerate(s, character_table(G), 0)


def _old_fingerprint(t, row):
    # the format of the float tables: each value to 6 significant digits
    return f"deg{t.degrees[row]}[{','.join(f'{float(v):.6g}' for v in t.characters[row])}]"


def test_integer_fingerprints_match_the_float_format():
    """Fingerprints print int64 values with str, which is what the former
    6-significant-digit float format gave on the benchmark's shapes (every
    catalog shape of (q, D) = (2, 6), (3, 4), (4, 3) up to |Aut| = 5040, and
    the q = 6 star)."""
    hosts = [star_shape(6)] + [
        s
        for q, d in ((2, 6), (3, 4), (4, 3))
        for s in enumerate_complete_shapes(q, d)
        if s.diameter() >= 2 and treecode.aut_order(s.adjacency()) <= 5040
    ]
    for s in hosts:
        t = _table(s)
        a = reptheory.analysis(s, t)
        assert [a.fingerprint(r) for r in range(t.n_rows)] == [_old_fingerprint(t, r) for r in range(t.n_rows)]


def test_analysis_is_shared_by_every_entry_point():
    """enumerate_nondegenerate, is_nondegenerate, h2_dimension and the
    classifier read one analysis per (shape, table)."""
    s = centipede_shape(2, 4)
    t = _table(s)
    reptheory.analysis.cache_clear()
    rows = enumerate_nondegenerate(s)
    a = reptheory.analysis(s, t)
    x, y = canonical_vertex_pair(s)
    for row, _deg, h2 in rows:
        assert is_nondegenerate(s, t, row)
        assert h2_dimension(s, t, row, x, y) == h2
        assert classify_bounded_cohomology(RepDescriptor.cuspidal(s, row), 2) == h2
    assert reptheory.analysis(s, t) is a
    assert reptheory.analysis.cache_info().misses == 1
    assert a.pairs == frozenset(admissible_vertex_pairs(s)) and min(a.pairs) == (x, y)
    assert a.centipede and a.stabilizers(x, y) is a.stabilizers(x, y)
    assert [a.row_of_fingerprint[a.fingerprint(row)] for row in range(t.n_rows)] == list(range(t.n_rows))
