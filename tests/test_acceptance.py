"""Acceptance criteria, one test per criterion, each printing a pass/fail
line with its elapsed time.  Criteria 4, 5, 7, 9 and 10 assert on the
reports of the verify suites, which hold their tolerances; the other
criteria, and the cases the suites do not cover, are checked here.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
lines.
"""

import functools
import time

import numpy as np

from arbocoh.chartab import character_table, realize_irrep
from arbocoh.config import Config
from arbocoh.perm import (
    closure,
    pointwise_stabilizer,
    setwise_stabilizer,
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
    centipede_shape,
    maximal_proper_complete_subtrees,
    star_shape,
    y_shape,
)
from arbocoh.spherical import intertwiner_defining_residual, intertwiner_matrix
from arbocoh.verify import (
    flip_suite,
    geometry_suite,
    random_rays,
    reps_suite,
    spherical_suite,
)


def _check(report, name):
    """The named check of a suite report, asserted to pass."""
    check = next(c for c in report["checks"] if c["name"] == name)
    assert check["passed"], check
    return check


@functools.lru_cache(maxsize=1)
def _reps_report():
    return reps_suite(Config(seed=3))


class _Criterion:
    def __init__(self, number, label, budget):
        self.number = number
        self.label = label
        self.budget = budget

    def __enter__(self):
        self.t0 = time.time()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.time() - self.t0
        status = "PASS" if exc_type is None else "FAIL"
        print(f"ACCEPTANCE {self.number}: {status} ({elapsed:.1f}s / budget {self.budget}s) {self.label}")
        if exc_type is None:
            assert elapsed < self.budget, f"criterion {self.number} exceeded its runtime budget"
        return False


def test_criterion_1_dihedral_example():
    with _Criterion(1, "order-8 dihedral centipedes, two classes, dims {1,0}", 5):
        for k in (3, 4, 5):
            s = centipede_shape(2, k)
            G = shape_automorphism_group(s)
            assert G.order == 8
            pairs = [
                (a, b)
                for a in G.elements
                for b in G.elements
                if a.order() == 2 and b.order() == 2 and (a * b).order() == 4
                and closure([a, b], degree=G.degree).order == 8
            ]
            assert pairs, f"no dihedral presentation pair for k={k}"
            rows = enumerate_nondegenerate(s)
            assert len(rows) == 2
            assert all(deg == 1 for _r, deg, _h in rows)
            assert sorted(h2 for _r, _d, h2 in rows) == [0, 1]
            hot = next(r for r, _d, h2 in rows if h2 == 1)
            # the nonzero class is the sign character killing the rotation:
            # some dihedral pair has chi(s) = chi(t) = -1
            t = character_table(G)
            assert any(
                t.value(hot, a) == -1 and t.value(hot, b) == -1
                for a, b in pairs
            )
            assert classify_bounded_cohomology(RepDescriptor.cuspidal(s, hot), 2) == 1


def test_criterion_2_diameter_two():
    with _Criterion(2, "stars: q=2 sign only; q=3 matches projector oracle", 10):
        s2 = star_shape(2)
        rows = enumerate_nondegenerate(s2)
        t2 = character_table(shape_automorphism_group(s2))
        assert t2.group.order == 6
        assert len(rows) == 1
        row, deg, h2 = rows[0]
        assert deg == 1 and h2 == 1
        # the unique entry is the sign character: -1 on some class
        assert any(round(v.real) == -1 for v in t2.characters[row])

        s3 = star_shape(3)
        G = shape_automorphism_group(s3)
        t3 = character_table(G)
        index = {v: i for i, v in enumerate(s3.vertices)}
        subs = maximal_proper_complete_subtrees(s3)
        x, y = canonical_vertex_pair(s3)

        def rank(model, H):
            P = model.subspace_projector(H)
            return int(np.sum(np.linalg.svd(P, compute_uv=False) > 1e-8))

        oracle = []
        for r in range(t3.n_rows):
            model = realize_irrep(t3, r)
            nondeg = all(
                rank(model, pointwise_stabilizer(G, [index[v] for v in sub])) == 0
                for sub in subs
            )
            if nondeg:
                pts = [index[x], index[y]]
                h2 = rank(model, pointwise_stabilizer(G, pts)) - rank(
                    model, setwise_stabilizer(G, pts)
                )
                oracle.append((r, t3.degrees[r], h2))
        assert oracle == enumerate_nondegenerate(s3)


def test_criterion_3_vanishing_grid():
    with _Criterion(3, "all-degree vanishing off the centipede/degree-2 cell", 5):
        # spherical, special, the y-shape and the 4-centipede
        _check(_reps_report(), "vanishing_grid")
        for k in (2, 3):
            s = centipede_shape(2, k)
            for row, _d, _h in enumerate_nondegenerate(s):
                for n in (1, 3, 4, 5, 6):
                    assert classify_bounded_cohomology(RepDescriptor.cuspidal(s, row), n) == 0


def test_criterion_4_geometry_exactness():
    with _Criterion(4, "exact geometry on 500 random instances, zero tolerance", 5):
        report = geometry_suite(Config(seed=0))
        assert report["passed"], report["checks"]


def test_criterion_5_flip_suite():
    with _Criterion(5, "1000 random flip witnesses, prefix-exact, 0 failures", 30):
        check = flip_suite(Config(seed=0))["checks"][0]
        assert check["instances"] == 1000
        assert check["failures"] == 0, check["first_failure"]


def test_criterion_6_hitting_count_constancy():
    with _Criterion(6, "hit counts constant over 50 triples per shape, and exact", 60):
        rng = np.random.default_rng(1)
        from arbocoh.shapes import count_hitting

        # count_hitting is the closed form sum over internal u of
        # (q+1)_{deg u} prod_{x != u} (q)_{deg x - 1}, over |Aut(I)|, for the
        # internal tree I; test_shapes checks it against the labelled
        # placement search and an independent copy of the formula
        expected = {"star": 1, "cent3": 3, "cent4": 9, "y": 4}
        shapes = {
            "star": star_shape(2),
            "cent3": centipede_shape(2, 3),
            "cent4": centipede_shape(2, 4),
            "y": y_shape(2),
        }
        for name, s in shapes.items():
            counts = {
                count_hitting(s, *random_rays(rng, 2, 3, 12)) for _ in range(50)
            }
            assert len(counts) == 1, f"{name}: counts varied: {counts}"
            assert counts == {expected[name]}


def test_criterion_7_character_table_validity():
    with _Criterion(7, "orthogonality over the shape catalog; dims = projector ranks", 60):
        report = _reps_report()
        tables = _check(report, "character_tables_orthogonal")
        assert tables["proved"] == tables["n_shapes"] > 0
        _check(report, "invariant_dim_matches_projector_rank")


def test_criterion_8_h2_choice_independence():
    with _Criterion(8, "degree-2 dimension identical over all admissible pairs", 60):
        for q in (2, 3):
            for k in (2, 3, 4):
                s = centipede_shape(q, k)
                t = character_table(shape_automorphism_group(s))
                for row, _deg, h2 in enumerate_nondegenerate(s):
                    dims = {
                        h2_dimension(s, t, row, x, y)
                        for x, y in admissible_vertex_pairs(s)
                    }
                    assert dims == {h2}, f"q={q} k={k} row={row}: {dims}"


def test_criterion_9_spherical_suite():
    with _Criterion(9, "spherical residuals, symmetry, PSD, intertwiner, unitarity", 60):
        report = spherical_suite(Config(seed=2))
        assert report["passed"], report["checks"]
        # the suite checks the depth-3 intertwiner; the other depths here
        for n in (1, 2, 4):
            iz = intertwiner_matrix(2, 0.3, n)
            assert intertwiner_defining_residual(iz, n + 2) < 1e-8


def test_criterion_10_witness_suite():
    with _Criterion(10, "witness equivariance/alternation x100; support in hit set", 120):
        _check(_reps_report(), "witness_cochain_laws")
