"""Acceptance criteria, one test per criterion, each printing a pass/fail
line with its elapsed time.  Every criterion is a set of named checks of a
verify suite report, which holds its shapes, instance counts and
tolerances; a test only selects those checks, pins the counts they report,
and keeps its runtime budget.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
lines.
"""

import functools
import time

from arbocoh.config import Config
from arbocoh.verify import run_suite


@functools.lru_cache(maxsize=None)
def _report(suite, seed):
    return run_suite(suite, Config(seed=seed))


def _criterion(number, label, budget, suite, seed, checks):
    """The test of one criterion: each named check of the suite report at
    the seed passes and reports the given fields, within budget seconds."""

    def test():
        t0, status = time.time(), "FAIL"
        try:
            found = {c["name"]: c for c in _report(suite, seed)["checks"]}
            for name, fields in checks.items():
                assert found[name]["passed"], found[name]
                assert {k: found[name][k] for k in fields} == fields, found[name]
            status = "PASS"
        finally:
            elapsed = time.time() - t0
            print(f"ACCEPTANCE {number}: {status} ({elapsed:.1f}s / budget {budget}s) {label}")
        assert elapsed < budget, f"criterion {number} exceeded its runtime budget"

    return test


GEOMETRY = (
    "busemann_cocycle_exact",
    "radon_nikodym_exact",
    "median_gromov_products_zero",
    "cylinder_measure_additive",
    "isometry_invariance",
)
SPHERICAL = ("eigen_residual", "phi_z_symmetry", "gram_psd", "intertwiner_identity", "pi_z_unitary")

test_criterion_1_dihedral_example = _criterion(
    1, "order-8 dihedral centipedes, two classes, dims {1,0}", 5, "reps", 3, {"dihedral_example": {}}
)
test_criterion_2_diameter_two = _criterion(
    2, "stars: q=2 sign only; q=2, 3 match the projector oracle", 10, "reps", 3,
    {"diameter_two_spectrum": {}},
)
test_criterion_3_vanishing_grid = _criterion(
    3, "all-degree vanishing off the centipede/degree-2 cell", 5, "reps", 3, {"vanishing_grid": {}}
)
test_criterion_4_geometry_exactness = _criterion(
    4, "exact geometry on 500 random instances, zero tolerance", 5, "geometry", 0,
    dict.fromkeys(GEOMETRY, {}),
)
test_criterion_5_flip_suite = _criterion(
    5, "1000 random flip witnesses, prefix-exact, 0 failures", 30, "flip", 0,
    {"flip_witnesses_valid": {"instances": 1000}},
)
test_criterion_6_hitting_count_constancy = _criterion(
    6, "hit counts constant over 50 triples per shape, and exact", 60, "reps", 3,
    {"hit_counts_constant": {"triples": 50}},
)
test_criterion_7_character_table_validity = _criterion(
    7, "orthogonality over the shape catalog; dims = projector ranks", 60, "reps", 3,
    {"character_tables_orthogonal": {"proved": 13}, "invariant_dim_matches_projector_rank": {}},
)
test_criterion_8_h2_choice_independence = _criterion(
    8, "degree-2 dimension identical over all admissible pairs", 60, "reps", 3,
    {"h2_pair_independent": {}},
)
test_criterion_9_spherical_suite = _criterion(
    9, "spherical residuals, symmetry, PSD, intertwiner, unitarity", 60, "spherical", 2,
    {**dict.fromkeys(SPHERICAL, {}), "intertwiner_identity": {"depths": [1, 2, 3, 4]}},
)
test_criterion_10_witness_suite = _criterion(
    10, "witness equivariance/alternation x100; support in hit set", 120, "reps", 3,
    {"witness_cochain_laws": {}},
)
