"""Planted defects: each monkeypatch breaks one thing that a `verify`
check claims, and that check must fail, and with it its report, while
every other check of the suite is still reported.  The witness check
builds its model on the hot row of centipede(2,4): a defect there makes
the library raise inside that check, and the check fails."""

import dataclasses

import numpy as np
import pytest

from arbocoh import verify
from arbocoh.config import Config
from arbocoh.shapes import centipede_shape, star_shape


def _hits_vary(f):  # one more hit on the triples whose first ray starts with 0
    return lambda s, *rays: f(s, *rays) + (rays[0].word[0] == 0)


def _h2_off_by_one(f):  # on the q=3 shapes
    return lambda s, bound: [(r, d, h2 + (s.q == 3)) for r, d, h2 in f(s, bound)]


def _centipede24_h2_too_high(f):  # the witness vector then has a setwise component
    return lambda s, bound: [(r, d, h2 + (s == centipede_shape(2, 4))) for r, d, h2 in f(s, bound)]


def _hot_row_swapped(f):  # the two h2 values of centipede(2,5) exchanged
    swap = lambda rows: [(r, d, h2) for (r, d, _), (_, _, h2) in zip(rows, rows[::-1])]
    return lambda s, bound: swap(f(s, bound)) if s == centipede_shape(2, 5) else f(s, bound)


def _star3_row_dropped(f):
    return lambda s, bound: f(s, bound)[: -1 if s == star_shape(3) else None]


def _centipede22_hot_in_degree_3(f):
    return lambda d, n, *b: 1 if n == 3 and d.shape == centipede_shape(2, 2) else f(d, n, *b)


def _depth_4_weight_off(f):
    def perturbed(q, z, n):
        iz = f(q, z, n)
        weights = iz.weights[:4] + tuple(w * (1 + 1e-6) for w in iz.weights[4:])
        return dataclasses.replace(iz, weights=weights)

    return perturbed


def _group_loses_an_element(f):  # all of G, less its last element: order |G| - 1
    def mutant(G):
        subgroups = f(G)
        whole = subgroups[-1].copy()
        whole[-1] = False
        return subgroups[:-1] + [whole]

    return mutant


def _order_two_not_closed(f):  # {1, g} for an element g of order above 2
    def mutant(G):
        subgroups = f(G)
        squares = np.take_along_axis(G.array, G.array, axis=1)  # row x is x * x
        g = int(np.argmax((squares != np.arange(G.degree)).any(axis=1)))
        pair = np.isin(np.arange(G.order), [0, g])
        i = next(i for i, H in enumerate(subgroups) if H.sum() == 2)
        return subgroups[:i] + [pair] + subgroups[i + 1 :]

    return mutant


def _last_two_classes_merged(f):  # the two classes last in (size, least element) order as one
    def mutant(G):
        ids = f(G)
        return np.minimum(ids, max(int(ids.max()) - 1, 0))

    return mutant


# (suite, the verify name patched, the defect planted in it, the check that must fail)
MUTANTS = [
    ("reps", "count_hitting", _hits_vary, "hit_counts_constant"),
    ("reps", "enumerate_nondegenerate", _h2_off_by_one, "h2_pair_independent"),
    ("reps", "enumerate_nondegenerate", _centipede24_h2_too_high, "witness_cochain_laws"),
    ("reps", "enumerate_nondegenerate", _hot_row_swapped, "dihedral_example"),
    ("reps", "enumerate_nondegenerate", _star3_row_dropped, "diameter_two_spectrum"),
    ("reps", "classify_bounded_cohomology", _centipede22_hot_in_degree_3, "vanishing_grid"),
    ("spherical", "intertwiner_matrix", _depth_4_weight_off, "intertwiner_identity"),
    ("groups", "all_subgroups", _group_loses_an_element, "lagrange"),
    ("groups", "all_subgroups", _order_two_not_closed, "lagrange"),
    ("groups", "conjugacy_classes", _last_two_classes_merged, "conjugacy_classes_match_brute_force"),
]


# every check of a suite, in report order
CHECKS = {
    "groups": [
        "aut_matches_brute_force",
        "maximal_subtrees_match_brute_force",
        "lagrange",
        "pointwise_stabilizer_is_complement_supported",
        "conjugacy_classes_match_brute_force",
    ],
    "reps": [
        "character_tables_orthogonal",
        "invariant_dim_matches_projector_rank",
        "h2_pair_independent",
        "vanishing_grid",
        "witness_cochain_laws",
        "dihedral_example",
        "diameter_two_spectrum",
        "hit_counts_constant",
    ],
    "spherical": ["eigen_residual", "phi_z_symmetry", "gram_psd", "intertwiner_identity", "pi_z_unitary"],
}


@pytest.mark.parametrize("suite, name, defect, check", MUTANTS, ids=[m[2].__name__ for m in MUTANTS])
def test_planted_defect_fails_its_check(monkeypatch, suite, name, defect, check):
    monkeypatch.setattr(verify, name, defect(getattr(verify, name)))
    report = verify.run_suite(suite, Config(seed=0))
    failed = [c["name"] for c in report["checks"] if not c["passed"]]
    assert check in failed and not report["passed"], failed
    assert [c["name"] for c in report["checks"]] == CHECKS[suite]
