"""Spherical functions, positive definiteness, the intertwiner, the
invariant inner product, and the twisted boundary action."""

import cmath
import functools
import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arbocoh.errors import InsufficientDepth
from arbocoh.spherical import (
    CylinderFunction,
    _depth_words,
    _pairing_matrices,
    cylinder_poisson_integral,
    eigen_residual,
    gram_psd_check,
    inner_product_z,
    intertwiner_matrix,
    is_admissible,
    mu_of_z,
    phi_values,
    pi_z_apply,
)
from arbocoh.tree import (
    O,
    RayPrefix,
    TreeIsometry,
    Vertex,
    busemann,
    extend_isometry,
    identity_isometry,
)
from arbocoh.verify import random_isometry, random_word


def test_mu_examples():
    for q in (2, 3, 5):
        assert abs(mu_of_z(q, 1.0) - 1) < 1e-14
        assert abs(mu_of_z(q, 0.0) - 1) < 1e-14
    assert abs(mu_of_z(2, 0.5) - 2 * math.sqrt(2) / 3) < 1e-14


def test_phi_normalization_and_first_value():
    for q in (2, 3):
        for z in (0.5, 0.3, 0.5 + 0.7j):
            phi = phi_values(q, z, 4)
            assert abs(phi[0] - 1) < 1e-14
            assert abs(phi[1] - mu_of_z(q, z)) < 1e-13


def test_phi_satisfies_recurrence():
    # independent oracle: the averaging recurrence determines phi from
    # phi(0), phi(1); compare against the level-sum evaluation
    q, z = 2, 0.5
    phi = phi_values(q, z, 6)
    mu = mu_of_z(q, z)
    vals = [1.0 + 0j, mu]
    for d in range(1, 6):
        vals.append(((q + 1) * mu * vals[d] - vals[d - 1]) / q)
    for d in range(7):
        assert abs(phi[d] - vals[d]) < 1e-12


def test_eigen_residuals():
    for q in (2, 3):
        for z in (0.5, 0.5 + 0.7j, 0.3, 0.3 + 1j * math.pi / math.log(q)):
            assert eigen_residual(q, z, 8) < 1e-10


def test_eigen_residual_sensitivity():
    # perturbing one value by 1e-3 must show up at 1e-4 scale
    q, z, D = 2, 0.5, 8
    phi = phi_values(q, z, D)
    mu = mu_of_z(q, z)
    vals = list(phi.values)
    vals[3] += 1e-3
    worst = 0.0
    for d in range(1, D):
        worst = max(worst, abs((vals[d - 1] + q * vals[d + 1]) / (q + 1) - mu * vals[d]))
    assert worst >= 1e-4


def test_phi_symmetry_z_vs_one_minus_z():
    for q in (2, 3):
        for z in (0.3, 0.5 + 0.7j, 0.25 + 0.4j):
            a = phi_values(q, z, 8)
            b = phi_values(q, 1 - z, 8)
            assert max(abs(a[d] - b[d]) for d in range(9)) < 1e-12


def test_admissibility():
    assert is_admissible(2, 0.5 + 5j)
    assert is_admissible(2, 0.3)
    assert is_admissible(2, 0.3 + 1j * math.pi / math.log(2))
    assert not is_admissible(2, 2.0)
    assert not is_admissible(2, 0.3 + 0.5j)
    assert is_admissible(2, 0.5 + 1j) and abs(mu_of_z(2, 0.5 + 1j)) <= 1


def test_gram_psd_admissible_and_violation():
    rng = np.random.default_rng(3)
    for z in (0.5, 0.5 + 1.3j, 0.3):
        vertices = [Vertex(random_word(rng, 2, int(rng.integers(0, 8)))) for _ in range(20)]
        assert gram_psd_check(2, z, vertices) >= -1e-9
    assert gram_psd_check(2, 0.5, [O]) == pytest.approx(1.0)
    path = [Vertex((0,) * d) for d in range(6)]
    assert gram_psd_check(2, 2.0, path) < -1e-6


def test_cylinder_poisson_integral_against_quadrature():
    """Exact cylinder integrals vs summing P^z over a fine cylinder
    partition (brute-force quadrature at depth 6)."""
    from arbocoh.tree import cylinder_measure

    q, z = 2, 0.37 + 0.21j
    logq = math.log(q)
    for x in [O, Vertex((0,)), Vertex((1, 0)), Vertex((2, 1, 0))]:
        for cyl in [(0,), (1, 1), (0, 0, 1)]:
            exact = cylinder_poisson_integral(q, z, x, cyl)
            total = 0j
            for w in _depth_words(q, 6):
                if w[: len(cyl)] != cyl:
                    continue
                b = busemann(RayPrefix(w), O, x)
                total += float(cylinder_measure(O, Vertex(w), q)) * cmath.exp(z * b * logq)
            assert abs(exact - total) < 1e-12


@pytest.mark.parametrize("q, n", [(2, 1), (2, 4), (3, 2)])
def test_pairing_by_prefix_class_matches_every_pair(q, n):
    """One integral per (probe depth, common prefix) class fills the
    pairing matrices as integrating every (probe, cylinder) pair does, up
    to the order of the float sums inside a cylinder split."""
    probes, cylinders = [w for d in range(n + 3) for w in _depth_words(q, d)], _depth_words(q, n)
    for z, w in zip((0.3, 0.5 + 0.4j), _pairing_matrices(q, (0.3, 0.5 + 0.4j), probes, cylinders)):
        each = [[cylinder_poisson_integral(q, z, Vertex(x), c) for c in cylinders] for x in probes]
        assert np.max(np.abs(w - np.array(each))) < 1e-15


def test_intertwiner_identity_on_constants():
    iz = intertwiner_matrix(2, 0.5, 2)
    one = CylinderFunction.constant(2, 1.0, 2)
    assert np.allclose(iz.apply(one).vector(), 1.0)
    # integral preserved for any z: take x = o in the defining identity
    iz = intertwiner_matrix(2, 0.3, 2)
    rng = np.random.default_rng(0)
    f = CylinderFunction(2, 2, {w: rng.standard_normal() for w in iz.cylinders})
    masses = 1.0 / ((2 + 1) * 2 ** (2 - 1))
    assert abs(np.sum(iz.apply(f).vector()) * masses - np.sum(f.vector()) * masses) < 1e-10


@functools.lru_cache(maxsize=None)
def _exponents(q, n):
    """B with P^z(o, x, .) = q^(z B[x, c]) on each depth-n cylinder c, for
    every vertex x of the radius-n ball: Busemann functions of the tree."""
    probes = [Vertex(w) for d in range(n + 1) for w in _depth_words(q, d)]
    return np.array([[busemann(RayPrefix(c), O, x) for c in _depth_words(q, n)] for x in probes])


def _least_squares_exchange(q, a, b, n):
    """The oracle: X with W^a X = W^b on the radius-n ball, by least
    squares, and the residual of that system.  W^s holds the integrals of
    P^s over the cylinders; their common measure cancels."""
    B = _exponents(q, n)
    Wa, Wb = q ** (complex(a) * B), q ** (complex(b) * B)
    X, *_ = np.linalg.lstsq(Wa, Wb, rcond=None)
    return X, float(np.max(np.abs(Wa @ X - Wb)))


def _grid_zs(q):
    """Real z, z = 1/2, a point of Re z = 1/2 and one of Im z = pi/ln q."""
    return (0.3, 0.5, 0.5 + 0.3j, 0.3 + 1j * math.pi / math.log(q))


@pytest.mark.parametrize("q", [2, 3, 4])
def test_closed_form_matches_least_squares(q):
    for n in (1, 2, 3, 4):
        for z in _grid_zs(q):
            X, residual = _least_squares_exchange(q, z, 1 - z, n)
            assert residual < 1e-8
            assert np.max(np.abs(intertwiner_matrix(q, z, n).matrix - X)) < 1e-12


def _random_function(rng, q, n):
    words = _depth_words(q, n)
    return CylinderFunction(q, n, zip(words, rng.standard_normal((len(words), 2)) @ (1, 1j)))


@pytest.mark.parametrize("q", [2, 3, 4])
def test_inner_product_against_least_squares(q):
    """(f, g)_z = integral of (A f) conj(g) with W^(conj z) A = W^(1-z)
    solved by least squares: A is the identity on Re z = 1/2 and I_z for
    real z and on the lines Im z = k pi/ln q."""
    rng = np.random.default_rng(q)
    for n in (1, 2, 3):
        mass = 1 / ((q + 1) * q ** (n - 1))
        for z in (*_grid_zs(q), 0.7 - 2j * math.pi / math.log(q)):
            A, _ = _least_squares_exchange(q, complex(z).conjugate(), 1 - z, n)
            closed = np.eye(len(A)) if complex(z).real == 0.5 else intertwiner_matrix(q, z, n).matrix
            assert np.max(np.abs(A - closed)) < 1e-12
            f, g = _random_function(rng, q, n), _random_function(rng, q, n)
            expected = np.sum((A @ f.vector()) * np.conj(g.vector())) * mass
            assert abs(inner_product_z(f, g, q, z) - expected) < 1e-12


@settings(max_examples=60, deadline=None)
@given(
    st.integers(2, 5),
    st.integers(1, 5),
    st.sampled_from(["real", "critical", "line"]),
    st.floats(0.05, 0.95),
    st.floats(-3, 3),
    st.integers(0, 2**32 - 1),
)
def test_intertwiner_inverse_is_one_minus_z(q, n, kind, x, y, seed):
    """I_z I_(1-z) = Id, since lambda_j(z) lambda_j(1-z) = 1."""
    z = {
        "real": complex(x),
        "critical": complex(0.5, y),
        "line": complex(x, round(y) * math.pi / math.log(q)),
    }[kind]
    f = _random_function(np.random.default_rng(seed), q, n)
    back = intertwiner_matrix(q, 1 - z, n).apply(intertwiner_matrix(q, z, n).apply(f))
    assert np.max(np.abs(back.vector() - f.vector())) < 1e-9 * max(1, np.max(np.abs(f.vector())))


def test_deep_intertwiner_is_cheap_and_preserves_the_integral():
    start = time.perf_counter()
    iz = intertwiner_matrix(2, 0.3, 8)
    f = _random_function(np.random.default_rng(5), 2, 8)
    out = iz.apply(f)
    assert time.perf_counter() - start < 1.0
    assert abs(np.mean(out.vector()) - np.mean(f.vector())) < 1e-12


def test_intertwiner_rejects_bad_mu():
    with pytest.raises(ValueError):
        intertwiner_matrix(2, 1.0, 2)  # mu = 1 excluded
    with pytest.raises(ValueError):
        intertwiner_matrix(2, 2.0, 2)  # mu > 1


def test_inner_product_examples():
    one = CylinderFunction.constant(2, 1.0, 1)
    assert abs(inner_product_z(one, one, 2, 0.5) - 1) < 1e-12
    rng = np.random.default_rng(8)
    z = 0.5 + 0.3j
    for _ in range(30):
        f = CylinderFunction(2, 1, {(i,): complex(rng.standard_normal(), rng.standard_normal()) for i in range(3)})
        g = CylinderFunction(2, 1, {(i,): complex(rng.standard_normal(), rng.standard_normal()) for i in range(3)})
        assert abs(inner_product_z(f, g, 2, z) - np.conj(inner_product_z(g, f, 2, z))) < 1e-8
        assert inner_product_z(f, f, 2, z).real >= -1e-8


def test_pi_z_identity_and_rotation():
    z = 0.5 + 0.3j
    phi = CylinderFunction(2, 1, {(0,): 1.0, (1,): 2.0, (2,): 3.0})
    ident = extend_isometry(identity_isometry(2), 3)
    assert pi_z_apply(ident, phi, 2, z).coeffs == phi.coeffs
    # a rotation fixing o permutes coefficients without twisting
    rot = extend_isometry(
        TreeIsometry(2, {(): (), (0,): (1,), (1,): (2,), (2,): (0,)}), 3
    )
    out = pi_z_apply(rot, phi, 2, z)
    got = out.coeff_map()
    assert got[(1,)] == pytest.approx(1.0)
    assert got[(2,)] == pytest.approx(2.0)
    assert got[(0,)] == pytest.approx(3.0)


def test_pi_z_reads_phi_off_one_dict(monkeypatch):
    """pi_z_apply reads phi's values off one coefficient dict, built once
    per function, not one dict per output cylinder."""
    rng = np.random.default_rng(17)
    phi = CylinderFunction(2, 4, {w: complex(rng.standard_normal()) for w in _depth_words(2, 4)})
    rot = extend_isometry(TreeIsometry(2, {(): (), (0,): (1,), (1,): (2,), (2,): (0,)}), 5)
    coeff_map, calls = CylinderFunction.coeff_map, []
    monkeypatch.setattr(CylinderFunction, "coeff_map", lambda self: calls.append(1) or coeff_map(self))
    out = pi_z_apply(rot, phi, 2, 0.5 + 0.3j)
    assert len(calls) <= 1
    # a rotation fixing o permutes the coefficients without twisting
    assert out.depth == 4 and sorted(out.vector().real) == pytest.approx(sorted(phi.vector().real))


def test_pi_z_unitary():
    rng = np.random.default_rng(11)
    z = 0.5 + 0.3j
    for _ in range(20):
        f = random_isometry(rng, 2, 6, move=int(rng.integers(0, 3)))
        phi = CylinderFunction(2, 1, {(i,): complex(*rng.standard_normal(2)) for i in range(3)})
        psi = CylinderFunction(2, 1, {(i,): complex(*rng.standard_normal(2)) for i in range(3)})
        before = inner_product_z(phi, psi, 2, z)
        after = inner_product_z(pi_z_apply(f, phi, 2, z), pi_z_apply(f, psi, 2, z), 2, z)
        assert abs(after - before) < 1e-6


def test_pi_z_composition():
    rng = np.random.default_rng(13)
    z = 0.5 + 0.3j
    phi = CylinderFunction(2, 1, {(0,): 1.0, (1,): 1j, (2,): -0.5})
    for _ in range(10):
        f = random_isometry(rng, 2, 8, move=1)
        g = random_isometry(rng, 2, 8, move=1)
        fg = f.compose(g)
        a = pi_z_apply(fg, phi, 2, z)
        b = pi_z_apply(f, pi_z_apply(g, phi, 2, z), 2, z)
        depth = max(a.depth, b.depth)
        assert np.max(np.abs(a.refine(depth).vector() - b.refine(depth).vector())) < 1e-9


def test_pi_z_insufficient_domain():
    z = 0.5
    phi = CylinderFunction(2, 1, {(0,): 1.0, (1,): 2.0, (2,): 3.0})
    tiny = TreeIsometry(2, {(): (0,), (0,): (0, 0), (1,): (), (2,): (0, 1)})
    with pytest.raises(InsufficientDepth):
        pi_z_apply(tiny, phi, 2, z)
