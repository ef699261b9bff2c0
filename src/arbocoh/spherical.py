"""Spherical functions, the boundary intertwiner, and the twisted action.

The radial eigenfunctions of the neighbor-averaging operator with
eigenvalue mu(z) = (q^z + q^(1-z))/(q+1) are evaluated exactly as finite
sums: the boundary integral of the z-th power of the Radon-Nikodym kernel
splits over the levels at which a boundary ray leaves the geodesic to the
evaluation vertex, and each level carries an exact rational mass times an
integer power q^(z*b).  The same level decomposition gives exact cylinder
integrals, which check the intertwiner exchanging the z and 1-z pairings:
that one is in closed form, a scalar on each scale of cylinder means.

Positive definiteness is probed through Gram matrices of the radial kernel
and through the inner product (f, g)_z = integral of (I_z f) conj(g); the
twisted boundary action multiplies by the kernel power and precomposes
with the inverse isometry, refining cylinder depth until both factors are
constant on every output cell.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .errors import InsufficientDepth, OutOfDomain
from .tree import (
    O,
    RayPrefix,
    TreeIsometry,
    Vertex,
    busemann,
    cylinder_measure,
    lcp_len,
    word_children,
    word_distance,
)

_ADMISSIBLE_TOL = 1e-12  # slack of the Re z and Im z tests of is_admissible
_MAX_EXTRA_DEPTH = 8  # refinements pi_z_apply tries beyond the input depth


def mu_of_z(q: int, z: complex) -> complex:
    """Averaging-operator eigenvalue (q^z + q^(1-z)) / (q+1)."""
    return (q**complex(z) + q ** (1 - complex(z))) / (q + 1)


def _off_lines(q: int, z: complex) -> float:
    """Distance of Im z to the nearest integer multiple of pi/ln q."""
    step = math.pi / math.log(q)
    return abs(z.imag - round(z.imag / step) * step)


def is_admissible(q: int, z: complex) -> bool:
    """Positive definiteness criterion: Re z = 1/2, or 0 <= Re z <= 1 with
    Im z an integer multiple of pi/ln q."""
    z = complex(z)
    if abs(z.real - 0.5) <= _ADMISSIBLE_TOL:
        return True
    if -_ADMISSIBLE_TOL <= z.real <= 1 + _ADMISSIBLE_TOL:
        return _off_lines(q, z) <= _ADMISSIBLE_TOL
    return False


@dataclass(frozen=True)
class RadialFunction:
    """Values at distances 0..D from the basepoint."""

    values: tuple

    def __getitem__(self, d: int) -> complex:
        return self.values[d]


def _level_masses(q: int, d: int):
    """Exact masses m_j of the boundary sets where a ray's word agrees with
    a fixed depth-d vertex for exactly j letters; the kernel exponent on
    that set is 2j - d."""
    if d == 0:
        return [(Fraction(1), 0)]
    out = [(Fraction(q, q + 1), -d)]
    for j in range(1, d):
        out.append((Fraction(q - 1, (q + 1) * q**j), 2 * j - d))
    out.append((Fraction(1, (q + 1) * q ** (d - 1)), d))
    return out


def phi_values(q: int, z: complex, D: int) -> RadialFunction:
    """Spherical function values phi_z(0..D), each an exact finite sum of
    rational masses times q^(z*b)."""
    vals = []
    for d in range(D + 1):
        total = 0j
        for mass, b in _level_masses(q, d):
            total += float(mass) * cmath.exp(complex(z) * b * math.log(q))
        vals.append(total)
    return RadialFunction(tuple(vals))


def eigen_residual(q: int, z: complex, D: int) -> float:
    """Worst deviation of phi_z from the averaging eigen-relation up to D."""
    phi = phi_values(q, z, D)
    mu = mu_of_z(q, z)
    worst = abs(phi[1] - mu * phi[0])
    for d in range(1, D):
        lhs = (phi[d - 1] + q * phi[d + 1]) / (q + 1)
        worst = max(worst, abs(lhs - mu * phi[d]))
    return worst


def gram_psd_check(q: int, z: complex, vertices) -> float:
    """Minimum eigenvalue of the Hermitian Gram matrix of the radial kernel
    over the given vertices."""
    words = [v.word for v in vertices]
    n = len(words)
    dmax = max(
        (word_distance(a, b) for a in words for b in words), default=0
    )
    phi = phi_values(q, z, dmax)
    K = np.array(
        [[phi[word_distance(a, b)] for b in words] for a in words], dtype=complex
    )
    K = (K + K.conj().T) / 2
    return float(np.linalg.eigvalsh(K)[0])


# -- locally constant boundary functions --------------------------------------


@dataclass(frozen=True)
class CylinderFunction:
    """A function on the boundary, constant on each depth-n cylinder."""

    q: int
    depth: int
    coeffs: tuple  # sorted (word, complex) pairs

    def __init__(self, q, depth, coeffs):
        items = dict(coeffs)
        words = sorted(_depth_words(q, depth))
        full = tuple((w, complex(items.get(w, 0.0))) for w in words)
        extra = set(items) - set(words)
        if extra:
            raise ValueError(f"coefficients on non-depth-{depth} words: {extra}")
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "depth", depth)
        object.__setattr__(self, "coeffs", full)

    @staticmethod
    def constant(q: int, value: complex, depth: int = 0) -> "CylinderFunction":
        return CylinderFunction(q, 0, {(): value}).refine(depth)

    @cached_property
    def _coeff_dict(self) -> dict:
        return dict(self.coeffs)

    def coeff_map(self) -> dict:
        return dict(self.coeffs)

    def value_on(self, word) -> complex:
        """Value on any cylinder at least as deep as the function."""
        if len(word) < self.depth:
            raise InsufficientDepth("cylinder shallower than the function depth")
        return self._coeff_dict[word[: self.depth]]

    def refine(self, depth: int) -> "CylinderFunction":
        if depth < self.depth:
            raise ValueError("refinement cannot decrease depth")
        cur = self.coeff_map()
        for _ in range(depth - self.depth):
            nxt = {}
            for w, c in cur.items():
                for child in word_children(w, self.q):
                    nxt[child] = c
            cur = nxt
        return CylinderFunction(self.q, depth, cur)

    def vector(self) -> np.ndarray:
        return np.array([c for _, c in self.coeffs])


def _depth_words(q: int, depth: int):
    words = [()]
    for _ in range(depth):
        words = [c for w in words for c in word_children(w, q)]
    return words


def cylinder_poisson_integral(q: int, z: complex, x: Vertex, cyl) -> complex:
    """Exact integral of the z-th kernel power P^z(o, x, .) over the
    boundary cylinder at the given word."""
    w, xw = tuple(cyl), x.word
    k = lcp_len(xw, w)
    if k == len(w) < len(xw):  # x below the cylinder's root: split it
        return sum(cylinder_poisson_integral(q, z, x, c) for c in word_children(w, q))
    mass = float(cylinder_measure(O, Vertex(w), q)) if w else 1.0
    return mass * cmath.exp(complex(z) * (2 * k - len(xw)) * math.log(q))


@dataclass(frozen=True)
class Intertwiner:
    """I_z on depth-n cylinder coordinates: the scalar weights[j] on each
    scale E_j f - E_(j-1) f, E_j the mean over depth-j cylinders and
    E_(-1) = 0 (Cartier 1973; Figa-Talamanca and Nebbia 1991, ch. 2-3)."""

    q: int
    z: complex
    depth: int
    weights: tuple

    @property
    def cylinders(self) -> tuple:
        return tuple(_depth_words(self.q, self.depth))

    def _apply(self, v: np.ndarray) -> np.ndarray:
        """lambda_n v + sum_(j<n) (lambda_j - lambda_(j+1)) E_j v along axis
        0, the sorted words: a depth-j cylinder is a run of them."""
        lam, n = self.weights, self.depth
        out = lam[n] * v
        for j in range(n):
            cells = 1 if j == 0 else (self.q + 1) * self.q ** (j - 1)
            means = v.reshape(cells, -1, *v.shape[1:]).mean(axis=1)
            out = out + (lam[j] - lam[j + 1]) * np.repeat(means, len(v) // cells, axis=0)
        return out

    @property
    def matrix(self) -> np.ndarray:
        return self._apply(np.eye(len(self.cylinders)))

    def apply(self, f: CylinderFunction) -> CylinderFunction:
        f = f.refine(self.depth)
        out = self._apply(f.vector())
        return CylinderFunction(self.q, self.depth, zip((w for w, _ in f.coeffs), out))


def _pairing_matrices(q, zs, probes, cylinders):
    """The exact cylinder integrals of P^z(o, x, .), one matrix per z, a row
    per probe x.  The cylinders share one depth, so an integral depends only
    on |x| and the common prefix of x and the cylinder (the stabilizer of o
    moves any such pair onto any other): each class is integrated once."""
    cyl = np.array(cylinders)
    lcp = [np.cumprod(cyl[:, : len(x)] == x[: cyl.shape[1]], axis=1).sum(axis=1) for x in probes]
    key = np.array(lcp) + (cyl.shape[1] + 1) * np.array([len(x) for x in probes])[:, None]
    _, first, inverse = np.unique(key.ravel(), return_index=True, return_inverse=True)
    pairs = [(Vertex(probes[i]), cylinders[j]) for i, j in zip(*np.divmod(first, len(cyl)))]
    return [
        np.array([cylinder_poisson_integral(q, z, x, c) for x, c in pairs])[inverse].reshape(key.shape)
        for z in zs
    ]


def _check_mu(q, z):
    mu = mu_of_z(q, z)
    if abs(mu.imag) > 1e-9 or not -1 + 1e-12 < mu.real < 1 - 1e-12:
        raise ValueError(f"intertwiner needs mu(z) in (-1, 1), got {mu}")


def intertwiner_matrix(q: int, z: complex, n: int) -> Intertwiner:
    """The operator exchanging the z and 1-z kernel pairings:
    integral of P^z (I_z f) equals integral of P^(1-z) f at every probe.
    Its weights are lambda_0 = 1 and lambda_j = r(z) q^((1-2z)(j-1)) for
    j >= 1, with r(z) = (mu - q^(z-1)) / (mu - q^(-z))."""
    _check_mu(q, z)
    if n < 1:
        raise ValueError("depth must be >= 1")
    z = complex(z)
    mu = mu_of_z(q, z)
    r = (mu - q ** (z - 1)) / (mu - q ** (-z))
    weights = (1 + 0j,) + tuple(r * q ** ((1 - 2 * z) * (j - 1)) for j in range(1, n + 1))
    return Intertwiner(q, z, n, weights)


def intertwiner_defining_residual(iz: Intertwiner, probe_radius: int) -> float:
    """Residual of the defining identity over all probes in a (possibly
    deeper) ball, from exact cylinder integrals of both kernel powers."""
    probes = [w for d in range(probe_radius + 1) for w in _depth_words(iz.q, d)]
    Wz, W1z = _pairing_matrices(iz.q, (iz.z, 1 - iz.z), probes, iz.cylinders)
    return float(np.max(np.abs(Wz @ iz.matrix - W1z)))


def inner_product_z(
    f: CylinderFunction, g: CylinderFunction, q: int, z: complex
) -> complex:
    """The invariant inner product: integral of (A_z f) conj(g), where A_z
    exchanges the conj z and 1-z pairings: the identity on Re z = 1/2, and
    I_z on the lines Im z = k pi/ln q, where q^(conj z b) = q^(z b)."""
    z = complex(z)
    _check_mu(q, z)
    depth = max(f.depth, g.depth, 1)
    f = f.refine(depth)
    if abs(z.real - 0.5) > _off_lines(q, z):
        f = intertwiner_matrix(q, z, depth).apply(f)
    gv = g.refine(depth).vector()
    mass = float(Fraction(1, q + 1) * Fraction(1, q) ** (depth - 1))
    return complex(np.sum(f.vector() * np.conj(gv)) * mass)


def pi_z_apply(f: TreeIsometry, phi: CylinderFunction, q: int, z: complex) -> CylinderFunction:
    """Twisted boundary action: gamma -> P^z(o, f o, gamma) phi(f^-1 gamma),
    returned at the shallowest depth where both factors are cylinder-wise
    constant, at most _MAX_EXTRA_DEPTH levels below phi's."""
    fo = f.apply_vertex(O)
    finv = f.inverse()
    logq = math.log(q)
    for depth in range(phi.depth, phi.depth + _MAX_EXTRA_DEPTH + 1):
        try:
            out = {}
            for w in _depth_words(q, max(depth, 1)):
                b = busemann(RayPrefix(w), O, fo)
                pre = finv.apply_ray(RayPrefix(w))
                out[w] = cmath.exp(complex(z) * b * logq) * phi.value_on(pre.word)
            return CylinderFunction(q, max(depth, 1), out)
        except (InsufficientDepth, OutOfDomain):
            continue
    raise InsufficientDepth(
        "isometry domain or cylinder depth too small for the twisted action"
    )
