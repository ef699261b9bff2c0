"""Spherical functions and the boundary model of the related series.

phi_z is evaluated by an exact level sum; it satisfies the averaging
recurrence to machine precision, is symmetric under z <-> 1-z, and is a
positive definite radial kernel exactly on the admissible parameter set.
The intertwiner on cylinder functions, a scalar weight on each scale of
cylinder means, yields the invariant inner product making the twisted
boundary action unitary.
"""

import math

import numpy as np

from arbocoh import (
    CylinderFunction,
    Vertex,
    eigen_residual,
    gram_psd_check,
    inner_product_z,
    intertwiner_matrix,
    is_admissible,
    mu_of_z,
    phi_values,
    pi_z_apply,
)
from arbocoh.spherical import intertwiner_defining_residual
from arbocoh.verify import random_isometry, random_word

q = 2
print(f"== radial table at q={q} ==")
for z in (0.5, 0.5 + 0.7j, 0.3):
    phi = phi_values(q, z, 8)
    head = ", ".join(f"{phi[d]:.6f}" for d in range(4))
    print(f"  z={z}: mu={mu_of_z(q, z):.6f}; phi(0..3) = {head}")
    print(f"      eigen-recurrence residual (D=8): {eigen_residual(q, z, 8):.2e}")

print("\n== symmetry phi_z = phi_(1-z) ==")
z = 0.25 + 0.4j
a, b = phi_values(q, z, 8), phi_values(q, 1 - z, 8)
print(f"  max |phi_z - phi_(1-z)| over d<=8 at z={z}: "
      f"{max(abs(a[d]-b[d]) for d in range(9)):.2e}")

print("\n== positive definiteness ==")
rng = np.random.default_rng(0)
vs = [Vertex(random_word(rng, q, int(rng.integers(0, 8)))) for _ in range(20)]
for z in (0.5, 0.5 + 1.3j, 0.3, 2.0):
    tag = "admissible" if is_admissible(q, z) else "NOT admissible"
    print(f"  z={z} ({tag}): min Gram eigenvalue = {gram_psd_check(q, z, vs):+.3e}")
path = [Vertex((0,) * d) for d in range(6)]
print(f"  violating set for z=2 (a path of 6 vertices): "
      f"min eigenvalue {gram_psd_check(q, 2.0, path):+.3f}")

print("\n== intertwiner and unitary twisted action ==")
iz = intertwiner_matrix(q, 0.3, 3)
weights = ", ".join(f"{lam.real:.6f}" for lam in iz.weights)
print(f"  I_z at depth 3, z=0.3: weights lambda_0..3 = {weights}; "
      f"deep-probe residual {intertwiner_defining_residual(iz, 5):.1e}")
z = 0.5 + 0.3j
worst = 0.0
for _ in range(10):
    f = random_isometry(rng, q, 6, move=int(rng.integers(0, 3)))
    phi = CylinderFunction(q, 1, {(i,): complex(rng.standard_normal(), rng.standard_normal()) for i in range(3)})
    psi = CylinderFunction(q, 1, {(i,): complex(rng.standard_normal(), rng.standard_normal()) for i in range(3)})
    before = inner_product_z(phi, psi, q, z)
    after = inner_product_z(pi_z_apply(f, phi, q, z), pi_z_apply(f, psi, q, z), q, z)
    worst = max(worst, abs(after - before))
print(f"  unitarity of the twisted action at z={z}: worst deviation {worst:.2e}")
