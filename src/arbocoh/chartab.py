"""Character tables and explicit unitary irreducible models.

Tables are computed by the class-algebra method of Dixon (Numer. Math. 10,
1967) and Schneider (J. Symb. Comput. 9, 1990).  The structure constants
a_ijl of the class sums give commuting integer matrices B_i, with
B_i[j, l] = a_ijl, whose common eigenvectors are the central characters
w_l = n_l chi(C_l) / chi(1) (n_l the class sizes).  One combination
M = sum_i c_i B_i, with integers c_i in [1, 10^6) from a seeded stdlib
random.Random, is built in one pass down the Cayley table (k^2 integers
for k classes, never the k^3 constants), and float64 numpy.linalg.eig
splits it; each eigenvector, scaled to 1 at the identity class, gives a
row whose degree follows from the second orthogonality relation.

Aut(S) of a finite tree is an iterated wreath product of symmetric groups,
so its characters are integers.  The eigen-solve only proposes a table:
its rows X are rounded to integers and proved in int64, with
d_a = chi_a(1) and W_a = n chi_a:

* |chi(g)| <= chi(1), sum d_a^2 = |G| and W X^T = |G| I (orthonormality);
* d_a divides W_a, so w_a = W_a / d_a is an integer row, 1 at the identity;
* M w_a = mu_a w_a, with the k eigenvalues mu_a pairwise distinct.

The true central characters are k independent eigenvectors of M, so
distinct mu_a make the w_a the k central characters, and orthonormality
makes each row its irreducible character.  Every product is below
10^6 |G|^2: int64 is exact up to |G| = 3,037,000, three times the default
order bound, and a larger group raises GroupTooLarge before class work.

The proof is the one judge, with no float test before it.  A class not
closed under inversion means a non-real character (a cyclic C_n, n >= 3,
built with closure, say): NumericalDegeneracy before any try.  A rounding
that is not finite (an eigenvector that vanishes at the identity class)
or that fails the proof (eigenspaces the combination did not separate, or
real but irrational characters, as of the dihedral group of order 10)
retries with a fresh combination, a fixed number of times, before raising
NumericalDegeneracy.

A table keeps one class id per group element; a model keeps one
(|G|, d, d) array of matrices in element order.  A subgroup is a boolean
mask over the elements (perm.pointwise_stabilizer, perm.all_subgroups):
invariant_dim counts its elements by class with one bincount, and
IrrepModel.subspace_projector averages the matrices it selects, so
neither looks a row up by key.  realize_irrep cuts a model of degree
d > 1 out of the regular representation L with no random choice.  By
Frobenius reciprocity a subgroup H that fixes one line of the row
(dim V^H = 1, from its class counts) holds the irreducible once in the
permutation representation on G/H.  So the image of the rank-d projector
P_chi S_H, with P_chi = (d/|G|) sum_g chi(g) L(g) and S_H the average of
the right translations by H, is one copy, and its orthonormal basis C
gives rho(g) = C^T L(g) C.  H is the first such subgroup in all_subgroups
order, found for all rows at once; the degree-2 row of Q_8, whose
nontrivial subgroups all hold the central -1, has none and raises
NumericalDegeneracy.  The projector is dense, |G| x |G|, so a model of
degree above 1 is refused past order 120.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass, field

import numpy as np

from .errors import GroupTooLarge, NonIntegralDimension, NotASubgroup, NumericalDegeneracy
from .perm import (
    PermGroup,
    Permutation,
    all_subgroups,
    conjugacy_classes,
    pointwise_stabilizer,
    setwise_stabilizer,
)

_TRIES = 8  # random combinations tried before NumericalDegeneracy
_TABLE_SEED = 12345  # of the random class-matrix combinations
_MODEL_TOL = 1e-10  # unitarity and trace deviation allowed in a model
_COEFF_MAX = 10**6  # the combination's coefficients c_i lie in [1, _COEFF_MAX)
MODEL_MAX_ORDER = 120  # realize_irrep refuses larger groups for degrees above 1
_TABLE_CACHE_SIZE = 128
_IRREP_CACHE_SIZE = 32


@dataclass(frozen=True)
class CharacterTable:
    """Rows are irreducible characters, columns are conjugacy classes."""

    group: PermGroup
    # class of each element, in element order; classes by (size, least element)
    class_ids: np.ndarray = field(compare=False, repr=False)
    # rows x classes, int64
    characters: np.ndarray = field(compare=False)
    degrees: tuple = ()

    @property
    def n_rows(self) -> int:
        return len(self.degrees)

    def __hash__(self):
        return hash((self.group, self.degrees))

    def class_sizes(self) -> tuple:
        return tuple(np.bincount(self.class_ids).tolist())

    @functools.cached_property
    def classes(self) -> tuple:
        """Each class as a sorted tuple of elements: a view for the API and
        the tests, built on first use."""
        ids = self.class_ids.tolist()
        return tuple(
            tuple(sorted(p for p, i in zip(self.group.elements, ids) if i == c))
            for c in range(self.n_rows)
        )

    def class_index(self, p: Permutation) -> int:
        """Class of p; KeyError when p is not a group element."""
        return int(self.class_ids[self.group.index(p)])

    def value(self, row: int, p: Permutation) -> int:
        return int(self.characters[row, self.class_index(p)])

    def to_json(self) -> dict:
        reps = self.group.array[_least_elements(self.group, self.class_ids)].tolist()
        return {
            "order": self.group.order,
            "degrees": list(self.degrees),
            "classes": [{"size": n, "representative": r} for n, r in zip(self.class_sizes(), reps)],
            "characters": self.characters.tolist(),
        }


def _least_elements(G: PermGroup, ids: np.ndarray) -> np.ndarray:
    """Element index of the least element (by image tuple) of each class."""
    lex = G._row_index()[1]
    return lex[np.unique(ids[lex], return_index=True)[1]]


def _class_inverses(G: PermGroup, ids: np.ndarray) -> tuple:
    """The least element z_l of each class and the class of each z_l^{-1},
    with one key lookup of the k inverses."""
    reps = _least_elements(G, ids)
    return reps, ids[G.indices(np.argsort(G.array[reps], axis=1))]


def _class_matrix(G: PermGroup, ids: np.ndarray, reps, inverse_class, c: np.ndarray) -> np.ndarray:
    """M = sum_i c_i B_i, B_i[j, l] = a_ijl = #{x in C_i : x^{-1} z_l in C_j}
    for the least elements z_l of the classes, given each element's class,
    the z_l and the class of each z_l^{-1} (_class_inverses).

    With y = x^{-1} the count runs over the pairs (class of y^{-1}, class
    of y z_l).  The class of y^{-1} is the inverse of the class of y; the
    right multiples y z_l come down the Cayley table a chunk of columns at
    a time, and c contracts one bincount per representative into M[:, l]."""
    k = len(reps)
    row = inverse_class[ids] * k  # k times the class of y^{-1}
    M = np.empty((k, k), dtype=np.int64)
    for ell, right in enumerate(G.right_multiple_columns(reps)):
        M[:, ell] = c @ np.bincount(row + ids[right], minlength=k * k).reshape(k, k)
    return M


@functools.lru_cache(maxsize=_TABLE_CACHE_SIZE)
def character_table(G: PermGroup) -> CharacterTable:
    """Full character table of G; see the module docstring.  Rows are
    sorted by degree, then by their values in class order."""
    if _COEFF_MAX * G.order**2 > np.iinfo(np.int64).max:
        raise GroupTooLarge(f"|G| = {G.order} is past the int64 bound of the table proof")
    ids = conjugacy_classes(G)
    sizes = np.bincount(ids)
    reps, inverse_class = _class_inverses(G, ids)
    if np.any(inverse_class != np.arange(len(reps))):
        raise NumericalDegeneracy("a class is not closed under inversion: the group has a non-real character")
    rng = random.Random(_TABLE_SEED)
    for _ in range(_TRIES):
        c = np.array([rng.randrange(1, _COEFF_MAX) for _ in sizes], dtype=np.int64)
        M = _class_matrix(G, ids, reps, inverse_class, c)
        V = np.linalg.eig(M.astype(float))[1]
        with np.errstate(divide="ignore", invalid="ignore"):
            W = (V / V[0]).T  # row a: central character w_a, w_a(identity) = 1
            deg = np.rint(np.sqrt(G.order / (np.abs(W) ** 2 / sizes).sum(axis=1)))
            X = np.rint((W * deg[:, None] / sizes).real)
        table = _integral_table(G, ids, sizes, X, M)
        if table is not None:
            return table
    raise NumericalDegeneracy(f"no rounded table passed the exact checks in {_TRIES} tries")


def _integral_table(G: PermGroup, ids, sizes, X, M):
    """The table with rounded rows X (float, class 0 the identity) when the
    exact checks of the module docstring prove it against the class sizes
    and M, else None: also for rows that are not finite."""
    if not np.isfinite(X).all():
        return None
    deg = X[:, 0]
    if deg.min() < 1 or np.any(np.abs(X) > deg[:, None]):
        return None
    if sum(int(d) ** 2 for d in deg) != G.order:
        return None
    X = np.array(sorted(X.astype(np.int64).tolist()), dtype=np.int64)  # degree first: column 0
    d = X[:, [0]]
    W = X * sizes  # W[a, l] = n_l chi_a(l)
    if not np.array_equal(W @ X.T, G.order * np.eye(len(X), dtype=np.int64)):
        return None
    omega, rem = np.divmod(W, d)  # central characters, 1 at the identity
    if rem.any():
        return None
    image = omega @ M.T
    mu = image[:, 0]  # M's identity row is c
    if not np.array_equal(image, mu[:, None] * omega) or len(set(mu.tolist())) < len(mu):
        return None
    return CharacterTable(G, ids, X, tuple(d[:, 0].tolist()))


def fixed_dims(t: CharacterTable, counts, orders) -> np.ndarray:
    """dim V^H of every row under every subgroup H at once, each H given by
    its class counts (one row of counts per subgroup) and its order:
    (1/|H|) sum_l counts_l chi(C_l), one int64 product divided exactly.
    |chi| <= chi(1) <= |G|^(1/2) and sum_l counts_l = |H| keep the product
    below |G|^(3/2).  Shape (rows, subgroups)."""
    counts = np.asarray(counts, dtype=np.int64).reshape(-1, t.n_rows)
    dims, rem = np.divmod(t.characters @ counts.T, orders)
    if rem.any():
        row, j = np.argwhere(rem)[0]
        raise NonIntegralDimension(f"a character sum of row {row} is not a multiple of |H| = {orders[j]}")
    return dims


def _subgroup_mask(G: PermGroup, H) -> np.ndarray:
    """H as an array; NotASubgroup unless it is a boolean mask over the
    elements of G, of shape (|G|,), that holds the identity (element 0)."""
    H = np.asarray(H)
    if H.dtype != bool or H.shape != (G.order,) or not H[0]:
        raise NotASubgroup(f"not a boolean mask over the {G.order} elements of the group")
    return H


def invariant_dim(t: CharacterTable, row: int, H) -> int:
    """dim of the H-fixed subspace of the row's irreducible, for a mask H
    over the elements of t.group, from the class counts of H."""
    H = _subgroup_mask(t.group, H)
    counts = np.bincount(t.class_ids[H], minlength=t.n_rows)
    return int(fixed_dims(t, counts, [H.sum()])[row, 0])


@dataclass(frozen=True)
class IrrepModel:
    """Unitary matrices for one irreducible row, one per element in element order."""

    table: CharacterTable
    row: int
    matrices: np.ndarray = field(compare=False, repr=False)  # (|G|, d, d)

    def __post_init__(self):
        self.matrices.flags.writeable = False

    @property
    def degree(self) -> int:
        return self.table.degrees[self.row]

    def matrix(self, p: Permutation) -> np.ndarray:
        """The matrix of p; KeyError when p is not a group element."""
        return self.matrices[self.table.group.index(p)]

    def subspace_projector(self, H) -> np.ndarray:
        """Orthogonal projector onto the H-fixed subspace, for a mask H over
        the elements of the group."""
        H = _subgroup_mask(self.table.group, H)
        return self.matrices[H].sum(axis=0) / H.sum()

    def pair_projectors(self, ix: int, iy: int) -> tuple:
        """Read-only projectors onto the vectors fixed by the pointwise and
        by the setwise stabilizer of the points (ix, iy), computed once per
        pair of points the group acts on and held on the model."""
        if "_pairs" not in self.__dict__:
            object.__setattr__(self, "_pairs", {})
        if (ix, iy) not in self._pairs:
            G = self.table.group
            out = (
                self.subspace_projector(pointwise_stabilizer(G, [ix, iy])),
                self.subspace_projector(setwise_stabilizer(G, [ix, iy])),
            )
            for p in out:
                p.flags.writeable = False
            self._pairs[(ix, iy)] = out
        return self._pairs[(ix, iy)]


@functools.lru_cache(maxsize=_IRREP_CACHE_SIZE)
def _line_subgroups(t: CharacterTable) -> list:
    """Per row, the first subgroup in all_subgroups order that fixes one line
    of the row, or None: every row and subgroup in one fixed_dims."""
    subgroups = all_subgroups(t.group)
    counts = np.array(subgroups, dtype=np.int64) @ np.eye(t.n_rows, dtype=np.int64)[t.class_ids]
    line = fixed_dims(t, counts, counts.sum(axis=1)) == 1
    return [subgroups[j] if line[r, j] else None for r, j in enumerate(line.argmax(axis=1))]


@functools.lru_cache(maxsize=_IRREP_CACHE_SIZE)
def realize_irrep(t: CharacterTable, row: int) -> IrrepModel:
    """Explicit unitary matrices realizing one character row (see the module
    docstring); GroupTooLarge, before any allocation, for a degree above 1
    past MODEL_MAX_ORDER."""
    G = t.group
    d = t.degrees[row]
    order = G.order
    if d > 1 and order > MODEL_MAX_ORDER:
        raise GroupTooLarge(f"model of degree {d} refused at order {order} > {MODEL_MAX_ORDER}")
    chi = t.characters[row, t.class_ids].astype(complex)  # chi[i]: chi(element i)
    if d == 1:
        return IrrepModel(t, row, chi.reshape(-1, 1, 1))
    H = _line_subgroups(t)[row]
    if H is None:
        raise NumericalDegeneracy(f"no subgroup fixes exactly one line of row {row} (degree {d})")

    # mult[g, h] = g * h: the regular matrix of g has its 1s at (mult[g, h], h)
    mult = G.right_multiples(np.arange(order))
    proj = np.zeros((order, order))
    proj[mult, np.arange(order)] = chi.real[:, None] * (d / order)
    right = np.zeros((order, order))  # S_H: 1/|H| at (x, x * h) for h in H
    right[np.arange(order)[:, None], mult[:, H]] = 1 / H.sum()
    C = np.linalg.eigh(proj @ right)[1][:, -d:]  # order x d, orthonormal
    # C^T L(g) C takes row g * h of C to column h
    model = IrrepModel(t, row, (C[mult].transpose(0, 2, 1) @ C).astype(complex))
    _validate_model(model, chi)
    return model


def _validate_model(model: IrrepModel, chi: np.ndarray):
    M = model.matrices
    if np.abs(M @ M.conj().transpose(0, 2, 1) - np.eye(model.degree)).max() > _MODEL_TOL:
        raise NumericalDegeneracy("model not unitary")
    if np.abs(np.trace(M, axis1=1, axis2=2) - chi).max() > _MODEL_TOL:
        raise NumericalDegeneracy("model traces differ from the character")
