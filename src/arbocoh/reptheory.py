"""Non-degeneracy, the degree-2 dimension formula, and the classifier.

An irreducible of Aut(S) is non-degenerate when it has no invariant
vectors under any A_j, the pointwise stabilizer (inside Aut(S)) of a
maximal proper complete subtree S_j.  Non-degenerate irreducibles on a
shape S are exactly the cuspidal representation classes with minimal tree
of that shape; spherical and special classes are tagged directly.

The only non-vanishing bounded cohomology happens in degree 2 for
centipede shapes, where the dimension is

    dim V^Q(x,y) - dim V^Qtilde(x,y)

for any admissible vertex pair (x, y) taken from complements of two
distinct maximal proper complete subtrees; the difference is independent
of the pair, and the classifier uses the lexicographically smallest one.

Everything the classifier reads about one shape S and one character table
of Aut(S) is one Analysis, which analysis(s, t) builds once per (shape,
table) and keeps in one bounded cache.  Each part is computed on first
use: the maximal proper complete subtrees S_j; each A_j, and each Q and
Qtilde asked for, reduced to its class-count vector (entry l is the
number of its elements in class l of Aut(S)); the admissible pairs; the
centipede flag; and the fingerprint of each row, with the map from a
fingerprint to its first row.  A stabilizer is a mask over the elements
of Aut(S) (perm.pointwise_stabilizer, perm.setwise_stabilizer), counted
by class with one bincount: no row is looked up by key.
The fixed-space dimension of a row under it is chi . counts divided
exactly by its order, and every row meets every A_j in one int64
product, below |G|^(3/2) as |chi| <= chi(1) <= |G|^(1/2); so testing
all rows, or classifying one after another, reads one boolean per row.
"""

from __future__ import annotations

import functools
import numbers
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from .chartab import CharacterTable, character_table, fixed_dims
from .errors import (
    BadVertexChoice,
    DegenerateIrrep,
    InvalidDescriptor,
    NonIntegralDimension,
    NotACentipede,
    TooSmall,
)
from .perm import (
    DEFAULT_ORDER_BOUND,
    automorphism_order,
    pointwise_stabilizer,
    setwise_stabilizer,
    shape_automorphism_group,
)
from .shapes import Shape, classify_shape, maximal_proper_complete_subtrees, validate_complete
from .spherical import is_admissible


@dataclass(frozen=True)
class RepDescriptor:
    """Tagged irreducible-representation class descriptor.

    spherical(z): boundary-parameter z with mu(z) in [-1, 1];
    special(sign): sign in {+, -};
    cuspidal(shape, irrep): complete shape of diameter >= 2 plus the row
    index of a non-degenerate irreducible of Aut(shape).
    """

    tag: str
    z: complex = 0j
    sign: str = ""
    shape: Shape | None = None
    irrep: int = -1
    q: int = 0  # spherical/special need the tree parameter explicitly

    @staticmethod
    def spherical(q: int, z: complex) -> "RepDescriptor":
        return RepDescriptor("spherical", z=complex(z), q=q)

    @staticmethod
    def special(q: int, sign: str) -> "RepDescriptor":
        return RepDescriptor("special", sign=sign, q=q)

    @staticmethod
    def cuspidal(shape: Shape, irrep: int) -> "RepDescriptor":
        return RepDescriptor("cuspidal", shape=shape, irrep=irrep, q=shape.q)


_ANALYSIS_CACHE_SIZE = 64


class Analysis:
    """What the classification reads about a shape s and a character table
    t of Aut(s), each part computed on first use; build it with
    analysis(s, t).  A table of a group other than Aut(s), or a row outside
    the table, raises InvalidDescriptor."""

    def __init__(self, s: Shape, t: CharacterTable):
        if t.group.degree != len(s.vertices):
            n = len(s.vertices)
            raise InvalidDescriptor(f"the table is on {t.group.degree} points, the shape on {n}")
        if not _is_automorphism_group(s, t.group):
            raise InvalidDescriptor("the table is not of the automorphism group of the shape")
        self.shape, self.table = s, t
        self._stabilizers = {}  # (x, y) -> (Q, Qtilde) reduced

    def _reduced(self, stabilizer, ids) -> tuple:
        """A stabilizer of vertex ids as (class counts, order), read off
        its mask over the elements; the counts are read-only because every
        caller shares them."""
        points = [self.shape.index[v] for v in ids]
        classes = self.table.class_ids[stabilizer(self.table.group, points)]
        counts = np.bincount(classes, minlength=self.table.n_rows)
        counts.flags.writeable = False
        return counts, int(counts.sum())

    @functools.cached_property
    def subtrees(self) -> tuple:  # the S_j
        return tuple(maximal_proper_complete_subtrees(self.shape))

    @functools.cached_property
    def heads(self) -> tuple:
        """Each A_j as (class counts, order), in the order of subtrees."""
        return tuple(self._reduced(pointwise_stabilizer, sub) for sub in self.subtrees)

    @functools.cached_property
    def _nondegenerate(self) -> np.ndarray:
        """Per row, whether no A_j fixes a nonzero vector: dim V^A_j of
        every row and head at once, one int64 product divided exactly."""
        return ~fixed_dims(self.table, *zip(*self.heads)).any(axis=1)

    @functools.cached_property
    def pairs(self) -> frozenset:
        return _admissible_pairs(self.shape, self.subtrees)

    @functools.cached_property
    def centipede(self) -> bool:
        return classify_shape(self.shape).tag == "centipede"

    @functools.cached_property
    def row_of_fingerprint(self) -> MappingProxyType:
        """Each fingerprint of the table with its first row, read-only."""
        rows = {}
        for row in range(self.table.n_rows):
            rows.setdefault(self.fingerprint(row), row)
        return MappingProxyType(rows)

    def fingerprint(self, row: int) -> str:
        """The row as spectrum prints it: deg<degree>[<values>], each value
        an integer."""
        row = self._row(row)
        values = self.table.characters[row].tolist()
        return f"deg{self.table.degrees[row]}[{','.join(map(str, values))}]"

    def _row(self, row) -> int:
        """The row index as an int: a bool, a number that is not an
        integer or an index outside the table raises InvalidDescriptor."""
        if isinstance(row, bool) or not isinstance(row, numbers.Integral):
            raise InvalidDescriptor(f"row index must be an integer, got {row!r}")
        if not 0 <= row < self.table.n_rows:
            raise InvalidDescriptor(f"row index {row} out of range")
        return int(row)

    def nondegenerate(self, row: int) -> bool:
        """No nonzero vector of the row is fixed by any A_j."""
        return bool(self._nondegenerate[self._row(row)])

    def stabilizers(self, x: str, y: str) -> tuple:
        """Q(x, y) and Qtilde(x, y) as (class counts, order), once per pair."""
        if (x, y) not in self._stabilizers:
            self._stabilizers[x, y] = tuple(
                self._reduced(f, (x, y)) for f in (pointwise_stabilizer, setwise_stabilizer)
            )
        return self._stabilizers[x, y]

    def h2(self, row: int, x: str, y: str) -> int:
        """dim V^Q(x,y) - dim V^Qtilde(x,y) of a row."""
        row = self._row(row)
        point, setwise = fixed_dims(self.table, *zip(*self.stabilizers(x, y)))[row].tolist()
        if point < setwise:
            raise NonIntegralDimension(
                f"setwise invariants exceed pointwise invariants by {setwise - point}"
            )
        return point - setwise


analysis = functools.lru_cache(maxsize=_ANALYSIS_CACHE_SIZE)(Analysis)


def _is_automorphism_group(s: Shape, G) -> bool:
    """G, on the sorted vertex ids of s, is Aut(s): each generator maps the
    edge set onto itself, so G lies in Aut(s), and |G| = |Aut(s)|."""
    edges = {frozenset((s.index[a], s.index[b])) for a, b in s.edges}
    for g in G.generators:
        if {frozenset((g(a), g(b))) for a, b in edges} != edges:
            return False
    s.check_tree()
    return G.order == automorphism_order(s)


def _admissible_pairs(s: Shape, subs) -> frozenset:
    """The pairs (x, y) with x outside some S_i and y outside another S_j."""
    return frozenset(
        (x, y)
        for x in s.vertices
        for y in s.vertices
        if x != y
        and any(x not in s1 and y not in s2 for s1 in subs for s2 in subs if s1 != s2)
    )


def is_nondegenerate(s: Shape, t: CharacterTable, row: int) -> bool:
    """No nonzero vectors fixed by any pointwise stabilizer of a maximal
    proper complete subtree."""
    if len(s.vertices) <= 2 or s.diameter() < 2:
        raise TooSmall("non-degeneracy needs diameter >= 2")
    return analysis(s, t).nondegenerate(row)


def admissible_vertex_pairs(s: Shape) -> list:
    """All ordered pairs (x, y) of distinct vertex ids such that x avoids
    one maximal proper complete subtree and y avoids a different one,
    sorted."""
    return sorted(_admissible_pairs(s, maximal_proper_complete_subtrees(s)))


def h2_dimension(s: Shape, t: CharacterTable, row: int, x, y) -> int:
    """dim V^Q(x,y) - dim V^Qtilde(x,y) for the pointwise/setwise
    stabilizers of {x, y} inside Aut(s)."""
    a = analysis(s, t)
    if not a.centipede:
        raise NotACentipede("the degree-2 formula applies to centipedes only")
    if not a.nondegenerate(row):
        raise DegenerateIrrep(f"row {row} is degenerate on this shape")
    x, y = str(x), str(y)
    if (x, y) not in a.pairs:
        raise BadVertexChoice(
            f"({x}, {y}) do not avoid two distinct maximal complete proper subtrees"
        )
    return a.h2(row, x, y)


def canonical_vertex_pair(s: Shape):
    pairs = admissible_vertex_pairs(s)
    if not pairs:
        raise BadVertexChoice("shape admits no valid vertex pair")
    return pairs[0]


def classify_bounded_cohomology(
    d: RepDescriptor, n: int, bound: int = DEFAULT_ORDER_BOUND
) -> int:
    """Dimension of the degree-n continuous bounded cohomology with
    coefficients in the descriptor's representation class; bound caps
    the order of Aut(shape)."""
    if n < 1:
        raise ValueError("degree must be >= 1")
    if d.tag == "spherical":
        if d.q < 2 or not is_admissible(d.q, d.z):
            raise InvalidDescriptor(f"z = {d.z} is not an admissible parameter")
        return 0
    if d.tag == "special":
        if d.q < 2:
            raise InvalidDescriptor(f"branching parameter {d.q} < 2")
        if d.sign not in ("+", "-"):
            raise InvalidDescriptor(f"special sign must be + or -, got {d.sign!r}")
        return 0
    if d.tag == "cuspidal":
        s = d.shape
        if s is None or not validate_complete(s) or s.diameter() < 2:
            raise InvalidDescriptor("cuspidal descriptor needs a complete shape of diameter >= 2")
        a = analysis(s, character_table(shape_automorphism_group(s, bound)))
        if not a.nondegenerate(d.irrep):
            raise InvalidDescriptor(f"row {d.irrep} is degenerate on this shape")
        if n != 2 or not a.centipede:
            return 0
        return a.h2(d.irrep, *min(a.pairs))
    raise InvalidDescriptor(f"unknown descriptor tag {d.tag!r}")


def enumerate_nondegenerate(s: Shape, bound: int = DEFAULT_ORDER_BOUND):
    """All non-degenerate rows of Aut(s) with their degree and degree-2
    dimension: list of (row, degree, h2_dim); bound caps |Aut(s)|."""
    if len(s.vertices) <= 2 or s.diameter() < 2:
        raise TooSmall("enumeration needs diameter >= 2")
    t = character_table(shape_automorphism_group(s, bound))
    a = analysis(s, t)
    rows = np.flatnonzero(a._nondegenerate).tolist()
    pair = min(a.pairs) if a.centipede else None
    return [(row, t.degrees[row], a.h2(row, *pair) if pair else 0) for row in rows]
