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

Every subgroup involved (each A_j, Q and Qtilde) is enumerated once per
(shape, table) and reduced to its class-count vector: entry l is the
number of its elements in class l of Aut(S).  The fixed-space dimension
of any row under that subgroup is then chi . counts divided exactly by
its order, so testing all rows of a table, or classifying one row after
another, never scans the group again.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from .chartab import CharacterTable, character_table, class_counts, dim_from_counts
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


_HEADS_CACHE_SIZE = 64
_PAIRS_CACHE_SIZE = 256  # every admissible pair of a 16-vertex shape
_ADMISSIBLE_CACHE_SIZE = 64  # admissible pair sets, one per shape
_SHAPE_CACHE_SIZE = 64  # per-shape answers of _is_centipede and _cuspidal_size


@functools.lru_cache(maxsize=_SHAPE_CACHE_SIZE)
def _is_centipede(s: Shape) -> bool:
    return classify_shape(s).tag == "centipede"


@functools.lru_cache(maxsize=_SHAPE_CACHE_SIZE)
def _cuspidal_size(s: Shape) -> bool:
    """More than two vertices and diameter >= 2."""
    return len(s.vertices) > 2 and s.diameter() >= 2


def _reduced(t: CharacterTable, H) -> tuple:
    """(class counts, order) of a subgroup of t.group; the counts are
    read-only because the caches below hand them to every caller."""
    counts = class_counts(t, H)
    counts.flags.writeable = False
    return counts, H.order


@functools.lru_cache(maxsize=_HEADS_CACHE_SIZE)
def _head_stabilizers(s: Shape, t: CharacterTable) -> tuple:
    """Each A_j reduced to (class counts, order), one per maximal proper
    complete subtree of s."""
    index = {v: i for i, v in enumerate(s.vertices)}
    return tuple(
        _reduced(t, pointwise_stabilizer(t.group, [index[v] for v in sub]))
        for sub in maximal_proper_complete_subtrees(s)
    )


@functools.lru_cache(maxsize=_PAIRS_CACHE_SIZE)
def _pair_stabilizers(s: Shape, t: CharacterTable, x: str, y: str) -> tuple:
    """Q(x, y) and Qtilde(x, y) reduced to (class counts, order)."""
    index = {v: i for i, v in enumerate(s.vertices)}
    pts = [index[x], index[y]]
    return (
        _reduced(t, pointwise_stabilizer(t.group, pts)),
        _reduced(t, setwise_stabilizer(t.group, pts)),
    )


def _nondegenerate(t: CharacterTable, row: int, heads) -> bool:
    return not any(dim_from_counts(t, row, c, order) for c, order in heads)


def _h2(t: CharacterTable, row: int, pair) -> int:
    (c_point, n_point), (c_set, n_set) = pair
    dim = dim_from_counts(t, row, c_point, n_point) - dim_from_counts(t, row, c_set, n_set)
    if dim < 0:
        raise NonIntegralDimension(
            f"setwise invariants exceed pointwise invariants by {-dim}"
        )
    return dim


def is_nondegenerate(s: Shape, t: CharacterTable, row: int) -> bool:
    """No nonzero vectors fixed by any pointwise stabilizer of a maximal
    proper complete subtree."""
    if not _cuspidal_size(s):
        raise TooSmall("non-degeneracy needs diameter >= 2")
    return _nondegenerate(t, row, _head_stabilizers(s, t))


@functools.lru_cache(maxsize=_ADMISSIBLE_CACHE_SIZE)
def _admissible_pairs(s: Shape) -> frozenset:
    """The admissible vertex pairs of s, computed once per shape."""
    subs = maximal_proper_complete_subtrees(s)
    return frozenset(
        (x, y)
        for x in s.vertices
        for y in s.vertices
        if x != y
        and any(x not in s1 and y not in s2 for s1 in subs for s2 in subs if s1 != s2)
    )


def admissible_vertex_pairs(s: Shape) -> list:
    """All ordered pairs (x, y) of distinct vertex ids such that x avoids
    one maximal proper complete subtree and y avoids a different one,
    sorted."""
    return sorted(_admissible_pairs(s))


def h2_dimension(s: Shape, t: CharacterTable, row: int, x, y) -> int:
    """dim V^Q(x,y) - dim V^Qtilde(x,y) for the pointwise/setwise
    stabilizers of {x, y} inside Aut(s)."""
    if not _is_centipede(s):
        raise NotACentipede("the degree-2 formula applies to centipedes only")
    if not is_nondegenerate(s, t, row):
        raise DegenerateIrrep(f"row {row} is degenerate on this shape")
    x, y = str(x), str(y)
    if (x, y) not in _admissible_pairs(s):
        raise BadVertexChoice(
            f"({x}, {y}) do not avoid two distinct maximal complete proper subtrees"
        )
    return _h2(t, row, _pair_stabilizers(s, t, x, y))


def canonical_vertex_pair(s: Shape):
    pairs = _admissible_pairs(s)
    if not pairs:
        raise BadVertexChoice("shape admits no valid vertex pair")
    return min(pairs)


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
        t = character_table(shape_automorphism_group(s, bound))
        if not 0 <= d.irrep < t.n_rows:
            raise InvalidDescriptor(f"row index {d.irrep} out of range")
        if not is_nondegenerate(s, t, d.irrep):
            raise InvalidDescriptor(f"row {d.irrep} is degenerate on this shape")
        if n != 2:
            return 0
        if not _is_centipede(s):
            return 0
        x, y = canonical_vertex_pair(s)
        return h2_dimension(s, t, d.irrep, x, y)
    raise InvalidDescriptor(f"unknown descriptor tag {d.tag!r}")


def enumerate_nondegenerate(s: Shape, bound: int = DEFAULT_ORDER_BOUND):
    """All non-degenerate rows of Aut(s) with their degree and degree-2
    dimension: list of (row, degree, h2_dim); bound caps |Aut(s)|."""
    if not _cuspidal_size(s):
        raise TooSmall("enumeration needs diameter >= 2")
    t = character_table(shape_automorphism_group(s, bound))
    heads = _head_stabilizers(s, t)
    pair = None
    if _is_centipede(s):
        pair = _pair_stabilizers(s, t, *canonical_vertex_pair(s))
    out = []
    for row in range(t.n_rows):
        if _nondegenerate(t, row, heads):
            out.append((row, t.degrees[row], _h2(t, row, pair) if pair else 0))
    return out
