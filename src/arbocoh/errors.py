"""Exception hierarchy.

Every failure mode of the library raises a subclass of ArbocohError, so
callers (and the CLI) can distinguish "your input is bad" from genuine bugs.
Boundary operations never guess: if a ray prefix is too shallow to determine
a value, they raise InsufficientDepth instead of extrapolating.
"""


class ArbocohError(Exception):
    """Base class for all library errors."""


class InvalidInput(ArbocohError, ValueError):
    """Outside input (command-line arguments, shape or descriptor JSON, a
    config file) cannot be parsed or is out of range."""


# -- tree geometry ---------------------------------------------------------

class InsufficientDepth(ArbocohError):
    """A ray prefix is too shallow to determine the requested quantity."""


class NotDistinct(ArbocohError):
    """Arguments required to be pairwise distinct are not."""


class DegenerateCylinder(ArbocohError):
    """Cylinder U(x, w) requested with w == x."""


class OutOfDomain(ArbocohError):
    """A point is outside the domain of a finite isometry."""


class TooManyRays(ArbocohError):
    """More pairwise divergent rays were requested than the branching
    parameter and the prefix depth admit."""


# -- shapes ----------------------------------------------------------------

class NotATree(ArbocohError):
    """Vertex/edge data does not describe a tree."""


class InvalidShape(ArbocohError):
    """Shape violates completeness or the degree bound."""


class TooSmall(ArbocohError):
    """Operation undefined for vertex/edge shapes (diameter too small)."""


class NotCuspidalShape(ArbocohError):
    """Operation requires a shape of diameter >= 2."""


class CatalogTooLarge(ArbocohError):
    """A shape enumeration would grow more trees than its work budget."""


# -- flip ------------------------------------------------------------------

class SubtreeHitsTriple(ArbocohError):
    """The given subtree hits the leading ray triple, so no flip exists."""


# -- permutation groups ----------------------------------------------------

class GroupTooLarge(ArbocohError):
    """Group closure exceeded the order bound, or a table proof would overflow int64."""


class NotASubgroup(ArbocohError):
    """Claimed subgroup is not contained in (or not closed within) the group."""


# -- representation theory -------------------------------------------------

class NumericalDegeneracy(ArbocohError):
    """A group with a non-real character, or no rounded eigen-solve proposal
    passed the exact integer proof of a character table in a fixed number of
    tries (irrational characters), or no subgroup fixes exactly one line of
    a row, so no model of it is cut out."""


class NonIntegralDimension(ArbocohError):
    """An invariant-subspace dimension came out non-integral or negative
    (broken table)."""


class DegenerateIrrep(ArbocohError):
    """A cuspidal construction was given a degenerate irreducible."""


class NotACentipede(ArbocohError):
    """Operation defined only for centipede shapes."""


class BadVertexChoice(ArbocohError):
    """(x, y) do not sit in complements of two distinct maximal subtrees."""


class InvalidDescriptor(InvalidInput):
    """Representation descriptor fails its admissibility checks."""


class BadVector(ArbocohError):
    """Witness vector violates its invariance precondition."""


# -- cli -------------------------------------------------------------------

class UnknownSuite(ArbocohError):
    """verify was asked for a suite name that does not exist."""
