"""Exact geometry of the (q+1)-regular tree and its boundary.

Vertices are encoded as label words rooted at a basepoint o (the empty
word): the first label ranges over 0..q (the q+1 edges at o), every later
label over 0..q-1 (the q downward edges at any other vertex).  Depth of a
word equals its distance from o, and longest-common-prefix computations
give all distances in O(depth).

A RayPrefix with word w stands for the cylinder of boundary points whose
ray from o passes through w.  Operations that consume ray prefixes verify
that the prefix actually determines the answer and raise InsufficientDepth
otherwise -- they never guess how a ray continues below its frontier.
Past those checks the Gromov product is integer arithmetic on common
prefix lengths, (a, b)_x = lcp(a, b) + |x| - lcp(x, a) - lcp(x, b)
(lcp_product), so a caller holding a table of lcps pays no word walk.

Measures and kernels are exact: cylinder masses and Radon-Nikodym ratios
are Fractions, Busemann values are ints.

Finite partial automorphisms are TreeIsometry objects: an injective,
adjacency-preserving map on a finite connected subtree.  Any such map
extends to a full automorphism of the tree; extend_isometry realizes a
canonical (lexicographically smallest) such extension on a ball.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    DegenerateCylinder,
    InsufficientDepth,
    NotDistinct,
    OutOfDomain,
)

Word = tuple  # tuple of int labels


@dataclass(frozen=True, order=True)
class Vertex:
    """A vertex of the tree, encoded as a root-based label word."""

    word: Word = ()

    @property
    def depth(self) -> int:
        return len(self.word)

    def parent(self) -> "Vertex":
        if not self.word:
            raise ValueError("the basepoint has no parent")
        return Vertex(self.word[:-1])

    def __repr__(self):
        return f"V{list(self.word)}"


@dataclass(frozen=True, order=True)
class RayPrefix:
    """The cylinder of boundary points whose ray from o passes through word."""

    word: Word = ()

    @property
    def depth(self) -> int:
        return len(self.word)

    def __repr__(self):
        return f"Ray{list(self.word)}"


O = Vertex(())


def check_word(word: Word, q: int) -> None:
    """Validate the label ranges of a root-based word."""
    if _valid_word(word, q):
        return
    for i, lab in enumerate(word):
        hi = q if i == 0 else q - 1
        if not 0 <= lab <= hi:
            raise ValueError(f"label {lab} at position {i} out of range 0..{hi}")


def _valid_word(word: Word, q: int) -> bool:
    """check_word without the error: every label in range."""
    return not word or (min(word) >= 0 and word[0] <= q and max(word[1:], default=0) < q)


def word_children(word: Word, q: int) -> list:
    hi = q if len(word) == 0 else q - 1
    return [word + (lab,) for lab in range(hi + 1)]


def word_neighbors(word: Word, q: int) -> list:
    """Neighbors in canonical order: parent first, then children by label."""
    nbrs = [] if not word else [word[:-1]]
    nbrs.extend(word_children(word, q))
    return nbrs


def lcp_len(a: Word, b: Word) -> int:
    n = min(len(a), len(b))
    i = 0
    while i < n and a[i] == b[i]:
        i += 1
    return i


def word_distance(a: Word, b: Word) -> int:
    return len(a) + len(b) - 2 * lcp_len(a, b)


def distance(u: Vertex, v: Vertex) -> int:
    """Combinatorial distance between two vertices."""
    return word_distance(u.word, v.word)


def _adjacent(a: Word, b: Word) -> bool:
    """word_distance(a, b) == 1: one word is the other's parent."""
    if len(a) < len(b):
        a, b = b, a
    return len(a) == len(b) + 1 and a[:-1] == b


def word_path(a: Word, b: Word) -> list:
    """Words on the path from a to b: climb to the common prefix, then
    descend."""
    k = lcp_len(a, b)
    return [a[:i] for i in range(len(a), k - 1, -1)] + [b[:i] for i in range(k + 1, len(b) + 1)]


def _is_proper_prefix(a: Word, b: Word) -> bool:
    """True iff a is a proper prefix of b."""
    return len(a) < len(b) and b[: len(a)] == a


def vertex_to_ray_path(x: Word, w: Word) -> list:
    """The known portion of the ray from vertex x toward the boundary
    cylinder at w, as a list of words: x climbs to lcp(x, w), then follows w.

    The continuation below w is unknown; raises InsufficientDepth when w is
    a proper prefix of x (the join with the ray is then below the frontier).
    """
    _require_vertex_above(x, w)
    return word_path(x, w)


def _require_vertex_above(x: Word, w: Word) -> None:
    if _is_proper_prefix(w, x):
        raise InsufficientDepth(
            f"ray prefix {list(w)} too shallow: vertex {list(x)} hangs below it"
        )


def gromov_product(a, b, base: Vertex) -> int:
    """(a, b)_base: half of d(a,base)+d(b,base)-d(a,b), which on a tree is
    the distance from base to the geodesic joining a and b; computed as
    lcp(a, b) + |base| - lcp(base, a) - lcp(base, b) by lcp_product.

    a and b may each be a Vertex or a RayPrefix.  Identical ray prefixes
    raise NotDistinct (the +infinity convention is the caller's business);
    InsufficientDepth is raised when a prefix does not show where the
    geodesic leaves a vertex or the other ray, or when base hangs below a
    ray frontier.
    """
    wa, wb, x = a.word, b.word, base.word
    return lcp_product(a, b, base, lcp_len(wa, wb), lcp_len(x, wa), lcp_len(x, wb))


def lcp_product(a, b, base: Vertex, ab: int, xa: int, xb: int) -> int:
    """gromov_product(a, b, base) from the common prefix lengths
    ab = lcp(a, b), xa = lcp(base, a) and xb = lcp(base, b): the same
    checks and errors, in the same order, then
    (a, b)_x = lcp(a, b) + |x| - lcp(x, a) - lcp(x, b)."""
    wa, wb, x = a.word, b.word, base.word
    if isinstance(a, Vertex) and isinstance(b, Vertex):
        frontiers = ()
    elif isinstance(a, Vertex):
        if ab == len(wb) < len(wa):
            _require_vertex_above(wa, wb)
        frontiers = ((wb, xb),)
    elif isinstance(b, Vertex):
        if ab == len(wa) < len(wb):
            _require_vertex_above(wb, wa)
        frontiers = ((wa, xa),)
    else:
        if ab == len(wa) == len(wb):
            raise NotDistinct("identical ray prefixes do not determine a geodesic")
        if ab == min(len(wa), len(wb)):
            raise InsufficientDepth(
                f"prefixes {list(wa)}, {list(wb)} do not show where the rays diverge"
            )
        frontiers = ((wa, xa), (wb, xb))
    for f, xf in frontiers:
        if xf == len(f) < len(x):
            raise InsufficientDepth(
                f"base {base} hangs below the frontier {list(f)} of the geodesic"
            )
    return ab + len(x) - xa - xb


def median(g0: RayPrefix, g1: RayPrefix, g2: RayPrefix) -> Vertex:
    """The unique vertex at which all three pairwise geodesics meet.

    Equals the common prefix of the pair with the longest common prefix;
    the three rays leave it in three distinct directions, so all pairwise
    Gromov products vanish there.
    """
    rays = (g0, g1, g2)
    best = None
    for i in range(3):
        for j in range(i + 1, 3):
            wi, wj = rays[i].word, rays[j].word
            if wi == wj:
                raise NotDistinct(f"rays {i} and {j} have identical prefixes")
            if _is_proper_prefix(wi, wj) or _is_proper_prefix(wj, wi):
                raise InsufficientDepth(
                    f"rays {i} and {j} do not visibly diverge within their prefixes"
                )
            k = lcp_len(wi, wj)
            if best is None or k > best[0]:
                best = (k, wi[:k])
    return Vertex(best[1])


def busemann(g: RayPrefix, x: Vertex, y: Vertex) -> int:
    """Signed horodistance B_g(x, y) = d(x, c) - d(y, c), where c is the
    first common vertex of the rays from x and from y toward g."""
    w = g.word
    for v in (x, y):
        if _is_proper_prefix(w, v.word):
            raise InsufficientDepth(
                f"ray prefix {list(w)} too shallow: {v} hangs below it"
            )
    lx = lcp_len(x.word, w)
    ly = lcp_len(y.word, w)
    # both rays travel along w from depth max(lx, ly) on; the difference of
    # distances to any shared point is (|x| - 2 lx) - (|y| - 2 ly)
    return (len(x.word) - 2 * lx) - (len(y.word) - 2 * ly)


def poisson_kernel(x: Vertex, y: Vertex, g: RayPrefix, q: int) -> Fraction:
    """Radon-Nikodym ratio of the visual measures at y vs x, evaluated on
    the cylinder g: exactly q**B_g(x, y)."""
    return Fraction(q) ** busemann(g, x, y)


def cylinder_measure(x: Vertex, w: Vertex, q: int) -> Fraction:
    """Visual measure, seen from x, of the boundary cylinder through w:
    1/((q+1) q^(d(x,w)-1)).  Exact."""
    if x == w:
        raise DegenerateCylinder("cylinder U(x, w) needs w != x")
    return Fraction(1, (q + 1) * q ** (distance(x, w) - 1))


def ball_words(center: Word, radius: int, q: int) -> list:
    """All words within the given distance of center, in BFS order."""
    out = [center]
    seen = {center}
    frontier = [center]
    for _ in range(radius):
        nxt = []
        for w in frontier:
            for n in word_neighbors(w, q):
                if n not in seen:
                    seen.add(n)
                    out.append(n)
                    nxt.append(n)
        frontier = nxt
    return out


class TreeIsometry:
    """A finite partial automorphism: an injective, adjacency-preserving map
    on a finite connected subtree, given as a word -> word dict.

    Such a map preserves all distances on its domain and extends to a full
    automorphism of the tree.  Instances are immutable after construction.
    """

    __slots__ = ("q", "mapping")

    def __init__(self, q: int, mapping: dict):
        self.q = q
        self.mapping = dict(mapping)
        self._validate()

    def _validate(self):
        """Check labels, injectivity, adjacency and connectivity.  The
        incremental pass below accepts exactly the maps the full checks
        accept; when it finds a fault the full checks run, in their order,
        to raise their error."""
        try:
            if self._valid_by_parents():
                return
        except TypeError:
            pass
        self._validate_fully()

    def _valid_by_parents(self) -> bool:
        """One pass over the domain.  A word whose parent is in the domain
        needs its last label checked, and its image, adjacent to the
        parent's image, at most its last label: every label of the parent
        and of the parent's image is checked along the parent chain, which
        ends at the one word whose parent is not in the domain, checked in
        full."""
        m, q = self.mapping, self.q
        roots = 0
        for w, v in m.items():
            pv = m.get(w[:-1]) if w else None  # a parent mapped to None leaves it to the full checks
            if pv is not None:
                if not 0 <= w[-1] <= (q if len(w) == 1 else q - 1):
                    return False
                if len(v) == len(pv) + 1 and v[:-1] == pv:
                    if not 0 <= v[-1] <= (q if len(v) == 1 else q - 1):
                        return False
                elif not (len(pv) == len(v) + 1 and pv[:-1] == v):
                    return False
            else:
                roots += 1
                if roots > 1 or not _valid_word(w, q) or not _valid_word(v, q):
                    return False
        return roots == 1 and len(set(m.values())) == len(m)

    def _validate_fully(self):
        m = self.mapping
        if not m:
            raise ValueError("empty isometry domain")
        for w, v in m.items():
            check_word(w, self.q)
            check_word(v, self.q)
        if len(set(m.values())) != len(m):
            raise ValueError("mapping is not injective")
        # connectivity over parent links, and adjacency preservation
        roots = 0
        for w in m:
            p = w[:-1]
            if w and p in m:
                if not _adjacent(m[w], m[p]):
                    raise ValueError(
                        f"adjacency broken at {list(w)}: image not adjacent to parent image"
                    )
            else:
                roots += 1
        if roots != 1:
            raise ValueError("domain is not a connected subtree")

    @property
    def domain(self):
        return self.mapping.keys()

    def root_most(self) -> Vertex:
        """The unique minimal-depth vertex of the domain."""
        return Vertex(min(self.mapping, key=lambda w: (len(w), w)))

    def apply_word(self, w: Word) -> Word:
        try:
            return self.mapping[w]
        except KeyError:
            raise OutOfDomain(f"{list(w)} not in isometry domain") from None

    def apply_vertex(self, v: Vertex) -> Vertex:
        return Vertex(self.apply_word(v.word))

    def apply_ray(self, r: RayPrefix) -> RayPrefix:
        """Image of a boundary cylinder.

        The image of U(o, w) is the set of boundary points through f(w) on
        the far side from f(parent-chain); this is a root cylinder exactly
        when the image path ends with a parent-child step, in which case the
        result is the cylinder at f(w).

        The result may be shallower or deeper than the input; it is the
        exact image as a set of boundary points.
        """
        w = r.word
        if not w:
            return RayPrefix(())
        # every prefix must lie in the domain; only the last two images count
        for t in range(len(w) - 1):
            if w[:t] not in self.mapping:
                raise OutOfDomain(f"{list(w[:t])} not in isometry domain")
        prev, img = self.apply_word(w[:-1]), self.apply_word(w)
        if prev != img[:-1]:
            raise InsufficientDepth(
                "image cylinder is not a root cylinder; deepen the prefix"
            )
        return RayPrefix(img)

    def apply(self, p):
        if isinstance(p, Vertex):
            return self.apply_vertex(p)
        if isinstance(p, RayPrefix):
            return self.apply_ray(p)
        raise TypeError(f"cannot apply isometry to {type(p).__name__}")

    def inverse(self) -> "TreeIsometry":
        return TreeIsometry(self.q, {v: w for w, v in self.mapping.items()})

    def compose(self, other: "TreeIsometry") -> "TreeIsometry":
        """self after other, on the largest domain where that is defined."""
        m = {}
        for w, v in other.mapping.items():
            out = self.mapping.get(v)
            if out is not None:
                m[w] = out
        return TreeIsometry(self.q, m)

    def __eq__(self, other):
        return (
            isinstance(other, TreeIsometry)
            and self.q == other.q
            and self.mapping == other.mapping
        )

    def __repr__(self):
        return f"TreeIsometry(q={self.q}, |domain|={len(self.mapping)})"


def identity_isometry(q: int, words=((),)) -> TreeIsometry:
    return TreeIsometry(q, {w: w for w in words})


def extend_isometry(f: TreeIsometry, target_depth: int) -> TreeIsometry:
    """Extend f so its domain covers the ball of radius target_depth around
    the root-most domain vertex.

    Extension choices are canonical: vertices are visited in breadth-first
    order (distance from the root-most vertex, then word order), and each
    newly reached vertex receives the smallest available neighbor of its
    anchor's image, neighbors ordered parent-first then children by label.
    Deterministic, so extending twice equals extending once.
    """
    q = f.q
    root = f.root_most().word
    target = set(ball_words(root, target_depth, q))
    target.update(f.domain)
    mapping = dict(f.mapping)

    heap = [(0, root)]
    seen = {root}
    while heap:
        dist, u = heapq.heappop(heap)
        fu = mapping[u]
        used = set()
        unmapped = []
        for n in word_neighbors(u, q):
            if n in mapping:
                used.add(mapping[n])
            elif n in target:
                unmapped.append(n)
        avail = [v for v in word_neighbors(fu, q) if v not in used]
        for n in unmapped:
            mapping[n] = avail.pop(0)
        for n in word_neighbors(u, q):
            if n in target and n in mapping and n not in seen:
                seen.add(n)
                heapq.heappush(heap, (dist + 1, n))
    return TreeIsometry(q, mapping)
