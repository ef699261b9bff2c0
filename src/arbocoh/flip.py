"""Constructive branch-swap witnesses.

Given pairwise distinct boundary rays gamma_0..gamma_n (n >= 2) and a
finite subtree S that misses the leading triple, there is an order-2 tree
automorphism fixing S pointwise, swapping two of the rays and fixing all
the others.  find_flip produces such a witness explicitly:

  * locate the median m of the leading triple and the pair of its branch
    directions that S avoids;
  * collect the indices J0 of rays leaving m in one of those two
    directions, and pick the pair (i, j) in J0 with the largest mutual
    Gromov product at m (ties: lexicographically smallest pair);
  * let m' be the divergence vertex of the rays i and j seen from m, and
    swap the two branches at m' containing them.

The swap is pinned along the two known ray paths (so it exchanges the
certified prefixes of gamma_i and gamma_j exactly) and matches all other
children in canonical sorted order, making it a deterministic involution.
Everything outside the two branches, in particular S and every other ray,
is fixed pointwise.

Gromov products are integer arithmetic on common prefix lengths
(tree.lcp_product): find_flip keeps the table of pairwise ray lcps its
distinctness test builds, adds lcp(m, ray) once per ray, and reads the J0
filter and the best pair from them.  Only the domain words whose walk
from m' starts along a spine are walked; every other word is mapped to
itself.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InsufficientDepth, NotDistinct, SubtreeHitsTriple
from .shapes import EmbeddedSubtree
from .tree import (
    TreeIsometry,
    Vertex,
    lcp_len,
    lcp_product,
    median,
    vertex_to_ray_path,
    word_neighbors,
)

_WALK_STATES = 1 << 16  # walk states kept per branch swap


@dataclass(frozen=True)
class FlipWitness:
    """Indices (i, j), the swapping isometry h, and the number of exact
    swap steps beyond the secondary median."""

    i: int
    j: int
    h: TreeIsometry
    certified_depth: int


def _spines(m, ray_i, ray_j):
    """The known paths from the median m toward two rays, each cut to start
    at their last common vertex, the secondary median."""
    path_i = vertex_to_ray_path(m.word, ray_i.word)
    path_j = vertex_to_ray_path(m.word, ray_j.word)
    t = 0
    while t < len(path_i) and t < len(path_j) and path_i[t] == path_j[t]:
        t += 1
    return path_i[t - 1:], path_j[t - 1:]


def _missing_pair(rays, s, m):
    """Lexicographically smallest pair (a, b) in {0,1,2} such that every
    subtree vertex has zero Gromov product with both rays at the median."""
    image = [] if s is None else [Vertex(w) for w in sorted(s.image_words())]
    mr = [lcp_len(m.word, rays[a].word) for a in range(3)]
    mx = {x: lcp_len(m.word, x.word) for x in image}

    def product(a, x):
        return lcp_product(rays[a], x, m, lcp_len(rays[a].word, x.word), mr[a], mx[x])

    for a in range(3):
        for b in range(a + 1, 3):
            if all(product(a, x) == 0 and product(b, x) == 0 for x in image):
                return a, b
    raise SubtreeHitsTriple("the subtree hits the leading ray triple")


class _BranchSwap:
    """The order-2 swap of the branches at m' containing spines A and B.

    Spines are the known vertex paths from m' toward the two rays; the
    walk from m' to any vertex is replayed on the mirror side, following
    the spine pin while on it and canonical child order off it.  Every
    walk starts at m', so the walk state at a vertex depends only on the
    vertex; states are kept (up to _WALK_STATES of them) and a walk
    resumes from the last kept vertex on its path.
    """

    def __init__(self, q, m_prime, spine_a, spine_b):
        self.q = q
        self.m = m_prime
        self.spines = {0: spine_a, 1: spine_b}
        self.reach = min(len(spine_a), len(spine_b)) - 1
        # vertex -> (image, previous vertex, its image, spine position or
        # -1 once off the spine, side); side None: the branch is fixed
        self._states = {m_prime: (m_prime, None, None, 0, None)}
        # the first steps of the two spines from m'
        self._heads = (spine_a[1], spine_b[1])
        self._up_moves = m_prime[:-1] in self._heads

    def moves(self, u) -> bool:
        """Whether the walk from m' to u starts along a spine; every other
        vertex, m' included, is fixed."""
        m = self.m
        if u[: len(m)] == m:  # m' or below it: the first step is a child
            return len(u) > len(m) and u[: len(m) + 1] in self._heads
        return self._up_moves  # the first step is m's parent

    def image(self, u):
        states, m = self._states, self.m
        walk = []  # the vertices after the last kept one, from u back
        while u not in states:
            walk.append(u)
            # the vertex before u on the path from m': toward m' when u
            # is an ancestor of m', else u's parent
            u = m[: len(u) + 1] if m[: len(u)] == u else u[:-1]
        a = u
        b, prev_a, prev_b, r, side = states[a]
        for a2 in reversed(walk):
            if a == m:
                side = next((k for k in (0, 1) if a2 == self.spines[k][1]), None)
            if side is None:
                b2, r = a2, -1
            else:
                src, dst = self.spines[side], self.spines[1 - side]
                if r >= 0 and r + 1 < len(src) and r + 1 < len(dst) and a2 == src[r + 1]:
                    b2, r = dst[r + 1], r + 1
                else:
                    b2, r = self._match(a, b, prev_a, prev_b, r, a2), -1
            a, b, prev_a, prev_b = a2, b2, a, b
            if len(states) < _WALK_STATES:
                states[a] = (b, prev_a, prev_b, r, side)
        return b

    def _match(self, a, b, prev_a, prev_b, r, a2):
        """Rank-match a2 among the unpinned neighbors of a onto those of b."""
        pin_a = pin_b = None
        if r >= 0:
            for k in (0, 1):
                sp = self.spines[k]
                if r < len(sp) and sp[r] == a:
                    if r + 1 < len(sp) and r + 1 < len(self.spines[1 - k]):
                        pin_a = sp[r + 1]
                        pin_b = self.spines[1 - k][r + 1]
                    break
        nbrs_a = [w for w in word_neighbors(a, self.q) if w != prev_a and w != pin_a]
        nbrs_b = [w for w in word_neighbors(b, self.q) if w != prev_b and w != pin_b]
        return nbrs_b[nbrs_a.index(a2)]


def find_flip(q: int, rays, s, depth: int) -> FlipWitness:
    """Produce a branch-swap witness; see the module docstring.

    rays: list of at least 3 RayPrefix, pairwise divergent within depth.
    s: an EmbeddedSubtree missing the triple (rays[0..2]), or None.
    Raises SubtreeHitsTriple / InsufficientDepth / NotDistinct.
    """
    n = len(rays)
    if n < 3:
        raise ValueError("need at least 3 rays")
    for k, r in enumerate(rays):
        if r.depth < depth:
            raise InsufficientDepth(f"ray {k} shallower than requested depth {depth}")
    lcp = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(a + 1, n):
            lcp[a][b] = lcp[b][a] = lcp_len(rays[a].word, rays[b].word)
            if lcp[a][b] >= depth:
                raise NotDistinct(f"rays {a} and {b} agree to depth {depth}")

    m = median(rays[0], rays[1], rays[2])
    pa, pb = _missing_pair(rays, s, m)

    # every ray reaches below depth > |m| and no two agree to depth, so no
    # product of two rays at m can raise
    mr = [lcp_len(m.word, r.word) for r in rays]

    def product(a, b):
        return lcp_product(rays[a], rays[b], m, lcp[a][b], mr[a], mr[b])

    j0 = [k for k in range(n) if k in (pa, pb) or product(k, pa) > 0 or product(k, pb) > 0]
    best = None
    for ii in j0:
        for jj in j0:
            if ii < jj:
                g = product(ii, jj)
                if best is None or g > best[0]:
                    best = (g, ii, jj)
    _, i, j = best

    spine_i, spine_j = _spines(m, rays[i], rays[j])
    if len(spine_i) == 1 or len(spine_j) == 1:
        raise InsufficientDepth(f"rays {i} and {j} do not visibly diverge")

    swap = _BranchSwap(q, spine_i[0], spine_i, spine_j)

    dom = set()
    for r in rays:
        dom.update(r.word[:k] for k in range(len(r.word) + 1))
    if s is not None:
        for w in s.image_words():
            dom.update(w[:k] for k in range(len(w) + 1))
    mapping = {u: swap.image(u) if swap.moves(u) else u for u in sorted(dom)}
    for u, v in list(mapping.items()):
        if v not in mapping:
            mapping[v] = swap.image(v)
    h = TreeIsometry(q, mapping)
    return FlipWitness(i=i, j=j, h=h, certified_depth=swap.reach)


def check_flip_witness(q: int, rays, s, w: FlipWitness) -> list:
    """Verify the witness postconditions prefix-exactly: the subtree is
    fixed pointwise, h exchanges the two ray paths beyond the secondary
    median step for step to the certified depth, every other ray's
    cylinder is fixed exactly, h is an involution, and the Gromov
    products at the secondary median are zero.  Returns a list of failure
    descriptions (empty = pass)."""
    fails = []
    h = w.h
    if s is not None:
        for word in sorted(s.image_words()):
            if h.mapping.get(word) != word:
                fails.append(f"subtree vertex {list(word)} moved")

    m = median(rays[0], rays[1], rays[2])
    spine_i, spine_j = _spines(m, rays[w.i], rays[w.j])
    reach = min(len(spine_i), len(spine_j)) - 1
    if w.certified_depth > reach:
        fails.append("certified depth exceeds the visible spine overlap")
    for r in range(min(reach, w.certified_depth) + 1):
        if h.mapping.get(spine_i[r]) != spine_j[r] or h.mapping.get(spine_j[r]) != spine_i[r]:
            fails.append(f"spines not exchanged at step {r}")
            break

    for k, ray in enumerate(rays):
        if k in (w.i, w.j):
            continue
        if h.apply_ray(ray) != ray:
            fails.append(f"ray {k} not fixed")

    for u, v in h.mapping.items():
        if h.mapping.get(v, u) != u:
            fails.append(f"not an involution at {list(u)}")
            break

    m2 = Vertex(spine_i[0])
    ri, rj = rays[w.i], rays[w.j]
    m2i, m2j = lcp_len(m2.word, ri.word), lcp_len(m2.word, rj.word)
    for k, ray in enumerate(rays):
        if k in (w.i, w.j):
            continue
        mk = lcp_len(m2.word, ray.word)
        if (
            lcp_product(ray, ri, m2, lcp_len(ray.word, ri.word), mk, m2i) != 0
            or lcp_product(ray, rj, m2, lcp_len(ray.word, rj.word), mk, m2j) != 0
        ):
            fails.append(f"ray {k} meets a swapped branch at the secondary median")
    if s is not None:
        for word in sorted(s.image_words()):
            x = Vertex(word)
            mx = lcp_len(m2.word, word)
            if (
                lcp_product(ri, x, m2, lcp_len(ri.word, word), m2i, mx) != 0
                or lcp_product(rj, x, m2, lcp_len(rj.word, word), m2j, mx) != 0
            ):
                fails.append(f"subtree vertex {list(word)} meets a swapped branch")
    return fails
