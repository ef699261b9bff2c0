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

The swap is pinned along the spines, the known paths from m' toward the
two rays (so it exchanges the certified prefixes of gamma_i and gamma_j
exactly), and matches all other neighbours by rank (parent first, then
children by label): a deterministic involution.  The image of a word u
replays its path from m' on the mirror side: the other spine's word at
the same step while the path keeps to a spine, for (u, ray)_m' steps
within the certified reach; then the neighbour of equal rank among those
off the spine and not the previous vertex.  Once both sides step down,
each step keeps its label, so the rest of u is copied.  Everything
outside the two branches, in particular S and every other ray, is fixed.

Gromov products are integer arithmetic on common prefix lengths
(tree.lcp_product): find_flip keeps the table of pairwise ray lcps its
distinctness test builds, adds lcp(m, ray) once per ray, and reads the J0
filter and the best pair from them.  The witness domain, every prefix of
a ray or subtree word, is listed sorted; its swapped words are slices.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from itertools import combinations

from .errors import InsufficientDepth, NotDistinct, SubtreeHitsTriple
from .shapes import EmbeddedSubtree
from .tree import (
    TreeIsometry,
    Vertex,
    lcp_len,
    lcp_product,
    median,
    vertex_to_ray_path,
    word_path,
)


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
    path_i, path_j = (vertex_to_ray_path(m.word, r.word) for r in (ray_i, ray_j))
    t = lcp_len(path_i, path_j)
    return path_i[t - 1:], path_j[t - 1:]


def _missing_pair(rays, s, m):
    """Lexicographically smallest pair (a, b) in {0,1,2} such that every
    subtree vertex has zero Gromov product with both rays at the median."""
    image = [] if s is None else [(Vertex(w), lcp_len(m.word, w)) for w in sorted(s.image_words())]
    mr = [lcp_len(m.word, rays[a].word) for a in range(3)]

    def product(a, x, mx):
        return lcp_product(rays[a], x, m, lcp_len(rays[a].word, x.word), mr[a], mx)

    for a in range(3):
        for b in range(a + 1, 3):
            if all(product(a, x, mx) == 0 and product(b, x, mx) == 0 for x, mx in image):
                return a, b
    raise SubtreeHitsTriple("the subtree hits the leading ray triple")


def _mirror(a, a2, skip_a, b, skip_b):
    """The neighbour of b whose rank among those not in skip_b, in
    word_neighbors order, is that of a2 among a's not in skip_a."""

    def pos(w, x):
        return 0 if len(x) < len(w) else x[-1] + (1 if w else 0)

    k = pos(a, a2) - sum(pos(a, y) < pos(a, a2) for y in skip_a)
    for p in sorted(pos(b, y) for y in skip_b):
        if p <= k:
            k += 1
    return b[:-1] if b and k == 0 else b + (k - (1 if b else 0),)


class _BranchSwap:
    """The swap of the branches at m' holding two spines (module docstring)."""

    def __init__(self, spine_a, spine_b):
        self.m = m = spine_a[0]
        self.spines = (spine_a, spine_b)
        self.reach = reach = min(len(spine_a), len(spine_b)) - 1
        self._rays = [(sp[-1], lcp_len(m, sp[-1])) for sp in self.spines]
        self.pinned = dict(zip(spine_a[1 : reach + 1], spine_b[1 : reach + 1]))
        self.pinned.update(zip(spine_b[1 : reach + 1], spine_a[1 : reach + 1]))

    def runs(self, dom):
        """(lo, hi, side) for the slices of the sorted domain whose path
        from m' starts along that side's spine, in order: the words below a
        head that is a child of m', or outside the subtree of m' for a head
        that is its parent.  Every other word, m' included, is fixed."""
        m, out = self.m, []
        for side, spine in enumerate(self.spines):
            head = spine[1]
            if len(head) > len(m):
                out.append((bisect_left(dom, head), bisect_left(dom, m + (head[-1] + 1,)), side))
            else:
                lo, hi = bisect_left(dom, m), bisect_left(dom, m[:-1] + (m[-1] + 1,))
                out += [(0, lo, side), (hi, len(dom), side)]
        return sorted(out)

    def image(self, u, side):
        """The image of u, whose path from m' starts along spine `side`."""
        v = self.pinned.get(u)
        if v is not None:
            return v
        src, dst = self.spines[side], self.spines[1 - side]
        ray, e = self._rays[side]  # the path keeps to the spine for (u, ray)_m' steps
        r = min(lcp_len(u, ray) + len(self.m) - lcp_len(self.m, u) - e, self.reach)
        end = r + 2 if r < self.reach else r  # skip the next spine vertices within reach
        a, b, skip_a, skip_b = src[r], dst[r], src[r - 1 : end : 2], dst[r - 1 : end : 2]
        for a2 in word_path(a, u)[1:]:
            b2 = _mirror(a, a2, skip_a, b, skip_b)
            if len(a2) > len(a) and len(b2) > len(b):
                return b2 + u[len(a2) :]
            a, b, skip_a, skip_b = a2, b2, (a,), (b,)
        return b


def _preorder(words):
    """Every prefix of the words, once each, in sorted order: the root, then
    the prefixes of each word in sorted order that no earlier word shares."""
    out, prev = [()], ()
    for w in sorted(words):
        out += [w[:t] for t in range(lcp_len(prev, w) + 1, len(w) + 1)]
        prev = w
    return out


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
    i, j = min(combinations(j0, 2), key=lambda ab: (-product(*ab), ab))  # ties: the first pair

    spine_i, spine_j = _spines(m, rays[i], rays[j])
    if len(spine_i) == 1 or len(spine_j) == 1:
        raise InsufficientDepth(f"rays {i} and {j} do not visibly diverge")

    swap = _BranchSwap(spine_i, spine_j)
    dom = _preorder([r.word for r in rays] + (list(s.image_words()) if s is not None else []))
    moved = {u: swap.image(u, side) for lo, hi, side in swap.runs(dom) for u in dom[lo:hi]}
    mapping = dict(zip(dom, dom)) | moved
    for u, v in moved.items():  # the swap is an involution
        mapping.setdefault(v, u)
    h = TreeIsometry(q, mapping)
    return FlipWitness(i=i, j=j, h=h, certified_depth=swap.reach)


def check_flip_witness(q: int, rays, s, w: FlipWitness) -> list:
    """Verify the witness postconditions prefix-exactly: the subtree is
    fixed pointwise, h exchanges the two ray paths beyond the secondary
    median step for step to the certified depth, every other ray's
    cylinder is fixed exactly, h is an involution, and the Gromov
    products at the secondary median are zero.  Returns a list of failure
    descriptions (empty = pass)."""
    h = w.h
    subtree = [] if s is None else sorted(s.image_words())
    fails = [f"subtree vertex {list(x)} moved" for x in subtree if h.mapping.get(x) != x]

    m = median(rays[0], rays[1], rays[2])
    spine_i, spine_j = _spines(m, rays[w.i], rays[w.j])
    reach = min(len(spine_i), len(spine_j)) - 1
    if w.certified_depth > reach:
        fails.append("certified depth exceeds the visible spine overlap")
    for r in range(min(reach, w.certified_depth) + 1):
        if h.mapping.get(spine_i[r]) != spine_j[r] or h.mapping.get(spine_j[r]) != spine_i[r]:
            fails.append(f"spines not exchanged at step {r}")
            break

    others = [(k, ray) for k, ray in enumerate(rays) if k not in (w.i, w.j)]
    fails += [f"ray {k} not fixed" for k, ray in others if h.apply_ray(ray) != ray]

    hm = h.mapping
    back = list(map(hm.get, hm.values(), hm))  # h(h(u)), or u where h(u) is undefined
    if back != list(hm):
        u = next(u for u, b in zip(hm, back) if b != u)
        fails.append(f"not an involution at {list(u)}")

    m2 = Vertex(spine_i[0])
    ri, rj = rays[w.i], rays[w.j]
    m2i, m2j = lcp_len(m2.word, ri.word), lcp_len(m2.word, rj.word)

    def meets(x):  # whether x meets a swapped branch at the secondary median
        mx = lcp_len(m2.word, x.word)
        return (
            lcp_product(x, ri, m2, lcp_len(x.word, ri.word), mx, m2i) != 0
            or lcp_product(x, rj, m2, lcp_len(x.word, rj.word), mx, m2j) != 0
        )

    fails += [
        f"ray {k} meets a swapped branch at the secondary median" for k, ray in others if meets(ray)
    ]
    fails += [f"subtree vertex {list(x)} meets a swapped branch" for x in subtree if meets(Vertex(x))]
    return fails
