"""Finite complete subtrees: validation, taxonomy, embeddings, hit counts.

A finite subtree of the (q+1)-regular tree is *complete* when it is a
single vertex or every vertex has degree 1 or q+1.  Complete subtrees are
described abstractly by Shape objects (opaque vertex ids plus edges) and
concretely by EmbeddedSubtree placements into the word-encoded tree.  A
Shape is immutable, so it builds its adjacency (read-only sorted neighbour
tuples), its tree check, diameter, paths and internal vertices once, on
first use, and every function here reads them from it.

The taxonomy runs through the maximal proper complete subtrees: a complete
subtree of diameter > 2 with exactly k of them is k-headed, a 2-headed one
is a centipede, and diameter-2 stars count as 2-centipedes by decree.

The maximal proper complete subtrees have a closed form.  Let I be the
internal (full-degree) vertices.  A complete subtree with at least three
vertices is J + N(J) for a connected nonempty J inside I, and a connected
proper J that held every leaf of the tree I would be all of I.  So a star
(|I| = 1) has its edges, and any other shape has one maximal subtree
(I - {l}) + N(I - {l}) for each leaf l of I; the shape is a centipede
exactly when I is a path, and classify_shape counts the heads as the
leaves of I without building a subtree.  verify.brute_force_maximal_subtrees
searches every connected subset of I instead and is the oracle for this
closed form, in `verify groups` and in the tests.

least_embeddings places I alone, with place_tree, the one backtracking
search (the canonical sections of the witness module share it).  An
internal vertex has all q+1 neighbours in its image, so in a ball of
radius r it lies within r - 1; its leaves take the neighbours that I
does not use, and the leaves of distinct internal vertices take disjoint
words.  Each image is then found |Aut(I)| times rather than |Aut(s)|
times, and its least placement puts the sorted leaves of each internal
vertex on the sorted free neighbours of its image.  A median is a
full-degree vertex of an image exactly when it is in the image of I, so
a hit count needs no search: with u at the median, u takes deg u of its
q+1 neighbours and every other x in I takes deg x - 1 of the q left to
it (degrees in I).  So sum_u (q+1)_{deg u} prod_{x != u} (q)_{deg x - 1}
falling factorials count each image |Aut(I)| times, read off I hung from
its centre.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType
from typing import NamedTuple

from . import treecode
from .errors import (
    InvalidInput,
    InvalidShape,
    NotATree,
    NotCuspidalShape,
    TooSmall,
)
from .tree import (
    RayPrefix,
    Vertex,
    _adjacent,
    ball_words,
    check_word,
    median,
    word_distance,
    word_neighbors,
)


class _Structure(NamedTuple):
    """What a Shape computes about its graph, once, on first use."""

    adj: MappingProxyType  # vertex -> sorted tuple of its neighbours
    parent_of: dict  # hung from the first vertex (its component only)
    depth: dict  # edge distance from the first vertex
    diameter: int
    internal: tuple  # the full-degree vertices, sorted


@dataclass(frozen=True)
class Shape:
    """An abstract finite tree with branching parameter q.

    vertices are opaque string ids; edges are unordered id pairs.  Stored in
    canonical sorted order so equal shapes compare and hash equal.  The
    adjacency, the tree facts derived from it and the vertex index are built
    once, on first use, and are not part of equality, hashing or pickling.
    """

    q: int
    vertices: tuple
    edges: tuple  # tuple of sorted (a, b) id pairs

    def __init__(self, q, vertices, edges):
        if q < 2:
            raise ValueError(f"q must be >= 2, got {q}")
        vs = tuple(sorted(map(str, vertices)))
        known = set(vs)
        if len(known) != len(vs):
            raise ValueError("duplicate vertex ids")
        es = []
        for e in edges:
            a, b = map(str, e)
            if a == b:
                raise NotATree(f"self-loop at {a}")
            if a not in known or b not in known:
                raise ValueError(f"edge ({a}, {b}) references unknown vertex")
            es.append((a, b) if a < b else (b, a))
        es = tuple(sorted(set(es)))
        if len(es) != len(edges):
            raise NotATree("duplicate edges")
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "vertices", vs)
        object.__setattr__(self, "edges", es)

    def __getstate__(self):
        """The three fields alone, so a shape whose structure is built
        pickles to the bytes of a fresh one."""
        return {"q": self.q, "vertices": self.vertices, "edges": self.edges}

    @cached_property
    def index(self) -> MappingProxyType:
        """Read-only {vertex: its position in vertices}, built once."""
        return MappingProxyType({v: i for i, v in enumerate(self.vertices)})

    @cached_property
    def _structure(self) -> _Structure:
        adj = {v: [] for v in self.vertices}
        for a, b in self.edges:  # sorted edges append each list in order
            adj[a].append(b)
            adj[b].append(a)
        adj = MappingProxyType({v: tuple(ns) for v, ns in adj.items()})
        parent_of, depth, diam = {}, {}, 0
        if adj:  # two sweeps for the diameter, the first one kept for paths
            order, parent_of = treecode.bfs(adj, self.vertices[0])
            depth = {order[0]: 0}
            for u in order[1:]:
                depth[u] = depth[parent_of[u]] + 1
            diam = max(treecode.distances(adj, max(depth, key=depth.get)).values())
        internal = tuple(v for v, ns in adj.items() if len(ns) == self.q + 1)
        return _Structure(adj, parent_of, depth, diam, internal)

    # -- basic structure ----------------------------------------------------

    def adjacency(self) -> MappingProxyType:
        """Read-only {vertex: sorted tuple of neighbours}, built once."""
        return self._structure.adj

    def degree(self, v) -> int:
        return len(self._structure.adj[v])

    def check_tree(self):
        """Raise NotATree unless connected and acyclic."""
        if len(self.edges) != len(self.vertices) - 1:
            raise NotATree("edge count is not vertex count minus one")
        if len(self._structure.depth) != len(self.vertices):
            raise NotATree("graph is disconnected")

    def internal_vertices(self) -> tuple:
        return self._structure.internal

    def diameter(self) -> int:
        return self._structure.diameter

    def path(self, a, b) -> list:
        """The unique path between two vertices, endpoints included: both
        climb towards the first vertex until they meet."""
        t = self._structure
        up, down = [a], [b]
        while up[-1] != down[-1]:
            if t.depth[up[-1]] >= t.depth[down[-1]]:
                up.append(t.parent_of[up[-1]])
            else:
                down.append(t.parent_of[down[-1]])
        return up + down[-2::-1]

    def to_json(self) -> dict:
        return {
            "q": self.q,
            "vertices": list(self.vertices),
            "edges": [list(e) for e in self.edges],
        }

    @staticmethod
    def from_json(data: dict) -> "Shape":
        """Parse {q, vertices, edges}; malformed data raises InvalidInput."""
        try:
            return Shape(json_int(data["q"]), data["vertices"], data["edges"])
        except (KeyError, TypeError, ValueError) as exc:
            raise InvalidInput(f"bad shape JSON: {exc!r}") from None


def json_int(value) -> int:
    """int(value), but a float must be integral (not 2.5, inf or nan), so
    no JSON number is truncated; raises ValueError or TypeError."""
    if isinstance(value, float) and not value.is_integer():
        raise ValueError(f"not an integer: {value!r}")
    return int(value)


@dataclass(frozen=True)
class ShapeClass:
    """Taxonomy tag: vertex | edge | centipede(k) | multi_headed(h, diam)."""

    tag: str
    k: int = 0          # centipede diameter
    n_heads: int = 0    # multi_headed head count
    diam: int = 0       # multi_headed diameter

    def __post_init__(self):
        if self.tag == "centipede" and self.k < 2:
            raise ValueError("centipede needs k >= 2")
        if self.tag == "multi_headed" and (self.n_heads < 3 or self.diam < 3):
            raise ValueError("multi_headed needs >= 3 heads and diameter >= 3")


@dataclass(frozen=True)
class EmbeddedSubtree:
    """A concrete placement of a Shape into the word-encoded tree."""

    shape: Shape
    placement: tuple  # tuple of (vertex id, word) pairs, sorted by id

    def __init__(self, shape: Shape, placement):
        items = tuple(sorted((str(k), tuple(w)) for k, w in dict(placement).items()))
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "placement", items)
        self._validate()

    def _validate(self):
        q = self.shape.q
        pl = dict(self.placement)
        if set(pl) != set(self.shape.vertices):
            raise ValueError("placement does not cover the shape's vertices")
        words = list(pl.values())
        if len(set(words)) != len(words):
            raise ValueError("placement is not injective")
        for w in words:
            check_word(w, q)
        for a, b in self.shape.edges:
            if not _adjacent(pl[a], pl[b]):
                raise ValueError(f"edge ({a}, {b}) not mapped to adjacent words")

    def mapping(self) -> dict:
        return dict(self.placement)

    @cached_property
    def _image_words(self) -> frozenset:
        return frozenset(w for _, w in self.placement)

    def image_words(self) -> frozenset:
        """The placed words, built once, on first use."""
        return self._image_words


# -- completeness and taxonomy ----------------------------------------------


def validate_complete(s: Shape) -> bool:
    """True iff s is a single vertex or every degree is 1 or q+1."""
    s.check_tree()
    return len(s.vertices) == 1 or all(len(n) in (1, s.q + 1) for n in s.adjacency().values())


def _require_complete(s: Shape):
    if not validate_complete(s):
        raise InvalidShape("shape is not a complete subtree")


def _internal_leaves(s: Shape) -> list:
    """The leaves of the internal tree I(s): one neighbour inside I."""
    internal, adj = set(s.internal_vertices()), s.adjacency()
    return [x for x in s.internal_vertices() if sum(n in internal for n in adj[x]) == 1]


def maximal_proper_complete_subtrees(s: Shape) -> list:
    """All proper complete subtrees maximal under inclusion, as frozensets
    of vertex ids sorted by their sorted ids; see the module docstring."""
    _require_complete(s)
    if len(s.vertices) <= 2:
        raise TooSmall("vertex and edge shapes have no maximal proper complete subtrees")
    internal = set(s.internal_vertices())
    adj = s.adjacency()
    if len(internal) == 1:
        out = [frozenset(e) for e in s.edges]
    else:
        rests = [internal - {x} for x in _internal_leaves(s)]
        out = [frozenset(r.union(*(adj[v] for v in r))) for r in rests]
    return sorted(out, key=lambda fs: tuple(sorted(fs)))


def heads(s: Shape) -> list:
    """One head per maximal proper complete subtree S': the minimal subtree
    containing the vertices outside S'.  Defined only for diameter > 2."""
    _require_complete(s)
    if s.diameter() <= 2:
        raise TooSmall("heads are undefined for shapes of diameter <= 2")
    out = []
    for sub in maximal_proper_complete_subtrees(s):
        rest = sorted(set(s.vertices) - sub)
        out.append(frozenset().union(*(s.path(rest[0], v) for v in rest)))
    return sorted(out, key=lambda fs: tuple(sorted(fs)))


def classify_shape(s: Shape) -> ShapeClass:
    """vertex | edge | centipede(diam) for diameter 2 or two-headed shapes |
    multi_headed(h, diam) otherwise."""
    _require_complete(s)
    if len(s.vertices) == 1:
        return ShapeClass("vertex")
    if len(s.vertices) == 2:
        return ShapeClass("edge")
    diam = s.diameter()
    if diam == 2:
        return ShapeClass("centipede", k=2)
    h = len(_internal_leaves(s))  # one head per maximal subtree
    if h == 2:
        return ShapeClass("centipede", k=diam)
    return ShapeClass("multi_headed", n_heads=h, diam=diam)


# -- embeddings into the word tree -------------------------------------------


def place_tree(order, parent_of, roots, host_nbrs, visit) -> None:
    """Backtracking search over the injective placements of a tree into a
    host graph that map edges to edges.

    order and parent_of are a breadth-first order of the tree and each
    vertex's parent (treecode.bfs); order[0] goes to each of roots in turn
    and every later vertex to an unused host neighbour of its parent's
    image, host_nbrs(w) listing those of w.  visit(placed) receives each
    complete placement as a list aligned with order; the list is reused,
    so copy what you keep.
    """
    n = len(order)
    pos = {v: i for i, v in enumerate(order)}
    anchor = [None] + [pos[parent_of[v]] for v in order[1:]]
    placed = [None] * n
    used = set()

    def extend(i):
        if i == n:
            visit(placed)
            return
        for w in host_nbrs(placed[anchor[i]]):
            if w not in used:
                placed[i] = w
                used.add(w)
                extend(i + 1)
                used.discard(w)

    for w0 in roots:
        placed[0] = w0
        used.add(w0)
        extend(1)
        used.discard(w0)


def enumerate_embeddings(s: Shape, anchor: Vertex, radius: int) -> list:
    """All placements of s inside the ball around anchor, one per vertex-set
    image, sorted by the sorted image words.  Each is the least placement
    of its image as a tuple over the sorted vertex ids; see the module
    docstring for how they are found."""
    _require_complete(s)
    ball = ball_words(anchor.word, radius, s.q)
    if s.internal_vertices():  # each internal vertex needs its q+1 neighbours in the ball
        ball = [w for w in ball if word_distance(w, anchor.word) < radius]
    return least_embeddings(s, ball)


def least_embeddings(s: Shape, host) -> list:
    """The embeddings, as enumerate_embeddings lists them, whose core (the
    internal vertices, or every vertex of a vertex or an edge) lies in the
    host words: given the core's image, the one embedding with it."""
    _require_complete(s)
    q = s.q
    adj = s.adjacency()
    core = set(s.internal_vertices()) or set(s.vertices)
    inside = set(host)
    nbrs = {w: word_neighbors(w, q) for w in host}
    host_nbrs = {w: [x for x in ns if x in inside] for w, ns in nbrs.items()}
    order, parent_of = treecode.bfs({u: [n for n in adj[u] if n in core] for u in core}, min(core))
    cols = [(s.index[u], [s.index[x] for x in adj[u] if x not in core]) for u in order]
    best = {}

    def keep_least(placed):
        key = frozenset(placed)
        cand = [None] * len(s.vertices)
        for (c, leaf_cols), w in zip(cols, placed):
            cand[c] = w
            free = [x for x in nbrs[w] if x not in key]
            for lc, x in zip(leaf_cols, free):
                cand[lc] = x
        cand = tuple(cand)
        best[key] = min(best.get(key, cand), cand)

    place_tree(order, parent_of, host, host_nbrs.__getitem__, keep_least)
    return [EmbeddedSubtree(s, dict(zip(s.vertices, c))) for c in sorted(best.values(), key=sorted)]


def hits(e: EmbeddedSubtree, g0: RayPrefix, g1: RayPrefix, g2: RayPrefix) -> bool:
    """True iff the median of the triple is a full-degree vertex of the
    embedded image, i.e. the subtree passes through the median."""
    m = median(g0, g1, g2).word
    pl = e.mapping()
    return sum(m in (pl[a], pl[b]) for a, b in e.shape.edges) == e.shape.q + 1


def count_hitting(s: Shape, g0: RayPrefix, g1: RayPrefix, g2: RayPrefix) -> int:
    """Number of unlabeled embeddings of s whose image passes through the
    median of the triple at a full-degree vertex, in closed form (see the
    module docstring): the same for every triple."""
    cls = classify_shape(s)
    if cls.tag in ("vertex", "edge"):
        raise NotCuspidalShape(f"hit counts need diameter >= 2, got a {cls.tag}")
    median(g0, g1, g2)  # the triple must still have a median
    internal = set(s.internal_vertices())
    adj_i = {u: [n for n in ns if n in internal] for u, ns in s.adjacency().items() if u in internal}
    deg = {u: len(ns) for u, ns in adj_i.items()}
    placements = sum(math.perm(s.q + 1, deg[u]) * math.prod(
        math.perm(s.q, deg[x] - 1) for x in deg if x != u) for u in deg)
    images, rest = divmod(placements, treecode.aut_order(adj_i))
    assert rest == 0, "each image of I(s) is placed |Aut(I)| times"
    return images


# -- canonical shape builders -------------------------------------------------


def vertex_shape(q: int) -> Shape:
    return Shape(q, ["v0"], [])


def edge_shape(q: int) -> Shape:
    return Shape(q, ["v0", "v1"], [["v0", "v1"]])


def complete_shape_from_internal(q: int, internal_vertices, internal_edges) -> Shape:
    """Fill every internal vertex up to degree q+1 with fresh leaves."""
    vs = [str(v) for v in internal_vertices]
    es = [tuple(sorted((str(a), str(b)))) for a, b in internal_edges]
    deg = {v: 0 for v in vs}
    for a, b in es:
        deg[a] += 1
        deg[b] += 1
    out_vs = list(vs)
    out_es = list(es)
    for v in vs:
        if deg[v] > q + 1:
            raise InvalidShape(f"internal vertex {v} has degree {deg[v]} > q+1")
        for i in range(q + 1 - deg[v]):
            leaf = f"{v}.L{i}"
            out_vs.append(leaf)
            out_es.append((v, leaf))
    return Shape(q, out_vs, out_es)


def star_shape(q: int) -> Shape:
    """The diameter-2 complete subtree: one center, q+1 leaves."""
    return complete_shape_from_internal(q, ["c"], [])


def centipede_shape(q: int, k: int) -> Shape:
    """The k-centipede: internal spine of k-1 vertices, diameter k (k >= 2)."""
    if k < 2:
        raise ValueError("centipedes need k >= 2")
    spine = [f"s{i}" for i in range(k - 1)]
    edges = [(spine[i], spine[i + 1]) for i in range(k - 2)]
    return complete_shape_from_internal(q, spine, edges)


def y_shape(q: int) -> Shape:
    """Three-headed shape of diameter 4: an internal star with 3 branches."""
    if q < 2:
        raise ValueError("q must be >= 2")
    internal = ["c", "b0", "b1", "b2"]
    edges = [("c", "b0"), ("c", "b1"), ("c", "b2")]
    return complete_shape_from_internal(q, internal, edges)
