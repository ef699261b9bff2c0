"""Finite permutation groups on shape vertices.

A group is stored as one (|G|, n) array of small unsigned ints whose row i
is the image tuple of its i-th element, in breadth-first discovery order
from the generators.  Each row has a key that sorts like its image tuple
(its int64 radix-n code for n <= 15, else its bytes), so a sorted key
index maps any array of group elements back to element indices with one
searchsorted.  The heavy operations are numpy gathers on that array:

* closure multiplies a whole breadth-first layer by every generator at
  once and keeps the first discovery of each new row;
* conjugacy_classes conjugates every element by each generator, looks the
  results up in the key index and propagates the least label along those
  index maps until each class carries one label;
* stabilizers are row masks.

The Permutation objects of `elements` are a view of the rows for the API
and the tests; a user-built Permutation is checked to be a bijection, and
products, inverses and group rows skip that check.  Aut(S) of the shapes
in this library has order at most a few tens of thousands, and a
GroupTooLarge guard keeps that honest.

shape_automorphism_group computes Aut(S) of a finite tree from the rooted
subtree codes of `treecode`, hung from the tree centre: sibling subtrees
with equal codes yield swap generators, and an isomorphic centre-edge
split yields the flip.  The result is verified against a brute-force
search in the tests and in `verify groups`.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from . import treecode
from .errors import GroupTooLarge, NotASubgroup
from .shapes import Shape

DEFAULT_ORDER_BOUND = 10**6
_AUT_CACHE_SIZE = 128
_RADIX_MAX_DEGREE = 15  # 15^15 < 2^63 < 16^16


@dataclass(frozen=True, order=True)
class Permutation:
    """A bijection of 0..n-1, stored as the image tuple."""

    mapping: tuple

    @staticmethod
    def identity(n: int) -> "Permutation":
        return Permutation._trusted(tuple(range(n)))

    @staticmethod
    def from_dict(n: int, moves: dict) -> "Permutation":
        images = list(range(n))
        for a, b in moves.items():
            images[a] = b
        return Permutation(tuple(images))

    @classmethod
    def _trusted(cls, mapping: tuple) -> "Permutation":
        """A Permutation built without the bijection check, for images
        that are bijections by construction (products, inverses, rows of
        an enumerated group)."""
        p = object.__new__(cls)
        object.__setattr__(p, "mapping", mapping)
        return p

    def __post_init__(self):
        n = len(self.mapping)
        if sorted(self.mapping) != list(range(n)):
            raise ValueError(f"not a bijection of 0..{n - 1}: {self.mapping}")

    @property
    def degree(self) -> int:
        return len(self.mapping)

    def __call__(self, i: int) -> int:
        return self.mapping[i]

    def __mul__(self, other: "Permutation") -> "Permutation":
        """Composition: (p * q)(x) = p(q(x))."""
        return Permutation._trusted(tuple(map(self.mapping.__getitem__, other.mapping)))

    def inverse(self) -> "Permutation":
        inv = [0] * self.degree
        for i, v in enumerate(self.mapping):
            inv[v] = i
        return Permutation._trusted(tuple(inv))

    def is_identity(self) -> bool:
        return all(v == i for i, v in enumerate(self.mapping))

    def order(self) -> int:
        k, p = 1, self
        while not p.is_identity():
            p = p * self
            k += 1
        return k

    def __repr__(self):
        return f"Perm{list(self.mapping)}"


def _keys(rows: np.ndarray) -> np.ndarray:
    """One key per row of a 2-d row array, sorting like the image tuples:
    the int64 radix-n code of the row while n^n < 2^63, else its bytes."""
    rows = np.ascontiguousarray(rows)
    n = rows.shape[1]
    if n <= _RADIX_MAX_DEGREE:
        return rows @ n ** np.arange(n - 1, -1, -1, dtype=np.int64)
    return rows.view(np.dtype((np.void, rows.itemsize * n))).ravel()


@dataclass(frozen=True)
class PermGroup:
    """A fully enumerated permutation group.  `array` row i is the image
    tuple of `elements[i]`, in deterministic (breadth-first discovery)
    order."""

    degree: int
    generators: tuple
    elements: tuple
    element_set: frozenset = field(repr=False, compare=False)
    array: np.ndarray = field(repr=False, compare=False)

    def __post_init__(self):
        self.array.flags.writeable = False
        # equal groups have equal arrays; hashing the bytes is cheaper than
        # hashing every Permutation of `elements`
        object.__setattr__(self, "_hash", hash((self.degree, self.array.tobytes())))

    def __hash__(self):
        return self._hash

    @property
    def order(self) -> int:
        return len(self.elements)

    def __contains__(self, p: Permutation) -> bool:
        return p in self.element_set

    def identity(self) -> Permutation:
        return Permutation.identity(self.degree)

    def key(self) -> frozenset:
        return self.element_set

    def _row_index(self):
        """(sorted row keys, element index of each sorted key), built once."""
        if not hasattr(self, "_index"):
            keys = _keys(self.array)
            order = np.argsort(keys, kind="stable")
            object.__setattr__(self, "_index", (keys[order], order))
        return self._index

    def indices(self, rows) -> np.ndarray:
        """Element index of each row of a (m, degree) array, -1 for a row
        that is not an element."""
        keys, order = self._row_index()
        want = _keys(np.asarray(rows, dtype=self.array.dtype).reshape(-1, self.degree))
        pos = np.minimum(np.searchsorted(keys, want), len(keys) - 1)
        return np.where(keys[pos] == want, order[pos], -1)


def _group(degree: int, rows: np.ndarray, generators: tuple | None = None) -> PermGroup:
    """The group with these element rows; without generators, every
    element is its own generator."""
    elements = tuple(map(Permutation._trusted, map(tuple, rows.tolist())))
    gens = elements if generators is None else generators
    return PermGroup(degree, gens, elements, frozenset(elements), rows)


def closure(gens, degree: int | None = None, bound: int = DEFAULT_ORDER_BOUND) -> PermGroup:
    """Breadth-first closure of the generators.  Raises GroupTooLarge when
    the enumeration exceeds bound elements.

    Each round multiplies the last layer by every generator and appends
    the products not seen before, in (layer element, generator) order:
    the order of the one-at-a-time breadth-first search."""
    gens = sorted(set(gens))
    if degree is None:
        if not gens:
            raise ValueError("degree required for an empty generating set")
        degree = gens[0].degree
    if any(g.degree != degree for g in gens):
        raise ValueError("generators act on different index sets")
    # unsigned and big-endian, so that the bytes of a row sort like its images
    dtype = np.dtype(np.uint8) if degree <= 256 else np.dtype(">u4")
    gen_rows = np.array([g.mapping for g in gens], dtype=dtype).reshape(len(gens), degree)
    frontier = np.arange(degree, dtype=dtype)[None, :]
    layers = [frontier]
    seen = _keys(frontier)
    while len(frontier) and len(gens):
        # row p * len(gens) + j is gens[j] * frontier[p]
        cand = gen_rows[:, frontier].transpose(1, 0, 2).reshape(-1, degree)
        keys = _keys(cand)
        _, first = np.unique(np.concatenate([seen, keys]), return_index=True)
        new = np.sort(first[first >= len(seen)]) - len(seen)
        if len(seen) + len(new) > bound:
            raise GroupTooLarge(f"closure exceeded bound {bound}")
        frontier = cand[new]
        layers.append(frontier)
        seen = np.concatenate([seen, keys[new]])
    return _group(degree, np.concatenate(layers), tuple(gens))


def _class_labels(G: PermGroup) -> np.ndarray:
    """One label per element, shared exactly by the elements of a
    conjugacy class: the least label is propagated along conjugation by
    each generator (both ways) with pointer jumping until it is stable."""
    E = G.array
    maps = []
    for g in G.generators:
        image = np.array(g.mapping)
        conj = G.indices(image[E[:, np.argsort(image)]])  # row x: g x g^-1
        maps += [conj, np.argsort(conj)]
    label = np.arange(G.order)
    while True:
        new = label
        for m in maps:
            new = np.minimum(new, new[m])
        new = new[new]
        if np.array_equal(new, label):
            return label
        label = new


def conjugacy_classes(G: PermGroup) -> list:
    """Conjugation orbits, each a tuple of elements, sorted by (size,
    minimal element); elements within a class in sorted order."""
    _, cls, sizes = np.unique(_class_labels(G), return_inverse=True, return_counts=True)
    lex = G._row_index()[1]  # element indices in sorted (lexicographic) order
    cls_lex = cls[lex]
    _, least = np.unique(cls_lex, return_index=True)  # lex rank of each class's least element
    order = np.lexsort((least, sizes))
    rank = np.empty(len(sizes), dtype=np.intp)
    rank[order] = np.arange(len(sizes))
    grouped = lex[np.argsort(rank[cls_lex], kind="stable")]
    elements = G.elements
    return [
        tuple(elements[i] for i in part)
        for part in np.split(grouped, np.cumsum(sizes[order])[:-1])
    ]


def class_ids(G: PermGroup, classes) -> np.ndarray:
    """Position in `classes` of the class of each element of G."""
    rows = np.array([p.mapping for c in classes for p in c], dtype=G.array.dtype)
    ids = np.empty(G.order, dtype=np.intp)
    ids[G.indices(rows)] = np.repeat(np.arange(len(classes)), [len(c) for c in classes])
    return ids


def pointwise_stabilizer(G: PermGroup, points) -> PermGroup:
    """Subgroup of elements fixing every given point."""
    pts = np.array(sorted(points), dtype=np.intp)
    return _group(G.degree, G.array[(G.array[:, pts] == pts).all(axis=1)])


def setwise_stabilizer(G: PermGroup, points) -> PermGroup:
    """Subgroup of elements mapping the given point set onto itself."""
    pts = np.array(sorted(set(points)), dtype=np.intp)
    return _group(G.degree, G.array[np.isin(G.array[:, pts], pts).all(axis=1)])


def check_subgroup(G: PermGroup, H: PermGroup) -> None:
    if H.degree != G.degree or (G.indices(H.array) < 0).any():
        raise NotASubgroup("H is not contained in G")


def all_subgroups(G: PermGroup) -> list:
    """Every subgroup, by closing known subgroups under extra generators.
    Exponential in principle; fine for the small groups used here."""
    triv = _group(G.degree, np.arange(G.degree, dtype=G.array.dtype)[None, :])
    known = {triv.key(): triv}
    frontier = [triv]
    while frontier:
        nxt = []
        for H in frontier:
            for g in G.elements:
                if g in H.element_set:
                    continue
                K = closure(tuple(set(H.generators) | {g}), degree=G.degree)
                if K.key() not in known:
                    known[K.key()] = K
                    nxt.append(K)
        frontier = nxt
    return sorted(known.values(), key=lambda H: (H.order, tuple(H.elements)))


# -- tree automorphism groups -------------------------------------------------


def _map_subtrees(adj, code, a, pa, b, pb, moves):
    """Extend moves with the canonical isomorphism subtree(a) -> subtree(b),
    children matched in (code, id) order."""
    moves[a] = b
    kids_a = sorted((n for n in adj[a] if n != pa), key=lambda n: (code[n], n))
    kids_b = sorted((n for n in adj[b] if n != pb), key=lambda n: (code[n], n))
    for ka, kb in zip(kids_a, kids_b):
        _map_subtrees(adj, code, ka, a, kb, b, moves)


def shape_automorphism_group(s: Shape, bound: int = DEFAULT_ORDER_BOUND) -> PermGroup:
    """Aut(s) as a permutation group on the sorted vertex ids of s; bound
    caps its order.  Cached per (s, bound), with the default bound and an
    explicit one sharing an entry."""
    return _automorphism_group(s, int(bound))


@functools.lru_cache(maxsize=_AUT_CACHE_SIZE)
def _automorphism_group(s: Shape, bound: int) -> PermGroup:
    s.check_tree()
    ids = list(s.vertices)
    index = {v: i for i, v in enumerate(ids)}
    n = len(ids)
    adj = s.adjacency()
    if n == 1:
        return closure([], degree=1, bound=bound)

    center = treecode.center(adj)
    # the tree hung from its centre: one root, or both ends of the centre edge
    halves = [(center[0], None)] if len(center) == 1 else [tuple(center), tuple(center[::-1])]
    code = {}
    for root, parent in halves:
        code.update(treecode.rooted_codes(adj, root, parent))
    gens = []

    def swap_gen(x, px, y, py):
        """The involution exchanging the subtrees at x and y."""
        moves = {}
        _map_subtrees(adj, code, x, px, y, py, moves)
        moves.update({b: a for a, b in moves.items()})
        gens.append(Permutation.from_dict(n, {index[a]: index[b] for a, b in moves.items()}))

    for root, parent in halves:
        order, parent_of = treecode.bfs(adj, root, parent)
        for u in order:
            kids = sorted((v for v in adj[u] if v != parent_of[u]), key=lambda v: (code[v], v))
            for x, y in zip(kids, kids[1:]):
                if code[x] == code[y]:
                    swap_gen(x, u, y, u)
    if len(center) == 2 and code[center[0]] == code[center[1]]:
        a, b = center
        swap_gen(a, b, b, a)

    return closure(gens, degree=n, bound=bound)


shape_automorphism_group.cache_info = _automorphism_group.cache_info
shape_automorphism_group.cache_clear = _automorphism_group.cache_clear
