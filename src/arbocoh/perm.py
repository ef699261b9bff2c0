"""Finite permutation groups on shape vertices.

A group is stored as one (|G|, n) array of small unsigned ints whose row i
is the image tuple of its i-th element, in breadth-first discovery order
from the generators.  Each row has a key that sorts like its image tuple
(its int64 radix-n code for n <= 15, else its bytes), so a sorted key
index maps any array of permutations back to element indices with one
searchsorted: membership and inverses go through it.  Products
do not: closure keeps where each product of a generator and an element
landed, the Cayley table, and right multiplication is a gather down its
breadth-first tree (Seress, Permutation Group Algorithms, 2003, ch. 4).
The heavy operations are numpy gathers:

* closure multiplies a whole breadth-first layer by every generator at
  once, looks the products up among the sorted keys seen so far and
  merges the new ones in, keeping the first discovery of each new row;
* conjugacy_classes conjugates every element by each generator through
  the Cayley table and propagates the least element index along those
  index maps, one gather per map and round, until each class carries it
  as one label, then numbers the classes with a scatter, a bincount and
  one minimum over the lexicographic ranks, with no sort of the |G|
  labels;
* a subgroup is a read-only boolean mask over the elements, in element
  order: pointwise_stabilizer, setwise_stabilizer and all_subgroups
  return masks, and the character theory counts and sums what a mask
  selects, so no subgroup row is looked up by key.

A group holds no Permutation per element.  Permutation stays the type of
user input and generators; a user-built one is checked to be a bijection,
and products and inverses skip that check.  Enumeration stops with
GroupTooLarge past DEFAULT_ORDER_BOUND = 10^6 elements.

shape_automorphism_group generates Aut(S) by the swaps of each run of
equal sibling subtrees and the centre flip of `treecode.hang`, the tree
hung from its centre; `treecode.order_of_runs` reads |Aut(S)| off the
same runs, so an order over the bound raises GroupTooLarge before any
element is enumerated.  The generators and the order are cached per
shape, so a shape is hung once for its build and for
`automorphism_order`.  Both are verified against a brute-force search in
the tests and in `verify groups`.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from . import treecode
from .errors import GroupTooLarge
from .shapes import Shape

DEFAULT_ORDER_BOUND = 10**6
SUBGROUP_SEARCH_MAX_ORDER = 120  # all_subgroups refuses larger groups
_AUT_CACHE_SIZE = 128
_SUBGROUP_CACHE_SIZE = 16
_RADIX_MAX_DEGREE = 15  # 15^15 < 2^63 < 16^16
_GATHER_CAP = 2**14  # right multiples gathered at once, in entries


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


@dataclass(frozen=True, eq=False)
class PermGroup:
    """A fully enumerated permutation group, equal to another with the same
    degree and array.  `array` row i is the image tuple of element i, in
    deterministic (breadth-first discovery) order.

    `cayley` is the Cayley table of the closure, read-only int32 of shape
    (m + 2, |G|) for m generators: row j < m holds the element index of
    generators[j] * x at column x; rows m and m + 1 hold the parent p and
    the generator j that discovered x, x = generators[j] * p (0 and 0 for
    the identity).  Parents never decrease along the element order, so
    they also mark where each breadth-first layer ends."""

    degree: int
    generators: tuple
    array: np.ndarray = field(repr=False)
    cayley: np.ndarray = field(repr=False)

    def __post_init__(self):
        self.array.flags.writeable = False
        self.cayley.flags.writeable = False

    def __eq__(self, other):
        return (
            isinstance(other, PermGroup)
            and self.degree == other.degree
            and np.array_equal(self.array, other.array)
        )

    def __hash__(self):
        if not hasattr(self, "_hash"):
            object.__setattr__(self, "_hash", hash((self.degree, self.array.tobytes())))
        return self._hash

    @property
    def order(self) -> int:
        return len(self.array)

    @functools.cached_property
    def elements(self) -> tuple:
        """The rows as Permutations, in element order: a view for the API
        and the tests, built on first use."""
        return tuple(map(Permutation._trusted, map(tuple, self.array.tolist())))

    def __contains__(self, p: Permutation) -> bool:
        return p.degree == self.degree and self.indices([p.mapping])[0] >= 0

    def index(self, p: Permutation) -> int:
        """Element index of p; KeyError when p is not an element."""
        i = int(self.indices([p.mapping])[0]) if p.degree == self.degree else -1
        if i < 0:
            raise KeyError(p)
        return i

    def identity(self) -> Permutation:
        return Permutation.identity(self.degree)

    def _row_index(self):
        """(sorted row keys, element index of each sorted key): a closure's
        own, else built once."""
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

    def right_multiples(self, zs) -> np.ndarray:
        """out[x, i] = element index of x * zs[i], for element indices zs,
        read down the Cayley table one breadth-first layer at a time: the
        identity's row is zs, and x = g * p gives x * z = g * (p * z).
        int32, shape (|G|, len(zs))."""
        m = len(self.generators)
        parent = self.cayley[m]
        # g_j * y is entry j * |G| + y of the flattened table
        at = (self.cayley[m + 1].astype(np.intp) * self.order)[:, None]
        left = self.cayley[:m].ravel()
        out = np.empty((self.order, len(zs)), dtype=np.int32)
        out[0] = zs
        ends = self._layer_ends
        for start, end in zip(ends, ends[1:]):
            out[start:end] = left.take(at[start:end] + out[parent[start:end]])
        return out

    def right_multiple_columns(self, zs):
        """The columns of right_multiples(zs) one at a time, gathered in
        chunks of at most _GATHER_CAP entries, so that a large group holds
        one column of |G| entries at a time and a small one pays for one
        pass down its table."""
        step = max(1, _GATHER_CAP // self.order)
        for start in range(0, len(zs), step):
            yield from self.right_multiples(zs[start : start + step]).T

    @functools.cached_property
    def _layer_ends(self) -> tuple:
        """Where each breadth-first layer ends, the identity's first: the
        parents of the next layer are the elements of this one."""
        parent = self.cayley[len(self.generators)]
        ends = [1]
        while ends[-1] < self.order:
            ends.append(int(parent.searchsorted(ends[-1])))
        return tuple(ends)


def closure(gens, degree: int | None = None, bound: int = DEFAULT_ORDER_BOUND) -> PermGroup:
    """Breadth-first closure of the generators, with its Cayley table.
    Raises GroupTooLarge when the enumeration exceeds bound elements.

    Each round multiplies the last layer by every generator and appends
    the products not seen before, in (layer element, generator) order:
    the order of the one-at-a-time breadth-first search.  A round sorts
    the keys of its products, looks the distinct ones up among the sorted
    keys seen so far with one searchsorted and merges the new ones in;
    where each product landed is kept as the Cayley table (see
    PermGroup), and the sorted keys become the group's key index."""
    gens = sorted(set(gens))
    if degree is None:
        if not gens:
            raise ValueError("degree required for an empty generating set")
        degree = gens[0].degree
    if any(g.degree != degree for g in gens):
        raise ValueError("generators act on different index sets")
    m = len(gens)
    # unsigned and big-endian, so that the bytes of a row sort like its images
    dtype = np.dtype(np.uint8) if degree <= 256 else np.dtype(">u4")
    gen_rows = np.array([g.mapping for g in gens], dtype=dtype).reshape(m, degree)
    frontier = np.arange(degree, dtype=dtype)[None, :]
    # per layer: its rows, the element index of every product, and
    # p * m + j for each new element gens[j] * p (0 for the identity)
    layers, products, found = [frontier], [], [np.zeros(1, dtype=np.intp)]
    # the keys seen so far, sorted, and the element index of each
    sorted_keys, index, n = _keys(frontier), np.zeros(1, dtype=np.int32), 1
    while m:
        # row p * m + j is gens[j] * frontier[p]
        cand = gen_rows[:, frontier].transpose(1, 0, 2).reshape(-1, degree)
        keys = _keys(cand)
        by_key = keys.argsort(kind="stable")  # equal keys in candidate order
        keys = keys[by_key]
        head = np.concatenate([[True], keys[1:] != keys[:-1]])  # first of each key
        distinct, first = keys[head], by_key[head]
        pos = np.minimum(sorted_keys.searchsorted(distinct), n - 1)  # sorted queries: one pass
        at = index[pos]  # the element index of each distinct product
        fresh = np.flatnonzero(sorted_keys[pos] != distinct)
        if n + len(fresh) > bound:
            raise GroupTooLarge(f"closure exceeded bound {bound}")
        born = first[fresh].argsort()  # fresh products in discovery order
        at[fresh[born]] = np.arange(n, n + len(fresh))
        product = np.empty(len(keys), dtype=np.int32)
        product[by_key] = at[head.cumsum() - 1]
        products.append(product)
        if not len(fresh):
            break
        merged = np.concatenate([sorted_keys, distinct[fresh]])
        order = merged.argsort(kind="stable")  # a merge of two sorted runs
        sorted_keys, index = merged[order], np.concatenate([index, at[fresh]])[order]
        new = first[fresh][born]
        found.append(new + (n - len(frontier)) * m)
        frontier = cand[new]
        layers.append(frontier)
        n += len(new)
    cayley = np.empty((m + 2, n), dtype=np.int32)
    start = 0
    for product in products:
        cayley[:m, start : start + len(product) // m] = product.reshape(-1, m).T
        start += len(product) // m
    # (a group with no generators is the identity alone)
    cayley[m], cayley[m + 1] = np.divmod(np.concatenate(found), max(m, 1))
    G = PermGroup(degree, tuple(gens), np.concatenate(layers), cayley)
    object.__setattr__(G, "_index", (sorted_keys, index))
    return G


def _class_labels(G: PermGroup) -> np.ndarray:
    """One label per element: the least element index of its conjugacy
    class, propagated along conjugation by each generator with pointer
    jumping until it is stable.  Conjugation by g_j is x -> (g_j x) g_j^-1:
    row j of the Cayley table, then the right multiples of g_j^-1.  Each
    map takes one gather per round: the loop stops only when no gather
    lowers a label, and a gather along a permutation then reaches its
    whole cycle.  An involution (g_j g_j = 1, read off its row; every
    generator of Aut(S) is one) is its own inverse, element cayley[j, 0],
    so only the inverses of the other generators are looked up by key."""
    m = len(G.generators)
    gens = np.array([g.mapping for g in G.generators], dtype=np.intp).reshape(m, G.degree)
    involution = (np.take_along_axis(gens, gens, axis=1) == np.arange(G.degree)).all(axis=1)
    inverses = G.cayley[:m, 0].copy()  # g_j * identity
    if not involution.all():
        inverses[~involution] = G.indices(np.argsort(gens[~involution], axis=1))
    maps = [right[G.cayley[j]] for j, right in enumerate(G.right_multiple_columns(inverses))]
    label = np.arange(G.order)
    while True:
        new = label
        for c in maps:
            new = np.minimum(new, new[c])
        new = new[new]
        if np.array_equal(new, label):
            return label
        label = new


def _least_ranks(G: PermGroup, ids: np.ndarray) -> np.ndarray:
    """The lexicographic rank (position among the sorted image tuples) of
    the least element of each class, given each element's class id, the
    ids 0 .. k - 1 all in use: one minimum scattered over the ranks."""
    lex = G._row_index()[1]  # element indices in sorted (lexicographic) order
    least = np.full(int(ids.max()) + 1, G.order, dtype=np.intp)
    np.minimum.at(least, ids[lex], np.arange(G.order))
    return least


def conjugacy_classes(G: PermGroup) -> np.ndarray:
    """The class id of each element, read-only: classes are numbered by
    (size, least element), comparing elements by their image tuples.  A
    class label is the class's least element index, so the elements that
    label themselves are one per class: a scatter numbers the classes in
    their order, a bincount gives the sizes and _least_ranks the least
    elements, and only the k classes are sorted."""
    label = _class_labels(G)
    roots = np.flatnonzero(label == np.arange(G.order))
    slot = np.empty(G.order, dtype=np.intp)
    slot[roots] = np.arange(len(roots))
    cls = slot[label]
    least = _least_ranks(G, cls)
    rank = np.empty(len(roots), dtype=np.intp)
    rank[np.lexsort((least, np.bincount(cls)))] = np.arange(len(roots))
    ids = rank[cls]
    ids.flags.writeable = False
    return ids


def _frozen(mask: np.ndarray) -> np.ndarray:
    """The mask, made read-only."""
    mask.flags.writeable = False
    return mask


def pointwise_stabilizer(G: PermGroup, points) -> np.ndarray:
    """The subgroup of elements fixing every given point, as a read-only
    mask over the elements."""
    pts = np.array(sorted(points), dtype=np.intp)
    return _frozen((G.array[:, pts] == pts).all(axis=1))


def setwise_stabilizer(G: PermGroup, points) -> np.ndarray:
    """The subgroup of elements mapping the given point set onto itself,
    as a read-only mask over the elements."""
    pts = np.array(sorted(set(points)), dtype=np.intp)
    return _frozen(np.isin(G.array[:, pts], pts).all(axis=1))


def all_subgroups(G: PermGroup) -> list:
    """Every subgroup as a read-only mask over the elements, the list
    sorted by (order, sorted rows).  The lattice is enumerated once per
    group and cached; each call returns a fresh list of the same masks."""
    return list(_subgroup_lattice(G))


@functools.lru_cache(maxsize=_SUBGROUP_CACHE_SIZE)
def _subgroup_lattice(G: PermGroup) -> tuple:
    """The subgroup masks of all_subgroups, by cyclic extension (Neubüser,
    Numer. Math. 2, 1960; Holt, Eick and O'Brien, Handbook of Computational
    Group Theory, 2005): each cyclic subgroup is listed once, and each known
    subgroup H, from the trivial group up, is joined with one cyclic
    subgroup per double coset HgH outside H, since
    <H, g> = <H, h g h'> = <H, <g>>.  The search runs on masks over the
    multiplication table in sorted row order, and a join is the product
    closure of their union.  The search is exponential, so it refuses
    orders above SUBGROUP_SEARCH_MAX_ORDER."""
    n = G.order
    if n > SUBGROUP_SEARCH_MAX_ORDER:
        raise GroupTooLarge(f"subgroup search refused at order {n} > {SUBGROUP_SEARCH_MAX_ORDER}")
    lex = G._row_index()[1]  # element indices in sorted row order; the identity first
    rank = np.argsort(lex)  # the sorted position of each element
    mult = rank[G.right_multiples(lex)[lex]]  # sorted position of a * b

    def closed(mask):
        """The subgroup generated by a fresh mask of elements: its product
        closure, grown in place."""
        while True:
            inside = np.flatnonzero(mask)
            mask[mult[np.ix_(inside, inside)]] = True
            if mask.sum() == len(inside):
                return mask

    # cyclic[g] masks <g>: the powers g, g^2, ... of every g at once, until
    # each has come back to the identity
    cyclic = np.zeros((n, n), dtype=bool)
    cyclic[:, 0] = True
    power, every = np.arange(n), np.arange(n)
    while power.any():
        cyclic[every, power] = True
        power = mult[power, every]
    ids = {}
    cyclic_id = [ids.setdefault(c.tobytes(), len(ids)) for c in cyclic]

    def joins(H):
        """<H, C> for one cyclic C per double coset HgH outside H."""
        inside = np.flatnonzero(H)
        met, joined = H.copy(), set()
        while not met.all():
            g = int(np.argmin(met))  # the first element outside every double coset met
            met[mult[np.ix_(mult[inside, g], inside)]] = True
            if cyclic_id[g] not in joined:
                joined.add(cyclic_id[g])
                yield closed(H | cyclic[g])

    trivial = cyclic[0]
    known = {trivial.tobytes(): trivial}
    frontier = [trivial]
    while frontier:
        grown = (K for H in frontier for K in joins(H))
        frontier = [known.setdefault(K.tobytes(), K) for K in grown if K.tobytes() not in known]
    subgroups = sorted(known.values(), key=lambda K: (K.sum(), np.flatnonzero(K).tolist()))
    return tuple(_frozen(K[rank]) for K in subgroups)


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
    gens, order = _aut_generators(s)
    if order > bound:
        raise GroupTooLarge(f"|Aut(S)| = {order} exceeds bound {bound}")
    return closure(gens, degree=len(s.vertices), bound=bound)


def automorphism_order(s: Shape) -> int:
    """|Aut(s)|, read off the same cached hang as the Aut(s) generators,
    with no element enumerated."""
    return _aut_generators(s)[1]


@functools.lru_cache(maxsize=_AUT_CACHE_SIZE)
def _aut_generators(s: Shape) -> tuple:
    """Generators of Aut(s) on the sorted vertex ids, read off the tree
    hung from its centre: one swap per consecutive pair in each run of
    equal sibling subtrees, then the centre flip; and |Aut(s)|.  Cached
    per shape, so one cold shape is hung once."""
    adj = s.adjacency()
    c, code, runs, flips = treecode.hang(adj)

    def swap(x, px, y, py):
        """The involution exchanging the subtrees at x and y."""
        moves = {}
        _map_subtrees(adj, code, x, px, y, py, moves)
        moves.update({b: a for a, b in moves.items()})
        return Permutation.from_dict(len(s.vertices), {s.index[a]: s.index[b] for a, b in moves.items()})

    gens = [swap(x, u, y, u) for u, sibs in runs for x, y in zip(sibs, sibs[1:])]
    if flips:
        gens.append(swap(c[0], c[1], c[1], c[0]))
    return tuple(gens), treecode.order_of_runs(runs, flips)


def _clear_aut_caches():
    """Forget every Aut(s) built and every hang read: the groups and the
    generators alike."""
    _automorphism_group.cache_clear()
    _aut_generators.cache_clear()


shape_automorphism_group.cache_info = _automorphism_group.cache_info
shape_automorphism_group.cache_clear = _clear_aut_caches
