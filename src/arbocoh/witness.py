"""The explicit alternating 2-cochain witnessing non-vanishing in degree 2.

For a centipede shape S with a non-degenerate irreducible (omega, V) and a
vector v fixed by the pointwise stabilizer of the spine endpoints (x, y)
but with no setwise-invariant component, the witness assigns to a pair of
boundary rays (gamma, eta) and an embedded copy e of S the value

    omega(s(e)^-1 g0) v   when e lies on the geodesic L(gamma, eta)
                          with full diameter overlap,
    0                     otherwise,

where g0 is any finite isometry carrying the reference configuration
(gamma0, gamma1, S0) onto (gamma, eta, e) and s(e) is the canonical
section: the lexicographically minimal tree isomorphism S0 -> e (so
s(S0) = identity).  The value does not depend on the choice of g0 because
v is fixed by the pointwise stabilizer of (x, y).  The sections come from
the core placement search, shapes.least_embeddings (see _section_items).

The reference configuration places the spine on the geodesic through the
basepoint joining the all-zeros ray to the ray through (1, 0, 0, ...),
leaves attached in canonical order.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .chartab import IrrepModel
from .errors import BadVector, InsufficientDepth, NotACentipede
from .perm import Permutation
from .shapes import EmbeddedSubtree, Shape, classify_shape, least_embeddings
from .tree import (
    RayPrefix,
    TreeIsometry,
    word_distance,
    word_neighbors,
    word_path,
)

_VEC_TOL = 1e-9
_REFERENCE_CACHE_SIZE = 64
_SECTION_CACHE_SIZE = 256  # canonical sections, one per (reference, image)
_GEODESIC_CACHE_SIZE = 16  # known paths of L(g, h), one per ray pair: a triple needs three
_VECTOR_CACHE_SIZE = 64  # witness vectors that passed, one per (model, endpoint pair, vector)


def _line_word(p: int):
    """Vertex at signed position p on the reference geodesic: negative
    positions run down the all-zeros ray, positive ones down (1, 0, 0...)."""
    if p <= 0:
        return (0,) * (-p)
    return (1,) + (0,) * (p - 1)


@dataclass(frozen=True)
class ReferenceConfiguration:
    """Reference rays, spine-on-geodesic placement, and endpoint pair."""

    shape: Shape
    depth: int
    gamma0: RayPrefix
    gamma1: RayPrefix
    embedding: EmbeddedSubtree
    spine_ids: tuple
    x_id: str
    y_id: str

    def endpoint_indices(self):
        return self.shape.index[self.x_id], self.shape.index[self.y_id]


@functools.lru_cache(maxsize=_REFERENCE_CACHE_SIZE)
def reference_configuration(s: Shape, depth: int) -> ReferenceConfiguration:
    cls = classify_shape(s)
    if cls.tag != "centipede":
        raise NotACentipede("witness cochains are defined on centipede shapes")
    k = cls.k
    if depth < k + 2:
        raise InsufficientDepth(f"depth {depth} too small for a diameter-{k} spine")
    ends = min(
        (a, b)
        for a in s.vertices
        for b in s.vertices
        if a != b and len(s.path(a, b)) == k + 1
    )
    spine = tuple(s.path(*ends))
    adj = s.adjacency()
    shift = k // 2
    placement = {spine[t]: _line_word(t - shift) for t in range(k + 1)}
    for t in range(1, k):
        u = spine[t]
        w = placement[u]
        used = {placement[spine[t - 1]], placement[spine[t + 1]]}
        avail = [n for n in word_neighbors(w, s.q) if n not in used]
        for leaf in sorted(x for x in adj[u] if x not in (spine[t - 1], spine[t + 1])):
            placement[leaf] = avail.pop(0)
    emb = EmbeddedSubtree(s, placement)
    return ReferenceConfiguration(
        shape=s,
        depth=depth,
        gamma0=RayPrefix((0,) * depth),
        gamma1=RayPrefix((1,) + (0,) * (depth - 1)),
        embedding=emb,
        spine_ids=spine,
        x_id=ends[0],
        y_id=ends[1],
    )


@functools.lru_cache(maxsize=_GEODESIC_CACHE_SIZE)
def _geodesic_words(wg: tuple, wh: tuple) -> tuple:
    """Known path of L(g, h) for the ray words wg and wh, ordered from the
    g side to the h side: built once per ray pair."""
    if wg == wh or wg[: min(len(wg), len(wh))] == wh[: min(len(wg), len(wh))]:
        raise InsufficientDepth("rays do not visibly diverge")
    return tuple(word_path(wg, wh))


@functools.lru_cache(maxsize=_REFERENCE_CACHE_SIZE)
def _ranked_reference(ref_words: frozenset, q: int) -> tuple:
    """The sorted reference words, and the reference tree relabelled by
    their zero-padded ranks: built once per reference."""
    ref_sorted = tuple(sorted(ref_words))
    width = len(str(len(ref_sorted)))
    rank = {w: f"{i:0{width}d}" for i, w in enumerate(ref_sorted)}
    copy = Shape(q, rank.values(), [(rank[w], rank[w[:-1]]) for w in ref_sorted if w and w[:-1] in rank])
    return ref_sorted, copy


@functools.lru_cache(maxsize=_SECTION_CACHE_SIZE)
def _section_items(ref_words: frozenset, words: frozenset, q: int):
    """The canonical section onto words as (word, image) pairs over the
    sorted ref_words, or None when words is not a copy.  Relabelled by the
    zero-padded ranks of its sorted words, the reference tree's least
    placement (least_embeddings, hosted by the full-degree words of words,
    the image of its internal tree) is the least isomorphism over them."""
    ref_sorted, copy = _ranked_reference(ref_words, q)
    host = [w for w in words if sum(x in words for x in word_neighbors(w, q)) == q + 1]
    found = least_embeddings(copy, host)
    if len(found) != 1 or found[0].image_words() != words:
        return None
    return tuple(zip(ref_sorted, (w for _, w in found[0].placement)))


def canonical_section(ref: ReferenceConfiguration, e: EmbeddedSubtree) -> dict:
    """Word map of the canonical section at e: the lexicographically
    minimal isomorphism from the reference placement onto e."""
    items = _section_items(ref.embedding.image_words(), e.image_words(), ref.shape.q)
    if items is None:
        raise ValueError("embedding is not a copy of the reference shape")
    return dict(items)


def check_witness_vector(model: IrrepModel, ref: ReferenceConfiguration, v) -> None:
    """v must be fixed pointwise by Q(x, y) and have no setwise-invariant
    component.  The test runs once per (model, endpoint pair, vector) that
    passes; a bad vector raises BadVector on every call."""
    ix, iy = ref.endpoint_indices()
    v = np.asarray(v, dtype=complex)
    _check_vector(model, ix, iy, v.shape, v.tobytes())


@functools.lru_cache(maxsize=_VECTOR_CACHE_SIZE)
def _check_vector(model: IrrepModel, ix: int, iy: int, shape: tuple, data: bytes) -> None:
    """check_witness_vector on the complex vector of the given shape and bytes."""
    v = np.frombuffer(data, dtype=complex).reshape(shape)
    if not np.all(np.isfinite(v)):
        raise BadVector("vector is not finite")
    pq, pqs = model.pair_projectors(ix, iy)
    if np.max(np.abs(pq @ v - v)) > _VEC_TOL:
        raise BadVector("vector is not fixed by the pointwise stabilizer of (x, y)")
    if np.max(np.abs(pqs @ v)) > _VEC_TOL:
        raise BadVector("vector has a setwise-invariant component")


def _carrying_isometry(ref: ReferenceConfiguration, g, h, e) -> TreeIsometry | None:
    """Finite isometry mapping (gamma0, gamma1, S0) to (g, h, e), or None
    when e does not lie on L(g, h) with full diameter overlap.

    The pinned window along the geodesic is as long as the ray prefixes
    allow, never shorter than one step beyond each spine end (that much is
    needed to certify the configuration); shorter data raises
    InsufficientDepth."""
    s = ref.shape
    q = s.q
    k = len(ref.spine_ids) - 1
    lwords = _geodesic_words(g.word, h.word)
    image = e.image_words()
    for frontier in (lwords[0], lwords[-1]):
        if any(len(w) > len(frontier) and w[: len(frontier)] == frontier for w in image):
            raise InsufficientDepth("embedding extends below a ray frontier")
    inter = [w for w in lwords if w in image]
    if inter and len(inter) < k + 1 and (inter[0] == lwords[0] or inter[-1] == lwords[-1]):
        raise InsufficientDepth("embedding touches a ray frontier")
    if len(inter) != k + 1:
        return None
    positions = [lwords.index(w) for w in inter]
    if positions != list(range(positions[0], positions[0] + k + 1)):
        return None
    index0 = positions[0]
    shift = k // 2
    # ref position p sits at target index index0 + shift + p
    reach_g = min(ref.depth, index0 + shift)
    reach_h = min(ref.depth, len(lwords) - 1 - index0 - shift)
    if reach_g < shift + 1 or reach_h < (k - shift) + 1:
        raise InsufficientDepth("ray prefixes too short around the embedding")
    mapping = {}
    for p in range(-reach_g, reach_h + 1):
        mapping[_line_word(p)] = lwords[index0 + shift + p]
    refpl = ref.embedding.mapping()
    lset = set(lwords)
    for t in range(1, k):
        u = ref.spine_ids[t]
        rw = mapping[refpl[u]]
        ref_leaves = sorted(
            refpl[x]
            for x in ref.shape.adjacency()[u]
            if x not in (ref.spine_ids[t - 1], ref.spine_ids[t + 1])
        )
        tgt_leaves = sorted(
            w for w in image if w not in lset and word_distance(w, rw) == 1
        )
        if len(ref_leaves) != len(tgt_leaves):
            return None
        mapping.update(zip(ref_leaves, tgt_leaves))
    g0 = TreeIsometry(q, mapping)
    # the reference line goes onto L(g, h) word by word, its gamma0 side to
    # the g side, so g0 carries gamma0 to g and gamma1 to h; only the
    # embedding needs checking
    if {g0.apply_word(w) for w in ref.embedding.image_words()} != set(image):
        return None
    return g0


def witness_cochain(
    s: Shape,
    model: IrrepModel,
    v,
    g: RayPrefix,
    h: RayPrefix,
    e: EmbeddedSubtree,
    depth: int,
) -> np.ndarray:
    """Value of the witness cochain at (g, h, e); the zero vector off the
    on-geodesic orbit.  See the module docstring."""
    ref = reference_configuration(s, depth)
    check_witness_vector(model, ref, v)
    v = np.asarray(v, dtype=complex)
    g0 = _carrying_isometry(ref, g, h, e)
    if g0 is None:
        return np.zeros(model.degree, dtype=complex)
    section = canonical_section(ref, e)
    perm = _reference_permutation(ref, g0.mapping, section)
    return model.matrix(perm) @ v


def _reference_permutation(ref: ReferenceConfiguration, word_map, section) -> Permutation:
    """Permutation of shape vertices induced by section^-1 after word_map,
    both read on the reference placement."""
    s = ref.shape
    refpl = ref.embedding.mapping()
    ref_inv = {w: u for u, w in refpl.items()}
    sec_inv = {w2: w1 for w1, w2 in section.items()}
    images = [0] * len(s.vertices)
    for u in s.vertices:
        w3 = sec_inv[word_map[refpl[u]]]
        images[s.index[u]] = s.index[ref_inv[w3]]
    return Permutation(tuple(images))


def map_embedding(f: TreeIsometry, e: EmbeddedSubtree) -> EmbeddedSubtree:
    """Compose an embedding with a finite isometry."""
    return EmbeddedSubtree(
        e.shape, {u: f.apply_word(w) for u, w in e.placement}
    )


def induced_reference_permutation(
    ref: ReferenceConfiguration, e: EmbeddedSubtree, fe: EmbeddedSubtree, f: TreeIsometry
) -> Permutation:
    """p(s(f e)^-1 f s(e)) read on the reference placement: the twist that
    relates witness values at (f g, f h, f e) to those at (g, h, e)."""
    sec_e = canonical_section(ref, e)
    sec_fe = canonical_section(ref, fe)
    word_map = {w: f.apply_word(sec_e[w]) for w in sec_e}
    return _reference_permutation(ref, word_map, sec_fe)
