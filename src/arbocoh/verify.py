"""Seeded invariant suites behind the `verify` CLI command: the one
implementation of every acceptance criterion (`tests/test_acceptance.py`
only selects named checks from these reports; the README maps them).

Each suite returns a report dict with one entry per check: name, pass
flag, and a residual or counter where meaningful.  All randomness flows
from a single seed recorded in the report; a check added to a suite draws
after its earlier checks, so their entries stay as they were.
"""

from __future__ import annotations

import functools

import numpy as np

from . import treecode
from .catalog import enumerate_complete_shapes
from .chartab import character_table, invariant_dim, realize_irrep
from .config import MAX_SUBTREE_Q, Config
from .errors import InvalidInput, NumericalDegeneracy, TooManyRays, UnknownSuite
from .flip import check_flip_witness, find_flip
from .perm import (
    DEFAULT_ORDER_BOUND,
    Permutation,
    all_subgroups,
    closure,
    pointwise_stabilizer,
    setwise_stabilizer,
    shape_automorphism_group,
)
from .reptheory import (
    RepDescriptor,
    admissible_vertex_pairs,
    canonical_vertex_pair,
    classify_bounded_cohomology,
    enumerate_nondegenerate,
    h2_dimension,
)
from .shapes import (
    Shape,
    centipede_shape,
    count_hitting,
    edge_shape,
    enumerate_embeddings,
    hits,
    least_embeddings,
    maximal_proper_complete_subtrees,
    star_shape,
    y_shape,
)
from .spherical import (
    CylinderFunction,
    eigen_residual,
    gram_psd_check,
    inner_product_z,
    intertwiner_defining_residual,
    intertwiner_matrix,
    phi_values,
    pi_z_apply,
)
from .tree import (
    RayPrefix,
    TreeIsometry,
    Vertex,
    ball_words,
    busemann,
    cylinder_measure,
    distance,
    gromov_product,
    median,
    poisson_kernel,
    word_children,
    word_neighbors,
)
from .witness import (
    induced_reference_permutation,
    map_embedding,
    reference_configuration,
    witness_cochain,
)

# -- randomness helpers -------------------------------------------------------


_DISTINCT_FLOOR = 1e-3  # least chance of a distinct ray batch worth drawing for
_RAY_BATCHES = 20_000  # batches drawn before random_rays gives up
_PSD_TOL = 1e-9  # least Gram eigenvalue allowed below zero
_RANK_TOL = 1e-8  # least singular value counted in a projector's rank
_INTERTWINER_TOL = 1e-8  # intertwiner identity residual on a deeper ball
_UNITARITY_TOL = 1e-6  # change of the pi_z inner product under an isometry


def random_word(rng, q, depth):
    """Uniform word of the given depth: its first label, then the tail from
    one rng.integers(0, q, size=depth-1) call, which draws exactly what one
    scalar call per label does (the tests compare the two).  random_rays
    draws a batch of words as one call with array bounds, the same stream
    as one random_word per ray."""
    if depth == 0:
        return ()
    return (int(rng.integers(0, q + 1)), *rng.integers(0, q, size=depth - 1).tolist())


def random_rays(rng, q, n, depth):
    """n rays, pairwise divergent strictly before the given depth, drawn
    batch after batch until one has distinct (depth-1)-prefixes.  Raises
    TooManyRays when q < 2, when n exceeds the P = (q+1) q^(depth-2)
    distinct prefixes, when a batch is distinct with probability
    prod(1 - i/P) below _DISTINCT_FLOOR, or after _RAY_BATCHES batches.
    Raises InvalidInput, before any draw, for q >= 2^63: the letters are
    drawn as int64.

    A batch is one rng.integers(0, high) call over an (n, depth) array of
    bounds, q+1 in column 0 and q elsewhere: the same stream as n
    random_word(rng, q, depth) calls (the tests compare the two)."""
    if q < 2:
        raise TooManyRays(f"branching parameter q = {q} < 2 admits no divergent rays")
    if q >= 2**63:
        raise InvalidInput(f"rays are drawn as int64 letters, for q < 2^63, got q = {q}")
    prefixes = (q + 1) * q ** (depth - 2) if depth >= 2 else 1
    if n > prefixes:
        raise TooManyRays(
            f"{n} rays cannot diverge before depth {depth}: only {prefixes} prefixes at q = {q}"
        )
    chance = 1.0
    for i in range(n):
        chance *= 1 - i / prefixes
        if chance < _DISTINCT_FLOOR:
            raise TooManyRays(
                f"{n} rays among {prefixes} prefixes at q = {q} are distinct before "
                f"depth {depth} with probability below {_DISTINCT_FLOOR}"
            )
    high = np.full((n, depth), q, dtype=np.uint64)  # unsigned: q + 1 may be 2^63
    high[:, :1] += 1
    for _ in range(_RAY_BATCHES):
        rays = [RayPrefix(tuple(w)) for w in rng.integers(0, high).tolist()]
        if len({r.word[: depth - 1] for r in rays}) == n:
            return rays
    raise TooManyRays(f"no {n} rays diverging before depth {depth} in {_RAY_BATCHES} batches")


def random_isometry(rng, q, radius, move=0):
    """Random automorphism germ on the radius ball around the basepoint,
    drawn as random_isometry_on draws it."""
    return random_isometry_on(rng, q, ball_words((), radius, q), move)


def random_isometry_on(rng, q, words, move=0):
    """Random automorphism germ on the ancestor closure of the given words:
    the basepoint goes to a random word of the given length, children are
    assigned in random order.

    Draw order: random_word(rng, q, move) for the image of the basepoint,
    then one permutation per domain word in (depth, word) order, of size
    q+1 at the basepoint and q everywhere else, leaves included.  The size-q
    ones come from one rng.permuted call, which draws exactly what one
    rng.permutation(q) per word draws (the tests compare the two).  Child k
    of a word (k-th in label order among its children in the domain) goes
    to entry k of the word's permutation among the neighbours of the word's
    image, parent first and then children by label, with the image of the
    word's parent left out."""
    dom = {()}
    for w in words:
        while w not in dom:
            dom.add(w)
            w = w[:-1]
    words = sorted(dom, key=lambda w: (len(w), w))
    root = random_word(rng, q, move)
    perms = [rng.permutation(q + 1).tolist()]
    perms += rng.permuted(np.tile(np.arange(q), (len(words) - 1, 1)), axis=1).tolist()
    index = {w: i for i, w in enumerate(words)}
    images, parents, placed = [root], [-1], [0] * len(words)
    for w in words[1:]:
        p = index[w[:-1]]
        nbrs = word_neighbors(images[p], q)
        if p:
            nbrs.remove(images[parents[p]])
        images.append(nbrs[perms[p][placed[p]]])
        parents.append(p)
        placed[p] += 1
    return TreeIsometry(q, dict(zip(words, images)))


def _check(name, passed, **detail):
    out = {"name": name, "passed": bool(passed)}
    out.update(detail)
    return out


def _report(suite, seed, checks):
    return {
        "suite": suite,
        "seed": seed,
        "passed": all(c["passed"] for c in checks),
        "checks": checks,
    }


# -- geometry -----------------------------------------------------------------


def geometry_suite(cfg: Config, n_instances: int = 500) -> dict:
    rng = np.random.default_rng(cfg.seed)
    bad_cocycle = bad_rn = bad_median = bad_additive = bad_isom = 0

    for k in range(n_instances):
        q = 2 if k % 2 == 0 else 3
        g = RayPrefix(random_word(rng, q, 12))
        x, y, z = (Vertex(random_word(rng, q, int(rng.integers(0, 7)))) for _ in range(3))
        bxy, byz, bxz = busemann(g, x, y), busemann(g, y, z), busemann(g, x, z)
        if bxy + byz != bxz or bxy != -busemann(g, y, x) or abs(bxy) > distance(x, y):
            bad_cocycle += 1

        w = Vertex(g.word[: int(rng.integers(8, 12))])
        ratio = cylinder_measure(y, w, q) / cylinder_measure(x, w, q)
        if ratio != poisson_kernel(x, y, g, q):
            bad_rn += 1

        rays = random_rays(rng, q, 3, 10)
        m = median(*rays)
        if any(
            gromov_product(rays[i], rays[j], m) != 0
            for i in range(3)
            for j in range(i + 1, 3)
        ):
            bad_median += 1

        wa = Vertex(random_word(rng, q, int(rng.integers(1, 7))))
        xa = Vertex(random_word(rng, q, int(rng.integers(0, 5))))
        below = len(wa.word) < len(xa.word) and xa.word[: len(wa.word)] == wa.word
        if not below and xa != wa:
            total = sum(
                cylinder_measure(xa, Vertex(c), q) for c in word_children(wa.word, q)
            )
            if total != cylinder_measure(xa, wa, q):
                bad_additive += 1

    for k in range(60):
        q = 2 if k % 2 == 0 else 3
        move = int(rng.integers(0, 3))
        u = Vertex(random_word(rng, q, int(rng.integers(0, 5))))
        v = Vertex(random_word(rng, q, int(rng.integers(0, 5))))
        base = Vertex(random_word(rng, q, int(rng.integers(0, 4))))
        rays = random_rays(rng, q, 3, 5)
        # f is drawn only on the words it is applied to, and their ancestors
        f = random_isometry_on(rng, q, [u.word, v.word, base.word] + [r.word for r in rays], move)
        if distance(f.apply_vertex(u), f.apply_vertex(v)) != distance(u, v):
            bad_isom += 1
            continue
        try:
            imgs = [f.apply_ray(r) for r in rays]
            if gromov_product(imgs[0], imgs[1], f.apply_vertex(base)) != gromov_product(
                rays[0], rays[1], base
            ):
                bad_isom += 1
            elif median(*imgs) != f.apply_vertex(median(*rays)):
                bad_isom += 1
        except Exception:
            bad_isom += 1

    checks = [
        _check("busemann_cocycle_exact", bad_cocycle == 0, failures=bad_cocycle),
        _check("radon_nikodym_exact", bad_rn == 0, failures=bad_rn),
        _check("median_gromov_products_zero", bad_median == 0, failures=bad_median),
        _check("cylinder_measure_additive", bad_additive == 0, failures=bad_additive),
        _check("isometry_invariance", bad_isom == 0, failures=bad_isom),
    ]
    return _report("geometry", cfg.seed, checks)


# -- flip ---------------------------------------------------------------------


_FLIP_SHAPES = (star_shape, edge_shape, lambda q: centipede_shape(q, 3))


@functools.lru_cache(maxsize=2 * len(_FLIP_SHAPES))
def _flip_shape(kind, q):
    return _FLIP_SHAPES[kind](q)


def _window_core(kind, q, a, i):
    """The core (internal words; both ends of an edge) of the i-th entry of
    enumerate_embeddings(_flip_shape(kind, q), Vertex(a), 2): of q+2 stars
    by centre, the anchor's parent, the anchor, then its children; of
    (q+1)^2 edges by parent, then child label; of q+1 3-centipedes the edge
    to the anchor's parent first.  Sorting by sorted image words puts the
    star at (0,) before the root's at a = () or (0,), and the edge to the
    root last at a = (0,)."""
    if kind == 1:
        if len(a) > 1:
            if i == 0:
                return (a[:-2], a[:-1])
            i -= 1
        for p in (a[:-1], a) if a else (a,):
            if i < (q if p else q + 1):
                return (p, p + (i,))
            i -= q if p else q + 1
        return (a + (i // q,), a + divmod(i, q))
    if kind == 0:
        lead = (a[:-1], a) if a else (a,)
        if i < 2 and a in ((), (0,)):
            i = 1 - i
        return (lead[i] if i < len(lead) else a + (i - len(lead),),)
    if a == (0,):
        i = (i + 1) % (q + 1)
    if a and i == 0:
        return (a[:-1], a)
    return (a, a + (i - 1 if a else i,))


def random_flip_instance(rng, q, depth):
    """Rays plus a random embedded subtree missing the leading triple (or
    None), drawn by its rank in the window of a star, an edge or a
    3-centipede around a random anchor, and built alone.  Raises
    InvalidInput, before any draw, for q above MAX_SUBTREE_Q: a drawn
    subtree has up to 2q+2 vertices."""
    if q > MAX_SUBTREE_Q:
        raise InvalidInput(f"random subtrees are drawn for q <= {MAX_SUBTREE_Q}, got q = {q}")
    n = int(rng.integers(3, 8))
    rays = random_rays(rng, q, n, depth)
    if rng.integers(0, 2) == 0:
        return rays, None
    kind = int(rng.integers(0, 3))
    for _ in range(20):
        anchor = random_word(rng, q, int(rng.integers(0, 4)))
        i = int(rng.integers(0, (q + 2, (q + 1) ** 2, q + 1)[kind]))  # the window's size
        (e,) = least_embeddings(_flip_shape(kind, q), _window_core(kind, q, anchor, i))
        if not hits(e, rays[0], rays[1], rays[2]):
            return rays, e
    return rays, None


def flip_suite(cfg: Config, n_instances: int = 1000) -> dict:
    rng = np.random.default_rng(cfg.seed)
    failures = 0
    first_failure = ""
    for k in range(n_instances):
        q = 2 if k % 2 == 0 else 3
        rays, s = random_flip_instance(rng, q, 12)
        try:
            w = find_flip(q, rays, s, 12)
            fails = check_flip_witness(q, rays, s, w)
        except Exception as exc:  # any raise counts as a failed instance
            fails = [f"exception: {exc}"]
        if fails:
            failures += 1
            if not first_failure:
                first_failure = f"instance {k}: {fails[0]}"
    checks = [
        _check(
            "flip_witnesses_valid",
            failures == 0,
            instances=n_instances,
            failures=failures,
            first_failure=first_failure,
        )
    ]
    return _report("flip", cfg.seed, checks)


# -- groups -------------------------------------------------------------------


def brute_force_automorphisms(s: Shape):
    """All adjacency-preserving vertex bijections, by backtracking."""
    adj = s.adjacency()
    order, _ = treecode.bfs(adj, s.vertices[0])
    out = []

    def extend(i, img):
        if i == len(order):
            out.append(Permutation(tuple(s.index[img[v]] for v in s.vertices)))
            return
        v = order[i]
        placed_nbrs = [nb for nb in adj[v] if nb in img]
        for cand in s.vertices:
            if cand in img.values():
                continue
            if len(adj[cand]) != len(adj[v]):
                continue
            if all(cand in adj[img[nb]] for nb in placed_nbrs):
                img[v] = cand
                extend(i + 1, img)
                del img[v]

    extend(0, {})
    return set(out)


def brute_force_maximal_subtrees(s: Shape) -> list:
    """Maximal proper complete subtrees by search: every single vertex and
    edge, and J + N(J) for every connected nonempty subset J of the
    full-degree vertices, filtered to the proper ones no other contains.
    The oracle for the closed form of maximal_proper_complete_subtrees."""
    adj = s.adjacency()
    internal = s.internal_vertices()
    complete = {frozenset([v]) for v in s.vertices}
    complete.update(frozenset(e) for e in s.edges)
    for mask in range(1, 1 << len(internal)):
        chosen = {v for i, v in enumerate(internal) if mask >> i & 1}
        start = next(iter(chosen))
        seen = {start}
        stack = [start]
        while stack:
            for nb in adj[stack.pop()]:
                if nb in chosen and nb not in seen:
                    seen.add(nb)
                    stack.append(nb)
        if len(seen) == len(chosen):
            complete.add(frozenset(chosen.union(*(adj[v] for v in chosen))))
    complete.discard(frozenset(s.vertices))
    maximal = []
    for sub in sorted(complete, key=len, reverse=True):
        if not any(sub < big for big in maximal):
            maximal.append(sub)
    return sorted(maximal, key=lambda fs: tuple(sorted(fs)))


def groups_suite(cfg: Config) -> dict:
    checks = []
    small = [
        star_shape(2),
        centipede_shape(2, 3),
        centipede_shape(2, 4),
        centipede_shape(2, 5),
        y_shape(2),
        star_shape(3),
        edge_shape(2),
        Shape(2, ["v"], []),
    ]
    bound = cfg.group_order_bound
    bad = []
    for s in small:
        got = set(shape_automorphism_group(s, bound).elements)
        want = brute_force_automorphisms(s)
        if got != want:
            bad.append(f"{len(s.vertices)}-vertex shape: {len(got)} vs {len(want)}")
    checks.append(_check("aut_matches_brute_force", not bad, mismatches=bad))

    bad = [
        f"{len(s.vertices)}-vertex shape"
        for s in small
        if len(s.vertices) > 2
        and maximal_proper_complete_subtrees(s) != brute_force_maximal_subtrees(s)
    ]
    checks.append(_check("maximal_subtrees_match_brute_force", not bad, mismatches=bad))

    # each subgroup mask holds the identity (element 0), is closed under
    # products and has an order dividing |G|
    lagrange_bad = 0
    zoo = [
        shape_automorphism_group(star_shape(2), bound),
        shape_automorphism_group(star_shape(3), bound),
        shape_automorphism_group(centipede_shape(2, 4), bound),
    ]
    for G in zoo:
        for H in all_subgroups(G):
            inside = np.flatnonzero(H)
            closed = H[G.right_multiples(inside)[inside]].all()
            if not (H[0] and closed and G.order % len(inside) == 0):
                lagrange_bad += 1
    checks.append(_check("lagrange", lagrange_bad == 0, failures=lagrange_bad))

    # A_j is the mask of the elements that move complement points only
    aj_bad = []
    for s in [star_shape(2), centipede_shape(2, 3), centipede_shape(2, 4), y_shape(2)]:
        G = shape_automorphism_group(s, bound)
        moved = G.array != np.arange(G.degree)
        for sub in maximal_proper_complete_subtrees(s):
            comp = np.array([v not in sub for v in s.vertices])
            supported = ~(moved & ~comp).any(axis=1)
            if not np.array_equal(pointwise_stabilizer(G, [s.index[v] for v in sub]), supported):
                aj_bad.append("complement-supported permutations differ from stabilizer")
    checks.append(_check("pointwise_stabilizer_is_complement_supported", not aj_bad, mismatches=aj_bad))
    return _report("groups", cfg.seed, checks)


# -- representation theory ------------------------------------------------------


def reps_suite(cfg: Config) -> dict:
    rng = np.random.default_rng(cfg.seed)
    bound = cfg.group_order_bound
    checks = []

    # every table the integer proof certifies; one it refuses is named
    refused = []
    shapes = [
        (f"q{q}d{d}#{i}", s)
        for q, d in ((2, 5), (3, 3))
        for i, s in enumerate(enumerate_complete_shapes(q, d))
    ]
    for key, s in shapes:
        try:
            character_table(shape_automorphism_group(s, bound))
        except NumericalDegeneracy:
            refused.append(key)
    checks.append(
        _check(
            "character_tables_orthogonal",
            not refused,
            proved=len(shapes) - len(refused),
            n_shapes=len(shapes),
            failures=refused,
        )
    )

    proj_bad = 0
    models_of = {}  # the models of every row, by host
    for host in [star_shape(2), star_shape(3), centipede_shape(2, 4)]:
        G = shape_automorphism_group(host, bound)
        t = character_table(G)
        models = models_of[host] = [realize_irrep(t, r) for r in range(t.n_rows)]
        for H in all_subgroups(G):
            for r, model in enumerate(models):
                if projector_rank(model.subspace_projector(H)) != invariant_dim(t, r, H):
                    proj_bad += 1
    checks.append(_check("invariant_dim_matches_projector_rank", proj_bad == 0, failures=proj_bad))

    # every admissible pair gives the dimension enumerate_nondegenerate reports
    h2_bad = []
    for q in (2, 3):
        for k in (2, 3, 4):
            s = centipede_shape(q, k)
            t = character_table(shape_automorphism_group(s, bound))
            pairs = admissible_vertex_pairs(s)
            for row, _deg, h2 in enumerate_nondegenerate(s, bound):
                dims = {h2_dimension(s, t, row, x, y) for x, y in pairs}
                if dims != {h2}:
                    h2_bad.append(f"q={q} k={k} row={row}: {sorted(dims)} against {h2}")
    checks.append(_check("h2_pair_independent", not h2_bad, mismatches=h2_bad))

    grid_bad = []
    for n in range(1, 7):
        for z in (0.5, 0.5 + 2j, 0.3):
            if classify_bounded_cohomology(RepDescriptor.spherical(2, z), n) != 0:
                grid_bad.append(f"spherical z={z} n={n}")
        for sign in "+-":
            if classify_bounded_cohomology(RepDescriptor.special(2, sign), n) != 0:
                grid_bad.append(f"special {sign} n={n}")
    cells = [("y-shape", y_shape(2), range(1, 7))]  # every degree off a centipede
    cells += [(f"{k}-centipede", centipede_shape(2, k), (1, 3, 4, 5, 6)) for k in (2, 3, 4)]
    for name, s, degrees in cells:
        for row, _deg, _h2 in enumerate_nondegenerate(s, bound):
            for n in degrees:
                if classify_bounded_cohomology(RepDescriptor.cuspidal(s, row), n, bound) != 0:
                    grid_bad.append(f"{name} row={row} n={n}")
    checks.append(_check("vanishing_grid", not grid_bad, mismatches=grid_bad))

    checks.append(_witness_check(rng, bound, n_instances=100, n_triples=3))
    checks.append(_dihedral_check(bound))
    stars = {s: models for s, models in models_of.items() if s.diameter() == 2}
    checks.append(_diameter_two_check(stars, bound))
    checks.append(_hit_count_check(rng))  # its draws follow every earlier one
    return _report("reps", cfg.seed, checks)


def projector_rank(P) -> int:
    """The rank of a float projector: its singular values above _RANK_TOL."""
    return int(np.sum(np.linalg.svd(P, compute_uv=False) > _RANK_TOL))


def projector_spectrum(s: Shape, models) -> list:
    """enumerate_nondegenerate(s) read off projector ranks of one model per
    row, not character sums: a row is non-degenerate when no pointwise
    stabilizer of a maximal proper complete subtree fixes a vector, and its
    h2 is the rank of the pointwise less the setwise stabilizer's projector
    at the canonical vertex pair."""
    G = models[0].table.group
    pts = [s.index[v] for v in canonical_vertex_pair(s)]
    subs = maximal_proper_complete_subtrees(s)
    subgroups = [pointwise_stabilizer(G, [s.index[v] for v in sub]) for sub in subs]
    subgroups += [pointwise_stabilizer(G, pts), setwise_stabilizer(G, pts)]
    out = []
    for m in models:
        *heads, point, setwise = (projector_rank(m.subspace_projector(H)) for H in subgroups)
        if not any(heads):
            out.append((m.row, m.degree, point - setwise))
    return out


def _dihedral_check(bound):
    """The paper's example: Aut of centipede(2, k), k = 3, 4, 5, is dihedral
    of order 8, generated by involutions a, b with ab of order 4.  It has two
    non-degenerate rows, of degree 1 and h2 = 1 and 0; the hot one is the
    sign character killing the rotation, -1 on both a and b for some such
    pair, and classify gives it 1 in degree 2."""
    bad = []
    for k in (3, 4, 5):
        s = centipede_shape(2, k)
        G = shape_automorphism_group(s, bound)
        flips = [a for a in G.elements if a.order() == 2]
        dihedral = lambda a, b: (a * b).order() == 4 and closure([a, b], degree=G.degree).order == 8
        pairs = [(a, b) for a in flips for b in flips if dihedral(a, b)]
        rows = enumerate_nondegenerate(s, bound)
        if G.order != 8 or not pairs or sorted(row[1:] for row in rows) != [(1, 0), (1, 1)]:
            bad.append(f"k={k}: order {G.order}, {len(pairs)} dihedral pairs, rows {rows}")
            continue
        hot = next(r for r, _d, h2 in rows if h2 == 1)
        t = character_table(G)
        if not any(t.value(hot, a) == t.value(hot, b) == -1 for a, b in pairs):
            bad.append(f"k={k}: row {hot} is -1 on no dihedral pair")
        if classify_bounded_cohomology(RepDescriptor.cuspidal(s, hot), 2, bound) != 1:
            bad.append(f"k={k}: row {hot} does not classify to 1")
    return _check("dihedral_example", not bad, mismatches=bad)


def _diameter_two_check(models_of, bound):
    """On each star, given the models of its rows, projector_spectrum equals
    enumerate_nondegenerate; star(2), with Aut = S_3, has one such row: the
    sign character, of h2 = 1."""
    bad = []
    for s, models in models_of.items():
        rows = enumerate_nondegenerate(s, bound)
        if projector_spectrum(s, models) != rows:
            bad.append(f"star({s.q}): rows {rows} differ from the projector oracle")
        t = models[0].table
        sign = [(r, 1, 1) for r in range(t.n_rows) if t.degrees[r] == 1 and -1 in t.characters[r]]
        if s.q == 2 and (t.group.order != 6 or rows != sign):
            bad.append(f"star(2): order {t.group.order}, rows {rows}, sign row {sign}")
    return _check("diameter_two_spectrum", not bad, mismatches=bad)


def _hit_count_check(rng, n_triples=50):
    """Each shape hits every one of n_triples random ray triples at q=2 the
    same, exact number of times."""
    bad = []
    for name, s, want in (
        ("star(2)", star_shape(2), 1),
        ("centipede(2,3)", centipede_shape(2, 3), 3),
        ("centipede(2,4)", centipede_shape(2, 4), 9),
        ("y(2)", y_shape(2), 4),
    ):
        counts = {count_hitting(s, *random_rays(rng, 2, 3, 12)) for _ in range(n_triples)}
        if counts != {want}:
            bad.append(f"{name}: {sorted(counts)} against {want}")
    return _check("hit_counts_constant", not bad, triples=n_triples, mismatches=bad)


def kernel_st_row(s: Shape, bound: int = DEFAULT_ORDER_BOUND):
    """The degree-1 non-degenerate row with nonzero degree-2 dimension on a
    4-centipede (the sign character killing the rotation)."""
    rows = enumerate_nondegenerate(s, bound)
    return next(r for r, deg, h2 in rows if deg == 1 and h2 == 1)


def _witness_check(rng, bound, n_instances=100, n_triples=3, depth=10):
    """The witness cochain's laws on centipede(2, 4); a library error (a
    BadVector, say) fails this check, as in flip_suite, not the suite."""
    try:
        bad = _witness_mismatches(rng, bound, n_instances, n_triples, depth)
    except Exception as exc:  # any raise counts as a failed check
        bad = [f"exception: {type(exc).__name__}: {exc}"]
    return _check("witness_cochain_laws", not bad, mismatches=bad)


def _witness_mismatches(rng, bound, n_instances, n_triples, depth):
    s = centipede_shape(2, 4)
    t = character_table(shape_automorphism_group(s, bound))
    row = kernel_st_row(s, bound)
    model = realize_irrep(t, row)
    ref = reference_configuration(s, depth)
    v = np.array([1.0 + 0j])

    bad = []
    base_val = witness_cochain(s, model, v, ref.gamma0, ref.gamma1, ref.embedding, depth)
    if np.max(np.abs(base_val - v)) > 1e-10:
        bad.append("reference value is not v")
    swapped = witness_cochain(s, model, v, ref.gamma1, ref.gamma0, ref.embedding, depth)
    if np.max(np.abs(swapped + v)) > 1e-10:
        bad.append("swapped reference is not -v")

    needed = [ref.gamma0.word, ref.gamma1.word] + sorted(ref.embedding.image_words())
    for k in range(n_instances):
        f = random_isometry_on(rng, 2, needed, move=int(rng.integers(0, 3)))
        fg = f.apply_ray(ref.gamma0)
        fh = f.apply_ray(ref.gamma1)
        fe = map_embedding(f, ref.embedding)
        lhs = witness_cochain(s, model, v, fg, fh, fe, depth)
        twist = induced_reference_permutation(ref, ref.embedding, fe, f)
        rhs = model.matrix(twist) @ base_val
        if np.max(np.abs(lhs - rhs)) > 1e-10:
            bad.append(f"equivariance failed at instance {k}")
            break
        alt = witness_cochain(s, model, v, fh, fg, fe, depth)
        if np.max(np.abs(alt + lhs)) > 1e-10:
            bad.append(f"alternation failed at instance {k}")
            break

    support_bad = 0
    for _ in range(n_triples):
        # rays must reach well below the embedding window around the median
        rays = random_rays(rng, 2, 3, depth + 10)
        m = median(*rays)
        for e in enumerate_embeddings(s, m, 6):
            if hits(e, *rays):
                continue
            val = (
                witness_cochain(s, model, v, rays[1], rays[2], e, depth)
                - witness_cochain(s, model, v, rays[0], rays[2], e, depth)
                + witness_cochain(s, model, v, rays[0], rays[1], e, depth)
            )
            if np.max(np.abs(val)) > 1e-10:
                support_bad += 1
    if support_bad:
        bad.append(f"coboundary supported off the hitting set ({support_bad} embeddings)")
    return bad


# -- spherical ------------------------------------------------------------------


def spherical_suite(cfg: Config) -> dict:
    rng = np.random.default_rng(cfg.seed)
    checks = []
    import math as _math

    worst = 0.0
    for q in (2, 3):
        zs = [0.5, 0.5 + 0.7j, 0.3, 0.3 + 1j * _math.pi / _math.log(q)]
        for z in zs:
            worst = max(worst, eigen_residual(q, z, 8))
    checks.append(_check("eigen_residual", worst < 1e-10, worst_residual=worst))

    sym = 0.0
    for q in (2, 3):
        for z in (0.5 + 0.7j, 0.3, 0.25 + 0.4j):
            a = phi_values(q, z, 8)
            b = phi_values(q, 1 - z, 8)
            sym = max(sym, max(abs(a[d] - b[d]) for d in range(9)))
    checks.append(_check("phi_z_symmetry", sym < 1e-12, worst=sym))

    min_eig = 0.0
    for z in (0.5, 0.5 + 1.3j, 0.3):
        vs = [Vertex(random_word(rng, 2, int(rng.integers(0, 8)))) for _ in range(20)]
        min_eig = min(min_eig, gram_psd_check(2, z, vs))
    path = [Vertex((0,) * d) for d in range(6)]
    violation = gram_psd_check(2, 2.0, path)
    checks.append(
        _check(
            "gram_psd",
            min_eig >= -_PSD_TOL and violation < -1e-6,
            min_eigenvalue=min_eig,
            z2_violation=violation,
        )
    )

    # the depth-n identity probed two levels deeper, at n = 1 to 4
    depths = [1, 2, 3, 4]
    deep = max(intertwiner_defining_residual(intertwiner_matrix(2, 0.3, n), n + 2) for n in depths)
    checks.append(_check("intertwiner_identity", deep < _INTERTWINER_TOL, depths=depths, residual=deep))

    z = 0.5 + 0.3j
    worst_u = 0.0
    for _ in range(20):
        f = random_isometry(rng, 2, 6, move=int(rng.integers(0, 3)))
        phi = CylinderFunction(
            2, 1, {w: complex(rng.standard_normal(), rng.standard_normal()) for w in [(0,), (1,), (2,)]}
        )
        psi = CylinderFunction(
            2, 1, {w: complex(rng.standard_normal(), rng.standard_normal()) for w in [(0,), (1,), (2,)]}
        )
        before = inner_product_z(phi, psi, 2, z)
        after = inner_product_z(pi_z_apply(f, phi, 2, z), pi_z_apply(f, psi, 2, z), 2, z)
        worst_u = max(worst_u, abs(after - before))
    checks.append(_check("pi_z_unitary", worst_u < _UNITARITY_TOL, worst_deviation=worst_u))
    return _report("spherical", cfg.seed, checks)


SUITES = {
    "geometry": geometry_suite,
    "flip": flip_suite,
    "groups": groups_suite,
    "reps": reps_suite,
    "spherical": spherical_suite,
}


def run_suite(name: str, cfg: Config) -> dict:
    if name == "all":
        reports = [SUITES[s](cfg) for s in ("geometry", "flip", "groups", "reps", "spherical")]
        return {
            "suite": "all",
            "seed": cfg.seed,
            "passed": all(r["passed"] for r in reports),
            "reports": reports,
        }
    if name not in SUITES:
        raise UnknownSuite(f"no suite named {name!r}")
    return SUITES[name](cfg)
