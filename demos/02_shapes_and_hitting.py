"""Finite complete subtrees: taxonomy and hit counts against ray triples.

A complete subtree has every vertex of degree 1 or q+1.  Its maximal
proper complete subtrees determine heads; two-headed shapes (and all
diameter-2 stars) are centipedes.  A shape "hits" a boundary triple when
the triple's median is one of its full-degree vertices; the number of
embedded copies hitting a triple depends only on the shape.  It has a
closed form in the internal tree I of full-degree vertices: the
placements of I with some vertex u at the median, summed over u, divided
by |Aut(I)|.  A vertex of degree d in I at the median takes d of its q+1
neighbours in order, and every other one d - 1 of the q neighbours left
to it.  count_hitting computes that closed form, and |Aut(I)| comes from
I hung from its centre (treecode.aut_order); the demo prints |Aut(I)|
and the placements count * |Aut(I)| beside each count.
"""

import numpy as np

from arbocoh import (
    centipede_shape,
    classify_shape,
    count_hitting,
    heads,
    maximal_proper_complete_subtrees,
    star_shape,
    y_shape,
)
from arbocoh.shapes import complete_shape_from_internal
from arbocoh.treecode import aut_order
from arbocoh.verify import random_rays


def internal_tree(s):
    """The adjacency of I(s), the tree of full-degree vertices."""
    internal = set(s.internal_vertices())
    return {u: [n for n in ns if n in internal] for u, ns in s.adjacency().items() if u in internal}


shapes = {}
for q in (2, 3):
    shapes[q] = {
        "star (diameter 2)": star_shape(q),
        "3-centipede": centipede_shape(q, 3),
        "4-centipede": centipede_shape(q, 4),
        "5-centipede": centipede_shape(q, 5),
        "Y-shape (three heads)": y_shape(q),
    }
shapes[3]["radius-2 ball (four heads)"] = complete_shape_from_internal(
    3, "cabde", [("c", x) for x in "abde"]
)

for q, named in shapes.items():
    print(f"== taxonomy at q = {q} ==")
    for name, s in named.items():
        cls = classify_shape(s)
        tag = f"centipede({cls.k})" if cls.tag == "centipede" else f"{cls.tag}(heads={cls.n_heads})"
        subs = maximal_proper_complete_subtrees(s)
        hd = len(heads(s)) if s.diameter() > 2 else "n/a (diameter 2)"
        print(f"  {name:26s} |V|={len(s.vertices):2d} diam={s.diameter()} "
              f"maximal-subtrees={len(subs)} heads={hd} -> {tag}")

    print(f"\n== hit counts at q = {q} are triple-independent ==")
    rng = np.random.default_rng(0)
    for name, s in named.items():
        counts = {count_hitting(s, *random_rays(rng, q, 3, 12)) for _ in range(8)}
        aut_i = aut_order(internal_tree(s))
        print(f"  {name:26s} copies through a random median: {sorted(counts)}"
              f"  |Aut(I)| = {aut_i:3d}  placements of I = {min(counts) * aut_i}")
    print()
print("(the star admits exactly 1 copy through any median, the 3-centipede q+1)")
