"""Automorphism groups of complete shapes and their character tables.

Aut(S) is computed from canonical subtree codes (sibling swaps plus the
center flip), the table by the class-algebra method: a float64
eigen-solve whose rounded rows are proved exact in integer arithmetic.
All groups arising from complete shapes have integer tables.
"""

from arbocoh import character_table, shape_automorphism_group
from arbocoh.catalog import enumerate_complete_shapes
from arbocoh.shapes import centipede_shape, classify_shape

print("== the shape catalog at q=2 up to diameter 5 ==")
for s in enumerate_complete_shapes(2, 5):
    G = shape_automorphism_group(s)
    t = character_table(G)
    cls = classify_shape(s)
    tag = f"centipede({cls.k})" if cls.tag == "centipede" else cls.tag
    print(
        f"  |V|={len(s.vertices):3d} diam={s.diameter()}  {tag:15s}"
        f" |Aut|={G.order:4d} degrees={list(t.degrees)}"
    )

print("\n== the order-8 dihedral table (any q=2 centipede of diameter 3..5) ==")
t = character_table(shape_automorphism_group(centipede_shape(2, 4)))
sizes = t.class_sizes()
print("  class sizes:", list(sizes))
for r in range(t.n_rows):
    row = " ".join(f"{v:3d}" for v in t.characters[r])
    print(f"  chi_{r} (deg {t.degrees[r]}): {row}")
print("  sum of squared degrees:", sum(d * d for d in t.degrees), "= group order", t.group.order)
