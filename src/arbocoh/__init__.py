"""arbocoh: bounded-cohomology dimensions for tree automorphism groups.

Exact geometry of the (q+1)-regular tree and its boundary, finite complete
subtrees and their taxonomy, constructive branch-swap witnesses, character
tables of tree automorphism groups, the degree-2 dimension formula for
centipede shapes, and spherical-function analysis -- everything at desk
scale, exact where the theory is exact.
"""

from .catalog import enumerate_complete_shapes
from .chartab import CharacterTable, IrrepModel, character_table, invariant_dim, realize_irrep
from .config import Config, load_config
from .errors import ArbocohError
from .flip import FlipWitness, check_flip_witness, find_flip
from .perm import (
    PermGroup,
    Permutation,
    all_subgroups,
    closure,
    conjugacy_classes,
    pointwise_stabilizer,
    setwise_stabilizer,
    shape_automorphism_group,
)
from .reptheory import (
    RepDescriptor,
    classify_bounded_cohomology,
    enumerate_nondegenerate,
    h2_dimension,
    is_nondegenerate,
)
from .shapes import (
    EmbeddedSubtree,
    Shape,
    ShapeClass,
    centipede_shape,
    classify_shape,
    count_hitting,
    edge_shape,
    enumerate_embeddings,
    heads,
    hits,
    maximal_proper_complete_subtrees,
    star_shape,
    validate_complete,
    vertex_shape,
    y_shape,
)
from .spherical import (
    CylinderFunction,
    RadialFunction,
    eigen_residual,
    gram_psd_check,
    inner_product_z,
    intertwiner_matrix,
    is_admissible,
    mu_of_z,
    phi_values,
    pi_z_apply,
)
from .tree import (
    RayPrefix,
    TreeIsometry,
    Vertex,
    busemann,
    cylinder_measure,
    distance,
    extend_isometry,
    gromov_product,
    median,
    poisson_kernel,
)
from .witness import reference_configuration, witness_cochain

__version__ = "0.1.0"

__all__ = [
    "ArbocohError",
    "CharacterTable",
    "Config",
    "CylinderFunction",
    "EmbeddedSubtree",
    "FlipWitness",
    "IrrepModel",
    "PermGroup",
    "Permutation",
    "RadialFunction",
    "RayPrefix",
    "RepDescriptor",
    "Shape",
    "ShapeClass",
    "TreeIsometry",
    "Vertex",
    "all_subgroups",
    "busemann",
    "centipede_shape",
    "character_table",
    "check_flip_witness",
    "classify_bounded_cohomology",
    "classify_shape",
    "closure",
    "conjugacy_classes",
    "count_hitting",
    "cylinder_measure",
    "distance",
    "edge_shape",
    "eigen_residual",
    "enumerate_complete_shapes",
    "enumerate_embeddings",
    "enumerate_nondegenerate",
    "extend_isometry",
    "find_flip",
    "gram_psd_check",
    "gromov_product",
    "h2_dimension",
    "heads",
    "hits",
    "inner_product_z",
    "intertwiner_matrix",
    "invariant_dim",
    "is_admissible",
    "is_nondegenerate",
    "load_config",
    "maximal_proper_complete_subtrees",
    "median",
    "mu_of_z",
    "phi_values",
    "pi_z_apply",
    "pointwise_stabilizer",
    "poisson_kernel",
    "realize_irrep",
    "reference_configuration",
    "setwise_stabilizer",
    "shape_automorphism_group",
    "star_shape",
    "validate_complete",
    "vertex_shape",
    "witness_cochain",
    "y_shape",
]
