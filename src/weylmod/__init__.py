"""Exact classification and construction of weight modules over Weyl algebras.

The package analyzes shift orbits of separable maximal ideals, builds the
skeleton algebra of each block, constructs the simple and (in tame blocks)
indecomposable weight modules explicitly, and verifies every construction
against the defining relations and brute-force enumeration oracles.  All
arithmetic is exact: rationals, prime fields, and finite tower extensions.
"""

from .errors import WeylmodError
from .fields import GF, QQ, FieldDesc, FieldElem, Poly, extend, is_irreducible, poly_shift
from .heisenberg import (
    default_heisenberg_orbit,
    graded_count,
    graded_count_bruteforce,
    heisenberg_action_check,
)
from .indecomp import (
    QuiverRep,
    RepType,
    brute_force_indecomposables,
    build_order1_modules,
    build_order2_module,
    classify_block,
    q1_indecomposables,
    q2_indecomposables,
    rep_to_weight_module,
    weight_module_to_rep,
)
from .linalg import Matrix, companion_matrix
from .orbits import (
    OrbitInfo,
    SepMaxIdeal,
    ShiftVector,
    Window,
    canonical_skeleton_rep,
    make_window,
    orbit_info,
    region_of,
    sigma_apply,
)
from .simples import (
    SimpleDescriptor,
    build_S_O,
    build_S_O_p,
    build_S_char_p,
    classify_simples,
    structural_simplicity_certificate,
)
from .skeleton import (
    SkelMorphismA,
    SkelMorphismB,
    build_skeleton,
    compose_A,
    compose_B,
    hom_space_A,
)
from .weightmod import (
    SkeletonModuleA,
    SkeletonModuleB,
    WeightModule,
    direct_sum,
    from_skeleton_module,
    is_indecomposable_finite,
    is_simple_finite,
    submodule_closure,
    to_skeleton_module,
    verify_relations,
)

__version__ = "0.1.0"
