"""Exact and numerical invariants of the rotation-algebra bundle over the
circle generated by the discrete Heisenberg group.

Subpackages:

* ``algebra``: exact twisted group-ring arithmetic and finite-dimensional
  evaluations.
* ``derivations``: consistency checking and canonical/inner decomposition
  of derivations.
* ``group_structure``: conjugacy, centralizers and cohomology profiles.
* ``fredholm``: index and trace pairings of the finitely summable modules.
* ``chern``: projector fields over the torus, lattice Chern numbers and the
  Dirac-type graded trace pairing.
* ``kk``: integer six-term sequences, pairing tables, duality checks.
* ``acceptance``: the end-to-end verification suite.
"""

from .algebra import (
    ONE,
    U,
    V,
    W,
    AlgebraElement,
    GaussianRational,
    GroupElement,
    RationalAngle,
    apply_automorphism,
    conjugate,
    element_from_dict,
    element_from_json,
    element_to_dict,
    element_to_json,
    eval_at_angle,
    is_central,
    quotient_to_torus,
    random_element,
)
from .chern import (
    ProjectorField,
    bott_projector,
    constant_projector,
    dirac_even_pairing,
    lattice_chern,
)
from .derivations import (
    Derivation,
    DecompositionResult,
    apply as apply_derivation,
    canonical_derivation,
    check_consistency,
    compose_from_parts,
    decompose,
    inner_derivation,
    random_consistent_derivation,
)
from .fredholm import (
    even_pairing_trace,
    fredholm_index,
    module_spec,
    odd_pairing,
)
from .group_structure import (
    CentralizerReport,
    brute_force_centralizer,
    centralizer_membership,
    classify_element,
    conjugacy_representative,
    cyclic_cohomology_dim,
    group_cohomology,
    periodic_cyclic_dims,
)
from .kk import (
    check_duality,
    check_exactness,
    check_faithfulness,
    khomology_sequence,
    pairing_tables,
    pv_ktheory_sequence,
    torus_pairing_tables,
)

__version__ = "0.1.0"
