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

__version__ = "0.1.0"
