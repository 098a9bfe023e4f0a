"""Exact and numerical invariants of the rotation-algebra bundle over the
circle generated by the discrete Heisenberg group.

Modules:

* ``group``: the group law of H3 on exponent triples.
* ``algebra``: exact twisted group-ring arithmetic and finite-dimensional
  evaluations.
* ``derivations``: consistency checking and canonical/inner decomposition
  of derivations.
* ``group_structure``: conjugacy, centralizers and cohomology profiles.
* ``fredholm``: index and trace pairings of the finitely summable modules.
* ``chern``: projector fields over the torus, lattice Chern numbers and the
  Dirac-type graded trace pairing.
* ``integer_lattices``: integer matrices, Smith diagonalization and
  exactness of integer maps.
* ``kk``: integer six-term sequences, pairing tables, duality checks.
* ``acceptance``: the end-to-end verification suite.
* ``cli``: the ``hnc`` command line.

``UnsupportedInput`` lives here, in the module that every other one
loads first, so that a module that refuses input loads no layer for it.
"""

__version__ = "0.1.0"


class UnsupportedInput(ValueError):
    """An input refused before any work: outside a function's domain, or
    past a work bound such as ``algebra.MAX_TERM_PRODUCTS``."""
