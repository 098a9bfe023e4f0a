"""Integer bookkeeping for the six-term sequences and the pairing tables.

The crossed-product decomposition used throughout is the torus algebra
generated by U and W, with the automorphism alpha(U) = WU, alpha(W) = W
implemented by V.  Generator bases:

  K-theory:   K0(T2) = {[1], [P_a]},  K1(T2) = {[U], [W]},
              K0(H3) = {[1], [P_a], [P_b]},  K1(H3) = {[U], [V], [V_a]}.
  K-homology: even(T2) = {w0, Dirac},  odd(T2) = {w1, w1'},
              even(H3) = {z0, Dirac', d1(w1')},  odd(H3) = {z1, z1', d0(Dirac)}.

All maps are stored as integer matrices whose columns are indexed by the
source basis.  Entries that no explicit operator construction reaches are
tagged: either stated by the source classification of the modules, or
forced by exactness of the hexagon.  ``check_duality`` only compares the
stored pairing tables with the stored boundary maps; none of these numbers
is computed from an operator here.
"""

from __future__ import annotations

from math import prod
from typing import NamedTuple

from .integer_lattices import (
    Matrix,
    as_int_matrix,
    image_equals_kernel,
    matmul,
    shape,
    smith_diagonalize,
    transpose,
)


class _Record:
    """An immutable __slots__ record: equality and hashing read the fields
    that ``_compared`` returns, so that ``provenance`` is left out."""

    __slots__ = ()

    def _set(self, **fields) -> None:
        for name, value in fields.items():
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._compared() == other._compared()

    def __hash__(self):
        return hash(self._compared())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"


class AbelianGroupPresentation(NamedTuple):
    name: str
    generator_labels: tuple[str, ...]

    @property
    def rank(self) -> int:
        return len(self.generator_labels)


class IntegerMap(_Record):
    """A homomorphism of presented groups, as an integer matrix.

    Instances are immutable; equality and hashing ignore ``provenance``.
    """

    __slots__ = ("name", "source", "target", "matrix", "provenance")
    name: str
    source: AbelianGroupPresentation
    target: AbelianGroupPresentation
    matrix: Matrix  # columns indexed by source generators
    provenance: dict

    def __init__(self, name: str, source: AbelianGroupPresentation,
                 target: AbelianGroupPresentation, matrix, provenance: dict | None = None):
        m = as_int_matrix(matrix)
        if shape(m) != (target.rank, source.rank):
            raise ValueError(
                f"{name}: matrix shape {shape(m)} does not match "
                f"{target.rank}x{source.rank}"
            )
        self._set(name=name, source=source, target=target, matrix=m,
                  provenance={} if provenance is None else provenance)

    def _compared(self) -> tuple:
        return (self.name, self.source, self.target, self.matrix)

    def mutated(self, row: int, col: int) -> "IntegerMap":
        """This map with entry (row, col) raised by one."""
        m = [list(r) for r in self.matrix]
        m[row][col] += 1
        return IntegerMap(self.name + "*", self.source, self.target, m, dict(self.provenance))

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "source": list(self.source.generator_labels),
            "target": list(self.target.generator_labels),
            "matrix": [list(row) for row in self.matrix],
            "provenance": self.provenance,
        }


class PairingTable(_Record):
    """Integer pairings of K-theory rows with K-homology columns.

    Instances are immutable; equality and hashing ignore ``provenance``.
    """

    __slots__ = ("rows", "cols", "entries", "provenance")
    rows: tuple[str, ...]  # K-theory labels
    cols: tuple[str, ...]  # K-homology labels
    entries: Matrix
    provenance: dict

    def __init__(self, rows: tuple[str, ...], cols: tuple[str, ...], entries,
                 provenance: dict | None = None):
        m = as_int_matrix(entries)
        if shape(m) != (len(rows), len(cols)):
            raise ValueError("pairing table shape mismatch")
        self._set(rows=rows, cols=cols, entries=m,
                  provenance={} if provenance is None else provenance)

    def _compared(self) -> tuple:
        return (self.rows, self.cols, self.entries)

    def to_dict(self) -> dict:
        return {
            "rows": list(self.rows),
            "cols": list(self.cols),
            "entries": [list(row) for row in self.entries],
            "provenance": self.provenance,
        }

    def entry(self, row: str, col: str) -> int:
        return self.entries[self.rows.index(row)][self.cols.index(col)]

    def abs_determinant(self) -> int:
        """|det| of a square table: the Smith transforms are unimodular, so it
        is the absolute value of the product of the diagonal."""
        if len(self.rows) != len(self.cols):
            raise ValueError("determinant of a non-square table")
        _, d, _ = smith_diagonalize(self.entries)
        return abs(prod(d[i][i] for i in range(len(d))))


K0_T2 = AbelianGroupPresentation("K0(T2)", ("[1]", "[P_a]"))
K1_T2 = AbelianGroupPresentation("K1(T2)", ("[U]", "[W]"))
K0_H3 = AbelianGroupPresentation("K0(H3)", ("[1]", "[P_a]", "[P_b]"))
K1_H3 = AbelianGroupPresentation("K1(H3)", ("[U]", "[V]", "[V_a]"))

KH0_T2 = AbelianGroupPresentation("even-KK(T2)", ("w0", "Dirac"))
KH1_T2 = AbelianGroupPresentation("odd-KK(T2)", ("w1", "w1'"))
KH0_H3 = AbelianGroupPresentation("even-KK(H3)", ("z0", "Dirac'", "d1(w1')"))
KH1_H3 = AbelianGroupPresentation("odd-KK(H3)", ("z1", "z1'", "d0(Dirac)"))


def pv_ktheory_sequence() -> list[IntegerMap]:
    """The six maps of the K-theory hexagon, in cyclic order starting at
    (id - alpha_*) on K0 of the torus."""
    return [
        IntegerMap(
            "id-alpha_* (K0)",
            K0_T2,
            K0_T2,
            [[0, 0], [0, 0]],
            {"note": "alpha fixes [1] and the Bott class"},
        ),
        IntegerMap("i_* (K0)", K0_T2, K0_H3, [[1, 0], [0, 1], [0, 0]]),
        IntegerMap(
            "delta_0",
            K0_H3,
            K1_T2,
            [[0, 0, 0], [0, 0, 1]],
            {"note": "delta_0[P_b] = [W], other generators map to 0"},
        ),
        IntegerMap(
            "id-alpha_* (K1)",
            K1_T2,
            K1_T2,
            [[0, 0], [1, 0]],
            {"note": "[U] maps to [W]"},
        ),
        IntegerMap("i_* (K1)", K1_T2, K1_H3, [[1, 0], [0, 0], [0, 0]]),
        IntegerMap(
            "delta_1",
            K1_H3,
            K0_T2,
            [[0, 1, 0], [0, 0, 1]],
            {"note": "delta_1[V] = [1], delta_1[V_a] = [P_a]"},
        ),
    ]


def khomology_sequence() -> list[IntegerMap]:
    """The six maps of the K-homology hexagon, in cyclic order starting at
    restriction on the even groups."""
    return [
        IntegerMap(
            "i^* (even)",
            KH0_H3,
            KH0_T2,
            [[1, 0, 0], [0, 1, 0]],
            {
                "d1(w1')": "exactness-derived: restriction kills boundary classes",
            },
        ),
        IntegerMap("id-alpha^* (even)", KH0_T2, KH0_T2, [[0, 0], [0, 0]]),
        IntegerMap(
            "d_0",
            KH0_T2,
            KH1_H3,
            [[0, 0], [1, 0], [0, 1]],
            {"note": "d_0(w0) = z1'"},
        ),
        IntegerMap(
            "i^* (odd)",
            KH1_H3,
            KH1_T2,
            [[1, 0, 0], [0, 0, 0]],
            {
                "z1'": "degenerate restriction",
                "d0(Dirac)": "exactness-derived",
            },
        ),
        IntegerMap(
            "id-alpha^* (odd)",
            KH1_T2,
            KH1_T2,
            [[0, -1], [0, 0]],
            {"note": "w1' maps to -w1"},
        ),
        IntegerMap(
            "d_1",
            KH1_T2,
            KH0_H3,
            [[0, 0], [0, 0], [0, 1]],
            {"note": "d_1(w1) pairs to zero with all of K0; stored as 0"},
        ),
    ]


class NodeReport(NamedTuple):
    node: str
    incoming: str
    outgoing: str
    composition_zero: bool
    kernel_in_image: bool
    exact: bool


def check_exactness(maps: list[IntegerMap]) -> list[NodeReport]:
    """Exactness report at each node of a cyclically composed list of maps."""
    n = len(maps)
    reports = []
    for i in range(n):
        incoming = maps[i]
        outgoing = maps[(i + 1) % n]
        if incoming.target != outgoing.source:
            raise ValueError(
                f"maps do not chain at position {i}: "
                f"{incoming.name} -> {outgoing.name}"
            )
        reports.append(NodeReport(
            node=incoming.target.name,
            incoming=incoming.name,
            outgoing=outgoing.name,
            **image_equals_kernel(incoming.matrix, outgoing.matrix),
        ))
    return reports


def pairing_tables() -> tuple[PairingTable, PairingTable]:
    even = PairingTable(
        rows=("[1]", "[P_a]", "[P_b]"),
        cols=("z0", "Dirac'", "d1(w1')"),
        entries=[[1, 0, 0], [1, 1, 0], [1, 0, 1]],
        provenance={
            "z0": "computed: scalar trace route",
            "Dirac'": "stated, no numeric route; re-derived via duality",
            "d1(w1')": "stated, no numeric route; re-derived via duality",
        },
    )
    odd = PairingTable(
        rows=("[U]", "[V]", "[V_a]"),
        cols=("z1", "z1'", "d0(Dirac)"),
        entries=[[1, 0, 0], [0, 1, 0], [0, 1, 1]],
        provenance={
            "z1": "computed: Toeplitz index route",
            "z1'": "computed: Toeplitz index route",
            "d0(Dirac)": "stated, no numeric route; re-derived via duality",
        },
    )
    return even, odd


def torus_pairing_tables() -> tuple[PairingTable, PairingTable]:
    """Base pairings over the torus: even rows [1], [P_a]; odd rows [U], [W]."""
    even = PairingTable(
        rows=("[1]", "[P_a]"),
        cols=("w0", "Dirac"),
        entries=[[1, 0], [1, 1]],
    )
    odd = PairingTable(
        rows=("[U]", "[W]"),
        cols=("w1", "w1'"),
        entries=[[1, 0], [0, 1]],
    )
    return even, odd


def check_duality() -> dict:
    """Verify the adjointness of the K-homology boundary maps with the
    K-theory boundary maps through the pairing tables.

    Identity 1: for odd classes, <d_0(w), q> = <w, delta_1(q)> for all
    torus even classes w and K1(H3) generators q.  Identity 2: the even
    counterpart <d_1(w), q> = <w, delta_0(q)>.
    """
    even, odd = pairing_tables()
    even_t2, odd_t2 = torus_pairing_tables()
    kth = {m.name: m for m in pv_ktheory_sequence()}
    kh = {m.name: m for m in khomology_sequence()}

    # Coordinates of d_0(w0), d_0(Dirac) in the odd H3 basis; likewise d_1.
    d0 = kh["d_0"].matrix  # 3x2, cols w0, Dirac
    d1 = kh["d_1"].matrix  # 3x2, cols w1, w1'
    delta1 = kth["delta_1"].matrix  # 2x3, cols [U],[V],[V_a]
    delta0 = kth["delta_0"].matrix  # 2x3, cols [1],[P_a],[P_b]

    lhs_odd = matmul(odd.entries, d0)                     # <q, d_0(w)> for q in K1(H3)
    rhs_odd = matmul(transpose(delta1), even_t2.entries)  # <delta_1(q), w>
    lhs_even = matmul(even.entries, d1)                   # <q, d_1(w)> for q in K0(H3)
    rhs_even = matmul(transpose(delta0), odd_t2.entries)  # <delta_0(q), w>

    instances = []
    for i, q in enumerate(odd.rows):
        for j, w in enumerate(even_t2.cols):
            instances.append(
                {
                    "check": f"<d_0({w}), {q}> = <{w}, delta_1({q})>",
                    "lhs": lhs_odd[i][j],
                    "rhs": rhs_odd[i][j],
                    "ok": lhs_odd[i][j] == rhs_odd[i][j],
                }
            )
    for i, q in enumerate(even.rows):
        for j, w in enumerate(odd_t2.cols):
            instances.append(
                {
                    "check": f"<d_1({w}), {q}> = <{w}, delta_0({q})>",
                    "lhs": lhs_even[i][j],
                    "rhs": rhs_even[i][j],
                    "ok": lhs_even[i][j] == rhs_even[i][j],
                }
            )
    return {"passed": all(r["ok"] for r in instances), "instances": instances}


def check_faithfulness() -> dict:
    even, odd = pairing_tables()
    de, do = even.abs_determinant(), odd.abs_determinant()
    return {
        "even_determinant": de,
        "odd_determinant": do,
        "passed": de == 1 and do == 1,
    }


def predicted_failure_node(maps: list[IntegerMap], index: int) -> list[str]:
    """Nodes adjacent to the mutated map where exactness can break.

    A mutation of maps[index] can only affect exactness at its source node
    (where it is the outgoing map) and at its target node (where it is the
    incoming map).
    """
    return [maps[index].source.name, maps[index].target.name]
