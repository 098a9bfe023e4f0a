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


class AbelianGroupPresentation(NamedTuple):
    name: str
    generator_labels: tuple[str, ...]

    @property
    def rank(self) -> int:
        return len(self.generator_labels)


# Where a stated entry comes from: (label, note) pairs, printed as a dict.
Provenance = tuple[tuple[str, str], ...]


class IntegerMap(NamedTuple):
    """A homomorphism of presented groups, as an integer matrix."""

    name: str
    source: AbelianGroupPresentation
    target: AbelianGroupPresentation
    matrix: Matrix  # columns indexed by source generators
    provenance: Provenance = ()

    def mutated(self, row: int, col: int) -> "IntegerMap":
        """This map with entry (row, col) raised by one."""
        m = [list(r) for r in self.matrix]
        m[row][col] += 1
        return self._replace(name=self.name + "*", matrix=as_int_matrix(m))

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "source": list(self.source.generator_labels),
            "target": list(self.target.generator_labels),
            "matrix": [list(row) for row in self.matrix],
            "provenance": dict(self.provenance),
        }


class PairingTable(NamedTuple):
    """Integer pairings of K-theory rows with K-homology columns."""

    rows: tuple[str, ...]  # K-theory labels
    cols: tuple[str, ...]  # K-homology labels
    entries: Matrix
    provenance: Provenance = ()

    def to_dict(self) -> dict:
        return {
            "rows": list(self.rows),
            "cols": list(self.cols),
            "entries": [list(row) for row in self.entries],
            "provenance": dict(self.provenance),
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


def _stated(name: str, rows, rows_of: AbelianGroupPresentation,
            cols_of: AbelianGroupPresentation) -> Matrix:
    """A stated matrix with one row per generator of ``rows_of`` and one
    column per generator of ``cols_of``; any other shape is a ValueError
    naming it."""
    m = as_int_matrix(rows)
    if shape(m) != (rows_of.rank, cols_of.rank):
        raise ValueError(
            f"{name}: matrix shape {shape(m)} does not match "
            f"{rows_of.rank}x{cols_of.rank}"
        )
    return m


def _map(name: str, source: AbelianGroupPresentation, target: AbelianGroupPresentation,
         rows, provenance: dict | None = None) -> IntegerMap:
    return IntegerMap(name, source, target, _stated(name, rows, target, source),
                      tuple((provenance or {}).items()))


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
        _map("id-alpha_* (K0)", K0_T2, K0_T2, [[0, 0], [0, 0]],
             {"note": "alpha fixes [1] and the Bott class"}),
        _map("i_* (K0)", K0_T2, K0_H3, [[1, 0], [0, 1], [0, 0]]),
        _map("delta_0", K0_H3, K1_T2, [[0, 0, 0], [0, 0, 1]],
             {"note": "delta_0[P_b] = [W], other generators map to 0"}),
        _map("id-alpha_* (K1)", K1_T2, K1_T2, [[0, 0], [1, 0]],
             {"note": "[U] maps to [W]"}),
        _map("i_* (K1)", K1_T2, K1_H3, [[1, 0], [0, 0], [0, 0]]),
        _map("delta_1", K1_H3, K0_T2, [[0, 1, 0], [0, 0, 1]],
             {"note": "delta_1[V] = [1], delta_1[V_a] = [P_a]"}),
    ]


def khomology_sequence() -> list[IntegerMap]:
    """The six maps of the K-homology hexagon, in cyclic order starting at
    restriction on the even groups."""
    return [
        _map("i^* (even)", KH0_H3, KH0_T2, [[1, 0, 0], [0, 1, 0]],
             {"d1(w1')": "exactness-derived: restriction kills boundary classes"}),
        _map("id-alpha^* (even)", KH0_T2, KH0_T2, [[0, 0], [0, 0]]),
        _map("d_0", KH0_T2, KH1_H3, [[0, 0], [1, 0], [0, 1]],
             {"note": "d_0(w0) = z1'"}),
        _map("i^* (odd)", KH1_H3, KH1_T2, [[1, 0, 0], [0, 0, 0]],
             {"z1'": "degenerate restriction", "d0(Dirac)": "exactness-derived"}),
        _map("id-alpha^* (odd)", KH1_T2, KH1_T2, [[0, -1], [0, 0]],
             {"note": "w1' maps to -w1"}),
        _map("d_1", KH1_T2, KH0_H3, [[0, 0], [0, 0], [0, 1]],
             {"note": "d_1(w1) pairs to zero with all of K0; stored as 0"}),
    ]


class NodeReport(NamedTuple):
    node: str
    incoming: str
    outgoing: str
    composition_zero: bool
    kernel_in_image: bool
    exact: bool


def check_exactness(maps: list[IntegerMap]) -> list[NodeReport]:
    """Exactness report at each node of a cyclically composed list of maps.

    Each map is diagonalized once: its Smith form gives its kernel where it
    leaves a node and membership in its image where it enters one.
    """
    n = len(maps)
    forms = [smith_diagonalize(m.matrix) for m in maps]
    reports = []
    for i in range(n):
        j = (i + 1) % n
        incoming, outgoing = maps[i], maps[j]
        if incoming.target != outgoing.source:
            raise ValueError(
                f"maps do not chain at position {i}: "
                f"{incoming.name} -> {outgoing.name}"
            )
        reports.append(NodeReport(
            node=incoming.target.name,
            incoming=incoming.name,
            outgoing=outgoing.name,
            **image_equals_kernel(incoming.matrix, outgoing.matrix, (forms[i], forms[j])),
        ))
    return reports


def pairing_tables() -> dict[str, PairingTable]:
    """The four pairing tables, under the names ``pairing table`` prints:
    rows are the K-theory generators and columns the K-homology ones."""
    stated = {
        "even": (K0_H3, KH0_H3, [[1, 0, 0], [1, 1, 0], [1, 0, 1]], {
            "z0": "computed: scalar trace route",
            "Dirac'": "stated, no numeric route; re-derived via duality",
            "d1(w1')": "stated, no numeric route; re-derived via duality",
        }),
        "odd": (K1_H3, KH1_H3, [[1, 0, 0], [0, 1, 0], [0, 1, 1]], {
            "z1": "computed: Toeplitz index route",
            "z1'": "computed: Toeplitz index route",
            "d0(Dirac)": "stated, no numeric route; re-derived via duality",
        }),
        "torus_even": (K0_T2, KH0_T2, [[1, 0], [1, 1]], {}),
        "torus_odd": (K1_T2, KH1_T2, [[1, 0], [0, 1]], {}),
    }
    return {
        name: PairingTable(k.generator_labels, kh.generator_labels,
                           _stated(name, rows, k, kh), tuple(provenance.items()))
        for name, (k, kh, rows, provenance) in stated.items()
    }


def check_duality() -> dict:
    """Verify the adjointness of the K-homology boundary maps with the
    K-theory boundary maps through the pairing tables.

    Identity 1: for odd classes, <d_0(w), q> = <w, delta_1(q)> for all
    torus even classes w and K1(H3) generators q.  Identity 2: the even
    counterpart <d_1(w), q> = <w, delta_0(q)>.
    """
    tables = pairing_tables()
    maps = {m.name: m.matrix for m in (*pv_ktheory_sequence(), *khomology_sequence())}
    instances = []
    for h3, t2, d, delta in (("odd", "torus_even", "d_0", "delta_1"),
                             ("even", "torus_odd", "d_1", "delta_0")):
        qs, ws = tables[h3], tables[t2]
        lhs = matmul(qs.entries, maps[d])                # <q, d(w)> for q in K(H3)
        rhs = matmul(transpose(maps[delta]), ws.entries)  # <delta(q), w>
        for i, q in enumerate(qs.rows):
            for j, w in enumerate(ws.cols):
                instances.append(
                    {
                        "check": f"<{d}({w}), {q}> = <{w}, {delta}({q})>",
                        "lhs": lhs[i][j],
                        "rhs": rhs[i][j],
                        "ok": lhs[i][j] == rhs[i][j],
                    }
                )
    return {"passed": all(r["ok"] for r in instances), "instances": instances}


def check_faithfulness() -> dict:
    tables = pairing_tables()
    de, do = tables["even"].abs_determinant(), tables["odd"].abs_determinant()
    return {
        "even_determinant": de,
        "odd_determinant": do,
        "passed": de == 1 and do == 1,
    }
