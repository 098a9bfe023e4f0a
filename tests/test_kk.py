import pytest
from conftest import smith_calls

from heisenberg_ncg.acceptance import KTHEORY_REPRESENTATIVES, criterion_8_exactness
from heisenberg_ncg.algebra import W
from heisenberg_ncg.fredholm import even_pairing_trace, odd_cocycle_pairing, odd_pairing
from heisenberg_ncg.kk import (
    K0_H3,
    K0_T2,
    K1_H3,
    K1_T2,
    KH0_H3,
    KH0_T2,
    KH1_H3,
    KH1_T2,
    IntegerMap,
    PairingTable,
    _map,
    check_duality,
    check_exactness,
    check_faithfulness,
    khomology_sequence,
    pairing_tables,
    pv_ktheory_sequence,
)


class TestSequencesExact:
    @pytest.mark.parametrize("builder", [pv_ktheory_sequence, khomology_sequence])
    def test_all_nodes_exact(self, builder):
        reports = check_exactness(builder())
        assert len(reports) == 6
        for rep in reports:
            assert rep.exact, rep.node
            assert rep.composition_zero and rep.kernel_in_image

    def test_ktheory_map_values(self):
        maps = {m.name: [list(row) for row in m.matrix] for m in pv_ktheory_sequence()}
        assert maps["id-alpha_* (K0)"] == [[0, 0], [0, 0]]
        assert maps["i_* (K0)"] == [[1, 0], [0, 1], [0, 0]]
        assert maps["delta_0"] == [[0, 0, 0], [0, 0, 1]]
        assert maps["id-alpha_* (K1)"] == [[0, 0], [1, 0]]
        assert maps["i_* (K1)"] == [[1, 0], [0, 0], [0, 0]]
        assert maps["delta_1"] == [[0, 1, 0], [0, 0, 1]]

    def test_khomology_map_values(self):
        maps = {m.name: [list(row) for row in m.matrix] for m in khomology_sequence()}
        assert maps["i^* (even)"] == [[1, 0, 0], [0, 1, 0]]
        assert maps["id-alpha^* (even)"] == [[0, 0], [0, 0]]
        assert maps["d_0"] == [[0, 0], [1, 0], [0, 1]]
        assert maps["i^* (odd)"] == [[1, 0, 0], [0, 0, 0]]
        assert maps["id-alpha^* (odd)"] == [[0, -1], [0, 0]]
        assert maps["d_1"] == [[0, 0], [0, 0], [0, 1]]


class TestMutations:
    """Each of the 12 maps is perturbed by +1 in its (0, 0) entry.

    These curated mutations are known to break exactness; a randomly chosen
    single-entry mutation need not (it can amount to a unimodular change of
    basis), so the test freezes this specific family.
    """

    @pytest.mark.parametrize("builder", [pv_ktheory_sequence, khomology_sequence])
    @pytest.mark.parametrize("index", range(6))
    def test_mutation_breaks_at_predicted_node(self, builder, index):
        seq = builder()
        seq[index] = seq[index].mutated(0, 0)
        failed = [r.node for r in check_exactness(seq) if not r.exact]
        assert failed, f"mutating {seq[index].name} left the sequence exact"
        # only the mutated map's source and target can lose exactness
        assert set(failed) <= {seq[index].source.name, seq[index].target.name}

    @pytest.mark.parametrize("builder", [pv_ktheory_sequence, khomology_sequence])
    @pytest.mark.parametrize("index", [None, *range(6)])
    def test_each_map_is_diagonalized_once(self, monkeypatch, builder, index):
        # one Smith form per map gives both its kernel and its image
        seq = builder()
        if index is not None:
            seq[index] = seq[index].mutated(0, 0)
        calls = smith_calls(monkeypatch)
        check_exactness(seq)
        assert calls == [m.matrix for m in seq]

    def test_criterion_8_diagonalizes_each_map_instance_once(self, monkeypatch):
        # 2 hexagons and 12 mutants of 6 maps each
        calls = smith_calls(monkeypatch)
        assert criterion_8_exactness()["passed"]
        assert len(calls) == 84

    def test_maps_are_immutable_and_compare_with_provenance(self):
        m = pv_ktheory_sequence()[0]
        with pytest.raises(AttributeError):
            m.matrix = ((1, 0), (0, 1))
        same = IntegerMap(*m)
        assert same == m and hash(same) == hash(m)
        bare = IntegerMap(m.name, m.source, m.target, m.matrix)
        assert bare.provenance == () != m.provenance
        assert bare != m
        assert m.mutated(0, 0) != m

    def test_builder_refuses_a_mis_shaped_matrix(self):
        # a matrix must match the ranks of its groups, not merely chain
        with pytest.raises(ValueError, match=r"^short: matrix shape \(1, 2\) does not match 3x2$"):
            _map("short", K0_T2, K0_H3, [[1, 0]])

    def test_mutated_preserves_original(self):
        seq = pv_ktheory_sequence()
        m = seq[1].mutated(0, 0)
        assert m.matrix[0][0] == seq[1].matrix[0][0] + 1
        assert seq[1].matrix[0][0] == 1


class TestPairingTables:
    def test_frozen_values(self):
        tables = pairing_tables()
        even, odd = tables["even"], tables["odd"]
        assert [list(row) for row in even.entries] == [[1, 0, 0], [1, 1, 0], [1, 0, 1]]
        assert [list(row) for row in odd.entries] == [[1, 0, 0], [0, 1, 0], [0, 1, 1]]
        assert even.rows == ("[1]", "[P_a]", "[P_b]")
        assert odd.rows == ("[U]", "[V]", "[V_a]")

    def test_torus_values(self):
        tables = pairing_tables()
        assert [list(row) for row in tables["torus_even"].entries] == [[1, 0], [1, 1]]
        assert [list(row) for row in tables["torus_odd"].entries] == [[1, 0], [0, 1]]

    def test_torus_tables_agree_with_the_existing_routes(self):
        # i_* sends the torus generators [1], [P_a] and [U] to the H3
        # generators of the same names, so criterion 1's representatives
        # serve; [W] is W
        reps = {**KTHEORY_REPRESENTATIVES, "[W]": W}
        tables = pairing_tables()
        odd = tables["torus_odd"]
        for col, module in (("w1", "w1"), ("w1'", "w1prime")):
            for row in odd.rows:
                assert odd_cocycle_pairing(module, reps[row]) == odd.entry(row, col)
                assert odd_pairing(module, reps[row]).index == odd.entry(row, col)
        even = tables["torus_even"]
        for row in even.rows:
            assert even_pairing_trace("w0", reps[row]) == even.entry(row, "w0")

    def test_rows_and_columns_are_the_presentations_labels(self):
        presentations = {"even": (K0_H3, KH0_H3), "odd": (K1_H3, KH1_H3),
                         "torus_even": (K0_T2, KH0_T2), "torus_odd": (K1_T2, KH1_T2)}
        tables = pairing_tables()
        assert tables.keys() == presentations.keys()
        for name, (ktheory, khomology) in presentations.items():
            assert tables[name].rows == ktheory.generator_labels
            assert tables[name].cols == khomology.generator_labels

    def test_entry_lookup(self):
        tables = pairing_tables()
        even, odd = tables["even"], tables["odd"]
        assert even.entry("[P_a]", "Dirac'") == 1
        assert odd.entry("[V_a]", "d0(Dirac)") == 1
        assert odd.entry("[U]", "z1'") == 0

    def test_unimodular(self):
        for table in pairing_tables().values():
            assert table.abs_determinant() == 1

    @pytest.mark.parametrize("entries,det", [
        ([[2, 3, 1], [4, 1, 7], [0, 5, 2]], 70),
        ([[0, 1], [1, 0]], 1),
        ([[1, 2, 0, 0], [3, 4, 0, 0], [0, 0, 0, 5], [0, 0, 7, 1]], 70),
        ([[1, 2], [2, 4]], 0),
    ])
    def test_abs_determinant(self, entries, det):
        n = len(entries)
        labels = tuple(str(i) for i in range(n))
        assert PairingTable(labels, labels, entries).abs_determinant() == det

    def test_faithfulness(self):
        assert check_faithfulness()["passed"]

    def test_tables_are_immutable_and_compare_with_provenance(self):
        even = pairing_tables()["even"]
        with pytest.raises(AttributeError):
            even.entries = ((0,),)
        same = PairingTable(*even)
        assert same == even and hash(same) == hash(even)
        bare = PairingTable(even.rows, even.cols, even.entries)
        assert bare.provenance == () != even.provenance
        assert bare != even
        assert even._replace(entries=((1, 0, 0), (1, 1, 0), (1, 0, 2))) != even


class TestDuality:
    def test_all_instances_hold(self):
        rep = check_duality()
        assert rep["passed"]
        assert len(rep["instances"]) == 12
        for inst in rep["instances"]:
            assert inst["ok"], inst
            assert inst["lhs"] == inst["rhs"]
