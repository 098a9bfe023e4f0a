import time

import numpy as np
import pytest
from conftest import no_work, seeded
from hypothesis import example, given
from hypothesis import strategies as st

from heisenberg_ncg import group_structure
from heisenberg_ncg import UnsupportedInput
from heisenberg_ncg.group import GroupElement
from heisenberg_ncg.group_structure import (
    box_points,
    brute_force_centralizer,
    centralizer_membership,
    classify_element,
    conjugacy_representative,
    cyclic_cohomology_dim,
    group_cohomology,
    periodic_cyclic_dims,
)

ints = st.integers(-10, 10)


def scalar_points(box):
    """One GroupElement per box point, in lexicographic (p, q, r) order."""
    span = range(-box, box + 1)
    return [GroupElement(p, q, r) for p in span for q in span for r in span]


def scalar_centralizer(g, box):
    """The centralizer mask by the scalar triple loop."""
    return np.array([g * h == h * g for h in scalar_points(box)])


class TestClassification:
    def test_case_labels(self):
        assert classify_element(GroupElement(0, 0, 0)).case == "Identity"
        assert classify_element(GroupElement(0, 0, 1)).case == "Case4a"
        assert classify_element(GroupElement(0, 0, -1)).case == "Case4a"
        assert classify_element(GroupElement(0, 0, 5)).case == "Case4b"
        assert classify_element(GroupElement(3, 0, 6)).case == "Case2"
        assert classify_element(GroupElement(0, 3, 6)).case == "Case3"
        assert classify_element(GroupElement(2, 4, 1)).case == "Case1"

    def test_quotient_types(self):
        assert classify_element(GroupElement(0, 0, 0)).ng_type == "H3"
        assert classify_element(GroupElement(0, 0, 1)).ng_type == "Z2"
        assert classify_element(GroupElement(0, 0, 5)).ng_type == "CentralExtension(5)"
        assert classify_element(GroupElement(3, 0, 6)).ng_type == "ZxZl(3)"
        assert classify_element(GroupElement(3, 0, 7)).ng_type == "Z"
        assert classify_element(GroupElement(0, 2, 4)).ng_type == "ZxZl(2)"

    def test_interior_case_invariant(self):
        # k = 2, p' = 1, q' = 2, offset = 1*2*2*1/2 = 2, l = gcd(2, r - 2)
        rep = classify_element(GroupElement(2, 4, 4))
        assert (rep.k, rep.p_prime, rep.q_prime, rep.s_k, rep.l) == (2, 1, 2, 2, 2)
        assert rep.ng_type == "ZxZl(2)"

    @seeded()
    @given(ints, ints, ints)
    def test_quotient_invariant_under_conjugation(self, x, y, z):
        g = GroupElement(2, 4, 1)
        h = GroupElement(x, y, z)
        assert classify_element(h * g * h.inverse()).ng_type == classify_element(g).ng_type


class TestCentralizers:
    @seeded()
    @given(ints, ints, ints, ints, ints, ints)
    def test_membership_predicate_matches_commutation(self, a, b, c, d, e, f):
        g, h = GroupElement(a, b, c), GroupElement(d, e, f)
        assert centralizer_membership(g, h.as_tuple()) == (g * h == h * g)

    @seeded()
    @given(ints, ints, ints, st.integers(0, 4))
    @example(0, 0, 0, 4)
    @example(0, 0, -3, 4)
    def test_brute_force_matches_scalar_loop(self, a, b, c, box):
        g = GroupElement(a, b, c)
        result = brute_force_centralizer(g, box)
        assert np.array_equal(result, scalar_centralizer(g, box))
        assert result.dtype == bool and result.shape == ((2 * box + 1) ** 3,)

    @pytest.mark.parametrize("g", [
        GroupElement(2**62, 1, 0), GroupElement(0, -2**31, 0), GroupElement(1, 1, 2**31)])
    def test_brute_force_rejects_coordinates_that_could_wrap(self, g):
        with pytest.raises(ValueError):
            brute_force_centralizer(g, 6)

    def test_fifty_seeded_elements_match_brute_force(self):
        t0 = time.time()
        rng = np.random.default_rng(20230823 + 2)
        box = 6
        elements = [
            GroupElement(2, 4, 1),
            GroupElement(3, 0, 6),
            GroupElement(0, 3, 6),
            GroupElement(0, 0, 1),
            GroupElement(0, 0, 5),
        ]
        while len(elements) < 50:
            g = GroupElement(*[int(v) for v in rng.integers(-6, 7, 3)])
            if not g.is_identity():
                elements.append(g)
        cases = set()
        for g in elements:
            cases.add(classify_element(g).case)
            brute = brute_force_centralizer(g, box)
            closed = [centralizer_membership(g, h.as_tuple()) for h in scalar_points(box)]
            assert np.array_equal(brute, closed), g.as_tuple()
        assert {"Case1", "Case2", "Case3", "Case4a", "Case4b"} <= cases
        assert time.time() - t0 < 30

    def test_brute_force_runs_on_one_broadcast_box(self, monkeypatch):
        # the mask is in box_points order, without building the box's points
        g = GroupElement(2, -3, 5)
        want = centralizer_membership(g, box_points(6))
        monkeypatch.setattr(group_structure, "box_points", no_work)
        assert np.array_equal(brute_force_centralizer(g, 6), want)

    def test_box_guard(self):
        with pytest.raises(ValueError):
            brute_force_centralizer(GroupElement(1, 0, 0), 13)


class TestConjugacy:
    @seeded()
    @given(ints, ints, ints, ints, ints, ints)
    def test_representative_is_conjugation_invariant(self, a, b, c, d, e, f):
        g, h = GroupElement(a, b, c), GroupElement(d, e, f)
        assert conjugacy_representative(h * g * h.inverse()) == conjugacy_representative(g)

    def test_central_elements_are_singletons(self):
        g = GroupElement(0, 0, 7)
        assert conjugacy_representative(g) == g

    def test_center_exponent_reduced_mod_gcd(self):
        assert conjugacy_representative(GroupElement(2, 4, 5)).r == 1


class TestCohomology:
    def test_profiles(self):
        assert group_cohomology("Z").dims == (1, 1)
        assert group_cohomology("ZxZl(4)").dims == (1, 1)
        assert group_cohomology("Z2").dims == (1, 2, 1)
        assert group_cohomology("CentralExtension(5)").dims == (1, 2, 1)
        assert group_cohomology("H3").dims == (1, 2, 2, 1)
        # a torsion past the 4300 digits that int() converts
        long = "1" + "0" * 4300
        assert group_cohomology(f"ZxZl({long})").dims == (1, 1)
        assert group_cohomology(f"CentralExtension({long})").dims == (1, 2, 1)

    def test_bad_descriptors_rejected(self):
        for t in ("CentralExtension(1)", "F2"):
            with pytest.raises(UnsupportedInput):
                group_cohomology(t)

    @pytest.mark.parametrize("t", ["H3\n", "ZxZl(5)\n", "CentralExtension(5)\n"])
    def test_trailing_newline_rejected(self, t):
        # every descriptor must match the whole string
        with pytest.raises(UnsupportedInput, match="unsupported group descriptor"):
            group_cohomology(t)

    def test_zero_torsion_rejected(self):
        # l = 0 would be Z x Z = Z^2, whose profile is (1, 2, 1), not (1, 1)
        for zero in ("0", "0" * 4301):
            with pytest.raises(UnsupportedInput, match="ZxZl torsion must be >= 1"):
                group_cohomology(f"ZxZl({zero})")
        assert group_cohomology("ZxZl(1)").dims == (1, 1)

    def test_cyclic_ranks(self):
        ranks = [cyclic_cohomology_dim(n).finite_rank for n in range(8)]
        assert ranks == [1, 2, 3, 3, 3, 3, 3, 3]

    def test_negative_degree_rejected_before_the_ranks_are_read(self, monkeypatch):
        class Unread:
            dims = property(no_work)

        monkeypatch.setattr(group_structure, "H3_PROFILE", Unread())
        with pytest.raises(UnsupportedInput, match="degree must be nonnegative"):
            cyclic_cohomology_dim(-1)

    def test_countable_factor_only_in_low_degrees(self):
        flags = [cyclic_cohomology_dim(n).countable_factor for n in range(6)]
        assert flags == [True, True, True, False, False, False]

    def test_periodic_dims(self):
        assert periodic_cyclic_dims() == (3, 3)
