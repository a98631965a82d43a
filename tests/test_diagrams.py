"""Diagram indexing: valid pair sequences, enumeration order, counting."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from critshe.diagrams import DiagramIndex, classify, count, enumerate_diagrams
from critshe.errors import DomainError


class TestDiagramIndex:
    def test_valid_construction(self):
        d = DiagramIndex(3, ((1, 2), (1, 3), (1, 2)))
        assert d.m == 3
        assert d.n == 3

    def test_pair_order_normalized_or_rejected(self):
        # pairs must satisfy i < j
        with pytest.raises(DomainError):
            DiagramIndex(3, ((2, 1),))

    def test_rejects_equal_indices(self):
        with pytest.raises(DomainError):
            DiagramIndex(3, ((2, 2),))

    def test_rejects_out_of_range(self):
        with pytest.raises(DomainError):
            DiagramIndex(3, ((1, 4),))
        with pytest.raises(DomainError):
            DiagramIndex(3, ((0, 1),))

    def test_rejects_consecutive_repeat(self):
        with pytest.raises(DomainError):
            DiagramIndex(3, ((1, 2), (1, 2)))

    def test_allows_nonconsecutive_repeat(self):
        d = DiagramIndex(3, ((1, 2), (1, 3), (1, 2)))
        assert d.pairs[0] == d.pairs[2]

    def test_rejects_empty_and_small_n(self):
        with pytest.raises(DomainError):
            DiagramIndex(3, ())
        with pytest.raises(DomainError):
            DiagramIndex(1, ((1, 2),))

    def test_hashable_for_dict_keys(self):
        a = DiagramIndex(2, ((1, 2),))
        b = DiagramIndex(2, ((1, 2),))
        assert a == b and hash(a) == hash(b) and {a: 1}[b] == 1


class TestEnumeration:
    def test_known_small_counts(self):
        assert count(2, 1) == 1
        assert count(2, 2) == 0  # one pair only, consecutive-distinct kills m=2
        assert count(3, 1) == 3
        assert count(3, 2) == 6
        assert count(4, 2) == 30

    def test_count_matches_closed_form(self):
        for n in range(2, 6):
            q = n * (n - 1) // 2
            for m in range(1, 6):
                assert count(n, m) == q * (q - 1) ** (m - 1)

    def test_enumeration_matches_count(self):
        for n in range(2, 5):
            for m in range(1, 4):
                ds = enumerate_diagrams(n, m)
                assert len(ds) == count(n, m)
                assert len(set(ds)) == len(ds)

    def test_enumeration_is_lexicographic(self):
        ds = enumerate_diagrams(3, 2)
        keys = [d.pairs for d in ds]
        assert keys == sorted(keys)

    def test_brute_force_cross_check(self):
        # independent oracle: filter all q^m raw tuples by the adjacency rule
        n, m = 4, 3
        all_pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
        valid = [
            seq
            for seq in itertools.product(all_pairs, repeat=m)
            if all(seq[k] != seq[k + 1] for k in range(m - 1))
        ]
        assert len(valid) == count(n, m)
        assert sorted(valid) == [d.pairs for d in enumerate_diagrams(n, m)]

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            count(1, 1)
        with pytest.raises(DomainError):
            count(3, 0)
        with pytest.raises(DomainError):
            enumerate_diagrams(1, 2)

    @given(st.integers(min_value=2, max_value=5), st.integers(min_value=1, max_value=4))
    @settings(max_examples=30, deadline=None)
    def test_every_enumerated_diagram_validates(self, n, m):
        for d in enumerate_diagrams(n, m):
            # reconstruction through the validating constructor must succeed
            assert DiagramIndex(n, d.pairs) == d


class TestClassification:
    def test_degenerate_when_some_particle_unused(self):
        # n=3 but only particles 1,2 ever interact
        d = DiagramIndex(3, ((1, 2),))
        assert classify(d) is True

    def test_nondegenerate_when_all_used(self):
        d = DiagramIndex(3, ((1, 2), (1, 3)))
        assert classify(d) is False

    def test_n2_single_pair_not_degenerate(self):
        assert classify(DiagramIndex(2, ((1, 2),))) is False

    def test_degenerate_count_n3_m1(self):
        # at n=3, m=1 every diagram leaves one particle untouched
        flags = [classify(d) for d in enumerate_diagrams(3, 1)]
        assert flags == [True, True, True]

    def test_nondegenerate_fraction_n3_m2(self):
        ds = enumerate_diagrams(3, 2)
        nondeg = [d for d in ds if not classify(d)]
        # 6 total; the pairs must differ, so both cover all 3 particles
        # unless they share both particles -- impossible for distinct pairs
        assert len(nondeg) == 6
