import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqcong import (
    ContainmentError,
    FrequencyMap,
    Partition,
    conjugate,
    durfee_size,
    from_frequencies,
    head_above,
    is_self_conjugate,
    oplus_merge,
    remove_parts,
    render_diagram,
    scalar_mul,
    shift,
    star_add,
    tail,
    unshift,
)
from seqcong.partition import MAX_PART

from conftest import all_partitions_upto, conjugate_by_transpose, partitions_st


class TestConstruction:
    def test_rejects_increasing(self):
        with pytest.raises(ValueError):
            Partition([1, 2])

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            Partition([3, 0])

    def test_rejects_oversize_part(self):
        with pytest.raises(OverflowError):
            Partition([MAX_PART + 1])

    def test_part_accessor_reads_zero_past_end(self):
        p = Partition([3, 1])
        assert p.part(1) == 3 and p.part(2) == 1 and p.part(3) == 0

    def test_empty(self):
        p = Partition()
        assert p.size == 0 and len(p) == 0 and p.largest == 0


class TestConjugate:
    def test_paper_example(self):
        assert conjugate(Partition([7, 5, 5, 4, 1])) == Partition([5, 4, 4, 4, 3, 1, 1])

    def test_empty(self):
        assert conjugate(Partition()) == Partition()

    def test_derived_example(self):
        # transpose of the 3-row diagram of (6,4,1), column by column
        assert conjugate(Partition([6, 4, 1])) == Partition([3, 2, 2, 2, 1, 1])

    def test_matches_transpose_oracle_exhaustively(self):
        for p in all_partitions_upto(14):
            assert conjugate(p) == conjugate_by_transpose(p)

    def test_involution_exhaustively(self):
        for p in all_partitions_upto(14):
            assert conjugate(conjugate(p)) == p


class TestSelfConjugate:
    @pytest.mark.parametrize(
        "parts,expected",
        [((3, 2, 1), True), ((2, 1), True), ((), True), ((4, 1), False), ((3, 3), False)],
    )
    def test_examples(self, parts, expected):
        assert is_self_conjugate(Partition(parts)) is expected

    def test_matches_conjugate_equality_exhaustively(self):
        for p in all_partitions_upto(14):
            assert is_self_conjugate(p) == (conjugate(p) == p)


class TestStarAdd:
    def test_paper_example(self):
        assert star_add(Partition([5, 3, 2, 2]), Partition([3, 2, 1])) == Partition([8, 5, 3, 2])

    def test_identity(self):
        p = Partition([4, 2])
        assert star_add(p, Partition()) == p

    def test_doubling_matches_scalar(self):
        p = Partition([2, 2])
        assert star_add(p, p) == scalar_mul(2, p) == Partition([4, 4])

    def test_overflow(self):
        with pytest.raises(OverflowError):
            star_add(Partition([MAX_PART]), Partition([1]))

    @given(partitions_st, partitions_st)
    def test_size_and_length_laws(self, a, b):
        s = star_add(a, b)
        assert s.size == a.size + b.size
        assert len(s) == max(len(a), len(b))


class TestScalarMul:
    def test_zero_annihilates(self):
        assert scalar_mul(0, Partition([5, 1])) == Partition()

    def test_triple(self):
        assert scalar_mul(3, Partition([3, 3, 3])) == Partition([9, 9, 9])

    @given(st.integers(1, 5), partitions_st)
    def test_matches_repeated_star(self, c, p):
        acc = Partition()
        for _ in range(c):
            acc = star_add(acc, p)
        assert acc == scalar_mul(c, p)


class TestOplus:
    def test_multiset_merge(self):
        assert oplus_merge(Partition([3, 1]), Partition([2, 1])) == Partition([3, 2, 1, 1])

    def test_identity(self):
        p = Partition([2, 2])
        assert oplus_merge(p, Partition()) == p

    def test_duplicate_retained(self):
        assert oplus_merge(Partition([2]), Partition([2])) == Partition([2, 2])

    @given(partitions_st, partitions_st)
    def test_size_and_length_laws(self, a, b):
        s = oplus_merge(a, b)
        assert s.size == a.size + b.size
        assert len(s) == len(a) + len(b)


class TestShiftAndTail:
    def test_shift_example(self):
        assert shift(Partition([2, 1]), 1) == Partition([3, 2])

    def test_shift_zero_and_empty(self):
        p = Partition([1, 1])
        assert shift(p, 0) == p
        assert shift(Partition(), 7) == Partition()
        assert shift(p, 2) == Partition([3, 3])

    @given(partitions_st, st.integers(0, 10))
    def test_shift_unshift_roundtrip(self, p, m):
        assert unshift(shift(p, m), m) == p

    def test_tail_paper_example(self):
        assert tail(Partition([3, 3, 2, 1, 1, 1]), 2) == Partition([2, 1, 1, 1])

    def test_tail_edges(self):
        p = Partition([3, 3, 2, 1, 1, 1])
        assert tail(p, 0) == Partition()
        assert tail(p, 5) == p

    @given(partitions_st, st.integers(0, 24))
    def test_tail_head_partition(self, p, m):
        assert oplus_merge(tail(p, m), head_above(p, m)) == p


class TestDurfee:
    @pytest.mark.parametrize("parts,d", [((7, 6, 3, 3, 1), 3), ((), 0), ((1, 1, 1, 1), 1)])
    def test_examples(self, parts, d):
        assert durfee_size(Partition(parts)) == d

    def test_against_direct_count(self):
        for p in all_partitions_upto(12):
            expected = sum(1 for i, x in enumerate(p.parts, 1) if x >= i)
            assert durfee_size(p) == expected


class TestFrequencyMap:
    def test_roundtrip_exhaustive(self):
        for p in all_partitions_upto(14):
            assert FrequencyMap.from_partition(p).to_partition() == p

    def test_rejects_zero_frequency(self):
        with pytest.raises(ValueError):
            FrequencyMap({2: 0})

    @pytest.mark.parametrize("entries", [{True: 1}, {2: True}, {2.0: 1}])
    def test_rejects_non_integers(self, entries):
        with pytest.raises(ValueError, match="positive integers"):
            FrequencyMap(entries)

    def test_from_frequencies_skips_zero_multiplicities(self):
        assert from_frequencies([(3, 2), (5, 0)]) == Partition([3, 3])


class TestRemoveParts:
    def test_single(self):
        assert remove_parts(Partition([3, 2, 1]), FrequencyMap({3: 1})) == Partition([2, 1])

    def test_everything(self):
        assert remove_parts(Partition([2, 1]), FrequencyMap({2: 1, 1: 1})) == Partition()

    def test_multiplicity_aware(self):
        assert remove_parts(Partition([4, 1, 1, 1]), FrequencyMap({1: 2})) == Partition([4, 1])

    def test_not_contained(self):
        with pytest.raises(ContainmentError):
            remove_parts(Partition([3, 1]), FrequencyMap({2: 1}))


class TestRenderDiagram:
    def test_two_one(self):
        assert render_diagram(Partition([2, 1])) == "■ ■\n■"

    def test_empty(self):
        assert render_diagram(Partition()) == "(empty)"

    def test_rectangle(self):
        lines = render_diagram(Partition([3, 3])).splitlines()
        assert len(lines) == 2 and all(line.count("■") == 3 for line in lines)


class TestOrderingAndHash:
    def test_hashable_set_membership(self):
        s = {Partition([2, 1]), Partition([2, 1]), Partition([3])}
        assert len(s) == 2

    def test_ordering_is_by_parts(self):
        assert Partition([2, 1]) < Partition([3]) <= Partition([3]) and Partition([3]) > Partition([2, 1])
        assert sorted([Partition([3]), Partition([1, 1, 1]), Partition([2, 1])]) == [
            Partition([1, 1, 1]), Partition([2, 1]), Partition([3])]

    @pytest.mark.parametrize("other", [5, (1,), [1], None])
    def test_ordering_against_another_type_raises_type_error(self, other):
        p = Partition([1])
        for compare in (lambda: p < other, lambda: p <= other, lambda: p > other, lambda: p >= other,
                        lambda: other < p, lambda: other > p):
            with pytest.raises(TypeError):
                compare()

    @given(partitions_st)
    @settings(max_examples=30)
    def test_repr_str_stable(self, p):
        assert str(p) == str(Partition(p.parts))
