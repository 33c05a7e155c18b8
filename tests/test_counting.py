import random

import pytest

from seqcong import (
    AnalysisBound,
    CNotation,
    CountSeries,
    DomainError,
    IdealSpec,
    Partition,
    compute_L,
    count_all_partitions,
    count_into_powers,
    count_members,
    count_parity_ideal,
    counting,
    enumerate_members,
    enumerate_partitions,
    enumerate_seqcong_by_largest,
    enumerate_seqcong_by_size,
    enumerate_with_parts_from,
    from_c_notation,
    is_in_Sk,
    is_seq_congruent,
    iter_members_of_size,
    iter_partition_tuples,
    members_within,
)

from seqcong.ideals import _KINDS

from conftest import _iter_c_vectors, _seqcong_largest_exactly, naive_partitions, recursive_partition_tuples

# p(n) for n = 0..20, the classical sequence
PARTITION_COUNTS = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42, 56, 77, 101, 135, 176, 231, 297, 385, 490, 627]


class TestEnumeratePartitions:
    def test_base_cases(self):
        assert enumerate_partitions(0) == [Partition()]
        assert len(enumerate_partitions(4)) == 5

    def test_reverse_lexicographic_order(self):
        got = [p.parts for p in enumerate_partitions(6)]
        assert got == sorted(got, reverse=True)
        assert got[0] == (6,) and got[-1] == (1,) * 6

    def test_matches_naive_oracle(self):
        for n in range(13):
            assert {p.parts for p in enumerate_partitions(n)} == set(naive_partitions(n))
            assert len(enumerate_partitions(n)) == len(set(enumerate_partitions(n)))

    def test_counts_match_euler_product(self):
        for n in range(41):
            assert len(list(iter_partition_tuples(n))) == count_all_partitions(n)

    def test_box_restrictions(self):
        for n in range(13):
            for max_part in (2, 3, 5):
                got = {p.parts for p in enumerate_partitions(n, max_part=max_part)}
                want = {t for t in naive_partitions(n) if not t or t[0] <= max_part}
                assert got == want
        got = {p.parts for p in enumerate_partitions(8, max_length=3)}
        want = {t for t in naive_partitions(8) if len(t) <= 3}
        assert got == want


CAPS = (None, -1, 0, 1, 2, 3, 5, 8)


class TestIterativeGenerator:
    def test_matches_recursive_oracle_exhaustively(self):
        for n in range(31):
            for max_part in CAPS:
                for max_length in CAPS:
                    got = list(iter_partition_tuples(n, max_part, max_length))
                    assert got == list(recursive_partition_tuples(n, max_part, max_length)), (
                        n, max_part, max_length)

    def test_matches_recursive_oracle_on_boxes(self):
        for n in range(0, 97, 7):
            for max_part, max_length in ((12, 8), (15, 7), (4, 30)):
                got = list(iter_partition_tuples(n, max_part, max_length))
                assert got == list(recursive_partition_tuples(n, max_part, max_length))

    def test_negative_max_length_yields_nothing(self):
        assert list(iter_partition_tuples(3, None, -1)) == []
        assert list(iter_partition_tuples(3, 2, -5)) == []
        assert list(iter_partition_tuples(0, None, -1)) == [()]

    def test_deep_all_ones(self):
        assert list(iter_partition_tuples(2000, 1)) == [(1,) * 2000]
        assert list(iter_partition_tuples(2000, 1, 1999)) == []

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            list(iter_partition_tuples(-1))


class TestRestrictedEnumeration:
    def test_two_values(self):
        got = {p.parts for p in enumerate_with_parts_from({1, 4}, 4)}
        assert got == {(4,), (1, 1, 1, 1)}

    def test_empty_allowed_set(self):
        assert enumerate_with_parts_from(set(), 0) == [Partition()]
        assert enumerate_with_parts_from(set(), 3) == []

    def test_matches_filtered_enumeration(self):
        allowed = {1, 3, 4}
        for n in range(15):
            got = {p.parts for p in enumerate_with_parts_from(allowed, n)}
            want = {t for t in naive_partitions(n) if all(x in allowed for x in t)}
            assert got == want

    def test_reverse_lexicographic_order(self):
        for allowed in ({1, 3, 4}, {2, 5, 7}, {1, 4, 9, 16}):
            for n in range(20):
                got = [p.parts for p in enumerate_with_parts_from(allowed, n)]
                want = [t for t in recursive_partition_tuples(n) if set(t) <= allowed]
                assert got == want

    def test_deep_all_ones(self):
        assert enumerate_with_parts_from([1], 2000) == [Partition((1,) * 2000)]


class TestSeqcongEnumerators:
    def test_by_size_4(self):
        assert [p.parts for p in enumerate_seqcong_by_size(4)] == [(4,), (2, 2)]

    def test_by_size_0(self):
        assert enumerate_seqcong_by_size(0) == [Partition()]

    def test_by_size_matches_filter(self):
        for n in range(25):
            want = {t for t in naive_partitions(n) if is_seq_congruent(Partition(t))}
            got = [p.parts for p in enumerate_seqcong_by_size(n)]
            assert set(got) == want and len(got) == len(want)

    def test_by_largest_counts_all_partitions(self):
        for n in range(15):
            assert len(enumerate_seqcong_by_largest(n)) == PARTITION_COUNTS[n]

    def test_by_largest_members_have_that_largest_part(self):
        for n in range(12):
            for p in enumerate_seqcong_by_largest(n):
                assert is_seq_congruent(p) and p.largest == n

    def test_by_largest_equals_sorted_vector_oracle(self):
        # pi does not preserve reverse-lex order, so the listing sorts its images
        for n in range(17):
            want = sorted((p.parts for p in _seqcong_largest_exactly(n)), reverse=True)
            assert [p.parts for p in enumerate_seqcong_by_largest(n)] == want

    def test_by_size_equals_sorted_vector_oracle(self):
        for n in range(41):
            squares = [i * i for i in range(1, 7) if i * i <= n]
            vectors = _iter_c_vectors(squares, n)
            want = sorted((from_c_notation(CNotation(c)).parts for c in vectors), reverse=True)
            assert [p.parts for p in enumerate_seqcong_by_size(n)] == want

    @pytest.mark.parametrize("n", [True, False, 4.0, 2.5, "4"])
    @pytest.mark.parametrize("enumerate_s", [enumerate_seqcong_by_size, enumerate_seqcong_by_largest])
    def test_non_integer_size_rejected(self, enumerate_s, n):
        with pytest.raises(TypeError, match="must be (an )?integers?, got"):
            enumerate_s(n)

    @pytest.mark.parametrize("enumerate_s", [enumerate_seqcong_by_size, enumerate_seqcong_by_largest])
    def test_negative_size_rejected(self, enumerate_s):
        with pytest.raises(ValueError, match="n must be nonnegative"):
            enumerate_s(-1)


class TestCountSeries:
    def test_leading_coefficient_is_one(self):
        assert CountSeries.from_degrees([2, 3], 10)[0] == 1

    def test_degree_one_prefix(self):
        series = CountSeries.from_degrees(range(1, 21), 20)
        assert list(series.coefficients) == PARTITION_COUNTS

    def test_count_into_powers_values(self):
        assert count_into_powers(4, 2) == 2
        assert count_into_powers(9, 2) == 4
        assert [count_into_powers(n, 1) for n in range(21)] == PARTITION_COUNTS

    def test_count_into_powers_matches_enumeration(self):
        for k in (2, 3):
            values = [i**k for i in range(1, 8)]
            for n in range(31):
                assert count_into_powers(n, k) == len(enumerate_with_parts_from(values, n))

    def test_cache_extends(self):
        assert count_into_powers(5, 2) == count_into_powers(5, 2)
        small = count_into_powers(3, 4)
        assert count_into_powers(50, 4) >= small


class TestCountMembers:
    def test_examples(self):
        assert count_members(is_seq_congruent, 4) == 2
        assert count_members(IdealSpec("R"), 4) == 2
        assert count_members(lambda p: True, 0) == 1

    def test_seqcong_equals_squares_coefficient(self):
        for n in range(41):
            assert count_members(is_seq_congruent, n) == count_into_powers(n, 2)

    def test_power_chain_counts(self):
        for k in (1, 2):
            for n in range(31):
                assert count_members(lambda p: is_in_Sk(p, k), n) == count_into_powers(n, k + 1)

    def test_parity_formula_matches(self):
        for n in range(31):
            assert count_parity_ideal(n) == count_members(IdealSpec("P_parity"), n)

    def test_rejects_unknown_predicate_object(self):
        with pytest.raises(TypeError):
            count_members(123, 4)

    def test_rogers_ramanujan_at_50(self):
        assert count_members(IdealSpec("R"), 50) == 1065

    def test_non_ideal_s_is_filtered(self):
        spec = IdealSpec("S")
        for n in range(16):
            want = [t for t in recursive_partition_tuples(n) if spec._member(t)]
            assert count_members(spec, n) == len(want)
            assert [p.parts for p in enumerate_members(spec, n)] == want


# Orders of count_parity_ideal sizes (None: extend the shared p(n) series to
# 700 first) that mix series writes, reads below them and foreign writes.
PARITY_ORDERS = {
    "ascending": list(range(301)),
    "descending": list(range(300, -1, -1)),
    "shuffled": random.Random(7).sample(range(301), 301),
    "write_then_reads": [m for k in range(0, 301, 25) for m in (k, *range(k - 1, max(k - 25, -1), -1))],
    "after_foreign_write": [None, *random.Random(8).sample(range(301), 301)],
}


class TestParitySeries:
    """The even-part coefficient of the one-parity count is read as p(n/2)."""

    @pytest.mark.parametrize("order", PARITY_ORDERS)
    def test_matches_even_and_odd_part_products(self, monkeypatch, order):
        monkeypatch.setattr(counting, "_series_cache", {})
        odd = CountSeries.from_degrees(range(1, 301, 2), 300)
        even = CountSeries.from_degrees(range(2, 301, 2), 300)
        seen = set()
        for n in PARITY_ORDERS[order]:
            if n is None:
                count_all_partitions(700)
                continue
            assert count_parity_ideal(n) == odd[n] + even[n] - (n == 0)
            assert ("parity", 0) not in counting._series_cache
            seen.add(n)
        assert seen == set(range(301))
        assert set(counting._series_cache) == {("parity", 1), ("powers", 1)}


PREFIX_CLOSED = [
    IdealSpec.parse(tag)
    for tag in ("SA", "SA_maxlen:1", "SA_maxlen:2", "SA_maxlen:3", "D", "R", "Rprime", "Adiff",
                "N_maxlen:0", "N_maxlen:1", "N_maxlen:3", "P_parity", "P_mod:2", "P_mod:3",
                "P_mod:5", "Pprime")
]


class TestMemberWalk:
    def test_covers_every_prefix_closed_kind(self):
        assert {s.kind for s in PREFIX_CLOSED} == set(_KINDS) - {"S"}
        assert all(s.prefix_closed for s in PREFIX_CLOSED)

    @pytest.mark.parametrize("spec", PREFIX_CLOSED, ids=str)
    def test_equals_filtered_oracle_in_order(self, spec):
        for n in range(23):
            want = [t for t in recursive_partition_tuples(n) if spec._member(t)]
            assert list(iter_members_of_size(spec, n)) == want
            assert count_members(spec, n) == len(want)
            assert [p.parts for p in enumerate_members(spec, n)] == want

    def test_rejects_non_prefix_closed(self):
        with pytest.raises(DomainError):
            iter_members_of_size(IdealSpec("S"), 4)

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            count_members(IdealSpec("R"), -1)

    @pytest.mark.parametrize("n", [True, False, 4.0, 2.5, "4"])
    @pytest.mark.parametrize("spec", [IdealSpec("R"), IdealSpec("SA_maxlen", 2), IdealSpec("S")], ids=str)
    def test_non_integer_size_rejected(self, spec, n):
        # the walk refuses what the filter over iter_partition_tuples refuses
        with pytest.raises(TypeError, match="must be (an )?integers?, got"):
            count_members(spec, n)
        with pytest.raises(TypeError, match="must be (an )?integers?, got"):
            enumerate_members(spec, n)
        if spec.prefix_closed:
            with pytest.raises(TypeError, match="n must be an integer"):
                list(iter_members_of_size(spec, n))


def assert_trusted(partitions):
    """Each partition an enumerator wrapped unchecked is one the checks accept."""
    for p in partitions:
        assert type(p.parts) is tuple
        assert all(type(x) is int for x in p.parts), p.parts
        assert p == Partition(p.parts)


class TestTrustedConstruction:
    """The enumerators wrap their own tuples with ``Partition._of``."""

    def test_enumerate_partitions(self):
        for n in range(26):
            for max_part in CAPS:
                for max_length in CAPS:
                    assert_trusted(enumerate_partitions(n, max_part, max_length))

    @pytest.mark.parametrize("pred", PREFIX_CLOSED + [IdealSpec("S"), is_seq_congruent],
                             ids=lambda pred: getattr(pred, "__name__", str(pred)))
    def test_enumerate_members(self, pred):
        for n in range(26):
            assert_trusted(enumerate_members(pred, n))

    def test_enumerate_with_parts_from(self):
        for allowed in ({1, 3, 4}, {2, 5, 7}, {1, 4, 9, 16}):
            for n in range(26):
                assert_trusted(enumerate_with_parts_from(allowed, n))

    @pytest.mark.parametrize("spec", PREFIX_CLOSED + [IdealSpec("S")], ids=str)
    def test_members_within_and_compute_L(self, spec):
        for bound in (AnalysisBound(8, 4), AnalysisBound(5, 7), AnalysisBound(12, 6)):
            assert_trusted(members_within(spec, bound))
            for m in (1, 2, 3):
                assert_trusted(compute_L(spec, m, bound).members)

    def test_filter_candidates_are_trusted(self):
        seen = []
        assert count_members(lambda p: seen.append(p) or True, 20) == 627
        assert len(seen) == 627
        assert_trusted(seen)

    def test_no_checked_construction_while_enumerating(self, monkeypatch):
        calls = []
        init = Partition.__init__

        def spy(self, parts=()):
            calls.append(parts)
            init(self, parts)

        monkeypatch.setattr(Partition, "__init__", spy)
        assert count_members(lambda p: True, 20) == 627
        assert len(enumerate_partitions(20)) == 627
        assert len(enumerate_members(IdealSpec("S"), 20)) == count_members(IdealSpec("S"), 20)
        assert len(members_within(IdealSpec("R"), AnalysisBound(8, 4))) > 0
        assert compute_L(IdealSpec("D"), 2, AnalysisBound(8, 4)).members
        assert calls == []
        Partition((2, 1))
        assert calls == [(2, 1)]

    def test_arguments_that_would_leave_the_contract(self):
        # bool and float sizes or part caps would become parts; a float length
        # cap of 2.5 let three parts through
        for args in ((True,), (5.0,), (5, True), (5, 2.5), (5, None, True), (5, None, 2.0), (5, None, 2.5),
                     (5, None, "2")):
            with pytest.raises(TypeError):
                enumerate_partitions(*args)
        with pytest.raises(TypeError):
            count_members(lambda p: True, True)
        # the first partition of 2**63 is one part past the 64-bit range
        with pytest.raises(OverflowError):
            enumerate_partitions(2**63)
        with pytest.raises(OverflowError):
            count_members(IdealSpec("S"), 2**63)
        with pytest.raises(OverflowError):
            enumerate_members(lambda p: True, 2**63)
        assert [p.parts for p in enumerate_partitions(5, None, 2)] == [(5,), (4, 1), (3, 2)]
