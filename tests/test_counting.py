import functools
import os
import random
import re
import subprocess
import sys
import threading
import tracemalloc
from itertools import islice
from operator import add, mul

import pytest

from seqcong import (
    AnalysisBound,
    CNotation,
    CountSeries,
    DomainError,
    IdealSpec,
    Partition,
    ResourceError,
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
    member_counts,
    members_within,
)

from seqcong import bijections, ideals
from seqcong.ideals import _KINDS
from seqcong.partition import MAX_OUTPUT_PARTS

from conftest import (
    _iter_c_vectors,
    _seqcong_largest_exactly,
    c_tails,
    naive_partitions,
    pi_sorted_by_largest,
    recursive_partition_tuples,
    state_counts,
    walked_member_counts,
    zs1_partition_tuples,
)

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


SPLICE_CAPS = (None, 0, 1, 2, 3, 5, 8, 13, 21, 40)


class TestSpliceWalk:
    """The walk that splices the table's tails, against the ZS1 generator it replaced."""

    def test_matches_zs1_exhaustively(self):
        for n in range(36):
            for max_part in SPLICE_CAPS:
                for max_length in SPLICE_CAPS:
                    got = list(iter_partition_tuples(n, max_part, max_length))
                    assert got == list(zs1_partition_tuples(n, max_part, max_length)), (n, max_part, max_length)

    @pytest.mark.parametrize("n", [40, 45])
    def test_matches_zs1_uncapped(self, n):
        assert list(iter_partition_tuples(n)) == list(zs1_partition_tuples(n))

    @pytest.mark.parametrize("n,max_part,max_length", [(2000, 2, None), (2000, 2, 1500), (150, 3, 60)])
    def test_matches_zs1_on_long_partitions_of_small_parts(self, n, max_part, max_length):
        # the child of part 1 is completed at once, not one part per node
        got = list(iter_partition_tuples(n, max_part, max_length))
        assert got == list(zs1_partition_tuples(n, max_part, max_length))

    def test_huge_size_lists_its_first_partitions_lazily(self):
        # each node listed all its children and first built its all-ones completion, here 10**12 ones
        n = 10**12
        assert list(islice(iter_partition_tuples(n), 3)) == [(n,), (n - 1, 1), (n - 2, 2)]
        assert list(islice(iter_partition_tuples(n, n - 2, 2), 2)) == [(n - 2, 2), (n - 3, 3)]

    def test_huge_ones_completion_refused_within_memory(self):
        # the all-ones completion was built unchecked: 10**9 ones ended in MemoryError under this limit
        resource = pytest.importorskip("resource")
        limit = 400_000 * 1024
        probe = ("from seqcong import ResourceError, iter_partition_tuples\n"
                 "try:\n    next(iter_partition_tuples(10**9, 1))\nexcept ResourceError as exc:\n    print(exc)")
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(counting.__file__)))
        done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env, timeout=60,
                              preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)))
        assert (done.returncode, done.stdout, done.stderr) == (
            0, "the answer would have 1000000000 parts, above the limit of 10000000\n", "")
        with pytest.raises(ResourceError, match=f"would have {MAX_OUTPUT_PARTS + 1} parts"):
            next(iter_partition_tuples(MAX_OUTPUT_PARTS + 1, 1))

    def test_table_rows_match_zs1(self):
        rows, starts = counting._tails or counting._splice_table()
        assert len(rows) == counting._SPLICE_MAX + 1
        assert sum(map(len, rows)) == 2714
        for m, row in enumerate(rows):
            assert row == list(zs1_partition_tuples(m))
            for k in range(m + 1):  # the suffix from starts[m][k] is the partitions of m with largest part <= k
                assert row[starts[m][k]:] == list(zs1_partition_tuples(m, k))

    def test_yields_fresh_partitions_of_plain_ints(self):
        for n, max_part, max_length in ((0, None, None), (9, None, None), (30, 7, 9), (33, None, None)):
            found = enumerate_partitions(n, max_part, max_length)
            assert len({id(p) for p in found}) == len(found)
            for p in found:
                assert type(p) is Partition and type(p.parts) is tuple
                assert all(type(x) is int for x in p.parts)
        assert enumerate_partitions(5)[0] is not enumerate_partitions(5)[0]

    def test_import_leaves_the_table_unbuilt(self):
        # the table is built on first use, so importing counting costs start-up nothing
        probe = "import seqcong.counting as c; print(c._tails is None)"
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(counting.__file__)))
        done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env, timeout=60)
        assert (done.returncode, done.stdout, done.stderr) == (0, "True\n", "")


class TestWalkWork:
    """A filter over the partitions of n tests each of them exactly once."""

    @staticmethod
    def _counted(test):
        calls = [0]

        def spy(p):
            calls[0] += 1
            return test(p)

        return spy, calls

    def test_count_members_tests_each_partition_once(self):
        for n in range(26):
            spy, calls = self._counted(is_seq_congruent)
            count_members(spy, n)
            assert calls[0] == count_all_partitions(n)

    def test_enumerate_members_tests_each_partition_once(self):
        for n in range(26):
            spy, calls = self._counted(lambda p: p.largest % 2 == 0)
            enumerate_members(spy, n)
            assert calls[0] == count_all_partitions(n)

    def test_filters_decide_the_closing_condition_first(self):
        # testing the chain before the closing condition reads 210,615 and 207,860 parts here
        class Reads(tuple):
            count = 0

            def __getitem__(self, i):
                Reads.count += 1
                return tuple.__getitem__(self, i)

        for test, n, members, reads in ((is_seq_congruent, 39, 50, 31_641),
                                        (lambda p: is_in_Sk(p, 2), 40, 8, 37_352)):
            Reads.count = 0
            assert count_members(lambda p: test(Partition._of(Reads(p.parts))), n) == members
            # one read of the last part per partition, two per chain step of those r divides (r^2 for S_2)
            assert Reads.count == reads, (n, Reads.count)

    def test_by_largest_equals_sorted_pi_oracle(self):
        for n in range(31):
            assert enumerate_seqcong_by_largest(n) == pi_sorted_by_largest(n), n

    def test_by_largest_lists_no_partition_of_n(self, monkeypatch):
        # the listing walks the c-notation, as enumerate_members lists S through psi
        want = [pi_sorted_by_largest(n) for n in range(31)]

        def refuse(*args):
            raise AssertionError("walked the partitions of n")

        monkeypatch.setattr(counting, "_partitions", refuse)
        assert [enumerate_seqcong_by_largest(n) for n in range(31)] == want


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

    def test_children_tried_pinned(self, monkeypatch):
        # Each node tries the allowed values up to its last part and rest
        # (the bisect bound); a filter over 1..min(last part, rest) made
        # 1270 child tests here.
        tried = [0]
        bound = counting.bisect_right

        def spy(*args):
            top = bound(*args)
            tried[0] += top
            return top

        monkeypatch.setattr(counting, "bisect_right", spy)
        squares = [i * i for i in range(1, 7)]
        assert len(enumerate_with_parts_from(squares, 45)) == 78
        assert tried[0] == 148


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

    def test_s_members_listed_through_psi(self, monkeypatch):
        # enumerate_members reads psi_inverse for S, as count_members reads the squares series
        member = IdealSpec("S")._member
        want = [[t for t in iter_partition_tuples(n) if member(t)] for n in range(31)]

        def refuse(*args):
            raise AssertionError("filtered every partition")

        monkeypatch.setattr(counting, "_partitions", refuse)
        assert [[p.parts for p in enumerate_members(IdealSpec("S"), n)] for n in range(31)] == want

    def test_by_largest_counts_all_partitions(self):
        for n in range(15):
            assert len(enumerate_seqcong_by_largest(n)) == PARTITION_COUNTS[n]

    def test_by_largest_members_have_that_largest_part(self):
        for n in range(12):
            for p in enumerate_seqcong_by_largest(n):
                assert is_seq_congruent(p) and p.largest == n

    def test_by_largest_equals_sorted_vector_oracle(self):
        # pi does not preserve reverse-lex order, so the listing cannot follow the partitions of n
        for n in range(17):
            want = sorted((p.parts for p in _seqcong_largest_exactly(n)), reverse=True)
            assert [p.parts for p in enumerate_seqcong_by_largest(n)] == want

    def test_by_size_equals_sorted_vector_oracle(self):
        for n in range(41):
            squares = [i * i for i in range(1, 7) if i * i <= n]
            vectors = _iter_c_vectors(squares, n)
            want = sorted((from_c_notation(CNotation(c)).parts for c in vectors), reverse=True)
            assert [p.parts for p in enumerate_seqcong_by_size(n)] == want

    def test_listings_sort_by_parts_and_not_by_partition_order(self, monkeypatch):
        # the sorts read each tuple once, so Partition's type-checked comparisons stay out of them
        want = ([p.parts for p in enumerate_seqcong_by_size(30)], [p.parts for p in enumerate_seqcong_by_largest(12)])

        def refuse(self, other):
            raise AssertionError("sorted through Partition.__lt__")

        monkeypatch.setattr(Partition, "__lt__", refuse)
        assert ([p.parts for p in enumerate_seqcong_by_size(30)],
                [p.parts for p in enumerate_seqcong_by_largest(12)]) == want

    @pytest.mark.parametrize("n", [True, False, 4.0, 2.5, "4"])
    @pytest.mark.parametrize("enumerate_s", [enumerate_seqcong_by_size, enumerate_seqcong_by_largest])
    def test_non_integer_size_rejected(self, enumerate_s, n):
        with pytest.raises(TypeError, match="must be (an )?integers?, got"):
            enumerate_s(n)

    @pytest.mark.parametrize("enumerate_s", [enumerate_seqcong_by_size, enumerate_seqcong_by_largest])
    def test_negative_size_rejected(self, enumerate_s):
        with pytest.raises(ValueError, match="n must be nonnegative"):
            enumerate_s(-1)


class TestLargestWalk:
    """The lazy walk over the c-notation behind enumerate_seqcong_by_largest and its table of tails."""

    def test_table_rows_match_the_recursive_oracle(self):
        rows = counting._largest_tails or counting._largest_table()
        assert sorted(rows) == [(i, r) for i in range(2, 21) for r in range(i, 21)]
        assert sum(map(len, rows.values())) == 1235
        for (i, r), row in rows.items():
            assert row == c_tails(i, r), (i, r)

    def test_import_leaves_the_table_unbuilt(self):
        probe = "import seqcong.counting as c; print(c._largest_tails is None)"
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(counting.__file__)))
        done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env, timeout=60)
        assert (done.returncode, done.stdout, done.stderr) == (0, "True\n", "")

    def test_threads_racing_on_first_use_agree(self, monkeypatch):
        want = [p.parts for p in pi_sorted_by_largest(26)]
        monkeypatch.setattr(counting, "_largest_tails", None)
        start, got = threading.Barrier(4), []

        def list_26():
            start.wait()
            got.append([p.parts for p in enumerate_seqcong_by_largest(26)])

        threads = [threading.Thread(target=list_26) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert got == [want] * 4
        assert counting._largest_tails == counting._largest_table()

    def test_walk_is_lazy(self):
        # the first members come without the p(500) others being listed
        first = list(islice(counting._seqcong_largest(500), 2))
        assert [p.parts for p in first] == [(500,) * 500, (500,) * 250]

    def test_sizes_are_checked_at_the_call(self):
        # so a caller that takes no member still sees the refusal
        with pytest.raises(ResourceError, match="above the limit"):
            counting._seqcong_largest(MAX_OUTPUT_PARTS + 1)
        with pytest.raises(OverflowError, match="64-bit part range"):
            counting._seqcong_largest(2**63)

    def test_yields_fresh_partitions_of_plain_ints(self):
        for n in (0, 1, 9, 20, 21, 33):
            found = enumerate_seqcong_by_largest(n)
            assert len({id(p) for p in found}) == len(found)
            for p in found:
                assert type(p) is Partition and type(p.parts) is tuple
                assert all(type(x) is int for x in p.parts)
        assert enumerate_seqcong_by_largest(5)[0] is not enumerate_seqcong_by_largest(5)[0]


class TestCountSeries:
    def test_leading_coefficient_is_one(self):
        assert CountSeries.from_degrees([2, 3], 10)[0] == 1

    def test_degree_one_prefix(self):
        series = CountSeries.from_degrees(range(1, 21), 20)
        assert list(series.coefficients) == PARTITION_COUNTS

    @pytest.mark.parametrize("upto,error", [(-1, ValueError), (2.0, TypeError), (True, TypeError),
                                            (250_000, ResourceError), (10**12, ResourceError)])
    def test_size_checked_before_a_cell(self, upto, error):
        # -1 raised IndexError, and 10**8 built its list until MemoryError under 400 MB
        with pytest.raises(error):
            CountSeries.from_degrees([1, 2], upto)

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

    def test_power_degrees_stop_at_m(self):
        for k in range(1, 9):
            for m in range(70):
                assert counting._power_degrees(k, m) == [i**k for i in range(1, m + 1) if i**k <= m]

    def test_huge_power_counts_only_ones(self):
        assert count_into_powers(12, 10**9) == 1
        assert count_into_powers(0, 10**9) == 1

    @pytest.mark.parametrize("bad", [True, False, 2.5, 4.0, "3"], ids=repr)
    @pytest.mark.parametrize("call", [
        lambda x: count_into_powers(x, 2),
        lambda x: count_into_powers(4, x),
        count_all_partitions,
        count_parity_ideal,
    ], ids=["powers_n", "powers_k", "all", "parity"])
    def test_series_counters_reject_non_integers(self, call, bad):
        with pytest.raises(TypeError, match=f"must be an integer, got {bad!r}"):
            call(bad)

    def test_series_counters_keep_value_errors(self):
        for call in (lambda: count_into_powers(-1, 2), lambda: count_all_partitions(-1), lambda: count_parity_ideal(-1)):
            with pytest.raises(ValueError, match="n must be nonnegative"):
                call()
        with pytest.raises(ValueError, match="k must be positive"):
            count_into_powers(4, 0)


class TestCountMembers:
    def test_examples(self):
        assert count_members(is_seq_congruent, 4) == 2
        assert count_members(IdealSpec("R"), 4) == 2
        assert count_members(lambda p: True, 0) == 1

    def test_seqcong_equals_squares_coefficient(self):
        # count_members(is_seq_congruent, n) reads the squares itself, so the left side is a filter of its own
        for n in range(41):
            assert sum(is_seq_congruent(Partition(t)) for t in zs1_partition_tuples(n)) == count_into_powers(n, 2)

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

    def test_s_reads_the_squares_series(self, monkeypatch):
        # psi maps S's members of size n onto the partitions of n into squares
        spec = IdealSpec("S")
        want = [sum(map(spec._member, recursive_partition_tuples(n))) for n in range(31)]

        def refuse(*args):
            raise AssertionError("filtered every partition")

        monkeypatch.setattr(counting, "_partitions", refuse)
        assert [count_members(spec, n) for n in range(31)] == want
        assert [count_into_powers(n, 2) for n in range(31)] == want

    def test_non_ideal_s_is_filtered(self):
        spec = IdealSpec("S")
        for n in range(16):
            want = [t for t in recursive_partition_tuples(n) if spec._member(t)]
            assert count_members(spec, n) == len(want)
            assert [p.parts for p in enumerate_members(spec, n)] == want


class TestSeqcongTestRoute:
    """``is_seq_congruent`` itself is counted by the squares and listed through psi, as IdealSpec('S') is."""

    @staticmethod
    def spied(monkeypatch):
        """Count the calls of is_seq_congruent (through the test it calls) and the walks over all partitions."""
        calls = {"test": 0, "walk": 0}
        test, walk = bijections._is_congruent, counting._partitions

        def test_spy(parts):
            calls["test"] += 1
            return test(parts)

        def walk_spy(*args):
            calls["walk"] += 1
            return walk(*args)

        monkeypatch.setattr(bijections, "_is_congruent", test_spy)
        monkeypatch.setattr(counting, "_partitions", walk_spy)
        return calls

    def test_equals_the_filter_oracle(self):
        want = [[Partition(t) for t in naive_partitions(n) if is_seq_congruent(Partition(t))] for n in range(31)]
        assert member_counts(is_seq_congruent, 30) == [len(members) for members in want]
        for n, members in enumerate(want):
            assert count_members(is_seq_congruent, n) == len(members)
            assert enumerate_members(is_seq_congruent, n) == members  # the same order

    def test_counts_and_lists_without_a_filter(self, monkeypatch):
        calls = self.spied(monkeypatch)
        assert count_members(is_seq_congruent, 39) == 50
        assert member_counts(is_seq_congruent, 39)[-1] == 50
        assert calls == {"test": 0, "walk": 0}
        assert len(enumerate_members(is_seq_congruent, 39)) == 50
        assert calls["walk"] == 0

    def test_a_wrapper_is_filtered(self, monkeypatch):
        calls = self.spied(monkeypatch)
        assert count_members(lambda p: is_seq_congruent(p), 39) == 50
        assert calls == {"test": count_all_partitions(39), "walk": 1}

    def test_size_100_reads_the_squares(self, monkeypatch):
        # a filter would test all 190,569,292 partitions of 100
        calls = self.spied(monkeypatch)
        assert count_members(is_seq_congruent, 100) == count_into_powers(100, 2)
        assert calls == {"test": 0, "walk": 0}

    @pytest.mark.parametrize("n", [counting.MAX_COUNT_CELLS, 2**63, 10**20])
    def test_huge_size_refused_unbuilt(self, monkeypatch, n):
        calls = self.spied(monkeypatch)
        monkeypatch.setattr(counting, "_series_cache", {})
        text = f"^counting to size {n} needs {n + 1} series cells, above {counting.MAX_COUNT_CELLS}$"
        for refused in (count_members, member_counts):
            with pytest.raises(ResourceError, match=text):
                refused(is_seq_congruent, n)
        assert counting._series_cache == {} and calls == {"test": 0, "walk": 0}

    @pytest.mark.parametrize("n", [300_000, 2**63])
    def test_spec_and_test_refuse_alike(self, n):
        # IdealSpec('S') checked the part range first (OverflowError at 2**63) and named itself in its text
        text = f"counting to size {n} needs {n + 1} series cells, above {counting.MAX_COUNT_CELLS}"
        for refused in (count_members, member_counts):
            for pred in (IdealSpec("S"), is_seq_congruent):
                with pytest.raises(ResourceError) as caught:
                    refused(pred, n)
                assert str(caught.value) == text

    @pytest.mark.parametrize("n,error", [(True, TypeError), (False, TypeError), (4.0, TypeError), ("4", TypeError),
                                         (-1, ValueError)])
    def test_bad_size_keeps_its_error(self, n, error):
        for call in (count_members, enumerate_members):
            with pytest.raises(error):
                call(is_seq_congruent, n)
        if n != -1:
            with pytest.raises(error):
                member_counts(is_seq_congruent, n)


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
    """The one-parity count reads one cached series, grown off p(n): the odd parts by Euler's pentagonal
    theorem, and p(n/2) for the even parts."""

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
            assert set(counting._series_cache) == {("powers", 1), ("parity", 1)}
            seen.add(n)
        assert seen == set(range(301))

    def test_spec_count_reads_one_entry(self, monkeypatch):
        # IdealSpec('P_parity') read the whole one-parity list, 5,001 entries and 2,501 of p, to answer one size
        monkeypatch.setattr(counting, "_series_cache", {})
        want, reads = count_parity_ideal(5000), [0]

        class Counted(list):
            def __getitem__(self, i):
                reads[0] += 1
                return super().__getitem__(i)

        for key, cached in counting._series_cache.items():
            counting._series_cache[key] = Counted(cached)
        computed, odd_parts = [], counting._odd_parts
        monkeypatch.setattr(counting, "_odd_parts", lambda p, m: computed.append(m) or odd_parts(p, m))
        assert count_members(IdealSpec("P_parity"), 5000) == want
        assert (computed, reads) == ([], [1])

    def test_every_size_to_1500(self, monkeypatch):
        # the odd-part identity against the odd and even part products, from an empty cache
        monkeypatch.setattr(counting, "_series_cache", {})
        odd, even = (CountSeries.from_degrees(range(r, SERIES_UPTO + 1, 2), SERIES_UPTO).coefficients for r in (1, 2))
        assert [count_parity_ideal(n) for n in range(SERIES_UPTO + 1)] == [
            a + b - (n == 0) for n, (a, b) in enumerate(zip(odd, even))]


SERIES_UPTO = 1500
SERIES_KEYS = [("powers", k) for k in range(1, 6)] + [("parity", 1)]


def series_degrees(key, upto=SERIES_UPTO) -> list[int]:
    """The degrees up to ``upto`` of the product series under ``key``: for ("parity", 1) the odd parts."""
    kind, k = key
    return list(range(1, upto + 1, 2)) if kind == "parity" else [i**k for i in range(1, upto + 1) if i**k <= upto]


@functools.cache
def series_oracle(key, upto=SERIES_UPTO) -> tuple[int, ...]:
    """Coefficients 0..upto of the product series under ``key``, by the product DP."""
    return CountSeries.from_degrees(series_degrees(key, upto), upto).coefficients


@functools.cache
def cached_oracle(key, upto=SERIES_UPTO) -> tuple[int, ...]:
    """Entries 0..upto of the list cached under ``key``: a power series, or for ("parity", 1) P_parity's
    counts, the odd parts plus p(n/2) for even n, less 1 at 0, from the product DP."""
    if key[0] == "powers":
        return series_oracle(key, upto)
    p = series_oracle(("powers", 1), upto // 2)
    return tuple(a + (0 if n % 2 else p[n // 2]) - (n == 0) for n, a in enumerate(series_oracle(key, upto)))


def assert_cache_matches_oracle():
    """Each whole cached list equals the product DP's to that list's own length."""
    for key, coefficients in counting._series_cache.items():
        assert tuple(coefficients) == cached_oracle(key, len(coefficients) - 1), key


def series_request(key, n) -> int:
    """Ask the library for the size-n count that reads the series under ``key``."""
    if key[0] == "powers":
        return count_into_powers(n, key[1])
    return count_parity_ideal(n)


def series_answer(key, n) -> int:
    return cached_oracle(key)[n]


def _interleaved_requests(seed):
    """Each key's writes ascend by random steps and its reads fall below them;
    the keys' requests are shuffled together, keeping each key's own order."""
    rng = random.Random(seed)
    queues = []
    for key in SERIES_KEYS:
        high, queue = 0, []
        while high < SERIES_UPTO:
            high = min(SERIES_UPTO, high + rng.choice([1, 2, 7, 40, 300]))
            queue += [(key, high)] + [(key, rng.randint(0, high)) for _ in range(rng.randint(0, 2))]
        queues.append(queue)
    order = []
    while queues:
        queue = rng.choice(queues)
        order.append(queue.pop(0))
        if not queue:
            queues.remove(queue)
    return order


# Request orders over every series key, as (key, size) pairs; ("parity", 1)
# asks the one-parity count, whose series is read off p(n).  The ascent by one is
# TestExtendedSeries.test_ascent_divides_exactly.
SERIES_ORDERS = {
    # The benchmark's write steps: the one-parity series by 3, squares by 10, cubes by 15.
    "workload_steps": [(key, first + step * i) for key, first, step in
                       [(("parity", 1), 600, 3), (("powers", 2), 1000, 10), (("powers", 3), 1200, 15)]
                       for i in range((SERIES_UPTO - first) // step + 1)],
    "jumps": [(key, n) for key in SERIES_KEYS for n in (5, 40, 400, 1500)],
    "reads_below": [(key, m) for key in SERIES_KEYS for w in range(0, SERIES_UPTO + 1, 250)
                    for m in (w, *range(w - 1, max(w - 250, -1), -13))],
    "interleaved": _interleaved_requests(3),
}


class TestExtendedSeries:
    """Series rebuilt ahead by the product DP or grown by Euler's pentagonal recurrence equal the product DP."""

    @pytest.mark.parametrize("order", SERIES_ORDERS)
    def test_matches_product_oracle(self, monkeypatch, order):
        monkeypatch.setattr(counting, "_series_cache", {})
        for key, n in SERIES_ORDERS[order]:
            assert series_request(key, n) == series_answer(key, n), (key, n)
        assert_cache_matches_oracle()

    def test_ascent_divides_exactly(self, monkeypatch):
        # Ascending by one extends every key: the powers k >= 2 by rebuilds to
        # twice their length, p(n) at every size by the pentagonal recurrence,
        # and the odd parts, which the one-parity count reads, to twice their
        # length after p.  The oracle also checks the
        # divisor-sum recurrence on each key's degrees, n * a(n) = sum_{k=1..n} sigma(k) * a(n - k), whose
        # division by n is exact.
        monkeypatch.setattr(counting, "_series_cache", {})
        for key in SERIES_KEYS:
            for n in range(SERIES_UPTO + 1):
                assert series_request(key, n) == series_answer(key, n), (key, n)
        for key in SERIES_KEYS:
            a, sigma = series_oracle(key), [0] * (SERIES_UPTO + 1)
            for d in series_degrees(key):
                for j in range(d, SERIES_UPTO + 1, d):
                    sigma[j] += d
            for n in range(1, SERIES_UPTO + 1):
                total = sum(map(mul, sigma[1 : n + 1], a[n - 1 :: -1]))
                assert total % n == 0 and total // n == a[n], (key, n)

    @staticmethod
    def count_builds(monkeypatch):
        builds = []
        build = CountSeries.from_degrees.__func__

        def spy(cls, degrees, upto):
            builds.append(upto)
            return build(cls, degrees, upto)

        monkeypatch.setattr(CountSeries, "from_degrees", classmethod(spy))
        return builds

    def test_workload_writes_extend(self, monkeypatch):
        # counting_mix's 32 writes per key, from its first sizes: the squares
        # and cubes build at their first write and rebuild once, to twice their
        # length, at their second; the one-parity count grows p(n) and then its
        # own series, to 600 and then to 1,202, which builds no product series.
        # The cache then holds its four coefficient lists and nothing beside
        # them: 15,212 integers in all.
        monkeypatch.setattr(counting, "_series_cache", {})
        builds = self.count_builds(monkeypatch)
        for key, n in self.workload_writes(31):
            series_request(key, n)
        assert builds == [2400, 4000, 4802, 8002]
        assert all(type(a) is list for a in counting._series_cache.values())
        assert {key: len(a) for key, a in counting._series_cache.items()} == {
            ("powers", 1): 1203, ("parity", 1): 1203, ("powers", 2): 4803, ("powers", 3): 8003}
        assert sum(map(len, counting._series_cache.values())) == 15_212
        assert_cache_matches_oracle()

    def test_threads_share_the_cache(self, monkeypatch):
        # Writers on every key at once, with frequent thread switches: each
        # answer and each whole cached series must still equal the product DP.
        monkeypatch.setattr(counting, "_series_cache", {})
        for key in SERIES_KEYS:  # the answers' oracles, built before the threads start
            cached_oracle(key)
        wrong = []

        def worker(seed):
            for key, n in _interleaved_requests(seed)[::3]:
                if series_request(key, n) != series_answer(key, n):
                    wrong.append((key, n))

        threads = [threading.Thread(target=worker, args=(seed,)) for seed in range(6)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert wrong == []
        assert_cache_matches_oracle()

    def test_large_jumps_rebuild(self, monkeypatch):
        # A series k >= 2 rebuilds on a jump, to at least twice its length;
        # p(n) never rebuilds: each jump appends.
        monkeypatch.setattr(counting, "MAX_COUNT_CELLS", 1000)
        monkeypatch.setattr(counting, "_series_cache", {})
        builds = self.count_builds(monkeypatch)
        for n in (40, 300, 310, 650, 900, 999):
            assert count_into_powers(n, 2) == series_oracle(("powers", 2))[n]
            assert count_all_partitions(n) == series_oracle(("powers", 1))[n]
        assert builds == [40, 300, 602, 999]  # the cap stops the doubling below 1000
        assert len(counting._series_cache[("powers", 1)]) == 1000

    @pytest.mark.parametrize("first,step,last,builds", [
        (0, 1, 255, [0, 2, 6, 14, 30, 62, 126, 254, 510]),
        (8200, 10, 9300, [8200, 16402]),
    ], ids=["by_ones", "by_tens"])
    def test_ascent_rebuilds_ahead(self, monkeypatch, first, step, last, builds):
        # an ascent of the squares builds at its first size, exactly, and then
        # only when it passes the cached length L, to size 2L
        monkeypatch.setattr(counting, "_series_cache", {})
        oracle = series_oracle(("powers", 2), builds[-1])
        made = self.count_builds(monkeypatch)
        for n in range(first, last + 1, step):
            assert count_into_powers(n, 2) == oracle[n], n
        assert made == builds
        assert tuple(counting._series_cache[("powers", 2)]) == oracle

    def test_p_is_the_product_over_every_degree(self, monkeypatch):
        # the pentagonal recurrence from empty against the product DP, to 2,000
        monkeypatch.setattr(counting, "_series_cache", {})
        oracle = CountSeries.from_degrees(range(1, 2001), 2000).coefficients
        assert count_all_partitions(2000) == oracle[2000]
        assert tuple(counting._series_cache[("powers", 1)]) == oracle

    def test_pentagonal_terms_pinned(self, monkeypatch):
        # p(0..1000), asked in ascending order from empty, reads p(m - g) once
        # per generalized pentagonal g = j(3j - 1)/2 <= m, j != 0, and appends
        # each coefficient once
        reads, appended = [0], []

        class Counted(list):
            def __getitem__(self, i):
                reads[0] += 1
                return super().__getitem__(i)

            def append(self, x):
                appended.append(len(self))
                super().append(x)

        monkeypatch.setattr(counting, "_series_cache", {("powers", 1): Counted([1])})
        for n in range(1001):
            assert count_all_partitions(n) == series_oracle(("powers", 1))[n]
        pentagonal = [j * (3 * j - 1) // 2 for j in range(-30, 31) if j]
        assert reads[0] == 1001 + sum(1 for m in range(1001) for g in pentagonal if g <= m)  # + each answer
        assert appended == list(range(1, 1001))

    def test_s_counts_build_once(self, monkeypatch):
        # member_counts asks S's largest size first: one build, which every smaller size reads
        monkeypatch.setattr(counting, "_series_cache", {})
        oracle = series_oracle(("powers", 2), 3000)
        builds = self.count_builds(monkeypatch)
        assert member_counts(IdealSpec("S"), 3000) == list(oracle)
        assert builds == [3000]

    def test_odd_parts_build_nothing(self, monkeypatch):
        # the odd-part counts, and so the one-parity counts, are read off p(n) at
        # every jump, short or long: their list grows beside p's and no product
        # series is built
        monkeypatch.setattr(counting, "_series_cache", {})
        odd = CountSeries.from_degrees(range(1, 1400, 2), 1399)
        parity = cached_oracle(("parity", 1), 1399)
        builds = self.count_builds(monkeypatch)
        for n in (600, 603, 606, 999, 1002, 1399):
            assert counting._odd_parts(counting._cached_series(1, n), n) == odd[n]
            assert counting._cached_parity(n)[n] == parity[n]
        assert builds == []
        assert set(counting._series_cache) == {("powers", 1), ("parity", 1)}
        assert len(counting._series_cache[("parity", 1)]) == 2407  # grown to 600, to 1,202 and to 2,406
        assert_cache_matches_oracle()

    def test_odd_parts_computed_once(self, monkeypatch):
        # counting_mix's 32 one-parity writes compute each odd-part count
        # once, by growing ahead; every size below the cached length is then
        # one lookup and computes none
        monkeypatch.setattr(counting, "_series_cache", {})
        computed, odd_parts = [], counting._odd_parts
        monkeypatch.setattr(counting, "_odd_parts", lambda p, m: computed.append(m) or odd_parts(p, m))
        for key, n in self.workload_writes(31)[::3]:
            assert series_request(key, n) == series_answer(key, n), n
        assert sorted(computed) == list(range(1203))
        computed.clear()
        for n in range(1203):
            assert count_parity_ideal(n) == counting._cached_parity(n)[n] == series_answer(("parity", 1), n), n
        assert computed == []
        assert_cache_matches_oracle()

    @staticmethod
    def workload_writes(count):
        """counting_mix's write sizes per series key: its first size, then ``count`` steps."""
        plan = [(("parity", 1), 600, 3), (("powers", 2), 2400, 10), (("powers", 3), 4000, 15)]
        return [(key, first + step * i) for i in range(count + 1) for key, first, step in plan]

    def test_ring_writes_make_no_recurrence_terms(self, monkeypatch):
        # thirteen writes on the squares and cubes, which rebuild by the product
        # DP, read no pentagonal term of p(n); the one-parity writes read p(n)
        writes, key = self.workload_writes(12), None
        terms = dict.fromkeys((key for key, _ in writes), 0)

        class Counted(list):
            def __getitem__(self, i):
                terms[key] += 1
                return super().__getitem__(i)

        monkeypatch.setattr(counting, "_series_cache", {("powers", 1): Counted([1])})
        for key, n in writes:
            series_request(key, n)
        assert terms[("powers", 2)] == terms[("powers", 3)] == 0
        assert terms[("parity", 1)] > 0

    def test_failed_extension_keeps_oracle_answers(self, monkeypatch):
        # a rebuild that raises leaves the published list as it was, so every
        # later answer still equals the product DP
        monkeypatch.setattr(counting, "_series_cache", {})
        key, oracle = ("powers", 2), series_oracle(("powers", 2))
        assert count_into_powers(700, 2) == oracle[700]
        published, build = counting._series_cache[key], CountSeries.from_degrees.__func__

        def failing(cls, degrees, upto):
            build(cls, degrees, upto)
            raise MemoryError

        monkeypatch.setattr(CountSeries, "from_degrees", classmethod(failing))
        with pytest.raises(MemoryError):
            count_into_powers(730, 2)
        assert counting._series_cache[key] is published
        assert tuple(published) == oracle[:701]
        monkeypatch.setattr(CountSeries, "from_degrees", classmethod(build))
        for n in (700, 701, 730, 1200, 1500, 900):  # 701 rebuilds to 1,402, and 1,500 to 2,806
            assert count_into_powers(n, 2) == oracle[n], n
        assert len(counting._series_cache[key]) == 2807
        assert_cache_matches_oracle()


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

    def test_huge_size_walked_lazily(self):
        # the stack holds one lazy range per part, so the first members of a huge
        # size come at once; a list of the root's children would take GiBs
        tracemalloc.start()
        try:
            walk = iter_members_of_size(IdealSpec("Adiff"), 10**8)
            first = [next(walk) for _ in range(3)]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert first == [(10**8,), (10**8 - 1, 1), (10**8 - 2, 2)]
        assert peak < 16 * 1024  # 1.8 KiB here

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

    @pytest.mark.parametrize("upto", [True, False, 2.0, 2.5, "4"])
    @pytest.mark.parametrize("pred", [is_seq_congruent, IdealSpec("R"), IdealSpec("Adiff"), IdealSpec("S")],
                             ids=["callable", "R", "Adiff", "S"])
    def test_member_counts_non_integer_upto_rejected(self, pred, upto):
        with pytest.raises(TypeError, match=f"^n must be an integer, got {upto!r}$"):
            member_counts(pred, upto)

    @pytest.mark.parametrize("pred", [is_seq_congruent, IdealSpec("R"), IdealSpec("Adiff"), IdealSpec("S")],
                             ids=["callable", "R", "Adiff", "S"])
    def test_member_counts_negative_upto_is_empty(self, pred):
        assert member_counts(pred, -1) == member_counts(pred, -5) == []


def walk_counts(spec, upto):
    return [sum(1 for _ in iter_members_of_size(spec, n)) for n in range(upto + 1)]


def unread(spec):
    """A fresh copy of spec whose rule, test, membership and summary fail when read."""
    def refuse(*args):
        raise AssertionError("counted over classes or members")

    spec = IdealSpec(spec.kind, spec.param)
    spec._children = spec._child_ok = spec._member = spec._summary = refuse
    return spec


class TestStateCount:
    """The class count oracle over prefix-closed kinds with a summary, and the counts it once made."""

    SUMMARIZED = [s for s in PREFIX_CLOSED if s._summary is not None]

    def test_every_kind_but_adiff_has_a_summary(self):
        assert {s.kind for s in self.SUMMARIZED} == set(_KINDS) - {"S", "Adiff"}

    @pytest.mark.parametrize("spec", SUMMARIZED, ids=str)
    def test_equals_walk(self, spec):
        want = walk_counts(spec, 30)
        assert member_counts(spec, 30) == want
        assert [count_members(spec, n) for n in range(31)] == want
        assert state_counts(spec, 30) == {n: c for n, c in enumerate(want) if c}

    def test_distinct_parts_euler_product_to_200(self):
        want = [1] + [0] * 200  # prod (1 + q^k), one factor at a time
        for k in range(1, 201):
            for n in range(200, k - 1, -1):
                want[n] += want[n - k]
        assert member_counts(IdealSpec("D"), 200) == want
        assert count_members(IdealSpec("D"), 200) == 487067746

    def test_rogers_ramanujan_product_to_100(self):
        # gaps of at least 2 <-> parts = 1 or 4 mod 5: prod 1 / (1 - q^k) over those k
        want = CountSeries.from_degrees((k for k in range(1, 101) if k % 5 in (1, 4)), 100).coefficients
        assert member_counts(IdealSpec("R"), 100) == list(want)

    def test_parity_to_100(self):
        assert member_counts(IdealSpec("P_parity"), 100) == [count_parity_ideal(n) for n in range(101)]

    def test_adiff_reads_its_sum_side(self, monkeypatch):
        # Adiff has no summary to class its prefixes by; its sum side reads neither partitions nor its rule
        def refuse(*args):
            raise AssertionError("filtered the partitions")

        monkeypatch.setattr(counting, "_partitions", refuse)
        want = walked_member_counts(IdealSpec("Adiff"), 30)
        spec = unread(IdealSpec("Adiff"))
        assert [count_members(spec, n) for n in range(31)] == want
        assert member_counts(spec, 30) == want

    def test_adiff_walk_refused_unwalked(self, monkeypatch):
        # no layer of classes bounds a walk, which ran until killed at a huge
        # size: from MAX_COUNT_CELLS on it is refused before it starts; the sum
        # side refuses those sizes, and rows of more than MAX_SIDE_CELLS cells,
        # before it builds a row
        monkeypatch.setattr(counting, "MAX_COUNT_CELLS", 150)
        monkeypatch.setattr(counting, "MAX_SIDE_CELLS", 150)
        spec = IdealSpec("Adiff")
        want, rule = walked_member_counts(spec, 39), spec._children

        def refuse(*args):
            raise AssertionError("walked")

        spec._children = refuse
        for refused, text in ((lambda: member_counts(spec, 150), "to size 150 needs 151 series cells"),
                              (lambda: count_members(spec, 10**12),
                               "to size 1000000000000 needs 1000000000001 series cells"),
                              (lambda: member_counts(spec, 40), r"to size 40 needs 155 \(size, parts\) cells"),
                              (lambda: walked_member_counts(spec, 150), "to size 150 walks its members to 151 sizes")):
            with pytest.raises(ResourceError, match=f"^counting Adiff {text}, above 150$"):
                refused()
        spec._children = rule
        assert member_counts(spec, 39) == want
        assert count_members(spec, 39) == want[39]

    def test_adiff_counts_every_size_in_one_walk(self):
        # the walk oracle reads the rule once per member of size <= 45;
        # counting each size apart walked every smaller member again per size
        spec = IdealSpec("Adiff")
        want = walk_counts(spec, 45)
        rule, reads = spec._children, [0]
        spec._children = lambda *args: reads.__setitem__(0, reads[0] + 1) or rule(*args)
        assert walked_member_counts(spec, 45) == want
        assert reads[0] == sum(want)

    def test_cells_bounded(self, monkeypatch):
        monkeypatch.setattr(counting, "MAX_COUNT_CELLS", 100)
        monkeypatch.setattr(counting, "MAX_SIDE_CELLS", 100)
        assert count_members(IdealSpec("R"), 20) == 31
        with pytest.raises(ResourceError, match=r"^counting D to size 60 needs 390 \(size, parts\) cells, above 100$"):
            count_members(IdealSpec("D"), 60)
        with pytest.raises(ResourceError, match="^counting to size 100 needs 101 series cells, above 100$"):
            count_members(IdealSpec("S"), 100)

    def test_series_refused_unbuilt(self, monkeypatch):
        # one series builder serves count_into_powers, count_all_partitions and count_parity_ideal
        monkeypatch.setattr(counting, "MAX_COUNT_CELLS", 100)
        monkeypatch.setattr(counting, "_series_cache", {})

        def degrees(*args):
            raise AssertionError("built the degree list")

        monkeypatch.setattr(counting, "_power_degrees", degrees)
        for refused in (lambda: counting._cached_series(3, 100), lambda: count_into_powers(100, 2),
                        lambda: count_all_partitions(10**12), lambda: count_parity_ideal(300)):
            with pytest.raises(ResourceError, match=r"^counting to size \d+ needs \d+ series cells, above 100$"):
                refused()
        assert counting._series_cache == {}
        assert count_all_partitions(99) == 169229875

    def test_s_counts_refused_unbuilt(self, monkeypatch):
        # member_counts asks S's largest size first, so it refuses at once and names that size
        monkeypatch.setattr(counting, "_series_cache", {})

        def degrees(*args):
            raise AssertionError("built the degree list")

        monkeypatch.setattr(counting, "_power_degrees", degrees)
        with pytest.raises(ResourceError, match="^counting to size 300000 needs 300001 series cells, above 250000$"):
            member_counts(IdealSpec("S"), 300000)
        assert counting._series_cache == {}

    def test_huge_size_refused_unbuilt(self, monkeypatch):
        # the class count held one one-cell class per part and stopped only at its layer cap,
        # after 1,001 tests; the sum side is refused from its size or its cells alone, before
        # a rule read or a row
        monkeypatch.setattr(counting, "add", None)  # a built row would call it
        for tag, n, text in (("P_mod:3", 10**12, "1000000000001 series cells, above 250000"),
                             ("P_mod:2", 249999, "23437437500 (size, parts) cells, above 8388608")):
            spec = unread(IdealSpec.parse(tag))
            for refused in (lambda: count_members(spec, n), lambda: member_counts(spec, n)):
                with pytest.raises(ResourceError, match=rf"^counting {tag} to size {n} needs {re.escape(text)}$"):
                    refused()


class TestSumSide:
    """D, R, Rprime, Adiff, N_maxlen, P_mod and Pprime are counted by their sum sides, SA and SA_maxlen by their
    degree products, P_parity by the one-parity series."""

    SERIES = [IdealSpec.parse(tag) for tag in ("D", "R", "Rprime", "P_parity", *(f"N_maxlen:{n}" for n in range(6)))]
    ONCE_BY_CLASSES = [IdealSpec.parse(tag) for tag in (
        "SA", *(f"SA_maxlen:{r}" for r in range(1, 5)), "P_mod:2", "P_mod:3", "P_mod:7", "P_mod:100", "Pprime")]

    def test_kinds_with_a_series(self):
        assert {k for k, row in _KINDS.items() if row[4] is not None} == set(_KINDS) == {
            "SA", "SA_maxlen", "S", "D", "R", "Rprime", "Adiff", "N_maxlen", "P_parity", "P_mod", "Pprime"}

    @pytest.mark.parametrize("spec", SERIES, ids=str)
    def test_equals_state_counts_to_60(self, spec):
        want = state_counts(spec, 60)
        want = [want.get(n, 0) for n in range(61)]
        assert member_counts(spec, 60) == want
        assert [count_members(spec, n) for n in range(61)] == want

    @pytest.mark.parametrize("spec", ONCE_BY_CLASSES, ids=str)
    def test_equals_state_counts_to_80(self, spec):
        want = state_counts(spec, 80)
        want = [want.get(n, 0) for n in range(81)]
        spec = unread(spec)
        assert member_counts(spec, 80) == want
        assert [count_members(spec, n) for n in range(81)] == want

    def test_one_residue_at_a_time_to_1406(self):
        # a member of P_mod:2 has its parts in one residue class, odd or even: 1 / (1 - q^d) over that class's
        # d, less the empty partition, which both classes count; Pprime's parts are distinct, prod (1 + q^d)
        upto, mod, prime = 1406, [1] + [0] * 1406, [1] + [0] * 1406
        for res in (1, 2):
            parts = range(res, upto + 1, 2)
            series = CountSeries.from_degrees(parts, upto).coefficients
            mod = [a + b - (n == 0) for n, (a, b) in enumerate(zip(mod, series))]
            distinct = [1] + [0] * upto
            for d in parts:
                for n in range(upto, d - 1, -1):
                    distinct[n] += distinct[n - d]
            prime = [a + b - (n == 0) for n, (a, b) in enumerate(zip(prime, distinct))]
        assert member_counts(unread(IdealSpec("P_mod", 2)), upto) == mod
        assert member_counts(unread(IdealSpec("Pprime")), upto) == prime
        assert member_counts(IdealSpec("P_parity"), upto) == mod

    def test_sa_product_to_3000(self):
        # part i less part i + 1 is a multiple of lcm(1..i): the parts i lcm(1..i) are 1, 4, 18, 48, 300, 360
        # and 2940 below 3000; the class count was refused at this size
        want = [1] * 3001
        for d in (4, 18, 48, 300, 360, 2940):
            for n in range(d, 3001):
                want[n] += want[n - d]
        assert member_counts(unread(IdealSpec("SA")), 3000) == want
        assert member_counts(unread(IdealSpec("SA_maxlen", 3)), 3000)[:48] == want[:48]
        with pytest.raises(ResourceError, match="needs more than 250000 "):
            state_counts(IdealSpec("SA"), 3000)

    def test_adiff_equals_walk_oracle_to_80(self):
        spec = IdealSpec("Adiff")
        assert member_counts(spec, 80) == walked_member_counts(spec, 80)

    @pytest.mark.parametrize("spec", [IdealSpec("Adiff"), *SERIES, *ONCE_BY_CLASSES], ids=str)
    def test_reads_no_rule_test_or_class(self, monkeypatch, spec):
        def refuse(*args):
            raise AssertionError("counted over classes or members")

        want = walk_counts(spec, 25)
        monkeypatch.setattr(counting, "_partitions", refuse)
        spec = unread(spec)
        assert member_counts(spec, 25) == want
        assert count_members(spec, 25) == want[25]

    def test_parity_count_reads_the_cached_lists(self, monkeypatch):
        # one pass over the odd-part and p(n) lists, not one count_parity_ideal call per size
        want = [count_parity_ideal(n) for n in range(5001)]
        calls = []
        monkeypatch.setattr(ideals, "count_parity_ideal", lambda n: calls.append(n) or want[n])
        assert count_members(IdealSpec("P_parity"), 5000) == want[5000]
        assert member_counts(IdealSpec("P_parity"), 5000) == want
        assert calls == []

    @pytest.mark.parametrize("tag,upto,cells", [
        ("R", 34, 120), ("D", 35, 168), ("Adiff", 37, 140), ("Rprime", 38, 143),  # counting_mix's sizes
        ("D", 80, 608), ("Adiff", 200, 1460), ("R", 2000, 58674), ("D", 2000, 82398), ("N_maxlen:3", 60, 177),
        ("P_mod:7", 80, 1265), ("Pprime", 80, 432)])
    def test_cells_pinned(self, monkeypatch, tag, upto, cells):
        # one addition per (size, parts) cell, sum over the stairs and r of (upto - stair(r)) // scale - r + 1:
        # the state count of D 80 read its rule for 211 classes, and the Adiff walk stepped to every member,
        # 2,723 of size <= 37 and 177,595,046 of size <= 200
        calls = [0]

        def spy(a, b):
            calls[0] += 1
            return a + b

        monkeypatch.setattr(counting, "add", spy)
        member_counts(IdealSpec.parse(tag), upto)
        assert calls[0] == cells

    def test_refused_before_a_row(self, monkeypatch):
        monkeypatch.setattr(counting, "MAX_COUNT_CELLS", 168)
        monkeypatch.setattr(counting, "MAX_SIDE_CELLS", 168)
        monkeypatch.setattr(counting, "add", None)  # a built row would call it
        for tag, n, text in (("D", 36, "needs 176 (size, parts) cells"), ("D", 168, "needs 169 series cells"),
                             ("N_maxlen:0", 168, "needs 169 series cells"), ("P_parity", 168, "needs 169 series cells")):
            with pytest.raises(ResourceError, match=rf"^counting {'' if tag == 'P_parity' else tag + ' '}to size {n} "
                                                    rf"{re.escape(text)}, above 168$"):
                member_counts(IdealSpec.parse(tag), n)
        monkeypatch.setattr(counting, "add", add)
        assert count_members(IdealSpec("D"), 35) == 585
        assert member_counts(IdealSpec("N_maxlen", 0), 167) == [1] + [0] * 167

    def test_answers_are_fresh_lists(self):
        for spec in (IdealSpec("D"), IdealSpec("S"), IdealSpec("P_parity")):
            first = member_counts(spec, 30)
            first[3] = -1
            assert member_counts(spec, 30)[3] > 0


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
        with pytest.raises(ResourceError):  # S's squares are refused from MAX_COUNT_CELLS, before any part
            count_members(IdealSpec("S"), 2**63)
        with pytest.raises(OverflowError):
            enumerate_members(lambda p: True, 2**63)
        assert [p.parts for p in enumerate_partitions(5, None, 2)] == [(5,), (4, 1), (3, 2)]
