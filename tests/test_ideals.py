import copy
import pickle
import re
import tracemalloc
from itertools import product
from math import comb

import pytest

from seqcong import (
    AnalysisBound,
    ClosureReport,
    DomainError,
    FrequencyMap,
    IdealSpec,
    LinkEntry,
    LinkReport,
    ModulusReport,
    OrderReport,
    Partition,
    andrews_compose,
    andrews_decompose,
    check_ideal_closure,
    check_modulus,
    compute_L,
    count_members,
    count_parity_ideal,
    infer_linking,
    is_member,
    is_seq_congruent,
    iter_partition_tuples,
    linked_refutation_example,
    members_within,
    order_estimate,
    order_refute,
    remove_parts,
    seqcong_ideal_exit,
    weak_order_estimate,
    weak_order_refute,
)
from seqcong import counting, ideals, kinds
from seqcong.ideals import (
    _by_size,
    _fold,
    _integer_windows,
    _member_tuples,
    _present_windows,
    _seqcong_prefix_children,
    _seqcong_prefix_ok,
    _single_pool,
    _step,
    _walk,
    _window_test,
)

from conftest import (
    _removals,
    _size_revlex,
    all_partitions_upto,
    children_by_filter,
    class_closure,
    oracle_member,
    recursive_member_tuples,
    sa_member,
    sa_member_lcm,
    scan_closure,
    scan_linking,
    scan_members,
    scan_modulus,
    scan_order_refute,
    scan_remainders,
    scan_remainders_per_tail,
    walked_remainders,
)

B12 = AnalysisBound(12, 6)

ALL_KINDS = [
    IdealSpec("SA"),
    IdealSpec("SA_maxlen", 2),
    IdealSpec("SA_maxlen", 3),
    IdealSpec("S"),
    IdealSpec("D"),
    IdealSpec("R"),
    IdealSpec("Rprime"),
    IdealSpec("Adiff"),
    IdealSpec("N_maxlen", 3),
    IdealSpec("P_parity"),
    IdealSpec("P_mod", 3),
    IdealSpec("Pprime"),
]


class TestSpecParsing:
    def test_parse_forms(self):
        assert IdealSpec.parse("R") == IdealSpec("R")
        assert IdealSpec.parse("SA_maxlen:2") == IdealSpec("SA_maxlen", 2)

    def test_unknown_kind(self):
        with pytest.raises(DomainError):
            IdealSpec.parse("bogus")

    def test_param_required(self):
        with pytest.raises(DomainError):
            IdealSpec("N_maxlen")
        with pytest.raises(DomainError):
            IdealSpec("D", 3)

    def test_p_mod_needs_at_least_2(self):
        with pytest.raises(DomainError):
            IdealSpec("P_mod", 1)

    @pytest.mark.parametrize("kind, param", [("N_maxlen", True), ("SA_maxlen", False),
                                             ("P_mod", 2.5), ("P_mod", "3")])
    def test_non_integer_parameter_rejected(self, kind, param):
        with pytest.raises(DomainError, match=f"parameter for {kind} must be an integer"):
            IdealSpec(kind, param)


class TestBoundArguments:
    @pytest.mark.parametrize("value", [True, False, 2.5, 3.0, "3", None])
    def test_non_integer_rejected(self, value):
        for args in ((value, 3), (3, value)):
            with pytest.raises(TypeError, match="bounds must be integers"):
                AnalysisBound(*args)

    def test_below_one_rejected(self):
        for args in ((0, 3), (3, 0), (-1, -1)):
            with pytest.raises(ValueError, match="bounds must be at least 1"):
                AnalysisBound(*args)


class TestRecords:
    """The bound and the reports are frozen slotted records that behave as dataclasses did."""

    def test_keyword_construction_and_defaults(self):
        spec, bound = IdealSpec("R"), AnalysisBound(max_length=4, max_part=8)
        assert bound == AnalysisBound(8, 4)
        report = OrderReport(spec=spec, bound=bound, weak=False, order=2, growing=False, refuted_up_to=1)
        assert report == OrderReport(spec, bound, False, 2, False, 1, None)
        assert report.last_witness is None
        link = LinkReport(spec, 2, bound, "refuted", reason="r")
        assert (link.L_set, link.entries, link.witness, link.reason) == ((), (), None, "r")

    def test_wrong_fields_are_type_errors(self):
        for build in (lambda: LinkEntry(), lambda: LinkEntry(Partition([1]), nope=1),
                      lambda: LinkEntry(Partition([1]), element=Partition([2])),
                      lambda: ModulusReport(*range(7)), lambda: AnalysisBound(1)):
            with pytest.raises(TypeError):
                build()

    def test_repr(self):
        assert repr(AnalysisBound(8, 4)) == "AnalysisBound(max_part=8, max_length=4)"
        assert repr(check_modulus(IdealSpec("S"), 2, AnalysisBound(8, 4))) == (
            "ModulusReport(spec=IdealSpec('S'), modulus=2, bound=AnalysisBound(max_part=8, max_length=4), "
            "holds=False, witness=Partition([3, 3, 3]), direction='shift-escapes')")
        assert repr(LinkEntry(Partition([2]), span=1, linking_set=(Partition([]),))) == (
            "LinkEntry(element=Partition([2]), span=1, linking_set=(Partition([]),), witness=None, reason=None)")

    def test_equality_and_hash_by_fields(self):
        a, b = order_estimate(IdealSpec("R"), B12), order_estimate(IdealSpec("R"), AnalysisBound(12, 6))
        assert a == b and hash(a) == hash(b) and a is not b
        assert a != order_estimate(IdealSpec("D"), B12)
        assert AnalysisBound(8, 4) != (8, 4)
        assert len({AnalysisBound(8, 4), AnalysisBound(8, 4), AnalysisBound(4, 8)}) == 2

    def test_assignment_refused(self):
        report = check_ideal_closure(IdealSpec("S"), AnalysisBound(8, 4))
        for name in ("closed", "witness", "other"):
            with pytest.raises(AttributeError):
                setattr(report, name, None)
        with pytest.raises(AttributeError):
            del report.closed
        assert report.closed is False

    def test_copy_and_pickle_round_trips(self):
        records = [AnalysisBound(8, 4), linked_refutation_example(3), LinkEntry(Partition([2]), span=1),
                   check_modulus(IdealSpec("S"), 2, AnalysisBound(8, 4)),
                   infer_linking(IdealSpec("S"), 2, AnalysisBound(8, 4))]
        for r in records:
            for twin in (copy.copy(r), copy.deepcopy(r), pickle.loads(pickle.dumps(r))):
                assert twin == r and type(twin) is type(r) and repr(twin) == repr(r)


class TestMembership:
    def test_sa_paper_examples(self):
        assert is_member(IdealSpec("SA"), Partition([60] * 5))
        assert not is_member(IdealSpec("SA"), Partition([64] * 5))

    def test_rr_examples(self):
        assert is_member(IdealSpec("R"), Partition([5, 3, 1]))
        assert not is_member(IdealSpec("R"), Partition([3, 2]))

    def test_empty_in_every_kind(self):
        for spec in ALL_KINDS:
            assert is_member(spec, Partition())

    def test_sa_divisibility_matches_lcm_oracle(self):
        sa = IdealSpec("SA")._member
        for p in all_partitions_upto(14):
            assert sa(p.parts) == sa_member(p.parts) == sa_member_lcm(p.parts)
        for t in [(60,) * 5, (64,) * 5, (420, 60, 6), (12, 6, 6), (12, 10, 6)]:
            assert sa(t) == sa_member(t) == sa_member_lcm(t)

    def test_rprime_is_durfee_condition(self):
        from seqcong import durfee_size

        spec = IdealSpec("Rprime")
        for p in all_partitions_upto(12):
            no_parts_below_durfee = len(p) == durfee_size(p)
            assert is_member(spec, p) == no_parts_below_durfee

    def test_adiff_examples(self):
        spec = IdealSpec("Adiff")
        assert is_member(spec, Partition([2, 1]))
        assert not is_member(spec, Partition([3, 2, 1]))  # top gap must be >= 2

    def test_containments(self):
        # maximal ideal inside the congruent members, inside the Durfee family
        sa, s, rp = IdealSpec("SA"), IdealSpec("S"), IdealSpec("Rprime")
        for n in range(31):
            for t in iter_partition_tuples(n):
                p = Partition(t)
                if is_member(sa, p):
                    assert is_member(s, p)
                if is_member(s, p):
                    assert is_member(rp, p)


TABLE_SPECS = [
    IdealSpec.parse(tag)
    for tag in ("SA", "SA_maxlen:1", "SA_maxlen:2", "SA_maxlen:3", "D", "R", "Rprime", "Adiff",
                "N_maxlen:0", "N_maxlen:1", "N_maxlen:2", "N_maxlen:3", "P_parity", "P_mod:2",
                "P_mod:3", "P_mod:4", "Pprime")
]
SUMMARY_SPECS = [spec for spec in TABLE_SPECS if spec._summary is not None]
# every partition of size <= 20 with at most 8 parts
SMALL_TUPLES = [t for n in range(21) for t in iter_partition_tuples(n, None, 8)]


class TestKindTable:
    def test_covers_every_prefix_closed_kind(self):
        assert {s.kind for s in TABLE_SPECS} == set(ideals._KINDS) - {"S"}
        assert all(s.prefix_closed and s.is_true_ideal() for s in TABLE_SPECS)
        assert not IdealSpec("S").prefix_closed and not IdealSpec("S").is_true_ideal()

    def test_s_test_is_its_prefix_rule(self):
        assert IdealSpec("S")._child_ok is _seqcong_prefix_ok
        assert IdealSpec("S")._children is _seqcong_prefix_children

    @pytest.mark.parametrize("spec", TABLE_SPECS + [IdealSpec("S")], ids=str)
    def test_children_rule_is_the_filtered_test(self, spec):
        # for every member prefix (S: every prefix its rule reaches), each lo and
        # a top at most the last part, the rule is a range (or ()) of exactly the
        # parts the test takes
        ok, children, reached = spec._child_ok, spec._children, _fold(spec._child_ok)
        for t in SMALL_TUPLES:
            if not reached(t):
                continue
            i = len(t)
            for top in {t[-1], t[-1] - 1, t[-1] // 2} if t else (21, 5):
                for lo in (1, 2, 3, 4):
                    kids = children(t, i, lo, top)
                    assert type(kids) is range or kids == (), (t, lo, top)
                    assert list(kids) == [v for v in range(lo, top + 1) if ok(t, i, v)], (t, lo, top)

    @pytest.mark.parametrize("spec", TABLE_SPECS, ids=str)
    def test_fold_and_incremental_test_match_closed_form(self, spec):
        oracle, ok = oracle_member(spec), spec._child_ok
        for t in SMALL_TUPLES:
            member = oracle(t)
            assert spec._member(t) == member, t
            if member:
                for v in range(1, (t[-1] if t else 21) + 1):
                    assert ok(t, len(t), v) == oracle(t + (v,)), (t, v)

    def test_incremental_test_reads_only_the_prefix(self):
        for spec in TABLE_SPECS:
            ok = spec._child_ok
            for t in SMALL_TUPLES:
                for i in range(len(t)):
                    assert ok(t, i, t[i]) == ok(t[:i], i, t[i]), (spec, t, i)

    @pytest.mark.parametrize("spec", ALL_KINDS, ids=str)
    def test_walks_read_the_rule_not_the_test(self, spec):
        # no walk, class loop or size search tests a part: the rule lists the children
        spec = IdealSpec(spec.kind, spec.param)
        calls = count_calls(spec, "_child_ok")
        members_within(spec, B12)
        compute_L(spec, 3, B12)
        if spec.prefix_closed:
            counting.member_counts(spec, 30)
            list(counting.iter_members_of_size(spec, 25))
        assert calls[0] == 0

    def test_every_kind_but_adiff_declares_a_summary(self):
        assert {s.kind for s in TABLE_SPECS if s._summary is None} == {"Adiff"}
        assert IdealSpec("S")._summary is None

    @pytest.mark.parametrize("spec", SUMMARY_SPECS, ids=str)
    def test_summary_tells_apart_what_the_test_reads(self, spec):
        # member prefixes of one length, summary and last part get the same
        # answer for every v <= last part, and their member extensions get
        # equal summaries
        ok, summary = spec._child_ok, spec._summary
        seen = {}
        for t in SMALL_TUPLES:
            if not t or not spec._member(t):
                continue
            answers = tuple(
                (True, summary(t + (v,))) if ok(t, len(t), v) else (False,) for v in range(1, t[-1] + 1)
            )
            assert seen.setdefault((len(t), summary(t), t[-1]), answers) == answers, t

    def test_module_table_lists_the_rows_in_order(self):
        rows = re.findall(r"^``(\w+)``  ", kinds.__doc__, re.M)
        assert rows == list(kinds._KINDS)


class TestMemberEnumeration:
    def test_pruned_walk_matches_box_filter(self):
        bound = AnalysisBound(8, 4)
        box = [
            t
            for n in range(bound.max_part * bound.max_length + 1)
            for t in iter_partition_tuples(n, bound.max_part, bound.max_length)
        ]
        for spec in ALL_KINDS:
            expected = sorted(t for t in box if spec.contains(Partition(t)))
            walked = sorted(p.parts for p in members_within(spec, bound))
            assert walked == expected, spec


PREFIX_CLOSED = [spec for spec in ALL_KINDS if spec.prefix_closed] + [
    IdealSpec("SA_maxlen", 1),
    IdealSpec("N_maxlen", 0),
    IdealSpec("N_maxlen", 1),
    IdealSpec("P_mod", 2),
]


def _box_id(bound):
    return f"{bound.max_part}x{bound.max_length}"


class TestWalk:
    @pytest.mark.parametrize("spec", PREFIX_CLOSED, ids=str)
    def test_same_sequence_as_recursive_walk(self, spec):
        for bound in (AnalysisBound(8, 4), AnalysisBound(5, 7)):
            expected = list(recursive_member_tuples(spec, bound.max_part, bound.max_length))
            assert [p.parts for p in members_within(spec, bound)] == expected
            for m in (1, 2, 3):
                walked = list(_walk(spec._children, bound.max_part, bound.max_length, m + 1))
                assert walked == [t for t in expected if all(x > m for x in t)]

    def test_length_cap_beyond_the_recursion_limit(self):
        members = members_within(IdealSpec("N_maxlen", 5000), AnalysisBound(1, 2000))
        assert len(members) == 2001
        assert members[-1] == Partition([1] * 2000)

    def test_memory_holds_one_range_per_length(self):
        # the stack holds a lazy range per length, so max_part does not size it;
        # a list of the root's children alone would take tens of MiB
        tracemalloc.start()
        try:
            for count, t in enumerate(_walk(IdealSpec("D")._children, 10**6, 3), 1):
                if count == 10_000:
                    break
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (count, t) == (10_000, (10**6, 10**6 - 1, 10**6 - 9998))
        assert peak < 16 * 1024  # 1.7 KiB here

    def test_s_walk_matches_size_scan(self):
        # the members of a smaller box are those of 14x7 that fit it, in the same order
        scanned = list(scan_members(IdealSpec("S"), 14, 7))
        for max_part in range(1, 15):
            for max_length in range(1, 8):
                expected = [t for t in scanned if len(t) <= max_length and (not t or t[0] <= max_part)]
                assert list(_member_tuples(IdealSpec("S"), max_part, max_length)) == expected

    def test_s_walk_node_count_pinned(self, monkeypatch):
        # the search follows the prefix rule to 523 tuples where a size scan tests every box tuple
        nodes = []
        search = ideals._by_size
        monkeypatch.setattr(ideals, "_by_size", lambda *args: (nodes.append(t) or t for t in search(*args)))
        assert len(list(_member_tuples(IdealSpec("S"), 12, 6))) == 227
        assert len(nodes) == 523
        assert sum(1 for n in range(73) for _ in iter_partition_tuples(n, 12, 6)) == 18564


SPLICE_BOXES = [AnalysisBound(8, 4), AnalysisBound(5, 7), AnalysisBound(16, 7)] + [
    AnalysisBound(12, n) for n in range(1, 5)]  # 12x1 to 12x4: nothing spliced, or spliced below length 2


class TestClassSplice:
    """A kind with a summary lists each class's tails once; ``_walk`` stays the oracle."""

    @pytest.mark.parametrize("spec", [spec for spec in PREFIX_CLOSED if spec._summary is not None], ids=str)
    @pytest.mark.parametrize("bound", SPLICE_BOXES, ids=_box_id)
    def test_same_sequence_as_walk(self, spec, bound):
        walked = list(_walk(spec._children, bound.max_part, bound.max_length))
        assert [p.parts for p in members_within(spec, bound)] == walked

    def test_summary_not_told_by_the_last_part(self):
        # after an odd first part only odd parts follow, after an even one any part: the last part
        # of a prefix does not tell its first part's parity, so only the summary parts the classes
        spec = IdealSpec("P_parity")
        spec._children = lambda t, i, lo, top: _step(lo, top + 1, 2, 1) if i and t[0] % 2 else range(lo, top + 1)
        for bound in SPLICE_BOXES:
            walked = list(_walk(spec._children, bound.max_part, bound.max_length))
            assert [p.parts for p in members_within(spec, bound)] == walked

    def test_long_length_cap_matches_walk(self):
        # only the last three lengths are spliced, so the tail memo recurses three deep
        spec, bound = IdealSpec("N_maxlen", 5000), AnalysisBound(1, 2000)
        assert [p.parts for p in members_within(spec, bound)] == list(_walk(spec._children, 1, 2000))

    def test_memory_peaks_near_the_list(self):
        # the memo holds the tails of D 16x7's 36 classes of lengths 4 to 6 and is dropped on return:
        # 3.48 MiB peak against 3.47 MiB retained on CPython 3.11
        tracemalloc.start()
        try:
            members = members_within(IdealSpec("D"), AnalysisBound(16, 7))
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(members) == 26333
        assert peak <= 1.25 * retained


class TestSizeSearch:
    """``_by_size`` yields the tuples ``_walk`` yields, by size then reverse lexicographic within a size."""

    @pytest.mark.parametrize("children", [spec._children for spec in TABLE_SPECS] + [_seqcong_prefix_children],
                             ids=[str(spec) for spec in TABLE_SPECS] + ["S-prefix-rule"])
    def test_equals_the_sorted_walk(self, children):
        for max_part in range(1, 9):
            for max_length in range(1, 6):
                for min_part in (1, 2, 3):
                    walked = sorted(_walk(children, max_part, max_length, min_part), key=_size_revlex)
                    assert list(_by_size(children, max_part, max_length, min_part)) == walked, (
                        max_part, max_length, min_part)

    def test_reads_no_rule_past_the_answer(self):
        # each yield comes before the rules of the tuples it leads to are read
        read = []
        search = _by_size(lambda t, i, lo, top: read.append((t, lo)) or range(lo, top + 1), 10**12, 3)
        assert next(search) == () and read == []
        assert next(search) == (1,) and read == [((), 1)]
        assert next(search) == (2,) and read == [((), 1), ((), 2), ((1,), 1)]

    def test_tests_no_part_past_the_answer(self):
        # a rule made by filtering tests each part only when the search reads it
        tried = []
        search = _by_size(children_by_filter(lambda t, i, v: tried.append(t + (v,)) or True), 10**12, 3)
        assert next(search) == () and tried == []
        assert next(search) == (1,) and tried == [(1,)]
        assert next(search) == (2,) and tried == [(1,), (2,), (1, 1)]

    def test_memory_grows_with_pops_not_parts(self):
        # at most one heap entry per pop, whatever max_part is
        tracemalloc.start()
        try:
            search = _by_size(lambda t, i, lo, top: range(lo, top + 1), 10**12, 10)
            for count, t in enumerate(search, 1):
                if count == 10_000:
                    break
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (count, t) == (10_000, (11, 7, 3, 3, 3))
        # ~380 KiB here: 10,000 entries of (size, negated parts, parts) at most
        assert peak < 1024 * 1024


class TestClosure:
    def test_every_real_ideal_is_closed(self):
        bound = AnalysisBound(12, 6)
        for spec in ALL_KINDS:
            if spec.kind == "S":
                continue
            report = check_ideal_closure(spec, bound)
            assert report.closed, (spec, report.witness)

    def test_sa_closed_at_wide_bound(self):
        report = check_ideal_closure(IdealSpec("SA"), AnalysisBound(60, 5))
        assert report.closed

    def test_seqcong_fails_with_smallest_witness(self):
        report = check_ideal_closure(IdealSpec("S"), B12)
        assert not report.closed
        assert report.witness == Partition([3, 3, 3])
        assert report.removed_part == 3
        assert report.after_removal == Partition([3, 3])
        assert is_seq_congruent(report.witness)
        assert not is_seq_congruent(report.after_removal)

    def test_closure_under_arbitrary_removals_follows(self):
        # spot-check the induction: multi-part removal stays inside for D
        spec = IdealSpec("D")
        p = Partition([5, 4, 2, 1])
        assert is_member(spec, remove_parts(p, FrequencyMap({4: 1, 1: 1})))


class TestClosureMatchesScan:
    @pytest.mark.parametrize("bound", [B12, AnalysisBound(20, 4)], ids=_box_id)
    @pytest.mark.parametrize("spec", PREFIX_CLOSED + [IdealSpec("S")], ids=str)
    def test_reports_equal(self, spec, bound):
        assert check_ideal_closure(spec, bound) == scan_closure(spec, bound)

    @pytest.mark.parametrize(
        "kind,excluded,witness,removed,checked",
        [
            ("D", (4, 1), (12, 4, 1), 12, 1018),
            ("D", (12, 3), (12, 11, 3), 11, 382),
            ("P_parity", (5, 1, 1), (11, 5, 1, 1), 11, 903),
            ("P_parity", (12, 12, 12, 12, 10), (12, 12, 12, 12, 12, 10), 12, 8),
            ("Rprime", (6, 5), (12, 6, 5), 12, 1004),
        ],
    )
    def test_first_failing_removal(self, kind, excluded, witness, removed, checked):
        # The kind's test refuses one transition, so the walk leaves out the
        # excluded tuple and its extensions, while a removal still reaches it.
        spec = exclude_transition(IdealSpec(kind), excluded)
        report = check_ideal_closure(spec, B12)
        assert report == scan_closure(spec, B12)
        assert not report.closed
        assert report.witness == Partition(witness)
        assert report.removed_part == removed
        assert report.after_removal == Partition(excluded)
        assert report.members_checked == checked

    @pytest.mark.parametrize("kind", ["D", "P_parity", "Rprime", "N_maxlen:3", "SA"])
    def test_every_single_exclusion_matches_scan(self, kind):
        bound = AnalysisBound(6, 5)
        refuted = 0
        for excluded in recursive_member_tuples(IdealSpec.parse(kind), 6, 3):
            spec = exclude_transition(IdealSpec.parse(kind), excluded)
            report = check_ideal_closure(spec, bound)
            assert report == scan_closure(spec, bound), excluded
            refuted += not report.closed
        assert refuted


def exclude_transition(spec, excluded):
    """Make ``spec``'s incremental test refuse the step to ``excluded``; membership is its fold and
    its children rule the test's filter.

    The excluded step depends on the whole prefix, so the spec declares no summary.
    """
    ok = spec._child_ok
    spec._child_ok = lambda t, i, v: t[:i] + (v,) != excluded and ok(t, i, v)
    spec._children = children_by_filter(spec._child_ok)
    spec._member = _fold(spec._child_ok)
    spec._summary = None
    return spec


def class_runs(monkeypatch):
    """What each later ``_class_layers`` call returns, in order: its classes, or None when a step refused."""
    runs = []
    layers = ideals._class_layers
    monkeypatch.setattr(ideals, "_class_layers", lambda *args: runs.append(layers(*args)) or runs[-1])
    return runs


def class_members(classes):
    return classes and sum(c[0] for c in classes)


def closed_only_without(last, v):
    """D with the step from a last part ``last`` to v refused: the test still reads only the last part."""
    spec = IdealSpec("D")
    spec._child_ok = lambda t, i, w: not i or (w < t[i - 1] and (t[i - 1], w) != (last, v))
    spec._children = children_by_filter(spec._child_ok)
    spec._member = _fold(spec._child_ok)
    return spec


class TestClassClosure:
    @pytest.mark.parametrize(
        "bound", [AnalysisBound(8, 5), B12, AnalysisBound(20, 4), AnalysisBound(16, 7)], ids=_box_id)
    @pytest.mark.parametrize("spec", SUMMARY_SPECS, ids=str)
    def test_reports_equal_scan(self, monkeypatch, spec, bound):
        runs = class_runs(monkeypatch)
        report = check_ideal_closure(spec, bound)
        assert report == scan_closure(spec, bound)
        assert [class_members(classes) for classes in runs] == [report.members_checked] == [
            class_closure(spec, bound)]

    @pytest.mark.parametrize("kind", ["D", "Rprime"])
    def test_large_box(self, monkeypatch, kind):
        # scan_closure reads this same report at 24x8 (about 11 s per kind,
        # so it is pinned here); the count is sum(comb(24, k) for k <= 8)
        # for D, and the same for Rprime, counted here over last parts
        bound = AnalysisBound(24, 8)
        counts = [0] * 24 + [1]  # members of the current length, by last part
        members = 1
        for i in range(8):
            counts = [sum(counts[v:]) if v > i else 0 for v in range(25)]
            members += sum(counts)
        assert members == sum(comb(24, k) for k in range(9)) == 1271626
        spec = IdealSpec(kind)
        runs = class_runs(monkeypatch)
        assert check_ideal_closure(spec, bound) == ClosureReport(spec, bound, True, members)
        assert [class_members(classes) for classes in runs] == [members]

    def test_refused_for_a_spec_that_is_not_closed(self, monkeypatch):
        # runs of consecutive parts: removing an inner part breaks the run
        spec = IdealSpec("D")
        spec._child_ok = lambda t, i, v: not i or v == t[i - 1] - 1
        spec._children = children_by_filter(spec._child_ok)
        spec._member = _fold(spec._child_ok)
        spec._summary = lambda t: None
        runs = class_runs(monkeypatch)
        report = check_ideal_closure(spec, B12)
        assert runs == [None]
        assert report == scan_closure(spec, B12)
        assert not report.closed
        assert report.witness == Partition([12, 11, 10])
        assert report.after_removal == Partition([12, 10])

    @pytest.mark.parametrize("last,v", [(5, 3), (12, 1), (2, 1), (9, 7), (4, 2)])
    @pytest.mark.parametrize("bound", [AnalysisBound(8, 5), B12], ids=_box_id)
    def test_refused_where_one_step_is_left_out(self, monkeypatch, last, v, bound):
        # a test that still reads only the last part, so the pair pass runs and
        # refuses when the left-out step is a removal of a member in the box
        spec = closed_only_without(last, v)
        runs = class_runs(monkeypatch)
        report = check_ideal_closure(spec, bound)
        assert report == scan_closure(spec, bound)
        expected = report.members_checked if report.closed else None
        assert [class_members(classes) for classes in runs] == [expected] == [class_closure(spec, bound)]


def pair_tests(spec, bound):
    """``_child_ok`` and ``_children`` calls of the pair closure, derived from the walked members.

    Members below the cap fall into classes (length, summary, last part), each
    reading its children rule once; each distinct (length, class of t, class of
    s), s a single-part removal of t, tests s + (v,) once per part v <= t's
    last that the kind's test takes after t.
    """
    def key(t):
        return (spec._summary(t), t[-1]) if t else None

    classes, pairs = {}, set()
    for t in _walk(spec._children, bound.max_part, bound.max_length):
        if len(t) < bound.max_length:
            classes.setdefault((len(t), key(t)), t)
            pairs.update((len(t), key(t), key(s)) for _, s in _removals(t))
    kids = {(n, k): sum(spec._child_ok(t, n, v) for v in range(1, (t[-1] if t else bound.max_part) + 1))
            for (n, k), t in classes.items()}
    return sum(kids[n, k] for n, k, _ in pairs), len(classes)


def class_tests(spec, bound):
    """``_child_ok`` and ``_children`` calls of the class closure, derived from the walked members.

    Members below the cap are grouped by length, key (summary, last part) and
    their removals' keys; each class reads its children rule once, and each
    child tests one removal per removal key, but for the key of t's own
    parent when the child's part repeats t's last (t's parent plus it is t).
    """
    def key(t):
        return (spec._summary(t), t[-1]) if t else None

    classes = {}
    for t in _walk(spec._children, bound.max_part, bound.max_length):
        if len(t) < bound.max_length:
            classes.setdefault((len(t), key(t), frozenset(key(s) for _, s in _removals(t))), t)
    tests = 0
    for (n, _, removal_keys), t in classes.items():
        top = t[-1] if t else bound.max_part
        tests += sum(len(removal_keys) - (bool(t) and v == t[-1])
                     for v in range(1, top + 1) if spec._child_ok(t, n, v))
    return tests, len(classes)


def count_calls(spec, attr):
    """Wrap ``spec.<attr>`` to count its calls; returns the one-element count list."""
    calls = [0]
    inner = getattr(spec, attr)

    def counted(*args):
        calls[0] += 1
        return inner(*args)

    setattr(spec, attr, counted)
    return calls


class TestClosureWork:
    @pytest.mark.parametrize("spec", PREFIX_CLOSED, ids=str)
    def test_prefix_closed_kinds_never_call_member(self, spec):
        spec = IdealSpec(spec.kind, spec.param)
        calls = count_calls(spec, "_member")
        assert check_ideal_closure(spec, B12).closed
        assert calls[0] == 0

    def test_s_decides_removals_by_member(self):
        spec = IdealSpec("S")
        calls = count_calls(spec, "_member")
        report = check_ideal_closure(spec, B12)
        assert report.members_checked == 19
        assert calls[0] > report.members_checked

    # parent: the calls when the class loop tested every part under each class
    @pytest.mark.parametrize("kind,parent,members", [("D", 2125, 2510), ("P_parity", 1492, 1847)])
    def test_class_child_ok_calls_pinned(self, kind, parent, members):
        # one test per pair of classes and child, one rule read per class below the cap; the
        # former class closure, kept as the oracle, tested one removal per removal set it sat in
        spec = IdealSpec(kind)
        calls, rules = count_calls(spec, "_child_ok"), count_calls(spec, "_children")
        assert check_ideal_closure(spec, B12).members_checked == members
        pinned = {"D": (819, 51), "P_parity": (490, 61)}[kind]
        assert (calls[0], rules[0]) == pinned == pair_tests(IdealSpec(kind), B12)
        spec = IdealSpec(kind)
        calls, rules = count_calls(spec, "_child_ok"), count_calls(spec, "_children")
        assert class_closure(spec, B12) == members
        oracle = {"D": (1244, 215), "P_parity": (590, 181)}[kind]
        assert (calls[0], rules[0]) == oracle == class_tests(IdealSpec(kind), B12)
        assert pinned[0] < oracle[0] < parent

    @pytest.mark.parametrize("box,pinned,oracle", [((16, 7), 2400, 3890), ((20, 7), 5040, 8520)],
                             ids=["16x7", "20x7"])
    def test_pair_calls_pinned_on_larger_boxes(self, box, pinned, oracle):
        spec, bound = IdealSpec("D"), AnalysisBound(*box)
        calls = count_calls(spec, "_child_ok")
        assert check_ideal_closure(spec, bound).closed
        assert calls[0] == pinned == pair_tests(IdealSpec("D"), bound)[0]
        spec = IdealSpec("D")
        calls = count_calls(spec, "_child_ok")
        assert class_closure(spec, bound) == sum(comb(box[0], k) for k in range(box[1] + 1))
        assert calls[0] == oracle > pinned

    # parent: the calls when the walk tested every part under each member
    @pytest.mark.parametrize("kind,parent,members", [("D", 13873, 2510), ("P_parity", 6917, 1847)])
    def test_child_ok_calls_pinned(self, kind, parent, members):
        # with the summary cleared, one test per removal of each member other
        # than the parent (one per distinct part value), and one rule read per
        # member below the cap
        walked = list(_walk(IdealSpec(kind)._children, 12, 6))
        spec = IdealSpec(kind)
        spec._summary = None
        calls, rules = count_calls(spec, "_child_ok"), count_calls(spec, "_children")
        assert check_ideal_closure(spec, B12).members_checked == members == len(walked)
        assert calls[0] == {"D": 9779, "P_parity": 3698}[kind] == sum(len(set(t)) - 1 for t in walked if t)
        assert rules[0] == sum(len(t) < 6 for t in walked)
        assert calls[0] < parent

    def test_adiff_child_ok_calls_pinned(self):
        # Adiff, with no summary, walks; its gaps are read once per member, where
        # testing every part under each member took 9,305 calls
        spec = IdealSpec("Adiff")
        calls, rules = count_calls(spec, "_child_ok"), count_calls(spec, "_children")
        walked = list(_walk(IdealSpec("Adiff")._children, 16, 7))
        assert check_ideal_closure(spec, AnalysisBound(16, 7)).members_checked == len(walked)
        assert calls[0] == 4188 == sum(len(set(t)) - 1 for t in walked if t)
        assert rules[0] == 1560 == sum(len(t) < 7 for t in walked)

    def test_members_within_reads_only_the_rule(self):
        # one rule read per member below length 4, walked, and one per class of lengths 4 to 6, spliced;
        # walking every prefix read the rule 14,893 times (once per member below the cap), and testing
        # every part under each member took 41,224 calls of the kind's test
        parent = 14893
        spec = IdealSpec("D")
        calls, rules = count_calls(spec, "_child_ok"), count_calls(spec, "_children")
        members = members_within(spec, AnalysisBound(16, 7))
        assert len(members) == sum(comb(16, k) for k in range(8)) == 26333
        classes = len({(len(p), p.parts[-1]) for p in members if 4 <= len(p) < 7})
        assert (calls[0], rules[0]) == (0, 733) == (0, sum(len(p) < 4 for p in members) + classes)
        assert rules[0] < parent == sum(len(p) < 7 for p in members)

    @pytest.mark.parametrize("kind,m", [("D", 1), ("R", 2)])
    def test_length_cap_past_the_members(self, kind, m):
        # no member of D or R with parts <= 5 is longer than 5, so the class
        # engines stop at their first empty layer and a cap of 10**14 answers
        # as 6 does (P_parity, whose parts repeat, never empties a layer)
        spec, small, huge = IdealSpec(kind), AnalysisBound(5, 6), AnalysisBound(5, 10**14)
        closure = check_ideal_closure(spec, huge)
        assert (closure.closed, closure.members_checked) == (True, check_ideal_closure(spec, small).members_checked)
        assert check_modulus(spec, m, huge).holds == check_modulus(spec, m, small).holds
        link, expected = infer_linking(spec, m, huge), infer_linking(spec, m, small)
        assert link.verdict == expected.verdict == "linked-within-bound"
        assert link.entries == expected.entries and link.L_set == expected.L_set

    def test_memory_holds_no_memo(self):
        # a memo of every removal peaked at 1777 KiB on this box; the removal
        # lists of one walk path take a few KiB
        tracemalloc.start()
        try:
            check_ideal_closure(IdealSpec("D"), AnalysisBound(16, 7))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 256 * 1024


class TestOrder:
    def test_rr_order_two(self):
        report = order_estimate(IdealSpec("R"), AnalysisBound(12, 8))
        assert report.order == 2 and not report.growing

    def test_distinct_order_one(self):
        report = order_estimate(IdealSpec("D"), AnalysisBound(12, 8))
        assert report.order == 1 and not report.growing

    def test_sa_refutations_use_two_part_witnesses(self):
        bound = AnalysisBound(12, 8)
        for k in range(1, 7):
            w = order_refute(IdealSpec("SA"), k, bound)
            assert w == Partition([k + 1, 1])

    def test_sa_grows_with_bound(self):
        report = order_estimate(IdealSpec("SA"), AnalysisBound(12, 8))
        assert report.growing and report.order is None

    def test_refutation_witnesses_are_genuine(self):
        bound = AnalysisBound(10, 6)
        spec = IdealSpec("SA")
        w = order_refute(spec, 3, bound)
        assert not is_member(spec, w)
        # every 3-wide window of consecutive values is a member
        for m in range(1, bound.max_part + 1):
            window = Partition([x for x in w.parts if m <= x <= m + 2])
            assert is_member(spec, window)

    def test_published_two_part_instance_is_a_valid_witness(self):
        # (5,1) refutes width 3: no window reaches both parts, each alone is a member
        spec = IdealSpec("SA")
        w = Partition([5, 1])
        assert not is_member(spec, w)
        for m in range(1, 13):
            window = Partition([x for x in w.parts if m <= x <= m + 2])
            assert is_member(spec, window)

    def test_weak_orders(self):
        assert weak_order_estimate(IdealSpec("P_parity"), AnalysisBound(12, 8)).order == 2
        assert weak_order_estimate(IdealSpec("N_maxlen", 3), AnalysisBound(12, 8)).order == 4

    def test_s_order_grows(self):
        # the maximal ideal's order grows with the box: its last witness presses against the part cap
        bound = AnalysisBound(12, 8)
        assert order_estimate(IdealSpec("S"), bound) == OrderReport(IdealSpec("S"), bound, False, None, True, 11,
                                                                    Partition([12, 1]))

    def test_weak_order_rprime_grows(self):
        report = weak_order_estimate(IdealSpec("Rprime"), AnalysisBound(12, 8))
        assert report.growing and report.order is None

    def test_strong_orders_of_infinite_families_grow(self):
        bound = AnalysisBound(12, 8)
        for spec in (IdealSpec("Rprime"), IdealSpec("Adiff"), IdealSpec("N_maxlen", 3), IdealSpec("P_parity")):
            assert order_estimate(spec, bound).growing, spec


class TestOrderWork:
    @pytest.mark.parametrize("estimate,kind,bound,tests,parent", [
        (order_estimate, "R", AnalysisBound(12, 8), 1957, 2734),
        (order_estimate, "P_parity", AnalysisBound(12, 8), 1300, 2019),
        (weak_order_estimate, "D", AnalysisBound(10, 6), 2958, 5528),
        (weak_order_estimate, "Rprime", AnalysisBound(8, 5), 2343, 7709),
    ], ids=["order-R-12x8", "order-P_parity-12x8", "weak-D-10x6", "weak-Rprime-8x5"])
    def test_kind_test_calls_pinned(self, estimate, kind, bound, tests, parent):
        # calls of the kind's test; a part the test refuses costs at most one more
        # call, on its widest window, where folding the test over every window
        # made the parent's figure
        spec = IdealSpec(kind)
        calls = count_calls(spec, "_child_ok")
        spec._member = _fold(spec._child_ok)
        estimate(spec, bound)
        assert calls[0] == tests < parent

    @pytest.mark.parametrize("spec", PREFIX_CLOSED + [IdealSpec("S")], ids=str)
    def test_prefix_closed_kinds_build_no_window(self, monkeypatch, spec):
        # a prefix-closed kind decides each refused part by one test of its widest
        # window; S folds its prefix rule over every window, which shows the spy live
        bound = AnalysisBound(10, 6)
        expected = order_estimate(spec, bound), weak_order_estimate(spec, bound)
        built = []

        def spy(windows):
            return lambda t, k: built.append(t) or windows(t, k)

        monkeypatch.setattr(ideals, "_integer_windows", spy(_integer_windows))
        monkeypatch.setattr(ideals, "_present_windows", spy(_present_windows))
        assert (order_estimate(spec, bound), weak_order_estimate(spec, bound)) == expected
        assert bool(built) == (not spec.prefix_closed)

    def test_s_weak_order_work_pinned(self, monkeypatch):
        # S's search takes a part when its prefix rule does or every window passes the rule's fold;
        # the parent took every part and popped 126,133 tuples with 258,076 member tests
        popped = []
        search = ideals._by_size
        monkeypatch.setattr(ideals, "_by_size", lambda *args: (popped.append(t) or t for t in search(*args)))
        spec, bound = IdealSpec("S"), AnalysisBound(12, 8)
        calls = count_calls(spec, "_member")
        assert weak_order_estimate(spec, bound) == OrderReport(spec, bound, True, 3, False, 2, Partition([5, 4, 2]))
        assert (len(popped), calls[0]) == (719, 1193)


def windows_pass(t, k, windows, test):
    """Whether every k-window of t passes test: the order search's former part test, kept as the oracle."""
    return all(test(w) for w in windows(t, k))


class TestWindowTest:
    @pytest.mark.parametrize("spec", TABLE_SPECS, ids=str)
    def test_matches_every_window(self, spec):
        # every member t of the 10x6 box, every part v <= t[-1] the kind's test refuses after it
        ok, fold, cases = spec._child_ok, _fold(spec._child_ok), 0
        for t in _walk(spec._children, 10, 6):
            for v in range(1, (t[-1] if t else 10) + 1):
                if ok(t, len(t), v):
                    continue
                for k in range(1, 7):
                    for windows in (_integer_windows, _present_windows):
                        want = windows_pass(t + (v,), k, windows, fold)
                        assert _window_test(ok, k, windows is _present_windows)(t, len(t), v) == want, (t, v, k)
                        cases += 1
        assert cases


ORDER_BOXES = [AnalysisBound(8, 5), AnalysisBound(10, 6), AnalysisBound(7, 7), AnalysisBound(9, 4)]


def _scan_estimate(monkeypatch, estimate, spec, bound):
    """The estimate as the size scan gives it, and the scan's witness at each width tried."""
    found = {}

    def scan(spec, k, bound, windows):
        found[k] = scan_order_refute(spec, k, bound, windows)
        return found[k]

    with monkeypatch.context() as patched:
        patched.setattr(ideals, "_order_refute", scan)
        return estimate(spec, bound), found


class TestOrderMatchesScan:
    @pytest.mark.parametrize("bound", ORDER_BOXES + [AnalysisBound(12, 8)], ids=_box_id)
    @pytest.mark.parametrize("spec", PREFIX_CLOSED, ids=str)
    def test_order(self, monkeypatch, spec, bound):
        expected, found = _scan_estimate(monkeypatch, order_estimate, spec, bound)
        assert order_estimate(spec, bound) == expected
        for k, witness in found.items():
            assert order_refute(spec, k, bound) == witness

    # The weak scans at 12x8 take about a second per kind, so that box is
    # checked on the two kinds whose weak orders the other tests quote.
    @pytest.mark.parametrize(
        "spec,bound",
        [(spec, bound) for spec in PREFIX_CLOSED for bound in ORDER_BOXES]
        + [(IdealSpec("P_parity"), AnalysisBound(12, 8)),
           (IdealSpec("N_maxlen", 3), AnalysisBound(12, 8))],
        ids=lambda x: str(x) if isinstance(x, IdealSpec) else _box_id(x),
    )
    def test_weak_order(self, monkeypatch, spec, bound):
        expected, found = _scan_estimate(monkeypatch, weak_order_estimate, spec, bound)
        assert weak_order_estimate(spec, bound) == expected
        for k, witness in found.items():
            assert weak_order_refute(spec, k, bound) == witness

    @pytest.mark.parametrize("windows", [_integer_windows, _present_windows])
    def test_non_ideal_matches_the_scan(self, windows):
        for bound in (AnalysisBound(6, 4), AnalysisBound(8, 5), AnalysisBound(9, 6), AnalysisBound(10, 5)):
            for k in range(1, bound.max_part):  # the widths an estimate asks
                assert ideals._order_refute(IdealSpec("S"), k, bound, windows) == scan_order_refute(
                    IdealSpec("S"), k, bound, windows), (bound, k)


class TestModulus:
    def test_classical_moduli_hold(self):
        assert check_modulus(IdealSpec("D"), 1, B12).holds
        assert check_modulus(IdealSpec("R"), 1, B12).holds
        assert check_modulus(IdealSpec("R"), 2, B12).holds
        assert check_modulus(IdealSpec("SA_maxlen", 2), 2, B12).holds
        assert check_modulus(IdealSpec("SA_maxlen", 3), 6, B12).holds

    def test_sa_has_no_modulus(self):
        for m in range(1, 7):
            report = check_modulus(IdealSpec("SA"), m, B12)
            assert not report.holds
            assert report.direction == "shift-escapes"
            shifted = Partition([x + m for x in report.witness.parts])
            assert is_member(IdealSpec("SA"), report.witness)
            assert not is_member(IdealSpec("SA"), shifted)

    def test_rprime_has_no_modulus(self):
        assert not check_modulus(IdealSpec("Rprime"), 1, B12).holds

    def test_constant_witness_matches_length_argument(self):
        # len m+1 members stop being members once the last part drifts off its multiple
        report = check_modulus(IdealSpec("SA"), 4, B12)
        assert len(report.witness) >= 3


class TestIntegerArguments:
    """A modulus, layer width or span cap that is not an int (a bool included) is a TypeError."""

    @pytest.mark.parametrize("value", [True, 2.5, 2.0, "2"])
    def test_non_integer_rejected(self, value):
        d, p = IdealSpec("D"), Partition([5, 3, 1])
        calls = [
            lambda: check_modulus(d, value, B12),
            lambda: compute_L(d, value, B12),
            lambda: infer_linking(d, value, B12),
            lambda: infer_linking(d, 1, B12, value),
            lambda: andrews_decompose(p, value),
            lambda: andrews_compose([p], value),
        ]
        for call in calls:
            with pytest.raises(TypeError, match=f"must be an integer, got {re.escape(repr(value))}"):
                call()

    def test_below_one_still_a_domain_error(self):
        d = IdealSpec("D")
        for call, message in [(lambda: check_modulus(d, 0, B12), "modulus"),
                              (lambda: infer_linking(d, 1, B12, 0), "span cap"),
                              (lambda: andrews_decompose(Partition([1]), -1), "layer width")]:
            with pytest.raises(DomainError, match=f"^{message} must be positive$"):
                call()


class TestLSet:
    def test_distinct_m1(self):
        report = compute_L(IdealSpec("D"), 1, B12)
        assert [p.parts for p in report.members] == [(), (1,)]
        assert not report.truncated

    def test_rr_m2(self):
        report = compute_L(IdealSpec("R"), 2, B12)
        assert [p.parts for p in report.members] == [(), (1,), (2,)]
        assert not report.truncated

    def test_parity_m1_unbounded(self):
        assert compute_L(IdealSpec("P_parity"), 1, B12).truncated


class TestAndrewsDecomposition:
    def test_bucketing_example(self):
        pieces = andrews_decompose(Partition([5, 2]), 2)
        assert pieces == [Partition([2]), Partition(), Partition([1])]
        assert andrews_compose(pieces, 2) == Partition([5, 2])

    def test_wide_layer(self):
        assert andrews_decompose(Partition([3, 1]), 5) == [Partition([3, 1])]

    def test_empty(self):
        assert andrews_decompose(Partition(), 3) == []
        assert andrews_compose([], 3) == Partition()

    def test_roundtrip_exhaustive(self):
        for p in all_partitions_upto(14):
            for m in range(1, 7):
                assert andrews_compose(andrews_decompose(p, m), m) == p

    def test_pieces_land_in_L_for_modulus_ideals(self):
        cases = [
            (IdealSpec("D"), 1),
            (IdealSpec("R"), 1),
            (IdealSpec("R"), 2),
            (IdealSpec("SA_maxlen", 2), 2),
        ]
        for spec, m in cases:
            lset = set(compute_L(spec, m, B12).members)
            for p in members_within(spec, B12):
                for piece in andrews_decompose(p, m):
                    assert piece in lset, (spec, m, p, piece)


class TestLinking:
    def test_distinct_is_linked_with_unit_spans(self):
        report = infer_linking(IdealSpec("D"), 1, B12)
        assert report.verdict == "linked-within-bound"
        assert [p.parts for p in report.L_set] == [(), (1,)]
        for entry in report.entries:
            assert entry.span == 1
            assert set(entry.linking_set) == set(report.L_set)

    def test_rr_modulus_one_spans(self):
        report = infer_linking(IdealSpec("R"), 1, B12)
        assert report.verdict == "linked-within-bound"
        assert report.entry_for(Partition()).span == 1
        one = report.entry_for(Partition([1]))
        assert one.span == 2
        assert set(one.linking_set) == set(report.L_set)

    def test_rr_modulus_two_spans(self):
        report = infer_linking(IdealSpec("R"), 2, B12)
        assert report.verdict == "linked-within-bound"
        assert report.entry_for(Partition([1])).span == 1
        two = report.entry_for(Partition([2]))
        assert two.span == 1
        assert {q.parts for q in two.linking_set} == {(), (2,)}

    def test_empty_tail_links_to_whole_L(self):
        for spec, m in [(IdealSpec("D"), 1), (IdealSpec("R"), 1), (IdealSpec("R"), 2)]:
            report = infer_linking(spec, m, B12)
            entry = report.entry_for(Partition())
            assert set(entry.linking_set) == set(report.L_set)

    def test_empty_partition_in_every_linking_set(self):
        for spec, m in [(IdealSpec("D"), 1), (IdealSpec("R"), 1), (IdealSpec("R"), 2)]:
            for entry in infer_linking(spec, m, B12).entries:
                assert Partition() in entry.linking_set

    def test_sa_subideal_refuted(self):
        report = infer_linking(IdealSpec("SA_maxlen", 2), 2, B12)
        assert report.verdict == "refuted"
        assert report.witness is not None
        assert not is_member(IdealSpec("SA_maxlen", 2), report.witness)
        assert not is_seq_congruent(report.witness)

    def test_parity_has_unbounded_L(self):
        assert infer_linking(IdealSpec("P_parity"), 1, B12).verdict == "L-infinite-within-bound"

    def test_length_cap_family_refuted(self):
        report = infer_linking(IdealSpec("N_maxlen", 3), 1, B12)
        assert report.verdict == "refuted"
        assert len(report.witness) > 3

    def test_difference_family_refuted_like_published_argument(self):
        report = infer_linking(IdealSpec("Adiff"), 1, B12)
        assert report.verdict == "refuted"
        # the witness is a member-extension that breaks the top gap
        assert not is_member(IdealSpec("Adiff"), report.witness)

    def test_linked_implies_finite_order(self):
        bound = AnalysisBound(10, 5)
        cases = [
            (IdealSpec("D"), 1),
            (IdealSpec("R"), 2),
            (IdealSpec("SA_maxlen", 2), 2),
            (IdealSpec("N_maxlen", 3), 1),
            (IdealSpec("P_parity"), 1),
            (IdealSpec("Adiff"), 1),
        ]
        for spec, m in cases:
            link = infer_linking(spec, m, bound)
            order = order_estimate(spec, AnalysisBound(10, 8))
            if link.verdict == "linked-within-bound":
                assert order.order is not None, spec
            if order.growing:
                assert link.verdict in ("refuted", "L-infinite-within-bound"), spec


def scanned_pool(spec, m, bound, tails):
    """``_single_pool`` with the remainders per tail listed by the box scan."""
    _, tail, builds = _single_pool(spec, m, bound, tails)
    return scan_remainders(spec, m, bound, tails), tail, builds


class TestLinkingMatchesScan:
    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("spec", PREFIX_CLOSED + [IdealSpec("S")], ids=str)
    def test_remainders(self, spec, m):
        # the single pool's remainders per tail; S walks its prefix rule
        tails = [p.parts for p in compute_L(spec, m, B12).members]
        assert _single_pool(spec, m, B12, tails)[0] == scan_remainders(spec, m, B12, tails)

    @pytest.mark.parametrize("m", [1, 2])
    @pytest.mark.parametrize("kind", ["D", "P_parity", "Adiff", "N_maxlen:3", "S"])
    def test_one_scan_matches_a_scan_per_tail(self, kind, m):
        spec, bound = IdealSpec.parse(kind), AnalysisBound(8, 5)
        tails = [p.parts for p in compute_L(spec, m, bound).members]
        assert scan_remainders(spec, m, bound, tails) == scan_remainders_per_tail(spec, m, bound, tails)

    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("spec", PREFIX_CLOSED + [IdealSpec("S")], ids=str)
    def test_reports_equal(self, monkeypatch, spec, m):
        bound = AnalysisBound(8, 4) if spec.kind == "S" else B12
        report = infer_linking(spec, m, bound)
        monkeypatch.setattr(ideals, "_single_pool", scanned_pool)
        assert report == infer_linking(spec, m, bound)

    @pytest.mark.parametrize("max_part", [1, 2])
    def test_s_where_its_modulus_holds(self, max_part):
        # S fails the modulus on the other boxes, before its remainders are listed
        s, listed = IdealSpec("S"), 0
        for max_length in range(2, 6):
            bound = AnalysisBound(max_part, max_length)
            for m in (1, 2, 3):
                if not check_modulus(s, m, bound).holds:
                    continue
                for span_cap in (1, 4):
                    report = infer_linking(s, m, bound, span_cap)
                    assert report == scan_linking(s, m, bound, span_cap), (bound, m, span_cap)
                    listed += bool(report.entries)
        assert listed


LINK_BOXES = [AnalysisBound(8, 5), AnalysisBound(10, 5), B12, AnalysisBound(9, 7)]


class TestModulusAndLinkingMatchScan:
    @pytest.mark.parametrize("spec", PREFIX_CLOSED + [IdealSpec("S")], ids=str)
    def test_reports_equal(self, spec):
        for bound in LINK_BOXES:
            for m in (1, 2, 3):
                modulus = scan_modulus(spec, m, bound)
                assert check_modulus(spec, m, bound) == modulus, (bound, m)
                listed = []  # the oracle's remainders, listed once for both span caps

                def remainders(*args):
                    listed[:] = listed or [walked_remainders(*args)]
                    return listed[0]

                for span_cap in (1, 4):
                    expected = scan_linking(spec, m, bound, span_cap, remainders, lambda *_: modulus)
                    assert infer_linking(spec, m, bound, span_cap) == expected, (bound, m, span_cap)

    def test_every_single_exclusion_matches_scan(self):
        bound, seen = AnalysisBound(6, 4), set()
        for excluded in recursive_member_tuples(IdealSpec("D"), 6, 4):
            spec = exclude_transition(IdealSpec("D"), excluded)
            for m in (1, 2):
                report = check_modulus(spec, m, bound)
                assert report == scan_modulus(spec, m, bound), (excluded, m)
                seen.add(report.direction)
                for span_cap in (1, 4):
                    link = infer_linking(spec, m, bound, span_cap)
                    assert link == scan_linking(spec, m, bound, span_cap), (excluded, m, span_cap)
                    seen.update(e.reason.split()[-1] for e in link.entries if e.reason)
        assert {"shift-escapes", "unshift-escapes", "non-member"} <= seen

    def test_remainder_tail_outside_the_small_members(self):
        # distinct parts with an odd first part: shifts by 2 keep both rules,
        # but the tail (2,) of the remainder (3, 2) of (5, 4) is no member.
        # (A remainder shifted down never leaves the ideal once the modulus
        # holds, since it is reached by shifts down by m inside the box.)
        spec = IdealSpec("D")
        spec._child_ok = lambda t, i, v: v < t[i - 1] if i else v % 2 == 1
        spec._children = children_by_filter(spec._child_ok)
        spec._member = _fold(spec._child_ok)
        spec._summary = None
        report = infer_linking(spec, 2, AnalysisBound(8, 4))
        assert report == scan_linking(spec, 2, AnalysisBound(8, 4))
        assert report.reason == "member remainder's tail is outside the small-member set"
        assert report.witness == Partition([5, 4])


def span_runs(monkeypatch):
    """Every entry of each later ``_span_search`` run, in order: a class run comes first."""
    runs = []
    search = ideals._span_search
    monkeypatch.setattr(ideals, "_span_search", lambda *args: runs.append(list(search(*args))) or iter(runs[-1]))
    return runs


class TestClassModulusAndLinking:
    """The class path, for kinds with a summary, against the walk of the same spec with its summary cleared."""

    @pytest.mark.parametrize("spec", SUMMARY_SPECS, ids=str)
    def test_reports_equal_walk(self, monkeypatch, spec):
        walk, runs = walk_spec(spec.kind, spec.param), span_runs(monkeypatch)
        for bound in LINK_BOXES:
            for m in (1, 2, 3, 6):
                modulus = check_modulus(spec, m, bound)
                assert modulus == check_modulus(walk, m, bound), (bound, m)
                for span_cap in (1, 4):
                    runs.clear()
                    report = infer_linking(spec, m, bound, span_cap)
                    searched = list(runs)
                    assert report == infer_linking(walk, m, bound, span_cap), (bound, m, span_cap)
                    if report.verdict == "refuted" and modulus.holds:
                        # the class run leaves an element without a span, and single remainders run
                        assert len(searched) == 2 and not all(e.found for e in searched[0])
                    elif report.verdict == "linked-within-bound":
                        assert len(searched) == 1

    def test_remainder_tail_outside_the_small_members(self, monkeypatch):
        # the hand-built spec of TestModulusAndLinkingMatchScan, whose test
        # reads only the length and last part, so it may declare the blank
        # summary: the tail (2,) is outside L, no span passes on classes, and
        # the walk names the witness
        spec = IdealSpec("D")
        spec._child_ok = lambda t, i, v: v < t[i - 1] if i else v % 2 == 1
        spec._children = children_by_filter(spec._child_ok)
        spec._member = _fold(spec._child_ok)
        spec._summary = lambda t: None
        bound, runs = AnalysisBound(8, 4), span_runs(monkeypatch)
        report = infer_linking(spec, 2, bound)
        assert [[e.element.parts for e in entries] for entries in runs] == [[(), (1,)]] * 2
        assert not all(e.found for e in runs[0])
        assert report == scan_linking(spec, 2, bound)
        assert report.reason == "member remainder's tail is outside the small-member set"

    def test_span_cap_past_the_box_walks(self):
        # classes carry one shift per span up to the cap; a cap past the box's
        # parts goes to the walk, which tries only spans below the least remainder part
        bound = AnalysisBound(8, 4)
        report = infer_linking(IdealSpec("D"), 1, bound, 10**9)
        assert report == infer_linking(walk_spec("D"), 1, bound, 10**9) == infer_linking(IdealSpec("D"), 1, bound)

    def test_sweep_decides_and_refutes_past_the_modulus(self):
        seen = set()
        for spec in SUMMARY_SPECS:
            for m in (1, 2, 3):
                if check_modulus(spec, m, AnalysisBound(8, 5)).holds:
                    seen.add(infer_linking(spec, m, AnalysisBound(8, 5)).verdict)
        assert seen == {"linked-within-bound", "refuted", "L-infinite-within-bound"}


class TestMoves:
    def test_moves_match_membership(self):
        # a move is the shifted tuple when that is a member and None otherwise,
        # also above a prefix whose move failed; children are asked for before
        # their parents, so each answer climbs to a decided prefix first
        members = list(recursive_member_tuples(IdealSpec("D"), 7, 3))[::-1]
        for excluded in [(5,), (4, 2), (7, 6, 1)]:
            spec = exclude_transition(IdealSpec("D"), excluded)
            for d in (2, -1):
                moves = ideals._Moves(spec._child_ok, d)
                for t in members:
                    if t and t[-1] + d > 0:
                        moved = tuple(x + d for x in t)
                        assert moves[t] == (moved if spec._member(moved) else None), (excluded, d, t)


def modulus_tests(spec, m, bound):
    """``_child_ok`` and ``_children`` calls of a walked modulus check that holds: one test per shift
    of each member, and one rule read per member below the cap."""
    walked = list(_walk(spec._children, bound.max_part, bound.max_length))
    return sum(1 + (t[-1] > m) for t in walked if t), sum(len(t) < bound.max_length for t in walked)


def shifted(t, d):
    return tuple(x + d for x in t)


def class_reps(spec, bound, carried, min_part=1):
    """One representative per class of the walked members, by (length, key, ``carried(t)``).

    The key is (summary, last part), None for the empty tuple.
    """
    reps = {}
    for t in _walk(spec._children, bound.max_part, bound.max_length, min_part):
        reps.setdefault((len(t), t and (spec._summary(t), t[-1]), carried(t)), t)
    return list(reps.values())


def class_modulus_tests(spec, m, bound):
    """``_child_ok`` and ``_children`` calls of the class modulus check when it holds, derived from the
    walked members.

    A class also keys its shifts' summaries.  Each class below the cap reads
    its children rule, and each child tests its shift up, and its shift down
    when the child's last part exceeds m.
    """
    def shift_summaries(t):
        return t and (spec._summary(shifted(t, m)), t[-1] > m and spec._summary(shifted(t, -m)))

    ok, tests, reads = spec._child_ok, 0, 0
    for t in class_reps(spec, bound, shift_summaries):
        if len(t) < bound.max_length:
            top = t[-1] if t else bound.max_part
            tests += sum(1 + (v > m) for v in range(1, top + 1) if ok(t, len(t), v))
            reads += 1
    return tests, reads


def class_link_tests(spec, m, bound, span_cap, report):
    """``_child_ok`` calls of a linking search that the class path decides, derived from the walked members.

    Past the class modulus check and the search of L (which reads only
    rules), a pool class (members with parts > m) also keys, per span l, the
    summary of its shift up by l*m (None when that is no member) and its
    tail for l.  Each pool class below the cap reads its children rule, and
    each child tests its shift for every l whose parent shift is a member.  Then each element pi
    of L is tested on top of every pool class with room for it.  For the span
    found (the first tried, in these boxes), each tail tau in pi's linking
    set and then pi are tested on top of the shift of every class that tau
    completes.  With every construction a member, each test of a tuple runs
    over all its parts.
    """
    ok, member, cap = spec._child_ok, spec._member, bound.max_length
    ds = [l * m for l in range(1, span_cap + 1)]

    def carried(t):
        # per span: (summary of the shift up,) when that is a member, else None; and the tail
        return tuple(((t and spec._summary(shifted(t, d)),) if member(shifted(t, d)) else None,
                      tuple(x - d for x in t if x <= m + d)) for d in ds)

    pool = class_reps(spec, bound, carried, m + 1)
    tests = class_modulus_tests(spec, m, bound)[0]
    for t in pool:
        if len(t) < cap:
            top = t[-1] if t else bound.max_part
            live = sum(member(shifted(t, d)) for d in ds)
            tests += live * sum(ok(t, len(t), v) for v in range(m + 1, top + 1))
    fits = {pi.parts: [t for t in pool if len(t) + len(pi) <= cap] for pi in report.L_set}
    assert all(member(t + pi) for pi in fits for t in fits[pi])
    for e in report.entries:
        pi = e.element.parts
        tests += len(pi) * len(fits[pi])
        tests += sum(len(tau.parts) + len(pi) for tau in e.linking_set for _ in fits[tau.parts])
    return tests


def walk_spec(kind, param=None):
    """The kind with its summary cleared, so every engine walks."""
    spec = IdealSpec(kind, param)
    spec._summary = None
    return spec


class TestModulusAndLinkingWork:
    @pytest.mark.parametrize("spec", PREFIX_CLOSED, ids=str)
    def test_prefix_closed_kinds_never_call_member(self, spec):
        spec = IdealSpec(spec.kind, spec.param)
        calls = count_calls(spec, "_member")
        for m in (1, 2, 3):
            check_modulus(spec, m, B12)
            infer_linking(spec, m, B12)
        assert calls[0] == 0

    def test_modulus_child_ok_calls_pinned(self):
        # the walk: folding each shifted member whole took 23,400 calls here,
        # and testing every part under each member as well 8,088
        spec = walk_spec("D")
        calls, rules = count_calls(spec, "_child_ok"), count_calls(spec, "_children")
        assert check_modulus(spec, 1, B12).holds
        assert (calls[0], rules[0]) == (3994, 1586) == modulus_tests(IdealSpec("D"), 1, B12)

    # parent: the calls when the class loop tested every part under each class
    @pytest.mark.parametrize("kind,m,parent", [("D", 1, 730), ("P_parity", 2, 784)])
    def test_class_modulus_child_ok_calls_pinned(self, kind, m, parent):
        spec = IdealSpec(kind)
        calls, rules = count_calls(spec, "_child_ok"), count_calls(spec, "_children")
        assert check_modulus(spec, m, B12).holds
        pinned = {"D": (438, 51), "P_parity": (382, 61)}[kind]
        assert (calls[0], rules[0]) == pinned == class_modulus_tests(IdealSpec(kind), m, B12)
        assert calls[0] < parent

    def test_link_child_ok_calls_pinned(self):
        # the walk, for D at 10x5 with m = 1: L is {(), (1,)}, every span is
        # 1 and nothing fails; folding every shifted tuple whole took 16,309
        # calls here, and testing every part under each walked tuple as well
        # 4,209.  Past the modulus check and the searches of L and of the
        # pool P (the members with parts >= 2), the tail (1,) is tested under
        # P4 (P's members of length <= 4) when listing remainders; each member
        # of P is moved up once (one test each, () none), and bigs + (1,) up
        # once more for bigs in P4; then pi = (1,) is tested on top of each
        # built prefix, the moves of P and of those of P4 + (1,).
        spec, bound = walk_spec("D"), AnalysisBound(10, 5)
        calls = count_calls(spec, "_child_ok")
        assert infer_linking(spec, 1, bound).verdict == "linked-within-bound"
        plain = IdealSpec("D")
        pool = list(_walk(plain._children, 10, 5, 2))
        p4 = sum(len(t) <= 4 for t in pool)
        derived = modulus_tests(plain, 1, bound)[0] + p4 + (len(pool) - 1) + p4 + len(pool) + p4
        assert calls[0] == 2549 == derived

    @pytest.mark.parametrize("bound,tests", [(AnalysisBound(10, 5), 1047), (AnalysisBound(14, 6), 2379)],
                             ids=["10x5", "14x6"])
    def test_class_link_child_ok_calls_pinned(self, bound, tests):
        # the walk took 4,590 calls at 10x5 and 46,419 at 14x6 before the
        # remainders shifted down went untested, and testing every part under
        # each class took 1,403 and 3,195
        spec = IdealSpec("D")
        calls = count_calls(spec, "_child_ok")
        report = infer_linking(spec, 1, bound)
        assert report.verdict == "linked-within-bound"
        assert calls[0] == tests == class_link_tests(IdealSpec("D"), 1, bound, 4, report)


class TestBoxScans:
    """No engine scans the box through ``counting._partitions``, the walk behind
    ``iter_partition_tuples`` and every filter; S's included."""

    @staticmethod
    def _scans(monkeypatch, run):
        calls = []
        real = counting._partitions

        def spy(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(counting, "_partitions", spy)
        run()
        return len(calls)

    def test_ideals_do_not_import_the_scan(self):
        assert not hasattr(ideals, "iter_partition_tuples")
        assert not hasattr(ideals, "_partitions")

    def test_the_spy_sees_a_scan(self, monkeypatch):
        # the filters and the public tuple view all run the spied walk
        assert self._scans(monkeypatch, lambda: count_members(lambda p: True, 6)) == 1
        assert self._scans(monkeypatch, lambda: counting.enumerate_members(lambda p: True, 6)) == 1
        assert self._scans(monkeypatch, lambda: list(counting.iter_partition_tuples(6, 3, 3))) == 1

    def test_walked_kind_never_scans(self, monkeypatch):
        r = IdealSpec("R")
        assert self._scans(monkeypatch, lambda: order_estimate(r, AnalysisBound(12, 8))) == 0
        assert self._scans(monkeypatch, lambda: infer_linking(r, 2, AnalysisBound(15, 7))) == 0

    def test_non_ideal_never_scans(self, monkeypatch):
        s, bound = IdealSpec("S"), AnalysisBound(15, 7)
        assert self._scans(monkeypatch, lambda: order_estimate(s, AnalysisBound(12, 8))) == 0
        assert self._scans(monkeypatch, lambda: weak_order_estimate(s, AnalysisBound(8, 5))) == 0
        assert self._scans(monkeypatch, lambda: check_ideal_closure(s, AnalysisBound(8, 4))) == 0
        assert self._scans(monkeypatch, lambda: members_within(s, AnalysisBound(8, 4))) == 0
        assert self._scans(monkeypatch, lambda: check_modulus(s, 2, AnalysisBound(8, 4))) == 0
        assert self._scans(monkeypatch, lambda: compute_L(s, 2, AnalysisBound(8, 4))) == 0
        assert self._scans(monkeypatch, lambda: _single_pool(s, 2, AnalysisBound(8, 4), [(), (1,)])) == 0
        assert self._scans(monkeypatch, lambda: infer_linking(s, 2, bound)) == 0


class TestMaximalityEvidence:
    def test_removal_exit_for_every_noncore_member(self):
        sa = IdealSpec("SA")
        count = 0
        for n in range(25):
            for t in iter_partition_tuples(n):
                p = Partition(t)
                if not is_seq_congruent(p) or is_member(sa, p):
                    continue
                count += 1
                out = seqcong_ideal_exit(p)
                assert not is_seq_congruent(out)
                # the exit is a sub-multiset of p
                freq_p = FrequencyMap.from_partition(p)
                for value, mult in FrequencyMap.from_partition(out).items():
                    assert freq_p.frequency(value) >= mult
        assert count > 50

    def test_exit_rejects_out_of_scope_inputs(self):
        with pytest.raises(DomainError):
            seqcong_ideal_exit(Partition([6, 4, 2]))  # not sequentially congruent
        with pytest.raises(DomainError):
            seqcong_ideal_exit(Partition([60, 60]))  # already in the maximal ideal


class TestRefutationConstructor:
    def test_r2_anchor(self):
        ex = linked_refutation_example(2)
        assert ex.modulus == 2
        assert ex.member == Partition([4, 2]) and ex.member_in_subideal
        assert ex.escalated == Partition([6, 4, 2]) and not ex.escalated_seq_congruent

    def test_r3(self):
        ex = linked_refutation_example(3)
        assert ex.modulus == 6
        assert ex.member == Partition([8, 2]) and ex.member_in_subideal
        assert not ex.escalated_seq_congruent

    def test_r1_rejected(self):
        with pytest.raises(DomainError):
            linked_refutation_example(1)


class TestParityCount:
    def test_small_values(self):
        assert count_parity_ideal(0) == 1
        assert count_parity_ideal(1) == 1
        assert count_parity_ideal(4) == 4

    def test_matches_brute_force(self):
        spec = IdealSpec("P_parity")
        for n in range(31):
            assert count_parity_ideal(n) == count_members(spec.contains, n)


class TestCountMembersDispatch:
    def test_accepts_idealspec(self):
        assert count_members(IdealSpec("R"), 4) == 2  # (4) and (3,1)

    def test_zero_gives_one(self):
        assert count_members(IdealSpec("D"), 0) == 1


class TestOrderOneSubideals:
    """SA's order 1 subideals (the paper; Andrews, ch. 8): a box that bounds each part's multiplicity
    on its own lies inside SA exactly when its top partition, every allowed copy taken, is a member."""

    PARTS, MOST = 8, 3

    @classmethod
    def _top(cls, bounds):
        return tuple(v for v in range(cls.PARTS, 0, -1) for _ in range(bounds[v - 1]))

    @classmethod
    def _boxes_inside(cls):
        # a box is its top partition and the boxes one copy smaller, so it lies inside SA exactly when
        # its top is a member and each of those does: by increasing total, every multiplicity vector
        inside = {}
        for bounds in sorted(product(range(cls.MOST + 1), repeat=cls.PARTS), key=sum):
            smaller = (bounds[:v] + (bounds[v] - 1,) + bounds[v + 1:] for v in range(cls.PARTS) if bounds[v])
            inside[bounds] = sa_member(cls._top(bounds)) and all(inside[b] for b in smaller)
        return inside

    def test_box_inside_exactly_when_its_top_is_a_member(self):
        spec = IdealSpec("SA")
        inside = self._boxes_inside()
        assert len(inside) == 4**8
        assert all(ok == spec._member(self._top(bounds)) for bounds, ok in inside.items())
        for bounds, ok in inside.items():  # the small boxes member by member
            if sum(bounds) <= 3:
                box = product(*(range(b + 1) for b in bounds))
                assert ok == all(sa_member(self._top(copies)) for copies in box), bounds

    def test_subideals_counted(self):
        found = [bounds for bounds, ok in self._boxes_inside().items() if ok]
        maximal = {self._top(b) for b in found
                   if not any(c != b and all(x <= y for x, y in zip(b, c)) for c in found)}
        assert len(found) == 29
        assert len(maximal) == 17
        assert {(8, 8, 6), (6, 6, 6), (8, 4), (2, 2), (1,)} <= maximal
        assert maximal == {(1,), (2, 2), (3, 2), (4, 2), (4, 4), (5, 2), (5, 4), (6, 2), (6, 4), (6, 6, 6),
                           (7, 2), (7, 4), (7, 6, 6), (8, 2), (8, 4), (8, 6, 6), (8, 8, 6)}

