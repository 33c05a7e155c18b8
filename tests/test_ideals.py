import copy
import pickle
import re
import tracemalloc

import pytest

from seqcong import (
    AnalysisBound,
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
from seqcong import ideals
from seqcong.ideals import (
    _fold,
    _integer_windows,
    _present_windows,
    _remainders,
    _walk,
)

from conftest import (
    all_partitions_upto,
    oracle_member,
    recursive_member_tuples,
    sa_member,
    sa_member_lcm,
    scan_closure,
    scan_order_refute,
    scan_remainders,
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
# every partition of size <= 20 with at most 8 parts
SMALL_TUPLES = [t for n in range(21) for t in iter_partition_tuples(n, None, 8)]


class TestKindTable:
    def test_covers_every_prefix_closed_kind(self):
        assert {s.kind for s in TABLE_SPECS} == set(ideals._KINDS) - {"S"}
        assert all(s.prefix_closed and s.is_true_ideal() for s in TABLE_SPECS)
        assert not IdealSpec("S").prefix_closed and not IdealSpec("S").is_true_ideal()

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

    def test_module_table_lists_the_rows_in_order(self):
        rows = re.findall(r"^``(\w+)``  ", ideals.__doc__, re.M)
        assert rows == list(ideals._KINDS)


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
                walked = list(_walk(spec._child_ok, bound.max_part, bound.max_length, m + 1))
                assert walked == [t for t in expected if all(x > m for x in t)]

    def test_length_cap_beyond_the_recursion_limit(self):
        members = members_within(IdealSpec("N_maxlen", 5000), AnalysisBound(1, 2000))
        assert len(members) == 2001
        assert members[-1] == Partition([1] * 2000)


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
    """Make ``spec``'s incremental test refuse the step to ``excluded``; membership is its fold."""
    ok = spec._child_ok
    spec._child_ok = lambda t, i, v: t[:i] + (v,) != excluded and ok(t, i, v)
    spec._member = _fold(spec._child_ok)
    return spec


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

    @pytest.mark.parametrize("kind,tests,members", [("D", 13873, 2510), ("P_parity", 6917, 1847)])
    def test_child_ok_calls_pinned(self, kind, tests, members):
        # the walk's own tests, plus one per removal of each member other
        # than the parent (one removal per distinct part value)
        walk_spec = IdealSpec(kind)
        walk_calls = count_calls(walk_spec, "_child_ok")
        walked = list(_walk(walk_spec._child_ok, 12, 6))
        spec = IdealSpec(kind)
        calls = count_calls(spec, "_child_ok")
        assert check_ideal_closure(spec, B12).members_checked == members == len(walked)
        assert calls[0] == tests == walk_calls[0] + sum(len(set(t)) - 1 for t in walked if t)

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

    def test_weak_order_rprime_grows(self):
        report = weak_order_estimate(IdealSpec("Rprime"), AnalysisBound(12, 8))
        assert report.growing and report.order is None

    def test_strong_orders_of_infinite_families_grow(self):
        bound = AnalysisBound(12, 8)
        for spec in (IdealSpec("Rprime"), IdealSpec("Adiff"), IdealSpec("N_maxlen", 3), IdealSpec("P_parity")):
            assert order_estimate(spec, bound).growing, spec


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
    def test_non_ideal_keeps_the_scan(self, windows):
        bound = AnalysisBound(8, 5)
        for k in range(1, bound.max_part):
            assert ideals._order_refute(IdealSpec("S"), k, bound, windows) == scan_order_refute(
                IdealSpec("S"), k, bound, windows)


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


class TestLinkingMatchesScan:
    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("spec", PREFIX_CLOSED, ids=str)
    def test_remainders(self, spec, m):
        tails = [p.parts for p in compute_L(spec, m, B12).members]
        assert _remainders(spec, m, B12, tails) == scan_remainders(spec, m, B12, tails)

    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("spec", PREFIX_CLOSED + [IdealSpec("S")], ids=str)
    def test_reports_equal(self, monkeypatch, spec, m):
        bound = AnalysisBound(8, 4) if spec.kind == "S" else B12
        report = infer_linking(spec, m, bound)
        monkeypatch.setattr(ideals, "_remainders", scan_remainders)
        assert report == infer_linking(spec, m, bound)


class TestBoxScans:
    """Prefix-closed kinds are walked; only the non-ideal S scans the whole box."""

    @staticmethod
    def _scans(monkeypatch, run):
        calls = []
        real = ideals.iter_partition_tuples

        def spy(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(ideals, "iter_partition_tuples", spy)
        run()
        return len(calls)

    def test_walked_kind_never_scans(self, monkeypatch):
        r = IdealSpec("R")
        assert self._scans(monkeypatch, lambda: order_estimate(r, AnalysisBound(12, 8))) == 0
        assert self._scans(monkeypatch, lambda: infer_linking(r, 2, AnalysisBound(15, 7))) == 0

    def test_non_ideal_still_scans(self, monkeypatch):
        s = IdealSpec("S")
        assert self._scans(monkeypatch, lambda: order_estimate(s, AnalysisBound(12, 8))) > 0
        assert self._scans(monkeypatch, lambda: infer_linking(s, 2, AnalysisBound(15, 7))) > 0


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
