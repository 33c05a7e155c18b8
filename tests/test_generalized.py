import copy
import io
import pickle
import random
import re

import pytest

from seqcong import (
    DomainError,
    GenSpec,
    HorizonError,
    IdealSpec,
    NNotation,
    Partition,
    SequenceRule,
    SpecError,
    conjugate,
    enumerate_partitions,
    eta,
    is_in_SBA,
    is_in_Sjk,
    is_in_Sk,
    is_seq_congruent,
    n_decode,
    n_encode,
    pi_AB,
    pi_map,
    pi_prime_AB,
    psi_k,
    psi_map,
    sigma_AB,
    sigma_k,
    sigma_map,
    sigma_prime_AB,
    tau,
    to_c_notation,
)
from seqcong import generalized
from seqcong.cli import run
from seqcong.generalized import _nth_root
from conftest import _iter_c_vectors

from conftest import all_partitions_upto, sba_by_conjugate, seqcong_with_largest_upto

STD = GenSpec.standard()


def _spec(a_text, b_text):
    return GenSpec.parse(a_text, b_text)


def _vectors_with_weight(weights, total):
    return list(_iter_c_vectors(list(weights), total))


class TestSequenceRule:
    def test_parse_forms(self):
        assert SequenceRule.parse("nat").term(5) == 5
        assert SequenceRule.parse("pow:3").term(2) == 8
        assert SequenceRule.parse("arith:4").term(3) == 12
        assert SequenceRule.parse("2,5,9").term(2) == 5

    def test_parse_garbage(self):
        with pytest.raises(SpecError):
            SequenceRule.parse("fibonacci")

    @pytest.mark.parametrize("text", ["pow:x", "arith:y", "pow:", "arith:2.5"])
    def test_family_parameter_must_be_an_integer(self, text):
        with pytest.raises(SpecError, match=re.escape(f"cannot parse sequence rule {text!r}")):
            SequenceRule.parse(text)

    def test_explicit_list_keeps_its_own_message(self):
        with pytest.raises(SpecError, match=re.escape("explicit sequence needs positive integers, got (0, 1)")):
            SequenceRule.parse("0,1")
        with pytest.raises(SpecError, match=re.escape("cannot parse sequence rule '1,x'")):
            SequenceRule.parse("1,x")

    def test_family_parameter_keeps_its_range_message(self):
        with pytest.raises(SpecError, match="power exponent must be nonnegative"):
            SequenceRule.parse("pow:-1")
        with pytest.raises(SpecError, match="arithmetic step must be positive"):
            SequenceRule.parse("arith:0")

    def test_index_of(self):
        assert SequenceRule.parse("pow:2").index_of(9) == 3
        assert SequenceRule.parse("pow:2").index_of(8) is None
        assert SequenceRule.parse("arith:3").index_of(12) == 4
        assert SequenceRule.parse("2,5,9").index_of(9) == 3
        assert SequenceRule.parse("2,5,9").index_of(4) is None

    def test_horizon_fails_loudly(self):
        # a family has no term cap; only an explicit list ends, and loudly
        rule = SequenceRule.naturals()
        assert rule.term(65) == 65 and rule.index_of(100) == 100
        with pytest.raises(HorizonError):
            SequenceRule.parse("1,2").term(3)

    def test_b_must_increase(self):
        with pytest.raises(SpecError):
            GenSpec(SequenceRule.naturals(), SequenceRule.parse("3,3"))
        with pytest.raises(SpecError):
            GenSpec(SequenceRule.naturals(), SequenceRule.powers(0))

    def test_distinct_flags(self):
        assert SequenceRule.parse("nat").has_distinct_terms()
        assert SequenceRule.powers(0).has_distinct_terms() is False
        assert SequenceRule.parse("2,5,2").has_distinct_terms() is False


class TestMembership:
    def test_standard_spec_matches_core_predicate(self):
        for p in all_partitions_upto(20):
            assert is_in_SBA(p, STD) == is_seq_congruent(p)

    def test_rectangle_example(self):
        spec = _spec("2", "3")
        assert is_in_SBA(Partition([2, 2, 2]), spec)
        assert not is_in_SBA(Partition([2, 2]), spec)

    def test_empty_member_everywhere(self):
        assert is_in_SBA(Partition(), _spec("2,5", "1,3"))

    def test_membership_matches_encode_success(self):
        specs = [STD, _spec("2", "3"), _spec("pow:2", "nat"), _spec("2,5", "1,3"), _spec("arith:2", "nat")]
        for spec in specs:
            for p in all_partitions_upto(10):
                claimed = is_in_SBA(p, spec)
                try:
                    n_encode(p, spec)
                    encoded = True
                except DomainError:
                    encoded = False
                assert claimed == encoded, (p, spec)

    def test_drop_profile_matches_conjugate_oracle(self):
        # a short explicit width list makes tall columns raise; the verdict or the error must match
        specs = [STD, _spec("2", "3"), _spec("pow:2", "nat"), _spec("2,5", "1,3"), _spec("arith:2", "nat"),
                 _spec("nat", "arith:2"), _spec("1,2", "2,4,6"), _spec("1,2,3", "nat"), _spec("2", "arith:2")]
        for spec in specs:
            for p in all_partitions_upto(12):
                try:
                    want = sba_by_conjugate(p, spec)
                except HorizonError as exc:
                    with pytest.raises(HorizonError) as got:
                        is_in_SBA(p, spec)
                    assert str(got.value) == str(exc)
                    continue
                assert is_in_SBA(p, spec) == want, (p, spec)


class TestCodec:
    def test_reduces_to_c_notation_on_standard_spec(self):
        for p in seqcong_with_largest_upto(12):
            assert n_encode(p, STD).coeffs == to_c_notation(p).coeffs
            assert n_decode(NNotation(STD, to_c_notation(p).coeffs)) == p

    def test_rectangle(self):
        spec = _spec("2", "3")
        assert n_decode(NNotation(spec, [1])) == Partition([2, 2, 2])
        assert n_encode(Partition([2, 2, 2]), spec).coeffs == (1,)

    def test_empty(self):
        assert n_decode(NNotation(STD, [])) == Partition()
        assert n_encode(Partition(), STD).coeffs == ()

    @pytest.mark.parametrize("coeffs", [[True], [1, False, 1], [1.0]])
    def test_non_integer_coefficients_rejected(self, coeffs):
        with pytest.raises(ValueError, match="nonnegative integers"):
            NNotation(STD, coeffs)

    def test_roundtrip_over_sample_specs(self):
        for a_text, b_text, depth in [
            ("nat", "nat", 3), ("pow:2", "nat", 3), ("2,5", "1,3", 2), ("arith:3", "pow:2", 3),
        ]:
            spec = _spec(a_text, b_text)
            weights = [spec.a_term(i) * spec.b_term(i) for i in range(1, depth + 1)]
            for coeffs in _vectors_with_weight(weights, 18):
                n = NNotation(spec, coeffs)
                assert n_encode(n_decode(n), spec).coeffs == n.coeffs

    def test_decode_fields(self):
        spec = _spec("2,5", "1,3")
        n = NNotation(spec, [1, 1])
        p = n_decode(n)
        assert p == Partition([7, 5, 5])
        assert n.largest == p.largest == 7
        assert n.size == p.size == 17
        assert n.length == len(p) == 3


class TestSigmaPiAB:
    def test_sigma_AB_specializes(self):
        for p in seqcong_with_largest_upto(12):
            assert sigma_AB(n_encode(p, STD)) == sigma_map(p)

    def test_sigma_AB_example(self):
        spec = _spec("2,5", "1,3")
        n = NNotation(spec, [1, 1])
        assert sigma_AB(n) == Partition([5, 2])
        assert sigma_AB(n).size == n.largest == 7

    def test_sigma_AB_reorders_decreasing_widths(self):
        spec = _spec("5,2", "1,3")
        assert sigma_AB(NNotation(spec, [1, 1])) == Partition([5, 2])

    def test_sigma_AB_requires_distinct(self):
        spec = _spec("2,2", "1,3")
        with pytest.raises(SpecError):
            sigma_AB(NNotation(spec, [1, 1]))

    def test_empty_coefficients_give_empty_partition(self):
        spec = _spec("2,5", "1,3")
        assert sigma_AB(NNotation(spec, [])) == Partition()
        assert sigma_k(NNotation(GenSpec.power_widths(2), [])) == Partition()
        assert psi_k(NNotation(GenSpec.power_widths(2), [])) == Partition()

    def test_pi_AB_specializes_to_difference_vector(self):
        for p in all_partitions_upto(10):
            assert pi_AB(p, STD).coeffs == to_c_notation(pi_map(p)).coeffs

    def test_pi_AB_example(self):
        spec = _spec("1,2", "2,3")
        n = pi_AB(Partition([2, 1]), spec)
        assert n.coeffs == (1, 1)
        decoded = n_decode(n)
        assert decoded == Partition([3, 3, 2])
        assert decoded.largest == 3 == Partition([2, 1]).size

    def test_pi_AB_empty(self):
        assert pi_AB(Partition(), STD).coeffs == ()

    def test_pi_AB_rejects_columns_outside_A(self):
        spec = _spec("2,5", "nat")
        with pytest.raises(DomainError):
            pi_AB(Partition([2, 1]), spec)  # has a height-1 column drop

    def test_pi_AB_largest_part_is_size(self):
        # domain: conjugates of partitions with parts in A
        spec = _spec("1,3", "2,5")
        for q in all_partitions_upto(9):
            if any(x not in (1, 3) for x in q.parts):
                continue
            p = conjugate(q)
            n = pi_AB(p, spec)
            assert n_decode(n).largest == p.size


class TestPrimedMaps:
    def test_specialize_to_core_maps(self):
        for p in all_partitions_upto(12):
            assert pi_prime_AB(p, STD) == pi_map(p)
        for p in seqcong_with_largest_upto(12):
            assert sigma_prime_AB(p, STD) == sigma_map(p)

    def test_composition_is_conjugation(self):
        specs = [STD, _spec("arith:2", "nat"), _spec("2,5,9", "1,3,4"), _spec("pow:2", "pow:2")]
        for spec in specs:
            for p in all_partitions_upto(10):
                if len(p) > 3 and spec.a.tag == "explicit":
                    continue
                assert sigma_prime_AB(pi_prime_AB(p, spec), spec) == conjugate(p)

    def test_arithmetic_scaling(self):
        # widths (a, 2a, 3a, ...): size n maps to largest part a*n and back
        for a in (1, 2, 3):
            spec = _spec(f"arith:{a}", "nat")
            for n in range(13):
                for p in enumerate_partitions(n):
                    image = pi_prime_AB(p, spec)
                    assert image.largest == a * n
                    assert sigma_prime_AB(image, spec).size == n

    def test_stretch_example(self):
        spec = _spec("arith:2", "nat")
        out = pi_prime_AB(Partition([2, 1]), spec)
        assert out.largest == 6


class TestPowerFamilies:
    def test_Sk_examples(self):
        assert is_in_Sk(Partition([21, 16, 14, 8]), 1)
        assert is_in_Sk(Partition([9, 8]), 2)
        assert not is_in_Sk(Partition([9, 7]), 2)

    def test_Sk_matches_seqcong_at_1(self):
        for p in all_partitions_upto(16):
            assert is_in_Sk(p, 1) == is_seq_congruent(p)

    def test_Sk_matches_SBA_power_widths(self):
        for k in (2, 3):
            spec = GenSpec.power_widths(k)
            for p in all_partitions_upto(16):
                assert is_in_Sk(p, k) == is_in_SBA(p, spec)

    def test_Sjk_examples(self):
        assert is_in_Sjk(Partition([3, 2]), 1, 1)
        assert not is_in_Sjk(Partition([3, 1]), 1, 1)
        assert is_in_Sjk(Partition([6, 4, 2]), 2, 0)  # j=2, k=0: every difference is 2

    def test_huge_k_answers_as_the_unclamped_chain(self):
        # k is clamped to 63: for i >= 2, i**63 and every larger power pass every part and difference
        def in_sk(t, k):
            return all((x - y) % i**k == 0 for i, (x, y) in enumerate(zip(t, t[1:]), 1)) and (
                not t or t[-1] % len(t)**k == 0)

        def in_sjk(t, j, k):
            return all(x - y == j * i**k for i, (x, y) in enumerate(zip(t, t[1:]), 1)) and (
                not t or t[-1] == j * len(t)**k)

        big = [Partition(t) for t in ((2**62, 2**62), (2**63 - 2, 2**62 - 1, 1), (3 * 2**61, 2**62, 2**62),
                                      (2**63 - 1,), (2**62 + 4, 4, 4))]
        for p in all_partitions_upto(7) + big:
            for k in range(71):
                if k:
                    assert is_in_Sk(p, k) == in_sk(p.parts, k), (p, k)
                for j in (1, 2):
                    assert is_in_Sjk(p, j, k) == in_sjk(p.parts, j, k), (p, j, k)
        assert is_in_Sk(Partition([2**62, 2**62]), 62) and not is_in_Sk(Partition([2**62, 2**62]), 10**12)
        s = IdealSpec("S")
        for p in all_partitions_upto(20):
            t = p.parts
            for k in (1, 2, 3):
                assert is_in_Sk(p, k) == in_sk(t, k), (p, k)
            for j in (1, 2):
                for k in (0, 1, 2):
                    assert is_in_Sjk(p, j, k) == in_sjk(t, j, k), (p, j, k)
            assert is_seq_congruent(p) == s.contains(p) == in_sk(t, 1), p

    def test_non_integer_k_and_j_refused(self):
        b = 2**55 + 11  # a float modulus rounds the difference 2**55 + 2 of (b, b, 9) to a multiple of 4
        p = Partition((b, b, 9))
        assert not is_in_Sk(p, 2)
        for bad in (2.0, 1.5, True):
            with pytest.raises(TypeError, match="k must be an integer"):
                is_in_Sk(p, bad)
        with pytest.raises(TypeError, match="k must be an integer"):
            is_in_Sk(Partition((4, 2)), 1.5)
        for j, k in ((1.0, 1), (1, 1.0), (True, 1), (1, False)):
            with pytest.raises(TypeError, match="j and k must be integers"):
                is_in_Sjk(p, j, k)

    def test_Sjk_members_map_to_uniform_vectors(self):
        for j, k in [(1, 1), (2, 1), (1, 2)]:
            spec = GenSpec.power_widths(k)
            for p in all_partitions_upto(30):
                if is_in_Sjk(p, j, k) and not p.is_empty():
                    assert set(n_encode(p, spec).coeffs) == {j}

    def test_sigma1_psi1_specialize(self):
        for p in seqcong_with_largest_upto(12):
            n = n_encode(p, STD)
            assert sigma_k(n) == sigma_map(p)
            assert psi_k(n) == psi_map(p)

    def test_k2_rectangle_example(self):
        spec = GenSpec.power_widths(2)
        n = NNotation(spec, [0, 1])
        assert n_decode(n) == Partition([4, 4])
        assert sigma_k(n) == Partition([4])
        assert psi_k(n) == Partition([8])

    def test_spec_mismatch_rejected(self):
        with pytest.raises(SpecError):
            sigma_k(NNotation(_spec("2,5", "nat"), [1]))


class TestSquareCasePast64Parts:
    """With A = B = N every map is the square one at any length: no term cap stops one past 64 parts."""

    @staticmethod
    def _pairs(r, count=100):
        """(member, partition) pairs with r parts each: a member built from its c-notation, and any partition."""
        rng = random.Random(r)
        for _ in range(count):
            c = [rng.randrange(3) for _ in range(r - 1)] + [rng.randrange(1, 3)]
            parts, value = [], 0
            for i in range(r, 0, -1):  # part i is the sum of j * c_j over j >= i
                value += i * c[i - 1]
                parts.append(value)
            yield Partition(parts[::-1]), Partition(sorted((rng.randrange(1, 2 * r) for _ in range(r)), reverse=True))

    @pytest.mark.parametrize("r", [65, 100, 300, 1000])
    def test_membership_and_pi(self, r):
        for member, other in self._pairs(r):
            assert is_in_SBA(member, STD) and is_seq_congruent(member)
            assert is_in_SBA(other, STD) == is_seq_congruent(other)
            for p in (member, other):
                assert pi_prime_AB(p, STD) == pi_map(p) == n_decode(pi_AB(p, STD))

    @pytest.mark.parametrize("r", [65, 100, 300, 1000])
    def test_sigma_and_psi(self, r):
        for member, _ in self._pairs(r):
            n = n_encode(member, STD)
            assert sigma_AB(n) == sigma_prime_AB(member, STD) == sigma_map(member)
            assert psi_k(n) == psi_map(member)


class TestHugeExponents:
    """A power too wide for a multiplicity, or too steep for a height, answers without being computed."""

    def test_nth_root_matches_brute_force(self):
        for value in range(1, 300):
            for k in range(12):
                roots = [r for r in range(1, value + 1) if r**k == value]
                assert _nth_root(value, k) == (roots[0] if roots else None), (value, k)

    def test_nth_root_past_the_bit_length(self):
        assert _nth_root(1, 10**10) == 1
        assert _nth_root(2, 10**10) is None
        assert _nth_root(2**62, 63) is None
        assert _nth_root(2**62, 62) == 2

    @pytest.mark.parametrize("exp", [2, 3, 5, 7])
    def test_power_widths_match_the_oracle(self, exp):
        for b in ("nat", "arith:2", "1,2,4,5"):
            spec = _spec(f"pow:{exp}", b)
            for p in all_partitions_upto(14):
                assert is_in_SBA(p, spec) == sba_by_conjugate(p, spec), (exp, b, p)

    def test_wide_power_width_is_not_realized(self, monkeypatch):
        realized = []
        term = SequenceRule.term
        monkeypatch.setattr(SequenceRule, "term",
                            lambda rule, i: realized.append(i) or term(rule, i))
        spec = GenSpec(SequenceRule.powers(10**10), SequenceRule.naturals())
        assert not is_in_SBA(Partition([2, 1]), spec)
        assert is_in_SBA(Partition([1]), spec)
        # a tall height far past 64 parts answers unrealized too
        assert not is_in_SBA(Partition([1] * 1000), spec)
        assert realized == [1]

    def test_steep_power_height(self):
        spec = GenSpec(SequenceRule.naturals(), SequenceRule.powers(10**10))
        assert is_in_SBA(Partition([1]), spec)
        assert not is_in_SBA(Partition([2, 2]), spec)


class TestEtaTau:
    def test_eta_smallest_cases(self):
        spec2 = GenSpec.power_widths(2)
        out = eta(NNotation(spec2, [1]), 2, 1)
        assert out.coeffs == (1,) and n_decode(out) == Partition([1])
        out = eta(NNotation(spec2, [0, 1]), 2, 1)
        assert n_decode(out) == Partition([2, 2]) and n_decode(out).size == 4

    def test_eta_maps_largest_to_size(self):
        for k in (1, 2, 3):
            spec = GenSpec.power_widths(k)
            weights = [i**k for i in (1, 2, 3)]
            for coeffs in _vectors_with_weight(weights, 20):
                n = NNotation(spec, coeffs)
                for p in range(1, k + 1):
                    out = eta(n, k, p)
                    assert out.coeffs == n.coeffs
                    assert n_decode(out).size == n.largest

    def test_tau_preserves_size_and_identity(self):
        for k in (2, 3):
            for p in range(1, k + 1):
                spec = GenSpec(SequenceRule.powers(k - p), SequenceRule.powers(p))
                weights = [spec.a_term(i) * spec.b_term(i) for i in (1, 2, 3)]
                for coeffs in _vectors_with_weight(weights, 20):
                    n = NNotation(spec, coeffs)
                    for q in range(1, k + 1):
                        out = tau(n, k, p, q)
                        assert out.coeffs == n.coeffs
                        assert out.size == n.size
                        if q == p:
                            assert out == n

    def test_eta_parameter_range(self):
        n = NNotation(GenSpec.power_widths(2), [1])
        with pytest.raises(DomainError):
            eta(n, 2, 3)
        with pytest.raises(DomainError):
            eta(n, 2, 0)

    def test_eta_counts_by_brute_force(self):
        # structural domain count (vectors) == brute-force codomain count
        for k in (2, 3):
            for p in range(1, k + 1):
                target = GenSpec(SequenceRule.powers(k - p), SequenceRule.powers(p))
                for n in range(1, 26):
                    weights = [i**k for i in range(1, n + 1) if i**k <= n]
                    domain = len(_vectors_with_weight(weights, n))
                    codomain = sum(
                        1 for q in enumerate_partitions(n) if is_in_SBA(q, target)
                    )
                    assert domain == codomain, (k, p, n)

    def test_retag_composition_identity(self):
        # flattening after the height-1 reshape equals the direct width map
        for k in (1, 2):
            spec = GenSpec.power_widths(k + 1)
            for coeffs in _vectors_with_weight([i ** (k + 1) for i in (1, 2, 3)], 20):
                n = NNotation(spec, coeffs)
                reshaped = eta(n, k + 1, 1)
                assert psi_k(reshaped) == sigma_k(n)
                assert reshaped.spec == GenSpec.power_widths(k)

    def test_composition_count_equality(self):
        for k in (1, 2):
            for n in range(21):
                weights = [i ** (k + 1) for i in range(1, n + 1) if i ** (k + 1) <= n]
                lg_count = len(_vectors_with_weight(weights, n))
                size_count = sum(
                    1 for q in enumerate_partitions(n) if is_in_SBA(q, GenSpec.power_widths(k))
                )
                assert lg_count == size_count, (k, n)


# Each family's first nine terms, written out by hand.
FAMILY_TERMS = {
    "nat": [1, 2, 3, 4, 5, 6, 7, 8, 9],
    "pow:0": [1] * 9,
    "pow:1": [1, 2, 3, 4, 5, 6, 7, 8, 9],
    "pow:2": [1, 4, 9, 16, 25, 36, 49, 64, 81],
    "pow:3": [1, 8, 27, 64, 125, 216, 343, 512, 729],
    "arith:1": [1, 2, 3, 4, 5, 6, 7, 8, 9],
    "arith:2": [2, 4, 6, 8, 10, 12, 14, 16, 18],
    "arith:3": [3, 6, 9, 12, 15, 18, 21, 24, 27],
}


class TestFamiliesAgainstTheirTerms:
    @pytest.mark.parametrize("text", sorted(FAMILY_TERMS))
    @pytest.mark.parametrize("count", range(1, 10))
    def test_terms_positions_and_horizon(self, text, count):
        rule, listed = SequenceRule.parse(text), FAMILY_TERMS[text][:count]
        for i, value in enumerate(listed, 1):
            assert rule.term(i) == value
            # pow:0 repeats 1, whose position is the first
            assert rule.index_of(rule.term(i)) == (1 if text == "pow:0" else i)
        for value in range(1, listed[-1]):
            if value not in listed:
                assert rule.index_of(value) is None, value

    def test_power_past_the_part_range_is_refused_unbuilt(self):
        assert SequenceRule.powers(62).term(2) == 2**62
        assert SequenceRule.powers(40).term(3) == 3**40  # past MAX_PART, but its bits alone do not show it
        for rule, i in ((SequenceRule.powers(63), 2), (SequenceRule.powers(10**10), 2), (SequenceRule.powers(2), 2**32)):
            with pytest.raises(OverflowError, match=re.escape(f"term {i} of {rule} exceeds the 64-bit part range")):
                rule.term(i)

    def test_explicit_list_is_its_own_bound(self):
        rule = SequenceRule.explicit([5, 2, 9])
        assert [rule.term(i) for i in (1, 2, 3)] == [5, 2, 9]
        assert [rule.index_of(v) for v in (2, 5, 9, 3)] == [2, 1, 3, None]
        with pytest.raises(HorizonError, match=re.escape("sequence 5,2,9 has only 3 terms, needed term 4")):
            rule.term(4)

    @pytest.mark.parametrize("rule", [SequenceRule.naturals(), SequenceRule.powers(0), SequenceRule.powers(3),
                                      SequenceRule.arithmetic(2), SequenceRule.explicit([2, 5])])
    def test_rules_pickle_and_copy(self, rule):
        for twin in (pickle.loads(pickle.dumps(rule)), copy.copy(rule), copy.deepcopy(rule)):
            assert twin == rule and hash(twin) == hash(rule) and str(twin) == str(rule)
            assert [twin.term(i) for i in (1, 2)] == [rule.term(i) for i in (1, 2)]


class TestRefusedRules:
    """A parameter or term that is not a plain int is refused when the rule is built."""

    @pytest.mark.parametrize("build", [
        lambda: SequenceRule.powers(2.5),
        lambda: SequenceRule.powers(True),
        lambda: SequenceRule.arithmetic(True),
        lambda: SequenceRule.arithmetic(1.5),
        lambda: SequenceRule("pow"),
        lambda: SequenceRule("nat", False),
    ], ids=["pow-float", "pow-bool", "arith-bool", "arith-float", "pow-none", "nat-bool"])
    def test_parameter_must_be_a_plain_int(self, build):
        with pytest.raises(SpecError, match="sequence parameter must be an integer"):
            build()

    @pytest.mark.parametrize("terms", [[True, 2], [1, 2.0], [3, "4"]])
    def test_explicit_terms_must_be_plain_ints(self, terms):
        with pytest.raises(SpecError, match=re.escape(f"explicit sequence needs positive integers, got {tuple(terms)}")):
            SequenceRule.explicit(terms)

    def test_unknown_tag(self):
        with pytest.raises(SpecError, match="unknown sequence tag 'fib'"):
            SequenceRule("fib")

    def test_family_takes_no_terms(self):
        with pytest.raises(SpecError, match="sequence tag 'nat' takes no terms"):
            SequenceRule("nat", None, (1, 2))

    def test_range_messages_unchanged(self):
        with pytest.raises(SpecError, match="^power exponent must be nonnegative$"):
            SequenceRule.powers(-1)
        with pytest.raises(SpecError, match="^arithmetic step must be positive$"):
            SequenceRule.arithmetic(0)
        with pytest.raises(SpecError, match=re.escape("explicit sequence needs positive integers, got (0, 1)")):
            SequenceRule.explicit([0, 1])

    def test_a_float_width_never_reaches_a_partition(self):
        # n_decode used to wrap Partition([4.5, 3.0]) unchecked
        with pytest.raises(SpecError):
            n_decode(NNotation(GenSpec(SequenceRule.arithmetic(1.5), SequenceRule.naturals()), [1, 1]))

    @pytest.mark.parametrize("horizon", [2.5, True, "3"])
    def test_horizon_must_be_a_plain_int(self, horizon):
        # a spec and a rule take no horizon of any type, not even one that is then ignored
        nat = SequenceRule.naturals()
        for build in (lambda: GenSpec(nat, nat, horizon), lambda: GenSpec.standard(horizon),
                      lambda: GenSpec.power_widths(2, horizon), lambda: GenSpec.parse("nat", "nat", horizon),
                      lambda: nat.term(1, horizon), lambda: nat.index_of(1, horizon)):
            with pytest.raises(TypeError):
                build()
        assert not hasattr(generalized, "horizon_from_env") and not hasattr(STD, "horizon")

    def test_horizon_range_message_unchanged(self):
        # a range for the removed horizon is refused as an argument; an explicit list keeps its own bound
        for horizon in (0, 64):
            with pytest.raises(TypeError):
                GenSpec.standard(horizon)
        with pytest.raises(HorizonError, match="^sequence 1,2 has only 2 terms, needed term 3$"):
            SequenceRule.parse("1,2").term(3)


SAMPLE_SPECS = [("nat", "nat", 3), ("pow:2", "nat", 3), ("2,5", "1,3", 2), ("arith:3", "pow:2", 3)]


class TestNNotationRealizedOnce:
    def test_fields_match_the_decoded_partition(self):
        for a_text, b_text, depth in SAMPLE_SPECS:
            spec = _spec(a_text, b_text)
            weights = [spec.a_term(i) * spec.b_term(i) for i in range(1, depth + 1)]
            for coeffs in _vectors_with_weight(weights, 18):
                n = NNotation(spec, coeffs)
                p = n_decode(n)
                assert (n.length, n.size, n.largest) == (len(p), p.size, p.largest), (a_text, b_text, coeffs)

    def test_pickle_and_copy_round_trips(self):
        for a_text, b_text, _ in SAMPLE_SPECS:
            n = NNotation(_spec(a_text, b_text), [1, 2] if a_text == "2,5" else [1, 0, 2])
            for twin in (pickle.loads(pickle.dumps(n)), copy.copy(n), copy.deepcopy(n)):
                assert twin == n and hash(twin) == hash(n) and repr(twin) == repr(n)
                assert n_decode(twin) == n_decode(n) and sigma_AB(twin) == sigma_AB(n)

    def test_equality_and_hash_read_spec_and_coefficients(self):
        n = NNotation(STD, [1, 0, 2])
        assert n == NNotation(GenSpec.standard(), (1, 0, 2))
        assert hash(n) == hash((STD, (1, 0, 2)))
        assert n != NNotation(STD, [1, 2]) and n != NNotation(_spec("nat", "pow:2"), [1, 0, 2])
        assert repr(n) == "NNotation(GenSpec(A=nat, B=nat), [1, 0, 2])"

    def test_the_first_missing_term_is_reported(self):
        # a_3 is missing before b_3, so the widths' error comes first
        with pytest.raises(HorizonError, match=re.escape("sequence 2,5 has only 2 terms, needed term 3")):
            NNotation(_spec("2,5", "1,3"), [0, 0, 1])
        with pytest.raises(HorizonError, match=re.escape("sequence 1,3 has only 2 terms, needed term 3")):
            NNotation(_spec("2,5,7", "1,3"), [0, 0, 1])

    def test_repeated_widths_flatten_to_one_value(self):
        # pow:0 widths are all 1, so sigma_k merges every rectangle into ones
        n = NNotation(_spec("pow:0", "nat"), [2, 0, 3])
        assert sigma_k(n) == Partition([1] * 5)
        assert psi_k(n) == Partition([3, 3, 3, 1, 1])


def _pairs_by_index(spec, r):
    """The pairs as each NNotation used to realize them: two term calls per index, a before b."""
    pairs = []
    for i in range(1, r + 1):
        pairs.append((spec.a.term(i), spec.b.term(i)))
    return tuple(pairs)


def _outcome(fn, *args):
    """fn's answer, or the type and message of the error it raised."""
    try:
        return fn(*args)
    except (ValueError, OverflowError) as exc:
        return type(exc), str(exc)


# The rules test_cli.TestFuzz draws for --A and --B that parse, and a power whose fourth term
# is past the part range; B must also increase.
FUZZ_A = ["nat", "pow:2", "pow:0", "arith:3", "2,5,9", "3,1", "pow:40"]
FUZZ_B = ["nat", "pow:2", "arith:3", "2,5,9", "pow:40"]


class TestSpecPairs:
    """A spec realizes each (a_i, b_i) once, and answers as the per-index terms did."""

    @pytest.mark.parametrize("b_text", FUZZ_B)
    @pytest.mark.parametrize("a_text", FUZZ_A)
    def test_pairs_and_their_refusals_match_the_terms(self, a_text, b_text):
        spec = GenSpec.parse(a_text, b_text)
        for r in (0, 2, 1, 5, 3, 70, 64, 65, 4, 64):
            want = _outcome(_pairs_by_index, spec, r)
            assert _outcome(spec.pairs, r) == want, r
            assert _outcome(lambda: NNotation(spec, [0] * (r - 1) + [1] if r else []).pairs) == want

    @pytest.mark.parametrize("b_text", FUZZ_B)
    @pytest.mark.parametrize("a_text", FUZZ_A)
    def test_maps_match_the_per_index_construction(self, monkeypatch, a_text, b_text):
        inputs = all_partitions_upto(7) + [Partition([9, 7, 5, 4, 4, 3, 2, 1]), Partition([5] * 9)]
        spec = GenSpec.parse(a_text, b_text)  # one spec, its pairs grown as the inputs need
        got = [_outcome(f, p, spec) for p in inputs for f in (n_encode, pi_AB, pi_prime_AB)]
        with monkeypatch.context() as m:
            m.setattr(GenSpec, "pairs", _pairs_by_index)
            want = [_outcome(f, p, spec) for p in inputs for f in (n_encode, pi_AB, pi_prime_AB)]
        assert got == want

    def test_each_term_is_realized_once(self, monkeypatch):
        calls = []
        term = SequenceRule.term
        monkeypatch.setattr(SequenceRule, "term", lambda self, i: calls.append(i) or term(self, i))
        spec = GenSpec.standard()
        for p in ([3, 2], [5, 3, 1], [2], [9, 7, 5, 4, 4]):
            pi_prime_AB(Partition(p), spec)
        assert sorted(calls) == [1, 1, 2, 2, 3, 3, 4, 4, 5, 5]


def _retag_per_call(n, a_exp, b_exp):
    """The retagged notation as eta and tau built it before: a new spec on every call."""
    return NNotation(GenSpec(SequenceRule.powers(a_exp), SequenceRule.powers(b_exp)), n.coeffs)


def _reshaped(out):
    """What a reshaped notation shows: its counts, its rules and its partition."""
    return out.coeffs, str(out.spec.a), str(out.spec.b), n_decode(out)


class TestRetagOnce:
    """eta and tau build each retagged spec once per (a exponent, b exponent)."""

    @staticmethod
    def _reshapes():
        for k in (1, 2, 3):
            spec = GenSpec.power_widths(k)
            for p in all_partitions_upto(9) + [Partition([5] * 9)]:
                n = _outcome(n_encode, p, spec)
                if isinstance(n, tuple):
                    continue
                for i in range(0, k + 2):
                    yield _outcome(lambda: _reshaped(eta(n, k, i)))
                    for j in range(0, k + 2):
                        if 1 <= i <= k:
                            m = eta(n, k, i)
                            yield _outcome(lambda: _reshaped(tau(m, k, i, j)))
                        yield _outcome(lambda: _reshaped(tau(n, k, i, j)))

    def test_maps_match_the_per_call_construction(self, monkeypatch):
        got = list(self._reshapes())
        monkeypatch.setattr(generalized, "_retag", _retag_per_call)
        assert got == list(self._reshapes())
        assert len(got) > 1000 and any(isinstance(o[0], type) for o in got)

    def test_gmap_batch_builds_the_spec_once(self, monkeypatch):
        generalized._retagged.cache_clear()
        built, init = [], GenSpec.__init__
        monkeypatch.setattr(GenSpec, "__init__", lambda self, a, b: built.append((a, b)) or init(self, a, b))
        members = [p for p in all_partitions_upto(30) if is_in_Sk(p, 2)][:10]
        lines = "".join(f"[{','.join(map(str, p.parts))}]\n" for p in members * 10)
        monkeypatch.setattr("sys.stdin", io.StringIO(lines))
        out = io.StringIO()
        assert run(["gmap", "--fn", "eta", "--k", "2", "--p", "1", "--input", "-"], out=out) == 0
        assert len(out.getvalue().splitlines()) == 100
        assert [(str(a), str(b)) for a, b in built] == [("pow:2", "nat"), ("nat", "nat")]  # the input's, then eta's

