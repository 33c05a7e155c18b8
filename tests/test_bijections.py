import pytest
from hypothesis import given, settings

from seqcong import (
    CanonicalFormError,
    CNotation,
    DomainError,
    FrequencyMap,
    NotSequentiallyCongruentError,
    Partition,
    conjugate,
    enumerate_partitions,
    enumerate_seqcong_by_size,
    enumerate_with_parts_from,
    from_c_notation,
    is_seq_congruent,
    pi_map,
    pi_sigma_closed_form,
    psi_inverse,
    psi_map,
    render_square_decomposition,
    sigma_map,
    to_c_notation,
)

from conftest import (
    _seqcong_largest_exactly,
    all_partitions_upto,
    naive_partitions,
    partitions_st,
    pi_direct,
    seqcong_st,
    seqcong_with_largest_upto,
    sigma_direct,
)


class TestMembership:
    def test_paper_example(self):
        assert is_seq_congruent(Partition([21, 16, 14, 8]))

    def test_non_member(self):
        assert not is_seq_congruent(Partition([6, 4, 2]))

    @pytest.mark.parametrize("n", [1, 2, 7, 100])
    def test_singletons_always_members(self, n):
        assert is_seq_congruent(Partition([n]))

    def test_empty_vacuous(self):
        assert is_seq_congruent(Partition())


class TestCNotationCodec:
    @pytest.mark.parametrize(
        "parts,coeffs",
        [
            ((8, 6, 4, 4), (2, 1, 0, 1)),
            ((16, 15, 11, 5, 5), (1, 2, 2, 0, 1)),
            ((21, 16, 14, 8), (5, 1, 2, 2)),
        ],
    )
    def test_paper_examples(self, parts, coeffs):
        p = Partition(parts)
        assert to_c_notation(p).coeffs == coeffs
        assert from_c_notation(CNotation(coeffs)) == p

    def test_empty_and_singleton(self):
        assert from_c_notation(CNotation()) == Partition()
        assert from_c_notation(CNotation([7])) == Partition([7])

    def test_error_names_first_failing_index(self):
        with pytest.raises(NotSequentiallyCongruentError) as exc:
            to_c_notation(Partition([6, 4, 2]))
        assert exc.value.index == 3

    def test_trailing_zero_rejected(self):
        with pytest.raises(CanonicalFormError):
            CNotation([2, 0])

    @pytest.mark.parametrize("coeffs", [[True], [1, False, 1], [1.0]])
    def test_non_integer_coefficients_rejected(self, coeffs):
        with pytest.raises(ValueError, match="nonnegative integers"):
            CNotation(coeffs)

    def test_invariant_fields(self):
        c = CNotation([1, 2, 2, 0, 1])
        assert c.size == 52 and c.largest == 16 and c.length == 5

    def test_roundtrip_exhaustive_by_size(self):
        seen = set()
        for n in range(41):
            for p in enumerate_seqcong_by_size(n):
                assert is_seq_congruent(p)
                assert from_c_notation(to_c_notation(p)) == p
                assert p not in seen
                seen.add(p)

    @given(seqcong_st)
    def test_roundtrip_random(self, p):
        assert from_c_notation(to_c_notation(p)) == p


class TestPiMap:
    def test_paper_example(self):
        assert pi_map(Partition([12, 8, 4, 3, 3])) == Partition([30, 26, 18, 15, 15])

    def test_empty(self):
        assert pi_map(Partition()) == Partition()

    def test_all_ones(self):
        assert pi_map(Partition([1, 1, 1])) == Partition([3, 3, 3])

    def test_matches_row_sum_oracle(self):
        for p in all_partitions_upto(12):
            assert pi_map(p) == pi_direct(p)

    @given(partitions_st)
    def test_size_becomes_largest_part(self, p):
        image = pi_map(p)
        assert image.largest == p.size
        assert len(image) == len(p)
        assert is_seq_congruent(image)

    def test_bijective_onto_largest_part_classes(self):
        for n in range(13):
            domain = enumerate_partitions(n)
            image = {pi_map(p) for p in domain}
            assert len(image) == len(domain)
            assert image == set(_seqcong_largest_exactly(n))


class TestSigmaMap:
    def test_paper_example(self):
        expected = Partition([5, 5, 5, 3, 2, 2, 2, 2, 1, 1, 1, 1])  # <1^4 2^4 3^1 5^3>
        assert sigma_map(Partition([30, 26, 18, 15, 15])) == expected

    def test_empty_and_rectangle(self):
        assert sigma_map(Partition()) == Partition()
        assert sigma_map(Partition([3, 3, 3])) == Partition([3])

    def test_rejects_non_member(self):
        with pytest.raises(NotSequentiallyCongruentError):
            sigma_map(Partition([6, 4, 2]))

    def test_matches_frequency_oracle(self):
        for p in seqcong_with_largest_upto(14):
            assert sigma_map(p) == sigma_direct(p)

    def test_inverts_pi(self):
        for p in all_partitions_upto(12):
            assert sigma_map(pi_map(p)) == conjugate(p)


class TestPiSigmaClosedForm:
    def test_derived_example(self):
        p = Partition([30, 26, 18, 15, 15])
        expected = Partition([30, 30, 30, 24, 20, 20, 20, 20, 12, 12, 12, 12])
        assert pi_sigma_closed_form(p) == expected
        assert pi_map(sigma_map(p)) == expected

    def test_empty(self):
        assert pi_sigma_closed_form(Partition()) == Partition()

    @pytest.mark.parametrize("k", [1, 2, 5])
    def test_singleton_becomes_square(self, k):
        assert pi_sigma_closed_form(Partition([k])) == Partition([k] * k)

    def test_matches_composition_for_largest_upto_18(self):
        for p in seqcong_with_largest_upto(18):
            assert pi_sigma_closed_form(p) == pi_map(sigma_map(p))

    def test_rejects_non_member(self):
        with pytest.raises(NotSequentiallyCongruentError):
            pi_sigma_closed_form(Partition([3, 3]))


class TestPsi:
    def test_derived_example(self):
        p = Partition([16, 15, 11, 5, 5])
        image = psi_map(p)
        assert image == Partition([25, 9, 9, 4, 4, 1])
        assert image.size == p.size == 52

    def test_fixed_point(self):
        assert psi_map(Partition([4, 4])) == Partition([4, 4])

    def test_empty(self):
        assert psi_map(Partition()) == Partition()
        assert psi_inverse(Partition()) == Partition()

    def test_inverse_examples(self):
        assert psi_inverse(Partition([4, 1, 1])) == Partition([4, 2])
        assert psi_inverse(Partition([9])) == Partition([3, 3, 3])

    def test_inverse_rejects_non_square_part(self):
        with pytest.raises(DomainError) as exc:
            psi_inverse(Partition([8, 4]))
        assert "8" in str(exc.value)

    def test_size_preserving_bijection_counts(self):
        squares = [i * i for i in range(1, 6)]
        for n in range(31):
            members = [Partition(t) for t in naive_partitions(n) if is_seq_congruent(Partition(t))]
            targets = enumerate_with_parts_from(squares, n)
            assert len(members) == len(targets)
            assert {psi_map(p) for p in members} == set(targets)

    def test_roundtrip(self):
        for n in range(31):
            for p in enumerate_seqcong_by_size(n):
                assert psi_inverse(psi_map(p)) == p


class TestConjugateFrequencyProperty:
    def test_conjugates_have_index_divisible_frequencies(self):
        for n in range(31):
            for p in enumerate_seqcong_by_size(n):
                freq = FrequencyMap.from_partition(conjugate(p))
                assert all(mult % value == 0 for value, mult in freq.items())


class TestSquareDecomposition:
    def test_block_counts_match_coefficients(self):
        p = Partition([16, 15, 11, 5, 5])  # squares: one 5, two 3s, two 2s, one 1
        top = render_square_decomposition(p).splitlines()[0]
        widths = sorted((len(block) for block in top.split(" ")), reverse=True)
        assert widths == [5, 3, 3, 2, 2, 1]

    def test_empty_and_single(self):
        assert render_square_decomposition(Partition()) == "(empty)"
        assert render_square_decomposition(Partition([1])) == "■"

    def test_rejects_non_member(self):
        with pytest.raises(NotSequentiallyCongruentError):
            render_square_decomposition(Partition([3, 3]))

    @given(seqcong_st)
    @settings(max_examples=50)
    def test_row_lengths_follow_parts(self, p):
        if p.is_empty():
            return
        lines = render_square_decomposition(p).splitlines()
        for line, part in zip(lines, p.parts):
            assert line.count("■") == part
