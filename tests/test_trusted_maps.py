"""The maps build valid answers without ``Partition.__init__`` and bound their size.

Each rewritten map wraps its own answer with ``Partition._of``.  These tests
pin that the answers are exactly what the checked constructor accepts, that
no checked construction happens on valid inputs, and that the checks a valid
input can still fail (the congruence chain, square parts, a part past
MAX_PART, an answer past MAX_OUTPUT_PARTS) still raise.
"""

from itertools import product

import pytest

from seqcong import (
    CNotation,
    DomainError,
    FrequencyMap,
    GenSpec,
    NotSequentiallyCongruentError,
    Partition,
    ResourceError,
    SequenceRule,
    conjugate,
    from_c_notation,
    from_frequencies,
    is_in_SBA,
    is_seq_congruent,
    n_decode,
    n_encode,
    pi_map,
    pi_prime_AB,
    pi_sigma_closed_form,
    psi_inverse,
    psi_k,
    psi_map,
    render_diagram,
    render_square_decomposition,
    sigma_AB,
    sigma_k,
    sigma_map,
    sigma_prime_AB,
    to_c_notation,
)
from seqcong import partition
from seqcong.partition import MAX_OUTPUT_PARTS, MAX_PART

from conftest import all_partitions_upto

STANDARD = GenSpec.standard()
SQUARE_WIDTHS = GenSpec(SequenceRule.powers(2), SequenceRule.naturals())


def _cli_members():
    """Members shaped like the CLI benchmark's: up to 6 coefficients in 0..2, the last nonzero."""
    return [
        from_c_notation(CNotation(head + (last,)))
        for r in range(1, 7)
        for head in product(range(3), repeat=r - 1)
        for last in (1, 2)
    ]


ANY = all_partitions_upto(18) + _cli_members()
MEMBERS = [p for p in ANY if is_seq_congruent(p)]
SQUARES = [psi_map(p) for p in MEMBERS]
SQUARE_WIDTH_MEMBERS = [p for p in ANY if is_in_SBA(p, SQUARE_WIDTHS)]

# name -> (map, inputs in its domain)
MAPS = {
    "pi_map": (pi_map, ANY),
    "conjugate": (conjugate, ANY),
    "sigma_map": (sigma_map, MEMBERS),
    "pi_sigma_closed_form": (pi_sigma_closed_form, MEMBERS),
    "psi_map": (psi_map, MEMBERS),
    "psi_inverse": (psi_inverse, SQUARES),
    "c_codec": (lambda p: from_c_notation(to_c_notation(p)), MEMBERS),
    "from_frequencies": (lambda p: from_frequencies(list(FrequencyMap.from_partition(p).items()) + [(1, 0)]),
                         ANY),
    "n_codec": (lambda p: n_decode(n_encode(p, STANDARD)), MEMBERS),
    "pi_prime_AB": (lambda p: pi_prime_AB(p, STANDARD), ANY),
    "sigma_prime_AB": (lambda p: sigma_prime_AB(p, STANDARD), MEMBERS),
    "sigma_AB": (lambda p: sigma_AB(n_encode(p, STANDARD)), MEMBERS),
    "sigma_k": (lambda p: sigma_k(n_encode(p, SQUARE_WIDTHS)), SQUARE_WIDTH_MEMBERS),
    "psi_k": (lambda p: psi_k(n_encode(p, SQUARE_WIDTHS)), SQUARE_WIDTH_MEMBERS),
}


def test_domains_are_not_trivial():
    # 1597 partitions of n <= 18, then 728 members from the coefficient box
    assert (len(ANY), len(MEMBERS), len(SQUARE_WIDTH_MEMBERS)) == (2325, 805, 38)


@pytest.mark.parametrize("name", sorted(MAPS))
def test_answers_are_what_the_checked_constructor_accepts(name):
    fn, inputs = MAPS[name]
    for p in inputs:
        out = fn(p)
        assert type(out.parts) is tuple
        assert all(type(x) is int for x in out.parts), (p, out)
        assert out == Partition(out.parts)


def test_no_checked_construction_on_valid_inputs(monkeypatch):
    calls = []
    init = Partition.__init__

    def spy(self, parts=()):
        calls.append(parts)
        init(self, parts)

    monkeypatch.setattr(Partition, "__init__", spy)
    for name, (fn, inputs) in MAPS.items():
        for p in inputs:
            fn(p)
        assert calls == [], name
    Partition((2, 1))
    assert calls == [(2, 1)]


def _first_congruence_failure(t):
    for i in range(1, len(t) + 1):
        nxt = t[i] if i < len(t) else 0
        if (t[i - 1] - nxt) % i:
            return i
    return None


@pytest.mark.parametrize("fn", [sigma_map, psi_map, pi_sigma_closed_form, to_c_notation,
                                render_square_decomposition])
def test_non_members_fail_at_their_first_index(fn):
    for p in all_partitions_upto(12):
        bad = _first_congruence_failure(p.parts)
        if bad is None:
            continue
        with pytest.raises(NotSequentiallyCongruentError) as exc:
            fn(p)
        assert exc.value.index == bad


def test_psi_inverse_names_the_first_non_square():
    with pytest.raises(DomainError, match="part 5 is not a perfect square"):
        psi_inverse(Partition([9, 5, 3]))


@pytest.mark.parametrize("build", [
    lambda: pi_map(Partition([MAX_PART, 1])),
    lambda: from_c_notation(CNotation([0, MAX_PART])),
    lambda: FrequencyMap({MAX_PART + 1: 1}).to_partition(),
    lambda: from_frequencies([(MAX_PART + 1, 1), (1, 1)]),
    lambda: pi_prime_AB(Partition([MAX_PART]), GenSpec(SequenceRule.arithmetic(2), SequenceRule.naturals())),
], ids=["pi", "c_codec", "frequency_map", "from_frequencies", "n_decode"])
def test_parts_past_max_part_overflow(build):
    with pytest.raises(OverflowError, match="exceeds the 64-bit part range"):
        build()


HUGE = 10**12

TOO_LONG = {
    "sigma_map": lambda: sigma_map(Partition([HUGE])),
    "psi_map": lambda: psi_map(Partition([HUGE])),
    "pi_sigma_closed_form": lambda: pi_sigma_closed_form(Partition([HUGE])),
    "conjugate": lambda: conjugate(Partition([HUGE])),
    "psi_inverse": lambda: psi_inverse(Partition([(2 * 10**9) ** 2])),
    "from_frequencies": lambda: from_frequencies([(1, HUGE)]),
    "sigma_prime_AB": lambda: sigma_prime_AB(Partition([HUGE]), STANDARD),
    "n_decode": lambda: pi_prime_AB(Partition(range(20, 0, -1)), GenSpec(
        SequenceRule.naturals(), SequenceRule.powers(12))),
    "render_diagram": lambda: render_diagram(Partition([HUGE])),
    "render_square_decomposition": lambda: render_square_decomposition(Partition([HUGE])),
}


@pytest.mark.parametrize("name", sorted(TOO_LONG))
def test_answers_past_the_limit_are_refused_before_they_are_built(name):
    with pytest.raises(ResourceError, match=f"above the limit of {MAX_OUTPUT_PARTS}"):
        TOO_LONG[name]()


def test_the_limit_is_inclusive(monkeypatch):
    monkeypatch.setattr(partition, "MAX_OUTPUT_PARTS", 5)
    assert sigma_map(Partition([5])) == Partition([1] * 5)
    assert conjugate(Partition([5, 2])) == Partition([2, 2, 1, 1, 1])
    assert from_frequencies([(3, 2), (1, 3)]) == Partition([3, 3, 1, 1, 1])
    assert render_diagram(Partition([3, 2])) == "■ ■ ■\n■ ■"
    for build in (lambda: sigma_map(Partition([6])), lambda: conjugate(Partition([6, 2])),
                  lambda: from_frequencies([(3, 3), (1, 3)]), lambda: render_diagram(Partition([3, 3]))):
        with pytest.raises(ResourceError, match="above the limit of 5"):
            build()
