"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.  Everything here is exact integer comparison; the stated
per-criterion time limits are asserted where given.
"""

import time
from contextlib import contextmanager

from seqcong import (
    AnalysisBound,
    GenSpec,
    IdealSpec,
    NNotation,
    Partition,
    andrews_compose,
    andrews_decompose,
    check_ideal_closure,
    check_modulus,
    compute_L,
    conjugate,
    count_into_powers,
    count_members,
    count_parity_ideal,
    durfee_size,
    enumerate_partitions,
    enumerate_seqcong_by_largest,
    enumerate_seqcong_by_size,
    enumerate_with_parts_from,
    eta,
    infer_linking,
    is_in_Sk,
    is_member,
    is_seq_congruent,
    iter_partition_tuples,
    linked_refutation_example,
    members_within,
    n_decode,
    n_encode,
    order_estimate,
    order_refute,
    pi_map,
    pi_prime_AB,
    pi_sigma_closed_form,
    psi_k,
    psi_map,
    sigma_AB,
    sigma_map,
    sigma_prime_AB,
    star_add,
    tail,
    tau,
    to_c_notation,
    weak_order_estimate,
)
from conftest import _iter_c_vectors, _seqcong_largest_exactly
from seqcong.generalized import SequenceRule


@contextmanager
def criterion(num, description, limit=None):
    start = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"[FAIL] criterion {num:2d}: {description}")
        raise
    elapsed = time.perf_counter() - start
    if limit is not None:
        assert elapsed < limit, f"criterion {num} took {elapsed:.2f}s, over the {limit}s limit"
    print(f"[PASS] criterion {num:2d}: {description} ({elapsed:.2f}s)")


def test_criterion_01_paper_example_regression():
    with criterion(1, "paper-example regression", limit=1.0):
        assert pi_map(Partition([12, 8, 4, 3, 3])) == Partition([30, 26, 18, 15, 15])
        assert sigma_map(Partition([30, 26, 18, 15, 15])) == Partition(
            [5, 5, 5, 3, 2, 2, 2, 2, 1, 1, 1, 1]
        )
        assert to_c_notation(Partition([8, 6, 4, 4])).coeffs == (2, 1, 0, 1)
        assert to_c_notation(Partition([16, 15, 11, 5, 5])).coeffs == (1, 2, 2, 0, 1)
        assert conjugate(Partition([7, 5, 5, 4, 1])) == Partition([5, 4, 4, 4, 3, 1, 1])
        assert durfee_size(Partition([7, 6, 3, 3, 1])) == 3
        assert tail(Partition([3, 3, 2, 1, 1, 1]), 2) == Partition([2, 1, 1, 1])
        assert star_add(Partition([5, 3, 2, 2]), Partition([3, 2, 1])) == Partition([8, 5, 3, 2])


def test_criterion_02_conjugation_theorem():
    with criterion(2, "sigma(pi(p)) == conjugate(p) for all |p| <= 14", limit=5.0):
        checked = 0
        for n in range(15):
            for t in iter_partition_tuples(n):
                p = Partition(t)
                assert sigma_map(pi_map(p)) == conjugate(p)
                checked += 1
        assert checked >= 500


def test_criterion_03_composition_closed_form():
    with criterion(3, "closed form of pi∘sigma matches the composition, largest part <= 18", limit=10.0):
        for n in range(19):
            for p in enumerate_seqcong_by_largest(n):
                assert pi_sigma_closed_form(p) == pi_map(sigma_map(p))


def test_criterion_04_square_counting():
    with criterion(4, "members of size n == square-part partitions == product coefficient, n <= 40", limit=30.0):
        squares = [i * i for i in range(1, 7)]
        for n in range(41):
            brute_members = sum(1 for t in iter_partition_tuples(n) if is_seq_congruent(Partition(t)))
            brute_squares = len(enumerate_with_parts_from(squares, n))
            assert brute_members == brute_squares == count_into_powers(n, 2)


def test_criterion_05_pi_bijectivity():
    with criterion(5, "pi is a bijection onto largest-part classes, n <= 12", limit=10.0):
        for n in range(13):
            domain = enumerate_partitions(n)
            image = {pi_map(p) for p in domain}
            assert len(image) == len(domain)  # no collisions
            assert image == set(_seqcong_largest_exactly(n))


def test_criterion_06_arithmetic_width_scaling():
    with criterion(6, "arithmetic widths scale size to largest part, a in {1,2,3}, n <= 12"):
        for a in (1, 2, 3):
            spec = GenSpec(SequenceRule.arithmetic(a), SequenceRule.naturals())
            for n in range(13):
                for p in enumerate_partitions(n):
                    image = pi_prime_AB(p, spec)
                    assert image.largest == a * n
                    assert sigma_prime_AB(image, spec).size == n


def test_criterion_07_specialization():
    with criterion(7, "standard spec collapses the generalized maps, size <= 20"):
        std = GenSpec.standard()
        for n in range(21):
            for p in enumerate_partitions(n):
                assert pi_prime_AB(p, std) == pi_map(p)
            for p in enumerate_seqcong_by_size(n):
                coords = n_encode(p, std)
                assert sigma_AB(coords) == sigma_map(p)
                assert psi_k(coords) == psi_map(p)


def test_criterion_08_power_chain_counts():
    with criterion(8, "p(S(k), n) == partitions into (k+1)th powers, k in {1,2}, n <= 30"):
        for n in range(31):
            counts = {1: 0, 2: 0}
            for t in iter_partition_tuples(n):
                p = Partition(t)
                for k in (1, 2):
                    if is_in_Sk(p, k):
                        counts[k] += 1
            for k in (1, 2):
                assert counts[k] == count_into_powers(n, k + 1)


def test_criterion_09_rectangle_reshapes():
    with criterion(9, "eta/tau preserve coefficients and areas, weight <= 20, k <= 3"):
        for k in (1, 2, 3):
            spec = GenSpec.power_widths(k)
            weights = [i**k for i in range(1, 21) if i**k <= 20]
            for total in range(21):
                for coeffs in _iter_c_vectors(weights, total):
                    n = NNotation(spec, coeffs)
                    assert n.largest == total
                    for p in range(1, k + 1):
                        out = eta(n, k, p)
                        assert out.coeffs == n.coeffs
                        assert n_decode(out).size == total
                        for q in range(1, k + 1):
                            moved = tau(out, k, p, q)
                            assert moved.coeffs == n.coeffs
                            assert moved.size == out.size
                            if q == p:
                                assert moved == out


def test_criterion_10_ideal_closure():
    with criterion(10, "every builtin ideal closed at (24, 8); S fails with a witness"):
        bound = AnalysisBound(24, 8)
        kinds = [
            IdealSpec("SA"), IdealSpec("SA_maxlen", 2), IdealSpec("SA_maxlen", 3),
            IdealSpec("D"), IdealSpec("R"), IdealSpec("Rprime"), IdealSpec("Adiff"),
            IdealSpec("N_maxlen", 3), IdealSpec("P_parity"), IdealSpec("P_mod", 3),
            IdealSpec("Pprime"),
        ]
        for spec in kinds:
            report = check_ideal_closure(spec, bound)
            assert report.closed, (spec, report.witness)
        report = check_ideal_closure(IdealSpec("S"), bound)
        assert not report.closed
        assert report.witness is not None
        assert is_seq_congruent(report.witness)
        assert not is_seq_congruent(report.after_removal)


def test_criterion_11_orders():
    with criterion(11, "order(R)=2, order(D)=1, SA refuted through k=6, weak orders 2 and 4"):
        bound = AnalysisBound(12, 8)
        assert order_estimate(IdealSpec("R"), bound).order == 2
        assert order_estimate(IdealSpec("D"), bound).order == 1
        sa = IdealSpec("SA")
        for k in range(1, 7):
            witness = order_refute(sa, k, bound)
            assert witness == Partition([k + 1, 1])
        assert weak_order_estimate(IdealSpec("P_parity"), bound).order == 2
        assert weak_order_estimate(IdealSpec("N_maxlen", 3), bound).order == 4


def test_criterion_12_moduli():
    with criterion(12, "classical moduli hold; SA fails every m <= 6 with a witness"):
        bound = AnalysisBound(12, 6)
        assert check_modulus(IdealSpec("D"), 1, bound).holds
        assert check_modulus(IdealSpec("R"), 1, bound).holds
        assert check_modulus(IdealSpec("R"), 2, bound).holds
        assert check_modulus(IdealSpec("SA_maxlen", 2), 2, bound).holds   # lcm(1,2)
        assert check_modulus(IdealSpec("SA_maxlen", 3), 6, bound).holds   # lcm(1,2,3)
        sa = IdealSpec("SA")
        for m in range(1, 7):
            report = check_modulus(sa, m, bound)
            assert not report.holds
            assert report.witness is not None and is_member(sa, report.witness)
            shifted = Partition([x + m for x in report.witness.parts])
            assert not is_member(sa, shifted)


def test_criterion_13_layer_decomposition():
    with criterion(13, "layer decomposition round-trips; pieces stay small for R at m=2"):
        # every partition of size <= 18, plus the whole 18-by-5 box
        for n in range(19):
            for t in iter_partition_tuples(n):
                p = Partition(t)
                for m in range(1, 7):
                    assert andrews_compose(andrews_decompose(p, m), m) == p
        for n in range(1, 18 * 5 + 1):
            for t in iter_partition_tuples(n, 18, 5):
                p = Partition(t)
                for m in range(1, 7):
                    assert andrews_compose(andrews_decompose(p, m), m) == p
        r_bound = AnalysisBound(12, 6)
        lset = set(compute_L(IdealSpec("R"), 2, r_bound).members)
        for p in members_within(IdealSpec("R"), r_bound):
            for piece in andrews_decompose(p, 2):
                assert piece in lset


def test_criterion_14_linking():
    with criterion(14, "linking sets and spans match the classical tables; SA subideal refuted"):
        bound = AnalysisBound(12, 6)
        d_report = infer_linking(IdealSpec("D"), 1, bound)
        assert d_report.verdict == "linked-within-bound"
        assert {p.parts for p in d_report.L_set} == {(), (1,)}
        assert all(e.span == 1 for e in d_report.entries)

        r1 = infer_linking(IdealSpec("R"), 1, bound)
        assert r1.verdict == "linked-within-bound"
        assert r1.entry_for(Partition([1])).span == 2

        r2 = infer_linking(IdealSpec("R"), 2, bound)
        assert r2.verdict == "linked-within-bound"
        two = r2.entry_for(Partition([2]))
        assert {q.parts for q in two.linking_set} == {(), (2,)}

        c_report = infer_linking(IdealSpec("SA_maxlen", 2), 2, bound)
        assert c_report.verdict == "refuted"
        assert c_report.witness is not None
        assert not is_seq_congruent(c_report.witness)

        anchor = linked_refutation_example(2)
        assert anchor.member == Partition([4, 2]) and anchor.member_in_subideal
        assert anchor.escalated == Partition([6, 4, 2]) and not anchor.escalated_seq_congruent


def test_criterion_15_parity_generating_function():
    with criterion(15, "one-parity counting formula matches brute force, n <= 30"):
        spec = IdealSpec("P_parity")
        for n in range(31):
            assert count_parity_ideal(n) == count_members(spec, n)
