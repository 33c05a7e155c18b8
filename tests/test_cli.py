import contextlib
import errno
import io
import json
import os
import shlex
import subprocess
import sys
from math import isqrt
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqcong import (CNotation, CountSeries, IdealSpec, Partition, bijections, counting, from_c_notation,
                     generalized, is_seq_congruent)
from seqcong import cli as cli_module
from seqcong.cli import run
from seqcong.partition import MAX_OUTPUT_PARTS

from conftest import recursive_partition_tuples

SRC = Path(__file__).resolve().parent.parent / "src"


def cli(*argv):
    out = io.StringIO()
    code = run(list(argv), out=out)
    return code, out.getvalue()


def cli_ok(*argv):
    code, text = cli(*argv)
    assert code == 0, text
    return text


class TestPaperExampleGoldens:
    def test_pi(self):
        assert cli_ok("map", "--fn", "pi", "--input", "[12,8,4,3,3]") == "[30,26,18,15,15]\n"

    def test_sigma(self):
        assert cli_ok("map", "--fn", "sigma", "--input", "[30,26,18,15,15]") == "[5,5,5,3,2,2,2,2,1,1,1,1]\n"

    def test_conjugate(self):
        assert cli_ok("map", "--fn", "conjugate", "--input", "[7,5,5,4,1]") == "[5,4,4,4,3,1,1]\n"

    def test_cnotation(self):
        assert cli_ok("convert", "--to", "cnotation", "--input", "[8,6,4,4]") == '{"c":[2,1,0,1]}\n'

    def test_cnotation_second_example(self):
        assert cli_ok("convert", "--to", "cnotation", "--input", "[16,15,11,5,5]") == '{"c":[1,2,2,0,1]}\n'

    def test_star_example_via_library_matches_check(self):
        assert cli_ok("check", "--pred", "seqcong", "--input", "[21,16,14,8]") == "true\n"

    def test_empty_pi(self):
        assert cli_ok("map", "--fn", "pi", "--input", "[]") == "[]\n"

    def test_psi(self):
        assert cli_ok("map", "--fn", "psi", "--input", "[16,15,11,5,5]") == "[25,9,9,4,4,1]\n"


def _readme_json_examples():
    """(argv, answer) for each README CLI line whose comment is a JSON answer."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    examples = []
    for line in readme.splitlines():
        command, _, comment = line.partition(" # ")
        if not command.startswith("seqcong "):
            continue
        try:
            json.loads(comment)
        except ValueError:
            continue
        examples.append((shlex.split(command)[1:], comment.strip()))
    return examples


README_EXAMPLES = _readme_json_examples()


def test_readme_lists_four_json_examples():
    assert len(README_EXAMPLES) == 4


@pytest.mark.parametrize("argv,answer", README_EXAMPLES, ids=[" ".join(a[:2]) for a, _ in README_EXAMPLES])
def test_readme_example_answers(argv, answer):
    assert cli_ok(*argv) == answer + "\n"


class TestConvert:
    def test_standard_from_cnotation(self):
        assert cli_ok("convert", "--to", "standard", "--input", '{"c":[2,1,0,1]}') == "[8,6,4,4]\n"

    def test_boolean_coefficients_rejected(self):
        assert cli("convert", "--to", "standard", "--input", '{"c":[true]}')[0] == 1

    @pytest.mark.parametrize("payload", ['{"freq":[[true,2]]}', '{"freq":[["3","1"],[2.7,1]]}',
                                         '{"freq":[[3,1],[2.7,1]]}', '{"freq":{"12":1}}'])
    def test_frequency_form_needs_integers(self, payload, capsys):
        assert cli("convert", "--to", "standard", "--input", payload) == (1, "")
        assert capsys.readouterr().err == 'error: the "freq" form needs an array of [part, multiplicity] pairs\n'

    def test_frequency_form_standard(self):
        assert cli_ok("convert", "--to", "standard", "--input", '{"freq":[[3,1],[2,2],[5,0]]}') == "[3,2,2]\n"

    def test_frequency_roundtrip(self):
        text = cli_ok("convert", "--to", "frequency", "--input", "[3,2,2]")
        payload = json.loads(text)
        assert payload == {"freq": [[2, 2], [3, 1]]}
        back = cli_ok("convert", "--to", "standard", "--input", text.strip())
        assert back == "[3,2,2]\n"


class TestDiagram:
    def test_plain(self):
        assert cli_ok("diagram", "--input", "[2,1]") == "■ ■\n■\n"

    def test_empty(self):
        assert cli_ok("diagram", "--input", "[]") == "(empty)\n"

    def test_squares_blocks(self):
        top = cli_ok("diagram", "--squares", "--input", "[16,15,11,5,5]").splitlines()[0]
        assert sorted((len(b) for b in top.split(" ")), reverse=True) == [5, 3, 3, 2, 2, 1]

    def test_squares_rejects_non_member(self):
        code, _ = cli("diagram", "--squares", "--input", "[3,3]")
        assert code == 1


class TestGeneralizedCommands:
    def test_gcheck_rectangle(self):
        assert cli_ok("gcheck", "--A", "2", "--B", "3", "--input", "[2,2,2]") == "true\n"
        assert cli_ok("gcheck", "--A", "2", "--B", "3", "--input", "[2,2]") == "false\n"

    def test_gmap_sigmaAB_specializes(self):
        assert cli_ok("gmap", "--fn", "sigmaAB", "--input", "[30,26,18,15,15]") == "[5,5,5,3,2,2,2,2,1,1,1,1]\n"

    def test_gmap_piPrime_arith(self):
        assert cli_ok("gmap", "--fn", "piPrimeAB", "--A", "arith:2", "--input", "[2,1]") == "[6,4]\n"

    def test_gmap_piAB_payload(self):
        payload = json.loads(cli_ok("gmap", "--fn", "piAB", "--A", "1,2", "--B", "2,3", "--input", "[2,1]"))
        assert payload == {"n": [1, 1], "A": "1,2", "B": "2,3", "partition": [3, 3, 2]}

    def test_gmap_eta(self):
        payload = json.loads(cli_ok("gmap", "--fn", "eta", "--k", "2", "--p", "1", "--input", "[4,4]"))
        assert payload["n"] == [0, 1] and payload["partition"] == [2, 2]

    def test_gmap_tau_identity(self):
        payload = json.loads(cli_ok("gmap", "--fn", "tau", "--k", "2", "--p", "1", "--q", "1", "--input", "[2,2]"))
        assert payload["partition"] == [2, 2]

    def test_gmap_sigmak(self):
        assert cli_ok("gmap", "--fn", "sigmak", "--k", "2", "--input", "[4,4]") == "[4]\n"
        assert cli_ok("gmap", "--fn", "psik", "--k", "2", "--input", "[4,4]") == "[8]\n"

    def test_gcheck_horizon_error_comes_before_a_false_verdict(self, capsys):
        # the tall column (height 200, position 100 of arith:2) passes at any
        # position, and the height-1 column answers false
        parts = "[2" + ",1" * 199 + "]"
        assert cli("gcheck", "--B", "arith:2", "--input", parts) == (0, "false\n")
        assert capsys.readouterr().err == ""

    def test_gcheck_huge_part(self):
        assert cli_ok("gcheck", "--input", "[1000000000000]") == "true\n"

    def test_gcheck_huge_power_width(self):
        # a_2 = 2**(10**10) would take 1.25 GB; it exceeds the multiplicity 1 unrealized
        assert cli_ok("gcheck", "--A", "pow:10000000000", "--input", "[2,1]") == "false\n"

    def test_gcheck_huge_power_height(self):
        # only 1 is a (10**10)-th power below 2**(10**10)
        assert cli_ok("gcheck", "--B", "pow:10000000000", "--input", "[1]") == "true\n"

    def test_horizon_env(self, monkeypatch):
        # SEQCONG_HORIZON is not read: neither a small nor a malformed value changes an answer
        for value in ("2", "x"):
            monkeypatch.setenv("SEQCONG_HORIZON", value)
            assert cli_ok("gcheck", "--input", "[3,1,1]") == "false\n"  # needs index 3 of B
            assert cli_ok("gcheck", "--input", "[" + ",".join(["65"] * 65) + "]") == "true\n"

    @pytest.mark.parametrize("parts", [[1] * 65, [7] * 3 + [5] * 30 + [2] * 37],
                             ids=["65-ones", "70-parts"])
    def test_square_case_past_64_parts(self, parts):
        text = json.dumps(parts, separators=(",", ":"))
        assert cli_ok("gcheck", "--input", text) == cli_ok("check", "--pred", "seqcong", "--input", text)
        assert cli_ok("gmap", "--fn", "piPrimeAB", "--input", text) == cli_ok("map", "--fn", "pi", "--input", text)


class TestEnumerateAndCount:
    def test_enumerate_by_size(self):
        assert cli_ok("enumerate", "--pred", "seqcong", "--size", "4") == "[4]\n[2,2]\n"

    def test_enumerate_by_largest_counts(self):
        lines = cli_ok("enumerate", "--pred", "seqcong", "--largest", "5").splitlines()
        assert len(lines) == 7  # p(5)

    def test_enumerate_limit(self):
        lines = cli_ok("enumerate", "--pred", "all", "--size", "6", "--limit", "3").splitlines()
        assert lines == ["[6]", "[5,1]", "[4,2]"]

    def test_enumerate_ideal_kind(self):
        lines = cli_ok("enumerate", "--pred", "R", "--size", "4").splitlines()
        assert lines == ["[4]", "[3,1]"]

    def test_enumerate_negative_size_exits_1(self, capsys):
        for mode in ("--size", "--largest"):
            assert cli("enumerate", "--pred", "seqcong", mode, "-1") == (1, "")
            assert capsys.readouterr().err == "error: n must be nonnegative\n"

    def test_enumerate_needs_exactly_one_mode(self):
        assert cli("enumerate", "--pred", "all")[0] == 1
        assert cli("enumerate", "--pred", "all", "--size", "3", "--largest", "3")[0] == 1

    def test_count_table(self):
        assert cli_ok("count", "--pred", "seqcong", "--upto", "4").splitlines() == [
            "0 1", "1 1", "2 1", "3 1", "4 2"]

    def test_count_json(self):
        assert cli_ok("--format", "json", "count", "--pred", "squares", "--upto", "9") == "[1,1,1,1,2,2,2,2,3,4]\n"

    def test_count_all_builds_the_series_once(self, monkeypatch):
        # Size N is asked first and grows p(n) to N, each coefficient once by
        # the pentagonal recurrence; every smaller size reads it.
        want = [f"{n:>4} {c}" for n, c in enumerate(CountSeries.from_degrees(range(1, 1001), 1000).coefficients)]
        appended = []

        class Appends(list):
            def append(self, x):
                appended.append(len(self))
                super().append(x)

        def refuse(*args):
            raise AssertionError("built a product series")

        monkeypatch.setattr(counting, "_series_cache", {("powers", 1): Appends([1])})
        monkeypatch.setattr(CountSeries, "from_degrees", refuse)
        assert cli_ok("count", "--pred", "all", "--upto", "1000").splitlines() == want
        assert appended == list(range(1, 1001))

    @pytest.mark.parametrize("argv", [
        ("count", "--pred", "powers:x", "--upto", "3"),
        ("count", "--pred", "Sk:x", "--upto", "3"),
        ("enumerate", "--pred", "Sk:", "--size", "3"),
    ])
    def test_bad_tag_parameter_names_the_tag(self, argv, capsys):
        assert cli(*argv) == (1, "")
        assert capsys.readouterr().err == f"error: bad predicate parameter in {argv[2]!r}\n"

    def test_count_agreement_between_tags(self):
        # both tags read the square series; each must match a filter over every partition
        squares = lambda p: all(isqrt(x) ** 2 == x for x in p.parts)
        for tag, member in (("seqcong", is_seq_congruent), ("squares", squares)):
            want = [sum(member(Partition(t)) for t in recursive_partition_tuples(n)) for n in range(21)]
            assert json.loads(cli_ok("--format", "json", "count", "--pred", tag, "--upto", "20")) == want

    def test_seqcong_tag_is_the_library_test(self, capsys):
        # count and enumerate take --pred seqcong to counting's route for is_seq_congruent; the texts are unchanged
        assert cli_module._predicate_for("seqcong") is is_seq_congruent
        assert cli_ok("enumerate", "--pred", "seqcong", "--size", "12") == "[12]\n[10,2]\n[8,4]\n[6,6]\n[6,3,3]\n"
        assert cli_ok("enumerate", "--pred", "seqcong", "--size", "12", "--limit", "-3") == "[12]\n[10,2]\n"
        for argv, err in ((("count", "--pred", "seqcong", "--upto", "250000"),
                           "error: counting to size 250000 needs 250001 series cells, above 250000\n"),
                          (("enumerate", "--pred", "seqcong", "--size", "-1"), "error: n must be nonnegative\n")):
            assert cli(*argv) == (1, "")
            assert capsys.readouterr().err == err

    def test_parity_tag_lists_as_it_counts(self):
        # the alias parity -> P_parity serves enumerate as well as count
        assert cli_ok("enumerate", "--pred", "parity", "--size", "4") == "[4]\n[3,1]\n[2,2]\n[1,1,1,1]\n"
        for n in ("0", "4", "12"):
            assert cli("enumerate", "--pred", "parity", "--size", n) == cli("enumerate", "--pred", "P_parity", "--size", n)
        assert cli_ok("count", "--pred", "parity", "--upto", "8") == "0 1\n1 1\n2 2\n3 2\n4 4\n5 3\n6 7\n7 5\n8 11\n"
        assert cli_ok("--format", "json", "count", "--pred", "parity", "--upto", "12") == "[1,1,2,2,4,3,7,5,11,8,17,12,26]\n"


class TestIdealCountsAndListings:
    """`count`/`enumerate --pred <ideal>` against a filter over every partition."""

    @staticmethod
    def filtered(tag, n):
        spec = IdealSpec.parse(tag)
        return [t for t in recursive_partition_tuples(n) if spec._member(t)]

    @pytest.mark.parametrize("tag", ["R", "D", "SA_maxlen:2", "S"])
    def test_count_table(self, tag):
        want = [f"{n:>2} {len(self.filtered(tag, n))}" for n in range(17)]
        assert cli_ok("count", "--pred", tag, "--upto", "16").splitlines() == want

    @pytest.mark.parametrize("tag", ["R", "D", "SA_maxlen:2", "S"])
    def test_enumerate_by_size(self, tag):
        for n in (0, 1, 7, 14):
            want = ["[" + ",".join(map(str, t)) + "]" for t in self.filtered(tag, n)]
            assert cli_ok("enumerate", "--pred", tag, "--size", str(n)).splitlines() == want

    def test_walk_serves_ideals_and_not_s(self, monkeypatch):
        # enumerate walks the members of one size; count reads one series: a sum side (R, Adiff)
        # or SA_maxlen's degree product, where it once walked each size or counted classes
        walked, summed = [], []
        walk, sum_side = counting.iter_members_of_size, counting._sum_side

        def spy(spec, n):
            walked.append(str(spec))
            return walk(spec, n)

        def sum_spy(spec, upto, stairs, scale=1):
            summed.append((str(spec), upto))
            return sum_side(spec, upto, stairs, scale)

        monkeypatch.setattr(counting, "iter_members_of_size", spy)
        monkeypatch.setattr(counting, "_sum_side", sum_spy)
        for tag in ("R", "SA_maxlen:2", "S", "Adiff"):
            cli_ok("count", "--pred", tag, "--upto", "3")
            cli_ok("enumerate", "--pred", tag, "--size", "3")
        assert walked == ["R", "SA_maxlen:2", "Adiff"]
        assert summed == [("R", 3), ("Adiff", 3)]

    def test_distinct_parts_to_200(self):
        # Euler's prod (1 + q^k); the member walk could not reach this size
        assert cli_ok("count", "--pred", "D", "--upto", "200").splitlines()[-1] == "200 487067746"

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_sk_reads_the_powers_series(self, k, monkeypatch):
        # psi_k maps S_k's members of size n onto the partitions of n into (k+1)-th powers
        want = [sum(generalized.is_in_Sk(Partition(t), k) for t in recursive_partition_tuples(n)) for n in range(31)]

        def refuse(*args):
            raise AssertionError("filtered every partition")

        monkeypatch.setattr(counting, "count_members", refuse)
        assert json.loads(cli_ok("--format", "json", "count", "--pred", f"Sk:{k}", "--upto", "30")) == want

    def test_sk_with_a_huge_k_is_listed_at_once(self):
        # i**k for i >= 2 passes every part long before k = 99999999999, so the answer is k = 63's
        assert cli_ok("enumerate", "--pred", "Sk:99999999999", "--size", "2") == "[2]\n"

    @pytest.mark.parametrize("tag", ["Sk:0", "Sk:-2"])
    def test_sk_needs_a_positive_k(self, tag, capsys):
        assert cli("count", "--pred", tag, "--upto", "3") == (1, "")
        assert capsys.readouterr().err == "error: k must be a positive integer\n"

    def test_s_prints_the_seqcong_bytes(self, monkeypatch, capsys):
        # S is exactly the sequentially congruent set, so it is answered the
        # same way, refusals too: the squares series and the psi listing, no filter
        def refuse(*args):
            raise AssertionError("filtered every partition")

        monkeypatch.setattr(counting, "count_members", refuse)
        monkeypatch.setattr(counting, "_partitions", refuse)
        for head, tail in (
            (("count",), ("--upto", "45")),
            (("count",), ("--upto", "250000")),
            (("count",), ("--upto", "-2")),
            (("count",), ("--upto", "0")),
            (("--format", "json", "count"), ("--upto", "30")),
            (("enumerate",), ("--size", "0")),
            (("enumerate",), ("--size", "24")),
            (("--format", "json", "enumerate"), ("--size", "18", "--limit", "3")),
        ):
            got = cli(*head, "--pred", "S", *tail), capsys.readouterr().err
            assert got == (cli(*head, "--pred", "seqcong", *tail), capsys.readouterr().err)


class TestIdealCommands:
    def test_check(self):
        assert cli_ok("ideal", "check", "--ideal", "SA", "--input", "[60,60,60,60,60]") == "true\n"
        assert cli_ok("ideal", "check", "--ideal", "SA", "--input", "[64,64,64,64,64]") == "false\n"

    def test_closure_text(self):
        text = cli_ok("ideal", "closure", "--ideal", "S", "--max-part", "8", "--max-len", "4")
        assert "NOT closed" in text

    def test_closure_json(self):
        payload = json.loads(cli_ok("--format", "json", "ideal", "closure", "--ideal", "D",
                                    "--max-part", "10", "--max-len", "5"))
        assert payload["closed"] is True

    def test_closure_of_a_box_longer_than_the_recursion_limit(self):
        text = cli_ok("ideal", "closure", "--ideal", "P_parity", "--max-part", "1", "--max-len", "2000")
        assert text == "P_parity: closed under part removal within bound (2001 members checked)\n"

    def test_order(self):
        text = cli_ok("ideal", "order", "--ideal", "R", "--max-part", "10", "--max-len", "6")
        assert "order 2" in text

    def test_weak_order_json(self):
        payload = json.loads(cli_ok("--format", "json", "ideal", "weak-order", "--ideal", "P_parity",
                                    "--max-part", "10", "--max-len", "6"))
        assert payload["order"] == 2

    def test_modulus(self):
        assert "holds" in cli_ok("ideal", "modulus", "--ideal", "D", "--modulus", "1")
        assert "fails" in cli_ok("ideal", "modulus", "--ideal", "SA", "--modulus", "2")

    def test_lset(self):
        lines = cli_ok("ideal", "Lset", "--ideal", "R", "--modulus", "2").splitlines()
        assert lines[1:] == ["[]", "[1]", "[2]"]

    def test_decompose(self):
        assert cli_ok("ideal", "decompose", "--ideal", "R", "--modulus", "2", "--input", "[5,2]") == "[[2],[],[1]]\n"

    def test_link_json_roundtrip(self):
        payload = json.loads(cli_ok("--format", "json", "ideal", "link", "--ideal", "R", "--modulus", "1"))
        assert payload["verdict"] == "linked-within-bound"
        spans = {tuple(e["element"]): e["span"] for e in payload["entries"]}
        assert spans == {(): 1, (1,): 2}

    def test_link_refuted(self):
        text = cli_ok("ideal", "link", "--ideal", "SA_maxlen:2", "--modulus", "2")
        assert "refuted" in text

    def test_missing_flags_are_domain_errors(self):
        assert cli("ideal", "modulus", "--ideal", "D")[0] == 1
        assert cli("ideal", "check", "--ideal", "D")[0] == 1


class TestErrorsAndDeterminism:
    def test_domain_error_exit_code(self):
        assert cli("map", "--fn", "sigma", "--input", "[6,4,2]")[0] == 1

    def test_invalid_partition_exit_code(self):
        assert cli("map", "--fn", "pi", "--input", "[1,2,3]")[0] == 1
        assert cli("map", "--fn", "pi", "--input", "not json")[0] == 1

    def test_usage_error_exit_code(self):
        with pytest.raises(SystemExit) as exc:
            run(["map", "--fn", "nonsense", "--input", "[1]"])
        assert exc.value.code == 2

    def test_byte_identical_reruns(self):
        argv = ("ideal", "link", "--ideal", "R", "--modulus", "2", "--max-part", "10", "--max-len", "5")
        assert cli_ok(*argv) == cli_ok(*argv)

    def test_batch_mode(self, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("[12,8,4,3,3]\n\n[1,1,1]\n"))
        assert cli_ok("map", "--fn", "pi", "--input", "-") == "[30,26,18,15,15]\n[3,3,3]\n"

    def test_json_outputs_reparse(self):
        for argv in (
            ("--format", "json", "ideal", "closure", "--ideal", "R", "--max-part", "8", "--max-len", "4"),
            ("--format", "json", "ideal", "modulus", "--ideal", "R", "--modulus", "2",
             "--max-part", "8", "--max-len", "4"),
            ("--format", "json", "ideal", "Lset", "--ideal", "D", "--modulus", "1"),
            ("--format", "json", "ideal", "link", "--ideal", "D", "--modulus", "1"),
        ):
            json.loads(cli_ok(*argv))

    @pytest.mark.parametrize("via_stdin", [True, False], ids=["stdin", "argument"])
    def test_deeply_nested_json_is_a_domain_error(self, monkeypatch, capsys, via_stdin):
        text = "[" * 100000 + "]" * 100000
        if via_stdin:
            monkeypatch.setattr("sys.stdin", io.StringIO(text + "\n"))
        assert cli("map", "--fn", "pi", "--input", "-" if via_stdin else text) == (1, "")
        assert capsys.readouterr().err == "error: input is nested too deeply\n"


class TestBatchIsolation:
    """A bad stdin line is reported with its number; the other lines are answered."""

    def batch(self, monkeypatch, capsys, text, *argv):
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        code, out = cli(*argv, "--input", "-")
        return code, out, capsys.readouterr().err

    def test_mixed_batch(self, monkeypatch, capsys):
        assert self.batch(monkeypatch, capsys, "[3,1]\n[x\n[2]\n", "map", "--fn", "sigma") == (
            1, "[1,1]\n",
            "error: line 1: not sequentially congruent: congruence fails at index 2\n"
            "error: line 2: input is not valid JSON: Expecting value: line 1 column 2 (char 1)\n")

    def test_lines_after_a_bad_line_are_answered(self, monkeypatch, capsys):
        text = "[2]\n\n[6,4,2]\n[3]\n[8,6,4,4]\n"
        assert self.batch(monkeypatch, capsys, text, "map", "--fn", "sigma") == (
            1, "[1,1]\n[1,1,1]\n[4,2,1,1]\n",
            "error: line 3: not sequentially congruent: congruence fails at index 3\n")

    def test_one_line_batch_reports_as_input_does(self, monkeypatch, capsys):
        code, out, err = self.batch(monkeypatch, capsys, "\n[6,4,2]\n\n", "map", "--fn", "sigma")
        assert (code, out) == (1, "")
        assert err == "error: not sequentially congruent: congruence fails at index 3\n"
        assert cli("map", "--fn", "sigma", "--input", "[6,4,2]") == (1, "")
        assert capsys.readouterr().err == err

    def test_good_batch_exits_0(self, monkeypatch, capsys):
        assert self.batch(monkeypatch, capsys, "[4]\n[2,1]\n", "check", "--pred", "seqcong") == (
            0, "true\nfalse\n", "")

    @pytest.mark.parametrize("argv,err", [
        (("gmap", "--fn", "eta", "--k", "2"), "--fn eta needs --p"),
        (("gmap", "--fn", "psik"), "--fn psik needs --k"),
        (("gmap", "--fn", "tau", "--k", "3", "--p", "1"), "--fn tau needs --p and --q"),
        (("gmap", "--fn", "sigmaAB", "--A", "pow:x"), "cannot parse sequence rule 'pow:x'"),
        (("gcheck", "--B", "arith:y"), "cannot parse sequence rule 'arith:y'"),
        (("gcheck", "--A", "pow:-1"), "power exponent must be nonnegative"),
        (("gcheck", "--A", "0,1"), "explicit sequence needs positive integers, got (0, 1)"),
    ])
    def test_argument_error_reported_once(self, monkeypatch, capsys, argv, err):
        assert self.batch(monkeypatch, capsys, "[2]\n[4,2]\n[3]\n", *argv) == (1, "", f"error: {err}\n")

    def test_bad_horizon_reported_once(self, monkeypatch, capsys):
        # SEQCONG_HORIZON is not read, so 'x' stops nothing; only an explicit list ends,
        # on the one line that runs past it
        monkeypatch.setenv("SEQCONG_HORIZON", "x")
        assert self.batch(monkeypatch, capsys, "[2]\n[3,2,1]\n[6,3]\n[1]\n", "gcheck", "--A", "1,2") == (
            1, "true\nfalse\ntrue\n", "error: line 2: sequence 1,2 has only 2 terms, needed term 3\n")

    @pytest.mark.parametrize("argv,rules", [(("gcheck", "--A", "arith:2"), 2), (("gmap", "--fn", "piAB"), 2),
                                            (("gmap", "--fn", "eta", "--k", "2", "--p", "1"), 1)])
    def test_spec_built_once_per_batch(self, monkeypatch, capsys, argv, rules):
        calls = []
        # the CLI imports generalized inside the gcheck/gmap handlers, so patch it there
        parse = generalized.SequenceRule.parse
        monkeypatch.setattr(generalized.SequenceRule, "parse", lambda text: calls.append(text) or parse(text))
        code, out, _ = self.batch(monkeypatch, capsys, "[2]\n[4,4]\n[4]\n", *argv)
        assert (code, out.count("\n")) == (0, 3)
        assert len(calls) == rules


class TestOutputSizeGuard:
    """Answers past MAX_OUTPUT_PARTS exit 1 at once with the ResourceError message."""

    @pytest.mark.parametrize("argv", [
        ("map", "--fn", "sigma", "--input", "[1000000000000]"),
        ("map", "--fn", "conjugate", "--input", "[1000000000000]"),
        ("convert", "--to", "standard", "--input", '{"freq":[[1,1000000000000]]}'),
        ("enumerate", "--pred", "seqcong", "--size", "1000000000000"),
        ("enumerate", "--pred", "S", "--size", "1000000000000"),
        ("enumerate", "--pred", "seqcong", "--largest", "1000000000000", "--limit", "0"),
    ], ids=["sigma", "conjugate", "freq", "enumerate-seqcong", "enumerate-S", "enumerate-largest"])
    def test_refused(self, capsys, argv):
        assert cli(*argv) == (1, "")
        assert capsys.readouterr().err == (
            "error: the answer would have 1000000000000 parts, above the limit of 10000000\n")

    @pytest.mark.parametrize("pred", ["seqcong", "S"])
    def test_enumerate_refused_before_listing(self, monkeypatch, capsys, pred):
        # the partition 1^n of the size alone is too long, so no partition into squares is listed
        sizes = []
        listing = counting.enumerate_with_parts_from
        monkeypatch.setattr(counting, "enumerate_with_parts_from",
                            lambda allowed, n: sizes.append(n) or listing(allowed, n))
        assert cli("enumerate", "--pred", pred, "--size", "1000000000000") == (1, "")
        assert capsys.readouterr().err == (
            "error: the answer would have 1000000000000 parts, above the limit of 10000000\n")
        assert cli("enumerate", "--pred", pred, "--size", str(MAX_OUTPUT_PARTS + 1))[0] == 1
        assert sizes == []
        assert cli_ok("enumerate", "--pred", pred, "--size", "12")
        assert sizes == [12]


def _seqcong(*argv, unbuffered=False, **kwargs):
    """``python -m seqcong.cli ARGV`` in a child process, stdout buffered or not."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(SRC)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return [sys.executable, "-m", "seqcong.cli", *argv], env


class TestProcessExits:
    """A closed or full stdout, or a power term past the part range, ends in one error line and exit 1."""

    @pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
    def test_closed_pipe(self, tmp_path, unbuffered):
        batch = tmp_path / "batch"
        batch.write_text("[3,2]\n" * 50000)  # far more than a pipe holds
        argv, env = _seqcong("map", "--fn", "pi", "--input", "-", unbuffered=unbuffered)
        with batch.open("rb") as stdin, subprocess.Popen(argv, stdin=stdin, stdout=subprocess.PIPE,
                                                         stderr=subprocess.PIPE, env=env) as proc:
            assert proc.stdout.readline() == b"[5,4]\n"
            proc.stdout.close()
            err = proc.stderr.read()
            assert proc.wait(timeout=60) == 1
        assert err == b"error: [Errno 32] Broken pipe\n"

    @pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
    def test_closed_pipe_during_the_last_write(self, tmp_path, unbuffered):
        # one read of 64,000 bytes, whose 2,560,000 bytes of answers go out in one write, far
        # more than a pipe holds: the reader goes away during it, and the write is not cut short unseen
        batch = tmp_path / "batch"
        batch.write_text("[99]\n" * 12800)
        argv, env = _seqcong("map", "--fn", "conjugate", "--input", "-", unbuffered=unbuffered)
        with batch.open("rb") as stdin, subprocess.Popen(argv, stdin=stdin, stdout=subprocess.PIPE,
                                                         stderr=subprocess.PIPE, env=env) as proc:
            assert proc.stdout.readline() == b"[" + b"1," * 98 + b"1]\n"
            proc.stdout.close()
            err = proc.stderr.read()
            assert proc.wait(timeout=60) == 1
        assert err == b"error: [Errno 32] Broken pipe\n"

    @pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
    def test_many_large_answers_within_memory(self, unbuffered):
        # 60 answers of 2,000,000 characters each (4,000,000 bytes) from one 600-byte read: held
        # until the read was done, they took 480 MB as text and ended in MemoryError under this limit
        resource = pytest.importorskip("resource")
        limit = 400_000 * 1024
        argv, env = _seqcong("diagram", "--input", "-", unbuffered=unbuffered)
        with subprocess.Popen(argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
                              preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit))) as proc:
            proc.stdin.write(b"[1000000]\n" * 60)
            proc.stdin.close()
            first = proc.stdout.read(8)
            size, lines = len(first), 0
            while piece := proc.stdout.read1(1 << 20):
                size, lines = size + len(piece), lines + piece.count(b"\n")
            err = proc.stderr.read()
            assert proc.wait(timeout=60) == 0
        assert (first, size, lines, err) == ("\u25a0 \u25a0 ".encode(), 60 * 4_000_000, 60, b"")

    def test_full_non_blocking_stdout(self):
        # an unbuffered write to a full non-blocking pipe returns no count: it fails, where it spun
        argv, env = _seqcong("map", "--fn", "conjugate", "--input", "[200000]", unbuffered=True)
        read_end, write_end = os.pipe()
        try:
            os.set_blocking(write_end, False)
            done = subprocess.run(argv, stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=60)
        finally:
            os.close(read_end)
            os.close(write_end)
        want = f"error: [Errno {errno.EAGAIN}] {os.strerror(errno.EAGAIN)}\n".encode()
        assert (done.returncode, done.stderr) == (1, want)

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
    def test_full_device(self, unbuffered):
        argv, env = _seqcong("map", "--fn", "pi", "--input", "[3,2]", unbuffered=unbuffered)
        with open("/dev/full", "wb") as full:
            done = subprocess.run(argv, stdout=full, stderr=subprocess.PIPE, env=env, timeout=60)
        assert (done.returncode, done.stderr) == (1, b"error: [Errno 28] No space left on device\n")

    @pytest.mark.parametrize("argv", [
        ("sigmaAB", "--A", "pow:10000000000", "--input", "[1,1]"),
        ("piAB", "--B", "pow:10000000000", "--input", "[2,1]"),
        ("piPrimeAB", "--A", "pow:10000000000", "--input", "[2,1]"),
        ("sigmaPrimeAB", "--A", "pow:10000000000", "--input", "[1,1]"),
    ], ids=["sigmaAB", "piAB", "piPrimeAB", "sigmaPrimeAB"])
    def test_huge_power_term_refused_unbuilt(self, argv):
        # term 2 of pow:10**10 would take 1.25 GB; it used to end in MemoryError under this limit.
        # Encoding [1,1] compares the widths' bits with the drop's before it would build the term.
        resource = pytest.importorskip("resource")
        limit = 400_000 * 1024
        cmd, env = _seqcong("gmap", "--fn", *argv)
        done = subprocess.run(cmd, capture_output=True, env=env, timeout=60,
                              preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)))
        want = (b"drop 1 at height 2 is not a multiple of width 2**10000000000" if argv[-1] == "[1,1]"
                else b"term 2 of pow:10000000000 exceeds the 64-bit part range")
        assert (done.returncode, done.stdout, done.stderr) == (1, b"", b"error: " + want + b"\n")

    @pytest.mark.parametrize("fn", ["sigmaAB", "sigmaPrimeAB"])
    def test_power_width_past_the_part_range_names_the_drop(self, fn):
        # a_16 = 16**20 passes the 64-bit part range: the encoding of 16 ones, a non-member, failed
        # asking for it, while gcheck answered false from the widths' bits
        ones = "[" + ",".join(["1"] * 16) + "]"
        assert cli_ok("gcheck", "--A", "pow:20", "--input", ones) == "false\n"
        cmd, env = _seqcong("gmap", "--fn", fn, "--A", "pow:20", "--input", ones)
        done = subprocess.run(cmd, capture_output=True, env=env, timeout=60)
        assert (done.returncode, done.stdout, done.stderr) == (
            1, b"", b"error: drop 1 at height 16 is not a multiple of width 16**20\n")


class TestCountCellLimit:
    def test_huge_count_refused_within_memory(self):
        # it ran until killed: the sum side names the cells it would need before it builds a row
        resource = pytest.importorskip("resource")
        limit = 400_000 * 1024
        cmd, env = _seqcong("count", "--pred", "D", "--upto", "100000")
        done = subprocess.run(cmd, capture_output=True, env=env, timeout=60,
                              preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)))
        assert (done.returncode, done.stdout, done.stderr) == (
            1, b"", b"error: counting D to size 100000 needs 29714750 (size, parts) cells, above 8388608\n")

    @staticmethod
    def _limited(*argv):
        resource = pytest.importorskip("resource")
        limit = 400_000 * 1024
        cmd, env = _seqcong("count", *argv)
        return subprocess.run(cmd, capture_output=True, env=env, timeout=60,
                              preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)))

    def test_sum_sides_reach_large_sizes_within_memory(self):
        # Adiff to 200 was walked until killed, and D and R to 2000 passed the class cells
        want = {"D": [1] + [0] * 2000, "Adiff": counting.member_counts(IdealSpec("Adiff"), 200),
                "R": CountSeries.from_degrees((k for k in range(1, 2001) if k % 5 in (1, 4)), 2000).coefficients}
        for k in range(1, 2001):  # Euler's prod (1 + q^k)
            for n in range(2000, k - 1, -1):
                want["D"][n] += want["D"][n - k]
        for tag, counts in want.items():
            done = self._limited("--pred", tag, "--upto", str(len(counts) - 1))
            assert (done.returncode, done.stderr) == (0, b"")
            assert [line.split() for line in done.stdout.decode().splitlines()] == [
                [str(n), str(c)] for n, c in enumerate(counts)]

    @pytest.mark.parametrize("tag,upto,need", [
        ("D", "249999", b"117601244 (size, parts) cells"),
        ("R", "249999", b"83208250 (size, parts) cells"),
        ("Adiff", "249999", b"21333200 (size, parts) cells"),
        ("D", "250000", b"250001 series cells"),
    ])
    def test_sum_side_refused_unbuilt(self, tag, upto, need):
        # series cells are bounded by MAX_COUNT_CELLS, (size, parts) cells by MAX_SIDE_CELLS
        done = self._limited("--pred", tag, "--upto", upto)
        bound = b"250000" if need.endswith(b"series cells") else b"8388608"
        assert (done.returncode, done.stdout, done.stderr) == (
            1, b"", b"error: counting " + tag.encode() + b" to size " + upto.encode() + b" needs " + need
            + b", above " + bound + b"\n")

    def test_huge_series_refused_within_memory(self):
        # it ran until killed: size N is asked first, and its series is refused before it is built
        resource = pytest.importorskip("resource")
        limit = 400_000 * 1024
        cmd, env = _seqcong("count", "--pred", "all", "--upto", "300000000")
        done = subprocess.run(cmd, capture_output=True, env=env, timeout=60,
                              preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)))
        assert (done.returncode, done.stdout, done.stderr) == (
            1, b"", b"error: counting to size 300000000 needs 300000001 series cells, above 250000\n")

    def test_huge_walked_count_refused_within_memory(self):
        # Adiff, with no summary to class its prefixes by, was walked until killed; its sum side is refused unbuilt
        resource = pytest.importorskip("resource")
        limit = 400_000 * 1024
        cmd, env = _seqcong("count", "--pred", "Adiff", "--upto", "1000000000000")
        done = subprocess.run(cmd, capture_output=True, env=env, timeout=60,
                              preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)))
        assert (done.returncode, done.stdout, done.stderr) == (1, b"", b"error: counting Adiff to size 1000000000000 "
                                                                b"needs 1000000000001 series cells, above 250000\n")


class TestEnumerateLimitStopsTheWalk:
    @pytest.mark.parametrize("pred,want", [
        ("all", b"[90]\n[89,1]\n[88,2]\n"),
        ("squares", b"[81,9]\n[81,4,4,1]\n[81,4,1,1,1,1,1]\n"),
        ("D", b"[90]\n[89,1]\n[88,2]\n"),
    ])
    def test_limit_within_memory(self, pred, want):
        # the listing of all p(90) = 56,634,173 partitions ended in MemoryError before it was cut to 3
        resource = pytest.importorskip("resource")
        limit = 400_000 * 1024
        cmd, env = _seqcong("enumerate", "--pred", pred, "--size", "90", "--limit", "3")
        done = subprocess.run(cmd, capture_output=True, env=env, timeout=60,
                              preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)))
        assert (done.returncode, done.stdout, done.stderr) == (0, want, b"")

    @pytest.mark.parametrize("pred", ["all", "squares"])
    def test_huge_size_within_memory(self, pred):
        # each node of the walk over all partitions listed all its children and first built its all-ones
        # completion, a tuple of 10**12 ones here, which ended in MemoryError; a squares walk that listed
        # the squares up to the root's rest held isqrt(n) of them, about 86 GB at 2**62
        resource = pytest.importorskip("resource")
        limit = 400_000 * 1024
        for size in (10**12, 10**14, 2**62):
            cmd, env = _seqcong("enumerate", "--pred", pred, "--size", str(size), "--limit", "1")
            done = subprocess.run(cmd, capture_output=True, env=env, timeout=60,
                                  preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)))
            assert (done.returncode, done.stdout, done.stderr) == (0, f"[{size}]\n".encode(), b""), size

    def test_squares_of_a_huge_non_square_within_memory(self):
        # squares filtered every partition, so at 10**7, no square, it ran without bound; the walk
        # steps through the squares up to each prefix's last part and reaches its first answer at once
        resource = pytest.importorskip("resource")
        limit = 400_000 * 1024
        cmd, env = _seqcong("enumerate", "--pred", "squares", "--size", "10000000", "--limit", "1")
        done = subprocess.run(cmd, capture_output=True, env=env, timeout=60,
                              preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)))
        assert (done.returncode, done.stdout, done.stderr) == (0, b"[9998244,1681,64,9,1,1]\n", b"")

    def test_squares_listed_as_the_filter_lists_them(self, capsys):
        for n in range(41):
            want = "".join(f"[{','.join(map(str, t))}]\n" for t in recursive_partition_tuples(n)
                           if all(isqrt(x) ** 2 == x for x in t))
            assert cli_ok("enumerate", "--pred", "squares", "--size", str(n)) == want, n
        for size, limit, want in (("-1", "1", (1, "", "error: n must be nonnegative\n")),
                                  (str(2**63), "1", (1, "", f"error: part {2**63} exceeds the 64-bit part range\n")),
                                  (str(2**63), "0", (0, "", ""))):
            got = cli("enumerate", "--pred", "squares", "--size", size, "--limit", limit)
            assert (*got, capsys.readouterr().err) == want

    def test_walked_kind_of_a_huge_size_within_memory(self):
        # Adiff's size walk holds one lazy range per part; listing the root's
        # children of 10**8 at once ended in MemoryError
        resource = pytest.importorskip("resource")
        limit = 400_000 * 1024
        cmd, env = _seqcong("enumerate", "--pred", "Adiff", "--size", "100000000", "--limit", "2")
        done = subprocess.run(cmd, capture_output=True, env=env, timeout=60,
                              preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)))
        assert (done.returncode, done.stdout, done.stderr) == (0, b"[100000000]\n[99999999,1]\n", b"")

    @pytest.mark.parametrize("largest,limit_k,want", [
        ("500", "3", (0, b"[500,500,", 3, b"")),
        ("20000000", "1", (1, b"", 0, b"error: the answer would have 20000000 parts, above the limit of 10000000\n")),
    ])
    def test_largest_limit_within_memory(self, largest, limit_k, want):
        # the listing sorted the pi images of all p(500) partitions of 500 before it was cut to 3
        resource = pytest.importorskip("resource")
        limit = 400_000 * 1024
        cmd, env = _seqcong("enumerate", "--pred", "seqcong", "--largest", largest, "--limit", limit_k)
        done = subprocess.run(cmd, capture_output=True, env=env, timeout=60,
                              preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)))
        assert (done.returncode, done.stdout[:9], done.stdout.count(b"\n"), done.stderr) == want

    def test_largest_limit_lists_the_first_members(self):
        lines = cli_ok("enumerate", "--pred", "seqcong", "--largest", "500", "--limit", "3").splitlines()
        assert [json.loads(line) for line in lines] == [[500] * 500, [500] * 250, [500] * 249 + [251, 251]]

    def test_negative_limit_drops_the_last_answers(self):
        lines = cli_ok("enumerate", "--pred", "all", "--size", "6", "--limit", "-2").splitlines()
        assert lines == [str(list(p.parts)).replace(" ", "") for p in counting.enumerate_partitions(6)[:-2]]
        lines = cli_ok("enumerate", "--pred", "seqcong", "--largest", "6", "--limit", "-2").splitlines()
        assert lines == [str(list(p.parts)).replace(" ", "") for p in counting.enumerate_seqcong_by_largest(6)[:-2]]


class CountingWriter(io.StringIO):
    def __init__(self):
        super().__init__()
        self.writes = 0

    def write(self, text):
        self.writes += 1
        return super().write(text)


class TestOneWritePerAnswer:
    def test_batch(self, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("[12,8,4,3,3]\n[1,1,1]\n\n[2]\n"))
        out = CountingWriter()
        assert run(["map", "--fn", "pi", "--input", "-"], out=out) == 0
        assert out.getvalue() == "[30,26,18,15,15]\n[3,3,3]\n[2]\n"
        assert out.writes == 1  # an in-memory stdin is one read, whose answers go out in one write

    def test_listing(self):
        out = CountingWriter()
        assert run(["enumerate", "--pred", "seqcong", "--size", "12", "--limit", "3"], out=out) == 0
        assert out.writes == 3 == len(out.getvalue().splitlines())

    def test_error_lines(self, monkeypatch):
        # print wrote each message and its newline apart: two writes per line on an unbuffered stderr
        err = CountingWriter()
        monkeypatch.setattr("sys.stderr", err)
        monkeypatch.setattr("sys.stdin", io.StringIO("[1,2]\n[3]\n[2,5]\nx\n"))
        assert run(["map", "--fn", "pi", "--input", "-"], out=io.StringIO()) == 1
        assert err.getvalue() == ("error: line 1: parts must be weakly decreasing, got (1, 2)\n"
                                  "error: line 3: parts must be weakly decreasing, got (2, 5)\n"
                                  "error: line 4: input is not valid JSON: Expecting value: line 1 column 1 (char 0)\n")
        assert err.writes == 3
        err = CountingWriter()
        monkeypatch.setattr("sys.stderr", err)
        assert run(["map", "--fn", "pi", "--input", "[1,2]"], out=io.StringIO()) == 1
        assert (err.getvalue(), err.writes) == ("error: parts must be weakly decreasing, got (1, 2)\n", 1)


def _oracle_batch(answer, write) -> int:
    """The batch loop before stdin was read in chunks: one line of ``sys.stdin`` and one write at a time."""
    code, count, held = 0, 0, None
    for number, line in enumerate(sys.stdin, 1):
        line = line.strip()
        if not line:
            continue
        count += 1
        if held is not None:
            cli_module._error(f"line {held[0]}: {held[1]}")
            held = None
        try:
            reply = answer(cli_module._load_input(line))
        except (ValueError, OverflowError) as exc:
            code = 1
            if count == 1:
                held = (number, exc)
            else:
                cli_module._error(f"line {number}: {exc}")
            continue
        write(reply + "\n")
    if held is not None:
        cli_module._error(held[1])
    return code


class ChunkedStdin:
    """A stdin whose byte buffer's ``read1`` returns the given chunks in turn, then b""."""

    encoding, errors = "utf-8", "strict"

    def __init__(self, chunks, log):
        self.buffer, self._chunks, self._log = self, list(chunks), log

    def read1(self, size):
        self._log.append(("read", None))
        return self._chunks.pop(0) if self._chunks else b""


class LogWriter:
    """A stream that logs each write under its kind, beside the text both streams share."""

    def __init__(self, kind, log, merged):
        self.kind, self._log, self._merged = kind, log, merged

    def write(self, text):
        self._log.append((self.kind, text))
        return self._merged.write(text)


def _batch_events(monkeypatch, stdin, argv, batch=None):
    """Exit code, merged stdout/stderr text and the log of reads and writes of one batch run."""
    log, merged = [], io.StringIO()
    if batch is not None:
        monkeypatch.setattr(cli_module, "_run_batch", batch)
    monkeypatch.setattr("sys.stdin", stdin(log) if callable(stdin) else stdin)
    monkeypatch.setattr("sys.stderr", LogWriter("err", log, merged))
    code = run([*argv, "--input", "-"], out=LogWriter("out", log, merged))
    monkeypatch.undo()
    return code, merged.getvalue(), log


def _line_ends(chunks):
    """For each line of the joined chunks, the index of the read that completes it (the last: end of input)."""
    ends, read = [], 0
    for read, chunk in enumerate(chunks):
        ends += [read] * chunk.count(b"\n")
    if not b"".join(chunks).endswith(b"\n") and any(chunks):
        ends.append(len(chunks))
    return ends


class TestBatchReads:
    """A batch answers the lines each read completes with one write, as the line-at-a-time loop answered them."""

    CASES = {
        "line cut": [b"[3,2]\n[4,", b"4]\n[1]\n"],
        "character cut": [b"[3,2]\xc2", b"\xa0\n[1]\xe2\x80", b"\x83\n[\"\xc3", b"\xa9\"]\n[2]\n"],
        "crlf": [b"[3,2]\r\n[1]\r", b"\n[2,2]\r\n"],
        "lone cr": [b"[3,2]\r[1]\n[2]\n[4]\r\n"],
        "blank lines": [b"\n\n[3,2]\n", b"\n  \n[x\n[1]\n", b"\n"],
        "no final newline": [b"[3,2]\n[1", b"]"],
        "errors between answers": [b"[3,2]\n[x\n[1]\n[2]\n[y\n[2,2]\n"],
        "one-line batch": [b"\n[x", b"\n\n"],
        "byte at a time": [bytes([c]) for c in b"[3,2]\n\n[\xc3\xa9]\n[1]\r\n[2"],
        "empty": [],
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_matches_the_line_loop(self, monkeypatch, name):
        chunks = self.CASES[name]
        argv = ("map", "--fn", "pi")
        code, merged, log = _batch_events(monkeypatch, lambda log: ChunkedStdin(chunks, log), argv)
        text = b"".join(chunks).decode("utf-8")
        want = _batch_events(monkeypatch, io.StringIO(text), argv, batch=_oracle_batch)
        assert (code, merged) == want[:2]

        # No answer waits for a later read, and one read's answers go out in one write,
        # split only where an error line falls between them.
        errors = [line for line in merged.splitlines() if line.startswith("error: ")]
        failed = {int(e.split()[2][:-1]) for e in errors if e.startswith("error: line ")}
        lines = text.split("\n")
        if lines[-1] == "":
            lines.pop()
        if errors and not failed:  # a one-line batch, whose only line failed
            failed = {n for n, line in enumerate(lines, 1) if line.strip()}
        ends = _line_ends(chunks)
        answered = [ends[n - 1] for n, line in enumerate(lines, 1) if line.strip() and n not in failed]
        kinds, written = [kind for kind, _ in log], 0
        for at, (kind, out) in enumerate(log):
            if kind == "read":
                assert written == sum(end < kinds[:at].count("read") for end in answered), at
            elif kind == "out":
                assert kinds[at - 1] != "out", at
                written += out.count("\n")
        assert written == len(answered)

    def test_answers_past_the_write_size_go_out_at_once(self, monkeypatch):
        monkeypatch.setattr(cli_module, "_WRITE_SIZE", 12)
        code, merged, log = _batch_events(monkeypatch, lambda log: ChunkedStdin([b"[1]\n[2]\n[3]\n[4]\n[5]\n"], log),
                                          ("map", "--fn", "pi"))
        assert (code, merged) == (0, "[1]\n[2]\n[3]\n[4]\n[5]\n")
        assert log == [("read", None), ("out", "[1]\n[2]\n[3]\n[4]\n"), ("out", "[5]\n"), ("read", None)]

    def test_uncaught_exception_writes_the_answers_before_it(self, monkeypatch):
        def answer(payload):
            if payload == [9]:
                raise KeyboardInterrupt
            return cli_module._dumps(payload)

        monkeypatch.setattr("sys.stdin", io.StringIO("[1]\n[2]\n[9]\n[3]\n"))
        out = CountingWriter()
        with pytest.raises(KeyboardInterrupt):
            cli_module._run_batch(answer, out.write)
        assert (out.getvalue(), out.writes) == ("[1]\n[2]\n", 1)

    def test_file_stdin_fails_decoding_at_the_same_line(self, monkeypatch):
        # a byte the encoding refuses at 84,001, in the third 8 KiB piece of the second 64 KiB read:
        # the 13,653 lines that end before that piece (at 81,920) are answered, as sys.stdin's own
        # 8 KiB reads answered them, and the error names the byte's place in the piece
        good = "".join(f"[{3 + i % 5},2]\n" for i in range(14000)).encode()
        data = good + b"[\xff]\n" + good

        def stdin(log=None):
            return io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", errors="strict", newline="\n")

        argv = ("map", "--fn", "sigma")
        got = _batch_events(monkeypatch, stdin, argv)
        want = _batch_events(monkeypatch, stdin(), argv, batch=_oracle_batch)
        assert got[:2] == want[:2]
        assert got[0] == 1 and got[1].count("\n") == 13653 + 1 and "in position 2081:" in got[1]

    def test_stdin_that_is_a_file_matches_the_line_loop(self, monkeypatch):
        data = "".join(f"[{3 + i % 5},{1 + i % 2}]\n" for i in range(30000)).encode() + b"[x]\n[4]"

        def stdin(log=None):
            return io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", errors="strict", newline="\n")

        argv = ("map", "--fn", "pi")
        got = _batch_events(monkeypatch, stdin, argv)
        assert got[:2] == _batch_events(monkeypatch, stdin(), argv, batch=_oracle_batch)[:2]
        # 180,007 bytes: three reads of up to 64 KiB, the third one's answers ending at [x];
        # [4], which has no newline, is completed by the end of input
        assert got[0] == 1 and sum(kind == "out" for kind, _ in got[2]) == 4


def _read_line(fd, timeout):
    """One line from a pipe, or whatever came before the timeout."""
    import select
    got = b""
    while not got.endswith(b"\n") and select.select([fd], [], [], timeout)[0]:
        piece = os.read(fd, 4096)
        if not piece:
            break
        got += piece
    return got


class TestBatchProcess:
    """A batch in its own process: answers as lines arrive, errors in their place, decoding as stdin does."""

    def test_each_answer_comes_before_the_next_line(self):
        argv, env = _seqcong("map", "--fn", "pi", "--input", "-", unbuffered=True)
        with subprocess.Popen(argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env, bufsize=0) as proc:
            for c in range(1, 21):
                p = from_c_notation(CNotation([c % 3, 1]))
                proc.stdin.write(json.dumps(list(p.parts)).encode() + b"\n")
                want = json.dumps(list(bijections.pi_map(p).parts), separators=(",", ":")).encode() + b"\n"
                assert _read_line(proc.stdout.fileno(), 30) == want, f"line {c}"
            proc.stdin.close()
            assert proc.wait(timeout=60) == 0

    def test_error_lines_sit_between_the_answers(self):
        argv, env = _seqcong("map", "--fn", "sigma", "--input", "-", unbuffered=True)
        stdin = "[2]\n[3,1]\n\n[4,2]\n[x\n[2,2]\n[6,4,2]\n[1]\n"
        done = subprocess.run(argv, input=stdin, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
                              env=env, timeout=60)
        assert done.returncode == 1
        assert done.stdout == (
            "[1,1]\n"
            "error: line 2: not sequentially congruent: congruence fails at index 2\n"
            "[2,1,1]\n"
            "error: line 5: input is not valid JSON: Expecting value: line 1 column 2 (char 1)\n"
            "[2]\n"
            "error: line 7: not sequentially congruent: congruence fails at index 3\n"
            "[1]\n")

    @pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
    def test_unencodable_answer_fails_at_its_line(self, unbuffered):
        # an ASCII stdout takes "(empty)" and refuses the first glyph, at the position within its own line
        argv, env = _seqcong("diagram", "--squares", "--input", "-", unbuffered=unbuffered)
        env["PYTHONIOENCODING"] = "ascii:strict"
        done = subprocess.run(argv, input=b"[]\n[3,2]\n[1]\n", capture_output=True, env=env, timeout=60)
        assert (done.returncode, done.stdout) == (1, b"(empty)\n")
        assert done.stderr == (b"error: 'ascii' codec can't encode characters in position 0-1:"
                               b" ordinal not in range(128)\n")

    def test_undecodable_line_under_strict_utf8(self):
        argv, env = _seqcong("map", "--fn", "pi", "--input", "-", unbuffered=True)
        env["PYTHONIOENCODING"] = "utf-8:strict"
        done = subprocess.run(argv, input=b"[3,2]\n[\xff]\n", capture_output=True, env=env, timeout=60)
        assert (done.returncode, done.stdout) == (1, b"")
        assert done.stderr == b"error: 'utf-8' codec can't decode byte 0xff in position 7: invalid start byte\n"


# Sequence rules for --A/--B, valid and not.
_RULES = st.sampled_from(["nat", "pow:2", "pow:0", "arith:3", "2,5,9", "3,1", "pow:x", "pow:-1"])
_SMALL = st.one_of(st.none(), st.integers(-2, 5))


def _gmap_argv(fn):
    return st.tuples(_RULES, _RULES, _SMALL, _SMALL, _SMALL).map(
        lambda a: ["gmap", "--fn", fn, "--A", a[0], "--B", a[1]] + [
            tok for flag, v in zip(("--k", "--p", "--q"), a[2:]) if v is not None for tok in (flag, str(v))])


# batch command -> its argv before --input
_COMMANDS = {
    **{f"map {fn}": st.just(["map", "--fn", fn])
       for fn in ("pi", "sigma", "pisigma", "psi", "psi-inv", "conjugate")},
    **{f"convert {to}": st.just(["convert", "--to", to]) for to in ("standard", "frequency", "cnotation")},
    "check": st.just(["check", "--pred", "seqcong"]),
    "diagram": st.just(["diagram"]),
    "diagram squares": st.just(["diagram", "--squares"]),
    "gcheck": st.tuples(_RULES, _RULES).map(lambda ab: ["gcheck", "--A", ab[0], "--B", ab[1]]),
    **{f"gmap {fn}": _gmap_argv(fn)
       for fn in ("sigmaAB", "piAB", "piPrimeAB", "sigmaPrimeAB", "sigmak", "psik", "eta", "tau")},
    "usage errors": st.lists(st.sampled_from(["map", "gmap", "--fn", "pi", "--k", "x", "--input"]), max_size=3),
}
# Small values, or values past the output limit: answers up to the limit are
# legal but slow to build, and would only slow the property down.
_INT = st.one_of(st.integers(-2, 70), st.integers(2**40, 2**66))
_CVEC = st.lists(st.one_of(st.integers(0, 3), st.integers(2**40, 2**41)), max_size=5).map(lambda c: c + [1])
_PAYLOAD = st.one_of(
    st.lists(_INT, max_size=8).map(lambda xs: sorted(xs, reverse=True)),
    st.lists(st.one_of(st.integers(1, 12), st.integers(10**7, 2**31)), max_size=6).map(
        lambda xs: sorted((x * x for x in xs), reverse=True)),
    _CVEC.map(lambda c: list(from_c_notation(CNotation(c)).parts)),
    _CVEC.map(lambda c: {"c": c}),
    st.lists(st.tuples(_INT, _INT).map(list), max_size=3).map(lambda pairs: {"freq": pairs}),
    st.recursive(st.none() | st.booleans() | st.floats() | _INT | st.text(max_size=3),
                 lambda inner: st.lists(inner, max_size=3)
                 | st.dictionaries(st.sampled_from(["c", "freq", "x"]), inner, max_size=2),
                 max_leaves=6),
)
_TEXT = st.one_of(_PAYLOAD.map(json.dumps), st.text(max_size=8))


class TestFuzz:
    """Batch commands on generated argv and JSON answer or exit 1 or 2; nothing else escapes."""

    @pytest.mark.parametrize("name", sorted(_COMMANDS))
    @settings(max_examples=12, deadline=None)
    @given(data=st.data(), fmt=st.booleans(), texts=st.lists(_TEXT, min_size=1, max_size=3),
           via_stdin=st.booleans())
    def test_exit_codes(self, name, data, fmt, texts, via_stdin):
        argv = data.draw(_COMMANDS[name])
        full = (["--format", "json"] if fmt else []) + argv
        if via_stdin:
            full += ["--input", "-"]
        else:
            full += ["--input", texts[0]]
        stdin = sys.stdin
        sys.stdin = io.StringIO("\n".join(texts) + "\n")
        try:
            with contextlib.redirect_stderr(io.StringIO()):
                code = run(full, out=io.StringIO())
        except SystemExit as exc:
            code = exc.code
        finally:
            sys.stdin = stdin
        assert code in (0, 1, 2)
