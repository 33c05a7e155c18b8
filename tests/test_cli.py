import contextlib
import io
import json
import sys
from math import isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqcong import CNotation, CountSeries, IdealSpec, Partition, counting, from_c_notation, is_seq_congruent
from seqcong.cli import run

from conftest import recursive_partition_tuples


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
        # the tall column (height 200, position 100 of arith:2) is tried before
        # the height-1 column that alone would answer false
        parts = "[2" + ",1" * 199 + "]"
        assert cli("gcheck", "--B", "arith:2", "--input", parts) == (1, "")
        assert capsys.readouterr().err == "error: value 200 sits at position 100, beyond the horizon 64\n"

    def test_gcheck_huge_part(self):
        assert cli_ok("gcheck", "--input", "[1000000000000]") == "true\n"

    def test_horizon_env(self, monkeypatch):
        monkeypatch.setenv("SEQCONG_HORIZON", "2")
        code, _ = cli("gcheck", "--input", "[3,1,1]")  # needs index 3 of B
        assert code == 1
        monkeypatch.setenv("SEQCONG_HORIZON", "64")
        assert cli_ok("gcheck", "--input", "[3,1,1]") == "false\n"


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
        # Each size past the cached length extends the k = 1 series; only the
        # first request builds it.
        monkeypatch.setattr(counting, "_series_cache", {})
        want = [f"{n:>4} {c}" for n, c in enumerate(CountSeries.from_degrees(range(1, 1001), 1000).coefficients)]
        builds = []
        build = CountSeries.from_degrees.__func__

        def spy(cls, degrees, upto):
            builds.append(upto)
            return build(cls, degrees, upto)

        monkeypatch.setattr(CountSeries, "from_degrees", classmethod(spy))
        assert cli_ok("count", "--pred", "all", "--upto", "1000").splitlines() == want
        assert builds == [0]

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
        walked = []
        walk = counting.iter_members_of_size

        def spy(spec, n):
            walked.append(str(spec))
            return walk(spec, n)

        monkeypatch.setattr(counting, "iter_members_of_size", spy)
        for tag in ("R", "SA_maxlen:2", "S"):
            cli_ok("count", "--pred", tag, "--upto", "3")
            cli_ok("enumerate", "--pred", tag, "--size", "3")
        assert walked == ["R"] * 5 + ["SA_maxlen:2"] * 5


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


class TestOutputSizeGuard:
    """Answers past MAX_OUTPUT_PARTS exit 1 at once with the ResourceError message."""

    @pytest.mark.parametrize("argv", [
        ("map", "--fn", "sigma", "--input", "[1000000000000]"),
        ("map", "--fn", "conjugate", "--input", "[1000000000000]"),
        ("convert", "--to", "standard", "--input", '{"freq":[[1,1000000000000]]}'),
    ], ids=["sigma", "conjugate", "freq"])
    def test_refused(self, capsys, argv):
        assert cli(*argv) == (1, "")
        assert capsys.readouterr().err == (
            "error: the answer would have 1000000000000 parts, above the limit of 10000000\n")


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
        assert out.writes == 3

    def test_listing(self):
        out = CountingWriter()
        assert run(["enumerate", "--pred", "seqcong", "--size", "12", "--limit", "3"], out=out) == 0
        assert out.writes == 3 == len(out.getvalue().splitlines())


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
