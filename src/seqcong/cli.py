"""Command-line interface: every library operation as a deterministic subcommand.

Partitions travel as compact JSON arrays (``[7,5,5,4,1]``, empty ``[]``), both
on the command line and one-per-line on stdin when ``--input -`` is given.
A bad stdin line is reported on stderr as ``error: line N: ...`` and the
remaining lines are still answered (a one-line batch reports as ``--input``
does, without the line number).  Identical invocations produce
byte-identical output, one write per answer line.  Exit codes: 0 success,
1 domain error (on any line of a batch), 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import bijections, counting, generalized, ideals, partition
from .errors import DomainError, ResourceError
from .generalized import GenSpec, SequenceRule, horizon_from_env
from .ideals import AnalysisBound, IdealSpec
from .partition import FrequencyMap, Partition


# One encoder for the process: json.dumps with separators builds a new one per call.
_dumps = json.JSONEncoder(separators=(",", ":")).encode


def _parse_partition(payload) -> Partition:
    # JSON gives plain ints, so the exact type test also turns away bools
    if type(payload) is not list or not all(type(x) is int for x in payload):
        raise DomainError(f"a partition must be a JSON array of integers, got {payload!r}")
    return Partition(payload)


def _load_input(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise DomainError(f"input is not valid JSON: {exc}") from None
    except RecursionError:
        raise DomainError("input is nested too deeply") from None


def _partition_payload(p: Partition) -> list[int]:
    return list(p.parts)


# ---------------------------------------------------------------------------
# per-subcommand handlers; each returns a list of output lines
# ---------------------------------------------------------------------------

def _decode_any_form(payload) -> Partition:
    """Accept standard, frequency, or square-count JSON forms."""
    if isinstance(payload, list):
        return _parse_partition(payload)
    if isinstance(payload, dict) and "c" in payload:
        coeffs = payload["c"]
        if type(coeffs) is not list or not all(type(x) is int for x in coeffs):
            raise DomainError('the "c" form needs an array of integers')
        return bijections.from_c_notation(bijections.CNotation(coeffs))
    if isinstance(payload, dict) and "freq" in payload:
        pairs = payload["freq"]
        try:
            if all(type(x) is int for pair in pairs for x in pair):
                return partition.from_frequencies((a, b) for a, b in pairs)
        except ResourceError:
            raise
        except (TypeError, ValueError):
            pass
        raise DomainError('the "freq" form needs an array of [part, multiplicity] pairs')
    raise DomainError(f"cannot interpret {payload!r} as a partition")


def _run_convert(args, payload) -> str:
    p = _decode_any_form(payload)
    if args.to == "standard":
        return _dumps(_partition_payload(p))
    if args.to == "frequency":
        pairs = [[value, mult] for value, mult in FrequencyMap.from_partition(p).items()]
        return _dumps({"freq": pairs})
    c = bijections.to_c_notation(p)
    return _dumps({"c": list(c.coeffs)})


_MAP_FNS = {
    "pi": bijections.pi_map,
    "sigma": bijections.sigma_map,
    "pisigma": bijections.pi_sigma_closed_form,
    "psi": bijections.psi_map,
    "psi-inv": bijections.psi_inverse,
    "conjugate": partition.conjugate,
}


def _run_map(args, payload) -> str:
    p = _parse_partition(payload)
    return _dumps(_partition_payload(_MAP_FNS[args.fn](p)))


def _run_check(args, payload) -> str:
    p = _parse_partition(payload)
    if args.pred == "seqcong":
        return _dumps(bijections.is_seq_congruent(p))
    raise DomainError(f"unknown predicate {args.pred!r}")


def _run_diagram(args, payload) -> str:
    p = _parse_partition(payload)
    if args.squares:
        return bijections.render_square_decomposition(p)
    return partition.render_diagram(p)


def _genspec(args) -> GenSpec:
    return GenSpec.parse(args.A, args.B, horizon_from_env())


def _run_gcheck(args, payload) -> str:
    p = _parse_partition(payload)
    return _dumps(generalized.is_in_SBA(p, _genspec(args)))


def _run_gmap(args, payload) -> str:
    p = _parse_partition(payload)
    fn = args.fn
    horizon = horizon_from_env()
    if fn in ("sigmaAB", "piAB", "piPrimeAB", "sigmaPrimeAB"):
        spec = GenSpec.parse(args.A, args.B, horizon)
        if fn == "sigmaAB":
            return _dumps(_partition_payload(generalized.sigma_AB(generalized.n_encode(p, spec))))
        if fn == "piAB":
            n = generalized.pi_AB(p, spec)
            return _dumps({"n": list(n.coeffs), "A": str(spec.a), "B": str(spec.b),
                           "partition": _partition_payload(generalized.n_decode(n))})
        if fn == "piPrimeAB":
            return _dumps(_partition_payload(generalized.pi_prime_AB(p, spec)))
        return _dumps(_partition_payload(generalized.sigma_prime_AB(p, spec)))
    if args.k is None:
        raise DomainError(f"--fn {fn} needs --k")
    k = args.k
    if fn in ("sigmak", "psik"):
        spec = GenSpec(SequenceRule.powers(k), SequenceRule.parse(args.B), horizon)
        n = generalized.n_encode(p, spec)
        out = generalized.sigma_k(n) if fn == "sigmak" else generalized.psi_k(n)
        return _dumps(_partition_payload(out))
    if fn == "eta":
        if args.p is None:
            raise DomainError("--fn eta needs --p")
        spec = GenSpec(SequenceRule.powers(k), SequenceRule.parse(args.B), horizon)
        out = generalized.eta(generalized.n_encode(p, spec), k, args.p)
    else:  # tau
        if args.p is None or args.q is None:
            raise DomainError("--fn tau needs --p and --q")
        spec = GenSpec(SequenceRule.powers(k - args.p), SequenceRule.powers(args.p), horizon)
        out = generalized.tau(generalized.n_encode(p, spec), k, args.p, args.q)
    return _dumps({"n": list(out.coeffs), "A": str(out.spec.a), "B": str(out.spec.b),
                   "partition": _partition_payload(generalized.n_decode(out))})


def _square_parts(p: Partition) -> bool:
    return all(bijections._exact_sqrt(x) is not None for x in p.parts)


def _tag_param(tag: str) -> int:
    """The integer after the colon of a ``name:param`` predicate tag."""
    try:
        return int(tag.partition(":")[2])
    except ValueError:
        raise DomainError(f"bad predicate parameter in {tag!r}") from None


def _predicate_for(tag: str):
    if tag == "all":
        return lambda p: True
    if tag == "squares":
        return _square_parts
    if tag.startswith("Sk:"):
        k = _tag_param(tag)
        return lambda p: generalized.is_in_Sk(p, k)
    # The spec itself, not its bound `contains`, so that counting can see
    # `prefix_closed` and walk the members.
    return IdealSpec.parse(tag)


def _run_enumerate(args) -> list[str]:
    if (args.size is None) == (args.largest is None):
        raise DomainError("enumerate needs exactly one of --size or --largest")
    if args.largest is not None:
        if args.pred != "seqcong":
            raise DomainError("--largest enumeration is defined for --pred seqcong")
        found = counting.enumerate_seqcong_by_largest(args.largest)
    elif args.pred == "seqcong":
        found = counting.enumerate_seqcong_by_size(args.size)
    else:
        found = counting.enumerate_members(_predicate_for(args.pred), args.size)
    if args.limit is not None:
        found = found[: args.limit]
    return [_dumps(_partition_payload(p)) for p in found]


def _counts_for(tag: str, upto: int) -> list[int]:
    if tag == "all":
        return [counting.count_into_powers(n, 1) for n in range(upto + 1)]
    if tag in ("squares", "seqcong"):  # psi: members of size n <-> partitions of n into squares
        return [counting.count_into_powers(n, 2) for n in range(upto + 1)]
    if tag.startswith("powers:"):
        k = _tag_param(tag)
        return [counting.count_into_powers(n, k) for n in range(upto + 1)]
    if tag == "parity":
        return [ideals.count_parity_ideal(n) for n in range(upto + 1)]
    pred = _predicate_for(tag)
    return [counting.count_members(pred, n) for n in range(upto + 1)]


def _run_count(args) -> list[str]:
    coeffs = _counts_for(args.pred, args.upto)
    if args.format == "json":
        return [_dumps(coeffs)]
    width = len(str(args.upto))
    return [f"{n:>{width}} {c}" for n, c in enumerate(coeffs)]


def _bound(args) -> AnalysisBound:
    return AnalysisBound(args.max_part, args.max_len)


def _run_ideal(args) -> list[str]:
    spec = IdealSpec.parse(args.ideal)
    action = args.action
    as_json = args.format == "json"
    if action == "check":
        if args.input is None:
            raise DomainError("check needs --input")
        p = _parse_partition(_load_input(args.input))
        return [_dumps(ideals.is_member(spec, p))]
    if action == "decompose":
        if args.modulus is None or args.input is None:
            raise DomainError("decompose needs --modulus and --input")
        p = _parse_partition(_load_input(args.input))
        pieces = ideals.andrews_decompose(p, args.modulus)
        return [_dumps([_partition_payload(q) for q in pieces])]
    if action == "closure":
        report = ideals.check_ideal_closure(spec, _bound(args))
        if as_json:
            return [_dumps(report.to_json_dict())]
        if report.closed:
            return [f"{spec}: closed under part removal within bound "
                    f"({report.members_checked} members checked)"]
        return [f"{spec}: NOT closed: {report.witness} minus part {report.removed_part} "
                f"gives {report.after_removal}, a non-member"]
    if action in ("order", "weak-order"):
        fn = ideals.weak_order_estimate if action == "weak-order" else ideals.order_estimate
        report = fn(spec, _bound(args))
        if as_json:
            return [_dumps(report.to_json_dict())]
        name = "weak order" if report.weak else "order"
        if report.growing:
            return [f"{spec}: {name} grows with the bound (refuted up to width "
                    f"{report.refuted_up_to}; last witness {report.last_witness})"]
        return [f"{spec}: {name} {report.order} within bound"]
    if action == "modulus":
        if args.modulus is None:
            raise DomainError("modulus check needs --modulus")
        report = ideals.check_modulus(spec, args.modulus, _bound(args))
        if as_json:
            return [_dumps(report.to_json_dict())]
        if report.holds:
            return [f"{spec}: modulus {args.modulus} holds within bound"]
        return [f"{spec}: modulus {args.modulus} fails: {report.witness} ({report.direction})"]
    if action == "Lset":
        if args.modulus is None:
            raise DomainError("Lset needs --modulus")
        report = ideals.compute_L(spec, args.modulus, _bound(args))
        if as_json:
            return [_dumps(report.to_json_dict())]
        lines = [f"{spec}: {len(report.members)} members with parts <= {args.modulus}"
                 + (" (truncated at the length cap: likely infinite)" if report.truncated else "")]
        lines.extend(_dumps(_partition_payload(p)) for p in report.members)
        return lines
    if action == "link":
        if args.modulus is None:
            raise DomainError("link needs --modulus")
        report = ideals.infer_linking(spec, args.modulus, _bound(args), args.span_cap)
        if as_json:
            return [_dumps(report.to_json_dict())]
        lines = [f"{spec}: {report.verdict}"]
        if report.reason:
            lines.append(f"  reason: {report.reason}")
        if report.witness is not None:
            lines.append(f"  witness: {report.witness}")
        for entry in report.entries:
            if entry.found:
                shown = ", ".join(str(q) for q in entry.linking_set)
                lines.append(f"  {entry.element}: span {entry.span}, linking set {{{shown}}}")
            else:
                lines.append(f"  {entry.element}: no consistent span ({entry.reason})")
        return lines
    raise DomainError(f"unknown ideal action {action!r}")


# ---------------------------------------------------------------------------
# argument parsing and dispatch
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="seqcong",
        description="Sequentially congruent partitions: representations, bijections, and ideal analysis.",
    )
    parser.add_argument("--format", choices=("text", "json"), default="text")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_input(sp):
        sp.add_argument("--input", required=True,
                        help="partition as a JSON array, or '-' to read one per line from stdin")

    sp = sub.add_parser("convert", help="convert between partition representations")
    sp.add_argument("--to", choices=("standard", "frequency", "cnotation"), required=True)
    add_input(sp)

    sp = sub.add_parser("map", help="apply one of the core bijections")
    sp.add_argument("--fn", choices=sorted(_MAP_FNS), required=True)
    add_input(sp)

    sp = sub.add_parser("check", help="test a predicate")
    sp.add_argument("--pred", choices=("seqcong",), required=True)
    add_input(sp)

    sp = sub.add_parser("diagram", help="render the Young diagram")
    sp.add_argument("--squares", action="store_true", help="delimit the square tiling")
    add_input(sp)

    sp = sub.add_parser("gcheck", help="generalized membership over widths A and heights B")
    sp.add_argument("--A", default="nat", help="widths: nat | pow:k | arith:a | comma list")
    sp.add_argument("--B", default="nat", help="heights: nat | pow:k | arith:a | comma list")
    add_input(sp)

    sp = sub.add_parser("gmap", help="generalized bijections")
    sp.add_argument("--fn", required=True, choices=(
        "sigmaAB", "piAB", "piPrimeAB", "sigmaPrimeAB", "sigmak", "psik", "eta", "tau"))
    sp.add_argument("--A", default="nat")
    sp.add_argument("--B", default="nat")
    sp.add_argument("--k", type=int)
    sp.add_argument("--p", type=int)
    sp.add_argument("--q", type=int)
    add_input(sp)

    sp = sub.add_parser("enumerate", help="list partitions satisfying a predicate")
    sp.add_argument("--pred", required=True,
                    help="all | seqcong | squares | Sk:k | an ideal kind such as R or SA_maxlen:2")
    sp.add_argument("--size", type=int)
    sp.add_argument("--largest", type=int)
    sp.add_argument("--limit", type=int)

    sp = sub.add_parser("count", help="coefficient table of a counting sequence")
    sp.add_argument("--pred", required=True,
                    help="all | seqcong | squares | powers:k | parity | Sk:k | an ideal kind")
    sp.add_argument("--upto", type=int, required=True)

    sp = sub.add_parser("ideal", help="partition-ideal analyses")
    sp.add_argument("action", choices=(
        "check", "closure", "order", "weak-order", "modulus", "Lset", "decompose", "link"))
    sp.add_argument("--ideal", required=True, help="kind[:param], e.g. R or SA_maxlen:2")
    sp.add_argument("--input", help="partition (for check/decompose)")
    sp.add_argument("--modulus", type=int)
    sp.add_argument("--max-part", type=int, default=12)
    sp.add_argument("--max-len", type=int, default=6)
    sp.add_argument("--span-cap", type=int, default=4)
    return parser


_BATCHABLE = {
    "convert": _run_convert,
    "map": _run_map,
    "check": _run_check,
    "diagram": _run_diagram,
    "gcheck": _run_gcheck,
    "gmap": _run_gmap,
}


def _error(message) -> None:
    print(f"error: {message}", file=sys.stderr)


def _run_batch(handler, args, write) -> int:
    """Answer every non-blank stdin line; a bad line is reported and skipped.

    Each error names its line, unless the batch has no other non-blank line:
    a one-line batch reports as ``--input`` does.  So the first line's error
    waits for the next non-blank line, or for the end of input.
    """
    code, count, held = 0, 0, None
    for number, line in enumerate(sys.stdin, 1):
        line = line.strip()
        if not line:
            continue
        count += 1
        if held is not None:
            _error(f"line {held[0]}: {held[1]}")
            held = None
        try:
            answer = handler(args, _load_input(line))
        except (ValueError, OverflowError) as exc:
            code = 1
            if count == 1:
                held = (number, exc)
            else:
                _error(f"line {number}: {exc}")
            continue
        write(answer + "\n")
    if held is not None:
        _error(held[1])
    return code


def run(argv, out=None) -> int:
    write = (sys.stdout if out is None else out).write
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command in _BATCHABLE:
            handler = _BATCHABLE[args.command]
            if args.input == "-":
                return _run_batch(handler, args, write)
            lines = [handler(args, _load_input(args.input))]
        elif args.command == "enumerate":
            lines = _run_enumerate(args)
        elif args.command == "count":
            lines = _run_count(args)
        else:
            lines = _run_ideal(args)
        for line in lines:
            write(line + "\n")
        return 0
    except (ValueError, OverflowError) as exc:
        _error(exc)
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
