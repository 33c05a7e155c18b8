"""Command-line interface: every library operation as a deterministic subcommand.

Partitions travel as compact JSON arrays (``[7,5,5,4,1]``, empty ``[]``), both
on the command line and one-per-line on stdin when ``--input -`` is given.
A bad stdin line is reported on stderr as ``error: line N: ...`` and the
remaining lines are still answered (a one-line batch reports as ``--input``
does, without the line number).  Identical invocations produce
byte-identical output.  A batch writes the answers to the lines each read
of stdin completes with one write, before it reads again (and at once when
they pass 64 Ki characters); the other commands write one line at a time.
Exit codes: 0 success, 1 domain error (on any line of a batch) or an output
that cannot be written (a closed pipe, a full disk), 2 usage error.

Each command imports only the modules it runs: ``generalized`` for
``gcheck``/``gmap``, ``counting`` and ``ideals`` for ``enumerate``,
``count`` and ``ideal``.  :func:`main` freezes the start-up heap before the
command runs; see there for why.
"""

from __future__ import annotations

import argparse
import codecs
import errno
import gc
import io
import json
import os
import sys
from functools import partial

from . import bijections, partition
from .errors import DomainError, ResourceError
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
# per-subcommand handlers: convert, map, check and diagram (and the gmap and gcheck answers) turn one
# input into one output line; enumerate, count and ideal return a list of output lines
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


def _gcheck_answer(args):
    from . import generalized
    spec = generalized.GenSpec.parse(args.A, args.B)
    return lambda payload: _dumps(generalized.is_in_SBA(_parse_partition(payload), spec))


def _gmap_answer(args):
    from . import generalized
    from .generalized import GenSpec, SequenceRule
    fn = args.fn
    if fn in ("sigmaAB", "piAB", "piPrimeAB", "sigmaPrimeAB"):
        spec = GenSpec.parse(args.A, args.B)
    elif args.k is None:
        raise DomainError(f"--fn {fn} needs --k")
    elif fn == "tau":
        if args.p is None or args.q is None:
            raise DomainError("--fn tau needs --p and --q")
        spec = GenSpec(SequenceRule.powers(args.k - args.p), SequenceRule.powers(args.p))
    else:
        if fn == "eta" and args.p is None:
            raise DomainError("--fn eta needs --p")
        spec = GenSpec(SequenceRule.powers(args.k), SequenceRule.parse(args.B))

    def answer(payload):
        p = _parse_partition(payload)
        if fn == "sigmaAB":
            return _dumps(_partition_payload(generalized.sigma_AB(generalized.n_encode(p, spec))))
        if fn == "piAB":
            n = generalized.pi_AB(p, spec)
            return _dumps({"n": list(n.coeffs), "A": str(spec.a), "B": str(spec.b),
                           "partition": _partition_payload(generalized.n_decode(n))})
        if fn == "piPrimeAB":
            return _dumps(_partition_payload(generalized.pi_prime_AB(p, spec)))
        if fn == "sigmaPrimeAB":
            return _dumps(_partition_payload(generalized.sigma_prime_AB(p, spec)))
        n = generalized.n_encode(p, spec)
        if fn in ("sigmak", "psik"):
            out = generalized.sigma_k(n) if fn == "sigmak" else generalized.psi_k(n)
            return _dumps(_partition_payload(out))
        if fn == "eta":
            out = generalized.eta(n, args.k, args.p)
        else:
            out = generalized.tau(n, args.k, args.p, args.q)
        return _dumps({"n": list(out.coeffs), "A": str(out.spec.a), "B": str(out.spec.b),
                       "partition": _partition_payload(generalized.n_decode(out))})
    return answer


def _tag_param(tag: str) -> int:
    """The integer after the colon of a ``name:param`` predicate tag."""
    try:
        return int(tag.partition(":")[2])
    except ValueError:
        raise DomainError(f"bad predicate parameter in {tag!r}") from None


def _predicate_for(tag: str):
    if tag == "seqcong":  # counted by the squares and listed through psi, as S is
        return bijections.is_seq_congruent
    if tag == "all":
        return lambda p: True
    if tag.startswith("Sk:"):
        from .generalized import is_in_Sk
        k = _tag_param(tag)
        return lambda p: is_in_Sk(p, k)
    from .kinds import IdealSpec
    # The spec itself, not its bound `contains`, so that counting reads its count series and listing walks it.
    return IdealSpec.parse("P_parity" if tag == "parity" else tag)


def _run_enumerate(args) -> list[str]:
    from itertools import islice
    from . import counting
    if (args.size is None) == (args.largest is None):
        raise DomainError("enumerate needs exactly one of --size or --largest")
    if args.largest is not None:
        if args.pred != "seqcong":
            raise DomainError("--largest enumeration is defined for --pred seqcong")
        found = counting._seqcong_largest(args.largest)  # a walk: --limit stops it after that many answers
    elif args.pred == "squares":  # walked over the squares up to each prefix's last part, as a filter lists them
        found = counting._square_partitions(args.size)
    else:  # a walk, S's listing through psi or a filter; --limit stops a walk or a filter as well
        found = counting._members(_predicate_for(args.pred), args.size)
    if args.limit is not None:
        found = islice(found, args.limit) if args.limit >= 0 else list(found)[: args.limit]
    return [_dumps(_partition_payload(p)) for p in found]


def _counts_for(tag: str, upto: int) -> list[int]:
    from . import counting
    if tag.startswith("Sk:"):  # psi_k: S_k's members of size n <-> partitions of n into (k+1)-th powers
        k = _tag_param(tag) + 1
        if k < 2 and upto >= 0:
            raise DomainError("k must be a positive integer")
    elif tag.startswith("powers:"):
        k = _tag_param(tag)
    else:
        k = {"all": 1, "squares": 2}.get(tag)
    if k is None:
        return counting.member_counts(_predicate_for(tag), upto)
    count = partial(counting.count_into_powers, k=k)
    if upto > 0:  # size N first: it builds the series once, or refuses it before any smaller size runs
        count(upto)
    return [count(n) for n in range(upto + 1)]


def _run_count(args) -> list[str]:
    coeffs = _counts_for(args.pred, args.upto)
    if args.format == "json":
        return [_dumps(coeffs)]
    width = len(str(args.upto))
    return [f"{n:>{width}} {c}" for n, c in enumerate(coeffs)]


def _bound(args):
    from .ideals import AnalysisBound
    return AnalysisBound(args.max_part, args.max_len)


def _run_ideal(args) -> list[str]:
    from . import ideals
    spec = ideals.IdealSpec.parse(args.ideal)
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


def _each_line(handler):
    return lambda args: partial(handler, args)


# command -> setup(args) -> answer(payload).  The setup runs once per process,
# so an argument error (bad --A or --B, a missing --k, --p or --q) is reported
# once, without a line number.
_BATCHABLE = {
    "convert": _each_line(_run_convert),
    "map": _each_line(_run_map),
    "check": _each_line(_run_check),
    "diagram": _each_line(_run_diagram),
    "gcheck": _gcheck_answer,
    "gmap": _gmap_answer,
}


def _error(message) -> None:
    sys.stderr.write(f"error: {message}\n")  # one write per line, where print writes the newline apart


# One read of stdin takes what has arrived, up to this many bytes.
_READ_SIZE = 1 << 16
# Bytes decoded at a time: the size of ``sys.stdin``'s own reads, so that a
# byte the encoding refuses fails at the same line, with the same position.
_DECODE_SIZE = 8192
# Characters of answers a batch holds before it writes them.
_WRITE_SIZE = 1 << 16


def _stdin_reads():
    """Stdin's lines, one list per read: the lines that read completed.

    Lines end at each newline, as ``for line in sys.stdin`` splits them on
    POSIX, and come without it; a line cut by a read waits for the rest, and
    the last line needs no newline.  Bytes are decoded as ``sys.stdin``
    decodes them, a character cut by a read coming out whole in the next.
    An in-memory stream has no byte buffer and is read as one text.
    """
    stdin = sys.stdin
    buffer = getattr(stdin, "buffer", None)
    if buffer is None:
        read, decode = stdin.read, lambda text, final=False: text
    else:
        read = partial(buffer.read1, _READ_SIZE)
        decode = codecs.getincrementaldecoder(stdin.encoding)(stdin.errors).decode
    rest = ""
    while chunk := read():
        text, failed = [rest], None
        for at in range(0, len(chunk), _DECODE_SIZE):
            try:
                text.append(decode(chunk[at:at + _DECODE_SIZE]))
            except UnicodeDecodeError as exc:
                failed = exc
                break
        lines = "".join(text).split("\n")
        rest = lines.pop()
        yield lines
        if failed is not None:
            raise failed
    rest += decode(chunk, True)  # chunk is the empty last read
    if rest:
        yield [rest]


def _write_lines(write, lines: list) -> None:
    """Write the lines with one write and empty the list.

    If stdout cannot encode one, fail at it as a write per line did.
    """
    pending = lines.copy()
    lines.clear()  # emptied first, so a write that fails is not tried again
    try:
        write("\n".join(pending) + "\n")
    except UnicodeEncodeError:  # raised before any byte is written, so the lines go again one by one
        for line in pending:
            write(line + "\n")


def _run_batch(answer, write) -> int:
    """Answer every non-blank stdin line; a bad line is reported and skipped.

    The answers to the lines one read completes go out in one write, before
    the next read, so no answer waits on input that has not arrived; an
    error line goes out after the answers to the lines before it.  Answers
    pending past ``_WRITE_SIZE`` characters go out at once, so a batch holds
    little more than one answer however large its answers are, and an
    exception the batch does not catch still writes the answers made before
    it.  Each error names its line, unless the batch has no other non-blank
    line: a one-line batch reports as ``--input`` does.  So the first line's
    error waits for the next non-blank line, or for the end of input.
    """
    code, count, held, number = 0, 0, None, 0
    replies, pending = [], 0
    try:
        for lines in _stdin_reads():
            for line in lines:
                number += 1
                line = line.strip()
                if not line:
                    continue
                count += 1
                if held is not None:  # the held line was the only one before, so no reply waits
                    _error(f"line {held[0]}: {held[1]}")
                    held = None
                try:
                    reply = answer(_load_input(line))
                except (ValueError, OverflowError) as exc:
                    code = 1
                    if count == 1:
                        held = (number, exc)
                        continue
                    if replies:
                        _write_lines(write, replies)
                        pending = 0
                    _error(f"line {number}: {exc}")
                    continue
                replies.append(reply)
                pending += len(reply)
                if pending >= _WRITE_SIZE:
                    _write_lines(write, replies)
                    pending = 0
            if replies:
                _write_lines(write, replies)
                pending = 0
    finally:
        if replies:
            _write_lines(write, replies)
    if held is not None:
        _error(held[1])
    return code


def _stdout_write():
    """``sys.stdout.write``, or, when stdout is unbuffered, a write that finishes short writes.

    Unbuffered (``PYTHONUNBUFFERED``), the text layer hands each write to the
    file itself and ignores the count of a short write, which a pipe returns
    when its reader goes away during a write larger than the pipe holds.  A
    batch's last write could then end short unseen, and exit 0; so here the
    rest is written until it is done or the closed pipe fails it.
    """
    stream = sys.stdout
    raw = getattr(stream, "buffer", None)
    if not isinstance(raw, io.RawIOBase):
        return stream.write
    encode = codecs.getincrementalencoder(stream.encoding)(stream.errors).encode

    def write(text):
        data = memoryview(encode(text))
        while data:
            done = raw.write(data)
            if done is None:  # a non-blocking stdout that is full
                raise BlockingIOError(errno.EAGAIN, os.strerror(errno.EAGAIN))
            data = data[done:]
    return write


def run(argv, out=None) -> int:
    write = _stdout_write() if out is None else out.write
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command in _BATCHABLE:
            answer = _BATCHABLE[args.command](args)
            if args.input == "-":
                return _run_batch(answer, write)
            lines = [answer(_load_input(args.input))]
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
    """Run the command in ``sys.argv`` and exit with its code.

    Everything loaded so far (the modules, their functions and tables)
    lives until exit, so ``gc.freeze()`` moves it out of the collector's
    reach: neither the collections a batch triggers nor the interpreter's
    own at exit walk it again.  A closed or full stdout ends in one ``error:`` line
    and exit 1; stdout then points at the null device, so that the flush at
    exit cannot fail a second time.
    """
    gc.freeze()
    try:
        code = run(sys.argv[1:])
        sys.stdout.flush()
    except OSError as exc:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        _error(exc)
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    main()
