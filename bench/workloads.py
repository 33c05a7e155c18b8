"""The three benchmark workloads: request streams, execution and checks.

Every workload is a closed loop with one client: the next request is sent only
when the previous answer is back.  A workload's stream is a list of requests
made once from the seed (a *cycle*) and repeated, so every run of a seed does
the same work in the same order and each distinct answer is checked against
its oracle once, then compared with that checked answer.

* ``cli_stream``: one ``python3 -m seqcong.cli ... --input -`` process per
  request, fed a stdin batch.  Exercises partition, bijections, generalized
  and cli; no enumerator or engine runs.
* ``ideal_jobs``: in-process calls into the ideal engines over a fixed menu
  of kinds and boxes, in a seeded order.  Exercises ideals and the box scans
  in counting.
* ``counting_mix``: in-process brute-force counts and enumerations beside
  series look-ups that either grow the series cache or read it.  Exercises
  counting and partition construction; no engine runs.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path

import oracles
from seqcong import bijections, counting, generalized, ideals, partition
from seqcong.errors import DomainError

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


@dataclass
class Outcome:
    """What checking one answer found.

    ``attempted``/``failed`` count items (stdin lines for the CLI, otherwise
    the request itself); ``wrong`` marks an answer that disagrees with its
    oracle; ``lines`` counts answer records delivered correctly; ``work``
    holds the work sizes the answer exposes.
    """

    attempted: int = 1
    failed: int = 0
    wrong: bool = False
    lines: int = 0
    work: dict = field(default_factory=dict)
    tag: str = ""
    note: str = ""


def _dumps(value) -> str:
    return json.dumps(value, separators=(",", ":"))


def _records(result) -> int:
    """Answer records: one per element of a list answer, otherwise one."""
    return len(result) if isinstance(result, (list, tuple)) else 1


def seqcong_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


# ---------------------------------------------------------------------------
# cli_stream
# ---------------------------------------------------------------------------

def _own_from_c(c):
    parts, acc = [], 0
    for j in range(len(c), 0, -1):
        acc += j * c[j - 1]
        parts.append(acc)
    return tuple(reversed(parts))


def _diffs(parts):
    return [parts[i] - (parts[i + 1] if i + 1 < len(parts) else 0) for i in range(len(parts))]


def _own_c(parts):
    return [d // i for i, d in enumerate(_diffs(parts), 1)]


def _by_mult(pairs):
    return tuple(sorted((v for v, m in pairs for _ in range(m)), reverse=True))


def _own_sigma(q):
    return _by_mult((i, c) for i, c in enumerate(_own_c(q), 1))


def _own_psi_inv(s):
    roots = [oracles.exact_root(x) for x in s]
    return _own_from_c([roots.count(i) for i in range(1, max(roots, default=0) + 1)])


# command -> (argv, input class, library answer as a printed line, own answer).
# Input classes: "any" partition, seqcong "member", "squares" (all parts square).
_P = partition.Partition
CLI_COMMANDS = {
    "map-pi": (["map", "--fn", "pi"], "any",
               lambda p: _dumps(list(bijections.pi_map(p).parts)),
               lambda t: _dumps(list(_own_from_c(_diffs(t))))),
    "map-sigma": (["map", "--fn", "sigma"], "member",
                  lambda p: _dumps(list(bijections.sigma_map(p).parts)),
                  lambda t: _dumps(list(_own_sigma(t)))),
    "map-pisigma": (["map", "--fn", "pisigma"], "member",
                    lambda p: _dumps(list(bijections.pi_sigma_closed_form(p).parts)),
                    lambda t: _dumps(list(_own_from_c(_diffs(_own_sigma(t)))))),
    "map-psi": (["map", "--fn", "psi"], "member",
                lambda p: _dumps(list(bijections.psi_map(p).parts)),
                lambda t: _dumps(list(_by_mult((i * i, c) for i, c in enumerate(_own_c(t), 1))))),
    "map-psi-inv": (["map", "--fn", "psi-inv"], "squares",
                    lambda p: _dumps(list(bijections.psi_inverse(p).parts)),
                    lambda t: _dumps(list(_own_psi_inv(t)))),
    "map-conjugate": (["map", "--fn", "conjugate"], "any",
                      lambda p: _dumps(list(partition.conjugate(p).parts)),
                      lambda t: _dumps(list(oracles.transpose(t)))),
    "convert-c": (["convert", "--to", "cnotation"], "member",
                  lambda p: _dumps({"c": list(bijections.to_c_notation(p).coeffs)}),
                  lambda t: _dumps({"c": _own_c(t)})),
    "check-seqcong": (["check", "--pred", "seqcong"], "any",
                      lambda p: _dumps(bijections.is_seq_congruent(p)),
                      lambda t: _dumps(oracles.seq_congruent(t))),
    "gcheck-nat": (["gcheck"], "any",
                   lambda p: _dumps(generalized.is_in_SBA(p, generalized.GenSpec.standard())),
                   lambda t: _dumps(oracles.seq_congruent(t))),
    "gmap-sigmaAB": (["gmap", "--fn", "sigmaAB"], "member",
                     lambda p: _dumps(list(generalized.sigma_AB(
                         generalized.n_encode(p, generalized.GenSpec.standard())).parts)),
                     lambda t: _dumps(list(_own_sigma(t)))),
    "gmap-piAB": (["gmap", "--fn", "piAB"], "any",
                  lambda p: _dumps(_pi_ab_payload(p)),
                  lambda t: _dumps({"n": _diffs(t), "A": "nat", "B": "nat",
                                    "partition": list(_own_from_c(_diffs(t)))})),
    "gmap-piPrimeAB": (["gmap", "--fn", "piPrimeAB"], "any",
                       lambda p: _dumps(list(generalized.pi_prime_AB(p, generalized.GenSpec.standard()).parts)),
                       lambda t: _dumps(list(_own_from_c(_diffs(t))))),
    "gmap-sigmaPrimeAB": (["gmap", "--fn", "sigmaPrimeAB"], "member",
                          lambda p: _dumps(list(generalized.sigma_prime_AB(p, generalized.GenSpec.standard()).parts)),
                          lambda t: _dumps(list(_own_sigma(t)))),
}


def _pi_ab_payload(p):
    spec = generalized.GenSpec.standard()
    n = generalized.pi_AB(p, spec)
    return {"n": list(n.coeffs), "A": str(spec.a), "B": str(spec.b),
            "partition": list(generalized.n_decode(n).parts)}


# Batch sizes of one cycle, each run once per command: single lines, where
# process start dominates, up to thousands of lines, where per-line cost does.
CLI_BATCH_SIZES = (1, 30, 3000)


def _random_partition(rng) -> tuple[int, ...]:
    rem = rng.randint(1, 60)
    cap = rng.randint(1, rem)
    parts = []
    while rem:
        x = rng.randint(1, min(rem, cap))
        parts.append(x)
        rem -= x
    return tuple(sorted(parts, reverse=True))


def _random_member(rng) -> tuple[int, ...]:
    r = rng.randint(1, 6)
    c = [rng.randint(0, 2) for _ in range(r - 1)] + [rng.randint(1, 2)]
    return _own_from_c(c)


def _random_non_member(rng) -> tuple[int, ...]:
    while True:
        t = _random_partition(rng)
        if not oracles.seq_congruent(t):
            return t


@dataclass
class CliBatch:
    name: str
    argv: list
    stdin: str
    expected: list          # printed answers of the valid lines, in order
    bad_at: int | None      # index of the deliberately invalid line
    bad_error: str | None   # the DomainError message the CLI must report for it
    lines: int
    own_mismatches: int     # valid lines whose library answer disagrees with the own oracle


class CliStream:
    name = "cli_stream"

    def __init__(self, seed: int):
        rng = random.Random(seed)
        batches = []
        for size in CLI_BATCH_SIZES:
            for name in CLI_COMMANDS:
                batches.append((name, size))
        rng.shuffle(batches)
        # One 3000-line and one 30-line batch of a command that needs members
        # carry one invalid line near their middle (see check).
        needs_member = [n for n, c in CLI_COMMANDS.items() if c[1] != "any"]
        tainted = {(rng.choice(needs_member), 3000), (rng.choice(needs_member), 30)}
        self.batches = [self._make_batch(rng, name, size, (name, size) in tainted)
                        for name, size in batches]
        self.env = seqcong_env()

    @staticmethod
    def _make_batch(rng, name, size, tainted) -> CliBatch:
        argv, cls, lib, own = CLI_COMMANDS[name]
        bad_at = int(size * rng.uniform(0.45, 0.55)) if tainted else None
        inputs, expected, mismatches, bad_error = [], [], 0, None
        for i in range(size):
            if i == bad_at:
                t = (5, 4) if cls == "squares" else _random_non_member(rng)
                try:
                    lib(_P(t))
                except DomainError as exc:
                    bad_error = str(exc)
                inputs.append(_dumps(list(t)))
                continue
            if cls == "any":
                t = _random_partition(rng)
            elif cls == "member":
                t = _random_member(rng)
            else:
                t = _by_mult((i * i, c) for i, c in enumerate(_own_c(_random_member(rng)), 1))
            answer = lib(_P(t))
            if answer != own(t):
                mismatches += 1
            inputs.append(_dumps(list(t)))
            expected.append(answer)
        return CliBatch(name, argv, "\n".join(inputs) + "\n", expected, bad_at, bad_error,
                        size, mismatches)

    def setup_argv(self):
        # Time to the first answer of one cold single-line command.
        return [sys.executable, "-m", "seqcong.cli", "map", "--fn", "pi", "--input", "[12,8,4,3,3]"]

    def cycle(self, c: int):
        return self.batches

    def execute(self, batch: CliBatch, prefix=None):
        argv = (prefix or [sys.executable, "-m", "seqcong.cli"]) + batch.argv + ["--input", "-"]
        return subprocess.run(argv, input=batch.stdin, capture_output=True, text=True,
                              env=self.env, cwd=ROOT, timeout=170)

    def check(self, batch: CliBatch, proc) -> Outcome:
        if isinstance(proc, Exception):
            return Outcome(attempted=batch.lines, failed=batch.lines, wrong=True,
                           note=f"{batch.name}: {proc!r}")
        out = Outcome(attempted=batch.lines)
        got = proc.stdout.splitlines()
        want = batch.expected
        prefix = got == want[:len(got)]
        if not prefix:
            out.wrong, out.note = True, f"{batch.name}: stdout differs from the library answers"
        answered = sum(1 for a, b in zip(got, want) if a == b)
        if batch.bad_at is None:
            if proc.returncode != 0 or len(got) != len(want):
                out.wrong = True
                out.note = out.note or f"{batch.name}: exit {proc.returncode}, {proc.stderr.strip()[:200]}"
            bad_ok = 0
        else:
            # The invalid line must end in the named DomainError on stderr and
            # exit 1; valid lines after it that were never answered are failed.
            bad_ok = int(proc.returncode == 1 and batch.bad_error is not None
                         and batch.bad_error in proc.stderr)
            if not bad_ok:
                out.wrong = True
                out.note = out.note or f"{batch.name}: invalid line not reported as a DomainError"
        answered_ok = max(0, answered - batch.own_mismatches)
        out.lines = answered_ok + bad_ok
        out.failed = batch.lines - out.lines
        if batch.own_mismatches:
            out.wrong = True
            out.note = out.note or f"{batch.name}: library answers disagree with the own oracle"
        return out


# ---------------------------------------------------------------------------
# ideal_jobs
# ---------------------------------------------------------------------------

# (operation, kind, max_part, max_length, modulus).  Every job runs once per
# cycle in a seeded order.  Small boxes (well under 20 ms) are the majority
# and set the median; the large boxes set the tail.  S, which is not an ideal,
# runs the size-ordered box scan beside the member walk.  The large closure
# and link boxes cost about the same, and the large order box about 1.3 times
# as much: over four to six cycles the order job fills the top ranks and the
# tail sample falls inside the pooled closure and link samples, not on the
# edge between two jobs.
IDEAL_MENU = [
    # small
    ("closure", "R", 16, 7, None), ("closure", "Adiff", 16, 7, None),
    ("closure", "Pprime", 16, 7, None), ("closure", "SA", 16, 7, None),
    ("closure", "N_maxlen:3", 16, 7, None), ("closure", "P_mod:3", 16, 7, None),
    ("closure", "SA_maxlen:2", 16, 7, None), ("closure", "D", 12, 6, None),
    ("closure", "Rprime", 12, 6, None), ("closure", "P_parity", 12, 6, None),
    ("closure", "S", 12, 6, None),
    ("order", "R", 8, 5, None), ("order", "D", 8, 5, None), ("order", "S", 8, 5, None),
    ("weak_order", "P_parity", 8, 5, None), ("weak_order", "Rprime", 8, 5, None),
    ("order", "Rprime", 12, 8, None), ("order", "P_parity", 12, 8, None),
    ("order", "S", 12, 8, None),
    ("modulus", "R", 12, 6, 2), ("modulus", "D", 12, 6, 1), ("modulus", "P_parity", 12, 6, 2),
    ("modulus", "S", 12, 6, 2), ("modulus", "Pprime", 12, 6, 2),
    ("lset", "R", 12, 6, 2), ("lset", "D", 12, 6, 1), ("lset", "P_parity", 12, 6, 2),
    ("lset", "S", 12, 6, 2), ("lset", "N_maxlen:2", 12, 6, 3),
    ("within", "R", 10, 5, None), ("within", "D", 10, 5, None), ("within", "P_parity", 10, 5, None),
    ("within", "Adiff", 10, 5, None), ("within", "S", 10, 5, None), ("within", "P_mod:3", 10, 5, None),
    ("link", "D", 10, 5, 1), ("link", "P_parity", 10, 5, 2), ("link", "S", 8, 4, 2),
    ("link", "R", 10, 5, 2),
    # medium
    ("closure", "D", 16, 7, None), ("closure", "P_parity", 20, 7, None),
    ("closure", "R", 20, 7, None), ("order", "R", 10, 6, None), ("weak_order", "D", 10, 6, None),
    ("link", "R", 12, 6, 2), ("link", "D", 14, 6, 1), ("within", "S", 12, 6, None),
    ("within", "D", 16, 7, None),
    # large
    ("closure", "D", 20, 7, None), ("closure", "Rprime", 20, 7, None),
    ("order", "R", 12, 8, None), ("link", "R", 15, 7, 2),
]


def ideal_key(job) -> str:
    op, kind, a, b, m = job
    return f"{op} {kind} {a}x{b}" + ("" if m is None else f" m={m}")


def _parts(p):
    return None if p is None else list(p.parts)


def ideal_work(job, report) -> dict:
    """The work sizes and verdicts an ideal-engine answer exposes."""
    op = job[0]
    if op == "closure":
        return {"closed": report.closed, "members_checked": report.members_checked,
                "witness": _parts(report.witness), "removed_part": report.removed_part}
    if op in ("order", "weak_order"):
        return {"order": report.order, "growing": report.growing,
                "refuted_up_to": report.refuted_up_to, "last_witness": _parts(report.last_witness)}
    if op == "modulus":
        return {"holds": report.holds, "witness": _parts(report.witness), "direction": report.direction}
    if op == "lset":
        return {"members": len(report.members), "truncated": report.truncated}
    if op == "within":
        return {"members": len(report)}
    return {"verdict": report.verdict, "L_set": len(report.L_set),
            "spans": [e.span for e in report.entries], "witness": _parts(report.witness)}


def run_ideal_job(job):
    op, kind, a, b, m = job
    spec, bound = ideals.IdealSpec.parse(kind), ideals.AnalysisBound(a, b)
    if op == "closure":
        return ideals.check_ideal_closure(spec, bound)
    if op == "order":
        return ideals.order_estimate(spec, bound)
    if op == "weak_order":
        return ideals.weak_order_estimate(spec, bound)
    if op == "modulus":
        return ideals.check_modulus(spec, m, bound)
    if op == "lset":
        return ideals.compute_L(spec, m, bound)
    if op == "within":
        return ideals.members_within(spec, bound)
    return ideals.infer_linking(spec, m, bound)


def _without_one(parts, v):
    i = parts.index(v)
    return parts[:i] + parts[i + 1:]


def check_ideal_answer(job, report) -> str | None:
    """Independent checks of one answer; a message when one fails."""
    op, kind, a, b, m = job
    spec = ideals.IdealSpec.parse(kind)
    member = lambda t: ideals.is_member(spec, partition.Partition(t))  # noqa: E731
    if op == "closure":
        if kind == "S":
            w = report.witness.parts if report.witness is not None else None
            if (report.closed or w is None or not oracles.seq_congruent(w)
                    or report.after_removal.parts != _without_one(w, report.removed_part)
                    or oracles.seq_congruent(report.after_removal.parts)):
                return "S closure witness is not a member losing membership on a removal"
            return None
        expect = oracles.box_count(spec.kind, spec.param, a, b)
        if not report.closed:
            return f"a true ideal reported not closed at {report.witness}"
        if expect is not None and report.members_checked != expect:
            return f"members_checked {report.members_checked}, box count {expect}"
    elif op in ("order", "weak_order"):
        w = report.last_witness
        k = report.refuted_up_to
        windows = oracles.integer_windows if op == "order" else oracles.present_windows
        if w is not None and (member(w.parts) or not all(member(x) for x in windows(w.parts, k))):
            return f"order witness {w} is not a non-member with member windows of width {k}"
    elif op == "modulus":
        if not report.holds:
            t = report.witness.parts
            moved = tuple(x + m for x in t) if report.direction == "shift-escapes" else tuple(x - m for x in t)
            if not member(t) or member(moved):
                return f"modulus witness {report.witness} does not escape"
    elif op == "lset":
        if not all(p.largest <= m and member(p.parts) for p in report.members):
            return "L-set holds a non-member or a part above the modulus"
    elif op == "within":
        expect = oracles.box_count(spec.kind, spec.param, a, b)
        if expect is not None and len(report) != expect:
            return f"{len(report)} members, box count {expect}"
        if len({p.parts for p in report}) != len(report) or not all(member(p.parts) for p in report):
            return "members_within returned a duplicate or a non-member"
    return None


class IdealJobs:
    name = "ideal_jobs"

    def __init__(self, seed: int):
        rng = random.Random(seed)
        self.jobs = list(IDEAL_MENU)
        rng.shuffle(self.jobs)
        with open(HERE / "golden.json") as fh:
            self.golden = json.load(fh)
        self.checked: dict = {}

    def setup_argv(self):
        kinds = sorted({j[1] for j in IDEAL_MENU})
        boxes = sorted({(j[2], j[3]) for j in IDEAL_MENU})
        code = ("import seqcong\n"
                f"specs = [seqcong.IdealSpec.parse(k) for k in {kinds!r}]\n"
                f"bounds = [seqcong.AnalysisBound(a, b) for a, b in {boxes!r}]\n"
                "print('ready', flush=True)\n")
        return [sys.executable, "-c", code]

    def cycle(self, c: int):
        return self.jobs

    def execute(self, job):
        return run_ideal_job(job)

    def check(self, job, report) -> Outcome:
        if isinstance(report, Exception):
            return Outcome(failed=1, wrong=True, note=f"{ideal_key(job)}: {report!r}")
        work = ideal_work(job, report)
        key = ideal_key(job)
        out = Outcome(lines=_records(report), work=work)
        seen = self.checked.get(key)
        if seen is None:
            problem = check_ideal_answer(job, report)
            if problem is None and work != self.golden.get(key):
                problem = f"work sizes {work} differ from the recorded {self.golden.get(key)}"
            seen = self.checked[key] = (work, problem)
        elif seen[0] != work:
            seen = (work, f"work sizes changed between repeats: {work}")
        if seen[1] is not None:
            out.failed, out.wrong, out.lines, out.note = 1, True, 0, f"{key}: {seen[1]}"
        return out


# ---------------------------------------------------------------------------
# counting_mix
# ---------------------------------------------------------------------------

# Predicates for brute-force count_members: prefix-closed ideal kinds and
# non-ideal predicates, each with its independent count.
# Brute-force count_members: prefix-closed ideal kinds and non-ideal
# predicates, each at a fixed size, with its independent count.
COUNT_MEMBERS = [("R", 34), ("D", 35), ("P_parity", 36), ("Adiff", 37), ("Rprime", 38),
                 ("seqcong", 39), ("S2", 40), ("squares", 41)]
LISTINGS = [("enumerate_partitions", (37, 39)), ("enumerate_seqcong_by_size", (40, 45)),
            ("enumerate_seqcong_by_largest", (24, 26))]


def _square_parts(p) -> bool:
    return all(oracles.exact_root(x) is not None for x in p.parts)


def _predicate(tag):
    if tag == "seqcong":
        return bijections.is_seq_congruent
    if tag == "S2":
        return lambda p: generalized.is_in_Sk(p, 2)
    if tag == "squares":
        return _square_parts
    return ideals.IdealSpec(tag)


def _expected_count(tag, n) -> int:
    if tag in ("seqcong", "squares"):
        return oracles.powers_count(n, 2)
    if tag == "S2":
        return oracles.powers_count(n, 3)
    return oracles.ideal_count(tag, n)


# Series look-ups: (function, power k or None for the parity count, first
# size written, growth per write).  A write asks past every size asked before,
# so the library must extend the series; a read stays below the first write.
# The counts put the median request among the square-series writes.
SERIES = [("powers", 2, 2400, 10), ("powers", 3, 4000, 15), ("parity", None, 600, 3)]
SERIES_WRITES, SERIES_READS = 4, 3


@dataclass(frozen=True)
class CountRequest:
    op: str
    arg: object
    n: int


class CountingMix:
    name = "counting_mix"

    def __init__(self, seed: int):
        heavy = [CountRequest("count_members", tag, n) for tag, n in COUNT_MEMBERS]
        heavy += [CountRequest(fn, None, n) for fn, ns in LISTINGS for n in ns]
        self.heavy = heavy
        self.seed = seed
        self.high = {}           # series key -> largest size asked so far
        self.reference = {}      # series key -> own coefficients

    def setup_argv(self):
        kinds = [t for t, _ in COUNT_MEMBERS if oracles.ideal_count(t, 0) is not None]
        code = ("import seqcong\n"
                f"specs = [seqcong.IdealSpec.parse(k) for k in {kinds!r}]\n"
                "print('ready', flush=True)\n")
        return [sys.executable, "-c", code]

    def cycle(self, c: int):
        # Cycle c writes new sizes per series key, growing by a fixed step per
        # write, and reads sizes below the first write.  The order is seeded,
        # except that each key starts with a write and its writes ascend.
        rng = random.Random(self.seed * 1000003 + c)
        reqs = list(self.heavy)
        for fn, k, first, step in SERIES:
            key = (fn, k)
            reqs += [CountRequest("series", key, first + step * (SERIES_WRITES * c + j))
                     for j in range(SERIES_WRITES)]
            reqs += [CountRequest("series", key, rng.randint(0, first - 1))
                     for _ in range(SERIES_READS)]
        rng.shuffle(reqs)
        for fn, k, first, step in SERIES:
            pos = [i for i, r in enumerate(reqs) if r.arg == (fn, k)]
            writes = iter(sorted((reqs[i] for i in pos if reqs[i].n >= first), key=lambda r: r.n))
            reads = iter([reqs[i] for i in pos if reqs[i].n < first])
            is_write = [reqs[i].n >= first for i in pos]
            j = is_write.index(True)
            is_write[0], is_write[j] = True, is_write[0]
            for i, w in zip(pos, is_write):
                reqs[i] = next(writes) if w else next(reads)
        return reqs

    def execute(self, req: CountRequest):
        if req.op == "count_members":
            return counting.count_members(_predicate(req.arg), req.n)
        if req.op == "series":
            fn, k = req.arg
            if fn == "powers":
                return counting.count_into_powers(req.n, k)
            return ideals.count_parity_ideal(req.n)
        return getattr(counting, req.op)(req.n)

    def _reference(self, key, n) -> int:
        coeffs = self.reference.get(key)
        if coeffs is None or len(coeffs) <= n:
            fn, k = key
            coeffs = oracles.powers_series(k, n) if fn == "powers" else oracles.parity_series(n)
            self.reference[key] = coeffs
        return coeffs[n]

    def check(self, req: CountRequest, result) -> Outcome:
        if isinstance(result, Exception):
            return Outcome(failed=1, wrong=True, note=f"{req}: {result!r}")
        out = Outcome(lines=_records(result))
        problem = None
        if req.op == "series":
            # A write asks past every size asked for its key before, so the
            # library has to extend that series; a read stays within it.
            high = self.high.get(req.arg, -1)
            out.tag = "write" if req.n > high else "read"
            self.high[req.arg] = max(high, req.n)
            if result != self._reference(req.arg, req.n):
                problem = "series coefficient differs from the own series"
        elif req.op == "count_members":
            pn = counting.count_all_partitions(req.n)
            out.work = {"partitions": pn}
            if pn != oracles.powers_count(req.n, 1):
                problem = "count_all_partitions differs from the own series"
            elif result != _expected_count(req.arg, req.n):
                problem = f"count {result}, identity gives {_expected_count(req.arg, req.n)}"
        else:
            problem = self._check_listing(req, result, out)
        if problem is not None:
            out.failed, out.wrong, out.lines, out.note = 1, True, 0, f"{req}: {problem}"
        return out

    def _check_listing(self, req, result, out) -> str | None:
        n = req.n
        tuples = [p.parts for p in result]
        if any(a <= b for a, b in zip(tuples, tuples[1:])):
            return "listing is not strictly reverse lexicographic"
        if req.op == "enumerate_partitions":
            out.work = {"partitions": counting.count_all_partitions(n)}
            if len(tuples) != oracles.powers_count(n, 1) or any(sum(t) != n for t in tuples):
                return "not the partitions of n"
        elif req.op == "enumerate_seqcong_by_size":
            if len(tuples) != oracles.powers_count(n, 2) or not all(
                    sum(t) == n and oracles.seq_congruent(t) for t in tuples):
                return "not the sequentially congruent partitions of size n"
        elif len(tuples) != oracles.powers_count(n, 1) or not all(
                t[0] == n and oracles.seq_congruent(t) for t in tuples):
            return "not the sequentially congruent partitions with largest part n"
        return None


WORKLOADS = {w.name: w for w in (CliStream, IdealJobs, CountingMix)}
