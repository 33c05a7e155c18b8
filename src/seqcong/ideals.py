"""Partition-ideal analysis: closure, order, modulus, L-sets, linking and the constructive counterexamples.

The kinds, specs, bound and records come from :mod:`seqcong.kinds` (``seqcong.ideals.IdealSpec`` is the same class).
Closure, modulus and linking run on classes of members that a kind's test cannot tell apart (``_class_layers``, up to
the first empty layer) for a kind with a summary, closure over pairs (class of a member, class of one of its
removals), and all three down the walk (``_carry``) when a class fails or there is none; ``members_within`` splices
each class's tails (``_class_tails``).  Every analysis is exhaustive within an :class:`AnalysisBound` and reports
bounded verdicts with explicit witnesses, never an unqualified "infinite"; enumeration orders are fixed, so reports
are deterministic.
"""

from __future__ import annotations

from heapq import heappop, heappush, heapreplace
from itertools import takewhile
from math import lcm

from .bijections import is_seq_congruent
from .counting import _cached_parity, _check_size
from .errors import DomainError
from .kinds import _KINDS, AnalysisBound, IdealSpec, _fold, _fold_from, _positive, _Record, is_member  # noqa: F401
from .kinds import _seqcong_prefix_children, _seqcong_prefix_ok, _step  # noqa: F401  (read by the tests)
from .partition import Partition, _check_largest, _check_output_length


# ---- member enumeration ---------------------------------------------------

def _walk(children, max_part: int, max_length: int, min_part: int = 1):
    """Box tuples whose parts each lie in ``children(prefix, len(prefix), min_part, top)``, in prefix order.

    top is the prefix's last part, or max_part for ().  Parts come largest first, each tuple before its
    extensions, starting with (); with a prefix-closed kind's ``_children``, exactly its members in the box.
    The explicit stack holds (prefix, its children not yet walked), so it holds one lazy range per length.
    """
    yield ()
    stack = [((), reversed(children((), 0, min_part, max_part)))] if max_length > 0 else []
    while stack:
        t, parts = stack[-1]
        n = len(t) + 1
        for v in parts:
            c = t + (v,)
            yield c
            if n + 1 < max_length:
                stack.append((c, reversed(children(c, n, min_part, v))))
                break
            if n < max_length:
                for w in reversed(children(c, n, min_part, v)):
                    yield c + (w,)
        else:
            stack.pop()


def _carry(children, step, carried, max_part: int, max_length: int):
    """``_walk`` with each t + (v,) carrying ``step(t, n, v, carried)`` from its parent t.

    (tuples walked, None), or (tuples walked up to t, t) for the first t whose step gave None.  A step
    runs when its tuple is walked, so the stack holds only parents' carried values.
    """
    stack, count = [((), carried, reversed(children((), 0, 1, max_part)))] if max_length > 0 else [], 1
    while stack:
        t, carried, parts = stack[-1]
        n = len(t)
        for v in parts:
            count += 1
            stepped = step(t, n, v, carried)
            if stepped is None:
                return count, t + (v,)
            if n + 1 < max_length:
                stack.append((t + (v,), stepped, reversed(children(t + (v,), n + 1, 1, v))))
                break
        else:
            stack.pop()
    return count, None


def _by_size(children, max_part: int, max_length: int, min_part: int = 1):
    """The tuples ``_walk`` yields, by increasing size and reverse lexicographic within a size.

    Best first: pop the least (size, negated parts) key and yield its tuple, then push the first part of
    its rule and of its parent's rule above it (its next sibling).  Both keys exceed the popped one, so
    the heap grows by at most one entry per pop and no rule is read past the tuple the caller stops at.
    """
    heap = [(0, (), ())]  # (size, negated parts, parts)
    while heap:
        size, neg, t = heap[0]
        yield t
        n, parent = len(t), t[:-1]
        for v in children(parent, n - 1, t[-1] + 1, parent[-1] if parent else max_part) if t else ():
            heapreplace(heap, (size - t[-1] + v, neg[:-1] + (-v,), parent + (v,)))
            break
        else:
            heappop(heap)
        for v in children(t, n, min_part, t[-1] if t else max_part) if n < max_length else ():
            heappush(heap, (size + v, neg + (-v,), t + (v,)))
            break


def _member_tuples(spec: IdealSpec, max_part: int, max_length: int):
    """Members in the box: walked in prefix order for prefix-closed kinds; for S, searched by (size, revlex)
    along its prefix rule and kept when the last part is a multiple of the length."""
    if spec.prefix_closed:
        return _walk(spec._children, max_part, max_length)
    return (t for t in _by_size(spec._children, max_part, max_length) if not t or t[-1] % len(t) == 0)


def _class_tails(spec: IdealSpec, cap: int, memo: dict, t: tuple, n: int) -> list:
    """The s, () first and in walk order, that complete the member t of length n < cap to members of length
    at most cap, listed in ``memo`` once per class (length, summary, last part); recursing cap - 1 - n deep."""
    key = (n, spec._summary(t), t[-1])
    tails = memo.get(key)
    if tails is None:
        tails = memo[key] = [()]
        for v in reversed(spec._children(t, n, 1, t[-1])):
            tails += [(v,)] if n + 1 == cap else [(v,) + s for s in _class_tails(spec, cap, memo, t + (v,), n + 1)]
    return tails


def members_within(spec: IdealSpec, bound: AnalysisBound) -> list[Partition]:
    """All members inside the bound box: prefix order for prefix-closed kinds, by size for S.

    A kind with a summary (and a length cap of 3 or more) is walked down to length max(max_length - 3, 2),
    and each member t of that length is followed by t + s for every tail s of its class (``_class_tails``),
    in walk order: the rule answers alike for the prefixes of one class, and their children fall into
    equal classes again, so every prefix of a class completes to members by the same tails, built once.
    Adiff, which declares no summary, and S are walked and searched whole.
    """
    cap, memo, new, members = bound.max_length, {}, object.__new__, []
    # a length-1 class is never reused, and a lookup per member at the cap costs more than the rule it saves
    if spec._summary is None or cap <= 2:
        for t in _member_tuples(spec, bound.max_part, cap):
            members.append(p := new(Partition))
            p.parts = t
        return members
    depth = max(cap - 3, 2)
    for t in _walk(spec._children, bound.max_part, depth):
        for s in _class_tails(spec, cap, memo, t, depth) if len(t) == depth else ((),):
            members.append(p := new(Partition))
            p.parts = t + s
    return members


# ---- closure under part removal -------------------------------------------

class ClosureReport(_Record):
    """Closure verdict; when not closed, the member ``witness`` that breaks it."""

    __slots__ = ("spec", "bound", "closed", "members_checked", "witness", "removed_part", "after_removal")
    _defaults = dict.fromkeys(("witness", "removed_part", "after_removal"))


def _class_layers(spec, bound, step, carried, key, min_part=1):
    """Classes [members, representative, carried] of the box's members with parts >= min_part, by length.

    A member's class is its length, summary, last part and ``key`` of what an engine carries:
    ``step(t, n, v, carried)`` gives t + (v,)'s from t's, or None to refuse, and then this returns None.
    The rule answers alike for prefixes of one length, summary and last part, and their members
    extend to equal summaries, so each class's children are read and stepped once.  A layer is stepped
    whole before the next is read, and the layers stop at the first empty one.
    """
    children, summary = spec._children, spec._summary
    layer, classes = [[1, (), carried]], []
    for n in range(bound.max_length):
        if not layer:
            break
        classes += layer
        longer = {}
        for count, t, carried in layer:
            for v in children(t, n, min_part, t[-1] if t else bound.max_part):
                stepped = step(t, n, v, carried)
                if stepped is None:
                    return None
                c = t + (v,)
                longer.setdefault((summary(c), v, key(stepped)), [0, c, stepped])[0] += count
        layer = list(longer.values())
    return classes + layer


def _first_exit(member, t):
    """The first single-part removal of t, by position, that is no member: (part, rest), or None."""
    return next(((v, t[:j] + t[j + 1:]) for j, v in enumerate(t)
                 if (not j or t[j - 1] != v) and not member(t[:j] + t[j + 1:])), None)


def check_ideal_closure(spec: IdealSpec, bound: AnalysisBound) -> ClosureReport:
    """Verify every member in the box stays a member when any single part is removed.

    Single-part removal suffices: removing several parts is a chain of single removals.  The first
    counterexample in enumeration order is reported.  On a prefix-closed kind the removals of t + (v,)
    are t and each removal s of t, already passed, plus v: one call ``_child_ok(s, len(s), v)`` decides
    each, so closure certifies the kind's test.  A kind with a summary runs over the pairs (class of t,
    class of s) of each class of t: each pair tests s + (v,) once per child v, and ``members_checked``
    counts every member.  The step runs down the walk when a pair fails or there is no summary.  S's
    members are searched by (size, revlex) and their removals tested by membership, up to the first witness.
    """
    ok, summary, cap = spec._child_ok, spec._summary, bound.max_length
    pairs = {}  # class (length, summary, last part) of t -> {class of s: s} over its members' removals s

    def pair_step(t, n, v, removals):  # removals: t's class's entry in pairs
        for s in removals.values():
            if not ok(s, n - 1, v):
                return None
        if n + 1 == cap:
            return ()  # no pairs at the cap, whose members have no children
        # every class of t adds to the entry of t + (v,)'s class, and _class_layers steps a whole
        # layer before it reads the next, so the entry is complete when it is read
        child = pairs.setdefault((n + 1, summary(t + (v,)), v), {})
        child[(summary(t), t[-1]) if t else None] = t
        for s in removals.values():
            s += (v,)
            child[summary(s), v] = s
        return child

    def step(t, n, v, removals):  # removals: t's, its parent first
        rest = removals[1:] if t and t[-1] == v else removals  # t's parent plus v is t
        for s in rest:
            if not ok(s, n - 1, v):
                return None
        return [t, *[s + (v,) for s in rest]] if n + 1 < cap else ()  # the cap's children carry none

    if not spec.prefix_closed:
        for checked, witness in enumerate(_member_tuples(spec, bound.max_part, bound.max_length), 1):
            if _first_exit(spec._member, witness):
                break
        else:
            witness = None
    elif summary is not None and (classes := _class_layers(spec, bound, pair_step, {}, lambda _: None)):
        # a class carries its own entry, so it is keyed by summary and last part alone
        checked, witness = sum(c[0] for c in classes), None
    else:
        checked, witness = _carry(spec._children, step, [], bound.max_part, bound.max_length)
    if witness is None:
        return ClosureReport(spec, bound, True, checked)
    removed, rest = _first_exit(spec._member, witness)
    return ClosureReport(spec, bound, False, checked, Partition(witness), removed, Partition(rest))


# ---- order and weak order -------------------------------------------------

class OrderReport(_Record):
    """``order``: smallest window width with no refutation, or None when ``growing``
    (evidence the true order grows with the bound); every width up to
    ``refuted_up_to`` was refuted.
    """

    __slots__ = ("spec", "bound", "weak", "order", "growing", "refuted_up_to", "last_witness")
    _defaults = {"last_witness": None}


def _integer_windows(t, k):
    """Sub-partitions keeping k consecutive integer values' frequencies."""
    for m in range(max(1, t[-1] - k + 1), t[0] + 1) if t else ():
        hi = m + k - 1
        yield tuple(x for x in t if m <= x <= hi)


def _present_windows(t, k):
    """Sub-partitions keeping k consecutive present part values."""
    values = sorted(set(t), reverse=True)
    for m in range(len(values)):
        window = set(values[m:m + k])
        yield tuple(x for x in t if x in window)


def _window_test(ok, k, present):
    """Whether all k-windows (of present values when ``present``) of t + (v,) are members, for a member t
    and a part v <= t[-1] that ``ok`` refuses after it, on a kind closed under removal: those holding v lie
    in the widest, t[j:] + (v,), the rest in t, so ``ok(t[j:], len(t) - j, v)`` decides (j = 0: refused)."""
    def takes(t, i, v):
        j, last, seen = i, v, 1
        if present:  # t[j:] + (v,) holds the k smallest present values counted with v
            while j and (t[j - 1] == last or seen < k):
                j, last, seen = j - 1, t[j - 1], seen + (t[j - 1] != last)
        else:  # t[j:] holds t's parts below v + k
            while j and t[j - 1] < v + k:
                j -= 1
        return j > 0 and ok(t[j:], i - j, v)
    return takes


def _order_refute(spec, k, bound, windows):
    """The smallest non-member in (size, revlex) order whose k-windows are all members.

    The search takes a part that the kind's test takes or whose tuple's windows
    all pass the test's fold, which prunes no witness: a window of a prefix is
    a prefix of the same window of the whole tuple, and every prefix of a
    member passes the fold.  On a prefix-closed kind the fold is membership and
    the witness is the first tuple its own last test refuses; the search stops
    there, so a part is only asked after a member, and ``_window_test`` decides
    a refused part by its one widest window.  That is exact because every
    prefix-closed kind is closed under removal (closure certifies it): a
    hand-patched test that is not must not reach this search.  On S the prefix
    rule is folded over every window; the witness is the first non-member
    whose windows are members.
    """
    if k < 1:
        raise DomainError("window width must be positive")
    ok, member, fold = spec._child_ok, spec._member, _fold(spec._child_ok)

    def passes(t, test):  # every k-window of t passes test
        return all(test(w) for w in windows(t, k))

    takes = (_window_test(ok, k, windows is _present_windows) if spec.prefix_closed
             else lambda t, i, v: passes(t + (v,), fold))

    def least(t, i, lo, top):  # the least part the search takes, all that _by_size reads of a rule
        for v in range(lo, top + 1):
            if ok(t, i, v) or takes(t, i, v):
                return (v,)
        return ()

    found = _by_size(least, bound.max_part, bound.max_length)
    if spec.prefix_closed:
        t = next((t for t in found if t and not ok(t[:-1], len(t) - 1, t[-1])), None)
    else:
        t = next((t for t in found if not member(t) and passes(t, member)), None)
    return None if t is None else Partition(t)


def order_refute(spec: IdealSpec, k: int, bound: AnalysisBound) -> Partition | None:
    """Search for a non-member whose every k-wide frequency window is a member.

    Such a witness shows the order exceeds k.  The witness reported is the
    smallest by size, then reverse lexicographic within a size, so the report
    is deterministic; one search finds it and stops there, and None means no
    witness exists within the bound.  On a prefix-closed kind each part the
    kind's test refuses is decided by one test of its widest window holding
    the part, exact because the kind is closed under removal: a spec whose
    test is hand-patched to one that is not must not be given to this search.
    """
    return _order_refute(spec, k, bound, _integer_windows)


def weak_order_refute(spec: IdealSpec, k: int, bound: AnalysisBound) -> Partition | None:
    """Same search with windows over k consecutive present parts."""
    return _order_refute(spec, k, bound, _present_windows)


def _estimate(spec, bound, windows, weak):
    last = None
    for k in range(1, bound.max_part):
        w = _order_refute(spec, k, bound, windows)
        if w is None:
            if last is not None and (last.largest + (k - 1) > bound.max_part or len(last) >= bound.max_length):
                # The last witness presses against the box: treat the streak as
                # evidence of a bound-scaling witness family, not a true order.
                return OrderReport(spec, bound, weak, None, True, k - 1, last)
            return OrderReport(spec, bound, weak, k, False, k - 1, last)
        last = w
    return OrderReport(spec, bound, weak, None, True, bound.max_part - 1, last)


def order_estimate(spec: IdealSpec, bound: AnalysisBound) -> OrderReport:
    """Smallest window width with no refutation, or growing-with-bound evidence.

    A width of max_part is never informative (one window then covers the whole
    box), so a refutation streak reaching it, or a final witness that touches
    the box walls, is reported as ``growing`` with ``order`` left None.
    """
    return _estimate(spec, bound, _integer_windows, False)


def weak_order_estimate(spec: IdealSpec, bound: AnalysisBound) -> OrderReport:
    """Order estimate with windows over present parts instead of all integers."""
    return _estimate(spec, bound, _present_windows, True)


# ---- modulus --------------------------------------------------------------

class ModulusReport(_Record):
    """Modulus verdict; ``direction`` is "shift-escapes" or "unshift-escapes"."""

    __slots__ = ("spec", "modulus", "bound", "holds", "witness", "direction")
    _defaults = dict.fromkeys(("witness", "direction"))


def check_modulus(spec: IdealSpec, m: int, bound: AnalysisBound) -> ModulusReport:
    """Check that adding m to every part maps the ideal onto its members above m.

    Two directions, both exhaustive within the bound: every member shifted by
    m must stay a member, and every member whose parts all exceed m must come
    from a member by shifting.  The first failing member in ``members_within``
    order is reported.  On a prefix-closed kind t + (v,) shifts as its parent
    t, already passed, plus v + m or v - m: one call of the kind's test decides
    each shift.  That step runs on classes carrying their representative's
    shifts, or down the walk when a class fails or there is no summary.  S
    tests each member's shifts whole.
    """
    _positive(m, "modulus")
    ok = spec._child_ok if spec.prefix_closed else lambda s, i, v: spec._member(s + (v,))  # S: shifts whole
    summary = spec._summary

    def step(t, n, v, shifts):  # t shifted up by m, and down by m while its parts exceed m
        up, down = shifts
        if not ok(up, n, v + m) or v > m and not ok(down, n, v - m):
            return None
        return up + (v + m,), down + (v - m,) if v > m else None

    def escapes(t, d):  # whether t shifted by d is no member, given that its parent's shift is one
        return not ok(tuple(x + d for x in t[:-1]), len(t) - 1, t[-1] + d)

    if not spec.prefix_closed:
        witness = next((t for t in _member_tuples(spec, bound.max_part, bound.max_length)
                        if t and (escapes(t, m) or t[-1] > m and escapes(t, -m))), None)
    elif summary is not None and _class_layers(spec, bound, step, ((), ()),
                                              lambda s: (summary(s[0]), s[1] and summary(s[1]))) is not None:
        witness = None
    else:
        witness = _carry(spec._children, step, ((), ()), bound.max_part, bound.max_length)[1]
    if witness is None:
        return ModulusReport(spec, m, bound, True)
    return ModulusReport(spec, m, bound, False, Partition._of(witness),
                         "shift-escapes" if escapes(witness, m) else "unshift-escapes")


# ---- L-sets and the layer decomposition -----------------------------------

class LSetReport(_Record):
    """``truncated``: a member hit the length cap, bounded evidence of an infinite set."""

    __slots__ = ("spec", "modulus", "bound", "members", "truncated")


def compute_L(spec: IdealSpec, m: int, bound: AnalysisBound) -> LSetReport:
    """Members with every part at most m, by size then reverse lexicographic.

    Enumeration stops at the bound's length cap; reaching the cap is reported
    as ``truncated`` (bounded evidence that the set is infinite).
    """
    _positive(m, "modulus")
    box = min(m, bound.max_part), bound.max_length
    tuples = list(_by_size(spec._children, *box) if spec.prefix_closed else _member_tuples(spec, *box))
    truncated = any(len(t) >= bound.max_length for t in tuples)
    return LSetReport(spec, m, bound, tuple(map(Partition._of, tuples)), truncated)


def andrews_decompose(p: Partition, m: int) -> list[Partition]:
    """Split into layers: parts in ((i-1)m, im], each reduced by (i-1)m.

    Interior empty layers are kept so composition can re-shift by position;
    trailing empties are trimmed.  The empty partition gives no layers.
    """
    _positive(m, "layer width")
    if p.is_empty():
        return []
    layers = -(-p.largest // m)
    _check_output_length(layers, "layers")
    buckets: list[list[int]] = [[] for _ in range(layers)]
    for x in p.parts:
        i = (x - 1) // m
        buckets[i].append(x - i * m)
    return [Partition._of(tuple(b)) for b in buckets]


def andrews_compose(pieces: list[Partition], m: int) -> Partition:
    """Inverse of :func:`andrews_decompose`: overlay layer i shifted up by (i-1)m."""
    _positive(m, "layer width")
    parts: list[int] = []
    for i, piece in enumerate(pieces):
        parts.extend(x + i * m for x in piece.parts)
    _check_largest(max(parts, default=0))
    return Partition._of(tuple(sorted(parts, reverse=True)))


# ---- linked-ideal inference -----------------------------------------------

class LinkEntry(_Record):
    """One small member's span and linking set, or the ``witness`` that no span fits."""

    __slots__ = ("element", "span", "linking_set", "witness", "reason")
    _defaults = dict.fromkeys(("span", "linking_set", "witness", "reason"))

    @property
    def found(self) -> bool:
        return self.span is not None


class LinkReport(_Record):
    """``verdict``: linked-within-bound, refuted or L-infinite-within-bound."""

    __slots__ = ("spec", "modulus", "bound", "verdict", "L_set", "entries", "witness", "reason")
    _defaults = {"L_set": (), "entries": (), "witness": None, "reason": None}

    def entry_for(self, p: Partition) -> LinkEntry | None:
        return next((e for e in self.entries if e.element == p), None)


class _Moves(dict):
    """Member t -> t with every part moved by d (staying positive), or None when not a member.

    Filled on first use: no member lies above a non-member, and a member's move is its parent's
    plus one part, so each prefix costs one ``ok`` call.
    """

    def __init__(self, ok, d):
        super().__init__({(): ()})
        self.ok, self.d = ok, d

    def __missing__(self, t):
        j = len(t) - 1
        while t[:j] not in self:
            j -= 1
        s = self[t[:j]]
        for j in range(j, len(t)):
            if s is not None:
                v = t[j] + self.d
                s = s + (v,) if self.ok(s, j, v) else None
            self[t[:j + 1]] = s
        return s


def _fits(spec, pool, tails, cap):
    """Per tail pi, the pool's remainders b, in order, that b + pi completes to a member (b passed the walk)."""
    ok, member = spec._child_ok, spec._member
    return {pi: [b for b in pool if len(b) + len(pi) <= cap and (
        _fold_from(ok, b + pi, len(b)) if spec.prefix_closed else member(b + pi))] for pi in tails}


def _class_pool(spec, m, bound, span_cap, tails):
    """(``_fits``, tail, broken) over classes of the remainders, the members with parts > m.

    Per span l a class carries its representative b moved up by l*m (None when
    no member) and b's tail: its parts <= (l+1)*m, each less l*m.
    """
    ok, summary = spec._child_ok, spec._summary

    def step(t, n, v, carried):
        out = []
        for d, (s, tail) in zip(range(m, span_cap * m + 1, m), carried):
            if s is not None:
                s = s + (v + d,) if ok(s, n, v + d) else None
            out.append((s, tail + (v - d,) if v <= m + d else tail))
        return out

    spans = {t: c for _, t, c in _class_layers(spec, bound, step, [((), ())] * span_cap,
                                               lambda c: tuple((s and (summary(s),), d) for s, d in c), m + 1)}

    def broken(pool, tau, pi, l):  # tau moved up once per call, not once per remainder
        up = tuple(x + l * m for x in tau) + pi
        for b in pool:
            s = spans[b][l - 1][0]
            if s is None or not _fold_from(ok, s + up, len(s)):
                return b

    return _fits(spec, spans, tails, bound.max_length), lambda b, l: spans[b][l - 1][1], broken


def _single_pool(spec, m, bound, tails):
    """(``_fits``, tail, broken) over every remainder alone, by (size, revlex), moved up from its parent (``_Moves``).

    S's pool follows its prefix rule, which every prefix of a member passes, and S builds by membership.
    """
    ok, member = spec._child_ok, spec._member
    pool = list(_by_size(spec._children, bound.max_part, bound.max_length, m + 1))
    moves = {}  # l -> _Moves, never empty so never falsy

    def broken(pool, tau, pi, l):
        if not spec.prefix_closed:
            return next((b for b in pool if not member(tuple(x + l * m for x in b + tau) + pi)), None)
        moved = moves.get(l) or moves.setdefault(l, _Moves(ok, l * m))
        for b in pool:
            s = moved[b + tau]
            if s is None or not _fold_from(ok, s + pi, len(s)):
                return b

    return (_fits(spec, pool, tails, bound.max_length),
            lambda b, l: tuple(x - l * m for x in b if x <= (l + 1) * m), broken)


def _span_entry(pi, l, m, fits, tail, broken):
    """``pi``'s entry for span l: the forced linking set, or the first construction that breaks it."""
    forced = set()
    for b in fits[pi.parts]:
        # b - l*m is a member: the modulus holds, and it is reached by l shifts down by m in the box
        key = tail(b, l)
        if key not in fits:
            return LinkEntry(pi, witness=Partition(b + pi.parts), reason=(
                "member remainder's tail is outside the small-member set"))
        forced.add(key)
    forced = [tau for tau in fits if tau in forced]  # fits lists L's members by (size, revlex)
    for tau in forced:
        # b + tau is a member and pi's parts are <= m, so the built partition stays sorted
        if (b := broken(fits[tau], tau, pi.parts, l)) is not None:
            return LinkEntry(pi, witness=Partition(tuple(x + l * m for x in b + tau) + pi.parts), reason=(
                f"tail {Partition(tau)} with span {l} builds a non-member"))
    return LinkEntry(pi, span=l, linking_set=tuple(map(Partition, forced)))


def _span_search(m, span_cap, small, fits, tail, broken):
    """Yield each small member's entry for the largest span up to the cap that passes ``_span_entry``.

    ``fits`` lists per tail a pool's remainders b, each standing for all that ``tail(b, l)`` (b's tail for
    span l) and ``broken(fits[tau], tau, pi, l)`` (the first b such that b + tau moved up by l*m, then pi, is
    no member, or None) answer alike for.
    """
    for pi in small:
        lasts = [b[-1] for b in fits[pi.parts] if b]
        entry = LinkEntry(pi, witness=None, reason="no feasible span")
        for l in range(min(span_cap, (min(lasts) - 1) // m) if lasts else span_cap, 0, -1):
            entry = _span_entry(pi, l, m, fits, tail, broken)
            if entry.found:
                break
        yield entry


def infer_linking(spec: IdealSpec, m: int, bound: AnalysisBound, span_cap: int = 4) -> LinkReport:
    """Search for spans and linking sets that tie tails to shifted remainders.

    For each small member pi (all parts <= m) the goal is a span l and a linking set of tails such that:
    a partition with tail pi is a member exactly when its remaining parts, shifted down by l*m, form a
    member whose tail lies in the linking set.  For a fixed l the smallest workable linking set is forced
    (the tails actually realized by members), so the search only chooses l: the largest feasible span up
    to ``span_cap`` that survives the exhaustive check wins, matching the spans quoted for the classical
    examples.  Any element with no workable span refutes linkedness; the violating construction is
    reported.  One span search runs over classes of remainders for a kind with a summary, and over every
    remainder alone, naming the witness, when some element finds no span there or there is no summary.
    """
    _positive(m, "modulus")
    _positive(span_cap, "span cap")

    modulus = check_modulus(spec, m, bound)
    if not modulus.holds:
        return LinkReport(spec, m, bound, "refuted", witness=modulus.witness,
                          reason=f"no modulus {m} within bound ({modulus.direction})")

    lset = compute_L(spec, m, bound)
    if lset.truncated:
        return LinkReport(spec, m, bound, "L-infinite-within-bound", L_set=lset.members,
                          reason="small-part members still appear at the length cap")

    small, tails, entries = lset.members, [p.parts for p in lset.members], []
    # classes carry every span up to the cap, so a cap past the box's parts is left to single remainders
    if spec._summary is not None and span_cap <= bound.max_part:
        entries = list(takewhile(lambda e: e.found, _span_search(
            m, span_cap, small, *_class_pool(spec, m, bound, span_cap, tails))))
    if len(entries) < len(small):  # no class run, or some element found no span there
        entries = list(_span_search(m, span_cap, small, *_single_pool(spec, m, bound, tails)))
    bad = next((e for e in entries if not e.found), None)  # the first element with no span
    return LinkReport(spec, m, bound, "linked-within-bound" if bad is None else "refuted", L_set=small,
                      entries=tuple(entries), witness=bad and bad.witness, reason=bad and bad.reason)


# ---- counting and the constructive counterexamples ------------------------

def count_parity_ideal(n: int) -> int:
    """Partitions of n with all parts of one parity, read from P_parity's cached count series.

    That series grows ahead beside p(n).  Its odd-part count is, by prod (1 + q^k) =
    prod (1 - q^2k) / prod (1 - q^k) and Euler's pentagonal theorem, the sum over j in Z of
    (-1)^j p(n - j(3j - 1)).  It adds p(n/2) for even n (halve every part) and subtracts 1 so
    as not to count the empty partition twice.
    """
    return _cached_parity(_check_size(n))[n]


def seqcong_ideal_exit(p: Partition) -> Partition:
    """Removal chain that pushes a sequentially congruent non-SA partition out of S.

    Finds a part not divisible by some smaller index k, drops everything after
    it and enough leading parts that it lands at position k; the result fails
    the closing divisibility there.
    """
    if not is_seq_congruent(p):
        raise DomainError("input must be sequentially congruent")
    for i, x in enumerate(p.parts, 1):
        for k in range(2, i + 1):
            if x % k:
                return Partition(p.parts[i - k:i])
    raise DomainError("partition is in the maximal ideal; every part divides out")


class SubidealRefutation(_Record):
    """The constructive obstruction to linking a length-capped SA subideal."""

    __slots__ = ("max_length", "modulus", "member", "member_in_subideal", "escalated",
                 "escalated_seq_congruent")


def linked_refutation_example(r: int) -> SubidealRefutation:
    """Instantiate the span-1 escalation for the length <= r subideal of SA.

    (m+2, 2) with m = lcm(1..r) is a member, which forces span 1 at tail (2);
    iterating the construction once more yields (2m+2, m+2, 2), which is not
    even sequentially congruent.  Needs r >= 2 (the argument uses index 3).
    """
    if r < 2:
        raise DomainError("the construction needs a length bound of at least 2")
    m = lcm(*range(1, r + 1))
    member, escalated = Partition((m + 2, 2)), Partition((2 * m + 2, m + 2, 2))
    return SubidealRefutation(r, m, member, IdealSpec("SA_maxlen", r).contains(member), escalated,
                              is_seq_congruent(escalated))
