"""Partition-ideal analysis: membership, closure, order, modulus, linking.

An ideal here is a set of partitions closed under removing parts.  Every
builtin kind but S is also prefix-closed (each prefix of a member is a member)
and is defined once, by a row of ``_KINDS`` holding one incremental test
``ok(t, i, v)``: may the part v follow the prefix t[:i]?  The test reads only
t[:i] and v, and answers for a member prefix t[:i] and v <= min(t[:i]).
Membership is its fold over a tuple's own positions (exact by induction), and
the engines' walks prune on it directly.  The rows, with i parts before v:

=============  ========  ======================================================
kind           param     part v may follow t[:i] when
=============  ========  ======================================================
``SA``                   every integer from 2 to i + 1 divides v
``SA_maxlen``  r >= 1    i < r and the SA test holds (SA capped at length r)
``S``                    no test: sequentially congruent, NOT an ideal (kept
                         for refutation runs)
``D``                    v < t[i-1] (distinct parts)
``R``                    t[i-1] - v >= 2 (Rogers-Ramanujan gaps)
``Rprime``               v > i (no parts below the Durfee square)
``Adiff``                t[i-1] - v >= 1 and t[j-1] - t[j] >= i + 1 - j for
                         0 < j < i (j-th difference from the tail at least j)
``N_maxlen``   n >= 0    i < n (length at most n)
``P_parity``             v = t[0] mod 2 (all parts of one parity)
``P_mod``      k >= 2    v = t[0] mod k (all parts congruent mod k)
``Pprime``               v < t[i-1] and v = t[0] mod 2 (one parity, distinct)
=============  ========  ======================================================

A condition on t[i-1] or t[0] holds for the first part (i = 0).

Every analysis is exhaustive within an :class:`AnalysisBound` (a parts-times-
length box) and reports bounded verdicts with explicit witnesses, never an
unqualified "infinite".  Enumeration orders are fixed, so reports are
deterministic.  The bound and the reports are frozen slotted records (see
``_Record``): they compare and hash by their fields, print like dataclasses,
refuse assignment, and copy and pickle.
"""

from __future__ import annotations

from math import lcm

from .bijections import _congruence_failure_index, is_seq_congruent
from .counting import _cached_series, _check_size, count_all_partitions, iter_partition_tuples
from .errors import DomainError
from .partition import Partition


# ---------------------------------------------------------------------------
# the kinds: one incremental test each
# ---------------------------------------------------------------------------

def _sa_ok(t, i, v):
    # the part at 1-based index i + 1 is divisible by every integer up to it
    return all(v % j == 0 for j in range(2, i + 2))


def _adiff_ok(t, i, v):
    # each gap of t[:i] + (v,) is at least the number of parts after it
    if i and t[i - 1] - v < 1:
        return False
    for j in range(1, i):
        if t[j - 1] - t[j] < i + 1 - j:
            return False
    return True


# kind -> (least parameter, or None when the kind takes none;
#          parameter -> incremental test ok(t, i, v), or None for S)
_KINDS = {
    "SA": (None, lambda _: _sa_ok),
    "SA_maxlen": (1, lambda r: lambda t, i, v: i < r and _sa_ok(t, i, v)),
    "S": (None, None),
    "D": (None, lambda _: lambda t, i, v: not i or v < t[i - 1]),
    "R": (None, lambda _: lambda t, i, v: not i or t[i - 1] - v >= 2),
    "Rprime": (None, lambda _: lambda t, i, v: v > i),
    "Adiff": (None, lambda _: _adiff_ok),
    "N_maxlen": (0, lambda n: lambda t, i, v: i < n),
    "P_parity": (None, lambda _: lambda t, i, v: not i or (t[0] - v) % 2 == 0),
    "P_mod": (2, lambda k: lambda t, i, v: not i or (t[0] - v) % k == 0),
    "Pprime": (None, lambda _: lambda t, i, v: not i or (v < t[i - 1] and (t[0] - v) % 2 == 0)),
}


def _fold(ok):
    """Membership as the fold of ``ok`` over the tuple's own positions.

    Exact for a prefix-closed kind by induction: t[:i] is a member when
    position i is tested, and t[i] <= min(t[:i]).
    """
    def member(t):
        for i, v in enumerate(t):
            if not ok(t, i, v):
                return False
        return True
    return member


def _seqcong_member(t):
    return _congruence_failure_index(t) is None


class IdealSpec:
    """A named builtin partition family, possibly with one integer parameter.

    ``_member(t)`` decides membership of a partition tuple.  For prefix-closed
    kinds ``_child_ok(t, i, v)`` is the kind's incremental test and
    ``_member`` its fold; S has no incremental test.
    """

    __slots__ = ("kind", "param", "_member", "_child_ok", "prefix_closed")

    def __init__(self, kind: str, param: int | None = None):
        if kind not in _KINDS:
            raise DomainError(f"unknown ideal kind {kind!r}; choose from {', '.join(_KINDS)}")
        least, test = _KINDS[kind]
        if least is not None:
            if param is None:
                raise DomainError(f"kind {kind} needs an integer parameter")
            if type(param) is not int:
                raise DomainError(f"parameter for {kind} must be an integer, got {param!r}")
            if param < least:
                raise DomainError(f"parameter for {kind} must be at least {least}")
        elif param is not None:
            raise DomainError(f"kind {kind} takes no parameter")
        self.kind = kind
        self.param = param
        self._child_ok = ok = None if test is None else test(param)
        self.prefix_closed = ok is not None
        self._member = _fold(ok) if self.prefix_closed else _seqcong_member

    @classmethod
    def parse(cls, text: str) -> "IdealSpec":
        """Parse ``kind`` or ``kind:param``, e.g. ``R`` or ``SA_maxlen:2``."""
        if ":" in text:
            kind, _, raw = text.partition(":")
            try:
                param = int(raw)
            except ValueError:
                raise DomainError(f"bad ideal parameter in {text!r}") from None
            return cls(kind.strip(), param)
        return cls(text.strip())

    def contains(self, p: Partition) -> bool:
        return self._member(p.parts)

    def is_true_ideal(self) -> bool:
        """S is the one builtin that is not actually closed under removal."""
        return self.prefix_closed

    def __eq__(self, other) -> bool:
        if isinstance(other, IdealSpec):
            return (self.kind, self.param) == (other.kind, other.param)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.kind, self.param))

    def __str__(self) -> str:
        return self.kind if self.param is None else f"{self.kind}:{self.param}"

    def __repr__(self) -> str:
        return f"IdealSpec({str(self)!r})"


def is_member(spec: IdealSpec, p: Partition) -> bool:
    """Kind-specific membership; the empty partition belongs to every kind."""
    return spec.contains(p)


class _Record:
    """A frozen record whose fields are its class's ``__slots__``, in order.

    Fields are given by position or keyword; ``_defaults`` holds the values of
    the optional ones.  Records of one class are equal, and hash alike, when
    their field values are; the repr is ``Name(field=value, ...)``.  Fields
    cannot be assigned or deleted, and copy and pickle rebuild the record
    from its field values.
    """

    __slots__ = ()
    _defaults: dict = {}

    def __init__(self, *args, **kwargs):
        names = self.__slots__
        values = {**self._defaults, **dict(zip(names, args)), **kwargs}
        if len(args) > len(names) or values.keys() != set(names) or kwargs.keys() & set(names[:len(args)]):
            raise TypeError(f"{type(self).__name__} takes the fields {names}, got {args!r} and {kwargs!r}")
        for name in names:
            object.__setattr__(self, name, values[name])

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._values()


class AnalysisBound(_Record):
    """Search box for the exhaustive analyses: parts <= max_part, length <= max_length."""

    __slots__ = ("max_part", "max_length")

    def __init__(self, max_part: int, max_length: int):
        if type(max_part) is not int or type(max_length) is not int:
            raise TypeError(f"bounds must be integers, got {max_part!r} and {max_length!r}")
        if max_part < 1 or max_length < 1:
            raise ValueError("bounds must be at least 1")
        super().__init__(max_part, max_length)


def _report_json(spec: IdealSpec, bound: AnalysisBound, modulus: int | None = None, **fields) -> dict:
    """A report's JSON: ``ideal``, ``modulus`` (when given) and ``bound``, then ``fields``."""
    d = {"ideal": str(spec)}
    if modulus is not None:
        d["modulus"] = modulus
    d["bound"] = {"max_part": bound.max_part, "max_length": bound.max_length}
    d.update(fields)
    return d


# ---------------------------------------------------------------------------
# member enumeration
# ---------------------------------------------------------------------------

def _walk(accept, max_part: int, max_length: int, min_part: int = 1):
    """Box tuples whose every prefix passes ``accept(prefix, len(prefix), part)``, in prefix order.

    Parts lie in [min_part, max_part] and are tried largest first; each tuple
    comes before its extensions, starting with ().  Walked with a prefix-closed
    kind's ``_child_ok`` it yields exactly the kind's members in the box.  The
    stack is explicit, so no length meets the recursion limit, and a tuple's
    children are tested only after it is yielded, so callers may tighten
    ``accept`` as they go.
    """
    stack = [()]
    while stack:
        t = stack.pop()
        yield t
        n = len(t)
        if n < max_length:
            top = t[-1] if t else max_part
            # smallest first, so the largest part pops first
            stack.extend([t + (v,) for v in range(min_part, top + 1) if accept(t, n, v)])


def _by_size(max_part: int, max_length: int, keep):
    """Box tuples passing ``keep``, by increasing size, reverse lexicographic within a size."""
    return (
        t
        for n in range(max_part * max_length + 1)
        for t in iter_partition_tuples(n, max_part, max_length)
        if keep(t)
    )


def _member_tuples(spec: IdealSpec, max_part: int, max_length: int):
    """Members in the box: walked for prefix-closed kinds, scanned by size for S."""
    if spec.prefix_closed:
        return _walk(spec._child_ok, max_part, max_length)
    return _by_size(max_part, max_length, spec._member)


def _size_revlex(t):
    return (sum(t), tuple(-x for x in t))


def members_within(spec: IdealSpec, bound: AnalysisBound) -> list[Partition]:
    """All members inside the bound box: prefix order for prefix-closed kinds, by size for S."""
    return [Partition._of(t) for t in _member_tuples(spec, bound.max_part, bound.max_length)]


# ---------------------------------------------------------------------------
# closure under part removal
# ---------------------------------------------------------------------------

class ClosureReport(_Record):
    """Closure verdict; when not closed, the member ``witness`` that breaks it."""

    __slots__ = ("spec", "bound", "closed", "members_checked", "witness", "removed_part", "after_removal")
    _defaults = dict.fromkeys(("witness", "removed_part", "after_removal"))

    def to_json_dict(self):
        d = _report_json(self.spec, self.bound, closed=self.closed, members_checked=self.members_checked)
        if self.witness is not None:
            d["witness"] = list(self.witness.parts)
            d["removed_part"] = self.removed_part
            d["after_removal"] = list(self.after_removal.parts)
        return d


def check_ideal_closure(spec: IdealSpec, bound: AnalysisBound) -> ClosureReport:
    """Verify every member in the box stays a member when any single part is removed.

    Single-part removal suffices: removing several parts is a chain of single
    removals.  The first counterexample in enumeration order is reported.
    Prefix-closed kinds are walked in prefix order, and the removals of
    t + (v,) are those s of its parent t, each already passed, with v
    appended, then t itself.  One call ``_child_ok(s, len(s), v)`` decides
    s + (v,) exactly, since membership is the fold of that test: closure
    certifies the kind's test.  S is scanned by increasing size (reverse
    lexicographic within a size), so its witness is the smallest in (size,
    revlex) order, and each removal is decided by membership.
    """
    checked = 0
    if not spec.prefix_closed:
        for t in _by_size(bound.max_part, bound.max_length, spec._member):
            checked += 1
            for j, v in enumerate(t):  # one removal per distinct part value
                smaller = t[:j] + t[j + 1:]
                if (not j or t[j - 1] != v) and not spec._member(smaller):
                    return ClosureReport(spec, bound, False, checked, Partition(t), v, Partition(smaller))
        return ClosureReport(spec, bound, True, checked)
    ok, cap = spec._child_ok, bound.max_length
    removals_at: list[list] = [[]]  # removals of the latest walked tuple of each length below cap
    for t in _walk(ok, bound.max_part, cap):
        checked += 1
        n = len(t)
        if not n:
            continue
        # the latest tuple one shorter than t is its parent; its removals have
        # n - 2 parts, and when v repeats, the last one plus v is the parent
        v, parent_removals = t[-1], removals_at[n - 1]
        new = n == 1 or t[-2] != v
        for u, s in parent_removals if new else parent_removals[:-1]:
            if not ok(s, n - 2, v):
                return ClosureReport(spec, bound, False, checked, Partition(t), u, Partition(s + (v,)))
        if n < cap:  # a tuple at the cap has no children to carry removals to
            removals = [(u, s + (v,)) for u, s in parent_removals]
            if new:
                removals.append((v, t[:-1]))
            del removals_at[n:]
            removals_at.append(removals)
    return ClosureReport(spec, bound, True, checked)


# ---------------------------------------------------------------------------
# order and weak order
# ---------------------------------------------------------------------------

class OrderReport(_Record):
    """``order``: smallest window width with no refutation, or None when ``growing``
    (evidence the true order grows with the bound); every width up to
    ``refuted_up_to`` was refuted.
    """

    __slots__ = ("spec", "bound", "weak", "order", "growing", "refuted_up_to", "last_witness")
    _defaults = {"last_witness": None}

    def to_json_dict(self):
        d = _report_json(self.spec, self.bound, weak=self.weak, order=self.order,
                         growing_with_bound=self.growing, refuted_up_to=self.refuted_up_to)
        if self.last_witness is not None:
            d["last_witness"] = list(self.last_witness.parts)
        return d


def _integer_windows(t, k, max_part):
    """Sub-partitions keeping k consecutive integer values' frequencies."""
    if not t:
        return
    lo = max(1, t[-1] - k + 1)
    for m in range(lo, t[0] + 1):
        hi = m + k - 1
        yield tuple(x for x in t if m <= x <= hi)


def _present_windows(t, k, max_part):
    """Sub-partitions keeping k consecutive present part values."""
    if not t:
        return
    values = sorted(set(t), reverse=True)
    for m in range(len(values)):
        window = set(values[m:m + k])
        yield tuple(x for x in t if x in window)


def _order_refute(spec, k, bound, windows):
    """The smallest non-member in (size, revlex) order whose k-windows are all members.

    Prefix-closed kinds are walked, pruned to members and to tuples whose
    windows are all members.  A window of a prefix is a prefix of the same
    window of the whole tuple, so every prefix of a witness passes the window
    test and the pruning loses no witness.  The walk is capped by size, the
    cap doubling until a witness turns up or nothing was cut; within a walk a
    witness lowers the cap to its own size.  S is scanned by size.
    """
    member = spec._member
    max_part = bound.max_part

    def windows_ok(t):
        return all(member(w) for w in windows(t, k, max_part))

    if not spec.prefix_closed:
        t = next(_by_size(max_part, bound.max_length, lambda t: not member(t) and windows_ok(t)), None)
        return None if t is None else Partition(t)

    def accept(t, i, v):
        nonlocal cut
        if sum(t) + v > cap:
            cut = True
            return False
        c = t + (v,)
        return member(c) or windows_ok(c)

    best, cap, cut = None, 0, True
    while best is None and cut:
        cap, cut = 2 * cap + 1, False
        for t in _walk(accept, max_part, bound.max_length):
            if not member(t) and (best is None or _size_revlex(t) < _size_revlex(best)):
                best, cap = t, sum(t)
    return None if best is None else Partition(best)


def order_refute(spec: IdealSpec, k: int, bound: AnalysisBound) -> Partition | None:
    """Search for a non-member whose every k-wide frequency window is a member.

    Such a witness shows the order exceeds k.  The witness reported is the
    smallest in (size, revlex) order: by size, then reverse lexicographic
    within a size, so the report is deterministic.  Prefix-closed kinds are
    walked, pruned to tuples whose windows are all members; S is scanned by
    size.  None means no witness exists within the bound.
    """
    if k < 1:
        raise DomainError("window width must be positive")
    return _order_refute(spec, k, bound, _integer_windows)


def weak_order_refute(spec: IdealSpec, k: int, bound: AnalysisBound) -> Partition | None:
    """Same search with windows over k consecutive present parts."""
    if k < 1:
        raise DomainError("window width must be positive")
    return _order_refute(spec, k, bound, _present_windows)


def _estimate(spec, bound, windows, weak):
    last = None
    for k in range(1, bound.max_part):
        w = _order_refute(spec, k, bound, windows)
        if w is None:
            if last is not None and (
                last.largest + (k - 1) > bound.max_part or len(last) >= bound.max_length
            ):
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


# ---------------------------------------------------------------------------
# modulus
# ---------------------------------------------------------------------------

class ModulusReport(_Record):
    """Modulus verdict; ``direction`` is "shift-escapes" or "unshift-escapes"."""

    __slots__ = ("spec", "modulus", "bound", "holds", "witness", "direction")
    _defaults = dict.fromkeys(("witness", "direction"))

    def to_json_dict(self):
        d = _report_json(self.spec, self.bound, self.modulus, holds=self.holds)
        if self.witness is not None:
            d["witness"] = list(self.witness.parts)
            d["direction"] = self.direction
        return d


def check_modulus(spec: IdealSpec, m: int, bound: AnalysisBound) -> ModulusReport:
    """Check that adding m to every part maps the ideal onto its members above m.

    Two directions, both exhaustive within the bound: every member shifted by
    m must stay a member, and every member whose parts all exceed m must come
    from a member by shifting.  The first failing partition is reported.
    """
    if m < 1:
        raise DomainError("modulus must be positive")
    member = spec._member
    for p in members_within(spec, bound):
        t = p.parts
        up = tuple(x + m for x in t)
        if not member(up):
            return ModulusReport(spec, m, bound, False, p, "shift-escapes")
        if t and t[-1] > m and not member(tuple(x - m for x in t)):
            return ModulusReport(spec, m, bound, False, p, "unshift-escapes")
    return ModulusReport(spec, m, bound, True)


# ---------------------------------------------------------------------------
# L-sets and the layer decomposition
# ---------------------------------------------------------------------------

class LSetReport(_Record):
    """``truncated``: a member hit the length cap, bounded evidence of an infinite set."""

    __slots__ = ("spec", "modulus", "bound", "members", "truncated")

    def to_json_dict(self):
        return _report_json(self.spec, self.bound, self.modulus,
                            members=[list(p.parts) for p in self.members], truncated=self.truncated)


def compute_L(spec: IdealSpec, m: int, bound: AnalysisBound) -> LSetReport:
    """Members with every part at most m, sorted by size then reverse lexicographic.

    Enumeration stops at the bound's length cap; reaching the cap is reported
    as ``truncated`` (bounded evidence that the set is infinite).
    """
    if m < 1:
        raise DomainError("modulus must be positive")
    tuples = sorted(_member_tuples(spec, min(m, bound.max_part), bound.max_length), key=_size_revlex)
    truncated = any(len(t) >= bound.max_length for t in tuples)
    return LSetReport(spec, m, bound, tuple(map(Partition._of, tuples)), truncated)


def andrews_decompose(p: Partition, m: int) -> list[Partition]:
    """Split into layers: parts in ((i-1)m, im], each reduced by (i-1)m.

    Interior empty layers are kept so composition can re-shift by position;
    trailing empties are trimmed.  The empty partition gives no layers.
    """
    if m < 1:
        raise DomainError("layer width must be positive")
    if p.is_empty():
        return []
    layers = -(-p.largest // m)
    buckets: list[list[int]] = [[] for _ in range(layers)]
    for x in p.parts:
        i = (x - 1) // m
        buckets[i].append(x - i * m)
    return [Partition(b) for b in buckets]


def andrews_compose(pieces: list[Partition], m: int) -> Partition:
    """Inverse of :func:`andrews_decompose`: overlay layer i shifted up by (i-1)m."""
    if m < 1:
        raise DomainError("layer width must be positive")
    parts: list[int] = []
    for i, piece in enumerate(pieces):
        parts.extend(x + i * m for x in piece.parts)
    return Partition(sorted(parts, reverse=True))


# ---------------------------------------------------------------------------
# linked-ideal inference
# ---------------------------------------------------------------------------

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
        for e in self.entries:
            if e.element == p:
                return e
        return None

    def to_json_dict(self):
        d = _report_json(
            self.spec, self.bound, self.modulus,
            verdict=self.verdict,
            L_set=[list(p.parts) for p in self.L_set],
            entries=[
                {
                    "element": list(e.element.parts),
                    "span": e.span,
                    "linking_set": None if e.linking_set is None else [list(q.parts) for q in e.linking_set],
                    "witness": None if e.witness is None else list(e.witness.parts),
                    "reason": e.reason,
                }
                for e in self.entries
            ],
        )
        if self.witness is not None:
            d["witness"] = list(self.witness.parts)
        if self.reason is not None:
            d["reason"] = self.reason
        return d


def _tail_tuple(t, m):
    return tuple(x for x in t if x <= m)


def _remainders(spec, m, bound, tails):
    """Per tail, the partitions into parts > m completing it to a member, by (size, revlex).

    ``bigs + tail`` is a member only if its prefix ``bigs`` is, so for a
    prefix-closed kind one walk over the members with parts > m serves every
    tail; S scans the box once per tail.
    """
    member = spec._member
    if not spec.prefix_closed:
        return {
            pi: list(_by_size(bound.max_part, bound.max_length - len(pi),
                              lambda bigs: all(x > m for x in bigs) and member(bigs + pi)))
            for pi in tails
        }
    pool = sorted(_walk(spec._child_ok, bound.max_part, bound.max_length, m + 1), key=_size_revlex)
    return {
        pi: [bigs for bigs in pool if len(bigs) + len(pi) <= bound.max_length and member(bigs + pi)]
        for pi in tails
    }


def infer_linking(spec: IdealSpec, m: int, bound: AnalysisBound, span_cap: int = 4) -> LinkReport:
    """Search for spans and linking sets that tie tails to shifted remainders.

    For each small member pi (all parts <= m) the goal is a span l and a
    linking set of tails such that: a partition with tail pi is a member
    exactly when its remaining parts, shifted down by l*m, form a member whose
    tail lies in the linking set.  For a fixed l the smallest workable linking
    set is forced (the tails actually realized by members), so the search only
    chooses l: the largest feasible span up to ``span_cap`` that survives the
    exhaustive check wins, matching the spans quoted for the classical
    examples.  Any element with no workable span refutes linkedness; the
    violating construction is reported.
    """
    if m < 1:
        raise DomainError("modulus must be positive")
    if span_cap < 1:
        raise DomainError("span cap must be positive")
    member = spec._member

    mod_report = check_modulus(spec, m, bound)
    if not mod_report.holds:
        return LinkReport(
            spec, m, bound, "refuted",
            witness=mod_report.witness,
            reason=f"no modulus {m} within bound ({mod_report.direction})",
        )

    lset = compute_L(spec, m, bound)
    if lset.truncated:
        return LinkReport(spec, m, bound, "L-infinite-within-bound", L_set=lset.members,
                          reason="small-part members still appear at the length cap")

    bigs_by_tail = _remainders(spec, m, bound, [p.parts for p in lset.members])

    entries: list[LinkEntry] = []
    first_bad: LinkEntry | None = None
    for pi in lset.members:
        remainders = bigs_by_tail[pi.parts]
        nonempty = [b for b in remainders if b]
        max_l = span_cap
        if nonempty:
            min_big = min(b[-1] for b in nonempty)
            max_l = min(span_cap, (min_big - 1) // m)
        entry = None
        fallback = None
        for l in range(max_l, 0, -1):
            shift = l * m
            forced: list[tuple] = []
            seen = set()
            bad = None
            for bigs in remainders:
                rem = tuple(x - shift for x in bigs)
                if not member(rem):
                    bad = LinkEntry(pi, witness=Partition(bigs + pi.parts), reason=(
                        f"member remainder shifted down by {shift} leaves the ideal"))
                    break
                key = _tail_tuple(rem, m)
                if key not in bigs_by_tail:
                    bad = LinkEntry(pi, witness=Partition(bigs + pi.parts), reason=(
                        "member remainder's tail is outside the small-member set"))
                    break
                if key not in seen:
                    seen.add(key)
                    forced.append(key)
            if bad is not None:
                fallback = bad
                continue
            forced.sort(key=_size_revlex)
            violation = None
            for tau in forced:
                for bigs in bigs_by_tail[tau]:
                    # bigs > m >= tau parts, so the concatenations stay sorted
                    built = tuple(x + shift for x in bigs + tau) + pi.parts
                    if not member(built):
                        violation = LinkEntry(pi, witness=Partition(built), reason=(
                            f"tail {Partition(tau)} with span {l} builds a non-member"))
                        break
                if violation is not None:
                    break
            if violation is None:
                entry = LinkEntry(pi, span=l, linking_set=tuple(Partition(t) for t in forced))
                break
            fallback = violation
        if entry is None:
            entry = fallback if fallback is not None else LinkEntry(
                pi, witness=None, reason="no feasible span")
            if first_bad is None:
                first_bad = entry
        entries.append(entry)

    if first_bad is not None:
        return LinkReport(spec, m, bound, "refuted", L_set=lset.members, entries=tuple(entries),
                          witness=first_bad.witness, reason=first_bad.reason)
    return LinkReport(spec, m, bound, "linked-within-bound", L_set=lset.members, entries=tuple(entries))


# ---------------------------------------------------------------------------
# counting and the constructive counterexamples
# ---------------------------------------------------------------------------

def count_parity_ideal(n: int) -> int:
    """Partitions of n with all parts of one parity.

    Coefficient of q^n in the odd-part product, plus p(n/2) for even n (halve
    every part), minus 1 to stop counting the empty partition twice.
    """
    _check_size(n)
    odd = _cached_series(("parity", 1), lambda m: range(1, m + 1, 2), n)
    return odd[n] + (0 if n % 2 else count_all_partitions(n // 2)) - (1 if n == 0 else 0)


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
    sub = IdealSpec("SA_maxlen", r)
    member = Partition((m + 2, 2))
    escalated = Partition((2 * m + 2, m + 2, 2))
    return SubidealRefutation(
        max_length=r,
        modulus=m,
        member=member,
        member_in_subideal=sub.contains(member),
        escalated=escalated,
        escalated_seq_congruent=is_seq_congruent(escalated),
    )
