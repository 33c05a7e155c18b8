"""The builtin ideal kinds: their rules, specs, the analysis bound and the report records.

An ideal here is a set of partitions closed under removing parts.  Each builtin kind is defined once, by a row of
``_KINDS`` holding one incremental test ``ok(t, i, v)``: may the part v follow the prefix t[:i]?  The test reads only
t[:i] and v, and answers for a member prefix t[:i] and v <= min(t[:i]).  Every kind but S is prefix-closed:
membership is the test's fold over a tuple's own positions (exact by induction).  On S every prefix of a member
passes the fold.  The row's *children rule* ``children(t, i, lo, top)``, top <= t[i-1], is the range of parts in
[lo, top] that the test takes: every walk of :mod:`seqcong.ideals` steps through it, so no engine tests a part its
kind refuses.  A row also declares a *summary*: what the test reads of a prefix besides its length and last part
(None when it reads nothing else; Adiff, which reads every gap, declares none).  Every row declares a *count series*,
which ``counting.count_members`` and ``member_counts`` read in place of the rule: the sum sides of D, R, Rprime, Adiff
and N_maxlen (one stair each), P_mod:k (the stairs -r(k - res), res = 1..k, scale k) and Pprime (r(res + r - 3),
res = 1, 2, scale 2), the product over the degrees i lcm(1..i) of SA and SA_maxlen, P_parity's one-parity series and
S's squares, both cached by ``counting``.  The rows, with i parts before v:

=============  ======  ========  ====================================================  =============================
kind           param   summary   part v may follow t[:i] when                          children in [lo, top]
=============  ======  ========  ====================================================  =============================
``SA``                 None      every integer from 2 to i + 1 divides v               the multiples of lcm(2..i+1)
``SA_maxlen``  r >= 1  None      i < r and the SA test holds (SA up to length r)       SA's while i < r, else none
``S``                            prefix rule v > i and v = t[i-1] mod i; a member's    above i, = t[i-1] mod i
                                 last part is also a multiple of its length (NOT an
                                 ideal)
``D``                  None      v < t[i-1] (distinct parts)                           below t[i-1]
``R``                  None      t[i-1] - v >= 2 (Rogers-Ramanujan gaps)               below t[i-1] - 1
``Rprime``             None      v > i (no parts below the Durfee square)              above i
``Adiff``                        t[i-1] - v >= 1 and t[j-1] - t[j] >= i + 1 - j for 0  below t[i-1]; none when a gap
                                 < j < i (j-th difference from the tail at least j)    of t[:i] fails
``N_maxlen``   n >= 0  None      i < n (length at most n)                              all while i < n, else none
``P_parity``           t[0] % 2  v = t[0] mod 2 (all parts of one parity)              = t[0] mod 2
``P_mod``      k >= 2  t[0] % k  v = t[0] mod k (all parts congruent mod k)            = t[0] mod k
``Pprime``             t[0] % 2  v < t[i-1] and v = t[0] mod 2 (one parity, distinct)  below t[i-1], = t[0] mod 2
=============  ======  ========  ====================================================  =============================

A condition on t[i-1] or t[0] holds for the first part (i = 0), whose children are all of [lo, top].

The bound and the reports are frozen slotted records (see ``_Record``): they compare and hash by their fields,
print like dataclasses, refuse assignment, copy and pickle, and write their JSON by one rule on their fields.

Running this module runs only ``errors``, so building a spec or a bound runs neither the engines nor ``counting``:
an S spec binds its member test from ``bijections`` when it is built, a record reaches ``Partition`` only when it
writes JSON, and a count series reads ``seqcong.counting`` only when a count runs.
"""

from __future__ import annotations

from functools import partial
from itertools import takewhile
from math import lcm
from operator import mul

import seqcong  # the package: a submodule read through it runs at that first read, not here
from .errors import DomainError


# ---- the kinds: one incremental test and one children rule each ----------

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


def _adiff_children(t, i, lo, top):
    for j in range(1, i):  # the gaps of t[:i], read once per prefix and not once per part
        if t[j - 1] - t[j] < i + 1 - j:
            return ()
    return range(lo, min(top + 1, t[i - 1]) if i else top + 1)


def _seqcong_prefix_ok(t, i, v):
    # a member of S with r parts has every part >= r, its last a multiple of r
    return not i or (v > i and (t[i - 1] - v) % i == 0)


def _step(lo, stop, k, r=0):
    # the integers in [lo, stop) congruent to r mod k
    return range(lo + (r - lo) % k, stop, k)


def _sa_children(r=None):
    # the multiples of lcm(2..i+1), while i < r when a length cap r is given
    return lambda t, i, lo, top: _step(lo, top + 1, lcm(*range(2, i + 2))) if r is None or i < r else ()


def _seqcong_prefix_children(t, i, lo, top):
    return _step(max(lo, i + 1), top + 1, i, t[i - 1]) if i else range(lo, top + 1)


def _congruent(k, distinct=False):
    # the parts congruent to the first mod k, below the last part when distinct
    return lambda t, i, lo, top: (_step(lo, min(top + 1, t[i - 1]) if distinct else top + 1, k, t[0]) if i
                                  else range(lo, top + 1))


def _blank(_):
    # a summary that tells no two prefixes apart
    return lambda t: None


def _first_mod(k):
    return lambda t: t[0] % k


def _staircase(size):
    # a count series by the sum side: less size(param, r), a member with r parts is a partition into exactly r parts
    return lambda spec, upto: seqcong.counting._sum_side(spec, upto, (lambda r: size(spec.param, r),))


def _mod_counts(spec, upto):
    # take res from each of m parts = res mod k, then divide by k: a partition into m parts, on the stair m(res - k)
    k = spec.param
    return seqcong.counting._sum_side(spec, upto, (partial(mul, res - k) for res in range(1, min(k, upto) + 1)), k)


def _sa_counts(spec, upto):
    # part i less part i + 1 is c_i lcm(1..i), so a member of size n is a partition of n into the parts i lcm(1..i)
    seqcong.counting._refuse_series(upto, f"{spec} ")
    degrees = list(takewhile(upto.__ge__, (i * lcm(*range(1, i + 1)) for i in range(1, (spec.param or upto) + 1))))
    seqcong.counting._refuse_cells(spec, upto, sum(upto + 1 - d for d in degrees))
    return list(seqcong.counting.CountSeries.from_degrees(degrees, upto).coefficients)


def _psi_counts(_, upto):
    """S's count series, also ``is_seq_congruent``'s: by psi, its members of size n <-> the partitions into squares."""
    return seqcong.counting._cached_series(2, upto)


# kind -> (least parameter, or None when the kind takes none;
#          parameter -> incremental test ok(t, i, v): S's prefix rule, which every prefix of a member passes;
#          parameter -> summary of a nonempty prefix (None: the kind declares none); parameter -> children rule;
#          count series (spec, upto) -> a list starting with the member counts of sizes 0..upto, which may be a
#          cached list that callers must not change)
_KINDS = {
    "SA": (None, lambda _: _sa_ok, _blank, _sa_children, _sa_counts),
    "SA_maxlen": (1, lambda r: lambda t, i, v: i < r and _sa_ok(t, i, v), _blank, _sa_children, _sa_counts),
    "S": (None, lambda _: _seqcong_prefix_ok, None, lambda _: _seqcong_prefix_children, _psi_counts),
    "D": (None, lambda _: lambda t, i, v: not i or v < t[i - 1], _blank,
          lambda _: lambda t, i, lo, top: range(lo, min(top + 1, t[i - 1]) if i else top + 1),
          _staircase(lambda _, r: r * (r - 1) // 2)),
    "R": (None, lambda _: lambda t, i, v: not i or t[i - 1] - v >= 2, _blank,
          lambda _: lambda t, i, lo, top: range(lo, min(top + 1, t[i - 1] - 1) if i else top + 1),
          _staircase(lambda _, r: r * (r - 1))),
    "Rprime": (None, lambda _: lambda t, i, v: v > i, _blank,
               lambda _: lambda t, i, lo, top: range(max(lo, i + 1), top + 1), _staircase(lambda _, r: r * (r - 1))),
    "Adiff": (None, lambda _: _adiff_ok, None, lambda _: _adiff_children,
              _staircase(lambda _, r: (r + 1) * r * (r - 1) // 6)),
    "N_maxlen": (0, lambda n: lambda t, i, v: i < n, _blank,
                 lambda n: lambda t, i, lo, top: range(lo, top + 1) if i < n else (),
                 _staircase(lambda n, r: 0 if r <= n else None)),
    "P_parity": (None, lambda _: lambda t, i, v: not i or (t[0] - v) % 2 == 0, lambda _: _first_mod(2),
                 lambda _: _congruent(2), lambda _, upto: seqcong.counting._cached_parity(upto)),
    "P_mod": (2, lambda k: lambda t, i, v: not i or (t[0] - v) % k == 0, _first_mod, _congruent, _mod_counts),
    "Pprime": (None, lambda _: lambda t, i, v: not i or (v < t[i - 1] and (t[0] - v) % 2 == 0),
               lambda _: _first_mod(2), lambda _: _congruent(2, True),
               # less res, res + 2, ..., res + 2(m - 1) and halved, m distinct parts = res mod 2 are a partition
               lambda spec, upto: seqcong.counting._sum_side(
                   spec, upto, (lambda m: m * (m - 2), lambda m: m * (m - 1)), 2)),
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


def _fold_from(ok, t, start):
    """Whether t is a member, given that t[:start] is: the fold of ``ok`` over the later positions."""
    for i in range(start, len(t)):
        if not ok(t, i, t[i]):
            return False
    return True


class IdealSpec:
    """A named builtin partition family, possibly with one integer parameter.

    ``_member(t)`` decides membership of a partition tuple and
    ``_child_ok(t, i, v)`` is the kind's incremental test: ``_member`` is its
    fold on a prefix-closed kind, and on S every member passes the fold.
    ``_children(t, i, lo, top)`` is the range of parts in [lo, top] that the
    test takes after t[:i], the engines' only way to a prefix's children.
    ``_summary(t)``, when the kind declares one, is what the test reads of a
    nonempty member prefix t besides its length and last part.  ``_counts(spec,
    upto)``, the kind's count series, starts with its member counts of sizes 0..upto.
    """

    __slots__ = ("kind", "param", "_member", "_child_ok", "_children", "_summary", "_counts", "prefix_closed")

    def __init__(self, kind: str, param: int | None = None):
        if kind not in _KINDS:
            raise DomainError(f"unknown ideal kind {kind!r}; choose from {', '.join(_KINDS)}")
        least, test, summary, children, self._counts = _KINDS[kind]
        if least is not None:
            if param is None:
                raise DomainError(f"kind {kind} needs an integer parameter")
            if type(param) is not int:
                raise DomainError(f"parameter for {kind} must be an integer, got {param!r}")
            if param < least:
                raise DomainError(f"parameter for {kind} must be at least {least}")
        elif param is not None:
            raise DomainError(f"kind {kind} takes no parameter")
        self.kind, self.param = kind, param
        self._child_ok, self._children, self.prefix_closed = test(param), children(param), kind != "S"
        self._member = _fold(self._child_ok) if self.prefix_closed else seqcong.bijections._is_congruent
        self._summary = None if summary is None else summary(param)

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

    def __reduce__(self):
        # the kind's test is a closure, so copies and pickles rebuild it from kind and parameter
        return IdealSpec, (self.kind, self.param)

    def __str__(self) -> str:
        return self.kind if self.param is None else f"{self.kind}:{self.param}"

    def __repr__(self) -> str:
        return f"IdealSpec({str(self)!r})"


def is_member(spec: IdealSpec, p: Partition) -> bool:
    """Kind-specific membership; the empty partition belongs to every kind."""
    return spec.contains(p)


class _Record:
    """A frozen record whose fields are its class's ``__slots__``, in order.

    Fields are given by position or keyword, ``_defaults`` holding the optional
    ones.  Records compare and hash by class and field values, print as
    ``Name(field=value, ...)``, refuse assignment and deletion, and copy and
    pickle by their field values.
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

    def to_json_dict(self) -> dict:
        """The fields in order, keyed by ``_JSON_KEYS`` and valued by ``_json``; an optional one left out when None."""
        return {_JSON_KEYS.get(name, name): _json(value) for name, value in zip(self.__slots__, self._values())
                if value is not None or name not in self._defaults}


_JSON_KEYS = {"spec": "ideal", "growing": "growing_with_bound"}


def _json(value):
    """A field as JSON: a nested record with all its fields, a partition or tuple as a list, a spec as its tag."""
    if isinstance(value, _Record):
        return {name: _json(v) for name, v in zip(value.__slots__, value._values())}
    if isinstance(value, (tuple, seqcong.partition.Partition)):
        return [_json(v) for v in getattr(value, "parts", value)]
    return str(value) if isinstance(value, IdealSpec) else value


class AnalysisBound(_Record):
    """Search box for the exhaustive analyses: parts <= max_part, length <= max_length."""

    __slots__ = ("max_part", "max_length")

    def __init__(self, max_part: int, max_length: int):
        if type(max_part) is not int or type(max_length) is not int:
            raise TypeError(f"bounds must be integers, got {max_part!r} and {max_length!r}")
        if max_part < 1 or max_length < 1:
            raise ValueError("bounds must be at least 1")
        super().__init__(max_part, max_length)


def _positive(value, name: str) -> None:
    if type(value) is not int:
        raise TypeError(f"{name} must be an integer, got {value!r}")
    if value < 1:
        raise DomainError(f"{name} must be positive")
