"""Partition values and the basic operations on them.

A partition is a weakly decreasing tuple of positive integer parts; the empty
tuple is the empty partition.  All values are immutable and every operation is
a pure function, so everything here is safe to share between threads.

Parts are bounded by the signed 64-bit range.  Arithmetic that would push a
part past that bound raises ``OverflowError`` instead of silently producing a
huge Python integer; counts of partitions (which genuinely need arbitrary
precision) live in :mod:`seqcong.counting`.

Answers are bounded too.  A map whose output can be far longer than its input
(conjugation and the frequency form here, sigma, psi and the n-notation
decoder elsewhere) works out the output's length first and raises
``ResourceError`` when it exceeds ``MAX_OUTPUT_PARTS``, ten million parts; a
Young diagram is held to as many cells.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from .errors import ContainmentError, ResourceError

MAX_PART = 2**63 - 1
# Ten million parts take about 80 MB as a tuple, and as much again in the list
# the tuple is built from.
MAX_OUTPUT_PARTS = 10**7


class Partition:
    """A weakly decreasing sequence of positive parts.

    Parts beyond the length read as 0 through :meth:`part`, which mirrors the
    usual convention for formulas indexed past the last part.
    """

    __slots__ = ("parts",)

    def __init__(self, parts: Iterable[int] = ()):
        t = tuple(parts)
        prev = MAX_PART
        for x in t:
            if not isinstance(x, int) or isinstance(x, bool):
                raise TypeError(f"parts must be integers, got {x!r}")
            if x < 1:
                raise ValueError(f"parts must be positive, got {x}")
            if x > MAX_PART:
                raise OverflowError(f"part {x} exceeds the 64-bit part range")
            if x > prev:
                raise ValueError(f"parts must be weakly decreasing, got {t}")
            prev = x
        self.parts = t

    @classmethod
    def _of(cls, t: tuple[int, ...]) -> "Partition":
        """Wrap a tuple the library generated itself, skipping the checks.

        The caller guarantees that ``t`` is a tuple of plain ints, each at
        least 1 and at most MAX_PART, weakly decreasing.  Outside input goes
        through ``Partition(...)``.
        """
        p = object.__new__(cls)
        p.parts = t
        return p

    @property
    def size(self) -> int:
        return sum(self.parts)

    @property
    def largest(self) -> int:
        return self.parts[0] if self.parts else 0

    @property
    def smallest(self) -> int:
        return self.parts[-1] if self.parts else 0

    def part(self, i: int) -> int:
        """1-based part accessor; positions past the length read as 0."""
        if i < 1:
            raise IndexError("part positions are 1-based")
        return self.parts[i - 1] if i <= len(self.parts) else 0

    def is_empty(self) -> bool:
        return not self.parts

    def __len__(self) -> int:
        return len(self.parts)

    def __iter__(self) -> Iterator[int]:
        return iter(self.parts)

    def __getitem__(self, i):
        return self.parts[i]

    def __eq__(self, other) -> bool:
        if isinstance(other, Partition):
            return self.parts == other.parts
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.parts)

    def __lt__(self, other: "Partition") -> bool:
        return self.parts < other.parts

    def __le__(self, other: "Partition") -> bool:
        return self.parts <= other.parts

    def __repr__(self) -> str:
        return f"Partition({list(self.parts)!r})"

    def __str__(self) -> str:
        return "()" if not self.parts else "(" + ", ".join(map(str, self.parts)) + ")"


EMPTY = Partition()


def _check_largest(x: int) -> None:
    """Raise the OverflowError ``Partition(...)`` raises when a part passes MAX_PART."""
    if x > MAX_PART:
        raise OverflowError(f"part {x} exceeds the 64-bit part range")


def _check_output_length(n: int, unit: str = "parts") -> None:
    """Refuse an answer of n parts (or diagram cells) above MAX_OUTPUT_PARTS."""
    if n > MAX_OUTPUT_PARTS:
        raise ResourceError(f"the answer would have {n} {unit}, above the limit of {MAX_OUTPUT_PARTS}")


def _runs(values, mults) -> Partition:
    """values[i] repeated mults[i] times, once the length passes the check.

    The caller guarantees plain int values in [1, MAX_PART], strictly
    decreasing, and nonnegative int multiplicities, both as sequences.
    """
    _check_output_length(sum(mults))
    parts: list[int] = []
    for v, m in zip(values, mults):
        parts += [v] * m
    return Partition._of(tuple(parts))


class FrequencyMap:
    """Part-value -> multiplicity view of a partition.

    Zero frequencies are never stored; round-tripping through
    :meth:`to_partition` / :meth:`from_partition` is the identity.
    """

    __slots__ = ("entries",)

    def __init__(self, entries=()):
        d = dict(entries)
        for part, freq in d.items():
            if type(part) is not int and (type(part) is bool or not isinstance(part, int)) or part < 1:
                raise ValueError(f"part values must be positive integers, got {part!r}")
            if type(freq) is not int and (type(freq) is bool or not isinstance(freq, int)) or freq < 1:
                raise ValueError(f"frequencies must be positive integers, got {freq!r}")
        self.entries = dict(sorted(d.items()))

    @classmethod
    def from_partition(cls, p: Partition) -> "FrequencyMap":
        d: dict[int, int] = {}
        for x in p.parts:
            d[x] = d.get(x, 0) + 1
        return cls(d)

    def to_partition(self) -> Partition:
        values = list(reversed(self.entries))
        if values:
            _check_largest(values[0])
        return _runs(values, [self.entries[v] for v in values])

    def frequency(self, part: int) -> int:
        return self.entries.get(part, 0)

    def items(self):
        return self.entries.items()

    def __len__(self) -> int:
        return len(self.entries)

    def __eq__(self, other) -> bool:
        if isinstance(other, FrequencyMap):
            return self.entries == other.entries
        return NotImplemented

    def __repr__(self) -> str:
        return f"FrequencyMap({self.entries!r})"


def from_frequencies(pairs: Iterable[tuple[int, int]]) -> Partition:
    """Build a partition from (part, multiplicity) pairs; zero multiplicities allowed."""
    d: dict[int, int] = {}
    for value, mult in pairs:
        if mult < 0:
            raise ValueError("multiplicities must be nonnegative")
        if mult:
            d[value] = d.get(value, 0) + mult
    return FrequencyMap(d).to_partition()


def conjugate(p: Partition) -> Partition:
    """Conjugate partition, computed from the part-difference closed form.

    The conjugate has the part value i with multiplicity part(i) - part(i+1),
    for i from 1 to the length.  (The tests keep the diagram-transpose
    definition as its oracle.)
    """
    t = p.parts
    _check_output_length(t[0] if t else 0)
    parts: list[int] = []
    below = 0
    for i in range(len(t), 0, -1):
        parts += [i] * (t[i - 1] - below)
        below = t[i - 1]
    return Partition._of(tuple(parts))


def is_self_conjugate(p: Partition) -> bool:
    """Whether p equals its own conjugate, decided by the piecewise criterion.

    For each band of columns (part(k+1), part(k)] the partition must take the
    value k there; equivalently every part equals the matching column height.
    """
    r = len(p)
    for k in range(1, r + 1):
        lo, hi = p.part(k + 1), p.part(k)
        for i in range(lo + 1, hi + 1):
            if p.part(i) != k:
                return False
    return True


def star_add(a: Partition, b: Partition) -> Partition:
    """Componentwise sum of parts from the left (missing parts read as 0)."""
    n = max(len(a), len(b))
    return Partition(a.part(i) + b.part(i) for i in range(1, n + 1))


def scalar_mul(c: int, p: Partition) -> Partition:
    """Multiply every part by a nonnegative integer; c = 0 gives the empty partition."""
    if c < 0:
        raise ValueError("scalar must be nonnegative")
    if c == 0:
        return EMPTY
    return Partition(c * x for x in p.parts)


def oplus_merge(a: Partition, b: Partition) -> Partition:
    """Multiset union of the parts, re-sorted weakly decreasing."""
    return Partition(sorted(a.parts + b.parts, reverse=True))


def shift(p: Partition, m: int) -> Partition:
    """Add m to every part; the empty partition has no parts to shift."""
    if m < 0:
        raise ValueError("shift amount must be nonnegative")
    return Partition(x + m for x in p.parts)


def unshift(p: Partition, m: int) -> Partition:
    """Subtract m from every part (inverse of :func:`shift` where defined)."""
    if m < 0:
        raise ValueError("shift amount must be nonnegative")
    if p.parts and p.smallest <= m:
        raise ContainmentError(f"cannot subtract {m} from part {p.smallest}")
    return Partition(x - m for x in p.parts)


def tail(p: Partition, m: int) -> Partition:
    """The parts of p that are at most m, order preserved."""
    if m < 0:
        raise ValueError("tail cutoff must be nonnegative")
    return Partition(x for x in p.parts if x <= m)


def head_above(p: Partition, m: int) -> Partition:
    """The parts of p strictly greater than m (complement of :func:`tail`)."""
    return Partition(x for x in p.parts if x > m)


def durfee_size(p: Partition) -> int:
    """Side of the largest square fitting in the top-left of the diagram."""
    d = 0
    for i, x in enumerate(p.parts, 1):
        if x >= i:
            d = i
        else:
            break
    return d


def remove_parts(p: Partition, drop: FrequencyMap) -> Partition:
    """Delete the given multiset of parts from p.

    Raises ContainmentError if ``drop`` is not a sub-multiset of p's parts.
    """
    have = FrequencyMap.from_partition(p).entries
    remaining: list[int] = []
    for value, mult in drop.items():
        if have.get(value, 0) < mult:
            raise ContainmentError(f"cannot remove {mult} copies of part {value}")
    for value in sorted(have, reverse=True):
        remaining.extend([value] * (have[value] - drop.frequency(value)))
    return Partition(remaining)


CELL = "■"  # filled square glyph


def render_diagram(p: Partition) -> str:
    """Monospace Young diagram, one row per part, one cell glyph per box."""
    if p.is_empty():
        return "(empty)"
    _check_output_length(p.size, "cells")
    return "\n".join(" ".join([CELL] * x) for x in p.parts)
