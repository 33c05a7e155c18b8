"""Enumerators, member counts and generating-function coefficients.

The enumerators list partitions in reverse lexicographic order,
duplicate-free: an iterative generator over all partitions of n with
optional part/length caps, and a pruned walk over the members of size n of a
prefix-closed ideal.  Counts are plain Python integers, so they stay exact
however large the coefficients grow.
"""

from __future__ import annotations

import threading
from math import isqrt
from typing import Callable, Iterable, Iterator

from .bijections import pi_map, psi_inverse
from .errors import DomainError
from .partition import MAX_PART, Partition


def iter_partition_tuples(
    n: int, max_part: int | None = None, max_length: int | None = None
) -> Iterator[tuple[int, ...]]:
    """All partitions of n as tuples, reverse lexicographic, largest first.

    Parts are capped at ``max_part`` and lengths at ``max_length``; a cap
    below 1 leaves only the empty partition of 0.  Each step decrements the
    rightmost part whose suffix still fits the length cap and refills the
    suffix greedily (ZS1, Zoghbi & Stojmenovic 1998, with caps).  The parts
    are plain ints in the 64-bit part range, so the enumerators may wrap the
    tuples with ``Partition._of``.
    """
    for arg in (n, max_part, max_length):
        if arg is not None and type(arg) is not int:
            raise TypeError(f"n, max_part and max_length must be integers, got {arg!r}")
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n == 0:
        yield ()
        return
    cap = n if max_part is None else min(max_part, n)
    room = n if max_length is None else max_length
    if cap < 1 or room < 1 or n > cap * room:
        return
    if cap > MAX_PART:
        raise OverflowError(f"part {cap} exceeds the 64-bit part range")
    x: list[int] = []
    j, t, r = 0, n, cap  # refill x[j:] with sum t greedily, parts at most r
    while True:
        del x[j:]
        q, rem = divmod(t, r)
        x += [r] * q
        if rem:
            x.append(rem)
        h = j - 1 if r == 1 else len(x) - 1 - (rem == 1)  # the last part above 1
        yield tuple(x)
        while h >= 0 and x[h] == 2 and len(x) < room:
            x[h] = 1
            x.append(1)
            h -= 1
            yield tuple(x)
        if h < 0:
            return
        # The suffix from j, of sum t, still fits after x[j] drops to r
        # iff t <= r * (room - j).
        j = h
        t = x[h] + len(x) - 1 - h
        r = x[h] - 1
        while t > r * (room - j):
            j -= 1
            if j < 0:
                return
            t += x[j]
            r = x[j] - 1


def enumerate_partitions(n: int, max_part: int | None = None, max_length: int | None = None) -> list[Partition]:
    """Partitions of n in reverse lexicographic order."""
    return [Partition._of(t) for t in iter_partition_tuples(n, max_part, max_length)]


def _check_size(n: int) -> int:
    if type(n) is not int:
        raise TypeError(f"n must be an integer, got {n!r}")
    if n < 0:
        raise ValueError("n must be nonnegative")
    return n


def _size_walk(n: int, child_ok: Callable[[tuple[int, ...], int, int], bool]) -> Iterator[tuple[int, ...]]:
    """Partitions of n whose every prefix passes ``child_ok``, reverse lexicographic.

    ``child_ok(t, len(t), v)`` decides whether part v may follow the prefix t.
    The walk keeps an explicit stack and pushes the smallest part first, so
    the largest pops first and the order matches :func:`iter_partition_tuples`.
    """
    _check_size(n)
    stack = [((), n)]
    while stack:
        t, rest = stack.pop()
        if not rest:
            yield t
            continue
        i = len(t)
        for v in range(1, min(t[-1], rest) + 1 if t else rest + 1):
            if child_ok(t, i, v):
                stack.append((t + (v,), rest - v))


def iter_members_of_size(spec, n: int) -> Iterator[tuple[int, ...]]:
    """Members of size n of a prefix-closed spec, as tuples, reverse lexicographic.

    Every prefix of a member is a member, so pruning on the spec's incremental
    ``_child_ok`` test visits only member prefixes and yields exactly the
    members, in the order a filter over all partitions of n would.
    """
    if not getattr(spec, "prefix_closed", False):
        raise DomainError(f"{spec!r} is not prefix-closed; filter the partitions of n instead")
    return _size_walk(n, spec._child_ok)


def enumerate_with_parts_from(allowed: Iterable[int], n: int) -> list[Partition]:
    """Partitions of n using only the given part values, reverse lexicographic."""
    values = {v for v in allowed if 1 <= v <= n}
    return [Partition._of(t) for t in _size_walk(n, lambda t, i, v: v in values)]


def enumerate_seqcong_by_size(n: int) -> list[Partition]:
    """Sequentially congruent partitions of size n: psi_inverse of those into squares."""
    squares = [i * i for i in range(1, isqrt(_check_size(n)) + 1)]
    return sorted(map(psi_inverse, enumerate_with_parts_from(squares, n)), reverse=True)


def enumerate_seqcong_by_largest(n: int) -> list[Partition]:
    """Sequentially congruent partitions with largest part n: pi_map of the partitions of n."""
    return sorted(map(pi_map, enumerate_partitions(n)), reverse=True)


class CountSeries:
    """Coefficient prefix of a generating function, indexed from 0."""

    __slots__ = ("coefficients",)

    def __init__(self, coefficients: Iterable[int]):
        self.coefficients = tuple(coefficients)

    @classmethod
    def from_degrees(cls, degrees: Iterable[int], upto: int) -> "CountSeries":
        """Product of 1 / (1 - q^d) over the given degrees, coefficients 0..upto."""
        coeffs = [0] * (upto + 1)
        coeffs[0] = 1
        for d in sorted({d for d in degrees if 1 <= d <= upto}):
            for j in range(d, upto + 1):
                coeffs[j] += coeffs[j - d]
        return cls(coeffs)

    def __getitem__(self, n: int) -> int:
        return self.coefficients[n]

    def __len__(self) -> int:
        return len(self.coefficients)

    def __eq__(self, other) -> bool:
        if isinstance(other, CountSeries):
            return self.coefficients == other.coefficients
        return NotImplemented

    def __repr__(self) -> str:
        return f"CountSeries({list(self.coefficients)!r})"


_series_cache: dict[tuple, CountSeries] = {}
_series_lock = threading.Lock()


def _cached_series(key: tuple, degrees_for: Callable[[int], Iterable[int]], upto: int) -> CountSeries:
    with _series_lock:
        series = _series_cache.get(key)
        if series is None or len(series) <= upto:
            series = CountSeries.from_degrees(degrees_for(upto), upto)
            _series_cache[key] = series
        return series


def count_into_powers(n: int, k: int) -> int:
    """Number of partitions of n into perfect k-th powers (k = 1 counts all partitions)."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if k < 1:
        raise ValueError("k must be positive")
    series = _cached_series(("powers", k), lambda m: (i**k for i in range(1, m + 1)), n)
    return series[n]


def count_all_partitions(n: int) -> int:
    return count_into_powers(n, 1)


def count_members(pred, n: int) -> int:
    """Number of partitions of n satisfying a predicate.

    ``pred`` may be a callable on Partition or anything with a ``contains``
    method, such as an IdealSpec from :mod:`seqcong.ideals`.  A prefix-closed
    spec is counted by the member walk :func:`iter_members_of_size`; every
    other predicate, the non-ideal kind S included, is tested on each
    partition of n.
    """
    if getattr(pred, "prefix_closed", False):
        return sum(1 for _ in iter_members_of_size(pred, n))
    test = _as_predicate(pred)
    return sum(1 for t in iter_partition_tuples(n) if test(Partition._of(t)))


def enumerate_members(pred, n: int) -> list[Partition]:
    """Partitions of n satisfying a predicate, reverse lexicographic.

    Takes the same predicates as :func:`count_members` and walks
    prefix-closed specs the same way.
    """
    if getattr(pred, "prefix_closed", False):
        return [Partition._of(t) for t in iter_members_of_size(pred, n)]
    test = _as_predicate(pred)
    return [p for p in map(Partition._of, iter_partition_tuples(n)) if test(p)]


def _as_predicate(pred) -> Callable[[Partition], bool]:
    if callable(pred):
        return pred
    member = getattr(pred, "contains", None)
    if member is not None:
        return member
    raise TypeError(f"cannot interpret {pred!r} as a partition predicate")
