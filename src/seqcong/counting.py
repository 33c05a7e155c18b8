"""Enumerators, member counts and generating-function coefficients.

The enumerators list partitions in reverse lexicographic order,
duplicate-free: an iterative generator over all partitions of n with
optional part/length caps, and a pruned walk over the members of size n of a
prefix-closed ideal.  Counts are plain Python integers, so they stay exact
however large the coefficients grow.

Generating-function coefficients come from cached product series
prod_{d in D} 1/(1 - q^d).  The product DP builds a series once; a request
past its cached length extends it by Euler's divisor-sum recurrence
n*a(n) = sum_{k=1..n} sigma_D(k)*a(n-k), at O(n) per new coefficient.  A cost
rule on the cached length, the size asked and |D| rebuilds instead when that
is cheaper.
"""

from __future__ import annotations

import threading
from bisect import bisect_right
from itertools import count, takewhile
from math import isqrt
from operator import mul
from typing import Callable, Iterable, Iterator

from .bijections import pi_map, psi_inverse
from .errors import DomainError
from .partition import Partition, _check_largest


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
    _check_largest(cap)
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
    """Partitions of n using only the given part values, reverse lexicographic.

    The parts are the integers in 1..n equal to an allowed value.  A node
    tries only the values up to its last part and its rest, pushed smallest
    first so the largest pops first, as in :func:`iter_partition_tuples`.
    A child that takes the smallest value can only repeat it, so it is
    completed at once: when that value divides the rest, else dropped.
    """
    _check_size(n)
    values = sorted({int(v) for v in allowed if 1 <= v <= n and v == int(v)})
    found = []
    stack = [((), n, len(values))]  # prefix, rest, how many values fit under its last part
    while stack:
        t, rest, fit = stack.pop()
        if not rest:
            found.append(Partition._of(t))
            continue
        top = bisect_right(values, rest, 0, fit)
        if top and not rest % values[0]:
            stack.append((t + (values[0],) * (rest // values[0]), 0, 1))
        for j in range(1, top):
            stack.append((t + (values[j],), rest - values[j], j + 1))
    return found


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


# key -> (series, divisor sums): sigma[k] is the sum of the key's degrees
# that divide k.  Rebuilds keep sigma, which does not depend on the length.
_series_cache: dict[tuple, tuple[CountSeries, list[int]]] = {}
_series_lock = threading.Lock()


def _divisor_sums(sigma: list[int], degrees: list[int], upto: int) -> list[int]:
    """``sigma`` grown to index ``upto``: each of ``degrees``, every degree up
    to ``upto``, is added at its multiples past the old length."""
    lo = len(sigma)
    sigma = sigma + [0] * (upto + 1 - lo)
    for d in degrees:
        for j in range(-(-lo // d) * d, upto + 1, d):
            sigma[j] += d
    return sigma


def _cached_series(key: tuple, degrees_for: Callable[[int], Iterable[int]], upto: int) -> CountSeries:
    """The product over ``degrees_for(upto)`` to index ``upto``, cached by key.

    A longer request extends the cached series by the divisor-sum recurrence
    (Euler; Apostol 1976, ch. 14) unless a rebuild costs less.
    """
    with _series_lock:
        cached = _series_cache.get(key)
        if cached is not None and len(cached[0]) > upto:
            return cached[0]
        degrees = list(degrees_for(upto))
        size, sigma = (0, [0]) if cached is None else (len(cached[0]), cached[1])
        # Coefficient n costs the recurrence n dot-product terms, and a rebuild
        # costs one addition per degree and coefficient.  A term measured 0.7
        # (cubes at 4000) to 2.7 (all parts at 1000, longer coefficients)
        # additions; extend while the terms are at most the additions.
        if size and (upto + 1 - size) * (upto + size) <= 2 * len(degrees) * upto:
            if len(sigma) <= upto:  # grow ahead, so an ascent pays the degree loop O(log n) times
                sigma = _divisor_sums(sigma, list(degrees_for(2 * upto)), 2 * upto)
            a = list(cached[0].coefficients)
            for n in range(size, upto + 1):
                a.append(sum(map(mul, sigma[1 : n + 1], a[n - 1 :: -1])) // n)
            series = CountSeries(a)
        else:
            series = CountSeries.from_degrees(degrees, upto)
        _series_cache[key] = series, sigma
        return series


def _power_degrees(k: int, m: int) -> list[int]:
    """The k-th powers i**k <= m of the integers i >= 1, ascending."""
    if k == 1 or m < 2:
        return list(range(1, m + 1))
    if k >= m.bit_length():  # 2**k > m already
        return [1]
    return list(takewhile(lambda p: p <= m, (i**k for i in count(1))))


def count_into_powers(n: int, k: int) -> int:
    """Number of partitions of n into perfect k-th powers (k = 1 counts all partitions)."""
    _check_size(n)
    if type(k) is not int:
        raise TypeError(f"k must be an integer, got {k!r}")
    if k < 1:
        raise ValueError("k must be positive")
    return _cached_series(("powers", k), lambda m: _power_degrees(k, m), n)[n]


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
