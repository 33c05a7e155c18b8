"""Enumerators, member counts and generating-function coefficients.

The enumerators list partitions in reverse lexicographic order, duplicate-free: a walk over all
partitions of n with optional part/length caps, one lazy range of parts per node, that splices its
small rests from a table, a pruned walk over the members of size n of a prefix-closed ideal, a walk
over the partitions into a sequence of part values (the squares computed as read), and a walk over the
c-notation of the sequentially congruent partitions with largest part n, which splices its small tails
from a second table.  Counts are plain Python integers, so they stay exact however large they grow.
Every ideal kind is counted by the count series its :mod:`seqcong.kinds` row declares, with no member, class or rule
read, and S's own test ``is_seq_congruent`` by S's, the squares (psi).  A count needing more than ``MAX_COUNT_CELLS``
series cells or ``MAX_SIDE_CELLS`` (size, parts) cells is refused unbuilt.

Generating-function coefficients are cached per series in one list.  p(n) grows in place by Euler's
pentagonal recurrence, O(sqrt n) terms per coefficient.  P_parity's one-parity counts are a cached
series grown ahead beside p: each is read off p, its odd parts by the same numbers and its even parts
as p(n/2), and a request past the cached length grows p and then the one-parity counts, in place, to
at least twice that length.  The k-th powers for k >= 2 are built by the product DP
prod_{d in D} 1/(1 - q^d); a request past the cached length rebuilds the series to at least twice
that length.  So an ascent grows or rebuilds a series O(log n) times, each one-parity count or p(n)
computed once.
"""

from __future__ import annotations

import threading
from bisect import bisect_right
from itertools import count, takewhile
from math import isqrt
from operator import add, attrgetter
from typing import Callable, Iterable, Iterator

from .bijections import is_seq_congruent, psi_inverse
from .errors import DomainError, ResourceError
from .kinds import _psi_counts
from .partition import Partition, _check_largest, _check_output_length


_SPLICE_MAX = 20
_tails = None
_largest_tails = None


def _splice_table() -> tuple[list[list[tuple[int, ...]]], list[list[int]]]:
    """``_tails``, built on first use: row m lists the partitions of m <= _SPLICE_MAX in reverse
    lexicographic order, as (v,) + each tail of row m - v that starts at most v, for v from
    m down to 1.  Those with largest part at most k are the suffix from ``starts[m][k]``."""
    global _tails
    rows, starts = [[()]], [[0]]
    for m in range(1, _SPLICE_MAX + 1):
        row, start = [], []
        for v in range(m, 0, -1):
            start.append(len(row))
            row += [(v,) + s for s in rows[m - v][starts[m - v][min(v, m - v)]:]]
        rows.append(row)
        starts.append([len(row)] + start[::-1])
    _tails = rows, starts  # one assignment publishes the whole table
    return _tails


def _partitions(n: int, max_part: int | None = None, max_length: int | None = None) -> Iterator[Partition]:
    """All partitions of n within the caps as fresh ``Partition`` values, reverse lexicographic.

    A cap below 1 leaves only the empty partition of 0.  A node (prefix, rest, largest part
    allowed, parts left) whose rest fits the table and its parts left emits the prefix with
    each tail the largest part allows.  Any other node goes on the stack with one lazy range
    of its next parts v, largest first, down to the least whose rest its parts left can hold,
    so no child is a dead end.  Part 1 can only repeat, so it completes the prefix with ones,
    listed last."""
    for arg in (n, max_part, max_length):
        if arg is not None and type(arg) is not int:
            raise TypeError(f"n, max_part and max_length must be integers, got {arg!r}")
    if n < 0:
        raise ValueError("n must be nonnegative")
    cap = n if max_part is None else max(min(max_part, n), 0)
    room = n if max_length is None else max(max_length, 0)
    if n > cap * room:
        return
    _check_largest(cap)
    rows, starts = _tails or _splice_table()
    new = object.__new__
    t, rest, top, stack = (), n, cap, []
    while True:
        if rest <= room and rest <= _SPLICE_MAX:
            for s in rows[rest][starts[rest][min(top, rest)]:]:
                p = new(Partition)
                p.parts = t + s
                yield p
        else:
            stack.append((t, rest, room, iter(range(min(top, rest), -(-rest // room) - 1, -1))))
        while stack:
            t, rest, room, parts = stack[-1]
            top = next(parts, 0)
            if top > 1:
                t, rest, room = t + (top,), rest - top, room - 1
                break
            if top:
                _check_output_length(len(t) + rest)
                yield Partition._of(t + (1,) * rest)
            stack.pop()
        else:
            return


def iter_partition_tuples(n: int, max_part: int | None = None,
                          max_length: int | None = None) -> Iterator[tuple[int, ...]]:
    """All partitions of n as tuples, reverse lexicographic: the ``.parts`` of :func:`enumerate_partitions`."""
    return (p.parts for p in _partitions(n, max_part, max_length))


def enumerate_partitions(n: int, max_part: int | None = None, max_length: int | None = None) -> list[Partition]:
    """Partitions of n in reverse lexicographic order."""
    return list(_partitions(n, max_part, max_length))


def _check_size(n: int) -> int:
    if type(n) is not int:
        raise TypeError(f"n must be an integer, got {n!r}")
    if n < 0:
        raise ValueError("n must be nonnegative")
    return n


def _size_walk(n: int, children: Callable[..., Iterable[int]]) -> Iterator[tuple[int, ...]]:
    """Partitions of n whose every part lies in its prefix's ``children``, reverse lexicographic.

    ``children(t, len(t), 1, top)`` is the range of parts up to top that may
    follow the prefix t.  The explicit stack holds (prefix, rest, its
    children not yet walked, largest first), so the order matches
    :func:`iter_partition_tuples` and the stack holds one lazy range per part.
    """
    _check_size(n)
    if not n:
        yield ()
        return
    stack = [((), n, reversed(children((), 0, 1, n)))]
    while stack:
        t, rest, parts = stack[-1]
        for v in parts:
            if v == rest:
                yield t + (v,)
                continue
            c = t + (v,)
            stack.append((c, rest - v, reversed(children(c, len(c), 1, min(v, rest - v)))))
            break
        else:
            stack.pop()


def iter_members_of_size(spec, n: int) -> Iterator[tuple[int, ...]]:
    """Members of size n of a prefix-closed spec, as tuples, reverse lexicographic.

    Every prefix of a member is a member, so stepping through the spec's
    ``_children`` rule visits only member prefixes and yields exactly the
    members, in the order a filter over all partitions of n would.
    """
    if not getattr(spec, "prefix_closed", False):
        raise DomainError(f"{spec!r} is not prefix-closed; filter the partitions of n instead")
    return _size_walk(n, spec._children)


def _parts_walk(n: int, values) -> Iterator[tuple[int, ...]]:
    """Partitions of n into parts from ``values``, an increasing sequence in 1..n, as tuples, reverse
    lexicographic.  A node (prefix, rest, the indices of its values still to try, largest first) tries the
    values up to its last part and its rest, one lazy range per node; the smallest value can only repeat,
    so once a node's other values are done it completes the prefix at once, if it divides the rest."""
    top = bisect_right(values, n, 0, len(values))
    stack = [((), n, iter(range(top - 1, 0, -1)))] if top else []
    if not n:
        yield ()
    while stack:
        t, rest, js = stack[-1]
        for j in js:
            if (v := values[j]) == rest:
                yield t + (v,)
            else:
                top = bisect_right(values, rest - v, 0, j + 1)
                stack.append((t + (v,), rest - v, iter(range(top - 1, 0, -1))))
                break
        else:
            stack.pop()
            if not rest % values[0]:
                _check_output_length(len(t) + rest // values[0])
                yield t + (values[0],) * (rest // values[0])


def enumerate_with_parts_from(allowed: Iterable[int], n: int) -> list[Partition]:
    """Partitions of n using only the given part values (the integers in 1..n equal to one), reverse lexicographic."""
    _check_size(n)
    return list(map(Partition._of, _parts_walk(n, sorted({int(v) for v in allowed if 1 <= v <= n and v == int(v)}))))


class _Squares:
    """The squares up to n as a sequence whose items are computed when read, so none is stored."""

    def __init__(self, n: int):
        self._len = isqrt(n)

    def __len__(self) -> int:
        return self._len

    def __getitem__(self, j: int) -> int:
        return (j + 1) * (j + 1)


def _square_partitions(n: int) -> Iterator[Partition]:
    """The partitions of n into squares, reverse lexicographic, lazily; n is checked as the walk over all checks it."""
    _check_largest(_check_size(n))
    yield from map(Partition._of, _parts_walk(n, _Squares(n)))


def enumerate_seqcong_by_size(n: int) -> list[Partition]:
    """Sequentially congruent partitions of size n: psi_inverse of those into squares."""
    _check_output_length(_check_size(n))  # 1^n is one of them, so refuse before listing squares
    squares = [i * i for i in range(1, isqrt(n) + 1)]
    return sorted(map(psi_inverse, enumerate_with_parts_from(squares, n)), key=attrgetter("parts"), reverse=True)


def _largest_table() -> dict[tuple[int, int], list[tuple[int, ...]]]:
    """``_largest_tails``, built on first use: row (i, r), 2 <= i <= r <= _SPLICE_MAX, lists the tails of
    the members with mu_i = r in order: (m,) + row (i + 1, m) for m = r, r - i, ... > i, then () if i | r.
    The rows of i = 1 would repeat every partition of r <= _SPLICE_MAX for one root, so there are none."""
    global _largest_tails
    rows = {}
    for i in range(_SPLICE_MAX, 1, -1):
        for r in range(i, _SPLICE_MAX + 1):
            rows[i, r] = [(m,) + s for m in range(r, i, -i) for s in rows[i + 1, m]] + [()] * (r % i == 0)
    _largest_tails = rows  # one assignment publishes the whole table
    return rows


def _seqcong_largest(n: int) -> Iterator[Partition]:
    """:func:`enumerate_seqcong_by_largest` lazily, with n checked at the call."""
    _check_largest(_check_size(n))
    _check_output_length(n)  # (n,) * n is a member, and the first one listed
    return _c_walk(n) if n else iter([Partition._of(())])


def _c_walk(n: int) -> Iterator[Partition]:
    """The members with largest part n >= 1, reverse lexicographic, walked by their c-notation.

    Part i + 1 is mu_i - i c_i, c_i >= 0, and part r of r parts is r c_r, so reverse lexicographic
    order on the parts is lex order on c.  The stack is the prefix mu_1..mu_i: its children are
    mu_i, mu_i - i, ... down to i + 1, the least last part of i + 1 parts, so none is a dead end.
    The prefix is spliced with its table row, or, off the table, steps into its first child,
    and is listed last when i | mu_i."""
    rows = _largest_tails or _largest_table()
    new = object.__new__
    path = [n]
    while path:
        i, r = len(path), path[-1]
        if r > i and (r > _SPLICE_MAX or i == 1):
            path.append(r)  # the first child: c_i = 0
            continue
        t = tuple(path)
        for s in rows.get((i, r), ((),)):  # off the table r = i: the prefix alone
            p = new(Partition)
            p.parts = t + s
            yield p
        while path:  # on to the next sibling, c_i one larger at the parent's length i
            i = len(path) - 1
            m = path.pop() - i
            if i and m > i:
                path.append(m)
                break
            if i and not path[-1] % i:
                yield Partition._of(tuple(path))


def enumerate_seqcong_by_largest(n: int) -> list[Partition]:
    """Sequentially congruent partitions with largest part n, reverse lexicographic, walked by c-notation."""
    return list(_seqcong_largest(n))


class CountSeries:
    """Coefficient prefix of a generating function, indexed from 0."""

    __slots__ = ("coefficients",)

    def __init__(self, coefficients: Iterable[int]):
        self.coefficients = tuple(coefficients)

    @classmethod
    def from_degrees(cls, degrees: Iterable[int], upto: int) -> "CountSeries":
        """Product of 1 / (1 - q^d) over the given degrees, coefficients 0..upto, refused from ``MAX_COUNT_CELLS``."""
        _refuse_series(_check_size(upto))
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


# ("powers", k) -> coefficients, ("parity", 1) -> the one-parity counts.  p's and the one-parity
# lists only grow, one correct coefficient at a time, under the lock; a k >= 2 list is never
# mutated, only replaced by a longer one under the lock.  The lock is not re-entrant.
_series_cache: dict[tuple, list[int]] = {}
_series_lock = threading.Lock()
# The generalized pentagonal numbers j(3j - 1)/2, j = 1, -1, 2, -2, ..., that p has needed,
# ascending, by the sign (-1)^(j + 1) of their term: (j odd, j even).  Grown under the lock.
_pentagonals: tuple[list[int], list[int]] = ([], [])


def _odd_parts(p: list[int], n: int) -> int:
    """Partitions of n into odd parts from p(0..n): the sum over j in Z of (-1)^j p(n - j(3j - 1))."""
    odd, even = _pentagonals
    return (p[n] - sum([p[n - 2 * g] for g in odd[: bisect_right(odd, n // 2)]])
            + sum([p[n - 2 * g] for g in even[: bisect_right(even, n // 2)]]))


# The most coefficients a count series holds: sizes from it on are refused, for every count.
MAX_COUNT_CELLS = 250_000
# The most (size, parts) cells a sum side or a degree product adds up: about 8.4 million additions.
MAX_SIDE_CELLS = 1 << 23


def _refuse_series(upto: int, counted: str = "") -> None:
    if upto >= MAX_COUNT_CELLS:
        raise ResourceError(f"counting {counted}to size {upto} needs {upto + 1} series cells, above {MAX_COUNT_CELLS}")


def _refuse_cells(spec, upto: int, cells: int) -> None:
    if cells > MAX_SIDE_CELLS:
        raise ResourceError(f"counting {spec} to size {upto} needs {cells} (size, parts) cells, above {MAX_SIDE_CELLS}")


def _cached_parity(upto: int) -> list[int]:
    """Partitions of 0..upto, or more, with all parts of one parity: the odd-part count read off p(n)
    by :func:`_odd_parts`, plus p(n/2) for even n (halve every part), less 1 for the empty partition at 0.

    A list too short for upto grows in place to at least twice its length,
    after p(n) has grown that far, so an ascent grows it O(log n) times and
    computes each count once; an empty cache grows exactly to upto.  A size
    of ``MAX_COUNT_CELLS`` or more is refused before anything is built.
    """
    _refuse_series(upto)
    counts = _series_cache.get(("parity", 1))
    if counts is not None and len(counts) > upto:  # no published list ever shrinks, so no lock to read it
        return counts
    top = min(max(upto, 2 * len(counts or ())), MAX_COUNT_CELLS - 1)
    p = _cached_series(1, top)  # it takes the lock itself, so before this function does
    with _series_lock:
        counts = _series_cache.setdefault(("parity", 1), [])
        for m in range(len(counts), top + 1):
            counts.append(_odd_parts(p, m) + (0 if m % 2 else p[m // 2]) - (m == 0))
        return counts


def _cached_series(k: int, upto: int) -> list[int]:
    """Coefficients 0..upto, or more, of the product over the k-th powers d of 1 / (1 - q^d).

    p(n), k = 1, grows by Euler's pentagonal recurrence (Andrews 1976, ch. 1).
    A series k >= 2 too short for upto is rebuilt by the product DP, to at
    least twice its cached length.  A series of ``MAX_COUNT_CELLS``
    coefficients or more is refused before it is built.
    """
    _refuse_series(upto)
    key = ("powers", k)
    cached = _series_cache.get(key)
    if cached is not None and len(cached) > upto:  # no published list ever shrinks, so no lock to read it
        return cached
    with _series_lock:
        if k == 1:
            p = _series_cache.setdefault(key, [1])
            odd, even = _pentagonals
            for j in range((len(odd) + len(even)) // 2 + 1, (1 + isqrt(1 + 24 * upto)) // 6 + 1):
                (odd if j % 2 else even).extend((j * (3 * j - 1) // 2, j * (3 * j + 1) // 2))
            for n in range(len(p), upto + 1):  # p(n) = sum over j != 0 of (-1)^(j + 1) p(n - j(3j - 1)/2)
                p.append(sum([p[n - g] for g in odd[: bisect_right(odd, n)]])
                         - sum([p[n - g] for g in even[: bisect_right(even, n)]]))
            return p
        a = _series_cache.get(key, [])
        if len(a) > upto:
            return a
        upto = min(max(upto, 2 * len(a)), MAX_COUNT_CELLS - 1)  # grow ahead, so an ascent rebuilds O(log n) times
        a = _series_cache[key] = list(CountSeries.from_degrees(_power_degrees(k, upto), upto).coefficients)
        return a


def _power_degrees(k: int, m: int) -> list[int]:
    """The k-th powers i**k <= m of the positive integers i, ascending."""
    if m < 2:
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
    return _cached_series(k, n)[n]


def count_all_partitions(n: int) -> int:
    return count_into_powers(n, 1)


def count_members(pred, n: int) -> int:
    """Number of partitions of n satisfying a predicate.

    ``pred`` may be a callable on Partition or anything with a ``contains`` method, such as an
    IdealSpec from :mod:`seqcong.kinds`.  A spec is counted by its kind's count series (a sum
    side, a degree product, the one-parity series or the squares), and its rule, test and summary
    are never read; ``is_seq_congruent`` itself reads S's squares.  Any other is tested on each partition of n.
    """
    if (counts := _counts_of(pred)) is not None:
        return counts(pred, _check_size(n))[n]
    return sum(1 for _ in filter(_as_predicate(pred), _partitions(n)))


def _counts_of(pred) -> Callable[..., list[int]] | None:
    """pred's count series, or None to filter: a spec's kind's, and for ``is_seq_congruent`` itself S's."""
    return _psi_counts if pred is is_seq_congruent else getattr(pred, "_counts", None)


def _sum_side(spec, upto: int, stairs: Iterable[Callable[[int], int | None]], scale: int = 1) -> list[int]:
    """Counts of sizes 0..upto of a kind whose members with r parts on a stair, less stair(r) and divided by scale,
    are the partitions into exactly r parts (Andrews 1976, ch. 1 and 7): [n = 0] plus, over the stairs and r >= 1 up
    to the first r with stair(r) None or stair(r) + scale r > upto, P((n - stair(r))/scale - r, <= r parts) wherever
    scale divides n - stair(r).  Row r holds P(j, <= r) = P(j, <= r - 1) + P(j - r, <= r) from j = 0, a cell a size,
    no longer than row r - 1 as no stair falls faster than scale.  Sizes from ``MAX_COUNT_CELLS`` on, and more than
    ``MAX_SIDE_CELLS`` cells, are refused before a row is built."""
    _refuse_series(upto, f"{spec} ")
    heights, cells = [], 0  # (stair, its rows)
    for stair in stairs:
        r = 1
        while (s := stair(r)) is not None and s + scale * r <= upto:
            cells += (upto - s) // scale - r + 1
            r += 1
        heights.append((stair, r - 1))
    _refuse_cells(spec, upto, cells)
    counts, empty = [1] + [0] * upto, [1] + [0] * upto  # P(j, <= 0): the empty partition alone
    for stair, rows in heights:
        row = empty
        for r in range(1, rows + 1):
            first = stair(r) + scale * r  # the least size with r parts on this stair
            row = row[:(upto - first) // scale + 1]
            for j in range(r, len(row)):
                row[j] += row[j - r]
            counts[first::scale] = map(add, counts[first::scale], row)
    return counts


def member_counts(pred, upto: int) -> list[int]:
    """``[count_members(pred, n) for n in range(upto + 1)]``, every size of a spec or S's test from one count series."""
    if type(upto) is int and upto < 0:
        return []
    if (counts := _counts_of(pred)) is not None:
        return counts(pred, _check_size(upto))[:upto + 1]  # a copy: a series may be a cached list
    return [count_members(pred, n) for n in range(_check_size(upto) + 1)]


def enumerate_members(pred, n: int) -> list[Partition]:
    """Partitions of n satisfying a predicate, reverse lexicographic: a prefix-closed spec's members by
    :func:`iter_members_of_size`, S's and ``is_seq_congruent``'s through psi_inverse, any other's by a filter."""
    return list(_members(pred, n))


def _members(pred, n: int) -> Iterable[Partition]:
    """:func:`enumerate_members` lazily, so a caller that stops early stops the walk; S's listing is whole."""
    if getattr(pred, "prefix_closed", False):
        return map(Partition._of, iter_members_of_size(pred, n))
    if _counts_of(pred) is _psi_counts:  # S, counted through psi, is listed through it
        return enumerate_seqcong_by_size(n)
    return filter(_as_predicate(pred), _partitions(n))


def _as_predicate(pred) -> Callable[[Partition], bool]:
    if callable(pred):
        return pred
    member = getattr(pred, "contains", None)
    if member is not None:
        return member
    raise TypeError(f"cannot interpret {pred!r} as a partition predicate")
