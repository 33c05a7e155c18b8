"""Reference answers computed independently of the code being timed.

Each function here derives a count or a verdict from a different route than
the library's own: closed-form box counts, partition identities (Euler,
Rogers-Ramanujan, the square and power bijections of the source paper) and
small dynamic programs written from the definitions.  A benchmark request is
checked against these wherever one exists.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb, isqrt


def series(parts, upto: int) -> list[int]:
    """Coefficients 0..upto of the product of 1/(1 - q^d) over the given parts."""
    coeffs = [1] + [0] * upto
    for d in sorted(set(parts)):
        if d > upto:
            break
        for j in range(d, upto + 1):
            coeffs[j] += coeffs[j - d]
    return coeffs


def powers_series(k: int, upto: int) -> list[int]:
    """Partitions into perfect k-th powers, sizes 0..upto."""
    return series((i**k for i in range(1, upto + 1) if i**k <= upto), upto)


def powers_count(n: int, k: int) -> int:
    return powers_series(k, n)[n]


def parity_series(upto: int) -> list[int]:
    """Partitions whose parts all share one parity, sizes 0..upto."""
    odd = series(range(1, upto + 1, 2), upto)
    even = series(range(2, upto + 1, 2), upto)
    coeffs = [a + b for a, b in zip(odd, even)]
    coeffs[0] -= 1  # the empty partition is counted once
    return coeffs


@lru_cache(maxsize=None)
def _parts_at_most(n: int, k: int) -> int:
    """Partitions of n into parts of size at most k."""
    if n == 0:
        return 1
    if n < 0 or k == 0:
        return 0
    return _parts_at_most(n, k - 1) + _parts_at_most(n - k, k)


def ideal_count(kind: str, n: int) -> int | None:
    """Members of size n of a builtin ideal kind, by an identity; None if none is known."""
    if kind == "D":  # Euler: distinct parts <-> odd parts
        return series(range(1, n + 1, 2), n)[n]
    if kind == "R":  # Rogers-Ramanujan: gaps >= 2 <-> parts = +-1 mod 5
        return series((d for d in range(1, n + 1) if d % 5 in (1, 4)), n)[n]
    if kind == "P_parity":
        return parity_series(n)[n]
    if kind == "Rprime":
        # r parts, each >= r: remove r - 1 from every part, leaving r parts
        # >= 1, counted by conjugation as partitions with largest part r.
        total = 1 if n == 0 else 0
        r = 1
        while r * r <= n:
            rest = n - r * r
            total += _parts_at_most(rest, r)
            r += 1
        return total
    if kind == "Adiff":
        # Length r: the smallest member is the staircase with part j equal to
        # 1 + (r-j)(r-j+1)/2; any other adds a partition into parts <= r.
        total = 1 if n == 0 else 0
        r = 1
        while True:
            base = sum(1 + (r - j) * (r - j + 1) // 2 for j in range(1, r + 1))
            if base > n:
                return total
            total += _parts_at_most(n - base, r)
            r += 1
    return None


def box_count(kind: str, param: int | None, max_part: int, max_length: int) -> int | None:
    """Members (the empty partition included) inside a parts-by-length box."""
    a, b = max_part, max_length
    odd, even = (a + 1) // 2, a // 2
    ks = range(1, b + 1)
    if kind in ("D", "Rprime"):  # Rprime: r parts from {r..a}, a multiset of size r
        return 1 + sum(comb(a, k) for k in ks)
    if kind == "R":
        return 1 + sum(comb(a - k + 1, k) for k in ks if a - k + 1 >= k)
    if kind == "P_parity":
        return 1 + sum(comb(odd + k - 1, k) + comb(even + k - 1, k) for k in ks)
    if kind == "Pprime":
        return 1 + sum(comb(odd, k) + comb(even, k) for k in ks)
    if kind == "N_maxlen":
        return sum(comb(a + k - 1, k) for k in range(min(param, b) + 1))
    if kind == "P_mod":
        sizes = [len(range(r, a + 1, param)) for r in range(1, param + 1)]
        return 1 + sum(comb(s + k - 1, k) for s in sizes for k in ks)
    return None


def exact_root(x: int) -> int | None:
    """Integer square root of x when x is a perfect square."""
    r = isqrt(x)
    return r if r * r == x else None


def seq_congruent(parts) -> bool:
    """The defining congruence chain, written out independently."""
    r = len(parts)
    return all((parts[i - 1] - parts[i]) % i == 0 for i in range(1, r)) and (
        r == 0 or parts[-1] % r == 0
    )


def transpose(parts) -> tuple[int, ...]:
    """Conjugate partition as the column heights of the Young diagram."""
    return tuple(sum(1 for x in parts if x >= j) for j in range(1, (parts[0] if parts else 0) + 1))


def integer_windows(parts, k: int):
    """Sub-partitions keeping the parts that lie in k consecutive integers."""
    if not parts:
        return
    for lo in range(max(1, parts[-1] - k + 1), parts[0] + 1):
        yield tuple(x for x in parts if lo <= x < lo + k)


def present_windows(parts, k: int):
    """Sub-partitions keeping k consecutive distinct part values."""
    values = sorted(set(parts), reverse=True)
    for i in range(len(values)):
        keep = set(values[i:i + k])
        yield tuple(x for x in parts if x in keep)
