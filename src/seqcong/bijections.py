"""Sequentially congruent partitions and their bijections.

A partition (p_1, ..., p_r) is sequentially congruent when p_i = p_{i+1}
(mod i) for every i < r and the last part is divisible by r.  Such partitions
are exactly the ones whose Young diagram tiles into i-by-i squares; the
coefficient vector [c_1, ..., c_r] counting the squares of each size is the
partition's c-notation and drives everything in this module:

* ``pi_map``      all partitions of size n  ->  members with largest part n
* ``sigma_map``   members with largest part n  ->  all partitions of size n
* ``psi_map``     size-preserving bijection onto partitions into squares
* ``pi_sigma_closed_form``  the self-map pi ∘ sigma evaluated directly from
  the part differences (the "squish-flip-stretch" diagram transformation)
"""

from __future__ import annotations

from math import isqrt
from typing import Iterable, Sequence

from .errors import CanonicalFormError, DomainError, NotSequentiallyCongruentError
from .partition import EMPTY, Partition, from_frequencies


def _congruence_failure_index(parts: Sequence[int]) -> int | None:
    """First 1-based index where the congruence chain breaks, or None."""
    r = len(parts)
    for i in range(1, r):
        if (parts[i - 1] - parts[i]) % i:
            return i
    if r and parts[r - 1] % r:
        return r
    return None


def is_seq_congruent(p: Partition) -> bool:
    """Whether consecutive parts are congruent modulo their index (empty: yes)."""
    return _congruence_failure_index(p.parts) is None


class CNotation:
    """Square-count coefficients [c_1, ..., c_r] of a sequentially congruent partition.

    c_i counts the i-by-i squares in the Young diagram.  The trailing
    coefficient must be nonzero so the representation is unique; the empty
    vector encodes the empty partition.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int] = ()):
        t = tuple(coeffs)
        # plain ints pass on the type test alone; bools are rejected as Partition rejects them
        if any(type(c) is not int and (type(c) is bool or not isinstance(c, int)) or c < 0 for c in t):
            raise ValueError(f"coefficients must be nonnegative integers, got {t}")
        if t and t[-1] == 0:
            raise CanonicalFormError(f"trailing coefficient must be nonzero, got {list(t)}")
        self.coeffs = t

    @property
    def length(self) -> int:
        """Length of the encoded partition."""
        return len(self.coeffs)

    @property
    def size(self) -> int:
        """Size of the encoded partition: sum of i^2 * c_i."""
        return sum(i * i * c for i, c in enumerate(self.coeffs, 1))

    @property
    def largest(self) -> int:
        """Largest part of the encoded partition: sum of i * c_i."""
        return sum(i * c for i, c in enumerate(self.coeffs, 1))

    def __eq__(self, other) -> bool:
        if isinstance(other, CNotation):
            return self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        return f"CNotation({list(self.coeffs)!r})"


def to_c_notation(p: Partition) -> CNotation:
    """Extract [c_1, ..., c_r] with c_i = (p_i - p_{i+1}) / i.

    Raises NotSequentiallyCongruentError naming the first index whose
    congruence fails.
    """
    bad = _congruence_failure_index(p.parts)
    if bad is not None:
        raise NotSequentiallyCongruentError(bad)
    r = len(p)
    return CNotation((p.part(i) - p.part(i + 1)) // i for i in range(1, r + 1))


def from_c_notation(c: CNotation) -> Partition:
    """Rebuild the partition: part i is the suffix sum of j * c_j for j >= i."""
    parts: list[int] = []
    acc = 0
    for j in range(len(c.coeffs), 0, -1):
        acc += j * c.coeffs[j - 1]
        parts.append(acc)
    parts.reverse()
    return Partition(parts)


def pi_map(p: Partition) -> Partition:
    """Map a partition of size n to the member with largest part n.

    The Young-diagram reading: every column of height i becomes an i-by-i
    square, so the c-notation of the image is the first-difference vector of
    the input parts.
    """
    r = len(p)
    if r == 0:
        return EMPTY
    diffs = [p.part(i) - p.part(i + 1) for i in range(1, r + 1)]
    return from_c_notation(CNotation(diffs))


def sigma_map(p: Partition) -> Partition:
    """Map a member with largest part n to a partition of size n.

    The top row of each square becomes one part: the image is
    <1^{c_1}, ..., r^{c_r}> for the square counts c of the input.
    """
    c = to_c_notation(p)
    return from_frequencies((i, ci) for i, ci in enumerate(c.coeffs, 1))


def pi_sigma_closed_form(p: Partition) -> Partition:
    """Evaluate pi ∘ sigma directly from the part differences of the input.

    The k-th frequency entry has exponent c_k and part value equal to the
    double suffix-difference sum over j <= k, i >= j of (p_i - p_{i+1}) / i.
    Zero-exponent entries are skipped when materializing the partition.
    """
    c = to_c_notation(p).coeffs
    r = len(c)
    pairs = []
    for k in range(1, r + 1):
        value = sum(c[i - 1] for j in range(1, k + 1) for i in range(j, r + 1))
        pairs.append((value, c[k - 1]))
    return from_frequencies(pairs)


def psi_map(p: Partition) -> Partition:
    """Size-preserving bijection onto partitions into perfect squares.

    Each i-by-i square of the diagram is flattened into one row of i^2 boxes.
    """
    c = to_c_notation(p)
    return from_frequencies((i * i, ci) for i, ci in enumerate(c.coeffs, 1))


def _exact_sqrt(n: int) -> int | None:
    root = isqrt(n)
    return root if root * root == n else None


def psi_inverse(p: Partition) -> Partition:
    """Inverse of :func:`psi_map`; every part must be a perfect square."""
    if p.is_empty():
        return EMPTY
    counts: dict[int, int] = {}
    for x in p.parts:
        root = _exact_sqrt(x)
        if root is None:
            raise DomainError(f"part {x} is not a perfect square")
        counts[root] = counts.get(root, 0) + 1
    r = max(counts)
    return from_c_notation(CNotation(counts.get(i, 0) for i in range(1, r + 1)))


def render_square_decomposition(p: Partition) -> str:
    """Young diagram with the square tiling made visible.

    Squares are laid out largest-size first; within each row the blocks are
    separated by a single space, so the first row shows every square once and
    the number of width-i blocks on it equals c_i.
    """
    c = to_c_notation(p)
    if not c.coeffs:
        return "(empty)"
    blocks: list[int] = []
    for i in range(len(c.coeffs), 0, -1):
        blocks.extend([i] * c.coeffs[i - 1])
    lines = []
    for row in range(1, len(c.coeffs) + 1):
        cells = ["■" * width for width in blocks if width >= row]
        lines.append(" ".join(cells))
    return "\n".join(lines)
