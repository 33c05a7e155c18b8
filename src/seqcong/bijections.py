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

The maps build their answers from loops over the input's parts and wrap them
with ``Partition._of``: an answer is valid by construction, so only the checks
a valid input can still fail are made (the congruence chain, square parts, a
largest part past ``MAX_PART``, an answer longer than ``MAX_OUTPUT_PARTS``).
"""

from __future__ import annotations

from math import isqrt
from typing import Iterable, Sequence

from .errors import CanonicalFormError, DomainError, NotSequentiallyCongruentError
from .partition import EMPTY, Partition, _check_largest, _check_output_length, _runs


def _congruence_failure_index(parts: Sequence[int]) -> int | None:
    """First 1-based index where the congruence chain breaks, or None."""
    r = len(parts)
    for i in range(1, r):
        if (parts[i - 1] - parts[i]) % i:
            return i
    if r and parts[r - 1] % r:
        return r
    return None


def _is_congruent(t: tuple[int, ...]) -> bool:
    """Whether a partition tuple t of length r is sequentially congruent: r | t[-1] first, then the chain from i = 2."""
    if t and t[-1] % len(t):
        return False
    for i in range(2, len(t)):  # modulus 1 divides the first difference
        if (t[i - 1] - t[i]) % i:
            return False
    return True


def is_seq_congruent(p: Partition) -> bool:
    """Whether p_i = p_{i+1} (mod i) and r | p_r (empty: yes); the closing r | p_r is decided first."""
    return _is_congruent(p.parts)


def _canonical(coeffs: Iterable[int]) -> tuple[int, ...]:
    """The vector as a tuple of nonnegative ints (no bools, as in Partition) ending nonzero."""
    t = tuple(coeffs)
    for c in t:
        if type(c) is not int and (type(c) is bool or not isinstance(c, int)) or c < 0:
            raise ValueError(f"coefficients must be nonnegative integers, got {t}")
    if t and t[-1] == 0:
        raise CanonicalFormError(f"trailing coefficient must be nonzero, got {list(t)}")
    return t


class CNotation:
    """Square-count coefficients [c_1, ..., c_r] of a sequentially congruent partition.

    c_i counts the i-by-i squares in the Young diagram.  The trailing
    coefficient must be nonzero so the representation is unique; the empty
    vector encodes the empty partition.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int] = ()):
        self.coeffs = _canonical(coeffs)

    @classmethod
    def _of(cls, t: tuple[int, ...]) -> "CNotation":
        """Wrap a canonical coefficient tuple the library computed, skipping the checks."""
        c = object.__new__(cls)
        c.coeffs = t
        return c

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


def _coeffs(t: tuple[int, ...]) -> list[int]:
    """[c_1, ..., c_r] of a partition tuple, after its congruence check."""
    bad = _congruence_failure_index(t)
    if bad is not None:
        raise NotSequentiallyCongruentError(bad)
    r = len(t)
    c = [(t[i - 1] - t[i]) // i for i in range(1, r)]
    if r:
        c.append(t[-1] // r)
    return c


def _from_coeffs(c: Sequence[int]) -> Partition:
    """Suffix sums of j * c_j for a coefficient sequence with a nonzero last entry."""
    parts: list[int] = []
    acc = 0
    for j in range(len(c), 0, -1):
        acc += j * c[j - 1]
        parts.append(acc)
    _check_largest(acc)
    parts.reverse()
    return Partition._of(tuple(parts))


def to_c_notation(p: Partition) -> CNotation:
    """Extract [c_1, ..., c_r] with c_i = (p_i - p_{i+1}) / i.

    Raises NotSequentiallyCongruentError naming the first index whose
    congruence fails.
    """
    return CNotation._of(tuple(_coeffs(p.parts)))


def from_c_notation(c: CNotation) -> Partition:
    """Rebuild the partition: part i is the suffix sum of j * c_j for j >= i."""
    return _from_coeffs(c.coeffs)


def pi_map(p: Partition) -> Partition:
    """Map a partition of size n to the member with largest part n.

    The Young-diagram reading: every column of height i becomes an i-by-i
    square, so the c-notation of the image is the first-difference vector of
    the input parts.
    """
    t = p.parts
    return _from_coeffs([x - y for x, y in zip(t, t[1:] + (0,))])


def sigma_map(p: Partition) -> Partition:
    """Map a member with largest part n to a partition of size n.

    The top row of each square becomes one part: the image is
    <1^{c_1}, ..., r^{c_r}> for the square counts c of the input.
    """
    c = _coeffs(p.parts)
    return _runs(range(len(c), 0, -1), c[::-1])


def pi_sigma_closed_form(p: Partition) -> Partition:
    """Evaluate pi ∘ sigma directly from the part differences of the input.

    The k-th frequency entry has exponent c_k and part value equal to the
    double suffix-difference sum over j <= k, i >= j of (p_i - p_{i+1}) / i,
    accumulated here as prefix sums of the suffix sums of c.  The values
    strictly increase with k, the last being p_1.
    """
    c = _coeffs(p.parts)
    values: list[int] = []
    suffix, value = sum(c), 0
    for ck in c:
        value += suffix
        values.append(value)
        suffix -= ck
    values.reverse()
    return _runs(values, c[::-1])


def psi_map(p: Partition) -> Partition:
    """Size-preserving bijection onto partitions into perfect squares.

    Each i-by-i square of the diagram is flattened into one row of i^2 boxes.
    """
    c = _coeffs(p.parts)
    return _runs([i * i for i in range(len(c), 0, -1)], c[::-1])


def _exact_sqrt(n: int) -> int | None:
    root = isqrt(n)
    return root if root * root == n else None


def psi_inverse(p: Partition) -> Partition:
    """Inverse of :func:`psi_map`; every part must be a perfect square."""
    if p.is_empty():
        return EMPTY
    roots = []
    for x in p.parts:
        root = _exact_sqrt(x)
        if root is None:
            raise DomainError(f"part {x} is not a perfect square")
        roots.append(root)
    _check_output_length(roots[0])  # the image has one part per root up to the largest
    c = [0] * roots[0]
    for root in roots:
        c[root - 1] += 1
    return _from_coeffs(c)


def render_square_decomposition(p: Partition) -> str:
    """Young diagram with the square tiling made visible.

    Squares are laid out largest-size first; within each row the blocks are
    separated by a single space, so the first row shows every square once and
    the number of width-i blocks on it equals c_i.
    """
    c = to_c_notation(p)
    if not c.coeffs:
        return "(empty)"
    _check_output_length(p.size, "cells")
    blocks: list[int] = []
    for i in range(len(c.coeffs), 0, -1):
        blocks.extend([i] * c.coeffs[i - 1])
    lines = []
    for row in range(1, len(c.coeffs) + 1):
        cells = ["■" * width for width in blocks if width >= row]
        lines.append(" ".join(cells))
    return "\n".join(lines)
