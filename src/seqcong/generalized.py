"""Generalized sequentially congruent partitions over rectangle specifications.

A :class:`GenSpec` pairs a sequence A of rectangle widths with a strictly
increasing sequence B of rectangle heights.  The partitions it describes are
those whose Young diagram tiles into a_i-by-b_i rectangles; the coefficient
vector [n_1, ..., n_r] counting the rectangles of each shape is the partition's
n-notation.  With A = (1, 2, 3, ...) and B = N everything here collapses to the
square case of :mod:`seqcong.bijections`.

Infinite width/height families are carried as a rule tag (naturals, k-th
powers, arithmetic multiples) and realized lazily up to a configurable horizon;
asking for a term past the horizon fails loudly rather than guessing.
"""

from __future__ import annotations

import os
from typing import Iterable

from .errors import CanonicalFormError, DomainError, HorizonError, SpecError
from .partition import EMPTY, Partition, _check_largest, _check_output_length, _runs, from_frequencies

DEFAULT_HORIZON = 64
HORIZON_ENV_VAR = "SEQCONG_HORIZON"


def horizon_from_env(default: int = DEFAULT_HORIZON) -> int:
    """Realization horizon taken from $SEQCONG_HORIZON when set."""
    raw = os.environ.get(HORIZON_ENV_VAR)
    if raw is None:
        return default
    try:
        value = int(raw)
    except ValueError:
        raise SpecError(f"{HORIZON_ENV_VAR} must be an integer, got {raw!r}")
    if value < 1:
        raise SpecError(f"{HORIZON_ENV_VAR} must be positive, got {value}")
    return value


def _nth_root(value: int, k: int) -> int | None:
    """Exact integer k-th root of a positive integer, or None."""
    if value < 1:
        return None
    if k == 1:
        return value
    root = max(1, round(value ** (1.0 / k)))
    while root**k > value:
        root -= 1
    while (root + 1) ** k <= value:
        root += 1
    return root if root**k == value else None


class SequenceRule:
    """One side (A or B) of a GenSpec: an infinite family tag or an explicit list.

    Grammar accepted by :meth:`parse`: ``nat`` | ``pow:k`` | ``arith:a`` | a
    comma list like ``2,5,9``.
    """

    __slots__ = ("tag", "param", "terms")

    def __init__(self, tag: str, param: int | None = None, terms: tuple[int, ...] = ()):
        self.tag = tag
        self.param = param
        self.terms = terms

    @classmethod
    def naturals(cls) -> "SequenceRule":
        return cls("nat")

    @classmethod
    def powers(cls, k: int) -> "SequenceRule":
        if k < 0:
            raise SpecError("power exponent must be nonnegative")
        if k == 1:
            return cls("nat")
        return cls("pow", k)

    @classmethod
    def arithmetic(cls, a: int) -> "SequenceRule":
        if a < 1:
            raise SpecError("arithmetic step must be positive")
        return cls("arith", a)

    @classmethod
    def explicit(cls, terms: Iterable[int]) -> "SequenceRule":
        t = tuple(terms)
        if not t or any(not isinstance(x, int) or x < 1 for x in t):
            raise SpecError(f"explicit sequence needs positive integers, got {t}")
        return cls("explicit", None, t)

    @classmethod
    def parse(cls, text: str) -> "SequenceRule":
        text = text.strip()
        if text == "nat":
            return cls.naturals()
        if text.startswith("pow:"):
            return cls.powers(int(text[4:]))
        if text.startswith("arith:"):
            return cls.arithmetic(int(text[6:]))
        try:
            return cls.explicit(int(tok) for tok in text.split(","))
        except ValueError:
            raise SpecError(f"cannot parse sequence rule {text!r}")

    def term(self, i: int, horizon: int) -> int:
        """1-based term access, bounded by the horizon (or the explicit list)."""
        if i < 1:
            raise SpecError("sequence positions are 1-based")
        if self.tag == "explicit":
            if i > len(self.terms):
                raise HorizonError(f"sequence {self} has only {len(self.terms)} terms, needed term {i}")
            return self.terms[i - 1]
        if i > horizon:
            raise HorizonError(f"term {i} of {self} is beyond the horizon {horizon}")
        if self.tag == "nat":
            return i
        if self.tag == "pow":
            return i**self.param
        if self.tag == "arith":
            return i * self.param
        raise SpecError(f"unknown sequence tag {self.tag!r}")

    def index_of(self, value: int, horizon: int) -> int | None:
        """Position of ``value`` in the sequence, or None when absent.

        Positions beyond the horizon fail loudly instead of returning None, so
        a bounded search can never silently misclassify membership.
        """
        if value < 1:
            return None
        if self.tag == "explicit":
            try:
                return self.terms.index(value) + 1
            except ValueError:
                return None
        if self.tag == "nat":
            i = value
        elif self.tag == "arith":
            if value % self.param:
                return None
            i = value // self.param
        elif self.tag == "pow":
            if self.param == 0:
                i = 1 if value == 1 else None
                if i is None:
                    return None
            else:
                i = _nth_root(value, self.param)
                if i is None:
                    return None
        else:
            raise SpecError(f"unknown sequence tag {self.tag!r}")
        if i > horizon:
            raise HorizonError(f"value {value} sits at position {i}, beyond the horizon {horizon}")
        return i

    def is_strictly_increasing(self) -> bool:
        if self.tag == "explicit":
            return all(x < y for x, y in zip(self.terms, self.terms[1:]))
        if self.tag == "pow":
            return self.param >= 1
        return True  # nat, arith

    def has_distinct_terms(self) -> bool:
        if self.tag == "explicit":
            return len(set(self.terms)) == len(self.terms)
        if self.tag == "pow":
            return self.param >= 1
        return True

    def __eq__(self, other) -> bool:
        if isinstance(other, SequenceRule):
            return (self.tag, self.param, self.terms) == (other.tag, other.param, other.terms)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.tag, self.param, self.terms))

    def __str__(self) -> str:
        if self.tag == "explicit":
            return ",".join(map(str, self.terms))
        if self.tag == "nat":
            return "nat"
        return f"{self.tag}:{self.param}"

    def __repr__(self) -> str:
        return f"SequenceRule({str(self)!r})"


class GenSpec:
    """Rectangle widths A and heights B for a generalized membership test."""

    __slots__ = ("a", "b", "horizon")

    def __init__(self, a: SequenceRule, b: SequenceRule, horizon: int | None = None):
        if not b.is_strictly_increasing():
            raise SpecError(f"heights must be strictly increasing, got {b}")
        self.a = a
        self.b = b
        self.horizon = DEFAULT_HORIZON if horizon is None else horizon
        if self.horizon < 1:
            raise SpecError("horizon must be positive")

    @classmethod
    def standard(cls, horizon: int | None = None) -> "GenSpec":
        """A = (1, 2, 3, ...), B = N: plain sequentially congruent partitions."""
        return cls(SequenceRule.naturals(), SequenceRule.naturals(), horizon)

    @classmethod
    def power_widths(cls, k: int, horizon: int | None = None) -> "GenSpec":
        """A = (1^k, 2^k, 3^k, ...), B = N."""
        return cls(SequenceRule.powers(k), SequenceRule.naturals(), horizon)

    @classmethod
    def parse(cls, a_text: str, b_text: str, horizon: int | None = None) -> "GenSpec":
        return cls(SequenceRule.parse(a_text), SequenceRule.parse(b_text), horizon)

    def a_term(self, i: int) -> int:
        return self.a.term(i, self.horizon)

    def b_term(self, i: int) -> int:
        return self.b.term(i, self.horizon)

    def distinct_a(self) -> bool:
        return self.a.has_distinct_terms()

    def require_distinct_a(self) -> None:
        if not self.distinct_a():
            raise SpecError(f"widths {self.a} are not distinct; the map is not injective")

    def __eq__(self, other) -> bool:
        if isinstance(other, GenSpec):
            return (self.a, self.b) == (other.a, other.b)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.a, self.b))

    def __repr__(self) -> str:
        return f"GenSpec(A={self.a}, B={self.b})"


class NNotation:
    """Rectangle counts [n_1, ..., n_r] over a GenSpec; trailing count nonzero."""

    __slots__ = ("spec", "coeffs")

    def __init__(self, spec: GenSpec, coeffs: Iterable[int] = ()):
        t = tuple(coeffs)
        if any(type(c) is not int and (type(c) is bool or not isinstance(c, int)) or c < 0 for c in t):
            raise ValueError(f"coefficients must be nonnegative integers, got {t}")
        if t and t[-1] == 0:
            raise CanonicalFormError(f"trailing coefficient must be nonzero, got {list(t)}")
        # Realizing the needed prefix up front makes later decodes total.
        for i in range(1, len(t) + 1):
            spec.a_term(i)
            spec.b_term(i)
        self.spec = spec
        self.coeffs = t

    @property
    def length(self) -> int:
        """Length of the encoded partition: the last rectangle height."""
        return self.spec.b_term(len(self.coeffs)) if self.coeffs else 0

    @property
    def size(self) -> int:
        return sum(self.spec.a_term(i) * self.spec.b_term(i) * c for i, c in enumerate(self.coeffs, 1))

    @property
    def largest(self) -> int:
        return sum(self.spec.a_term(i) * c for i, c in enumerate(self.coeffs, 1))

    def __eq__(self, other) -> bool:
        if isinstance(other, NNotation):
            return (self.spec, self.coeffs) == (other.spec, other.coeffs)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.spec, self.coeffs))

    def __repr__(self) -> str:
        return f"NNotation({self.spec!r}, {list(self.coeffs)!r})"


def _drop_profile(p: Partition) -> dict[int, int]:
    """Map h -> (column count of height exactly h), i.e. part(h) - part(h+1) > 0."""
    t = p.parts
    drops: dict[int, int] = {}
    for h, (x, y) in enumerate(zip(t, t[1:] + (0,)), 1):
        if x != y:
            drops[h] = x - y
    return drops


def is_in_SBA(p: Partition, spec: GenSpec) -> bool:
    """Membership test: conjugate parts all lie in B with b_i's multiplicity divisible by a_i.

    The conjugate is never built: its value h has multiplicity
    part(h) - part(h+1), the drop profile.  Heights are tried in descending
    order, the order of the conjugate's parts, so a height past the horizon
    raises before a smaller height can answer False.
    """
    for value, mult in reversed(_drop_profile(p).items()):
        i = spec.b.index_of(value, spec.horizon)
        if i is None:
            return False
        if mult % spec.a_term(i):
            return False
    return True


def n_encode(p: Partition, spec: GenSpec) -> NNotation:
    """Coordinates of a member partition; DomainError when p is not a member."""
    if p.is_empty():
        return NNotation(spec, ())
    drops = _drop_profile(p)
    length = len(p)
    r = spec.b.index_of(length, spec.horizon)
    if r is None:
        raise DomainError(f"length {length} is not a rectangle height of {spec}")
    coeffs = [0] * r
    for h, mult in drops.items():
        i = spec.b.index_of(h, spec.horizon)
        if i is None:
            raise DomainError(f"parts drop at height {h}, which is not in {spec}")
        a_i = spec.a_term(i)
        if mult % a_i:
            raise DomainError(f"drop {mult} at height {h} is not a multiple of width {a_i}")
        coeffs[i - 1] = mult // a_i
    return NNotation(spec, coeffs)


def n_decode(n: NNotation) -> Partition:
    """Standard form of the encoded partition: suffix sums on the height runs.

    The length is the last height b_r, checked before the parts are built.
    """
    spec, coeffs = n.spec, n.coeffs
    if not coeffs:
        return EMPTY
    r = len(coeffs)
    _check_output_length(spec.b_term(r))
    parts: list[int] = []
    value = 0
    for i in range(r, 0, -1):
        value += spec.a_term(i) * coeffs[i - 1]
        run = spec.b_term(i) - (spec.b_term(i - 1) if i > 1 else 0)
        parts += [value] * run
    _check_largest(value)
    parts.reverse()
    return Partition._of(tuple(parts))


def sigma_AB(n: NNotation) -> Partition:
    """Frequency partition <a_1^{n_1}, ..., a_r^{n_r}> (widths must be distinct).

    The output size equals the decoded input's largest part.  Non-increasing
    width sequences are reordered by value when materializing.
    """
    n.spec.require_distinct_a()
    return from_frequencies((n.spec.a_term(i), c) for i, c in enumerate(n.coeffs, 1))


def pi_AB(p: Partition, spec: GenSpec) -> NNotation:
    """Turn each width-a_i column of the diagram into an a_i-by-b_i rectangle.

    The input must have all its column heights in A (it is a conjugate of a
    partition with parts from A); coefficients attach to the position of each
    drop height within A, so non-increasing A uses value-matched positions.
    """
    spec.require_distinct_a()
    if p.is_empty():
        return NNotation(spec, ())
    drops = _drop_profile(p)
    positions: dict[int, int] = {}
    for h in drops:
        i = spec.a.index_of(h, spec.horizon)
        if i is None:
            raise DomainError(f"column height {h} is not a width in {spec}")
        positions[h] = i
    r = max(positions.values())
    coeffs = [0] * r
    for h, mult in drops.items():
        coeffs[positions[h] - 1] = mult
    return NNotation(spec, coeffs)


def pi_prime_AB(p: Partition, spec: GenSpec) -> Partition:
    """Stretch: coefficients are the part differences of any input partition."""
    t = p.parts
    if not t:
        return EMPTY
    return n_decode(NNotation(spec, [x - y for x, y in zip(t, t[1:] + (0,))]))


def sigma_prime_AB(p: Partition, spec: GenSpec) -> Partition:
    """Squish-flip: <1^{n_1}, ..., r^{n_r}> for the coordinates of a member."""
    c = n_encode(p, spec).coeffs
    return _runs(range(len(c), 0, -1), c[::-1])


def is_in_Sk(p: Partition, k: int) -> bool:
    """Congruence chain with moduli i^k: part i = part i+1 (mod i^k), last part divisible by r^k."""
    if k < 1:
        raise DomainError("k must be a positive integer")
    parts = p.parts
    r = len(parts)
    for i in range(1, r):
        if (parts[i - 1] - parts[i]) % i**k:
            return False
    if r and parts[r - 1] % r**k:
        return False
    return True


def is_in_Sjk(p: Partition, j: int, k: int) -> bool:
    """Exact-difference chain: part i - part i+1 = j * i^k, last part = j * r^k.

    The closing condition is read with the same shape as the others (last part
    equal to j times r^k), which matches the bijection onto partitions into
    (k+1)-th powers with every part repeated exactly j times.
    """
    if j < 1:
        raise DomainError("j must be a positive integer")
    if k < 0:
        raise DomainError("k must be a nonnegative integer")
    parts = p.parts
    r = len(parts)
    for i in range(1, r):
        if parts[i - 1] - parts[i] != j * i**k:
            return False
    if r and parts[r - 1] != j * r**k:
        return False
    return True


def _power_exponent(rule: SequenceRule) -> int:
    if rule.tag == "pow":
        return rule.param
    if rule.tag == "nat":
        return 1
    raise SpecError(f"operation needs a power-family sequence, got {rule}")


def sigma_k(n: NNotation) -> Partition:
    """<(1^k)^{n_1}, ..., (r^k)^{n_r}> for coefficients over widths A = N^k.

    Output size equals the decoded input's largest part.
    """
    k = _power_exponent(n.spec.a)
    return from_frequencies((i**k, c) for i, c in enumerate(n.coeffs, 1))


def psi_k(n: NNotation) -> Partition:
    """<(1^{k+1})^{n_1}, ...>: flatten each rectangle into one row; size preserved."""
    k = _power_exponent(n.spec.a)
    return from_frequencies((i ** (k + 1), c) for i, c in enumerate(n.coeffs, 1))


def _retag(n: NNotation, a_exp: int, b_exp: int) -> NNotation:
    spec = GenSpec(SequenceRule.powers(a_exp), SequenceRule.powers(b_exp), n.spec.horizon)
    return NNotation(spec, n.coeffs)


def eta(n: NNotation, k: int, p: int) -> NNotation:
    """Reshape width-i^k rectangles to i^{k-p}-by-i^p, keeping the counts.

    Takes members over (A = N^k, B) with largest part m to members over
    (A = N^{k-p}, B = N^p) of size m.
    """
    if not 1 <= p <= k:
        raise DomainError(f"need 1 <= p <= k, got p={p}, k={k}")
    if _power_exponent(n.spec.a) != k:
        raise SpecError(f"input widths must be the k-th powers for k={k}, got {n.spec.a}")
    return _retag(n, k - p, p)


def tau(n: NNotation, k: int, p: int, q: int) -> NNotation:
    """Reshape i^{k-p}-by-i^p rectangles to i^{k-q}-by-i^q; size preserved."""
    if not (1 <= p <= k and 1 <= q <= k):
        raise DomainError(f"need 1 <= p, q <= k, got p={p}, q={q}, k={k}")
    if _power_exponent(n.spec.a) != k - p:
        raise SpecError(f"input widths must be the (k-p)-th powers, got {n.spec.a}")
    if _power_exponent(n.spec.b) != p:
        raise SpecError(f"input heights must be the p-th powers, got {n.spec.b}")
    return _retag(n, k - q, q)
