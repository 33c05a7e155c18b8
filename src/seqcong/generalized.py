"""Generalized sequentially congruent partitions over rectangle specifications.

A :class:`GenSpec` pairs a sequence A of rectangle widths with a strictly
increasing sequence B of rectangle heights.  The partitions it describes are
those whose Young diagram tiles into a_i-by-b_i rectangles; the coefficient
vector [n_1, ..., n_r] counting the rectangles of each shape is the partition's
n-notation.  With A = (1, 2, 3, ...) and B = N everything here collapses to the
square case of :mod:`seqcong.bijections`.

Each infinite width/height family has one closed form, term i = scale * i**exp
(naturals, k-th powers, arithmetic multiples), evaluated on demand at any i:
a power term past ``MAX_PART`` is refused unbuilt, and an answer past
``MAX_OUTPUT_PARTS`` before it is built.  An explicit list raises
``HorizonError`` past its end.  A spec realizes its (a_i, b_i) pairs once, as
far as the longest n-notation vector built over it needs; each vector takes
its prefix when it is built, and the maps read them from there.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable

from .bijections import _canonical
from .errors import DomainError, HorizonError, SpecError
from .partition import MAX_PART, Partition, _check_largest, _check_output_length, _runs

def _nth_root(value: int, k: int) -> int | None:
    """Exact integer k-th root of a positive integer, or None (for k = 0, only 1 is a power)."""
    if k == 0 or k >= value.bit_length():  # 2**k > value: only 1 can be a k-th power
        return 1 if value == 1 else None
    root = max(1, round(value ** (1.0 / k)))
    while root**k > value:
        root -= 1
    while (root + 1) ** k <= value:
        root += 1
    return root if root**k == value else None


class SequenceRule:
    """One side (A or B) of a GenSpec: an infinite family tag or an explicit list.

    Grammar accepted by :meth:`parse`: ``nat`` | ``pow:k`` | ``arith:a`` | a
    comma list like ``2,5,9``.  A family's term i is ``scale * i**exp``: nat is
    (1, 1), ``pow:k`` is (1, k) and ``arith:a`` is (a, 1); an explicit list
    has no formula and keeps its terms.
    """

    __slots__ = ("tag", "param", "terms", "scale", "exp")

    def __init__(self, tag: str, param: int | None = None, terms: Iterable[int] = ()):
        terms = tuple(terms)
        if tag not in ("nat", "pow", "arith", "explicit"):
            raise SpecError(f"unknown sequence tag {tag!r}")
        if terms and tag != "explicit":
            raise SpecError(f"sequence tag {tag!r} takes no terms")
        # plain ints only: a bool or a float here would become a part that no check sees
        if type(param) is not int and (param is not None or tag in ("pow", "arith")):
            raise SpecError(f"sequence parameter must be an integer, got {param!r}")
        if tag == "explicit" and (not terms or any(type(x) is not int or x < 1 for x in terms)):
            raise SpecError(f"explicit sequence needs positive integers, got {terms}")
        if tag == "pow" and param < 0:
            raise SpecError("power exponent must be nonnegative")
        if tag == "arith" and param < 1:
            raise SpecError("arithmetic step must be positive")
        self.tag, self.param, self.terms = tag, param, terms
        self.scale = param if tag == "arith" else 1
        self.exp = param if tag == "pow" else 1

    @classmethod
    def naturals(cls) -> "SequenceRule":
        return cls("nat")

    @classmethod
    def powers(cls, k: int) -> "SequenceRule":
        rule = cls("pow", k)
        return cls("nat") if k == 1 else rule

    @classmethod
    def arithmetic(cls, a: int) -> "SequenceRule":
        return cls("arith", a)

    @classmethod
    def explicit(cls, terms: Iterable[int]) -> "SequenceRule":
        return cls("explicit", None, terms)

    @classmethod
    def parse(cls, text: str) -> "SequenceRule":
        text = text.strip()
        if text == "nat":
            return cls.naturals()
        if text.startswith(("pow:", "arith:")):
            tag, _, raw = text.partition(":")
            try:
                param = int(raw)
            except ValueError:
                raise SpecError(f"cannot parse sequence rule {text!r}") from None
            return cls.powers(param) if tag == "pow" else cls.arithmetic(param)
        try:
            terms = [int(tok) for tok in text.split(",")]
        except ValueError:
            raise SpecError(f"cannot parse sequence rule {text!r}") from None
        return cls.explicit(terms)

    def term(self, i: int) -> int:
        """1-based term access; an explicit list raises past its end."""
        if i < 1:
            raise SpecError("sequence positions are 1-based")
        if self.terms:
            if i > len(self.terms):
                raise HorizonError(f"sequence {self} has only {len(self.terms)} terms, needed term {i}")
            return self.terms[i - 1]
        # scale is 1 whenever exp is not, so this is scale * i**exp
        if self.exp == 1:
            return self.scale * i
        # i**exp has more than exp * (bit_length(i) - 1) bits: refuse it unbuilt past MAX_PART's
        if self.exp * (i.bit_length() - 1) >= MAX_PART.bit_length():
            raise OverflowError(f"term {i} of {self} exceeds the 64-bit part range")
        return i**self.exp

    def index_of(self, value: int) -> int | None:
        """Position of ``value`` in the sequence, or None when absent: read off a
        family's closed form at any size, or found in an explicit list."""
        if value < 1:
            return None
        if self.terms:
            try:
                return self.terms.index(value) + 1
            except ValueError:
                return None
        if self.exp == 1:
            return None if value % self.scale else value // self.scale
        return _nth_root(value, self.exp)

    def is_strictly_increasing(self) -> bool:
        if self.terms:
            return all(x < y for x, y in zip(self.terms, self.terms[1:]))
        return self.exp >= 1

    def has_distinct_terms(self) -> bool:
        if self.terms:
            return len(set(self.terms)) == len(self.terms)
        return self.exp >= 1

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

    __slots__ = ("a", "b", "_pairs")

    def __init__(self, a: SequenceRule, b: SequenceRule):
        if not b.is_strictly_increasing():
            raise SpecError(f"heights must be strictly increasing, got {b}")
        self.a, self.b = a, b
        self._pairs: tuple[tuple[int, int], ...] = ()

    @classmethod
    def standard(cls) -> "GenSpec":
        """A = (1, 2, 3, ...), B = N: plain sequentially congruent partitions."""
        return cls(SequenceRule.naturals(), SequenceRule.naturals())

    @classmethod
    def power_widths(cls, k: int) -> "GenSpec":
        """A = (1^k, 2^k, 3^k, ...), B = N."""
        return cls(SequenceRule.powers(k), SequenceRule.naturals())

    @classmethod
    def parse(cls, a_text: str, b_text: str) -> "GenSpec":
        return cls(SequenceRule.parse(a_text), SequenceRule.parse(b_text))

    def a_term(self, i: int) -> int:
        return self.a.term(i)

    def b_term(self, i: int) -> int:
        return self.b.term(i)

    def pairs(self, r: int) -> tuple[tuple[int, int], ...]:
        """The rectangle shapes (a_i, b_i) for i = 1..r, each realized once per spec.

        They grow exactly to the r asked, a before b at each i, so a term past
        an explicit list's end or the part range fails as its own ``term``
        call fails.
        Two threads growing them at once build equal prefixes, so either may
        keep its tuple.
        """
        pairs = self._pairs
        if r > len(pairs):
            a, b = self.a, self.b
            grown = list(pairs)
            # a loop, as a comprehension's closure costs more on CPython 3.11
            for i in range(len(pairs) + 1, r + 1):
                grown.append((a.term(i), b.term(i)))
            self._pairs = pairs = tuple(grown)
        return pairs[:r]

    def require_distinct_a(self) -> None:
        if not self.a.has_distinct_terms():
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
    """Rectangle counts [n_1, ..., n_r] over a GenSpec; trailing count nonzero.

    ``pairs`` holds the rectangle shapes (a_i, b_i) for i = 1..r, taken
    from the spec here so that every decode and map after it is total.
    """

    __slots__ = ("spec", "coeffs", "pairs")

    def __init__(self, spec: GenSpec, coeffs: Iterable[int] = ()):
        t = _canonical(coeffs)
        self.spec, self.coeffs, self.pairs = spec, t, spec.pairs(len(t))

    @property
    def length(self) -> int:
        """Length of the encoded partition: the last rectangle height."""
        return self.pairs[-1][1] if self.pairs else 0

    @property
    def size(self) -> int:
        return sum(a * b * c for (a, b), c in zip(self.pairs, self.coeffs))

    @property
    def largest(self) -> int:
        return sum(a * c for (a, _), c in zip(self.pairs, self.coeffs))

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
    order, the order of the conjugate's parts, so a tall height whose width
    lies past an explicit list's end raises before a smaller height can
    answer False, and the scan stops at the first height that fails.  A
    power width a_i = i**exp that has more bits than the multiplicity exceeds
    it, so it answers False unrealized.
    """
    t = p.parts + (0,)
    a, b = spec.a, spec.b
    for h in range(len(t) - 1, 0, -1):
        mult = t[h - 1] - t[h]
        if mult and ((i := b.index_of(h)) is None
                     or a.exp > 1 and a.exp * (i.bit_length() - 1) >= mult.bit_length()
                     or mult % a.term(i)):
            return False
    return True


def n_encode(p: Partition, spec: GenSpec) -> NNotation:
    """Coordinates of a member partition; DomainError when p is not a member."""
    if p.is_empty():
        return NNotation(spec, ())
    a, b = spec.a, spec.b
    length = len(p)
    r = b.index_of(length)
    if r is None:
        raise DomainError(f"length {length} is not a rectangle height of {spec}")
    coeffs = [0] * r
    for h, mult in _drop_profile(p).items():
        # the last drop is at the length, whose position r is known
        i = r if h == length else b.index_of(h)
        if i is None:
            raise DomainError(f"parts drop at height {h}, which is not in {spec}")
        if a.exp > 1 and a.exp * (i.bit_length() - 1) >= mult.bit_length():  # a_i has more bits than the drop
            raise DomainError(f"drop {mult} at height {h} is not a multiple of width {i}**{a.exp}")
        a_i = a.term(i)
        if mult % a_i:
            raise DomainError(f"drop {mult} at height {h} is not a multiple of width {a_i}")
        coeffs[i - 1] = mult // a_i
    return NNotation(spec, coeffs)


def n_decode(n: NNotation) -> Partition:
    """Standard form of the encoded partition: suffix sums on the height runs.

    The length is the last height b_r, checked before the parts are built.
    """
    pairs, coeffs = n.pairs, n.coeffs
    _check_output_length(n.length)
    parts: list[int] = []
    value = 0
    for i in range(len(coeffs) - 1, -1, -1):
        a, b = pairs[i]
        value += a * coeffs[i]
        parts += [value] * (b - pairs[i - 1][1] if i else b)
    _check_largest(value)
    parts.reverse()
    return Partition._of(tuple(parts))


def _frequency_partition(values: list[int], counts: tuple[int, ...]) -> Partition:
    """<v_1^{c_1}, ..., v_r^{c_r}>, values in any order: the checks of ``FrequencyMap.to_partition``."""
    entries = sorted([(v, c) for v, c in zip(values, counts) if c], reverse=True)
    _check_largest(entries[0][0] if entries else 0)
    return _runs([v for v, _ in entries], [c for _, c in entries])


def sigma_AB(n: NNotation) -> Partition:
    """Frequency partition <a_1^{n_1}, ..., a_r^{n_r}> (widths must be distinct).

    The output size equals the decoded input's largest part.  Non-increasing
    width sequences are reordered by value when materializing.
    """
    n.spec.require_distinct_a()
    return _frequency_partition([a for a, _ in n.pairs], n.coeffs)


def pi_AB(p: Partition, spec: GenSpec) -> NNotation:
    """Turn each width-a_i column of the diagram into an a_i-by-b_i rectangle.

    The input must have all its column heights in A (it is a conjugate of a
    partition with parts from A); coefficients attach to the position of each
    drop height within A, so non-increasing A uses value-matched positions.
    """
    spec.require_distinct_a()
    counts: dict[int, int] = {}
    for h, mult in _drop_profile(p).items():
        i = spec.a.index_of(h)
        if i is None:
            raise DomainError(f"column height {h} is not a width in {spec}")
        counts[i] = mult
    return NNotation(spec, [counts.get(i, 0) for i in range(1, max(counts, default=0) + 1)])


def pi_prime_AB(p: Partition, spec: GenSpec) -> Partition:
    """Stretch: coefficients are the part differences of any input partition."""
    t = p.parts
    return n_decode(NNotation(spec, [x - y for x, y in zip(t, t[1:] + (0,))]))


def sigma_prime_AB(p: Partition, spec: GenSpec) -> Partition:
    """Squish-flip: <1^{n_1}, ..., r^{n_r}> for the coordinates of a member."""
    c = n_encode(p, spec).coeffs
    return _runs(range(len(c), 0, -1), c[::-1])


def is_in_Sk(p: Partition, k: int) -> bool:
    """Congruence chain with moduli i^k: part i = part i+1 (mod i^k), last part divisible by r^k, decided first."""
    if type(k) is not int:  # a float modulus would round a difference past 2**53
        raise TypeError(f"k must be an integer, got {k!r}")
    if not 0 < k < 64:  # for i >= 2, i**63 > MAX_PART = 2**63 - 1: a larger k gives k = 63's answer
        if k < 1:
            raise DomainError("k must be a positive integer")
        k = 63
    parts = p.parts
    if parts and parts[-1] % len(parts)**k:
        return False
    for i in range(2, len(parts)):  # modulus 1**k divides the first difference
        if (parts[i - 1] - parts[i]) % i**k:
            return False
    return True


def is_in_Sjk(p: Partition, j: int, k: int) -> bool:
    """Exact-difference chain: part i - part i+1 = j * i^k, closed by last part = j * r^k, decided first.

    That closing condition matches the bijection onto (k+1)-th powers with every part repeated j times."""
    if type(j) is not int or type(k) is not int:  # as in is_in_Sk
        raise TypeError(f"j and k must be integers, got j={j!r}, k={k!r}")
    if j < 1:
        raise DomainError("j must be a positive integer")
    if not 0 <= k < 64:  # as in is_in_Sk
        if k < 0:
            raise DomainError("k must be a nonnegative integer")
        k = 63
    parts = p.parts
    if parts and parts[-1] != j * len(parts)**k:
        return False
    for i in range(1, len(parts)):
        if parts[i - 1] - parts[i] != j * i**k:
            return False
    return True


def _power_exponent(rule: SequenceRule) -> int:
    if rule.tag in ("pow", "nat"):
        return rule.exp
    raise SpecError(f"operation needs a power-family sequence, got {rule}")


def sigma_k(n: NNotation) -> Partition:
    """<(1^k)^{n_1}, ..., (r^k)^{n_r}> for coefficients over widths A = N^k.

    Output size equals the decoded input's largest part.
    """
    _power_exponent(n.spec.a)
    return _frequency_partition([a for a, _ in n.pairs], n.coeffs)


def psi_k(n: NNotation) -> Partition:
    """<(1^{k+1})^{n_1}, ...>: flatten each rectangle into one row; size preserved."""
    _power_exponent(n.spec.a)
    return _frequency_partition([a * i for i, (a, _) in enumerate(n.pairs, 1)], n.coeffs)


@lru_cache(maxsize=64)
def _retagged(a_exp: int, b_exp: int) -> GenSpec:
    """The spec A = N^a_exp, B = N^b_exp, built once, so its pairs are realized once across calls."""
    return GenSpec(SequenceRule.powers(a_exp), SequenceRule.powers(b_exp))


def _retag(n: NNotation, a_exp: int, b_exp: int) -> NNotation:
    return NNotation(_retagged(a_exp, b_exp), n.coeffs)


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
