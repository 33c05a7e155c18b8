"""Shared oracles and strategies.

The oracles here are deliberately naive, independent reimplementations used to
cross-check the library: textbook recursive partition generators and the
former ZS1 generator, the direct summation forms of the core bijections and
of conjugation, the square-count vector generators of the sequentially
congruent partitions, closed-form membership predicates for the ideal kinds,
brute-force box filtering for the ideal-kind enumerators, the size-ordered
scans the ideal engines' pruned walks replaced, the class closure keyed by
removal sets that the pass over pairs of classes replaced, the modulus and
linking checks that fold every shifted tuple from its first part, children
rules made from an incremental test by filtering, the member walk that
counted Adiff before its sum side did, and the count over classes of member
prefixes that counted the other prefix-closed kinds before their series did.
"""

from math import lcm

from hypothesis import strategies as st

from seqcong import (
    CNotation,
    ClosureReport,
    DomainError,
    LinkEntry,
    LinkReport,
    ModulusReport,
    Partition,
    ResourceError,
    conjugate,
    counting,
    enumerate_partitions,
    from_c_notation,
    iter_partition_tuples,
    pi_map,
)
from seqcong.partition import EMPTY


def naive_partitions(n, max_part=None):
    """All partitions of n by head recursion; the enumeration oracle."""
    cap = n if max_part is None else min(max_part, n)
    if n == 0:
        return [()]
    out = []
    for head in range(cap, 0, -1):
        for rest in naive_partitions(n - head, head):
            out.append((head,) + rest)
    return out


def recursive_partition_tuples(n, max_part=None, max_length=None):
    """Partitions of n with part/length caps, reverse lexicographic, by recursion.

    The library's former generator, kept as the oracle for the iterative one.
    A negative ``max_length`` counts as 0.
    """
    cap = n if max_part is None else min(max_part, n)
    room = n if max_length is None else max(max_length, 0)

    def rec(remaining, cap, room, prefix):
        if remaining == 0:
            yield prefix
            return
        if room == 0 or cap <= 0:
            return
        lo = -(-remaining // room)  # smallest head that still fits in `room` parts
        for v in range(min(cap, remaining), lo - 1, -1):
            yield from rec(remaining - v, v, room - 1, prefix + (v,))

    yield from rec(n, cap, room, ())


def zs1_partition_tuples(n, max_part=None, max_length=None):
    """Partitions of n with part/length caps as tuples, reverse lexicographic, by ZS1.

    The library's former generator, kept as the oracle for the splicing walk.
    Each step decrements the rightmost part whose suffix still fits the length
    cap and refills the suffix greedily (ZS1, Zoghbi & Stojmenovic 1998, with
    caps).  A cap below 1 leaves only the empty partition of 0.
    """
    if n == 0:
        yield ()
        return
    cap = n if max_part is None else min(max_part, n)
    room = n if max_length is None else max_length
    if cap < 1 or room < 1 or n > cap * room:
        return
    x = []
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


def all_partitions_upto(n):
    """Every partition of every size up to n, as Partition values."""
    return [Partition(t) for m in range(n + 1) for t in naive_partitions(m)]


def pi_direct(p: Partition) -> Partition:
    """Row-sum form of the size-to-largest-part map: i*p_i plus the later parts."""
    r = len(p)
    return Partition(
        tuple(i * p.part(i) + sum(p.part(j) for j in range(i + 1, r + 1)) for i in range(1, r + 1))
    )


def sigma_direct(p: Partition) -> Partition:
    """Frequency form of the inverse map, one exponent per difference."""
    r = len(p)
    parts = []
    for i in range(r, 0, -1):
        exponent = (p.part(i) - p.part(i + 1)) // i
        parts.extend([i] * exponent)
    return Partition(parts)


def seqcong_with_largest_upto(n):
    """Sequentially congruent partitions with largest part at most n, via vectors."""
    out = []
    for m in range(n + 1):
        out.extend(_seqcong_largest_exactly(m))
    return out


def _seqcong_largest_exactly(m):
    """Every c-vector of weight sum(i * c_i) == m, trailing zeros dropped, decoded."""
    found = []

    def rec(i, remaining, coeffs):
        if i == 0:
            if remaining == 0:
                c = coeffs[::-1]
                while c and not c[-1]:
                    c.pop()
                found.append(from_c_notation(CNotation(c)))
            return
        for c in range(remaining // i, -1, -1):
            rec(i - 1, remaining - c * i, coeffs + [c])

    rec(m, m, [])
    return found


def pi_sorted_by_largest(n):
    """The members with largest part n as the library once listed them: pi_map of every partition of n, sorted."""
    return sorted(map(pi_map, enumerate_partitions(n)), key=lambda p: p.parts, reverse=True)


def c_tails(i, r):
    """Tails (mu_{i+1}, ...) of the sequentially congruent partitions with mu_i = r, reverse lexicographic.

    Those are the tails of the members with largest part r whose first i parts are all r, from
    the recursive c-vector decoder."""
    return sorted((p.parts[i:] for p in _seqcong_largest_exactly(r) if p.parts[:i] == (r,) * i), reverse=True)


def _iter_c_vectors(weights, total):
    """Coefficient vectors c with sum(weights[i] * c[i]) == total, trailing nonzero.

    The library's former generator of the square-count vectors of S, kept as
    the oracle for the listings that the bijections pi and psi now build.
    """
    if total == 0:
        yield ()
        return
    for r_used in range(1, len(weights) + 1):
        # Fixing the last nonzero position keeps vectors canonical.
        w_last = weights[r_used - 1]
        for c_last in range(1, total // w_last + 1):
            rest = total - c_last * w_last
            for head in _bounded_vectors(weights[: r_used - 1], rest):
                yield head + (c_last,)


def _bounded_vectors(weights, total):
    if not weights:
        if total == 0:
            yield ()
        return
    w = weights[0]
    for c in range(total // w, -1, -1):
        for rest in _bounded_vectors(weights[1:], total - c * w):
            yield (c,) + rest


def conjugate_by_transpose(p: Partition) -> Partition:
    """Column heights of the Young diagram; the oracle for ``conjugate``."""
    if p.is_empty():
        return EMPTY
    cols = [0] * p.largest
    for row in p.parts:
        for j in range(row):
            cols[j] += 1
    return Partition(cols)


def sba_by_conjugate(p, spec):
    """Generalized membership read off the conjugate's multiplicities.

    The library's former ``is_in_SBA``, kept as the oracle for the one that
    reads the drop profile without building the conjugate.
    """
    freq = {}
    for x in conjugate(p).parts:
        freq[x] = freq.get(x, 0) + 1
    for value, mult in freq.items():
        i = spec.b.index_of(value)
        if i is None:
            return False
        if mult % spec.a_term(i):
            return False
    return True


# ---------------------------------------------------------------------------
# closed-form membership of the prefix-closed ideal kinds, the library's
# former predicates, kept as oracles for the folds of the incremental tests
# ---------------------------------------------------------------------------

def sa_member(t):
    # Literal reading of the divisibility characterization: every part is
    # divisible by every positive integer up to its index.
    for i, x in enumerate(t, 1):
        for j in range(2, i + 1):
            if x % j:
                return False
    return True


def sa_member_lcm(t):
    # Congruence-chain definition (part i congruent to part i+1 modulo
    # lcm(1..i), with 0 past the end); the oracle for sa_member.
    m = 1
    for i in range(1, len(t) + 1):
        m = lcm(m, i)
        nxt = t[i] if i < len(t) else 0
        if (t[i - 1] - nxt) % m:
            return False
    return True


def distinct_member(t):
    return len(set(t)) == len(t)


def rr_member(t):
    for i in range(len(t) - 1):
        if t[i] - t[i + 1] < 2:
            return False
    return True


def rprime_member(t):
    return not t or t[-1] >= len(t)


def adiff_member(t):
    r = len(t)
    for j in range(1, r):
        if t[j - 1] - t[j] < r - j:
            return False
    return True


def parity_member(t):
    return not t or all((x - t[0]) % 2 == 0 for x in t)


def pprime_member(t):
    return parity_member(t) and distinct_member(t)


def oracle_member(spec):
    """The closed-form membership predicate of a prefix-closed spec."""
    param = spec.param
    return {
        "SA": sa_member,
        "SA_maxlen": lambda t: len(t) <= param and sa_member(t),
        "D": distinct_member,
        "R": rr_member,
        "Rprime": rprime_member,
        "Adiff": adiff_member,
        "N_maxlen": lambda t: len(t) <= param,
        "P_parity": parity_member,
        "P_mod": lambda t: not t or all((x - t[0]) % param == 0 for x in t),
        "Pprime": pprime_member,
    }[spec.kind]


class FilteredParts:
    """The parts in [lo, top] that ``ok(t, i, part)`` takes, each tested only when it is read.

    Read ascending by iterating and descending by ``reversed``, as a range is,
    so a walk over a huge ``top`` tests only the parts it reaches.
    """

    def __init__(self, ok, t, i, lo, top):
        self.ok, self.t, self.i, self.lo, self.top = ok, t, i, lo, top

    def __iter__(self):
        return (v for v in range(self.lo, self.top + 1) if self.ok(self.t, self.i, v))

    def __reversed__(self):
        return (v for v in range(self.top, self.lo - 1, -1) if self.ok(self.t, self.i, v))


def children_by_filter(ok):
    """A children rule made from an incremental test by filtering: what a spec walks once a test
    replaces its ``_child_ok``, and a spy that sees every part an engine reads."""
    return lambda t, i, lo, top: FilteredParts(ok, t, i, lo, top)


def walked_member_counts(spec, upto):
    """Members of a prefix-closed spec of every size 0..upto, from one walk of its members.

    The library's former Adiff count, kept as the oracle for its sum side.  It is refused from
    size ``MAX_COUNT_CELLS`` on, before it starts; below that nothing bounds it.
    """
    if upto >= counting.MAX_COUNT_CELLS:
        raise ResourceError(f"counting {spec} to size {upto} walks its members to {upto + 1} sizes, "
                            f"above {counting.MAX_COUNT_CELLS}")
    counts, stack = {0: 1}, [((), 0, iter(spec._children((), 0, 1, upto)))]
    while stack:  # (member, its size, its children of size <= upto not yet walked)
        t, size, parts = stack[-1]
        if v := next(parts, 0):  # parts are positive
            counts[s] = counts.get(s := size + v, 0) + 1
            stack.append((c := t + (v,), s, iter(spec._children(c, len(c), 1, min(v, upto - s)))))
        else:
            stack.pop()
    return [counts.get(n, 0) for n in range(upto + 1)]


def state_counts(spec, upto):
    """{size: members} for sizes 0..upto of a prefix-closed spec with a summary, one pass by length.

    A member prefix's class is its summary and last part: the children rule
    answers alike for the class and its members extend to equal classes.  So a
    class keeps one representative and a {size: count} histogram, and the rule
    is read once per class, never once per member.  The library's former count
    of SA, SA_maxlen, P_mod and Pprime, kept as the oracle for their series.
    """
    children, summary = spec._children, spec._summary
    counts, layer, n = {}, [((), {0: 1})], 0
    while layer:
        longer, cells = {}, 0
        for t, sizes in layer:
            for s, k in sizes.items():
                counts[s] = counts.get(s, 0) + k
            for v in children(t, n, 1, min(t[-1], upto - min(sizes)) if t else upto):
                c = t + (v,)
                child = longer.setdefault((summary(c), v), (c, {}))[1]
                cells -= len(child)
                for s, k in sizes.items():
                    if s + v <= upto:
                        child[s + v] = child.get(s + v, 0) + k
                cells += len(child)
                if cells > counting.MAX_COUNT_CELLS:
                    raise ResourceError(f"counting {spec} to size {upto} needs more than "
                                        f"{counting.MAX_COUNT_CELLS} (class, size) cells in one layer")
        layer, n = list(longer.values()), n + 1
    return counts


def recursive_member_tuples(spec, max_part, max_length):
    """Members in the box of a prefix-closed spec, in prefix order, by recursion.

    The library's former box walker, kept as the oracle for the iterative one.
    """
    child_ok = spec._child_ok

    def rec(prefix, last):
        for v in range(min(last, max_part), 0, -1):
            if child_ok(prefix, len(prefix), v):
                t = prefix + (v,)
                yield t
                if len(t) < max_length:
                    yield from rec(t, v)

    yield ()
    yield from rec((), max_part)


def scan_order_refute(spec, k, bound, windows):
    """First non-member with member k-windows, scanning the box by size then revlex.

    The library's former order search, kept as the oracle for the pruned walk.
    """
    member = spec._member
    for n in range(1, bound.max_part * bound.max_length + 1):
        for t in iter_partition_tuples(n, bound.max_part, bound.max_length):
            if member(t):
                continue
            if all(member(w) for w in windows(t, k)):
                return Partition(t)
    return None


def scan_remainders(spec, m, bound, tails):
    """Per tail, the parts > m completing it to a member, by one box scan that tries every tail.

    The box is scanned by size, then reverse lexicographic, up to the longest room any tail leaves.
    """
    member = spec._member
    rooms = {pi: max(bound.max_length - len(pi), 0) for pi in tails}
    room = max(rooms.values(), default=0)
    found = {pi: [] for pi in tails}
    for n in range(0, bound.max_part * room + 1):
        for bigs in iter_partition_tuples(n, bound.max_part, room):
            if all(x > m for x in bigs):
                for pi in tails:
                    if len(bigs) <= rooms[pi] and member(bigs + pi):
                        found[pi].append(bigs)
    return found


def scan_remainders_per_tail(spec, m, bound, tails):
    """``scan_remainders`` by a box scan per tail, the oracle's former form."""
    member = spec._member
    found = {}
    for pi in tails:
        room = bound.max_length - len(pi)
        found[pi] = [
            bigs
            for n in range(0, bound.max_part * max(room, 0) + 1)
            for bigs in iter_partition_tuples(n, bound.max_part, room)
            if all(x > m for x in bigs) and member(bigs + pi)
        ]
    return found


def scan_members(spec, max_part, max_length):
    """Members in the box: the recursive walk for prefix-closed kinds, else a scan by size."""
    if spec.prefix_closed:
        return recursive_member_tuples(spec, max_part, max_length)
    return (
        t
        for n in range(max_part * max_length + 1)
        for t in iter_partition_tuples(n, max_part, max_length)
        if spec._member(t)
    )


def _removals(t):
    """Single-part removals of t, one per distinct part value, with the value."""
    for j, v in enumerate(t):
        if j == 0 or t[j - 1] != v:
            yield v, t[:j] + t[j + 1:]


def scan_closure(spec, bound):
    """Closure check recomputing each member's removals, over the former walk order.

    The library's former closure loop, kept as the oracle for the one that
    carries removal lists down the walk.
    """
    member = spec._member
    memo = {}
    checked = 0
    for t in scan_members(spec, bound.max_part, bound.max_length):
        checked += 1
        for v, smaller in _removals(t):
            ok = memo.get(smaller)
            if ok is None:
                ok = member(smaller)
                memo[smaller] = ok
            if not ok:
                return ClosureReport(spec, bound, False, checked, Partition(t), v, Partition(smaller))
    return ClosureReport(spec, bound, True, checked)


def class_closure(spec, bound):
    """Members in the box, or None when a removal of one is no member, stepped on classes of members.

    The library's former class closure, kept as the oracle for the pass over
    pairs of classes: a class is a member's length, summary, last part and the
    frozenset of its removals' keys (summary, last part), and each child of a
    class tests one removal per key, but for the key of t's own parent when the
    child's part repeats t's last (t's parent plus it is t).
    """
    ok, children, summary, cap = spec._child_ok, spec._children, spec._summary, bound.max_length

    def key(t):
        return (summary(t), t[-1]) if t else None

    layer, checked = [[1, (), {}]], 0  # [members, representative, removal key -> removal]
    for n in range(cap + 1):
        longer = {}
        for count, t, removals in layer:
            checked += count
            for v in children(t, n, 1, t[-1] if t else bound.max_part) if n < cap else ():
                rest = iter(removals.values())
                if t and t[-1] == v:
                    next(rest)
                child = {key(t): t}
                for s in rest:
                    if not ok(s, n - 1, v):
                        return None
                    child[key(s + (v,))] = s + (v,)
                longer.setdefault((key(t + (v,)), frozenset(child)), [0, t + (v,), child])[0] += count
        layer = list(longer.values())
    return checked


def _size_revlex(t):
    return (sum(t), tuple(-x for x in t))


def scan_modulus(spec, m, bound):
    """Modulus check folding every shifted member from its first part.

    The library's former ``check_modulus``, kept as the oracle for the one
    that carries the shifts down the walk.
    """
    if m < 1:
        raise DomainError("modulus must be positive")
    member = spec._member
    for t in scan_members(spec, bound.max_part, bound.max_length):
        if not member(tuple(x + m for x in t)):
            return ModulusReport(spec, m, bound, False, Partition(t), "shift-escapes")
        if t and t[-1] > m and not member(tuple(x - m for x in t)):
            return ModulusReport(spec, m, bound, False, Partition(t), "unshift-escapes")
    return ModulusReport(spec, m, bound, True)


def walked_remainders(spec, m, bound, tails):
    """Per tail, the members with parts > m completing it, each completion folded whole.

    The library's former ``_remainders``: S scans the box per tail.
    """
    if not spec.prefix_closed:
        return scan_remainders(spec, m, bound, tails)
    member = spec._member
    pool = sorted((t for t in recursive_member_tuples(spec, bound.max_part, bound.max_length)
                   if all(x > m for x in t)), key=_size_revlex)
    return {
        pi: [bigs for bigs in pool if len(bigs) + len(pi) <= bound.max_length and member(bigs + pi)]
        for pi in tails
    }


def scan_linking(spec, m, bound, span_cap=4, remainders=walked_remainders, modulus=scan_modulus):
    """Linking search folding every shifted remainder and built partition whole.

    The library's former ``infer_linking`` over the oracles above, kept as the
    oracle for the one that decides shifts from their parents'.
    """
    if m < 1:
        raise DomainError("modulus must be positive")
    if span_cap < 1:
        raise DomainError("span cap must be positive")
    member = spec._member

    mod_report = modulus(spec, m, bound)
    if not mod_report.holds:
        return LinkReport(
            spec, m, bound, "refuted",
            witness=mod_report.witness,
            reason=f"no modulus {m} within bound ({mod_report.direction})",
        )

    small = sorted(scan_members(spec, min(m, bound.max_part), bound.max_length), key=_size_revlex)
    L_set = tuple(map(Partition, small))
    if any(len(t) >= bound.max_length for t in small):
        return LinkReport(spec, m, bound, "L-infinite-within-bound", L_set=L_set,
                          reason="small-part members still appear at the length cap")

    bigs_by_tail = remainders(spec, m, bound, small)

    entries = []
    first_bad = None
    for pi in L_set:
        remainders_pi = bigs_by_tail[pi.parts]
        nonempty = [b for b in remainders_pi if b]
        max_l = span_cap
        if nonempty:
            min_big = min(b[-1] for b in nonempty)
            max_l = min(span_cap, (min_big - 1) // m)
        entry = None
        fallback = None
        for l in range(max_l, 0, -1):
            shift = l * m
            forced = []
            seen = set()
            bad = None
            for bigs in remainders_pi:
                rem = tuple(x - shift for x in bigs)
                if not member(rem):
                    bad = LinkEntry(pi, witness=Partition(bigs + pi.parts), reason=(
                        f"member remainder shifted down by {shift} leaves the ideal"))
                    break
                key = tuple(x for x in rem if x <= m)
                if key not in bigs_by_tail:
                    bad = LinkEntry(pi, witness=Partition(bigs + pi.parts), reason=(
                        "member remainder's tail is outside the small-member set"))
                    break
                if key not in seen:
                    seen.add(key)
                    forced.append(key)
            if bad is not None:
                fallback = bad
                continue
            forced.sort(key=_size_revlex)
            violation = None
            for tau in forced:
                for bigs in bigs_by_tail[tau]:
                    built = tuple(x + shift for x in bigs + tau) + pi.parts
                    if not member(built):
                        violation = LinkEntry(pi, witness=Partition(built), reason=(
                            f"tail {Partition(tau)} with span {l} builds a non-member"))
                        break
                if violation is not None:
                    break
            if violation is None:
                entry = LinkEntry(pi, span=l, linking_set=tuple(Partition(t) for t in forced))
                break
            fallback = violation
        if entry is None:
            entry = fallback if fallback is not None else LinkEntry(
                pi, witness=None, reason="no feasible span")
            if first_bad is None:
                first_bad = entry
        entries.append(entry)

    if first_bad is not None:
        return LinkReport(spec, m, bound, "refuted", L_set=L_set, entries=tuple(entries),
                          witness=first_bad.witness, reason=first_bad.reason)
    return LinkReport(spec, m, bound, "linked-within-bound", L_set=L_set, entries=tuple(entries))


partitions_st = st.lists(st.integers(1, 24), max_size=8).map(
    lambda xs: Partition(sorted(xs, reverse=True))
)

seqcong_st = (
    st.lists(st.integers(0, 3), max_size=6)
    .map(lambda xs: xs + [1])
    .map(lambda xs: from_c_notation(CNotation(xs)))
)
