"""Orbits of the interchange relations, canonical representatives, class
sizes, and the class-counting formulas and series.

A relation is its set S of letter differences: adjacent letters a and b swap
when |a - b| is in S, which is {1} for the consecutive relation and every
difference >= J for geq:J (parse_relation returns S). The relations are trace
equivalences on words of distinct or repeated letters, so a class is a
connected component of the move graph and the set of linear extensions of
the word's heap; every path below takes S alone. A partition lists each
class's least word, its lexicographic normal form, by a depth-first search
that visits no other word: each prefix tests its next letters as one mask
and counts the class sizes of all its children in one table, mostly from its
parent's table, with a word-keyed memo for the rest. A class's members are
listed only when read, by the breadth-first closure that class_of runs on a
single class; tests/test_classes.py keeps a union-find scan over every word
as the partition's oracle. Member order is lexicographic. Sizes, minima and
segments of single words are read off the heap poset too. The orbit memory
guard is a member cap (posets.DEFAULT_ORBIT_CAP, 10**7) and, when
SALIENT_LIMIT_MB is set, a byte budget. A partition checks its arrangement
count against it before the search, class_size passes it to
NaturalPoset.extension_count as the cap on the heap's order ideals, and
class_of checks the class size against it before its closure.
"""
from __future__ import annotations

import itertools
import math
import os
import sys
from typing import Container, Iterator

from salient import series
from salient.errors import DomainError, GuardExceeded, OrbitOverflowError
from salient.posets import DEFAULT_ORBIT_CAP, NaturalPoset
from salient.words import (MultisetSpec, Word, check_word, _is_salient,
                           _neighbours)

CONSECUTIVE = "consecutive"
DEFAULT_BRUTE_N = 8
DEFAULT_SINGLETON_BRUTE_N = 9


class EquivalenceClass:
    """An orbit: its least member (the representative), its size and the
    relation's letter differences. The members, in lexicographic order, are
    listed by breadth-first closure each time they are read, unless the class
    was built with them; equality, hashing and `in` go by the members."""

    __slots__ = ("_representative", "_size", "_steps", "_members")

    def __init__(self, representative: Word, size: int,
                 steps: Container[int],
                 members: tuple[Word, ...] | None = None):
        self._representative = representative
        self._size = size
        self._steps = steps
        self._members = members

    @property
    def representative(self) -> Word:
        return self._representative

    @property
    def size(self) -> int:
        return self._size

    @property
    def members(self) -> tuple[Word, ...]:
        if self._members is not None:
            return self._members
        return tuple(sorted(_closure(self._representative, self._steps,
                                     self._size)))

    def __contains__(self, word) -> bool:
        return tuple(word) in self.members

    def __eq__(self, other):
        if not isinstance(other, EquivalenceClass):
            return NotImplemented
        # a representative and its relation determine the members
        return (self._representative == other._representative
                and self._size == other._size
                and (self._steps == other._steps
                     or self.members == other.members))

    def __hash__(self):
        return hash((self._representative, self._size))

    def __repr__(self):
        return (f"EquivalenceClass(representative={self._representative}, "
                f"size={self._size})")


def parse_relation(relation: str) -> Container[int]:
    """The letter differences at which a relation swaps adjacent letters:
    {1} for "consecutive", every difference >= J for "geq:J" (J >= 2)."""
    if relation == CONSECUTIVE:
        return frozenset({1})
    if relation.startswith("geq:"):
        try:
            j = int(relation[4:])
        except ValueError:
            raise DomainError(f"bad relation {relation!r}") from None
        if j < 2:
            raise DomainError("geq relation needs j >= 2")
        return range(j, sys.maxsize)
    raise DomainError(f"unknown relation {relation!r}")


def _orbit_cap(word_length: int, cap: int) -> int:
    """The member cap, lowered to what SALIENT_LIMIT_MB megabytes hold."""
    if cap < 0:
        raise DomainError(f"member cap must be >= 0, got {cap}")
    limit_mb = os.environ.get("SALIENT_LIMIT_MB")
    if limit_mb:
        if not limit_mb.isdecimal():
            raise DomainError("SALIENT_LIMIT_MB must be a non-negative "
                              f"integer, got {limit_mb!r}")
        budget = int(limit_mb)
        # rough per-member footprint: tuple header + letters + set slot
        per_member = 150 + 8 * word_length
        cap = min(cap, budget * 2 ** 20 // per_member)
    return cap


def class_of(word, relation: str = CONSECUTIVE,
             max_members: int = DEFAULT_ORBIT_CAP) -> EquivalenceClass:
    """Breadth-first closure of a word, of distinct or repeated letters,
    under the swaps at the relation's letter differences. The class size
    is read off the heap first (class_size), so an orbit over the member
    cap raises before the search starts, and the search stops at that size.
    """
    steps = parse_relation(relation)
    w = check_word(word)
    cap = _orbit_cap(len(w), max_members)
    size = class_size(w, relation, cap)
    if size > cap:
        raise OrbitOverflowError(f"orbit of {w} exceeds {cap} members")
    members = tuple(sorted(_closure(w, steps, size)))
    return EquivalenceClass(members[0], size, steps, members)


def _closure(w: Word, steps: Container[int], limit: int) -> set[Word]:
    """The words that the moves at letter differences in steps reach from
    w, by breadth-first search, which stops once it holds limit words."""
    seen = {w}
    frontier = [w]
    while frontier and len(seen) < limit:
        nxt = []
        for u in frontier:
            for v in _neighbours(u, steps):
                if v not in seen:
                    seen.add(v)
                    if len(seen) == limit:
                        return seen
                    nxt.append(v)
        frontier = nxt
    return seen


def _normal_forms(counts: list[int], commute: list[int]
                  ) -> Iterator[tuple[Word, int]]:
    """The least word of each class of arrangements of the letters 1..k,
    letter c taken counts[c] times (counts[0] is 0), in lexicographic
    order, each with the size of its class; commute[c] has bit x set when
    letters c and x commute (never c itself).

    A word is the least of its class exactly when no letter c comes after a
    run of letters that all commute with c and hold one greater than c
    (Anisimov and Knuth 1979; Diekert and Rozenberg, The Book of Traces).
    Every prefix of such a word is one too, so a depth-first search in
    letter order visits no other word. Each prefix keeps the mask of the
    letters it forbids, forbid(w·b) = (forbid(w) | letters below b) &
    commute[b], so its children are the letters left that it does not
    forbid, and a prefix with none is not entered.

    The size of a class is the number of linear extensions of its heap,
    counted from the end (a heap and its reversal have as many): count(u)
    is the sum of count(u without j) over the free positions j, those
    whose letter commutes with every later letter. Free positions hold
    distinct letters, each at its last place, so a prefix keeps them as a
    letter mask, free(w·b) = (free(w) & commute[b]) | b. On entry a prefix
    w·c counts all its children w·c·d in one table, then enters them in
    letter order. The last position gives count(w·c); when c commutes with
    d, the one before gives count(w·d), a normal form with d > c, so both
    are entries of the parent's table. The earlier free positions give
    subwords that _extension_count counts, with a memo cleared when the
    first letter changes, which bounds it by one first letter's classes.
    """
    left = list(counts)
    total = sum(left)
    if total <= 1:
        yield tuple(c for c, r in enumerate(left) if r), 1
        return
    k = len(left)
    avail = sum(1 << c for c, r in enumerate(left) if r)
    word: list[int] = []
    depth = 0   # len(word)
    # per prefix: [children not yet entered, the children's counts,
    # forbidden letters, letters at free positions]
    stack = [[avail, [1] * k, 0, 0]]
    memo: dict[Word, int] = {}
    while True:
        frame = stack[-1]
        todo, table, forbid, free = frame
        if not todo:
            if not depth:
                return
            stack.pop()
            c = word.pop()
            depth -= 1
            left[c] += 1
            avail |= 1 << c
            continue
        low = todo & -todo
        frame[0] = todo ^ low
        c = low.bit_length() - 1
        size = table[c]
        if not depth:
            memo.clear()
        left[c] -= 1
        if not left[c]:
            avail ^= low
        mask = commute[c]
        forbid = (forbid | low - 1) & mask
        allowed = avail & ~forbid
        if not allowed:
            left[c] += 1
            avail |= low
            continue
        earlier = free & mask   # free in word·c, before c
        child = [0] * k
        rest = allowed
        while rest:
            bit = rest & -rest
            rest ^= bit
            d = bit.bit_length() - 1
            n = size
            side = commute[d]
            if side & low:
                n += table[d]
            side &= earlier
            while side:
                y = side & -side
                side ^= y
                y = y.bit_length() - 1
                j = depth - 1
                while word[j] != y:
                    j -= 1
                n += _extension_count((*word[:j], *word[j + 1:], c, d),
                                      commute, memo)
            child[d] = n
        if depth + 2 == total:
            # one letter is left, so word·c has one child, a whole word
            d = allowed.bit_length() - 1
            yield (*word, c, d), child[d]
            left[c] += 1
            avail |= low
            continue
        word.append(c)
        depth += 1
        stack.append([allowed, child, forbid, earlier | low])


def _extension_count(word: Word, commute: list[int],
                     memo: dict[Word, int]) -> int:
    """The size of the class of a word over the letters 1..k (commute as
    for _normal_forms), counted from the end as there.

    memo holds the counts of words with two free positions or more, and
    calls with the same commute masks may share it. A word whose last
    letter alone is free counts as its prefix and is neither copied nor
    stored, so a long chain costs no memory; letters found missing from the
    prefix are skipped from then on. An explicit stack replaces recursion:
    a word whose subwords are not all counted is scanned again once they
    are.
    """
    stack = [word]
    while stack:
        u = stack[-1]
        if u in memo:
            stack.pop()
            continue
        end = len(u)   # u counts as u[:end]
        found: list[int] = []   # its free positions before the last
        absent = 0   # letters known not to occur before end
        while end > 1:
            last = end - 1
            free = commute[u[last]] & ~absent
            j = last - 1
            while free and j >= 0:
                c = u[j]
                if free >> c & 1:
                    found.append(j)
                free &= commute[c]
                j -= 1
            if found:
                break
            absent |= free   # what is left was not met before last
            end = last
        if not found:
            memo[u] = 1
            stack.pop()
            continue
        rest = u[:last]
        total = 1 if last <= 1 else memo.get(rest)
        pending = total is None
        if pending:
            stack.append(rest)
            total = 0
        for j in found:
            v = u[:j] + u[j + 1:end]
            n = 1 if last <= 1 else memo.get(v)
            if n is None:
                stack.append(v)
                pending = True
            else:
                total += n
        if not pending:
            memo[u] = total
            stack.pop()
    return memo[word]


def _partition(values: list[int], counts: list[int], steps: Container[int],
               max_members: int) -> list[EquivalenceClass]:
    """The orbits of the arrangements of values[i] taken counts[i] times
    (values increasing), under the moves at letter differences in steps,
    sorted by representative: the lexicographic normal forms, each with its
    heap's extension count. Refused when the arrangements exceed the member
    cap, before any word is formed. The search runs on the letters 1..k,
    which stand for the values in order."""
    total = sum(counts)
    cap = _orbit_cap(total, max_members)
    arrangements = math.factorial(total) // math.prod(
        map(math.factorial, counts))
    if arrangements > cap:
        raise OrbitOverflowError(
            f"{arrangements} arrangements exceed {cap} members")
    letters = [0, *values]
    commute = [sum(1 << x for x, b in enumerate(letters)
                   if x and abs(a - b) in steps) if c else 0
               for c, a in enumerate(letters)]
    relabel = letters != list(range(len(letters)))
    return [EquivalenceClass(tuple(map(letters.__getitem__, u)) if relabel
                             else u, size, steps)
            for u, size in _normal_forms([0, *counts], commute)]


def class_partition(n: int, relation: str = CONSECUTIVE,
                    max_members: int = DEFAULT_ORBIT_CAP
                    ) -> list[EquivalenceClass]:
    """All orbits of the relation on the permutations of [n], sorted by
    representative; refused when the n! permutations exceed the member
    cap."""
    if n < 0:
        raise DomainError("n must be >= 0")
    return _partition(list(range(1, n + 1)), [1] * n,
                      parse_relation(relation), max_members)


def multiset_class_partition(spec: MultisetSpec,
                             max_members: int = DEFAULT_ORBIT_CAP
                             ) -> list[EquivalenceClass]:
    """All consecutive-relation orbits on the arrangements of a multiset,
    sorted by representative; refused when the arrangements exceed the
    member cap."""
    return _partition([v for v, _ in spec.counts],
                      [r for _, r in spec.counts],
                      parse_relation(CONSECUTIVE), max_members)


def _heap(w: Word, steps: Container[int]) -> NaturalPoset:
    """Position j lies above each earlier i whose letter differs from w_j by
    no amount in steps, closed transitively; equal letters are thus chained.
    Read as letters, the linear extensions are exactly the class of w under
    the moves at those differences (Cartier-Foata; Viennot).

    The down-set of j is built scanning back from j. A position already in
    it adds nothing, since it is closed, and the scan stops once every
    position at or below the scan point is in it; so a chain costs a few
    steps per position, not j."""
    down: list[int] = []
    for j, b in enumerate(w):
        d = 0
        for i in range(j - 1, -1, -1):
            if abs(w[i] - b) not in steps and not d >> i & 1:
                d |= 1 << i | down[i]
                below = (2 << i) - 1
                if d & below == below:
                    break
        down.append(d)
    return NaturalPoset._closed(len(w), tuple(down))


def salient_representative(word) -> Word:
    """Lexicographic minimum of the class (the salient member for a
    permutation): place, again and again, the free heap position with the
    smallest letter. Free positions are an antichain, whose letters differ
    pairwise by exactly one, so at most two are free and they never tie."""
    w = check_word(word)
    down = _heap(w, {1}).down
    placed = 0
    out = []
    for _ in w:
        p = min((i for i in range(len(w))
                 if not placed >> i & 1 and not down[i] & ~placed),
                key=w.__getitem__)
        placed |= 1 << p
        out.append(w[p])
    return tuple(out)


def segment_decomposition(word) -> tuple[Word, ...]:
    """Segments of a word with distinct letters: the heap's ordinal summands,
    whose classes multiply to the word's class.

    A cut falls before position k when every position from k on lies above
    all earlier ones. A summand's letters are consecutive integers, written
    increasing, or decreasing when there are three or more and the smallest
    comes after the smallest plus two. tests/test_classes.py
    (test_segments_are_maximal_against_bfs) checks this for n <= 8.
    """
    w = check_word(word)
    if len(set(w)) != len(w):
        raise DomainError("segment decomposition needs distinct letters")
    down = _heap(w, {1}).down
    segments: list[Word] = []
    stop, common = len(w), -1
    for k in range(len(w) - 1, -1, -1):
        common &= down[k]
        if common & ((1 << k) - 1) == (1 << k) - 1:
            part = w[k:stop]
            seg = sorted(part)
            if len(seg) >= 3 and part.index(seg[0]) > part.index(seg[0] + 2):
                seg.reverse()
            segments.append(tuple(seg))
            stop = k
    return tuple(reversed(segments))


def class_size(word, relation: str = CONSECUTIVE,
               max_members: int = DEFAULT_ORBIT_CAP) -> int:
    """Size of the word's class under the relation, without listing it: the
    number of linear extensions of its heap, counted by
    NaturalPoset.extension_count with the member cap as its ideal cap.
    Refused when the ideals exceed it; a consecutive heap has antichains of
    at most two positions, so at most (len(w)/2 + 1)^2 ideals."""
    steps = parse_relation(relation)
    w = check_word(word)
    cap = _orbit_cap(len(w), max_members)
    try:
        return _heap(w, steps).extension_count(cap)
    except GuardExceeded:
        raise OrbitOverflowError(
            f"heap of {w} has more than {cap} order ideals") from None


# ---------------------------------------------------------------------------
# counting formulas and series
# ---------------------------------------------------------------------------

def count_classes_brute(n: int) -> int:
    """Number of consecutive-relation classes on permutations of [n], by
    scanning for salient permutations (one per class)."""
    if n < 0:
        raise DomainError("n must be >= 0")
    if n > DEFAULT_BRUTE_N:
        raise GuardExceeded(
            f"n = {n} exceeds brute-force limit {DEFAULT_BRUTE_N}")
    return sum(1 for p in itertools.permutations(range(1, n + 1))
               if _is_salient(p))


def f_inclusion_exclusion(n: int) -> int:
    """Class count by inclusion-exclusion:
    sum over j of (-1)^j (n-j)! C(n-j, j)."""
    if n < 0:
        raise DomainError("n must be >= 0")
    return sum((-1) ** j * math.factorial(n - j) * math.comb(n - j, j)
               for j in range(n // 2 + 1))


def f_series(n: int) -> list[int]:
    """Coefficients of x^0..x^n of sum over m of m! (x (1 - x))^m."""
    if n < 0:
        raise DomainError("n must be >= 0")
    out = [0] * (n + 1)
    fact = 1
    for m in range(n + 1):
        if m:
            fact *= m
        for i in range(min(m, n - m) + 1):
            out[m + i] += fact * (-1) ** i * math.comb(m, i)
    return out


def count_singletons(n: int, max_n: int = DEFAULT_SINGLETON_BRUTE_N) -> int:
    """Permutations of [n] whose adjacent letters always differ by >= 2;
    these are exactly the one-element classes."""
    if n < 0:
        raise DomainError("n must be >= 0")
    if n > max_n:
        raise GuardExceeded(f"n = {n} exceeds brute-force limit {max_n}")
    if n == 0:
        return 1
    return sum(1 for p in itertools.permutations(range(1, n + 1))
               if all(abs(a - b) >= 2 for a, b in zip(p, p[1:])))


def singleton_series(n: int) -> list[int]:
    """Coefficients of x^0..x^n of sum over m of m! (x(1-x)/(1+x))^m."""
    if n < 0:
        raise DomainError("n must be >= 0")
    base = series.expand_rational({(1,): 1, (2,): -1}, {(0,): 1, (1,): 1},
                                  (n,), variables=("x",))
    total = power = series.TruncatedSeries.constant(1, ("x",), (n,))
    fact = 1
    for m in range(1, n + 1):
        power = power * base
        fact *= m
        total = total + power * fact
    return [total.coefficient((i,)) for i in range(n + 1)]


def f_j_count(n: int, j: int) -> int:
    """Number of classes of the swap-when-differing-by-at-least-j relation:
    n! for n <= j and j! * j^(n-j) otherwise (class_partition(n, "geq:J")
    lists them)."""
    if n < 0 or j < 2:
        raise DomainError("need n >= 0 and j >= 2")
    if n <= j:
        return math.factorial(n)
    return math.factorial(j) * j ** (n - j)
