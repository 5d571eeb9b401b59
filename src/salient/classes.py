"""Orbits of the interchange relations, canonical representatives, Fibonacci
class sizes, and the class-counting formulas and series.

The relations are trace equivalences, so a class is a connected component of
the move graph. Partitions come from one union-find scan over the words in
lexicographic order; class_of lists a single class by breadth-first closure
and is the oracle for the scan. Member order is lexicographic. Sizes, minima
and segments are read off the word's heap poset instead. The orbit memory
guard is a member cap (default 10**7) and, when SALIENT_LIMIT_MB is set, a
byte budget. A partition checks its arrangement count against it before the
scan; class_of checks the heap's class size (consecutive relation) before the
search and the visited set as it grows.
"""
from __future__ import annotations

import itertools
import math
import os
from dataclasses import dataclass
from typing import Iterable

from salient import series
from salient.errors import DomainError, GuardExceeded, OrbitOverflowError
from salient.posets import NaturalPoset
from salient.words import (MultisetSpec, Word, check_permutation, check_word,
                           fibonacci, _is_salient, _neighbours)

CONSECUTIVE = "consecutive"
DEFAULT_ORBIT_CAP = 10_000_000
DEFAULT_BRUTE_N = 8
DEFAULT_SINGLETON_BRUTE_N = 9


@dataclass(frozen=True)
class EquivalenceClass:
    """An orbit: its members in lexicographic order, the least canonical."""

    members: tuple[Word, ...]

    @property
    def representative(self) -> Word:
        return self.members[0]

    @property
    def size(self) -> int:
        return len(self.members)

    def __contains__(self, word) -> bool:
        return tuple(word) in self.members


def parse_relation(relation: str) -> tuple[str, int | None]:
    """Normalize a relation name: "consecutive" or "geq:J" with J >= 2."""
    if relation == CONSECUTIVE:
        return CONSECUTIVE, None
    if relation.startswith("geq:"):
        try:
            j = int(relation[4:])
        except ValueError:
            raise DomainError(f"bad relation {relation!r}") from None
        if j < 2:
            raise DomainError("geq relation needs j >= 2")
        return "geq", j
    raise DomainError(f"unknown relation {relation!r}")


def _steps(relation: str, n: int) -> frozenset[int]:
    """Letter differences |a - b| at which the relation swaps an adjacent
    pair in a word of length n (a permutation, for the geq relations)."""
    kind, j = parse_relation(relation)
    return frozenset({1} if kind == CONSECUTIVE else range(j, n))


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
    """Breadth-first closure of a word under the relation's moves.

    Multiset words are only meaningful for the consecutive relation; the
    geq relations require a permutation. For the consecutive relation the
    class size is read off the heap first, so an orbit over the member cap
    raises before the search starts; the cap is also enforced as it grows.
    """
    kind, _ = parse_relation(relation)
    w = check_word(word) if kind == CONSECUTIVE else check_permutation(word)
    steps = _steps(relation, len(w))
    cap = _orbit_cap(len(w), max_members)
    if kind == CONSECUTIVE and class_size(w) > cap:
        raise OrbitOverflowError(f"orbit of {w} exceeds {cap} members")
    seen = {w}
    frontier = [w]
    while frontier:
        nxt = []
        for u in frontier:
            for v in _neighbours(u, steps):
                if v not in seen:
                    seen.add(v)
                    if len(seen) > cap:
                        raise OrbitOverflowError(
                            f"orbit of {w} exceeds {cap} members")
                    nxt.append(v)
        frontier = nxt
    return EquivalenceClass(tuple(sorted(seen)))


def _scan_partition(words: Iterable[Word], steps: frozenset[int],
                    arrangements: int, length: int,
                    max_members: int) -> list[EquivalenceClass]:
    """The orbits of words listed in lexicographic order, by one union-find
    scan: each word is joined to every neighbour one move away that is
    lexicographically smaller (a swap at i with w_i - w_{i+1} in steps),
    which the scan has already met. Each set's root is its least word, so a
    parent is always smaller than its child."""
    cap = _orbit_cap(length, max_members)
    if arrangements > cap:
        raise OrbitOverflowError(
            f"{arrangements} arrangements exceed {cap} members")
    parent: dict[Word, Word] = {}
    positions = range(length - 1)
    for w in words:
        parent[w] = root = w
        for i in positions:
            if w[i] - w[i + 1] in steps:
                r = parent[w[:i] + (w[i + 1], w[i]) + w[i + 2:]]
                while (p := parent[r]) is not r:
                    parent[r] = r = parent[p]  # path halving
                if r is not root:
                    if r < root:
                        root, r = r, root
                    parent[r] = root
    # in scan order every parent is settled on its root before its children
    # come up, so members arrive sorted and classes by representative
    members: dict[Word, list[Word]] = {}
    for w, p in parent.items():
        parent[w] = r = parent[p]
        if r is w:
            members[w] = [w]
        else:
            members[r].append(w)
    # each map is freed as the member tuples are built, which keeps the
    # process's peak memory down
    parent.clear()
    out = []
    while members:
        out.append(EquivalenceClass(tuple(members.popitem()[1])))
    out.reverse()
    return out


def class_partition(n: int, relation: str = CONSECUTIVE,
                    max_members: int = DEFAULT_ORBIT_CAP
                    ) -> list[EquivalenceClass]:
    """All orbits of the relation on the permutations of [n], sorted by
    representative, each with its members sorted; refused when the n!
    permutations exceed the member cap."""
    if n < 0:
        raise DomainError("n must be >= 0")
    return _scan_partition(itertools.permutations(range(1, n + 1)),
                           _steps(relation, n), math.factorial(n), n,
                           max_members)


def multiset_class_partition(spec: MultisetSpec,
                             max_members: int = DEFAULT_ORBIT_CAP
                             ) -> list[EquivalenceClass]:
    """All consecutive-relation orbits on the arrangements of a multiset;
    refused when the arrangements exceed the member cap."""
    arrangements = math.factorial(spec.total) // math.prod(
        math.factorial(r) for _, r in spec.counts)
    return _scan_partition(spec.words(), _steps(CONSECUTIVE, spec.total),
                           arrangements, spec.total, max_members)


def _heap(w: Word) -> NaturalPoset:
    """Position j lies above each earlier i with |w_i - w_j| != 1, closed
    transitively; equal letters are thus chained. Read as letters, the
    linear extensions are exactly the class of w (Cartier-Foata; Viennot)."""
    down: list[int] = []
    for j, b in enumerate(w):
        d = 0
        for i in range(j):
            if abs(w[i] - b) != 1:
                d |= 1 << i | down[i]
        down.append(d)
    return NaturalPoset._closed(len(w), tuple(down))


def salient_representative(word) -> Word:
    """Lexicographic minimum of the class (the salient member for a
    permutation): place, again and again, the free heap position with the
    smallest letter. Free positions are an antichain, whose letters differ
    pairwise by exactly one, so at most two are free and they never tie."""
    w = check_word(word)
    down = _heap(w).down
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
    down = _heap(w).down
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


def class_size(word) -> int:
    """Size of the word's class, without listing it: the product of F(m+1)
    over segments of length m or, with a repeated letter, the heap's
    linear-extension count (its antichains have at most two positions, so it
    has O(len(w)^2) order ideals and needs no guard)."""
    w = check_word(word)
    if len(set(w)) != len(w):
        return _heap(w).extension_count(max_size=len(w))
    return math.prod(fibonacci(len(s) + 1) for s in segment_decomposition(w))


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
