"""Orbits of the interchange relations, canonical representatives, class
sizes, and the class-counting formulas and series.

A relation is its set S of letter differences: adjacent letters a and b swap
when |a - b| is in S, which is {1} for the consecutive relation and every
difference >= J for geq:J (parse_relation returns S). The relations are trace
equivalences on words of distinct or repeated letters, so a class is a
connected component of the move graph and the set of linear extensions of
the word's heap; every path below takes S alone. A partition lists each
class's least word, its lexicographic normal form, by a depth-first search
that visits no other word: each prefix tests its next letters as one mask,
skips a prefix after which some letter left can never be placed, and counts
its children's class sizes in one loop, from a table per prefix on the search
path of the prefix's counts without small up-sets of its heap; the lists that
hold a prefix's children and tables are kept per prefix length and reused by
the next prefix of that length. A class's members are listed only when read,
by breadth-first closure from its least word, for a partition class and a
single word's class alike; tests/test_classes.py keeps a union-find scan over
every word as the partition's oracle. Member order is lexicographic. Sizes,
least words and segments of single words are read off the heap poset, under
every relation. The orbit memory guard is a member cap
(posets.DEFAULT_ORBIT_CAP, 10**7) and, when SALIENT_LIMIT_MB is set, a byte
budget. A partition checks its arrangement count against it before the
search, class_size passes it to NaturalPoset.extension_count as the cap on
the heap's order ideals, and class_of checks the class size against it.
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
    listed by breadth-first closure each time they are read, for a partition
    class and a single word's class alike; equality, hashing and `in` go by
    the members."""

    __slots__ = ("_representative", "_size", "_steps")

    def __init__(self, representative: Word, size: int,
                 steps: Container[int]):
        self._representative = representative
        self._size = size
        self._steps = steps

    @property
    def representative(self) -> Word:
        return self._representative

    @property
    def size(self) -> int:
        return self._size

    @property
    def members(self) -> tuple[Word, ...]:
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
    """The class of a word, of distinct or repeated letters, under the
    swaps at the relation's letter differences. Its size and least word are
    read off the heap (class_size, _least_word), and an orbit over the
    member cap raises; no word is listed here. The members are listed by
    breadth-first closure when read, as a partition class's are.
    """
    steps = parse_relation(relation)
    w = check_word(word)
    cap = _orbit_cap(len(w), max_members)
    size = class_size(w, relation, cap)
    if size > cap:
        raise OrbitOverflowError(f"orbit of {w} exceeds {cap} members")
    return EquivalenceClass(_least_word(w, steps), size, steps)


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
    forbid. A prefix is not entered when it has no child, or when a letter
    left is forbidden and every other letter left commutes with it: that
    letter stays forbidden whatever comes next, so it is never placed.

    The size of a class is the number of linear extensions of its heap,
    counted from the end (a heap and its reversal have as many): count(u)
    is the sum of count(u without x) over the free positions x of u, those
    whose letter commutes with every later letter. Each prefix p = word[:j]
    on the search path may have a table from an up-set F of its heap, a
    mask of positions before j - 1, to the entry (count, free letters,
    free positions) of the ideal p without F. A table is made when first
    needed, so most prefixes never get one. The last position is free and
    leaves word[:j - 1] without F, an entry of the level below; each other
    free position x leaves F | x, an entry of the same level. When F holds
    the positions from q up to the last, the last letter commutes with all
    of theirs and the ideal is the sibling word[:q]·(last letter) without
    the rest of F: the sibling's own entry when that rest is empty, else
    an entry of the sibling's table, which is read when it holds the
    entry. No nested search fills a sibling's table; an ideal it does not
    hold is counted on the path like any other. A child's count thus takes
    its parent's count, its sibling's and one entry per earlier free
    position. Entries are filled when first read, missing ones on an
    explicit stack, so no recursion grows with the word and no word is
    copied.

    The search keeps one set of lists per prefix length, reused along the
    path: a prefix's children not yet entered, its forbidden letters, and
    its children's entries and tables, which the next prefix of the same
    length overwrites. One loop prices every child of the prefix just
    entered. A sibling that is read is always a child of its level that
    the prefix allows, so every entry read belongs to the path. With three
    letters left or more the search descends; with two left, each whole
    word word·c·d·e is counted from its child word·c·d, plus word·c·e when
    d and e commute, plus its side terms.
    """
    left = list(counts)
    total = sum(left)
    if total < 3:
        w = tuple(c for c, r in enumerate(left) for _ in range(r))
        if total == 2 and w[0] != w[1] and commute[w[0]] >> w[1] & 1:
            yield w, 2
        else:
            yield w, 1
            if total == 2 and w[0] != w[1]:
                yield w[::-1], 1
        return
    k = len(left)
    # the letters that do not commute with each, itself aside
    others = [~m ^ 1 << c for c, m in enumerate(commute)]
    avail = sum(1 << c for c, r in enumerate(left) if r)
    word = [0] * total
    # tabs[j] is word[:j]'s table, or None until without first needs it
    # and makes it with word[:j]'s own entry (F = 0): it maps an up-set F
    # of its heap, as a position mask without j - 1, to the (count, free
    # letters, free positions) of word[:j] without F. A sibling's table is
    # read when it holds the entry; no nested search fills it
    tabs: list = [{0: (1, 0, 0)}] + [None] * total
    # per level j, for the prefix word[:j] on the path: its children not
    # yet entered, its forbidden letters, its children's (count, free
    # letters, free positions) and their tables or None; the next prefix
    # of length j overwrites them
    todos = [avail] + [0] * (total - 1)
    forbids = [0] * total
    kids = [[(1, 1 << c, 1) for c in range(k)]]
    kids += [[None] * k for _ in range(total - 1)]
    kid_tabs = [[None] * k for _ in range(total)]

    def sibling(i: int, f: int) -> tuple | None:
        # word[:i] without f when f holds the positions q to i - 2: then the
        # last letter d commutes with theirs, and the ideal is the sibling
        # word[:q]·d without the rest of f, read when the sibling's entry or
        # table holds it; None when it does not, or when f holds no such
        # positions
        q = i - 1
        while q and f >> (q - 1) & 1:
            q -= 1
        if q == i - 1:
            return None
        g = f & ~(-1 << q)
        d = word[i - 1]
        if g:
            sib = kid_tabs[q][d]
            entry = sib.get(g) if sib else None
            if entry is None:
                return None
        else:
            entry = kids[q][d]
        n, fl, fp = entry
        entry = tabs[i][f] = n, fl, fp ^ 1 << q | 1 << (i - 1)
        return entry

    def without(j: int, up: int) -> int:
        # the count of word[:j] without the up-set up
        todo = [(j, up)]
        while todo:
            item = todo[-1]
            if len(item) > 2:
                # the larger up-sets it waited for are counted now
                i, f, n, kept, fl, fp = item
                tab = tabs[i]
                while kept:
                    x = kept & -kept
                    kept ^= x
                    n += tab[f | x][0]
                tab[f] = n, fl, fp
                todo.pop()
                continue
            i, f = item
            tab = tabs[i]
            if f in tab:
                todo.pop()
                continue
            # without its last position: word[:q] without g, where
            # positions q to i - 2 are those of f just below the last
            q = i - 1
            while q and f >> (q - 1) & 1:
                q -= 1
            g = f & ~(-1 << q)
            level = tabs[q]
            if level is None:
                # word[:q]'s table, made when first needed, with its own entry
                d = word[q - 1]
                level = tabs[q] = kid_tabs[q - 1][d] = {0: kids[q - 1][d]}
            below = level.get(g)
            if below is None:
                below = sibling(q, g)
            if below is None:
                todo.append((q, g))
                continue
            n, fl, fp = below
            b = word[i - 1]
            mask = commute[b]
            keep = fl & mask
            kept = fp if keep == fl else _kept(fp, mask, word) if keep else 0
            resume = None
            m = n
            rest = kept
            while rest:
                x = rest & -rest
                rest ^= x
                entry = tab.get(f | x)
                if entry is None:
                    entry = sibling(i, f | x)
                if entry is not None:
                    m += entry[0]
                    continue
                if resume is None:
                    resume = todo[-1] = (i, f, n, kept, keep | 1 << b,
                                         kept | 1 << (i - 1))
                todo.append((i, f | x))
            if resume is None:
                tab[f] = m, keep | 1 << b, kept | 1 << (i - 1)
                todo.pop()
        return tabs[j][up][0]

    depth = 0   # the length of the prefix being extended
    while True:
        todo = todos[depth]
        if not todo:
            if not depth:
                return
            depth -= 1
            c = word[depth]
            left[c] += 1
            avail |= 1 << c
            continue
        low = todo & -todo
        todos[depth] = todo ^ low
        c = low.bit_length() - 1
        left[c] -= 1
        if not left[c]:
            avail ^= low
        forbid = (forbids[depth] | low - 1) & commute[c]
        allowed = avail & ~forbid
        stuck = avail & forbid
        while stuck:
            x = stuck & -stuck
            stuck ^= x
            if not avail & others[x.bit_length() - 1]:
                allowed = 0
                break
        if not allowed:
            left[c] += 1
            avail |= low
            continue
        entries = kids[depth]
        size, fl, fp = entries[c]
        word[depth] = c
        # word[:depth + 1]'s table, or None until first needed
        tabs[depth + 1] = kid_tabs[depth][c]
        j = depth + 2
        at = 1 << depth   # c's position
        end = at << 1   # the position after it
        # price every child of word[:j - 1]
        child = kids[depth + 1]
        ctab = kid_tabs[depth + 1]
        rest = allowed
        while rest:
            bit = rest & -rest
            rest ^= bit
            d = bit.bit_length() - 1
            mask = commute[d]
            ctab[d] = None
            keep = fl & mask
            n = size
            if keep & low:
                n += entries[d][0]
            if not keep & ~low:
                kept = keep and at
            else:
                earlier = fp ^ at
                if keep | low != fl:
                    earlier = _kept(earlier, mask, word)
                kept = earlier | (keep & low and at)
                word[depth + 1] = d
                tabs[j] = ctab[d] = {}
                while earlier:
                    x = earlier & -earlier
                    earlier ^= x
                    n += without(j, x)
            child[d] = n, keep | bit, kept | end
        if depth + 3 < total:
            # three letters left or more: descend
            todos[depth + 1] = allowed
            forbids[depth + 1] = forbid
            depth += 1
            continue
        # two letters left: each word·c·d·e is a whole word, counted here
        rest = allowed
        while rest:
            bit = rest & -rest
            rest ^= bit
            d = bit.bit_length() - 1
            # the other letter left, or d again
            e = (avail ^ bit or bit).bit_length() - 1
            mask = commute[e]
            if mask & bit and e < d:
                # word·c·e·d is the normal form: the prune left e no other
                # way to be forbidden after d
                continue
            word[depth + 1] = d
            word[depth + 2] = e
            n, fl, fp = child[d]
            keep = fl & mask
            if not keep:
                yield tuple(word), n
                continue
            # without d, when d and e commute, the word is word·c·e
            count = n + child[e][0] if keep & bit else n
            if keep & ~bit:
                kept = fp ^ end
                if keep | bit != fl:
                    kept = _kept(kept, mask, word)
                tabs[j] = ctab[d]
                tabs[j + 1] = {}
                while kept:
                    x = kept & -kept
                    kept ^= x
                    count += without(j + 1, x)
            yield tuple(word), count
        left[c] += 1
        avail |= low


def _kept(positions: int, mask: int, word: list[int]) -> int:
    """The positions in a position mask whose letters are in a letter mask."""
    out = 0
    while positions:
        x = positions & -positions
        positions ^= x
        if mask >> word[x.bit_length() - 1] & 1:
            out |= x
    return out


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


def _least_word(w: Word, steps: Container[int]) -> Word:
    """Lexicographic minimum of w's class under the moves at the letter
    differences in steps: place, again and again, the free heap position
    with the smallest letter. Free positions are pairwise incomparable, so
    their letters differ by an element of steps and never tie."""
    down = _heap(w, steps).down
    placed = 0
    out = []
    for _ in w:
        p = min((i for i in range(len(w))
                 if not placed >> i & 1 and not down[i] & ~placed),
                key=w.__getitem__)
        placed |= 1 << p
        out.append(w[p])
    return tuple(out)


def salient_representative(word) -> Word:
    """Lexicographic minimum of the word's consecutive class: the salient
    member for a permutation."""
    return _least_word(check_word(word), frozenset({1}))


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
