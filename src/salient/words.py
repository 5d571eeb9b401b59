"""Words, descent sets, salience, and the elementary interchange moves.

A word is a tuple of positive integers (letters are 1-based). A permutation
of [n] = {1, ..., n} is a word containing each of 1..n exactly once; multiset
words repeat letters according to a MultisetSpec. Words compare
lexicographically by their letter sequence, and that order is the tie-breaker
everywhere ("lexicographically least member", canonical representatives).

A relation is its set of letter differences: its moves swap adjacent letters
whose values differ by an amount in that set. Two families of relations act
on words, of distinct or repeated letters alike:

* consecutive moves swap adjacent letters whose values differ by exactly one,
* geq-j moves (j >= 2) swap adjacent letters whose values differ by at least
  j.

Serialization: a word prints as a plain digit string when every letter is at
most 9 ("13254") and as comma-separated integers otherwise ("10,2,1").
"""
from __future__ import annotations

from typing import Container, Iterator

from salient.errors import DomainError

Word = tuple[int, ...]


# ---------------------------------------------------------------------------
# construction, validation, serialization
# ---------------------------------------------------------------------------

def check_word(word) -> Word:
    """Validate letters and normalize to a tuple.

    >>> check_word([2, 1, 3])
    (2, 1, 3)
    """
    w = tuple(word)
    for a in w:
        if not isinstance(a, int) or isinstance(a, bool) or a < 1:
            raise DomainError(f"letters must be integers >= 1, got {a!r}")
    return w


def is_permutation(word) -> bool:
    """True if the word contains each of 1..n exactly once.

    The empty word is the (unique) permutation of the empty set.

    >>> [is_permutation(w) for w in [(), (1, 2), (2, 2), (1, 3)]]
    [True, True, False, False]
    """
    w = tuple(word)
    return sorted(w) == list(range(1, len(w) + 1))


def check_permutation(word) -> Word:
    w = check_word(word)
    if not is_permutation(w):
        raise DomainError(f"{format_word(w)!r} is not a permutation of [n]")
    return w


def identity(n: int) -> Word:
    return tuple(range(1, n + 1))


def reverse(word) -> Word:
    return tuple(reversed(tuple(word)))


def parse_word(text: str) -> Word:
    """Parse the serialized form of a word.

    >>> parse_word("13254")
    (1, 3, 2, 5, 4)
    >>> parse_word("10,2,1")
    (10, 2, 1)
    """
    text = text.strip()
    if not text:
        return ()
    if "," in text:
        parts = text.split(",")
    else:
        parts = list(text)
    try:
        letters = tuple(int(p) for p in parts)
    except ValueError:
        raise DomainError(f"cannot parse word {text!r}") from None
    return check_word(letters)


def format_word(word) -> str:
    w = tuple(word)
    if all(a <= 9 for a in w):
        return "".join(str(a) for a in w)
    return ",".join(str(a) for a in w)


# ---------------------------------------------------------------------------
# descents and salience
# ---------------------------------------------------------------------------

def descent_set(word) -> frozenset[int]:
    """Positions i (1-based) where letter i exceeds letter i+1.

    >>> sorted(descent_set((2, 1, 3, 5, 4)))
    [1, 4]
    >>> descent_set(())
    frozenset()
    """
    w = check_word(word)
    return frozenset(i + 1 for i in range(len(w) - 1) if w[i] > w[i + 1])


def _is_salient(w: Word) -> bool:
    # no unchecked validation; shared by the brute-force scans
    n = len(w)
    for i in range(n - 1):
        if w[i] == w[i + 1] + 1:
            return False
    for i in range(n - 2):
        if w[i] == w[i + 1] + 2 and w[i] == w[i + 2] + 1:
            return False
    return True


def is_salient(word) -> bool:
    """True if no adjacent descent by exactly one and no factor (c+2, c, c+1).

    Salient permutations are the canonical representatives of the
    consecutive-interchange equivalence classes: each class contains exactly
    one, and it is the lexicographic minimum of the class.

    >>> [is_salient(w) for w in [(1, 2, 3, 4), (2, 1, 3, 4), (3, 1, 2)]]
    [True, False, False]
    """
    return _is_salient(check_permutation(word))


# ---------------------------------------------------------------------------
# moves
# ---------------------------------------------------------------------------

def _neighbours(u: Word, steps: Container[int]) -> Iterator[Word]:
    """Words one swap of adjacent letters from u, at each position where the
    letters differ by an amount in steps (unchecked: u is already
    validated)."""
    for i in range(len(u) - 1):
        if abs(u[i] - u[i + 1]) in steps:
            yield u[:i] + (u[i + 1], u[i]) + u[i + 2:]


def consecutive_moves(word) -> set[Word]:
    """All words reachable by one swap of adjacent letters differing by 1.

    >>> sorted(consecutive_moves((1, 2, 3)))
    [(1, 3, 2), (2, 1, 3)]
    """
    return set(_neighbours(check_word(word), (1,)))


# ---------------------------------------------------------------------------
# sparse subsets and Fibonacci numbers
# ---------------------------------------------------------------------------

def sparse_subsets(n: int) -> list[frozenset[int]]:
    """All sparse subsets of [n-1]; there are F(n+1) of them.

    >>> [sorted(s) for s in sparse_subsets(3)]
    [[], [1], [2]]
    """
    if n < 0:
        raise DomainError("n must be >= 0")
    subs: list[tuple[int, ...]] = [()]
    for v in range(1, n):
        subs = subs + [s + (v,) for s in subs if not s or s[-1] < v - 1]
    subs.sort(key=lambda s: (len(s), s))
    return [frozenset(s) for s in subs]


def fibonacci(n: int) -> int:
    """Fibonacci numbers with F(1) = F(2) = 1 (and F(0) = 0).

    >>> [fibonacci(k) for k in range(1, 9)]
    [1, 1, 2, 3, 5, 8, 13, 21]
    """
    if n < 0:
        raise DomainError("n must be >= 0")
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


# ---------------------------------------------------------------------------
# multisets
# ---------------------------------------------------------------------------

class MultisetSpec:
    """A multiset {1^r1, ..., n^rn}, stored as sorted (value, count) pairs.

    Zero counts are dropped; gaps in the value support are allowed, e.g.
    {1^2, 2, 4^2}. Serialized form: "1:2,2:1,3:2". Immutable; equal specs
    have equal counts.
    """

    __slots__ = ("counts",)

    def __init__(self, counts: tuple[tuple[int, int], ...]):
        seen = set()
        for v, r in counts:
            if not isinstance(v, int) or isinstance(v, bool) or v < 1:
                raise DomainError(f"multiset values must be >= 1, got {v!r}")
            if not isinstance(r, int) or isinstance(r, bool) or r < 1:
                raise DomainError(f"counts must be >= 1, got {r!r}")
            if v in seen:
                raise DomainError(f"duplicate value {v}")
            seen.add(v)
        if tuple(sorted(counts)) != counts:
            raise DomainError("counts must be sorted by value")
        object.__setattr__(self, "counts", counts)

    def __setattr__(self, name, value):
        raise AttributeError("MultisetSpec is immutable")

    def __delattr__(self, name):
        raise AttributeError("MultisetSpec is immutable")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.counts == other.counts

    def __hash__(self):
        return hash((self.counts,))

    def __repr__(self):
        return f"MultisetSpec(counts={self.counts!r})"

    def __reduce__(self):
        return MultisetSpec, (self.counts,)

    @classmethod
    def from_mapping(cls, mapping) -> "MultisetSpec":
        pairs = tuple(sorted((v, r) for v, r in dict(mapping).items() if r))
        return cls(pairs)

    @classmethod
    def parse(cls, text: str) -> "MultisetSpec":
        """Parse "1:2,2:1,3:2" into a spec. Each part is checked before the
        parts of one value are summed; zero counts are dropped.

        >>> MultisetSpec.parse("1:2,2:1,3:2").total
        5
        """
        counts: dict[int, int] = {}
        text = text.strip()
        if not text:
            return cls(())
        for part in text.split(","):
            try:
                v, r = map(int, part.split(":"))
            except ValueError:
                raise DomainError(f"cannot parse multiset {text!r}") from None
            if v < 1:
                raise DomainError(f"multiset values must be >= 1, got {v}")
            if r < 0:
                raise DomainError(f"multiset counts must be >= 0, got {r}")
            counts[v] = counts.get(v, 0) + r
        return cls.from_mapping(counts)

    def format(self) -> str:
        return ",".join(f"{v}:{r}" for v, r in self.counts)

    @property
    def total(self) -> int:
        return sum(r for _, r in self.counts)

    def words(self) -> Iterator[Word]:
        """All distinct arrangements, in lexicographic order: Knuth's
        Algorithm L (TAOCP 7.2.1.2), stepping to the next permutation of the
        letters in place.

        >>> list(MultisetSpec.parse("1:2,3:1").words())
        [(1, 1, 3), (1, 3, 1), (3, 1, 1)]
        """
        a = [v for v, r in self.counts for _ in range(r)]
        last = len(a) - 1
        while True:
            yield tuple(a)
            j = last - 1
            while j >= 0 and a[j] >= a[j + 1]:
                j -= 1
            if j < 0:
                return
            k = last
            while a[j] >= a[k]:
                k -= 1
            a[j], a[k] = a[k], a[j]
            a[j + 1:] = a[:j:-1]
