"""Structural generation and enumeration of the posets with
multiplicity-free flag h-vectors.

A bounded graded poset is multiplicity-free exactly when each rank holds at
most two elements, so the family is listed directly, as level words: the
interior levels bottom-up, "1" for a singleton (joined completely to both
neighbours) and, for a pair, its join with the level below: K (complete,
the only choice above a singleton or the bottom), M (a matching), or P or
P' (three covers: one upper element covers both lower ones, and one lower
element is covered twice). In P that lower element is the one the block's
previous three-cover join, carried up through M joins, left covering both;
in P' it is the other. posets.level_word_poset assembles a word's poset.

The ordinal-sum cuts fall at the singletons and K joins, so each run of pairs
linked by M, P and P' is an indecomposable block. Its first three-cover join
refers to nothing and is always P: a block of L levels has 1 + (3^(L-1) - 1)/2
forms, and distinct words give non-isomorphic posets. A block K P x3 ... xm
with no M is the interior of lattice_from_gamma(g) for an m-bit gamma word
(each later join is P where g changes bit and P' where it repeats one), and
an M join above pair level i is GradedPoset.stretch(i).

The distributive members are the lattice words: no M, and K only over the
bottom or a singleton, so every block is an L(gamma). The distributive case
of the paper (ideal lattices J(P) with multiplicity-free flag h-vectors) is
the family of their join-irreducible posets P, ordinal sums of q_gamma blocks.

The guards are module constants: MAX_RANK and MAX_ELEMENTS bound the level
words, and so MAX_RANK bounds the distributive family too.
"""
from __future__ import annotations

from typing import Iterator

from salient.errors import DomainError, GuardExceeded
from salient.posets import (GradedPoset, NaturalPoset, join_irreducibles,
                            level_word_poset)
from salient.series import TruncatedSeries, expand_rational

MAX_RANK = 10
MAX_ELEMENTS = 16


def distributive_count_series(order: int) -> list[int]:
    """Counts of the distributive multiplicity-free family by element count:
    the expansion of (1 - 2x) / ((1 - x)(1 - 2x - x^2))."""
    expansion = expand_rational({(0,): 1, (1,): -2},
                                {(0,): 1, (1,): -3, (2,): 1, (3,): 1}, (order,))
    return [expansion.coefficient((i,)) for i in range(order + 1)]


def distributive_mf_family(n: int) -> list[NaturalPoset]:
    """All n-element posets (one per isomorphism class) whose ideal lattice
    has a multiplicity-free flag h-vector: the join-irreducible posets of the
    rank-n lattice words (n = 0 gives the empty poset)."""
    if not n:
        return [NaturalPoset(0, ())]
    return [join_irreducibles(level_word_poset(word))
            for word in _lattice_words(n)]


def count_distributive_mf(n: int) -> int:
    """Size of distributive_mf_family(n), tallied without any poset."""
    return len(_lattice_words(n)) if n else 1


def _lattice_words(n: int) -> list[tuple[str, ...]]:
    """The level words of the rank-n distributive lattices of the family."""
    return [word for word in _level_words("rank", n, _LATTICE_JOINS)
            if len(word) == n - 1]


# ---------------------------------------------------------------------------
# level words
# ---------------------------------------------------------------------------

# The joins a two-element level may take after a word, by the word's state,
# each with the state it leaves: None when the word ends in a singleton (or
# is empty), else whether its last block has a three-cover join yet.
_PAIR_JOINS = {None: (("K", False),),
               False: (("K", False), ("M", False), ("P", True)),
               True: (("K", False), ("M", True), ("P", True), ("P'", True))}

# The same for the lattice words: no M, and K only where the word is empty or
# ends in a singleton.
_LATTICE_JOINS = {None: (("K", False),), False: (("P", True),),
                  True: (("P", True), ("P'", True))}


def _level_words(by: str, bound: int, joins=_PAIR_JOINS
                 ) -> Iterator[tuple[str, ...]]:
    """Every level word up to the bound whose pair joins follow the table
    joins, by ascending rank (its length plus one) or element count (its
    level sizes plus two), each weight listed depth-first: a level weighs 1
    by rank and its size by elements."""
    if by == "rank":
        name, cap, totals, pair = "rank", MAX_RANK, bound, 1
    elif by == "elements":
        name, cap, totals, pair = "element", MAX_ELEMENTS, bound - 1, 2
    else:
        raise DomainError(f"unknown enumeration mode {by!r}")
    if bound < 0:
        raise DomainError(f"{name} bound must be >= 0")
    if bound > cap:
        raise GuardExceeded(f"{name} bound {bound} exceeds {cap}")
    for total in range(totals):
        stack = [((), None, total)]  # a prefix, its state, the weight left
        while stack:
            word, state, left = stack.pop()
            if not left:
                yield word
                continue
            stack.append((word + ("1",), None, left - 1))
            if left >= pair:
                stack += [(word + (join,), after, left - pair)
                          for join, after in joins[state]]


def _size(word: tuple[str, ...]) -> int:
    return 2 + sum(1 if join == "1" else 2 for join in word)


def generate_mf_posets(by: str = "rank", bound: int = 8
                       ) -> Iterator[GradedPoset]:
    """All bounded graded posets with at most two elements per rank, hence
    exactly the multiplicity-free ones, up to the bound on rank ("rank") or
    element count ("elements"), one per isomorphism class: one per level
    word, so nothing is canonicalized; tests/test_mfenum.py
    (test_generated_mf_posets_pairwise_non_isomorphic) asserts it."""
    for word in _level_words(by, bound):
        yield level_word_poset(word)


def mf_counts_by_rank(max_rank_bound: int) -> list[int]:
    """Counts for each rank 1..max_rank_bound, tallied without any poset."""
    out = [0] * (max_rank_bound + 1)
    for word in _level_words("rank", max_rank_bound):
        out[len(word) + 1] += 1
    return out[1:]


def mf_counts_by_elements(max_element_bound: int) -> list[int]:
    """Counts of the family for each size 2..max_element_bound."""
    out = [0] * (max_element_bound + 1)
    for word in _level_words("elements", max_element_bound):
        out[_size(word)] += 1
    return out[2:]


def mf_rank_element_table(max_rank_bound: int) -> dict[tuple[int, int], int]:
    """Counts keyed by (rank, element count), over the words by rank."""
    table: dict[tuple[int, int], int] = {}
    for word in _level_words("rank", max_rank_bound):
        key = (len(word) + 1, _size(word))
        table[key] = table.get(key, 0) + 1
    return table


def u_bivariate(rank_cap: int, size_cap: int) -> TruncatedSeries:
    """The bivariate rational series counting the family by rank (x) and
    element count (y): x y^2 (1 - x y^2)(1 - 3 x y^2), expanded, over
    1 - x y - 5 x y^2 + 4 x^2 y^3 + 5 x^2 y^4 - 3 x^3 y^5."""
    return expand_rational({(1, 2): 1, (2, 4): -4, (3, 6): 3},
                           {(0, 0): 1, (1, 1): -1, (1, 2): -5,
                            (2, 3): 4, (2, 4): 5, (3, 5): -3},
                           (rank_cap, size_cap))
