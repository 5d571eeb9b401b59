import doctest
import itertools
import pickle

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from salient import words
from salient.classes import class_partition
from salient.errors import DomainError
from salient.words import (MultisetSpec, consecutive_moves, descent_set,
                           fibonacci, format_word, identity, is_permutation,
                           is_salient, parse_word, reverse, sparse_subsets)


def test_module_doctests():
    # a module that lost its examples would pass with failed == 0 alone
    result = doctest.testmod(words)
    assert result.failed == 0 and result.attempted >= 12


def test_descent_set_examples():
    assert descent_set((1, 2, 3, 4, 5)) == frozenset()
    assert descent_set((3, 2, 1)) == {1, 2}
    assert descent_set((2, 1, 3, 5, 4)) == {1, 4}
    assert descent_set(()) == frozenset()


def test_descent_reversal_complement():
    # the descent set of the reversed word is the reversed complement
    for n in range(9):
        universe = frozenset(range(1, n))
        for w in itertools.permutations(range(1, n + 1)):
            d = descent_set(w)
            assert len(d) <= max(n - 1, 0)
            mirrored = frozenset(n - i for i in d)
            assert descent_set(reverse(w)) == universe - mirrored


def test_salient_examples():
    assert is_salient((1, 2, 3, 4))
    assert not is_salient((2, 1, 3, 4))
    assert not is_salient((3, 1, 2))
    with pytest.raises(DomainError):
        is_salient((1, 1, 2))


def test_salient_s4_list():
    got = [format_word(p) for p in itertools.permutations(range(1, 5))
           if is_salient(p)]
    assert got == ["1234", "1342", "2314", "2341",
                   "2413", "3142", "3412", "4123"]


def test_consecutive_moves_examples():
    assert consecutive_moves((1, 2, 3)) == {(2, 1, 3), (1, 3, 2)}
    assert consecutive_moves((1,)) == set()
    # only the pairs (3,2) and (5,4) differ by one
    assert consecutive_moves((1, 3, 2, 5, 4)) == {
        (1, 2, 3, 5, 4), (1, 3, 2, 4, 5)}
    assert {w for u in consecutive_moves((1, 3, 2, 5, 4))
            for w in consecutive_moves(u)} >= {(1, 3, 2, 5, 4)}


def test_consecutive_moves_symmetric():
    for n in range(8):
        moves = {w: consecutive_moves(w)
                 for w in itertools.permutations(range(1, n + 1))}
        for w, nbrs in moves.items():
            for u in nbrs:
                assert w in moves[u]


def geq_j_moves(word, j):
    """All words one swap of adjacent letters differing by >= j away."""
    return {word[:i] + (word[i + 1], word[i]) + word[i + 2:]
            for i in range(len(word) - 1) if abs(word[i] - word[i + 1]) >= j}


def test_geq_moves_examples():
    assert geq_j_moves((1, 3, 2), 2) == {(3, 1, 2)}
    assert geq_j_moves((1, 2, 3), 2) == set()
    assert geq_j_moves((1, 4, 3, 2), 3) == {(4, 1, 3, 2)}
    # the geq:J classes are the closures under these moves
    for n in range(7):
        for j in (2, 3, 4):
            for cls in class_partition(n, f"geq:{j}"):
                orbit, frontier = set(), {cls.representative}
                while frontier:
                    orbit |= frontier
                    frontier = {v for u in frontier
                                for v in geq_j_moves(u, j)} - orbit
                assert set(cls.members) == orbit


def test_sparse_subsets():
    assert sparse_subsets(3) == [frozenset(), {1}, {2}]
    assert sparse_subsets(1) == [frozenset()]
    assert len(sparse_subsets(5)) == 8
    with pytest.raises(DomainError, match="^n must be >= 0$"):
        sparse_subsets(-1)
    for s in sparse_subsets(8):
        assert not any(v + 1 in s for v in s)


def test_sparse_counts_follow_fibonacci():
    counts = [len(sparse_subsets(n)) for n in range(1, 26)]
    assert counts[0] == 1 and counts[1] == 2
    for n in range(2, 25):
        assert counts[n] == counts[n - 1] + counts[n - 2]
        assert counts[n] == fibonacci(n + 2)


def test_fibonacci_convention():
    assert fibonacci(1) == fibonacci(2) == 1
    assert [fibonacci(k) for k in range(3, 10)] == [2, 3, 5, 8, 13, 21, 34]
    with pytest.raises(DomainError, match="^n must be >= 0$"):
        fibonacci(-1)


def test_word_serialization_round_trip():
    for w in [(), (1,), (1, 3, 2, 5, 4), (10, 2, 1), (9, 10, 11)]:
        assert parse_word(format_word(w)) == w
    assert format_word((1, 3, 2, 5, 4)) == "13254"
    assert format_word((10, 2, 1)) == "10,2,1"
    with pytest.raises(DomainError):
        parse_word("102x")
    with pytest.raises(DomainError):
        parse_word("0")
    # a bool is an int to Python, but no letter
    for w in ((True, 2), (1, False)):
        with pytest.raises(DomainError, match="^letters must be integers"):
            words.check_word(w)


def test_permutation_check():
    assert is_permutation(())
    assert is_permutation((2, 1, 3))
    assert not is_permutation((2, 2))
    assert not is_permutation((2, 3))
    assert identity(4) == (1, 2, 3, 4)


def test_multiset_spec():
    spec = MultisetSpec.parse("1:2,2:1,3:2")
    assert spec.total == 5
    assert spec.counts[-1][0] == 3
    assert spec.counts == ((1, 2), (2, 1), (3, 2))
    assert MultisetSpec.parse(spec.format()) == spec
    with pytest.raises(DomainError):
        MultisetSpec.parse("1:x")
    # each part is checked before the parts of one value are summed
    for text, message in (("1:3,1:-1,2:1", "counts must be >= 0, got -1"),
                          ("1:2,1:-2", "counts must be >= 0, got -2"),
                          ("0:0", "values must be >= 1, got 0"),
                          ("-1:2", "values must be >= 1, got -1")):
        with pytest.raises(DomainError, match=message):
            MultisetSpec.parse(text)
    # zero counts are dropped, and the parts of one value summed
    assert MultisetSpec.parse("1:0,2:1,2:1,3:0") == MultisetSpec(((2, 2),))
    for counts, message in ((((0, 1),), "values must be >= 1"),
                            (((1, 0),), "counts must be >= 1"),
                            (((True, 2),), "values must be >= 1"),
                            (((1, True),), "counts must be >= 1"),
                            (((1, 1), (1, 2)), "duplicate value 1"),
                            (((2, 1), (1, 1)), "sorted by value")):
        with pytest.raises(DomainError, match=message):
            MultisetSpec(counts)


def test_multiset_spec_is_an_immutable_value():
    spec = MultisetSpec.parse("1:2,4:1")
    same = MultisetSpec(((1, 2), (4, 1)))
    assert spec == same and hash(spec) == hash(same)
    assert spec != MultisetSpec.parse("1:2") and spec != spec.counts
    assert repr(spec) == "MultisetSpec(counts=((1, 2), (4, 1)))"
    with pytest.raises(AttributeError):
        spec.counts = ()
    with pytest.raises(AttributeError):
        del spec.counts
    assert pickle.loads(pickle.dumps(spec)) == spec


@settings(max_examples=60, deadline=None, database=None)
@given(st.dictionaries(st.integers(1, 6), st.integers(0, 2), max_size=4))
@example({})
def test_multiset_words_match_sorted_permutations(mapping):
    spec = MultisetSpec.from_mapping(mapping)
    letters = [v for v, r in spec.counts for _ in range(r)]
    assert list(spec.words()) == sorted(set(itertools.permutations(letters)))


def test_multiset_words_are_sorted_and_complete():
    spec = MultisetSpec.parse("1:2,2:2")
    arrangements = list(spec.words())
    assert arrangements == sorted(arrangements)
    assert len(arrangements) == 6
    assert len(set(arrangements)) == 6
    assert all(sorted(w) == [1, 1, 2, 2] for w in arrangements)
