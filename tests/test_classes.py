import itertools
import math
import pickle
import random

import pytest

from salient import classes
from salient.errors import DomainError, GuardExceeded, OrbitOverflowError
from salient.classes import (class_of, class_partition, class_size,
                             count_classes_brute, count_singletons,
                             f_inclusion_exclusion, f_j_count, f_series,
                             multiset_class_partition, parse_relation,
                             salient_representative, segment_decomposition,
                             singleton_series)
from salient.posets import NaturalPoset
from salient.words import MultisetSpec, fibonacci, identity, is_salient, reverse

F_SEQ = [1, 1, 1, 2, 8, 42, 258, 1824, 14664]


def test_class_of_examples():
    assert class_of((1, 2, 3)).members == ((1, 2, 3), (1, 3, 2), (2, 1, 3))
    assert class_of((3, 2, 1)).members == ((2, 3, 1), (3, 1, 2), (3, 2, 1))
    assert class_of((3, 2, 1, 6, 5, 4)).size == 9 == fibonacci(4) ** 2


def test_s3_partition():
    # the two orbits on three letters, written out in full
    partition = class_partition(3)
    assert [set(c.members) for c in partition] == [
        {(1, 2, 3), (2, 1, 3), (1, 3, 2)},
        {(3, 2, 1), (2, 3, 1), (3, 1, 2)},
    ]


def test_class_of_empty_and_singleton():
    assert class_of(()).members == ((),)
    assert class_of((1,)).size == 1


def test_relation_validation():
    with pytest.raises(DomainError):
        class_of((1, 2), "geq:1")
    with pytest.raises(DomainError):
        class_of((1, 2), "frobnicate")
    # a relation is its set of letter differences, so multiset words run
    # under geq too; here no two letters differ by two
    assert class_of((1, 1, 2), "geq:2").members == ((1, 1, 2),)
    with pytest.raises(DomainError, match="^bad relation 'geq:x'$"):
        parse_relation("geq:x")


def test_orbit_cap():
    with pytest.raises(OrbitOverflowError):
        class_of(identity(30), max_members=100)


def test_class_of_checks_the_heap_size_before_searching(monkeypatch):
    expanded = []
    neighbours = classes._neighbours
    monkeypatch.setattr(classes, "_neighbours",
                        lambda u, steps: expanded.append(u)
                        or neighbours(u, steps))
    with pytest.raises(OrbitOverflowError):
        class_of(identity(40), max_members=10 ** 6)
    assert expanded == []
    # every relation reads its size off the heap: a geq class over the cap
    # is refused before any word is expanded too
    with pytest.raises(OrbitOverflowError,
                       match=r"^orbit of \(1, 3, 5, .*\) exceeds 100 members$"):
        class_of((1, 3, 5, 7, 9, 2, 4, 6, 8), "geq:2", max_members=100)
    assert expanded == []


def test_env_memory_cap(monkeypatch):
    monkeypatch.setenv("SALIENT_LIMIT_MB", "0")
    with pytest.raises(OrbitOverflowError):
        class_of((1, 2))
    monkeypatch.setenv("SALIENT_LIMIT_MB", "sixteen")
    with pytest.raises(DomainError):
        class_of((1, 2))
    monkeypatch.setenv("SALIENT_LIMIT_MB", "-1")
    with pytest.raises(DomainError,
                       match="^SALIENT_LIMIT_MB must be a non-negative"):
        class_partition(3)


def test_negative_member_cap_is_a_domain_error():
    spec = MultisetSpec.parse("1:2,2:1")
    for compute in (lambda: class_of((1, 2, 3), max_members=-1),
                    lambda: class_partition(3, max_members=-1),
                    lambda: multiset_class_partition(spec, max_members=-1)):
        with pytest.raises(DomainError, match="^member cap must be >= 0"):
            compute()


def test_partition_guard_counts_arrangements_first(monkeypatch):
    # one megabyte holds 2**20 // (150 + 8 * 7) = 5090 words of length 7
    monkeypatch.setenv("SALIENT_LIMIT_MB", "1")
    assert len(class_partition(7)) == 1824
    with pytest.raises(OrbitOverflowError):
        class_partition(8)
    spec = MultisetSpec.parse("1:2,2:2,3:2,4:2,5:2")  # 113400 arrangements

    def no_words(self):
        pytest.fail("the scan drew a word")
        yield

    monkeypatch.setattr(MultisetSpec, "words", no_words)
    with pytest.raises(OrbitOverflowError):
        multiset_class_partition(spec)
    monkeypatch.setenv("SALIENT_LIMIT_MB", "0")
    with pytest.raises(OrbitOverflowError):
        class_partition(0)


def test_member_cap_is_the_partitions_one_guard(monkeypatch):
    # nine letters, as permutations or as a multiset of distinct letters,
    # run under the default cap and give f(9) classes
    nine = MultisetSpec.parse(",".join(f"{i}:1" for i in range(1, 10)))
    assert len(class_partition(9)) == 132360 == f_inclusion_exclusion(9)
    assert len(multiset_class_partition(nine)) == 132360
    # a partition of exactly max_members words runs; one more is refused
    assert len(class_partition(4, max_members=24)) == 8
    with pytest.raises(OrbitOverflowError,
                       match="^24 arrangements exceed 23 members$"):
        class_partition(4, max_members=23)

    def no_words(self):
        pytest.fail("the scan drew a word")
        yield

    # one past the default cap, refused before any word is drawn
    monkeypatch.setattr(MultisetSpec, "words", no_words)
    with pytest.raises(OrbitOverflowError, match="^10400600 arrangements "
                       "exceed 10000000 members$"):
        multiset_class_partition(MultisetSpec.parse("1:13,3:13"))
    with pytest.raises(OrbitOverflowError, match="^39916800 arrangements "
                       "exceed 10000000 members$"):
        class_partition(11)


def test_salient_representative_examples():
    assert salient_representative((2, 1, 3)) == (1, 2, 3)
    assert salient_representative((4, 1, 2, 3)) == (4, 1, 2, 3)
    assert salient_representative((4, 3, 2, 1)) == (3, 4, 1, 2)
    # multiset words: equal letters never commute
    assert salient_representative((1, 1, 2, 3)) == (1, 1, 2, 3)
    assert salient_representative((2, 1, 2, 1)) == (1, 1, 2, 2)
    assert salient_representative((3, 2, 1, 3)) == (2, 3, 1, 3)
    assert class_of((4, 3, 2, 1)).members == (
        (3, 4, 1, 2), (3, 4, 2, 1), (4, 2, 3, 1), (4, 3, 1, 2), (4, 3, 2, 1))


def test_segment_decomposition_examples():
    assert segment_decomposition(identity(5)) == ((1, 2, 3, 4, 5),)
    assert segment_decomposition((3, 2, 1, 6, 5, 4)) == (
        (3, 2, 1), (6, 5, 4))
    assert segment_decomposition((2, 1, 4, 3)) == ((1, 2, 3, 4),)
    # length-two runs are normalized to increasing order
    assert segment_decomposition((2, 1)) == ((1, 2),)
    with pytest.raises(DomainError, match="needs distinct letters"):
        segment_decomposition((1, 1))


def test_segments_are_maximal_against_bfs():
    # one breadth-first class per partition block is the oracle for the
    # heap's segments, sizes and minima of every member; the product over
    # segments fails if any segment stopped short of maximal
    for n in range(9):
        for cls in class_partition(n):
            members = set(cls.members)
            for w in cls.members:
                segments = segment_decomposition(w)
                assert sum(segments, ()) in members
                for seg in segments:
                    step = 1 if seg == tuple(sorted(seg)) else -1
                    assert list(seg) == list(range(seg[0], seg[-1] + step,
                                                   step))
                assert math.prod(fibonacci(len(s) + 1)
                                 for s in segments) == cls.size
                assert salient_representative(w) == cls.representative


def test_heap_paths_on_multisets_against_bfs():
    for counts in itertools.product(range(8), repeat=4):
        if sum(counts) > 7:
            continue
        spec = MultisetSpec.from_mapping(dict(enumerate(counts, start=1)))
        for cls in multiset_class_partition(spec):
            for w in cls.members:
                assert class_size(w) == cls.size
                assert salient_representative(w) == cls.representative


def test_heap_passes_the_public_poset_check():
    words = [(1, 1, 2, 3, 2, 4), (2, 1, 2, 1), (3, 3, 1, 2, 2)]
    words += list(itertools.permutations(range(1, 7)))
    for relation in ("consecutive", "geq:2", "geq:3"):
        steps = parse_relation(relation)
        for w in words:
            heap = classes._heap(w, steps)
            assert NaturalPoset(heap.n, heap.down) == heap


def _pairwise_down(w, steps):
    """The heap's down masks by testing every earlier position against
    each position: the oracle of the early-stopping builder."""
    down = []
    for j, b in enumerate(w):
        d = 0
        for i in range(j):
            if abs(w[i] - b) not in steps:
                d |= 1 << i | down[i]
        down.append(d)
    return tuple(down)


def test_heap_against_the_pairwise_builder():
    rng = random.Random(27)
    words = [identity(200), reverse(identity(200)),
             (1,) + (3,) * 50 + (2,) + (3,) * 50]
    for _ in range(300):
        n = rng.randrange(40)
        words.append(tuple(rng.sample(range(1, n + 1), n)))
        words.append(tuple(rng.randint(1, rng.randint(1, 6))
                           for _ in range(n)))
    for relation in ("consecutive", "geq:2", "geq:3"):
        steps = parse_relation(relation)
        for w in words:
            assert classes._heap(w, steps).down == _pairwise_down(w, steps)


def _bfs_orbits(words, j):
    """Each word's orbit under swaps of adjacent letters differing by j or
    more, by a search of its own: a dict from word to orbit."""
    orbit_of = {}
    for w in words:
        if w in orbit_of:
            continue
        orbit = {w}
        frontier = [w]
        while frontier:
            u = frontier.pop()
            for i in range(len(u) - 1):
                if abs(u[i] - u[i + 1]) >= j:
                    v = u[:i] + (u[i + 1], u[i]) + u[i + 2:]
                    if v not in orbit:
                        orbit.add(v)
                        frontier.append(v)
        orbit = frozenset(orbit)
        orbit_of.update(dict.fromkeys(orbit, orbit))
    return orbit_of


def _assert_geq_sizes(words, j):
    relation = f"geq:{j}"
    for w, orbit in _bfs_orbits(words, j).items():
        assert class_size(w, relation) == len(orbit), (w, relation)
        cls = class_of(w, relation)
        assert cls.size == len(orbit) and set(cls.members) == orbit


def test_geq_class_sizes_against_bfs_on_permutations():
    for j in (2, 3):
        for n in range(8):
            _assert_geq_sizes(itertools.permutations(range(1, n + 1)), j)


def test_geq_class_sizes_against_bfs_on_multisets():
    for counts in itertools.product(range(4), repeat=4):
        if sum(counts) <= 7:
            spec = MultisetSpec.from_mapping(dict(enumerate(counts, start=1)))
            _assert_geq_sizes(spec.words(), 2)


def test_class_size_guards_the_heaps_ideals():
    # 2584 order ideals, and a class of 19391512145 words
    w = (*range(1, 16, 2), *range(2, 17, 2))
    assert class_size(w, "geq:2") == 19391512145
    with pytest.raises(OrbitOverflowError,
                       match=r"^heap of \(1, 3, .*\) has more than 2583 "
                             "order ideals$"):
        class_size(w, "geq:2", max_members=2583)
    assert class_size(w, "geq:2", max_members=2584) == 19391512145
    with pytest.raises(DomainError, match="^member cap must be >= 0"):
        class_size(w, max_members=-1)


def test_class_size_counts_through_extension_count_once(monkeypatch):
    # one linear-extension counter: class_size calls the public method,
    # once per word, with the member cap as its ideal cap
    calls = []
    count = NaturalPoset.extension_count

    def spy(poset, *args):
        calls.append(args)
        return count(poset, *args)

    monkeypatch.setattr(NaturalPoset, "extension_count", spy)
    assert class_size((1, 2, 3, 4, 5)) == 8
    assert calls == [(classes.DEFAULT_ORBIT_CAP,)]
    assert class_size((1, 3, 5, 2, 4), "geq:2", max_members=40) == 16
    assert calls[1:] == [(40,)]


def test_heap_paths_past_the_orbit_cap():
    assert class_size(identity(200)) == fibonacci(201)
    w = reverse(identity(300))
    rep = salient_representative(w)
    assert is_salient(rep)
    assert class_size(rep) == class_size(w)


def _scan_partition(words, steps):
    """The partition's independent oracle: one union-find scan over the
    words in lexicographic order. Each word is joined to every neighbour
    one move away that is lexicographically smaller (a swap at i with
    w_i - w_{i+1} in steps), which the scan has already met; each set's
    root is its least word. Returns (representative, size, members) per
    class, sorted, with the members sorted."""
    parent = {}
    for w in words:
        parent[w] = root = w
        for i in range(len(w) - 1):
            if w[i] - w[i + 1] in steps:
                r = parent[w[:i] + (w[i + 1], w[i]) + w[i + 2:]]
                while parent[r] != r:
                    parent[r] = r = parent[parent[r]]
                if r != root:
                    root, r = min(root, r), max(root, r)
                    parent[r] = root
    members = {}
    for w in parent:
        r = w
        while parent[r] != r:
            r = parent[r]
        members.setdefault(r, []).append(w)
    return [(r, len(ms), tuple(sorted(ms)))
            for r, ms in sorted(members.items())]


def _as_triples(partition):
    return [(cls.representative, cls.size, cls.members) for cls in partition]


def _random_gapped_specs(count, max_total, seed):
    rng = random.Random(seed)
    specs = []
    while len(specs) < count:
        values = sorted(rng.sample(range(1, 9), rng.randint(1, 5)))
        counts = [rng.randint(1, 3) for _ in values]
        if sum(counts) <= max_total:
            specs.append(MultisetSpec(tuple(zip(values, counts))))
    return specs


def test_partition_against_the_scan_on_permutations():
    for n in range(9):
        for relation in ("consecutive", "geq:2", "geq:3"):
            steps = parse_relation(relation)
            oracle = _scan_partition(
                itertools.permutations(range(1, n + 1)), steps)
            assert _as_triples(class_partition(n, relation)) == oracle


def test_partition_against_the_scan_on_gapped_multisets():
    for spec in _random_gapped_specs(80, 9, seed=24):
        oracle = _scan_partition(spec.words(), frozenset({1}))
        assert _as_triples(multiset_class_partition(spec)) == oracle, spec


def test_partition_against_the_scan_on_gapped_multisets_beyond_consecutive():
    # a consecutive heap's antichains hold at most two positions; these
    # relations give wider ones, so a word on repeated letters can take
    # side terms from several earlier positions at once
    for steps in (parse_relation("geq:2"), parse_relation("geq:3"),
                  frozenset({1, 3})):
        for spec in _random_gapped_specs(60, 8, seed=27):
            values = [v for v, _ in spec.counts]
            counts = [r for _, r in spec.counts]
            partition = classes._partition(values, counts, steps,
                                           classes.DEFAULT_ORBIT_CAP)
            oracle = _scan_partition(spec.words(), steps)
            assert _as_triples(partition) == oracle, (spec, steps)


def test_partition_sizes_against_the_heap_at_total_ten():
    # every content of ten letters on three or four consecutive values
    for k in (3, 4):
        for counts in itertools.product(range(1, 9), repeat=k):
            if sum(counts) == 10:
                spec = MultisetSpec.from_mapping(dict(enumerate(counts, 1)))
                for cls in multiset_class_partition(spec):
                    assert cls.size == class_size(cls.representative)


def test_partition_of_long_words():
    # one arrangement of 5000 letters, a chain: no recursion, no quadratic
    # copying
    (cls,) = multiset_class_partition(MultisetSpec.parse("1:5000"))
    assert (cls.representative, cls.size) == ((1,) * 5000, 1)
    # one letter that commutes with every other: a class of every
    # arrangement
    (cls,) = multiset_class_partition(MultisetSpec.parse("1:1,2:1500"))
    assert (cls.representative, cls.size) == ((1,) + (2,) * 1500, 1501)
    # letters that never commute: every arrangement is its own class
    partition = multiset_class_partition(MultisetSpec.parse("1:1,3:600"))
    assert [cls.size for cls in partition] == [1] * 601
    assert partition[-1].representative == (3,) * 600 + (1,)


def _assert_scan_matches_bfs(partition, arrangements, relation):
    # the classes against breadth-first closures, order included
    reps = [cls.representative for cls in partition]
    assert reps == sorted(reps)
    assert sum(cls.size for cls in partition) == arrangements
    for cls in partition:
        orbit = class_of(cls.representative, relation)
        assert cls.members == orbit.members
        assert cls == orbit and hash(cls) == hash(orbit)


def test_scan_partition_against_bfs_on_permutations():
    for n in range(8):
        for relation in ("consecutive", "geq:2", "geq:3"):
            _assert_scan_matches_bfs(class_partition(n, relation),
                                     math.factorial(n), relation)


def test_scan_partition_against_bfs_on_multisets():
    specs = [MultisetSpec.from_mapping(dict(enumerate(counts, start=1)))
             for counts in itertools.product(range(8), repeat=4)
             if sum(counts) <= 7]
    specs += [MultisetSpec.parse(text) for text in
              ("1:2,2:1,4:2", "1:1,3:2,4:1,6:2", "2:3,4:1,5:3")]
    for spec in specs:
        arrangements = math.factorial(spec.total)
        for _, r in spec.counts:
            arrangements //= math.factorial(r)
        _assert_scan_matches_bfs(multiset_class_partition(spec),
                                 arrangements, "consecutive")


def test_classes_compare_by_members():
    partition = class_partition(4)
    cls = partition[1]
    assert cls.representative == (1, 3, 4, 2) and cls.size == 3
    assert cls.members == ((1, 3, 4, 2), (1, 4, 2, 3), (1, 4, 3, 2))
    assert (1, 4, 2, 3) in cls and [1, 4, 3, 2] in cls
    assert (1, 2, 3, 4) not in cls
    # the same orbit, reached from another member
    assert class_of((1, 4, 3, 2)) == cls
    assert len({cls, class_of((1, 4, 2, 3)), *partition}) == 8
    # one orbit under two relations: equal, as the members are
    assert class_of((1,)) == class_of((1,), "geq:2")
    assert class_of((2, 1)) != class_of((2, 1), "geq:2")
    assert cls != cls.members
    assert repr(cls) == "EquivalenceClass(representative=(1, 3, 4, 2), size=3)"
    with pytest.raises(AttributeError):
        cls.size = 4
    copied = pickle.loads(pickle.dumps(cls))
    assert copied == cls and copied.members == cls.members


def test_class_size_examples():
    assert class_size(identity(5)) == 8 == fibonacci(6)
    assert class_size((3, 2, 1, 6, 5, 4)) == 9
    assert class_size(identity(1)) == 1
    assert class_size(()) == 1


def test_reversal_symmetry():
    for n in range(8):
        size_of = {}
        for cls in class_partition(n):
            for w in cls.members:
                size_of[w] = cls.size
        for w, size in size_of.items():
            assert size_of[reverse(w)] == size


def test_partition_covers_all_permutations():
    for n in range(8):
        partition = class_partition(n)
        assert sum(c.size for c in partition) == math.factorial(n)
        reps = [c.representative for c in partition]
        assert reps == sorted(reps)
        assert all(is_salient(r) for r in reps)
    with pytest.raises(DomainError, match="^n must be >= 0$"):
        class_partition(-1)


def test_count_classes_brute():
    assert count_classes_brute(4) == 8
    assert count_classes_brute(0) == 1
    assert count_classes_brute(7) == 1824
    with pytest.raises(GuardExceeded):
        count_classes_brute(9)
    with pytest.raises(DomainError, match="^n must be >= 0$"):
        count_classes_brute(-1)
    assert count_classes_brute(8) == f_inclusion_exclusion(8)


def test_f_inclusion_exclusion():
    assert f_inclusion_exclusion(4) == 24 - 18 + 2 == 8
    assert f_inclusion_exclusion(5) == 42
    assert f_inclusion_exclusion(1) == 1
    assert [f_inclusion_exclusion(n) for n in range(9)] == F_SEQ


def test_f_series():
    assert f_series(8) == F_SEQ
    assert f_series(0) == [1]
    assert f_series(3) == [1, 1, 1, 2]


def test_count_singletons():
    assert count_singletons(4) == 2
    assert count_singletons(2) == 0
    assert count_singletons(6) == 90
    with pytest.raises(GuardExceeded):
        count_singletons(10)


def test_singleton_series():
    assert singleton_series(8) == [1, 1, 0, 0, 2, 14, 90, 646, 5242]
    assert singleton_series(1) == [1, 1]
    assert singleton_series(4) == [count_singletons(n) for n in range(5)]


def test_f_j_count():
    assert f_j_count(3, 2) == 4
    assert f_j_count(2, 3) == 2
    assert f_j_count(5, 3) == 54
    for n in range(7):
        for j in (2, 3):
            assert f_j_count(n, j) == len(class_partition(n, f"geq:{j}"))
    with pytest.raises(DomainError):
        f_j_count(3, 1)


def test_geq_orbits_have_unique_reduced_word():
    # each orbit of the differ-by-at-least-j relation contains exactly one
    # word with no adjacent drop of j or more
    for n in range(7):
        for j in (2, 3):
            for cls in class_partition(n, f"geq:{j}"):
                reduced = [w for w in cls.members
                           if all(w[i] < w[i + 1] + j
                                  for i in range(len(w) - 1))]
                assert len(reduced) == 1


def test_multiset_partition_examples():
    spec = MultisetSpec.parse("1:2,2:1,3:2")
    partition = multiset_class_partition(spec)
    assert len(partition) == 6
    assert all(c.size == 5 for c in partition)
    assert sum(c.size for c in partition) == 30

    assert len(multiset_class_partition(MultisetSpec.parse("1:3"))) == 1
    ordinary = MultisetSpec.parse("1:1,2:1,3:1,4:1")
    assert len(multiset_class_partition(ordinary)) == 8
    # 924 arrangements, well under the member cap
    assert sum(c.size for c in multiset_class_partition(
        MultisetSpec.parse("1:6,2:6"))) == 924
    with pytest.raises(OrbitOverflowError):
        multiset_class_partition(MultisetSpec.parse("1:6,2:6"),
                                 max_members=923)
