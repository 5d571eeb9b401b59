import copy
import gc
import itertools
import math
import operator
import pickle
import random
import time
from collections import Counter

import pytest

from salient import _kernels, _pykernels
from salient.acceptance import DISTLAT_COUNTS
from salient.errors import DomainError, GuardExceeded
from salient.posets import (ISO_SIZE, GradedPoset, NaturalPoset,
                            _check_chain_table,
                            all_bounded_graded_posets,
                            all_natural_posets, all_posets_up_to_iso,
                            are_isomorphic, canonical_relation_key,
                            check_gamma,
                            lattice_from_gamma, level_word_poset,
                            q_from_commuting_word, q_from_gamma,
                            random_graded_poset)
from salient.mfenum import (count_distributive_mf, distributive_mf_family,
                            generate_mf_posets)
from salient.words import fibonacci, format_word


def gamma_words(rank):
    """All valid gamma words for lattices of the given rank >= 1: "" and
    "0", then the 2^(rank-3) words 01...."""
    if rank == 1:
        return [""]
    if rank == 2:
        return ["0"]
    return ["01" + "".join(bits)
            for bits in itertools.product("01", repeat=rank - 3)]


def ordinal_sum(first, second):
    """Every element of first below every element of second, whose labels
    shift up by first.n (the result is again natural)."""
    base = (1 << first.n) - 1
    down = first.down + tuple((m << first.n) | base for m in second.down)
    return NaturalPoset(first.n + second.n, down)


def chain(n):
    return GradedPoset.chain(n)


def test_graded_poset_validation():
    with pytest.raises(DomainError):
        GradedPoset((0, 2), [(0, 1)])
    with pytest.raises(DomainError):
        GradedPoset((0, 1), [(0, 5)])
    with pytest.raises(DomainError):
        GradedPoset((0, 1), [(0, 1)], labels=["a", "a"])
    diamond = GradedPoset((0, 1, 1, 2), [(0, 1), (0, 2), (1, 3), (2, 3)])
    assert diamond.is_bounded_graded()
    assert diamond.layer_sizes() == (1, 2, 1)


def test_alpha_examples():
    q3 = q_from_commuting_word(3)
    J = q3.ideals_lattice()
    assert J.alpha(()) == 1
    assert J.alpha({1, 2}) == 3
    for n in range(1, 6):
        c = chain(n)
        for size in range(n):
            for S in itertools.combinations(range(1, n), size):
                assert c.alpha(S) == 1
    with pytest.raises(DomainError):
        J.alpha({9})


def test_beta_examples():
    q3 = q_from_commuting_word(3)
    J = q3.ideals_lattice()
    assert J.beta({1, 2}) == 0
    assert J.beta({1}) == J.alpha({1}) - 1 == 1
    B3 = GradedPoset.boolean_lattice(3)
    assert B3.beta({1}) == B3.alpha({1}) - 1 == 2
    assert [B3.beta(s) for s in ((), (1,), (2,), (1, 2))] == [1, 2, 2, 1]
    c = chain(4)
    assert all(c.beta(S) == 0
               for size in range(1, 4)
               for S in itertools.combinations(range(1, 4), size))


def test_multiplicity_free_examples():
    assert not GradedPoset.boolean_lattice(3).is_multiplicity_free()
    assert chain(5).is_multiplicity_free()
    assert lattice_from_gamma("01001").is_multiplicity_free()


def _brute_force_alpha(poset):
    """alpha[S] as the number of tuples, one element per rank in S, that
    form a chain under leq."""
    layers = poset.layers()
    alpha = []
    for mask in range(1 << max(poset.rank - 1, 0)):
        picked = [layers[r] for r in range(1, poset.rank)
                  if mask >> (r - 1) & 1]
        alpha.append(sum(
            all(poset.leq(a, b) for a, b in zip(pick, pick[1:]))
            for pick in itertools.product(*picked)))
    return alpha


def test_flag_alpha_vector_against_brute_force_chains():
    rng = random.Random(11)
    posets = [GradedPoset.boolean_lattice(k) for k in range(1, 5)]
    posets += [lattice_from_gamma(g)
               for rank in range(1, 8) for g in gamma_words(rank)]
    posets += [random_graded_poset(rng) for _ in range(200)]
    posets += [q.ideals_lattice()
               for n in range(6) for q in all_natural_posets(n)]
    assert len(posets) == 645
    for poset in posets:
        assert poset.flag_alpha_vector() == _brute_force_alpha(poset)


# The reference for _pykernels.chain_counts: the list-based chain counter
# it replaced, which sums the lower elements' vectors entry by entry with
# map and zip. Both modes must agree with it exactly.

def _ref_chain_counts(layers, moebius: bool = False) -> list[int]:
    """Flag f-vector of a graded poset of rank n = len(layers) - 1, or with
    moebius=True its flag h-vector.

    layers[r] lists the rank-r elements as down-closed bitmasks, so x <= y
    exactly when mask x is a subset of mask y. Entry S of the result counts
    the chains whose elements have exactly the ranks in S (bit i-1 for rank
    i, 0 < i < n).

    Rank blocks: each element y of rank r >= 1 gets the vector f(y) of
    chains strictly below y by rank set, indexed by the subsets of [r-1].
    It is [1] (the empty chain) followed by one block per rank s < r. Block
    s fills indices 2^(s-1)..2^s - 1, the rank sets whose largest rank is
    s, and is the entry-wise sum of f(x) over the x < y of rank s. The
    result is f of a virtual top above every element, so ranks 0 and n
    never enter a chain.

    Moebius mode builds the flag h-vector b(y) of each element the same
    way. In the alternating sum b(y)[S] over the subsets T of a rank set S
    with largest rank s, the T holding s give the sum of b(x)[S - {s}] over
    the x < y of rank s, and the others give -b(y)[S - {s}]. So block s of
    b(y) is the sum of b(x) over the x < y of rank s minus b(y)[:2^(s-1)],
    the prefix built so far. flag_vectors takes this mode instead of the
    butterfly of moebius_vector where moebius_by_recursion finds it no
    dearer.
    """
    n = len(layers) - 1
    if n <= 0:
        return [1]
    # done[s - 1] pairs each element of rank s with its vector f (or b)
    done: list[list[tuple[int, list[int]]]] = []
    for r in range(1, n + 1):
        # at r = n, the virtual top: mask -1 holds every mask
        rows = []
        for y in (layers[r] if r < n else [-1]):
            vec = [1]
            for s, lower in enumerate(done, 1):
                block = [fx for x, fx in lower if not x & ~y]
                if len(block) == 1:
                    total = block[0]
                elif len(block) == 2:
                    total = map(operator.add, *block)
                elif block:
                    total = map(sum, zip(*block))
                else:
                    total = itertools.repeat(0, 1 << (s - 1))
                # total has exactly len(vec) entries, and map stops when it
                # runs out, so it never reads the entries it appends
                vec += map(operator.sub, total, vec) if moebius else total
            rows.append((y, vec))
        done.append(rows)
    return done[-1][0][1]


def _ideal_layers(q):
    # the order ideals of a natural poset by size, as natural_flag_vectors
    # hands them to the chain counter
    layers = [[] for _ in range(q.n + 1)]
    for m in _pykernels.order_ideals(q.down):
        layers[m.bit_count()].append(m)
    return layers


def _graded_layers(poset):
    # the elements of a graded poset by rank as down-closed masks, as
    # flag_alpha_vector hands them to the chain counter
    below = poset.below_masks()
    return [[below[e] | 1 << e for e in layer] for layer in poset.layers()]


def test_moebius_inversion_round_trip():
    # both ways to beta, forced on every input: the Moebius mode of
    # chain_counts and the butterfly; flag_vectors picks one of them. The
    # packed chain counts must equal the list-based reference in both modes
    posets = [GradedPoset.boolean_lattice(3), lattice_from_gamma("0101"),
              q_from_commuting_word(5).ideals_lattice()]
    posets += [lattice_from_gamma(g)
               for rank in range(1, 12) for g in gamma_words(rank)]
    posets += all_bounded_graded_posets(4, 9)
    cases = [(p, _graded_layers(p)) for p in posets]
    naturals = [q for n in range(7) for q in all_natural_posets(n)]
    cases += [(q, _ideal_layers(q)) for q in naturals]
    assert len(cases) == 3 + 513 + 369 + 5232
    for poset, layers in cases:
        alpha = _ref_chain_counts(layers)
        beta = _ref_chain_counts(layers, moebius=True)
        assert _pykernels.chain_counts(layers) == alpha
        assert _pykernels.chain_counts(layers, moebius=True) == beta
        nbits = max(len(layers) - 2, 0)
        assert _pykernels.moebius_vector(alpha, nbits) == beta
        assert _pykernels.flag_vectors(layers) == (alpha, beta)
        assert _kernels.zeta_vector(beta, nbits) == alpha
        if isinstance(poset, GradedPoset):
            assert (poset.flag_alpha_vector(), poset.flag_beta_vector()) == (
                alpha, beta)
        else:
            assert _pykernels.natural_flag_vectors(poset.n, poset.down) == (
                alpha, beta)


def test_flag_h_vector_takes_the_cheaper_pass(monkeypatch):
    # thin lattices (two elements per interior rank) switch to the Moebius
    # mode of chain_counts at rank 13; Boolean lattices keep the butterfly
    for rank in range(2, 21):
        sizes = lattice_from_gamma(gamma_words(rank)[0]).layer_sizes()
        assert sizes == (1,) + (2,) * (rank - 1) + (1,)
        assert _pykernels.moebius_by_recursion(sizes) == (rank >= 13)
    for k in range(1, 11):
        assert not _pykernels.moebius_by_recursion(
            GradedPoset.boolean_lattice(k).layer_sizes())
    butterfly = _pykernels.moebius_vector
    calls = []

    def spy(vec, nbits):
        calls.append(nbits)
        return butterfly(vec, nbits)

    monkeypatch.setattr(_pykernels, "moebius_vector", spy)
    gamma = "01" + "1" * 11
    thin = lattice_from_gamma(gamma)
    assert thin.rank == 14
    beta = thin.flag_beta_vector()
    q = q_from_gamma(gamma)
    assert _pykernels.natural_flag_vectors(q.n, q.down)[1] == beta
    assert calls == []
    assert beta == butterfly(thin.flag_alpha_vector(), 13)
    boolean = GradedPoset.boolean_lattice(5)
    assert boolean.flag_beta_vector() == butterfly(
        boolean.flag_alpha_vector(), 4)
    assert calls == [4]


def test_gamma_flag_vectors_against_descents_to_rank_11():
    # independent of chain_counts: the descent tabulation of q_from_gamma
    # is the flag h-vector of its ideal lattice, lattice_from_gamma
    words = [g for rank in range(1, 12) for g in gamma_words(rank)]
    assert len(words) == 513
    # and a seeded sample past rank 11: from rank 13 on, beta comes from
    # the Moebius mode of chain_counts rather than the butterfly
    rng = random.Random(16)
    words += [g for rank in range(12, 16)
              for g in rng.sample(gamma_words(rank), 3)]
    for gamma in words:
        q = q_from_gamma(gamma)
        alpha, beta = q.jq_flag_vectors()
        assert q.descent_vector(max_size=q.n) == beta
        assert lattice_from_gamma(gamma).flag_beta_vector() == beta
        assert set(beta) <= {-1, 0, 1}
        assert _kernels.zeta_vector(beta, max(q.n - 1, 0)) == alpha


def test_flag_vectors_rank_guard(monkeypatch):
    # the chain-count table bounds the rank: a chain of rank r keeps
    # 2^r - 1 entries, so rank 21 fits in 2^21 and rank 22 does not
    assert len(GradedPoset.chain(21).flag_beta_vector()) == 2 ** 20
    assert len(NaturalPoset.chain(21).jq_flag_vectors()[1]) == 2 ** 20
    lattice = GradedPoset.chain(22)
    refusal = r"^chain counts need 4194303 entries, more than 2\^21$"
    for flag_vector in (lattice.flag_alpha_vector, lattice.flag_beta_vector):
        with pytest.raises(GuardExceeded, match=refusal):
            flag_vector()
    with pytest.raises(GuardExceeded, match=refusal):
        NaturalPoset.chain(22).jq_flag_vectors()
    # the check runs before anything of size 2^(rank - 1) is built, and
    # reads the ranks sparsely, so a huge rank allocates no layer list
    with pytest.raises(GuardExceeded,
                       match=r"^chain counts need 2\^60 or more entries"):
        lattice_from_gamma("01" * 30).flag_alpha_vector()
    with pytest.raises(GuardExceeded, match=r"need 2\^60 or more"):
        NaturalPoset.chain(61).jq_flag_vectors()
    monkeypatch.setattr(GradedPoset, "layers", None)
    with pytest.raises(GuardExceeded, match=r"need 2\^999999999 or more"):
        GradedPoset([0, 10 ** 9], []).flag_alpha_vector()


def test_flag_vectors_chain_table_guard():
    # chain counting over B4 would keep 4*1 + 6*2 + 4*4 + 1*8 = 40 > 2^5
    # entries
    b4 = GradedPoset.boolean_lattice(4)
    assert b4.layer_sizes() == NaturalPoset.antichain(4).ideal_size_profile()
    with pytest.raises(GuardExceeded, match=(
            r"^chain counts need 40 entries, more than 2\^5$")):
        _check_chain_table(Counter(b4.ranks), 5)
    _check_chain_table(Counter(b4.ranks), 6)
    # every poset with at most two elements per rank fits below 2^(rank+1)
    for poset in generate_mf_posets("rank", 6):
        _check_chain_table(Counter(poset.ranks), poset.rank + 1)
    for q in distributive_mf_family(6):
        _check_chain_table(dict(enumerate(q.ideal_size_profile())), q.n + 1)
    # through the public calls: the ideal lattice of a 14-element antichain
    # has rank 14 but needs (3^14 - 1)/2 > 2^21 entries
    with pytest.raises(GuardExceeded, match=(
            r"^chain counts need 2391484 entries, more than 2\^21$")):
        NaturalPoset.antichain(14).jq_flag_vectors()
    # five elements of rank 20 need 5 * 2^19 entries; the guard runs before
    # the boundedness check
    with pytest.raises(GuardExceeded, match="^chain counts need 2621440 "):
        GradedPoset([20] * 5, []).flag_alpha_vector()


def test_ideals_lattice_examples():
    assert are_isomorphic(NaturalPoset.antichain(2).ideals_lattice(),
                          GradedPoset.boolean_lattice(2))
    assert are_isomorphic(NaturalPoset.chain(4).ideals_lattice(), chain(4))
    J = q_from_commuting_word(3).ideals_lattice()
    assert J.size == 6 and J.rank == 3
    # 2^18 ideals, past posets.IDEAL_CAP
    with pytest.raises(GuardExceeded, match="^more than 200000 order ideals$"):
        NaturalPoset.antichain(18).ideals_lattice()
    # 26 ideals, but 25 elements are past the size guard
    with pytest.raises(GuardExceeded, match="^ideal lattice limited to "
                       "posets with 24 elements$"):
        NaturalPoset.chain(25).ideals_lattice()


def test_natural_poset_validation():
    with pytest.raises(DomainError):
        NaturalPoset(2, (0b10, 0))
    with pytest.raises(DomainError, match="one down-set mask per element"):
        NaturalPoset(2, (0,))
    # 3 above 2 above 1, but 1 missing from 3's down-set
    with pytest.raises(DomainError, match="transitively closed"):
        NaturalPoset(3, (0, 0b1, 0b10))
    with pytest.raises(DomainError):
        NaturalPoset.from_relations(-1, [])
    with pytest.raises(DomainError):
        NaturalPoset.from_relations(3, [(2, 1)])
    q = NaturalPoset.from_relations(4, [(1, 2), (2, 4)])
    assert q.less(1, 4)
    assert q.relations() == [(1, 2), (1, 4), (2, 4)]
    assert q.cover_pairs() == [(1, 2), (2, 4)]


def test_natural_poset_is_an_immutable_value():
    q = NaturalPoset.from_relations(3, [(1, 3)])
    same = NaturalPoset(3, (0, 0, 0b1))
    assert q == same and hash(q) == hash(same)
    assert q != NaturalPoset.antichain(3) and q != (3, (0, 0, 1))
    assert repr(q) == "NaturalPoset(n=3, relations=[(1, 3)])"
    with pytest.raises(AttributeError):
        q.n = 4
    with pytest.raises(AttributeError):
        del q.down
    assert pickle.loads(pickle.dumps(q)) == q


def test_graded_poset_pickles_and_copies_through_its_constructor():
    lattice = lattice_from_gamma("01")
    beta = lattice.flag_beta_vector()   # fills the caches
    labelled = GradedPoset((0, 1), [(0, 1)], labels=["bottom", "top"])
    for poset in (lattice, labelled, GradedPoset.chain(2)):
        for twin in (pickle.loads(pickle.dumps(poset)), copy.copy(poset),
                     copy.deepcopy(poset)):
            assert twin == poset and twin is not poset
    assert pickle.loads(pickle.dumps(lattice)).flag_beta_vector() == beta


def test_from_relations_output_passes_the_public_check():
    rng = random.Random(5)
    for _ in range(200):
        n = rng.randint(0, 8)
        pairs = [(a, b) for a in range(1, n + 1) for b in range(a + 1, n + 1)
                 if rng.random() < 0.3]
        q = NaturalPoset.from_relations(n, pairs)
        assert NaturalPoset(q.n, q.down) == q


def test_q_from_commuting_word():
    q3 = q_from_commuting_word(3)
    assert q3.relations() == [(1, 3)]
    assert q_from_commuting_word(1).n == 1
    q5 = q_from_commuting_word(5)
    expected = ["12345", "12354", "12435", "13245",
                "13254", "21345", "21354", "21435"]
    assert [format_word(w) for w in q5.linear_extensions()] == expected
    assert q5.extension_count() == 8 == fibonacci(6)


def test_linear_extensions_examples():
    assert len(NaturalPoset.antichain(3).linear_extensions()) == 6
    assert NaturalPoset.chain(4).linear_extensions() == [(1, 2, 3, 4)]
    # the guard is the extension count, not the size
    assert NaturalPoset.chain(30).linear_extensions() == [tuple(range(1, 31))]
    assert (len(q_from_commuting_word(16).linear_extensions())
            == fibonacci(17))
    with pytest.raises(GuardExceeded, match="^39916800 linear extensions "
                       "exceed 10000000 words$"):
        NaturalPoset.antichain(11).linear_extensions()


def test_extension_count_examples():
    assert NaturalPoset.chain(6).extension_count() == 1
    for n in range(1, 7):
        assert NaturalPoset.antichain(n).extension_count() == math.factorial(n)
    for n in range(7):
        for q in all_natural_posets(n):
            assert q.extension_count() == len(q.linear_extensions())
    # the one guard is the ideals walked: 2^20 by default, so every poset
    # of at most 20 elements is counted, and thin ones far past that
    assert (q_from_commuting_word(300).extension_count()
            == fibonacci(301))
    assert NaturalPoset.antichain(4).extension_count(max_ideals=16) == 24
    with pytest.raises(GuardExceeded, match="^more than 15 order ideals$"):
        NaturalPoset.antichain(4).extension_count(max_ideals=15)
    with pytest.raises(GuardExceeded,
                       match="^more than 1048576 order ideals$"):
        NaturalPoset.antichain(21).extension_count()
    with pytest.raises(GuardExceeded,
                       match="^descent tabulation limited to 14 elements$"):
        NaturalPoset.chain(15).descent_vector()


@pytest.mark.parametrize("call", [
    # 2^40 ideals and 12! words, refused before they are listed
    lambda: NaturalPoset.antichain(40).ideal_size_profile(),
    lambda: NaturalPoset.antichain(12).linear_extensions(),
])
def test_extension_walks_refuse_within_a_second(call):
    start = time.perf_counter()
    with pytest.raises(GuardExceeded):
        call()
    assert time.perf_counter() - start < 1


def test_jq_flags_match_generic_lattice_flags():
    for n in range(6):
        for q in all_natural_posets(n):
            alpha, beta = q.jq_flag_vectors()
            J = q.ideals_lattice()
            assert alpha == J.flag_alpha_vector()
            assert beta == J.flag_beta_vector()


def test_gamma_validation():
    assert check_gamma("") == ""
    assert check_gamma("01") == "01"
    for bad in ("1", "00", "012", "0x"):
        with pytest.raises(DomainError):
            check_gamma(bad)
    assert gamma_words(1) == [""]
    assert gamma_words(2) == ["0"]
    assert gamma_words(3) == ["01"]
    assert [len(gamma_words(n)) for n in range(3, 9)] == [1, 2, 4, 8, 16, 32]
    assert all(check_gamma(g) == g for n in range(1, 9)
               for g in gamma_words(n))
    with pytest.raises(DomainError, match="^n must be >= 0$"):
        q_from_commuting_word(-1)


def test_lattice_from_gamma_examples():
    assert are_isomorphic(lattice_from_gamma(""), chain(1))
    fig2 = lattice_from_gamma("01")
    assert are_isomorphic(fig2, q_from_commuting_word(3).ideals_lattice())
    fig3 = lattice_from_gamma("01001")
    assert fig3.rank == 6 and fig3.size == 12
    assert fig3.layer_sizes() == (1, 2, 2, 2, 2, 2, 1)
    for gamma in gamma_words(6):
        L = lattice_from_gamma(gamma)
        assert L.is_bounded_graded()
        assert L.layer_sizes() == (1,) + (2,) * 5 + (1,)


def _adjoined_lattice(gamma):
    """L(gamma) by the adjoining construction, the oracle for
    lattice_from_gamma: each bit adjoins an element over the left (0) or
    right (1) coatom plus a new top; the new element takes the side it was
    attached on and the old top the other."""
    ranks = [0, 1]
    covers = [(0, 1)]
    top = 1
    left = right = 0
    for bit in gamma:
        c = left if bit == "0" else right
        x = len(ranks)
        ranks.append(ranks[c] + 1)
        covers.append((c, x))
        t = len(ranks)
        ranks.append(ranks[top] + 1)
        covers.append((x, t))
        covers.append((top, t))
        left, right = (x, top) if bit == "0" else (top, x)
        top = t
    return GradedPoset(ranks, covers)


def test_lattice_from_gamma_against_the_adjoining_construction():
    for rank in range(1, 13):
        for gamma in gamma_words(rank):
            built, oracle = lattice_from_gamma(gamma), _adjoined_lattice(gamma)
            assert ((built.ranks, built.covers, built.labels)
                    == (oracle.ranks, oracle.covers, oracle.labels)), gamma


def test_level_word_poset_rejects_bad_joins():
    assert level_word_poset(("K", "M")).layer_sizes() == (1, 2, 2, 1)
    for word in (("M",), ("K", "X"), ("1", "P")):
        with pytest.raises(DomainError):
            level_word_poset(word)


def test_q_from_gamma_examples():
    assert q_from_gamma("").n == 1
    assert are_isomorphic(q_from_gamma("01"), q_from_commuting_word(3))
    assert are_isomorphic(q_from_gamma("0101"), q_from_commuting_word(5))
    # the ideal lattice of the recovered poset rebuilds the lattice
    for gamma in ("", "0", "01", "010", "011", "01001"):
        q = q_from_gamma(gamma)
        assert are_isomorphic(q.ideals_lattice(), lattice_from_gamma(gamma))


def test_beta_recurrence_on_gamma_family():
    # dropping the last construction step fixes beta off the top rank;
    # the rank sets through the top rank delegate to the stem lattice
    for rank in range(3, 10):
        for gamma in gamma_words(rank):
            n = rank
            run = 1
            while run < len(gamma) and gamma[-run - 1] == gamma[-1]:
                run += 1
            delta = gamma[:len(gamma) - run - 1]
            stem_rank = n - run - 1
            beta = lattice_from_gamma(gamma).flag_beta_vector()
            prev = lattice_from_gamma(gamma[:-1]).flag_beta_vector()
            stem = lattice_from_gamma(delta).flag_beta_vector()
            for mask in range(1 << (n - 1)):
                top_bit = 1 << (n - 2)
                if not mask & top_bit:
                    assert beta[mask] == prev[mask]
                else:
                    rest = mask ^ top_bit
                    if rest >> max(stem_rank - 1, 0):
                        assert beta[mask] == 0
                    else:
                        assert beta[mask] == stem[rest]


def test_gamma_beta_sparse_support():
    for rank in range(1, 10):
        for gamma in gamma_words(rank):
            L = lattice_from_gamma(gamma)
            beta = L.flag_beta_vector()
            for mask, value in enumerate(beta):
                assert value in (0, 1)
                if value:
                    # no two consecutive ranks in the support
                    assert not mask & mask >> 1


def test_two_plus_two_and_width():
    two_two = NaturalPoset.from_relations(4, [(1, 2), (3, 4)])
    assert not two_two.is_two_plus_two_free()
    assert two_two.is_width_le_two()
    assert not NaturalPoset.antichain(3).is_width_le_two()
    q5 = q_from_commuting_word(5)
    assert q5.is_two_plus_two_free()
    assert q5.is_width_le_two()
    assert NaturalPoset.chain(4).is_two_plus_two_free()


def test_stretch_examples():
    B2 = GradedPoset.boolean_lattice(2)
    stretched = B2.stretch(1)
    assert stretched.size == 6 and stretched.rank == 3
    assert stretched.layer_sizes() == (1, 2, 2, 1)
    # matching middle: each new element covers exactly one old one
    middle_covers = [lo for lo, hi in stretched.covers
                     if stretched.ranks[hi] == 2]
    assert sorted(middle_covers) == [1, 2]
    assert are_isomorphic(chain(2).stretch(1), chain(3))
    with pytest.raises(DomainError):
        B2.stretch(2)


def test_proliferate_examples():
    B2 = GradedPoset.boolean_lattice(2)
    prolif = B2.proliferate(1)
    assert prolif.layer_sizes() == (1, 2, 2, 1)
    middle = [(lo, hi) for lo, hi in prolif.covers
              if prolif.ranks[lo] == 1 and prolif.ranks[hi] == 2]
    assert len(middle) == 4
    assert are_isomorphic(chain(3).proliferate(1), chain(4))


def test_stretch_beta_sign_rule():
    rng = random.Random(5)
    for _ in range(10):
        base = random_graded_poset(rng)
        n = base.rank
        i = rng.randint(1, n - 1)
        stretched = base.stretch(i)
        for mask in range(1 << n):
            s = frozenset(b + 1 for b in range(n) if mask >> b & 1)
            if i in s and i + 1 in s:
                image = {j for j in s if j <= i} | {
                    j - 1 for j in s if j > i + 1}
                assert stretched.beta(s) == -base.beta(image)
            else:
                image = {j if j <= i else j - 1 for j in s}
                assert stretched.beta(s) == base.beta(image)
        assert base.is_multiplicity_free() == stretched.is_multiplicity_free()


def test_proliferate_factorization():
    rng = random.Random(6)
    for _ in range(10):
        base = random_graded_poset(rng)
        n = base.rank
        i = rng.randint(1, n - 1)
        prolif = base.proliferate(i)
        lower = base.lower_section(i)
        upper = base.upper_section(i)
        for mask in range(1 << n):
            s = frozenset(b + 1 for b in range(n) if mask >> b & 1)
            expect = (lower.beta({j for j in s if j <= i})
                      * upper.beta({j - i for j in s if j > i}))
            assert prolif.beta(s) == expect


def test_ordinal_sum():
    q1 = NaturalPoset.from_relations(3, [(1, 3)])
    q2 = NaturalPoset.antichain(2)
    q = ordinal_sum(q1, q2)
    assert q.n == 5
    assert q.less(3, 4) and q.less(1, 5)
    # the cut rank never carries a descent
    _, beta = q.jq_flag_vectors()
    cut_bit = 1 << (q1.n - 1)
    for mask in range(len(beta)):
        if mask & cut_bit:
            assert beta[mask] == 0
    assert (q.extension_count()
            == q1.extension_count() * q2.extension_count())


def test_ordinal_sum_extension_products():
    rng = random.Random(9)
    fives = all_natural_posets(3)
    for _ in range(10):
        a = rng.choice(fives)
        b = rng.choice(fives)
        combined = ordinal_sum(a, b)
        assert (combined.extension_count()
                == a.extension_count() * b.extension_count())


def _compositions(n):
    if n == 0:
        yield ()
    for first in range(1, n + 1):
        for rest in _compositions(n - first):
            yield (first,) + rest


def test_distributive_family_is_ordinal_sums_of_q_gamma_blocks():
    # the paper's classification: the posets whose ideal lattice is
    # multiplicity-free are the ordinal sums of q_gamma blocks, over every
    # composition of n; the family itself is built from level words
    blocks = {}
    for n in range(11):
        sums = set()
        for parts in _compositions(n):
            for gammas in itertools.product(*map(gamma_words, parts)):
                q = NaturalPoset(0, ())
                for g in gammas:
                    if g not in blocks:
                        blocks[g] = q_from_gamma(g)
                    q = ordinal_sum(q, blocks[g])
                sums.add(q.canonical_key())
        family = distributive_mf_family(n)
        assert sums == {q.canonical_key() for q in family}
        assert len(sums) == len(family)
    assert len(family) == 1682


def test_isomorphism_examples():
    assert not are_isomorphic(GradedPoset.boolean_lattice(2), chain(3))
    assert are_isomorphic(lattice_from_gamma("01"),
                          q_from_commuting_word(3).ideals_lattice())
    assert are_isomorphic(q_from_gamma("0101"), q_from_commuting_word(5))
    a = NaturalPoset.from_relations(3, [(1, 2)])
    b = NaturalPoset.from_relations(3, [(2, 3)])
    assert are_isomorphic(a, b)
    assert not are_isomorphic(a, NaturalPoset.chain(3))
    with pytest.raises(GuardExceeded):
        NaturalPoset.antichain(25).canonical_key()
    with pytest.raises(GuardExceeded,
                       match="^canonical form limited to 24 elements$"):
        GradedPoset.chain(25).canonical_key()
    with pytest.raises(GuardExceeded,
                       match="^canonical form limited to 24 elements$"):
        canonical_relation_key(25, [0] * 25)
    # twin-heavy inputs: an antichain has ISO_SIZE! orderings, all one key
    assert NaturalPoset.antichain(ISO_SIZE).canonical_key() == (
        ISO_SIZE, (0,) * ISO_SIZE, (0,) * ISO_SIZE)
    stacked = level_word_poset(("K",) * 10)
    assert stacked.size == 22
    perm = random.Random(15).sample(range(22), 22)
    ranks = [0] * 22
    for e, r in enumerate(stacked.ranks):
        ranks[perm[e]] = r
    covers = [(perm[lo], perm[hi]) for lo, hi in stacked.covers]
    assert (GradedPoset(ranks, covers).canonical_key()
            == stacked.canonical_key())


# The reference for canonical_relation_key: the same refinement and
# lexicographically least row encoding, searched with rows rebuilt at every
# node and no twin pruning. The keys must agree exactly.

def _ref_iter_bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _ref_heights(n: int, below) -> list[int]:
    heights = [0] * n
    for i in sorted(range(n), key=lambda e: bin(below[e]).count("1")):
        heights[i] = 1 + max((heights[j] for j in _ref_iter_bits(below[i])),
                             default=-1)
    return heights


def _ref_refine_colors(n: int, below, above, init) -> list[int]:
    ranking = {c: r for r, c in enumerate(sorted(set(init)))}
    colors = [ranking[c] for c in init]
    while True:
        sigs = []
        for i in range(n):
            down_sig = tuple(sorted(colors[j]
                                    for j in _ref_iter_bits(below[i])))
            up_sig = tuple(sorted(colors[j]
                                  for j in _ref_iter_bits(above[i])))
            sigs.append((colors[i], down_sig, up_sig))
        ranking = {s: r for r, s in enumerate(sorted(set(sigs)))}
        new = [ranking[s] for s in sigs]
        if new == colors:
            return colors
        colors = new


def _ref_canonical_relation_key(n: int, below) -> tuple:
    if n == 0:
        return (0, (), ())
    above = [0] * n
    for i in range(n):
        for j in _ref_iter_bits(below[i]):
            above[j] |= 1 << i
    colors = _ref_refine_colors(n, below, above, _ref_heights(n, below))
    color_seq = sorted(colors)

    best: list[int] | None = None
    placed: list[int] = []
    rows: list[int] = []
    used = [False] * n

    def rec(pos: int) -> None:
        nonlocal best
        if pos == n:
            if best is None or rows < best:
                best = rows.copy()
            return
        req = color_seq[pos]
        grouped: dict[int, list[int]] = {}
        for i in range(n):
            if used[i] or colors[i] != req:
                continue
            row = 0
            for idx, p in enumerate(placed):
                if below[i] >> p & 1:
                    row |= 1 << (2 * idx)
                if below[p] >> i & 1:
                    row |= 1 << (2 * idx + 1)
            grouped.setdefault(row, []).append(i)
        for row in sorted(grouped):
            if best is not None:
                rows.append(row)
                worse = rows > best[: pos + 1]
                rows.pop()
                if worse:
                    break
            for i in grouped[row]:
                used[i] = True
                placed.append(i)
                rows.append(row)
                rec(pos + 1)
                rows.pop()
                placed.pop()
                used[i] = False

    rec(0)
    return (n, tuple(color_seq), tuple(best))


def test_canonical_key_against_the_reference_search():
    rng = random.Random(15)
    for n in range(7):
        for q in all_natural_posets(n):
            assert q.canonical_key() == _ref_canonical_relation_key(n, q.down)
            perm = rng.sample(range(n), n)
            below = [0] * n
            for i, mask in enumerate(q.down):
                for j in range(n):
                    if mask >> j & 1:
                        below[perm[i]] |= 1 << perm[j]
            assert (canonical_relation_key(n, below)
                    == _ref_canonical_relation_key(n, below))
    graded = [*generate_mf_posets("rank", 6),
              *generate_mf_posets("elements", 10),
              *all_bounded_graded_posets(4, 9)]
    for p in graded:
        assert p.canonical_key() == _ref_canonical_relation_key(
            p.size, p.below_masks())


def test_level_word_poset_trusted_constructor():
    """level_word_poset skips GradedPoset's checks; the public constructor
    accepts its ranks and covers and gives an equal poset."""
    for p in generate_mf_posets("rank", 7):
        assert type(p.ranks) is tuple and type(p.covers) is tuple
        assert GradedPoset(p.ranks, p.covers) == p


def test_natural_poset_counts():
    assert [len(all_natural_posets(n)) for n in range(7)] == [
        1, 1, 2, 7, 40, 357, 4824]
    assert [len(all_posets_up_to_iso(n)) for n in range(7)] == [
        1, 1, 2, 5, 16, 63, 318]
    with pytest.raises(GuardExceeded):
        all_natural_posets(8)
    with pytest.raises(DomainError):
        all_natural_posets(-1)


def _first_of_each_class(candidates):
    """Canonicalize-and-discard: the down tuples of the first candidate of
    each isomorphism class, in candidate order."""
    seen = set()
    out = []
    for q in candidates:
        key = q.canonical_key()
        if key not in seen:
            seen.add(key)
            out.append(q.down)
    return out


def test_iso_sweep_matches_canonicalize_and_discard():
    for n in range(7):
        assert ([q.down for q in all_posets_up_to_iso(n)]
                == _first_of_each_class(all_natural_posets(n)))
    # the sweep grows its children unchecked; each passes the check
    for q in all_posets_up_to_iso(7):
        assert NaturalPoset(q.n, q.down) == q


def test_recursive_searches_leave_no_cyclic_garbage():
    # descent_vector's walk, canonical_relation_key's search and
    # linear_extensions' rec each call themselves through a closure cell
    q = NaturalPoset.from_relations(5, [(1, 3), (2, 3), (2, 4), (4, 5)])
    calls = [lambda: _pykernels.descent_vector(q.n, q.down),
             lambda: canonical_relation_key(q.n, q.down),
             q.canonical_key,
             q.linear_extensions,
             lambda: all_posets_up_to_iso(4)]
    gc.disable()
    try:
        gc.collect()
        for call in calls:
            call()
            assert gc.collect() == 0, call
    finally:
        gc.enable()


def test_iso_sweep_guards():
    # one guard on the sweep, whichever function drives it
    refusal = "^isomorphism-class sweep to 9 elements exceeds limit 8$"
    with pytest.raises(GuardExceeded, match=refusal):
        all_posets_up_to_iso(9)
    with pytest.raises(GuardExceeded, match=refusal):
        all_bounded_graded_posets(9, 11)
    with pytest.raises(DomainError):
        all_posets_up_to_iso(-1)


def test_iso_sweep_n8_and_distributive_count(shared_iso_sweep):
    reps = all_posets_up_to_iso(8)
    assert len(reps) == 16999  # A000112
    two_ideals = sum(all(c <= 2 for c in q.ideal_size_profile())
                     for q in reps)
    assert two_ideals == DISTLAT_COUNTS[7] == count_distributive_mf(8) == 289


# (rank, size) -> isomorphism classes of bounded graded posets, as counted by
# canonicalize-and-discard over every layer profile and cover pattern
GRADED_COUNTS_4_9 = {
    (1, 2): 1, **{(2, s): 1 for s in range(3, 10)},
    (3, 4): 1, (3, 5): 2, (3, 6): 5, (3, 7): 12, (3, 8): 35, (3, 9): 108,
    (4, 5): 1, (4, 6): 3, (4, 7): 10, (4, 8): 35, (4, 9): 149,
}


def test_bounded_graded_sweep_small():
    swept = all_bounded_graded_posets(3, 7)
    assert all(p.is_bounded_graded() for p in swept)
    by_rank = {}
    for p in swept:
        by_rank[p.rank] = by_rank.get(p.rank, 0) + 1
    # rank 2: one interior layer of size 1..5, covers forced
    assert by_rank[1] == 1 and by_rank[2] == 5
    keys = {p.canonical_key() for p in swept}
    assert len(keys) == len(swept)
    swept = all_bounded_graded_posets(4, 9)
    assert all(p.is_bounded_graded() for p in swept)
    by_rank_size = {}
    for p in swept:
        key = (p.rank, p.size)
        by_rank_size[key] = by_rank_size.get(key, 0) + 1
    assert by_rank_size == GRADED_COUNTS_4_9
    assert len({p.canonical_key() for p in swept}) == len(swept) == 369
    # the sweep's size bound is the only guard; the rank bound filters (a
    # poset of at most 7 elements has rank at most 6)
    assert all_bounded_graded_posets(100, 7) == all_bounded_graded_posets(6, 7)
    with pytest.raises(GuardExceeded):
        all_bounded_graded_posets(4, 11)
    # the 2-chain needs two elements and rank 1
    for rank in range(5):
        assert all_bounded_graded_posets(rank, 0) == []
        assert all_bounded_graded_posets(rank, 1) == []
        two = all_bounded_graded_posets(rank, 2)
        assert two == ([GradedPoset.chain(1)] if rank else [])


def test_is_bounded_graded_against_cover_loops():
    """Unique bottom and top imply the per-element cover conditions."""

    def oracle(p):
        up, down = [[] for _ in range(p.size)], p.down_covers()
        for lo, hi in p.covers:
            up[lo].append(hi)
        reach = []
        for e in range(p.size):
            seen, stack = {e}, [e]
            while stack:
                for u in up[stack.pop()]:
                    if u not in seen:
                        seen.add(u)
                        stack.append(u)
            reach.append(seen)
        zeros = [e for e in range(p.size) if p.ranks[e] == 0]
        tops = [e for e in range(p.size) if p.ranks[e] == p.rank]
        if len(zeros) != 1 or len(tops) != 1:
            return False
        if len(reach[zeros[0]]) != p.size:
            return False
        if not all(tops[0] in r for r in reach):
            return False
        for e in range(p.size):
            if p.ranks[e] < p.rank and not up[e]:
                return False
            if p.ranks[e] > 0 and not down[e]:
                return False
        return True

    rng = random.Random(11)
    bounded = 0
    for _ in range(4000):
        ranks = [rng.randint(0, 3) for _ in range(rng.randint(1, 8))]
        covers = [(lo, hi) for lo in range(len(ranks))
                  for hi in range(len(ranks))
                  if ranks[hi] == ranks[lo] + 1 and rng.random() < 0.6]
        p = GradedPoset(ranks, covers)
        assert p.is_bounded_graded() == oracle(p), (ranks, covers)
        bounded += oracle(p)
    assert bounded > 100


def test_random_graded_poset_is_bounded():
    rng = random.Random(0)
    for _ in range(30):
        p = random_graded_poset(rng)
        assert p.is_bounded_graded()
        assert p.size <= 10 and p.rank <= 5


def test_poset_json_round_trip():
    for poset in (GradedPoset.boolean_lattice(2), lattice_from_gamma("0101"),
                  q_from_commuting_word(4).ideals_lattice()):
        again = GradedPoset.from_json(poset.to_json())
        assert again == poset
    with pytest.raises(DomainError):
        GradedPoset.from_json("{}")
    # ranks are taken as given: a JSON rank that is not an integer, or is a
    # bool, is refused rather than coerced
    for middle in ("1.9", '"1"', "true", "1.0"):
        text = ('{"elements": ["a", "b", "c"], '
                f'"ranks": {{"a": 0, "b": {middle}, "c": 2}}, '
                '"covers": [["a", "b"], ["b", "c"]]}')
        with pytest.raises(DomainError, match="bad rank"):
            GradedPoset.from_json(text)
    assert GradedPoset.from_json(text.replace("1.0", "1")).ranks == (0, 1, 2)
    with pytest.raises(DomainError, match="bad rank"):
        GradedPoset((0, True), [(0, 1)])


def test_poset_dot_output():
    dot = GradedPoset.boolean_lattice(2).to_dot()
    assert dot.startswith("digraph")
    assert "rank=same" in dot
    assert '"{}" -> "{1}"' in dot
