import pytest

from salient.errors import DomainError, GuardExceeded
from salient.mfenum import (_lattice_words, count_distributive_mf,
                            distributive_count_series, distributive_mf_family,
                            generate_mf_posets, mf_counts_by_elements,
                            mf_counts_by_rank, mf_rank_element_table,
                            u_bivariate)
from salient.posets import (GradedPoset, all_bounded_graded_posets,
                            all_posets_up_to_iso, are_isomorphic,
                            q_from_commuting_word)
from salient.series import TruncatedSeries


def test_g_blocks():
    # the indecomposable n-element blocks are the lattice words with no
    # singleton: 1, 1, then one per gamma word, 2^(n-3)
    blocks = [sum("1" not in word for word in _lattice_words(n))
              for n in range(1, 8)]
    assert blocks == [1, 1, 1, 2, 4, 8, 16]


def test_distributive_family_counts():
    assert ([count_distributive_mf(n) for n in range(11)]
            == distributive_count_series(10)
            == [1, 1, 2, 4, 9, 21, 50, 120, 289, 697, 1682])
    with pytest.raises(GuardExceeded):
        count_distributive_mf(11)
    with pytest.raises(DomainError):
        count_distributive_mf(-1)


def test_distributive_family_against_the_iso_sweep():
    # the family is the classes whose ideal lattice has at most two
    # ideals of each size, swept independently of the level words
    for n in range(8):
        family = distributive_mf_family(n)
        keys = {q.canonical_key() for q in family}
        swept = {q.canonical_key() for q in all_posets_up_to_iso(n)
                 if all(c <= 2 for c in q.ideal_size_profile())}
        assert len(keys) == len(family) == count_distributive_mf(n)
        assert keys == swept


def test_distributive_family_members_qualify():
    for n in range(1, 6):
        family = distributive_mf_family(n)
        keys = set()
        for q in family:
            _, beta = q.jq_flag_vectors()
            assert all(-1 <= b <= 1 for b in beta)
            assert all(c <= 2 for c in q.ideal_size_profile())
            assert q.is_two_plus_two_free() and q.is_width_le_two()
            keys.add(q.canonical_key())
        assert len(keys) == len(family)
    with pytest.raises(GuardExceeded):
        distributive_mf_family(11)


def test_rank_two_family():
    posets = [p for p in generate_mf_posets("rank", 2) if p.rank == 2]
    assert len(posets) == 2
    diamond = GradedPoset.boolean_lattice(2)
    assert sum(are_isomorphic(p, diamond) for p in posets) == 1
    assert sum(are_isomorphic(p, GradedPoset.chain(2)) for p in posets) == 1


def test_mf_counts_small():
    assert mf_counts_by_rank(5) == [1, 2, 6, 21, 78]
    assert mf_counts_by_elements(8) == [1, 1, 2, 3, 7, 12, 28]
    with pytest.raises(GuardExceeded, match="^element bound 17 exceeds 16$"):
        mf_counts_by_elements(17)
    for poset in generate_mf_posets("rank", 5):
        assert poset.is_multiplicity_free()
        assert poset.has_at_most_two_per_rank()
        assert poset.is_bounded_graded()
    with pytest.raises(DomainError):
        list(generate_mf_posets("volume", 3))
    with pytest.raises(GuardExceeded):
        list(generate_mf_posets("rank", 99))


def test_negative_bounds_are_domain_errors():
    for by, name in (("rank", "rank"), ("elements", "element")):
        with pytest.raises(DomainError, match=f"^{name} bound must be >= 0$"):
            list(generate_mf_posets(by, -1))
    for count in (mf_counts_by_rank, mf_counts_by_elements,
                  mf_rank_element_table):
        with pytest.raises(DomainError):
            count(-1)


def test_generated_mf_posets_pairwise_non_isomorphic():
    # the generator never canonicalizes: uniqueness of the block
    # decomposition is what keeps its output free of isomorphic repeats
    for by, bound, count in (("rank", 8, 5967), ("elements", 10, 222)):
        keys = {p.canonical_key() for p in generate_mf_posets(by, bound)}
        assert len(keys) == count


def test_generated_mf_posets_complete_against_the_graded_sweep(
        shared_iso_sweep):
    # the independent sweep lists every bounded graded poset of at most 10
    # elements up to isomorphism; the family is its two-per-rank part
    swept = all_bounded_graded_posets(9, 10)
    assert len(swept) == 2114
    two_per_rank = {p.canonical_key() for p in swept
                    if p.has_at_most_two_per_rank()}
    keys = {p.canonical_key() for p in generate_mf_posets("elements", 10)}
    assert keys == two_per_rank and len(keys) == 222


def test_six_element_count():
    assert mf_counts_by_elements(6)[-1] == 7


def test_u_bivariate_matches_table():
    table = mf_rank_element_table(5)
    series = u_bivariate(5, 12)
    for n in range(1, 6):
        for k in range(2, 13):
            assert series.coefficient((n, k)) == table.get((n, k), 0)
    # the (1 - 3xy^3) numerator variant is refuted by the table
    def poly(coeffs):
        return TruncatedSeries(series.variables, series.caps, coeffs)

    wrong = (series * poly({(0, 0): 1, (1, 3): -3})
             * poly({(0, 0): 1, (1, 2): -3}).inverse())
    assert any(wrong.coefficient((n, k)) != table.get((n, k), 0)
               for n in range(1, 6) for k in range(2, 13))


def test_alternating_member_realizes_maximum():
    for n in range(2, 7):
        family = distributive_mf_family(n)
        counts = [q.extension_count() for q in family]
        best = max(counts)
        winner = family[counts.index(best)]
        assert are_isomorphic(winner, q_from_commuting_word(n))
