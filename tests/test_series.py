import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from salient.classes import multiset_class_partition
from salient.errors import DomainError, GuardExceeded
from salient.series import (LevelProfile, TPoly, TruncatedSeries, c_poly,
                            cf_series, expand_rational, f4_coefficient,
                            f4_t_coefficient, falling_factorial,
                            g_umbral_series, level_profiles,
                            multiset_count_cf, phi, umbral_f_coefficients)
from salient.words import MultisetSpec

F_SEQ = [1, 1, 1, 2, 8, 42, 258, 1824, 14664]


def _random_series(rng, variables, caps, terms=4):
    coeffs = {}
    for _ in range(terms):
        exps = tuple(rng.randint(0, c) for c in caps)
        coeffs[exps] = rng.randint(-5, 5)
    return TruncatedSeries(variables, caps, coeffs)


def test_series_arithmetic_is_exact():
    rng = random.Random(11)
    variables, caps = ("x", "y"), (4, 4)
    for _ in range(25):
        a = _random_series(rng, variables, caps)
        b = _random_series(rng, variables, caps)
        c = _random_series(rng, variables, caps)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
    for _ in range(10):
        a = _random_series(rng, variables, caps) * \
            TruncatedSeries.monomial(1, (1, 0), variables, caps)
        unit = a + 1
        one = TruncatedSeries.constant(1, variables, caps)
        assert unit * unit.inverse() == one


@st.composite
def invertible_series(draw):
    caps = tuple(draw(st.lists(st.integers(0, 4), min_size=1, max_size=3)))
    total_cap = draw(st.none() | st.integers(0, sum(caps)))
    exps = st.tuples(*(st.integers(0, c) for c in caps))
    coeffs = draw(st.dictionaries(exps, st.integers(-5, 5), max_size=8))
    coeffs[(0,) * len(caps)] = draw(st.sampled_from([1, -1, 2, -2, 3]))
    return TruncatedSeries("xyz"[:len(caps)], caps, coeffs,
                           total_cap=total_cap)


@settings(max_examples=80, deadline=None, database=None)
@given(invertible_series())
def test_inverse_times_series_is_one(s):
    one = TruncatedSeries.constant(1, s.variables, s.caps,
                                   total_cap=s.total_cap)
    assert s * s.inverse() == one


@settings(max_examples=40, deadline=None, database=None)
@given(invertible_series())
def test_inverse_output_passes_the_validating_constructor(s):
    inv = s.inverse()
    checked = TruncatedSeries(inv.variables, inv.caps, inv.coeffs,
                              total_cap=inv.total_cap)
    assert checked.coeffs == inv.coeffs
    assert checked == inv


def test_cf_series_passes_the_validating_constructor():
    big = cf_series(4, (5, 5, 5, 5))
    assert TruncatedSeries(big.variables, big.caps, big.coeffs) == big


def test_series_validation():
    with pytest.raises(DomainError):
        TruncatedSeries(("x",), (2, 3))
    with pytest.raises(DomainError):
        TruncatedSeries(("x",), (2,), {(-1,): 1})
    a = TruncatedSeries(("x",), (2,), {(0,): 0, (1,): 3, (5,): 9})
    assert a.coeffs == {(1,): 3}
    with pytest.raises(DomainError):
        TruncatedSeries(("x",), (3,), {(1,): 1}).inverse()
    with pytest.raises(DomainError):
        a * TruncatedSeries(("y",), (2,), {})


def test_series_total_cap():
    capped = TruncatedSeries(("x", "y"), (3, 3), {(2, 2): 1, (1, 0): 1},
                             total_cap=2)
    assert capped.coeffs == {(1, 0): 1}
    squared = capped * capped
    assert squared.coefficient((2, 0)) == 1


def test_cf_series_examples():
    assert cf_series(3, (1, 1, 1)).coefficient((1, 1, 1)) == 2
    assert cf_series(5, (1,) * 5).coefficient((1,) * 5) == 42
    ray = cf_series(1, (6,))
    assert all(ray.coefficient((r,)) == 1 for r in range(7))
    with pytest.raises(GuardExceeded):
        cf_series(5, (5, 5, 5, 5, 5))
    with pytest.raises(DomainError):
        cf_series(3, (1, 1))


def test_cf_full_monomial_counts_classes():
    for n in range(1, 8):
        full = cf_series(n, (1,) * n)
        assert full.coefficient((1,) * n) == F_SEQ[n]


def test_multiset_count_cf_examples():
    assert multiset_count_cf(MultisetSpec.parse("1:2,2:1,3:2")) == 6
    assert multiset_count_cf(MultisetSpec.parse("1:7")) == 1
    assert multiset_count_cf(MultisetSpec.parse("1:2,2:2,3:2")) == 6
    assert multiset_count_cf(MultisetSpec.parse("")) == 1
    with pytest.raises(GuardExceeded):
        multiset_count_cf(MultisetSpec.parse("1:13,2:13"))


def test_multiset_count_cf_matches_bfs():
    # every multiset over the values 1..4 (gaps included) of total <= 7
    for counts in itertools.product(range(8), repeat=4):
        if sum(counts) > 7:
            continue
        spec = MultisetSpec.from_mapping(
            {v + 1: r for v, r in enumerate(counts)})
        assert multiset_count_cf(spec) == len(
            multiset_class_partition(spec)), spec


def test_f4_coefficient_examples():
    assert f4_coefficient(1, 1, 1, 1) == 8
    assert f4_coefficient(0, 0, 0, 0) == 1
    assert f4_coefficient(2, 1, 0, 2) == 18


def test_f4_matches_series_small():
    full = cf_series(4, (5, 5, 5, 5), max_total=24, total_cap=5)
    for exps in itertools.product(range(6), repeat=4):
        if sum(exps) <= 5:
            assert f4_coefficient(*exps) == full.coefficient(exps)


def test_f4_gapped_support():
    # dropping the last variable recovers the three-letter series...
    three = cf_series(3, (4, 4, 4), max_total=24, total_cap=4)
    for exps in itertools.product(range(5), repeat=3):
        if sum(exps) <= 4:
            assert f4_coefficient(*exps, 0) == three.coefficient(exps)
    # ...but a gap at the third letter gives a different commutation
    # pattern: {1,1,2,4,4} has 18 classes, {1,1,2,3,3} only 6
    gapped = MultisetSpec.parse("1:2,2:1,4:2")
    assert len(multiset_class_partition(gapped)) == 18 == f4_coefficient(2, 1, 0, 2)


def test_f4_t_examples():
    assert f4_t_coefficient(1, 1, 1, 1, 1) == 8
    assert f4_t_coefficient(1, 0, 0, 0, 0) == 0
    assert f4_t_coefficient(0, 0, 0, 0, 0) == 1
    assert f4_t_coefficient(1, 0, 0, 0, 2) == 2
    base = cf_series(4, (3, 3, 3, 3), max_total=24, total_cap=3)
    powered = TruncatedSeries.constant(1, base.variables, base.caps,
                                       total_cap=base.total_cap)
    for t in range(3):
        if t:
            powered = powered * base
        for exps in itertools.product(range(4), repeat=4):
            if sum(exps) <= 3:
                assert f4_t_coefficient(*exps, t) == powered.coefficient(exps)


def test_falling_factorial():
    assert falling_factorial(5, 3) == 60
    assert falling_factorial(2, 0) == 1
    assert falling_factorial(0, 2) == 0


def test_level_profiles_invariants():
    for m in range(1, 6):
        for k in range(1, 5):
            for p in level_profiles(m, k):
                assert len(p.loops) == m
                assert all(e >= 1 for e in p.edges)
                assert all(mu >= 0 for mu in p.loops)
                degrees = []
                for i in range(m):
                    left = p.edges[i - 1] if i > 0 else 0
                    right = p.edges[i] if i < m - 1 else 0
                    degrees.append(p.loops[i] + left + right)
                assert degrees == [k] * m
                assert p.r == k * m - p.nu


def test_c_poly_reference_values():
    half_t2 = TPoly({2: Fraction(1, 2)})
    assert c_poly(1, 2) == half_t2
    assert c_poly(2, 2) == half_t2 - TPoly({3: 1})
    assert c_poly(3, 2) == TPoly({4: 1})
    assert c_poly(4, 2) == TPoly({5: -1})
    assert c_poly(1, 1) == TPoly({1: 1})
    assert c_poly(2, 1) == TPoly({1: -1})
    assert c_poly(3, 1) == TPoly.zero()
    with pytest.raises(GuardExceeded):
        c_poly(300, 1)


def test_phi_examples():
    assert phi(TPoly({2: 1})) == 2
    assert phi(TPoly({2: Fraction(1, 2), 3: -1})) == -5
    assert phi(TPoly.one()) == 1
    assert phi(TPoly.zero()) == 0


def test_tpoly_arithmetic():
    t = TPoly({1: 1})
    assert (t * t).terms() == [(2, 1)]
    assert (t + t).terms() == [(1, 2)]
    assert (t - t).is_zero()
    assert (-t).terms() == [(1, -1)]
    assert (3 * t).terms() == [(1, 3)]
    assert TPoly({3: 1}).degree() == 3


def test_g_umbral_series():
    assert g_umbral_series(1, 8) == F_SEQ
    assert g_umbral_series(2, 4) == [1, 1, 1, 6, 216]
    assert g_umbral_series(2, 0) == [1]
    with pytest.raises(GuardExceeded):
        g_umbral_series(1, 300)


def test_g_umbral_series_matches_bfs():
    for k in range(1, 9):
        for n in range(1, 8 // k + 1):
            spec = MultisetSpec.from_mapping({v: k for v in range(1, n + 1)})
            assert g_umbral_series(k, n)[n] == len(
                multiset_class_partition(spec)), (k, n)


def test_umbral_f_truncation_for_pairs():
    half_t2 = TPoly({2: Fraction(1, 2)})
    assert umbral_f_coefficients(2, 4) == [
        TPoly.zero(), half_t2, half_t2 - TPoly({3: 1}),
        TPoly({4: 1}), TPoly({5: -1})]


def test_umbral_matches_f4_diagonal():
    # {1^2, 2^2, 3^2, 4^2} has as many classes as the closed form says
    assert g_umbral_series(2, 4)[4] == f4_coefficient(2, 2, 2, 2)


def test_expand_rational_univariate():
    assert expand_rational([1, -2], [1, -3, 1, 1], 5) == [1, 1, 2, 4, 9, 21]
    assert expand_rational([1], [1, -1], 3) == [1, 1, 1, 1]
    assert expand_rational([0, 1, -4, 3], [1, -6, 9, -3], 8) == [
        0, 1, 2, 6, 21, 78, 297, 1143, 4419]
    with pytest.raises(DomainError):
        expand_rational([1], [0, 1], 3)
    # rational coefficients stay exact
    assert expand_rational([1], [2, 1], 2) == [
        Fraction(1, 2), Fraction(-1, 4), Fraction(1, 8)]


def test_expand_rational_bivariate():
    ts = expand_rational({(0, 0): 1}, {(0, 0): 1, (1, 0): -1, (0, 1): -1},
                         (3, 3))
    import math
    for i in range(4):
        for j in range(4):
            assert ts.coefficient((i, j)) == math.comb(i + j, i)
