import copy
import itertools
import math
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from salient import series
from salient.classes import multiset_class_partition
from salient.errors import DomainError, GuardExceeded
from salient.series import (TruncatedSeries, c_poly, cf_series,
                            expand_rational, f4_coefficient, f4_t_coefficient,
                            falling_factorial, g_umbral_series,
                            multiset_count_cf, phi)
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
            TruncatedSeries(variables, caps, {(1, 0): 1})
        unit = a + 1
        one = TruncatedSeries.constant(1, variables, caps)
        assert unit * unit.inverse() == one


@st.composite
def invertible_series(draw):
    caps = tuple(draw(st.lists(st.integers(0, 4), min_size=1, max_size=3)))
    exps = st.tuples(*(st.integers(0, c) for c in caps))
    coeffs = draw(st.dictionaries(exps, st.integers(-5, 5), max_size=8))
    coeffs[(0,) * len(caps)] = draw(st.sampled_from([1, -1, 2, -2, 3]))
    return TruncatedSeries("xyz"[:len(caps)], caps, coeffs)


@settings(max_examples=80, deadline=None, database=None)
@given(invertible_series())
def test_inverse_times_series_is_one(s):
    one = TruncatedSeries.constant(1, s.variables, s.caps)
    assert s * s.inverse() == one


@settings(max_examples=40, deadline=None, database=None)
@given(invertible_series())
def test_inverse_output_passes_the_validating_constructor(s):
    inv = s.inverse()
    checked = TruncatedSeries(inv.variables, inv.caps, inv.coeffs)
    assert checked.coeffs == inv.coeffs
    assert checked == inv


def test_cf_series_passes_the_validating_constructor():
    big = cf_series(4, (5, 5, 5, 5))
    assert TruncatedSeries(big.variables, big.caps, big.coeffs) == big


def test_series_pickles_and_copies_through_its_constructor():
    one = TruncatedSeries.constant(1, ("x",), (3,))
    shifted = cf_series(3, (1, 2, 1)) + Fraction(1, 3)
    for s in (one, shifted):
        for twin in (pickle.loads(pickle.dumps(s)), copy.copy(s),
                     copy.deepcopy(s)):
            assert twin == s and twin is not s
            assert twin.coeffs is not s.coeffs


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
    for exps in ((1,), (1, 1, 5), (-1, 0)):
        with pytest.raises(DomainError, match="bad exponent vector"):
            cf_series(2, (2, 2)).coefficient(exps)


def test_cf_series_examples():
    assert cf_series(3, (1, 1, 1)).coefficient((1, 1, 1)) == 2
    assert cf_series(5, (1,) * 5).coefficient((1,) * 5) == 42
    ray = cf_series(1, (6,))
    assert all(ray.coefficient((r,)) == 1 for r in range(7))
    # 6^5 = 7,776 exponents fit the box whatever their total degree...
    five = cf_series(5, (5,) * 5)
    assert five.coefficient((5,) * 5) == g_umbral_series(5, 5)[5]
    assert five.coefficient((5, 0, 5, 0, 0)) == math.comb(10, 5)
    # ...and 6^6 = 46,656 do not
    with pytest.raises(GuardExceeded, match="exponent box of at least"):
        cf_series(6, (5,) * 6)
    with pytest.raises(DomainError):
        cf_series(3, (1, 1))
    with pytest.raises(DomainError, match="^n must be >= 1$"):
        cf_series(0, ())


def test_cf_full_monomial_counts_classes():
    for n in range(1, 8):
        full = cf_series(n, (1,) * n)
        assert full.coefficient((1,) * n) == F_SEQ[n]


def test_multiset_count_cf_examples():
    assert multiset_count_cf(MultisetSpec.parse("1:2,2:1,3:2")) == 6
    assert multiset_count_cf(MultisetSpec.parse("1:7")) == 1
    assert multiset_count_cf(MultisetSpec.parse("1:2,2:2,3:2")) == 6
    assert multiset_count_cf(MultisetSpec.parse("")) == 1
    # 26 letters: 1 and 2 commute, so one class...
    assert multiset_count_cf(MultisetSpec.parse("1:13,2:13")) == 1
    # ...but 1 and 3 never do, so every arrangement is its own class
    assert multiset_count_cf(MultisetSpec.parse("1:13,3:13")) == math.comb(
        26, 13) == 10_400_600
    # a letter far from 1 is one variable, not a million
    assert multiset_count_cf(MultisetSpec.from_mapping({10**6: 1})) == 1


def test_cf_series_box_guard():
    # 24 distinct letters ask for a 2^24-entry box
    distinct = MultisetSpec.from_mapping({v: 1 for v in range(1, 25)})
    with pytest.raises(GuardExceeded, match="exponent box of at least"):
        multiset_count_cf(distinct)
    assert multiset_count_cf(
        MultisetSpec.from_mapping({v: 1 for v in range(1, 8)})) == F_SEQ[7]


def test_multiset_count_cf_matches_bfs():
    # every multiset over the values 1..4 (gaps included) of total <= 7
    for counts in itertools.product(range(8), repeat=4):
        if sum(counts) > 7:
            continue
        spec = MultisetSpec.from_mapping(
            {v + 1: r for v, r in enumerate(counts)})
        assert multiset_count_cf(spec) == len(
            multiset_class_partition(spec)), spec
    # gaps of any width, far from 1
    rng = random.Random(17)
    for _ in range(60):
        values = sorted(rng.sample(range(1, 40), rng.randint(1, 4)))
        offset = rng.choice((0, 10**6))
        spec = MultisetSpec.from_mapping(
            {v + offset: rng.randint(1, 2) for v in values})
        assert multiset_count_cf(spec) == len(
            multiset_class_partition(spec)), spec


def test_f4_coefficient_examples():
    assert f4_coefficient(1, 1, 1, 1) == 8
    assert f4_coefficient(0, 0, 0, 0) == 1
    assert f4_coefficient(2, 1, 0, 2) == 18
    with pytest.raises(DomainError, match="^exponents must be >= 0$"):
        f4_coefficient(-1, 0, 0, 0)


def test_f4_matches_series_small():
    full = cf_series(4, (5, 5, 5, 5))
    for exps in itertools.product(range(6), repeat=4):
        assert f4_coefficient(*exps) == full.coefficient(exps)


def test_f4_gapped_support():
    # dropping the last variable recovers the three-letter series...
    three = cf_series(3, (4, 4, 4))
    for exps in itertools.product(range(5), repeat=3):
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
    base = cf_series(4, (3, 3, 3, 3))
    powered = TruncatedSeries.constant(1, base.variables, base.caps)
    for t in range(3):
        if t:
            powered = powered * base
        for exps in itertools.product(range(4), repeat=4):
            assert f4_t_coefficient(*exps, t) == powered.coefficient(exps)


def test_falling_factorial():
    assert falling_factorial(5, 3) == 60
    assert falling_factorial(2, 0) == 1
    assert falling_factorial(0, 2) == 0


def test_c_poly_against_profile_enumeration():
    # oracle: list the edge tuples e_1..e_{m-1} >= 1 and sum
    # (-1)^nu t^r / (prod loops! * prod e_i!), r = loops + nu edges in all,
    # over those whose loop counts k - e_{i-1} - e_i are all >= 0
    for m in range(1, 7):
        for k in range(1, 6):
            want = {}
            for edges in itertools.product(range(1, k + 1), repeat=m - 1):
                padded = (0,) + edges + (0,)
                loops = [k - padded[i] - padded[i + 1] for i in range(m)]
                if min(loops) < 0:
                    continue
                nu = sum(edges)
                den = 1
                for part in loops + list(edges):
                    den *= math.factorial(part)
                r = sum(loops) + nu
                want[r] = want.get(r, 0) + Fraction((-1) ** nu, den)
            want = {r: v for r, v in want.items() if v}
            assert c_poly(m, k) == want, (m, k)


def test_c_poly_reference_values():
    assert c_poly(1, 2) == {2: Fraction(1, 2)}
    assert c_poly(2, 2) == {2: Fraction(1, 2), 3: -1}
    assert c_poly(3, 2) == {4: 1}
    assert c_poly(4, 2) == {5: -1}
    assert c_poly(1, 1) == {1: 1}
    assert c_poly(2, 1) == {1: -1}
    with pytest.raises(DomainError, match="^m and k must be >= 1$"):
        c_poly(0, 1)
    assert c_poly(3, 1) == {}
    with pytest.raises(GuardExceeded):
        c_poly(300, 1)


def test_phi_examples():
    assert phi({2: 1}) == 2
    assert phi({2: Fraction(1, 2), 3: -1}) == -5
    assert phi({0: 1}) == 1
    assert phi({}) == 0


def test_g_umbral_series():
    assert g_umbral_series(1, 8) == F_SEQ
    assert g_umbral_series(2, 4) == [1, 1, 1, 6, 216]
    assert g_umbral_series(2, 0) == [1]
    # the profile cap is the only guard: k = 1 runs up to order 200
    assert g_umbral_series(1, 200)[:9] == F_SEQ
    with pytest.raises(GuardExceeded, match=r"^m\*k = 201 exceeds limit 200$"):
        g_umbral_series(1, 201)
    with pytest.raises(DomainError, match="^k must be >= 1$"):
        g_umbral_series(0, 1)


def test_g_umbral_series_guard_builds_no_block(monkeypatch):
    # refused up front, with the message c_poly(67, 3) would give
    def no_block(m, k):
        raise AssertionError(f"c_poly({m}, {k}) called")

    monkeypatch.setattr(series, "c_poly", no_block)
    with pytest.raises(GuardExceeded, match=r"^m\*k = 201 exceeds limit 200$"):
        g_umbral_series(3, 67)


def test_g_umbral_series_completes_at_order_30():
    # every coefficient passes the nonnegative-integer consistency check
    values = g_umbral_series(3, 30)
    assert len(values) == 31 and values[:5] == g_umbral_series(3, 4)


def test_g_umbral_series_matches_bfs():
    for k in range(1, 9):
        for n in range(1, 8 // k + 1):
            spec = MultisetSpec.from_mapping({v: k for v in range(1, n + 1)})
            assert g_umbral_series(k, n)[n] == len(
                multiset_class_partition(spec)), (k, n)


def test_umbral_matches_f4_diagonal():
    # {1^2, 2^2, 3^2, 4^2} has as many classes as the closed form says
    assert g_umbral_series(2, 4)[4] == f4_coefficient(2, 2, 2, 2)


def test_expand_rational_univariate():
    def expand(numerator, denominator, order):
        ts = expand_rational(dict(((i,), v) for i, v in enumerate(numerator)),
                             dict(((i,), v) for i, v in enumerate(denominator)),
                             (order,))
        assert ts.variables == ("x",)
        return [ts.coefficient((i,)) for i in range(order + 1)]

    assert expand([1, -2], [1, -3, 1, 1], 5) == [1, 1, 2, 4, 9, 21]
    assert expand([1], [1, -1], 3) == [1, 1, 1, 1]
    assert expand([0, 1, -4, 3], [1, -6, 9, -3], 8) == [
        0, 1, 2, 6, 21, 78, 297, 1143, 4419]
    with pytest.raises(DomainError, match="zero constant term"):
        expand([1], [0, 1], 3)
    with pytest.raises(DomainError, match="^caps must be nonnegative$"):
        expand([1], [1], -1)
    # rational coefficients stay exact
    assert expand([1], [2, 1], 2) == [
        Fraction(1, 2), Fraction(-1, 4), Fraction(1, 8)]


def test_expand_rational_bivariate():
    ts = expand_rational({(0, 0): 1}, {(0, 0): 1, (1, 0): -1, (0, 1): -1},
                         (3, 3))
    import math
    for i in range(4):
        for j in range(4):
            assert ts.coefficient((i, j)) == math.comb(i + j, i)
    assert ts.variables == ("x", "y")


def test_expand_rational_names_any_number_of_caps():
    # 1/(1 - x1) under three caps: the default names follow the caps
    ts = expand_rational({(0, 0, 0): 1}, {(0, 0, 0): 1, (1, 0, 0): -1},
                         (2, 2, 2))
    assert ts.variables == ("x1", "x2", "x3")
    assert ts.terms() == [((0, 0, 0), 1), ((1, 0, 0), 1), ((2, 0, 0), 1)]
