import copy
import itertools
import math
import pickle
import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from salient import series
from salient.classes import f_inclusion_exclusion, multiset_class_partition
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
        with pytest.raises(AttributeError,
                           match="^TruncatedSeries is immutable$"):
            s.coeffs = {}
        with pytest.raises(AttributeError,
                           match="^TruncatedSeries is immutable$"):
            del s.coeffs


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
    # 24 distinct letters ask the series for a 2^24-entry box...
    with pytest.raises(GuardExceeded, match="exponent box of at least"):
        cf_series(24, (1,) * 24)
    # ...while the domino sum counts them directly
    distinct = MultisetSpec.from_mapping({v: 1 for v in range(1, 25)})
    assert multiset_count_cf(distinct) == f_inclusion_exclusion(24)
    assert multiset_count_cf(
        MultisetSpec.from_mapping({v: 1 for v in range(1, 8)})) == F_SEQ[7]


def caps_vector(spec):
    """The exponent vector of spec in cf_series: its multiplicities in
    order of value, with one zero for each gap however wide."""
    out = []
    for i, (v, r) in enumerate(spec.counts):
        if i and v > spec.counts[i - 1][0] + 1:
            out.append(0)
        out.append(r)
    return tuple(out)


def test_domino_sum_matches_the_series_coefficient():
    # every content with counts 1..5 on at most four values, each pair of
    # neighbours adjacent or across a gap; a gap of any width is one
    # zero-cap variable, so one series per gap pattern holds every count
    checked = 0
    for k in range(1, 5):
        for gaps in itertools.product((False, True), repeat=k - 1):
            caps = [5]
            for gap in gaps:
                caps += [0, 5] if gap else [5]
            full = cf_series(len(caps), caps)
            for counts in itertools.product(range(1, 6), repeat=k):
                mapping, value = {1: counts[0]}, 1
                for i, (gap, r) in enumerate(zip(gaps, counts[1:])):
                    value += 3 + 10 ** i if gap else 1
                    mapping[value] = r
                spec = MultisetSpec.from_mapping(mapping)
                assert multiset_count_cf(spec) == full.coefficient(
                    caps_vector(spec)), spec
                checked += 1
    assert checked == 5 + 2 * 25 + 4 * 125 + 8 * 625


def test_domino_sum_matches_the_closed_counts():
    for n in range(41):
        distinct = MultisetSpec.from_mapping({v: 1 for v in range(1, n + 1)})
        assert multiset_count_cf(distinct) == f_inclusion_exclusion(n), n
    for k in range(1, 4):
        umbral = g_umbral_series(k, 6)
        for n in range(7):
            uniform = MultisetSpec.from_mapping(
                {v: k for v in range(1, n + 1)})
            assert multiset_count_cf(uniform) == umbral[n], (k, n)


# the classes of {1^20, ..., 30^20}, far past the series box (21^30
# entries); g_umbral_series(20, 30) gives the same with PROFILE_CAP raised
# to 600
UNIFORM_30_20 = int(
    "4803076908653833562472042794041075082542881640049107656300936838"
    "0226816907583917642377593509558609145036395786582596247338911767"
    "1489751178395615583029750504310748436271659767127657411979389130"
    "4577691096678625976165007943758488190412551834414421986495435524"
    "0648283568922278598062923384925740318996432568919507886877542660"
    "3405889970132691202127576802249932406093769568427842868551004360"
    "9896465927897952096911809570213781246757157291674162296192083040"
    "7177949727944508023387523611036914238925218897813640244127477059"
    "4986066613007009585371888373282939192001142046239520153204899424"
    "6750361213051956134145753707897320072654058912321600966874108774"
    "8500458215090893764181685211927020954287860246582110847151233650"
    "8537647351701364921535780283812002466875720798262110851002143571"
    "9853969691032657313237629078959724855791953273237332894041143255"
    "0400000000000000")


def test_domino_sum_counts_past_the_box():
    uniform = MultisetSpec.from_mapping({v: 20 for v in range(1, 31)})
    assert multiset_count_cf(uniform) == UNIFORM_30_20
    assert len(str(UNIFORM_30_20)) == 848


def test_domino_sum_rows_span_the_dominoes_before_the_incoming():
    # two linked values of 3160 letters: a row per domino count into the
    # second value, each over the dominoes before those, keeps 2 x 3161
    # entries; rows over every domino count so far kept 3161 x 3161 and
    # peaked at 91 MB
    spec = MultisetSpec.parse("1:3160,2:3160")
    tracemalloc.start()
    try:
        assert multiset_count_cf(spec) == 1
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 30 * 2 ** 20


def test_domino_sum_guard():
    # the letters: every content the series box takes has fewer letters
    # than the box has entries, prod (a_i + 1) >= 1 + sum a_i, so the
    # domino sum counts all of them
    assert series.DOMINO_LETTER_CAP == 100_000
    assert series.DOMINO_LETTER_CAP >= series.CF_BOX_CAP
    assert multiset_count_cf(MultisetSpec.parse("1:9999")) == 1
    assert multiset_count_cf(MultisetSpec.parse("1:4000,2:1")) == 1
    with pytest.raises(GuardExceeded,
                       match="^domino sum over 100001 letters exceeds limit "
                             "100000$"):
        multiset_count_cf(MultisetSpec.parse("1:100001"))
    # the transitions: 55 values of 20 fit, 56 do not
    assert series.DOMINO_CAP == 10_000_000
    with pytest.raises(GuardExceeded,
                       match="^domino sum of up to 10037496 transitions "
                             "exceeds limit 10000000$"):
        multiset_count_cf(MultisetSpec.from_mapping(
            {v: 20 for v in range(1, 57)}))


def test_domino_sum_guard_boundary(monkeypatch):
    # {1, 2}: the bound counts 2 transitions out of the start state and
    # one out of each of the 2 * 2 states it allows at value 2; it has 2
    # letters
    pair = MultisetSpec.parse("1:1,2:1")
    monkeypatch.setattr(series, "DOMINO_CAP", 6)
    monkeypatch.setattr(series, "DOMINO_LETTER_CAP", 2)
    assert multiset_count_cf(pair) == 1
    monkeypatch.setattr(series, "DOMINO_CAP", 5)
    with pytest.raises(GuardExceeded, match="up to 6 transitions"):
        multiset_count_cf(pair)
    monkeypatch.setattr(series, "DOMINO_LETTER_CAP", 1)
    with pytest.raises(GuardExceeded, match="over 2 letters exceeds limit 1"):
        multiset_count_cf(pair)


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
