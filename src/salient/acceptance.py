"""The acceptance suites: one callable per verification block.

Each suite raises InternalConsistencyError on the first failed check and
returns a one-line summary on success. The checks are explicit raises, not
assert statements, so they still run under python -O. The CLI subcommand
``verify`` and the pytest module tests/test_acceptance.py both run exactly
these functions, so CI and an interactive reader exercise the same checks.
"""
from __future__ import annotations

import itertools
import math
import random
import time
from fractions import Fraction

from salient import _kernels, classes, mfenum, posets, series, words
from salient.errors import InternalConsistencyError, SalientError

F_SEQUENCE = [1, 1, 1, 2, 8, 42, 258, 1824, 14664]
SINGLETON_SEQUENCE = [1, 1, 0, 0, 2, 14, 90, 646, 5242]
MF_BY_RANK = [1, 2, 6, 21, 78, 297, 1143, 4419]
MF_BY_ELEMENTS = [1, 1, 2, 3, 7, 12, 28, 51, 117]
DISTLAT_COUNTS = [1, 2, 4, 9, 21, 50, 120, 289]


def _check(condition, detail="") -> None:
    """Raise InternalConsistencyError, with str(detail) as its message,
    unless condition holds."""
    if not condition:
        raise InternalConsistencyError(str(detail))


def check_count_triple() -> str:
    """f(n) agrees across brute force, inclusion-exclusion, and the series."""
    t0 = time.perf_counter()
    coeffs = classes.f_series(8)
    for n in range(9):
        brute = classes.count_classes_brute(n)
        formula = classes.f_inclusion_exclusion(n)
        _check(brute == formula == coeffs[n] == F_SEQUENCE[n],
               f"n={n}: brute={brute} formula={formula} series={coeffs[n]}")
    elapsed = time.perf_counter() - t0
    _check(elapsed < 60, f"took {elapsed:.1f}s, budget 60s")
    return f"n=0..8 triple agreement in {elapsed:.1f}s"


def check_salient_canonical() -> str:
    """Each orbit for n <= 7 holds exactly one salient word, its minimum."""
    t0 = time.perf_counter()
    orbits = 0
    for n in range(8):
        for cls in classes.class_partition(n):
            salient = [w for w in cls.members if words._is_salient(w)]
            _check(len(salient) == 1, f"{cls.representative}: {salient}")
            _check(salient[0] == cls.members[0] == cls.representative)
            orbits += 1
    elapsed = time.perf_counter() - t0
    _check(elapsed < 120, f"took {elapsed:.1f}s, budget 120s")
    return f"{orbits} orbits checked in {elapsed:.1f}s"


def check_fibonacci_sizes() -> str:
    """The paper's product of F(l+1) over segments of length l matches the
    breadth-first sizes, the partition's sizes and the heap's count."""
    for n in range(8):
        for cls in classes.class_partition(n):
            members = cls.members   # listed breadth-first
            _check(len(members) == cls.size, cls.representative)
            for w in members:
                product = math.prod(words.fibonacci(len(s) + 1) for s in
                                    classes.segment_decomposition(w))
                _check(product == cls.size == classes.class_size(w), w)
    for n in range(13):
        _check(classes.class_size(words.identity(n))
               == words.fibonacci(n + 1))
    for n in range(11):
        _check(classes.class_of(words.identity(n)).size
               == words.fibonacci(n + 1))
    return "product sizes = BFS sizes for n <= 7; identity sizes to n = 12"


def check_singletons() -> str:
    """One-element class counts match the alternating series."""
    ss = classes.singleton_series(8)
    for n in range(9):
        brute = classes.count_singletons(n)
        _check(brute == ss[n] == SINGLETON_SEQUENCE[n],
               f"n={n}: brute={brute} series={ss[n]}")
    return "counts 1,1,0,0,2,14,90,646,5242 confirmed twice"


def check_geq_relation() -> str:
    """Closed form for the differ-by-at-least-j relation matches brute force."""
    for n in range(8):
        for j in (2, 3, 4, 5):
            formula = classes.f_j_count(n, j)
            brute = len(classes.class_partition(n, f"geq:{j}"))
            _check(formula == brute, f"n={n} j={j}: {formula} != {brute}")
    orbits = {cls.members for cls in classes.class_partition(3, "geq:2")}
    expected = {((1, 2, 3),), ((3, 2, 1),), ((1, 3, 2), (3, 1, 2)),
                ((2, 1, 3), (2, 3, 1))}
    _check(orbits == expected, orbits)
    return "formula = brute for n <= 7, j in 2..5; S3 orbits materialized"


def check_multiset_cf() -> str:
    """Domino-sum counts, series coefficients and orbit counts agree on every
    small multiset."""
    specs = 0
    for counts in itertools.product(range(9), repeat=5):
        if sum(counts) > 8:
            continue
        spec = words.MultisetSpec.from_mapping(
            {v + 1: r for v, r in enumerate(counts)})
        count = series.multiset_count_cf(spec)
        coefficient = series.cf_series(5, counts).coefficient(counts)
        partition = classes.multiset_class_partition(spec)
        _check(count == coefficient == len(partition),
               (spec, count, coefficient, len(partition)))
        specs += 1
    spec = words.MultisetSpec.parse("1:2,2:1,3:2")
    partition = classes.multiset_class_partition(spec)
    _check(len(partition) == 6 and all(c.size == 5 for c in partition))
    return (f"{specs} multisets: domino sum = series coefficient = orbit "
            "count; {1^2,2,3^2} gives 6 classes of 5")


def check_f4_closed_form() -> str:
    """Binomial and falling-factorial closed forms match the raw series."""
    full = series.cf_series(4, (8, 8, 8, 8))
    checked = 0
    for exps in itertools.product(range(9), repeat=4):
        if sum(exps) > 8:
            continue
        _check(series.f4_coefficient(*exps) == full.coefficient(exps), exps)
        checked += 1
    # the t-th power of cf_series(4) is the inverse of D^t, D its
    # denominator
    denominator = series.commutation_polynomial(4, (6, 6, 6, 6))
    power = series.TruncatedSeries.constant(1, denominator.variables,
                                            denominator.caps)
    for t in range(4):
        if t:
            power = power * denominator
        powered = power.inverse()
        for exps in itertools.product(range(7), repeat=4):
            if sum(exps) > 6:
                continue
            want = powered.coefficient(exps)
            got = series.f4_t_coefficient(*exps, t)
            _check(got == want, (t, exps, got, want))
    return f"{checked} coefficients, plus t = 0..3 powers, all match"


def check_umbral() -> str:
    """The deumbralized series reproduces both known count families."""
    t0 = time.perf_counter()
    _check(series.g_umbral_series(1, 8) == F_SEQUENCE)
    expected_c = [{2: Fraction(1, 2)}, {2: Fraction(1, 2), 3: -1},
                  {4: 1}, {5: -1}]
    _check([series.c_poly(m, 2) for m in range(1, 5)] == expected_c)
    got = series.g_umbral_series(2, 4)
    brute = []
    for n in range(5):
        spec = words.MultisetSpec.from_mapping({v: 2 for v in range(1, n + 1)})
        brute.append(len(classes.multiset_class_partition(spec)))
    _check(got == brute, f"umbral {got} != brute {brute}")
    _check(brute[2] == 1 and brute[3] == 6)
    elapsed = time.perf_counter() - t0
    _check(elapsed < 120, f"took {elapsed:.1f}s, budget 120s")
    return f"k=1 reproduces f(n); k=2 matches brute {brute} in {elapsed:.1f}s"


def check_flag_core() -> str:
    """Moebius inversion and the descent-set identity, exhaustively."""
    posets_checked = 0
    for n in range(8):
        for q in posets.all_natural_posets(n):
            alpha, beta = q.jq_flag_vectors()
            _check(beta == _kernels.descent_vector(q.n, q.down), q)
            _check(_kernels.zeta_vector(beta, max(n - 1, 0)) == alpha, q)
            posets_checked += 1
    for n in range(9):
        q = posets.q_from_commuting_word(n)
        alpha, beta = q.jq_flag_vectors()
        _check(beta == q.descent_vector())
        _check(_kernels.zeta_vector(beta, max(n - 1, 0)) == alpha)
    return f"{posets_checked} natural posets plus commutation posets to n = 8"


def check_distributive_classification() -> str:
    """Multiplicity-free, two ideals per size, and the forbidden-suborder
    description coincide; counts match the rational series."""
    counts = []
    for n in range(1, 8):
        qualifying = 0
        for q in posets.all_posets_up_to_iso(n):
            _, beta = q.jq_flag_vectors()
            mf = all(-1 <= b <= 1 for b in beta)
            two_ideals = all(c <= 2 for c in q.ideal_size_profile())
            forbidden = q.is_two_plus_two_free() and q.is_width_le_two()
            _check(mf == two_ideals == forbidden, q)
            qualifying += mf
        counts.append(qualifying)
    _check(counts[:5] == [1, 2, 4, 9, 21], counts)
    _check(counts == DISTLAT_COUNTS[:7], counts)
    expansion = mfenum.distributive_count_series(7)
    _check(expansion == [1, 1] + DISTLAT_COUNTS[1:7], expansion)
    structural = [mfenum.count_distributive_mf(n) for n in range(1, 8)]
    _check(structural == counts, structural)
    return f"triple equivalence on 2450 posets; counts {counts}"


def check_two_per_rank() -> str:
    """Multiplicity-free equals at-most-two-per-rank for graded posets."""
    swept = 0
    for poset in posets.all_bounded_graded_posets(4, 9):
        _check(poset.is_multiplicity_free()
               == poset.has_at_most_two_per_rank(), poset)
        swept += 1
    return f"{swept} bounded graded posets, rank <= 4, size <= 9"


def check_mf_enumeration() -> str:
    """Generated family counts match both printed expansions and the
    bivariate series with the (1 - 3xy^2) numerator; the y^3 variant fails."""
    by_rank = mfenum.mf_counts_by_rank(8)
    _check(by_rank == MF_BY_RANK, by_rank)
    by_elements = mfenum.mf_counts_by_elements(10)
    _check(by_elements == MF_BY_ELEMENTS, by_elements)
    table = mfenum.mf_rank_element_table(8)
    good = mfenum.u_bivariate(8, 18)
    for n in range(1, 9):
        for k in range(2, 19):
            _check(good.coefficient((n, k)) == table.get((n, k), 0),
                   (n, k))
    # the y^3 variant swaps the numerator factor (1 - 3xy^2) for (1 - 3xy^3)
    def poly(coeffs):
        return series.TruncatedSeries(good.variables, good.caps, coeffs)

    bad = (good * poly({(0, 0): 1, (1, 3): -3})
           * poly({(0, 0): 1, (1, 2): -3}).inverse())
    mismatches = [(n, k) for n in range(1, 9) for k in range(2, 19)
                  if bad.coefficient((n, k)) != table.get((n, k), 0)]
    _check(mismatches, "the wrong numerator unexpectedly matched")
    return (f"counts by rank {by_rank[:4]}..., by elements ok; "
            f"y^3 variant fails at {mismatches[0]}")


def check_extremal_extensions() -> str:
    """The alternating-word poset maximizes linear extensions, uniquely."""
    for n in range(1, 9):
        family = mfenum.distributive_mf_family(n)
        best = words.fibonacci(n + 1)
        winners = [q for q in family if q.extension_count() == best]
        _check(max(q.extension_count() for q in family) == best, n)
        _check(len(winners) == 1, (n, len(winners)))
        qn = posets.q_from_commuting_word(n)
        gamma = "".join("01"[i % 2] for i in range(n - 1))
        _check(posets.are_isomorphic(winners[0], qn))
        _check(posets.are_isomorphic(posets.q_from_gamma(gamma), qn))
    for n in range(11):
        qn = posets.q_from_commuting_word(n)
        members = classes.class_of(words.identity(n)).members
        _check(set(qn.linear_extensions()) == set(members), n)
        descents = sorted(tuple(sorted(words.descent_set(w))) for w in members)
        sparse = sorted(tuple(sorted(s)) for s in words.sparse_subsets(n))
        _check(descents == sparse, n)
    return "max e(Q) = F(n+1) uniquely at the alternating poset, n <= 8"


def _stretch_image(s: frozenset[int], i: int) -> tuple[int, frozenset[int]]:
    if i in s and i + 1 in s:
        image = {j for j in s if j <= i} | {j - 1 for j in s if j > i + 1}
        return -1, frozenset(image)
    return 1, frozenset(j if j <= i else j - 1 for j in s)


def check_stretch_proliferation() -> str:
    """Sign rule for stretching and factorization for proliferation."""
    rng = random.Random(20120815)
    checks = 0
    for _ in range(50):
        base = posets.random_graded_poset(rng)
        n = base.rank
        for i in range(1, n):
            stretched = base.stretch(i)
            prolif = base.proliferate(i)
            lower = base.lower_section(i)
            upper = base.upper_section(i)
            for mask in range(1 << n):
                s = frozenset(b + 1 for b in range(n) if mask >> b & 1)
                sign, image = _stretch_image(s, i)
                _check(stretched.beta(s) == sign * base.beta(image), (s, i))
                want = (lower.beta({j for j in s if j <= i})
                        * upper.beta({j - i for j in s if j > i}))
                _check(prolif.beta(s) == want, (s, i))
                checks += 1
    return f"{checks} rank-set identities on 50 random posets"


CRITERIA: list[tuple[int, str, object]] = [
    (1, "count-triple", check_count_triple),
    (2, "salient-canonical", check_salient_canonical),
    (3, "fibonacci-sizes", check_fibonacci_sizes),
    (4, "singletons", check_singletons),
    (5, "geq-relation", check_geq_relation),
    (6, "multiset-cf", check_multiset_cf),
    (7, "f4-closed-form", check_f4_closed_form),
    (8, "umbral", check_umbral),
    (9, "flag-core", check_flag_core),
    (10, "distributive-classification", check_distributive_classification),
    (11, "two-per-rank", check_two_per_rank),
    (12, "mf-enumeration", check_mf_enumeration),
    (13, "extremal-extensions", check_extremal_extensions),
    (14, "stretch-proliferation", check_stretch_proliferation),
]

SUITES = {name: func for _, name, func in CRITERIA}


def run_suite(name: str) -> tuple[bool, str, float]:
    """Run one suite; any SalientError it raises is reported as a failure
    of that suite, with the error text as the message."""
    func = SUITES[name]
    start = time.perf_counter()
    try:
        message = func()
        return True, message, time.perf_counter() - start
    except SalientError as exc:
        return False, str(exc), time.perf_counter() - start
