"""Exact truncated power series, commutation generating functions, and the
umbral class-counting pipeline.

Everything here is exact: coefficients are Python ints or Fractions, never
floats. Multivariate series carry per-variable exponent caps; arithmetic
discards over-cap terms, and every surviving coefficient equals the
coefficient of the untruncated result (componentwise-bounded exponents can
only be produced by componentwise-bounded factors).

Series are inverted coefficient by coefficient, by a triangular recurrence
over the exponents in lexicographic order (see TruncatedSeries.inverse). That
one inverse serves cf_series, g_umbral_series (1/(1 - F), F a series in x and
the umbral variable t), expand_rational, and so mfenum.u_bivariate. For the
commutation series 1/(1 - sum x_i + sum x_i x_{i+1}), the Cartier-Foata
clique series of a trace monoid, the recurrence reads

    c(e) = sum_i c(e - e_i) - sum_i c(e - e_i - e_{i+1}),  c(0) = 1.

multiset_count_cf reads one coefficient of that series without the box: it
expands 1/(1 - F) as sum_m F^m and sums over the dominoes x_i x_{i+1} taken
(Cartier and Foata; Viennot's heaps of pieces). With e_i dominoes on i and
i + 1 and s_i single letters i, a term weighs

    (-1)^|e| (|a| - |e|)! / (prod e_i! prod s_i!),  s_i = a_i - e_{i-1} - e_i,

and a DP along the letter values adds them up in polynomial time. cf_series
stays its oracle.
"""
from __future__ import annotations

import itertools
import math
from fractions import Fraction
from operator import sub

from salient.errors import DomainError, GuardExceeded, InternalConsistencyError
from salient.words import MultisetSpec

CF_BOX_CAP = 10_000
DOMINO_CAP = 10_000_000
DOMINO_LETTER_CAP = 100_000
PROFILE_CAP = 200


def _norm(value):
    """Collapse integral Fractions back to int."""
    if isinstance(value, Fraction) and value.denominator == 1:
        return int(value)
    return value


def _check_box(caps) -> None:
    """Refuse an exponent box (the vectors under the caps) of more than
    CF_BOX_CAP entries, without building it."""
    size = 1
    for cap in caps:
        size *= min(cap, CF_BOX_CAP) + 1
        if size > CF_BOX_CAP:
            raise GuardExceeded(f"exponent box of at least {size} "
                                f"entries exceeds limit {CF_BOX_CAP}")


# ---------------------------------------------------------------------------
# truncated multivariate series
# ---------------------------------------------------------------------------

class TruncatedSeries:
    """Power series in named variables, truncated by per-variable caps."""

    __slots__ = ("variables", "caps", "coeffs")

    def __init__(self, variables, caps, coeffs=None):
        variables = tuple(variables)
        caps = tuple(caps)
        if len(variables) != len(caps):
            raise DomainError("one cap per variable required")
        if any(c < 0 for c in caps):
            raise DomainError("caps must be nonnegative")
        stored: dict[tuple[int, ...], object] = {}
        for exps, value in dict(coeffs or {}).items():
            exps = tuple(exps)
            if len(exps) != len(variables) or any(e < 0 for e in exps):
                raise DomainError(f"bad exponent vector {exps!r}")
            if any(e > c for e, c in zip(exps, caps)):
                continue
            value = _norm(value)
            if value:
                stored[exps] = value
        object.__setattr__(self, "variables", variables)
        object.__setattr__(self, "caps", caps)
        object.__setattr__(self, "coeffs", stored)

    def __setattr__(self, name, value):
        raise AttributeError("TruncatedSeries is immutable")

    def __delattr__(self, name):
        raise AttributeError("TruncatedSeries is immutable")

    def __reduce__(self):
        return TruncatedSeries, (self.variables, self.caps, self.coeffs)

    @classmethod
    def _trusted(cls, variables, caps, coeffs) -> "TruncatedSeries":
        """Wrap coefficients that are already normalized, nonzero and inside
        the caps, without __init__'s checks (the arguments are kept as is)."""
        out = object.__new__(cls)
        object.__setattr__(out, "variables", variables)
        object.__setattr__(out, "caps", caps)
        object.__setattr__(out, "coeffs", coeffs)
        return out

    # -- constructors

    @classmethod
    def constant(cls, value, variables, caps) -> "TruncatedSeries":
        zero = (0,) * len(tuple(variables))
        return cls(variables, caps, {zero: value})

    # -- views

    def coefficient(self, exps):
        exps = tuple(exps)
        if len(exps) != len(self.caps) or any(e < 0 for e in exps):
            raise DomainError(f"bad exponent vector {exps!r}")
        if any(e > c for e, c in zip(exps, self.caps)):
            raise DomainError(f"exponents {exps} exceed caps {self.caps}")
        return self.coeffs.get(exps, 0)

    def terms(self) -> list[tuple[tuple[int, ...], object]]:
        return sorted(self.coeffs.items())

    # -- arithmetic

    def _check(self, other: "TruncatedSeries") -> None:
        if self.variables != other.variables or self.caps != other.caps:
            raise DomainError("series have different variables or caps")

    def _lift(self, value) -> "TruncatedSeries":
        return TruncatedSeries.constant(value, self.variables, self.caps)

    def __add__(self, other):
        if not isinstance(other, TruncatedSeries):
            other = self._lift(other)
        self._check(other)
        out = dict(self.coeffs)
        for e, v in other.coeffs.items():
            out[e] = out.get(e, 0) + v
        return TruncatedSeries(self.variables, self.caps, out)

    __radd__ = __add__

    def __neg__(self):
        return TruncatedSeries(self.variables, self.caps,
                               {e: -v for e, v in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-other if isinstance(other, TruncatedSeries)
                       else self._lift(-other))

    def __rsub__(self, other):
        return self._lift(other) - self

    def __mul__(self, other):
        if not isinstance(other, TruncatedSeries):
            return self._scale(other)
        self._check(other)
        caps = self.caps
        out: dict[tuple[int, ...], object] = {}
        for e1, v1 in self.coeffs.items():
            for e2, v2 in other.coeffs.items():
                exps = tuple(a + b for a, b in zip(e1, e2))
                if any(e > c for e, c in zip(exps, caps)):
                    continue
                out[exps] = out.get(exps, 0) + v1 * v2
        return TruncatedSeries(self.variables, caps, out)

    def __rmul__(self, other):
        return self._scale(other)

    def _scale(self, value):
        return TruncatedSeries(self.variables, self.caps,
                               {e: v * value for e, v in self.coeffs.items()})

    def inverse(self) -> "TruncatedSeries":
        """Multiplicative inverse, one coefficient at a time.

        Visits the exponent box in lexicographic order, so every e - d with
        d != 0 comes before e, and solves self * inv = 1 coefficientwise:
        inv[e] = (delta(e, 0) - sum_{d != 0} self[d] * inv[e - d]) / self[0].
        The support is sorted, so the terms d whose first exponent exceeds
        e's, which cannot divide e, are never visited.
        """
        zero = (0,) * len(self.variables)
        c0 = self.coeffs.get(zero, 0)
        if not c0:
            raise DomainError("cannot invert a series with zero constant term")
        support = sorted((d, v) for d, v in self.coeffs.items() if d != zero)
        inv: dict[tuple[int, ...], object] = {}
        for e in itertools.product(*(range(c + 1) for c in self.caps)):
            acc = 1 if e == zero else 0
            for d, v in support:
                if d[0] > e[0]:
                    break
                # a key with a negative entry is never in inv
                prev = inv.get(tuple(map(sub, e, d)))
                if prev:
                    acc -= v * prev
            if c0 != 1:
                acc = _norm(Fraction(acc) / c0)
            if acc:
                inv[e] = acc
        return TruncatedSeries._trusted(self.variables, self.caps, inv)

    def __eq__(self, other):
        return (isinstance(other, TruncatedSeries)
                and self.variables == other.variables
                and self.caps == other.caps
                and self.coeffs == other.coeffs)

    __hash__ = None

    def __repr__(self):
        head = ", ".join(f"{v}<= {c}" for v, c in zip(self.variables, self.caps))
        return f"TruncatedSeries({head}; {len(self.coeffs)} terms)"


# ---------------------------------------------------------------------------
# rational expansion
# ---------------------------------------------------------------------------

def expand_rational(numerator, denominator, caps, variables=None):
    """Expand numerator/denominator as a TruncatedSeries under the caps, one
    per variable, through TruncatedSeries.inverse.

    Numerator and denominator are dicts mapping exponent vectors to
    coefficients; the denominator needs a nonzero constant term. The
    variables default to x, or x and y, or x1..xn for n >= 3 caps.
    """
    caps = tuple(caps)
    if variables is None:
        variables = (("x", "y")[:len(caps)] if len(caps) <= 2
                     else tuple(f"x{i}" for i in range(1, len(caps) + 1)))
    den = TruncatedSeries(variables, caps, dict(denominator))
    num = TruncatedSeries(variables, caps, dict(numerator))
    return num * den.inverse()


# ---------------------------------------------------------------------------
# commutation (trace monoid) generating functions
# ---------------------------------------------------------------------------

def commutation_polynomial(n: int, caps) -> TruncatedSeries:
    """1 - sum x_i + sum x_i x_{i+1} over x1..xn, truncated by the caps: the
    denominator of cf_series."""
    if n < 1:
        raise DomainError("n must be >= 1")
    caps = tuple(caps)
    if len(caps) != n:
        raise DomainError("need one cap per variable")
    variables = tuple(f"x{i}" for i in range(1, n + 1))
    terms: dict[tuple[int, ...], int] = {(0,) * n: 1}
    for i in range(n):
        e = [0] * n
        e[i] = 1
        terms[tuple(e)] = -1
    for i in range(n - 1):
        e = [0] * n
        e[i] = e[i + 1] = 1
        terms[tuple(e)] = 1
    return TruncatedSeries(variables, caps, terms)


def cf_series(n: int, caps) -> TruncatedSeries:
    """Truncated expansion of 1/(1 - sum x_i + sum x_i x_{i+1}).

    This is the generating function of the monoid on generators 1..n in which
    consecutive generators commute; the coefficient of a monomial counts the
    interchange equivalence classes of words with that content. Its one
    guard: an exponent box (the vectors under the caps, which the inverse
    visits) of more than CF_BOX_CAP entries raises GuardExceeded.
    """
    denominator = commutation_polynomial(n, caps)
    _check_box(denominator.caps)
    return denominator.inverse()


def multiset_count_cf(spec: MultisetSpec) -> int:
    """Number of interchange classes of arrangements of the multiset: the
    coefficient of prod x^a in cf_series, a the multiplicities, read off the
    domino sum (see the module docstring). The empty multiset has one (empty)
    class.

    The DP visits the values present in order, over the states (dominoes
    into the current value, dominoes before those); no domino joins two
    values across a gap. A step to the next value counts all of a state's
    dominoes as before the incoming ones, whatever it sends on, so each row
    is dense. It keeps integers: a term times prod a_i! is the product,
    over the values, of a_i! / (s_i! e_{i-1}!) (-1)^{e_i}, and the sum is
    divided by prod a_i! once at the end. Two guards raise GuardExceeded
    before any state is built: DOMINO_LETTER_CAP bounds the letters (the
    last step takes factorials of up to that many), and DOMINO_CAP the
    transitions, counted as if each row spanned every domino so far. That
    overcounts the DP's own transitions (two values of a letters each make
    2a + 2 of them, but count (a + 1)^2 + a + 1), yet follows its time,
    since the integers grow with the letters too: two values of 12,000
    letters make 24,002 transitions and take seconds.
    """
    total = spec.total
    if total == 0:
        return 1
    pairs = spec.counts
    counts = [r for _, r in pairs]
    # links[i]: the most dominoes from the i-th value present to the next
    links = [min(r, pairs[i + 1][1]) if pairs[i + 1][0] == v + 1 else 0
             for i, (v, r) in enumerate(pairs[:-1])] + [0]
    if total > DOMINO_LETTER_CAP:
        raise GuardExceeded(f"domino sum over {total} letters exceeds limit "
                            f"{DOMINO_LETTER_CAP}")
    steps = into = reach = 0
    for d in links:
        steps += (into + 1) * (reach + 1) * (d + 1)
        into, reach = d, min(reach + d, total // 2)
    if steps > DOMINO_CAP:
        raise GuardExceeded(f"domino sum of up to {steps} transitions "
                            f"exceeds limit {DOMINO_CAP}")
    # rows[e_in][p]: the sum over the dominoes so far, e_in of them into
    # the current value and p before those, of
    # prod a_j! / (s_j! e_{j-1}!) (-1)^{e_j}
    rows = [[1]]
    for r, d in zip(counts, links):
        width = min(len(rows[0]) + len(rows) - 1, total // 2 + 1)
        step = [[0] * width for _ in range(d + 1)]
        scale = 1   # comb(r, e_in)
        for e_in, row in enumerate(rows):
            rest = r - e_in
            top = min(rest, d) + 1
            for p, value in enumerate(row, e_in):
                if value:
                    # times rest! / (rest - e_out)! (-1)^{e_out}, e_out = 0..
                    term = value * scale
                    for e_out in range(top):
                        step[e_out][p] += term
                        term *= e_out - rest
            scale = scale * rest // (e_in + 1)
        rows = step
    # the last value starts no domino, so rows holds one row; the sum of
    # its entries times (total - e)! goes by Horner's rule, one factorial
    weighted = 0
    for e, value in enumerate(rows[0]):
        weighted = weighted * (total - e + 1) + value
    weighted *= math.factorial(total - len(rows[0]) + 1)
    count, rem = divmod(weighted, math.prod(map(math.factorial, counts)))
    if rem:
        raise InternalConsistencyError(
            f"domino sum of {spec.format()} is not an integer")
    return count


# ---------------------------------------------------------------------------
# closed forms for four letters
# ---------------------------------------------------------------------------

def falling_factorial(y, r: int):
    """(y)_r = y (y-1) ... (y-r+1), with the empty product equal to 1."""
    if r < 0:
        raise DomainError("r must be >= 0")
    out = 1
    for t in range(r):
        out *= y - t
    return out


def f4_coefficient(h: int, i: int, j: int, k: int) -> int:
    """Coefficient of x1^h x2^i x3^j x4^k in cf_series(4).

    Closed form: C(h+j, j) * C(h+k, k) * C(i+k, i). Note this is specific to
    the four-letter commutation pattern; dropping x4 (k = 0) recovers the
    three-letter series, but dropping x3 (j = 0) does not, because letters 2
    and 4 do not commute. See multiset_count_cf for gapped supports.
    """
    if min(h, i, j, k) < 0:
        raise DomainError("exponents must be >= 0")
    return math.comb(h + j, j) * math.comb(h + k, k) * math.comb(i + k, i)


def f4_t_coefficient(h: int, i: int, j: int, k: int, t: int):
    """Coefficient of x1^h x2^i x3^j x4^k in cf_series(4) raised to the t-th power.

    Falling-factorial closed form, exact rational arithmetic; for integer
    t >= 0 the value is a nonnegative integer.
    """
    if min(h, i, j, k) < 0:
        raise DomainError("exponents must be >= 0")
    num = (falling_factorial(t + h + j - 1, j)
           * falling_factorial(t + h + k - 1, h)
           * falling_factorial(t + i + k - 1, i + k))
    den = (math.factorial(h) * math.factorial(i)
           * math.factorial(j) * math.factorial(k))
    return _norm(Fraction(num, den))


# ---------------------------------------------------------------------------
# the umbral pipeline
# ---------------------------------------------------------------------------

def phi(p: dict[int, object]):
    """The linear functional t^m -> m! on a {t-exponent: coefficient} dict."""
    return _norm(sum(Fraction(v) * math.factorial(m) for m, v in p.items()))


def _profile_guard(m: int, k: int) -> None:
    if m * k > PROFILE_CAP:
        raise GuardExceeded(f"m*k = {m * k} exceeds limit {PROFILE_CAP}")


def c_poly(m: int, k: int) -> dict[int, object]:
    """Sum of profile weights: the x^m coefficient of the connected-block
    generating function F(x, t) for degree k, as {t-exponent: coefficient}
    with no zero entries. Empty when no profile exists.

    A level profile is a connected degree-k graph on vertices 1..m whose
    edges are loops or join consecutive vertices: e_i >= 1 parallel edges
    join vertices i and i+1, and vertex i carries k - e_{i-1} - e_i >= 0
    loops. Its weight is (-1)^nu t^r / (prod loops! * prod e_i!), where nu
    = sum e_i and r = mk - nu counts every edge.
    """
    if m < 1 or k < 1:
        raise DomainError("m and k must be >= 1")
    _profile_guard(m, k)
    # one vertex at a time over the states (edges into the next vertex, nu);
    # loops + e_i <= k at each vertex, so k!/(loops! e_i!) is an integer and
    # the states carry k!^vertices times their weight sums
    fact = [math.factorial(i) for i in range(k + 1)]
    states = {(0, 0): 1}
    for vertex in range(m):
        last = vertex == m - 1
        step: dict[tuple[int, int], int] = {}
        for (e_in, nu), value in states.items():
            for e_out in (0,) if last else range(1, k - e_in + 1):
                w = value * (fact[k] // (fact[k - e_in - e_out] * fact[e_out]))
                step[e_out, nu + e_out] = step.get((e_out, nu + e_out), 0) + w
        states = step
    return {m * k - nu: _norm(Fraction((-1) ** nu * value, fact[k] ** m))
            for (_, nu), value in states.items()}


def g_umbral_series(k: int, order: int) -> list[int]:
    """Class counts for the multisets {1^k, ..., n^k}, n = 0..order.

    Builds F(x, t) = sum_m c_poly(m, k) x^m, inverts 1 - F with
    TruncatedSeries.inverse and applies phi (t^m -> m!) to each x-row. Each
    result must be a nonnegative integer; anything else means the pipeline
    is internally inconsistent and raises. Its one guard is c_poly's: k *
    order above PROFILE_CAP raises GuardExceeded before any block is built.
    """
    if k < 1:
        raise DomainError("k must be >= 1")
    if order < 0:
        raise DomainError("order must be >= 0")
    # refuse up front, as c_poly would at the first block over the cap
    _profile_guard(min(order, PROFILE_CAP // k + 1), k)
    # x^m has t-exponents <= mk; F(k! x, t) has integer coefficients (see
    # c_poly), so the inverse runs on ints, its x^i row scaled by k!^i
    scale = math.factorial(k)
    F = TruncatedSeries(("x", "t"), (order, k * order),
                        {(m, j): v * scale ** m for m in range(1, order + 1)
                         for j, v in c_poly(m, k).items()})
    rows: list[dict[int, object]] = [{} for _ in range(order + 1)]
    for (i, j), v in (1 - F).inverse().coeffs.items():
        rows[i][j] = Fraction(v, scale ** i)
    values = [phi(row) for row in rows]
    for i, v in enumerate(values):
        if not isinstance(v, int) or v < 0:
            raise InternalConsistencyError(
                f"umbral coefficient of x^{i} is {v}, not a nonnegative integer")
    return values
