"""The four benchmark workloads: inputs drawn from a seed, and the checks.

Constructing a workload is its set-up: it draws the inputs from the seed
(iso-classify draws its relabellings as the pass goes). A workload's pass is
a list of tasks. Each task is a generator function that calls salient,
checks each result against an independent oracle, and yields one bool per
verified item; its return value is a check on the task as a whole (a count
against a stored table), and when it is False every item of the task counts
as failed. Checks are explicit comparisons, never ``assert``, so
``python -O`` cannot switch them off.

The seed changes the inputs but not the cost profile of a pass: it chooses
which posets, labellings, orders and assignments of counts to letters, while
the sizes that set the cost are fixed. Every run therefore times nearly the
same mix of work, which keeps items per second comparable across seeds.
"""
from __future__ import annotations

import itertools
import math
import random

from salient import _kernels, classes, mfenum, posets, series, words

from perfbench import oracles


class Workload:
    name = ""
    item = ""       # what one item is, for the printed report
    scales = {}     # scale name -> sizes

    def __init__(self, seed: int, scale: str = "full"):
        self.rng = random.Random(seed)
        self.sizes = self.scales[scale]

    def tasks(self) -> list:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# flag-sweep: many tiny kernel calls
# ---------------------------------------------------------------------------

def natural_down_tuples(n: int) -> list[tuple[int, ...]]:
    """Down-set masks of every natural partial order of [n] (A006455): each
    order on [n-1], extended by every one of its order ideals as the down-set
    of element n."""
    out: list[tuple[int, ...]] = [()]
    for i in range(n):
        grown = []
        for downs in out:
            ideals = [0]
            for j in range(i):
                bit = 1 << j
                ideals += [m | bit for m in ideals if not downs[j] & ~m]
            grown += [downs + (d,) for d in ideals]
        out = grown
    return out


class FlagSweep(Workload):
    name = "flag-sweep"
    item = ("one natural poset on [7], drawn uniformly with the seed from "
            "all 96,428: flag vectors, descent vector and zeta transform, "
            "checked by beta = descent vector, zeta(beta) = alpha and "
            "alpha[full] = extension count")
    scales = {"full": (7, 8000), "tiny": (5, 40)}

    def __init__(self, seed: int, scale: str = "full"):
        super().__init__(seed, scale)
        n, count = self.sizes
        sample = self.rng.sample(natural_down_tuples(n), count)
        self.posets = [posets.NaturalPoset(n, down) for down in sample]

    def tasks(self) -> list:
        return [_flag_task(q) for q in self.posets]


def _flag_task(q):
    def task():
        alpha, beta = q.jq_flag_vectors()
        descents = q.descent_vector()
        zeta = _kernels.zeta_vector(beta, max(q.n - 1, 0))
        yield (beta == descents and zeta == alpha
               and alpha[-1] == q.extension_count())
        return True
    return task


# ---------------------------------------------------------------------------
# iso-classify: canonical forms and structural generation
# ---------------------------------------------------------------------------

def relabelled_below(below, perm) -> list[int]:
    out = [0] * len(below)
    for i, mask in enumerate(below):
        new = 0
        for j in range(len(below)):
            if mask >> j & 1:
                new |= 1 << perm[j]
        out[perm[i]] = new
    return out


class IsoClassify(Workload):
    name = "iso-classify"
    item = ("one emitted isomorphism class (all posets up to iso for n <= 7, "
            "mf posets by rank <= 8 and by elements <= 10); its canonical key "
            "must survive a seeded relabelling (every n <= 7 class, a seeded "
            "quarter of the mf posets); counts checked against A000112, the "
            "paper's mf tables and u_bivariate")
    scales = {"full": (7, 8, 10), "tiny": (5, 5, 7)}

    def tasks(self) -> list:
        max_n, max_rank, max_elements = self.sizes
        by_rank = _MfRun("rank", max_rank)
        half = sum(oracles.MF_BY_RANK[:max_rank]) // 2
        # The mf posets set the latency percentiles. Generating them on both
        # sides of the long n = max_n sweep samples the machine's speed at
        # two moments instead of one.
        return ([self._iso_task(n) for n in range(1, max_n)]
                + [self._mf_task(by_rank, half), self._iso_task(max_n),
                   self._mf_task(by_rank, None),
                   self._mf_task(_MfRun("elements", max_elements), None)])

    def _iso_task(self, n: int):
        def task():
            reps = posets.all_posets_up_to_iso(n)
            for q in reps:
                perm = self.rng.sample(range(n), n)
                key = posets.canonical_relation_key(
                    n, relabelled_below(q.down, perm))
                yield key == q.canonical_key()
            return len(reps) == oracles.A000112[n]
        return task

    def _mf_task(self, run: "_MfRun", limit: int | None):
        """Up to `limit` more posets of the run (all remaining when None,
        and then the count checks)."""
        def task():
            for poset in itertools.islice(run.posets, limit):
                run.tally(poset)
                # a seeded quarter: a relabelled key costs two canonical
                # forms, which would triple the generation time
                yield (self.rng.random() >= 0.25
                       or self._relabel_keeps_key(poset))
            return limit is not None or run.counts_ok()
        return task

    def _relabel_keeps_key(self, poset) -> bool:
        perm = self.rng.sample(range(poset.size), poset.size)
        ranks = [0] * poset.size
        for e, r in enumerate(poset.ranks):
            ranks[perm[e]] = r
        covers = [(perm[lo], perm[hi]) for lo, hi in poset.covers]
        return (posets.GradedPoset(ranks, covers).canonical_key()
                == poset.canonical_key())


class _MfRun:
    """One generate_mf_posets enumeration, consumed by one or more tasks."""

    def __init__(self, by: str, bound: int):
        self.by, self.bound = by, bound
        self.posets = mfenum.generate_mf_posets(by, bound)
        self.by_level = [0] * (bound + 1)
        self.table: dict[tuple[int, int], int] = {}

    def tally(self, poset) -> None:
        self.by_level[poset.rank if self.by == "rank" else poset.size] += 1
        key = (poset.rank, poset.size)
        self.table[key] = self.table.get(key, 0) + 1

    def counts_ok(self) -> bool:
        bound = self.bound
        if self.by == "elements":
            return self.by_level[2:] == oracles.MF_BY_ELEMENTS[:bound - 1]
        if self.by_level[1:] != oracles.MF_BY_RANK[:bound]:
            return False
        size_cap = 2 * bound + 2
        u = mfenum.u_bivariate(bound, size_cap)
        return all(u.coefficient((r, k)) == self.table.get((r, k), 0)
                   for r in range(1, bound + 1)
                   for k in range(2, size_cap + 1))


# ---------------------------------------------------------------------------
# multiset-classes: orbit BFS against the series
# ---------------------------------------------------------------------------

def count_partitions(total: int, parts: int, largest: int | None = None):
    """Partitions of total into exactly parts positive parts, descending."""
    largest = total if largest is None else largest
    if parts == 0:
        if total == 0:
            yield ()
        return
    for first in range(min(total, largest), 0, -1):
        for rest in count_partitions(total - first, parts - 1, first):
            yield (first,) + rest


def multinomial(counts) -> int:
    out = math.factorial(sum(counts))
    for c in counts:
        out //= math.factorial(c)
    return out


class MultisetClasses(Workload):
    name = "multiset-classes"
    item = ("one multiset on 3-6 consecutive letter values, total <= 10 "
            "(<= 9 with more than four values): BFS class partition against "
            "the cf series count, class sizes against the multinomial, and "
            "Fibonacci class sizes against BFS for permutations")
    # (fewest values, most values, largest total, largest total beyond
    # four values): the pass then runs ~3 s, so a run holds several passes.
    scales = {"full": (3, 6, 10, 9), "tiny": (3, 4, 5, 5)}

    def __init__(self, seed: int, scale: str = "full"):
        super().__init__(seed, scale)
        low, high, total_cap, wide_cap = self.sizes
        specs = []
        for k in range(low, high + 1):
            cap = total_cap if k <= 4 else wide_cap
            for total in range(k, cap + 1):
                for counts in count_partitions(total, k):
                    counts = list(counts)
                    self.rng.shuffle(counts)
                    specs.append(words.MultisetSpec(
                        tuple((v + 1, c) for v, c in enumerate(counts))))
        self.rng.shuffle(specs)
        self.specs = specs

    def tasks(self) -> list:
        return [_multiset_task(spec) for spec in self.specs]


def _multiset_task(spec):
    def task():
        partition = classes.multiset_class_partition(spec)
        counts = [c for _, c in spec.counts]
        ok = (series.multiset_count_cf(spec) == len(partition)
              and sum(cls.size for cls in partition) == multinomial(counts))
        if all(c == 1 for c in counts):
            ok = ok and all(classes.class_size(w) == cls.size
                            for cls in partition for w in cls.members)
        yield ok
        return True
    return task


# ---------------------------------------------------------------------------
# large-inputs: few large calls into the same layers
# ---------------------------------------------------------------------------

def is_sparse_mask(mask: int) -> bool:
    return not mask & (mask >> 1)


class LargeInputs(Workload):
    name = "large-inputs"
    item = ("one large input: a cf point coefficient (caps totalling 12-20) "
            "against f4_coefficient or g_umbral_series, a gamma word of rank "
            "13-18 (kernel beta = GradedPoset beta, entries in {-1,0,1}), or "
            "q_from_commuting_word(n), n <= 17 (descent support = sparse "
            "subsets, extension count = F(n+1))")
    # sorted 4-letter caps, uniform (k, n) multisets {1^k..n^k}, gamma ranks,
    # largest commutation poset
    scales = {
        "full": ([(3, 3, 3, 3), (4, 3, 3, 2), (4, 4, 3, 3), (4, 4, 4, 2),
                  (4, 4, 4, 4), (5, 4, 4, 3), (5, 5, 4, 4), (5, 5, 5, 5)],
                 [(2, 6), (3, 4), (3, 5), (4, 3), (4, 4), (5, 3), (6, 3)],
                 [13] * 4 + [14] * 4 + [15] * 3 + [16] * 2 + [17, 18],
                 17),
        "tiny": ([(2, 2, 1, 1)], [(2, 3)], [5, 6], 6),
    }

    def __init__(self, seed: int, scale: str = "full"):
        super().__init__(seed, scale)
        f4_caps, uniform, ranks, max_n = self.sizes
        items = []
        for caps in f4_caps:
            caps = list(caps)
            self.rng.shuffle(caps)
            items.append(("f4", tuple(caps)))
        items += [("uniform", kn) for kn in uniform]
        for rank in ranks:
            tail = "".join(self.rng.choice("01") for _ in range(rank - 3))
            items.append(("gamma", "01" + tail))
        items += [("commuting", n) for n in range(1, max_n + 1)]
        self.rng.shuffle(items)
        self.items = items

    def tasks(self) -> list:
        return [_LARGE[kind](arg) for kind, arg in self.items]


def _f4_task(caps):
    def task():
        spec = words.MultisetSpec(tuple((v + 1, c) for v, c in enumerate(caps)))
        yield series.multiset_count_cf(spec) == series.f4_coefficient(*caps)
        return True
    return task


def _uniform_task(kn):
    k, n = kn
    def task():
        spec = words.MultisetSpec(tuple((v, k) for v in range(1, n + 1)))
        yield series.multiset_count_cf(spec) == series.g_umbral_series(k, n)[n]
        return True
    return task


def _gamma_task(gamma):
    def task():
        _, beta = posets.q_from_gamma(gamma).jq_flag_vectors()
        lattice_beta = posets.lattice_from_gamma(gamma).flag_beta_vector()
        yield beta == lattice_beta and all(b in (-1, 0, 1) for b in beta)
        return True
    return task


def _commuting_task(n):
    def task():
        q = posets.q_from_commuting_word(n)
        vec = q.descent_vector(max_size=n)
        support_ok = all((count != 0) == is_sparse_mask(mask)
                         for mask, count in enumerate(vec))
        yield support_ok and q.extension_count() == oracles.FIBONACCI[n + 1]
        return True
    return task


_LARGE = {"f4": _f4_task, "uniform": _uniform_task, "gamma": _gamma_task,
          "commuting": _commuting_task}

WORKLOADS = {w.name: w for w in (FlagSweep, IsoClassify, MultisetClasses,
                                 LargeInputs)}
