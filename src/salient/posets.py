"""Graded posets, natural partial orders, flag f/h-vectors, order-ideal
lattices, the two-per-rank family (level words, the lattices L(gamma) and
their join-irreducibles), and the stretching and proliferation constructions.

Conventions:

* GradedPoset elements are indexed 0..size-1 with optional string labels;
  covers always raise rank by exactly one.
* NaturalPoset lives on labels 1..n with the partial order refining the
  integer order; internally it is a tuple of down-set bitmasks (bit v-1 for
  label v).
* Rank subsets S of [n-1] appear as frozensets in the public API and as
  bitmasks (bit i-1 for rank i) in vectors.
"""
from __future__ import annotations

from collections import Counter
from functools import lru_cache
import json

from salient import _kernels, _pykernels
from salient.errors import (DomainError, GuardExceeded,
                            InternalConsistencyError)
from salient.words import Word

ISO_SIZE = 24
IDEAL_CAP = 200_000
DEFAULT_IDEAL_WALK = 1 << 20
DEFAULT_ORBIT_CAP = 10_000_000
DEFAULT_DESCENT_SIZE = 14
FLAG_TABLE_BITS = 21
NATURAL_SWEEP = 7
ISO_SWEEP = 8


def _iter_bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_from_ranks(ranks, n: int) -> int:
    mask = 0
    for i in ranks:
        if not 1 <= i <= n - 1:
            raise DomainError(f"rank {i} outside [1, {n - 1}]")
        mask |= 1 << (i - 1)
    return mask


def ranks_from_mask(mask: int) -> frozenset[int]:
    return frozenset(b + 1 for b in _iter_bits(mask))


def _check_chain_table(sizes: dict[int, int], bits: int) -> None:
    """Raise GuardExceeded when chain counting over layers of these sizes
    (rank: element count) would keep more than 2^bits entries.
    _pykernels.chain_counts keeps 2^(r-1) of them for each element of rank
    r >= 1 (its rank blocks), so the table also bounds the rank, and a poset
    with at most two elements per rank and rank < bits always fits. A rank
    above bits + 1 needs more on its own and is refused before any table
    size is formed. An entry is a field of w bytes in a packed
    int, w = 2, 4 or 8 while the counts stay below 2^63, and the f-vector
    pass keeps each vector shifted to its rank block, which doubles its
    length. A flag h-vector computed by the Moebius mode of chain_counts
    keeps as many entries again, but only after the f-vector pass has
    returned and freed its table."""
    top = max(sizes, default=0)
    if top > bits + 1:
        entries = f"2^{top - 1} or more"
    else:
        entries = sum(count << r >> 1 for r, count in sizes.items() if r)
        if entries <= 1 << bits:
            return
    raise GuardExceeded(
        f"chain counts need {entries} entries, more than 2^{bits}")


# ---------------------------------------------------------------------------
# canonical forms (shared by both poset flavors)
# ---------------------------------------------------------------------------

def _bit_lists(masks) -> list[list[int]]:
    """The set bits of each mask as an ascending list of indices."""
    return [[j for j in range(m.bit_length()) if m >> j & 1] for m in masks]


def _heights(downs) -> list[int]:
    """Each element's height (the most elements on a chain below it), from
    the strict down-sets as index lists."""
    heights = [0] * len(downs)
    for i in sorted(range(len(downs)), key=list(map(len, downs)).__getitem__):
        if downs[i]:
            heights[i] = 1 + max(map(heights.__getitem__, downs[i]))
    return heights


def canonical_relation_key(n: int, below) -> tuple:
    """Canonical certificate of a poset given as strict down-set bitmasks.

    Two posets are isomorphic exactly when their keys agree. The key is
    (n, the sorted colors, the rows) for the lexicographically least row
    encoding over all orderings of the elements by color: the row of the
    element at position p has bit 2q when the element at position q < p is
    below it and bit 2q + 1 when it is above it. Colors come from iterated
    invariant refinement seeded with element heights.

    The search places one element per position and keeps every element's
    row against the placed prefix as it goes. Only candidates of least row
    can continue the least encoding, so only they are branched on, and of
    twins (elements with equal down-sets and equal up-sets, which the
    transposition of the two maps onto each other while fixing every other
    element) only the first unplaced one: the others give the same rows. An
    antichain therefore has one branch, not n!. Posets of more than ISO_SIZE
    elements raise GuardExceeded.
    """
    if n > ISO_SIZE:
        raise GuardExceeded(f"canonical form limited to {ISO_SIZE} elements")
    if n == 0:
        return (0, (), ())
    downs = _bit_lists(below)
    ups: list[list[int]] = [[] for _ in range(n)]
    for i, down in enumerate(downs):
        for j in down:
            ups[j].append(i)

    # Heights take every value 0..max, so they are already color ranks. A
    # round ranks (color, down colors, up colors); an element alone in its
    # color class keeps its rank whatever its sets, so it skips the sort.
    colors = _heights(downs)
    count = max(colors) + 1
    while count < n:
        sizes = [0] * count
        for c in colors:
            sizes[c] += 1
        sigs = [(c, tuple(sorted([colors[j] for j in downs[i]])),
                 tuple(sorted([colors[j] for j in ups[i]])))
                if sizes[c] > 1 else (c,)
                for i, c in enumerate(colors)]
        ranked = sorted(set(sigs))
        if len(ranked) == count:
            break
        ranking = {s: r for r, s in enumerate(ranked)}
        colors = [ranking[s] for s in sigs]
        count = len(ranked)
    color_seq = sorted(colors)

    twins: dict[tuple, list[int]] = {}
    for i in range(n):
        twins.setdefault((below[i], tuple(ups[i])), []).append(i)
    members = list(twins.values())
    placed = [0] * len(members)  # members of each twin class placed so far
    by_color: list[list[int]] = [[] for _ in range(count)]
    for t, twin_class in enumerate(members):
        by_color[colors[twin_class[0]]].append(t)
    seq: list[int] = []
    best: list[int] = []

    def place(rows: list[int], pos: int, i: int) -> None:
        bit = 1 << 2 * pos
        for j in ups[i]:
            rows[j] |= bit
        bit <<= 1
        for j in downs[i]:
            rows[j] |= bit

    def search(pos: int, rows: list[int], tight: bool) -> bool:
        """Extend seq from position pos. rows[i] is element i's row against
        the placed prefix, in a list this call may change; tight means seq
        equals the start of best. Returns whether best was lowered."""
        start, forced, improved = pos, [], False
        while pos < n:
            low, cands = -1, []
            for t in by_color[color_seq[pos]]:
                if placed[t] < len(members[t]):
                    i = members[t][placed[t]]
                    if rows[i] < low or low < 0:
                        low, cands = rows[i], [(t, i)]
                    elif rows[i] == low:
                        cands.append((t, i))
            if tight:
                if low > best[pos]:
                    break
                tight = low == best[pos]
            seq.append(low)
            *others, (t, i) = cands
            for t2, i2 in others:
                child = rows.copy()
                place(child, pos, i2)
                placed[t2] += 1
                if search(pos + 1, child, tight):
                    improved = tight = True
                placed[t2] -= 1
            place(rows, pos, i)
            placed[t] += 1
            forced.append(t)
            pos += 1
        else:
            if not tight:
                best[:] = seq
                improved = True
        for t in forced:
            placed[t] -= 1
        del seq[start:]
        return improved

    search(0, [0] * n, False)
    del search  # it holds itself through its cell; free it now
    return (n, tuple(color_seq), tuple(best))


# ---------------------------------------------------------------------------
# graded posets
# ---------------------------------------------------------------------------

class GradedPoset:
    """Finite graded poset: ranked elements plus rank-increasing covers."""

    __slots__ = ("ranks", "covers", "labels", "_below", "_flags")

    def __init__(self, ranks, covers, labels=None):
        ranks = tuple(ranks)
        covers = tuple(sorted(tuple(c) for c in covers))
        size = len(ranks)
        for r in ranks:
            if isinstance(r, bool) or not isinstance(r, int) or r < 0:
                raise DomainError(f"bad rank {r!r}")
        for lo, hi in covers:
            if not (0 <= lo < size and 0 <= hi < size):
                raise DomainError(f"cover ({lo}, {hi}) out of range")
            if ranks[hi] != ranks[lo] + 1:
                raise DomainError(
                    f"cover ({lo}, {hi}) does not raise rank by one")
        if labels is None:
            labels = tuple(str(i) for i in range(size))
        else:
            labels = tuple(str(x) for x in labels)
            if len(labels) != size or len(set(labels)) != size:
                raise DomainError("labels must be distinct, one per element")
        object.__setattr__(self, "ranks", ranks)
        object.__setattr__(self, "covers", covers)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "_below", None)
        object.__setattr__(self, "_flags", None)

    @classmethod
    def _valid(cls, ranks: tuple[int, ...],
               covers: tuple[tuple[int, int], ...]) -> "GradedPoset":
        """Trusted constructor for ranks and covers that are valid and
        sorted by construction, with the default labels: skips __init__'s
        checks and sort."""
        poset = object.__new__(cls)
        object.__setattr__(poset, "ranks", ranks)
        object.__setattr__(poset, "covers", covers)
        object.__setattr__(poset, "labels",
                           tuple(str(i) for i in range(len(ranks))))
        object.__setattr__(poset, "_below", None)
        object.__setattr__(poset, "_flags", None)
        return poset

    def __setattr__(self, name, value):
        raise AttributeError("GradedPoset is immutable")

    def __reduce__(self):
        return GradedPoset, (self.ranks, self.covers, self.labels)

    # -- basic structure

    @property
    def size(self) -> int:
        return len(self.ranks)

    @property
    def rank(self) -> int:
        return max(self.ranks, default=0)

    def layers(self) -> list[list[int]]:
        out: list[list[int]] = [[] for _ in range(self.rank + 1)]
        for e, r in enumerate(self.ranks):
            out[r].append(e)
        return out

    def layer_sizes(self) -> tuple[int, ...]:
        return tuple(len(layer) for layer in self.layers())

    def down_covers(self) -> list[list[int]]:
        out: list[list[int]] = [[] for _ in range(self.size)]
        for lo, hi in self.covers:
            out[hi].append(lo)
        return out

    def below_masks(self) -> list[int]:
        """below_masks()[e] has a bit for every element strictly below e.

        Built once, from the bottom layer up, and cached; callers must not
        modify the list."""
        if self._below is None:
            down = self.down_covers()
            below = [0] * self.size
            for e in sorted(range(self.size), key=self.ranks.__getitem__):
                for d in down[e]:
                    below[e] |= 1 << d | below[d]
            object.__setattr__(self, "_below", below)
        return self._below

    def leq(self, a: int, b: int) -> bool:
        return a == b or bool(self.below_masks()[b] >> a & 1)

    # -- boundedness

    def is_bounded_graded(self) -> bool:
        """Bottom, top, and every maximal chain running between them.

        The bottom is the only rank-0 element, below every other one; the top
        is the only element of the top rank, above every other one. They
        suffice: every element lies between them, and covers raise rank by
        one, so every element below the top rank has an up-cover and every
        element above rank 0 a down-cover."""
        rank = self.rank
        zeros = [e for e, r in enumerate(self.ranks) if r == 0]
        tops = [e for e, r in enumerate(self.ranks) if r == rank]
        if len(zeros) != 1 or len(tops) != 1:
            return False
        below = self.below_masks()
        return (sum(m >> zeros[0] & 1 for m in below) == self.size - 1
                and bin(below[tops[0]]).count("1") == self.size - 1)

    def _require_bounded(self) -> None:
        if not self.is_bounded_graded():
            raise DomainError("operation needs a graded poset with bottom "
                              "and top on every maximal chain")

    # -- flag vectors

    def flag_alpha_vector(self) -> list[int]:
        """alpha over all subsets of [rank-1], indexed by rank-set bitmask.

        The vector has 2^(rank-1) entries. Its one guard is the chain-count
        table, at most 2^FLAG_TABLE_BITS entries (see _check_chain_table),
        read from a count of the ranks before anything is built. Builds
        alpha and beta together, by _pykernels.flag_vectors."""
        if self._flags is None:
            _check_chain_table(Counter(self.ranks), FLAG_TABLE_BITS)
            self._require_bounded()
            layers = self.layers()
            below = self.below_masks()
            masks = [[below[e] | 1 << e for e in layer] for layer in layers]
            object.__setattr__(self, "_flags", _pykernels.flag_vectors(masks))
        return self._flags[0]

    def flag_beta_vector(self) -> list[int]:
        """beta, the flag h-vector, indexed like flag_alpha_vector and built
        with it."""
        self.flag_alpha_vector()
        return self._flags[1]

    def alpha(self, ranks) -> int:
        return self.flag_alpha_vector()[mask_from_ranks(ranks, self.rank)]

    def beta(self, ranks) -> int:
        return self.flag_beta_vector()[mask_from_ranks(ranks, self.rank)]

    def flag_rows(self) -> list[tuple[tuple[int, ...], int, int]]:
        alpha = self.flag_alpha_vector()
        beta = self.flag_beta_vector()
        out = []
        for mask in range(len(alpha)):
            s = tuple(sorted(ranks_from_mask(mask)))
            out.append((s, alpha[mask], beta[mask]))
        out.sort(key=lambda row: (len(row[0]), row[0]))
        return out

    def is_multiplicity_free(self) -> bool:
        return all(-1 <= b <= 1 for b in self.flag_beta_vector())

    def has_at_most_two_per_rank(self) -> bool:
        return all(s <= 2 for s in self.layer_sizes())

    # -- constructions

    def stretch(self, i: int) -> "GradedPoset":
        """Insert a copy of rank-i layer just above it, each copy over its
        original only; covers out of rank i move to the copies."""
        return self._copy_layer(i, "stretch", lambda s, t: s == t)

    def proliferate(self, i: int) -> "GradedPoset":
        """Insert a copy of rank-i layer with complete bipartite covers from
        the originals; the result is the ordinal sum of the two sections."""
        return self._copy_layer(i, "proliferate", lambda s, t: True)

    def _copy_layer(self, i: int, name: str, joined) -> "GradedPoset":
        """Insert a primed copy of rank-i layer just above it. Covers out of
        rank i move to the copies; original s is covered by the copy of t
        exactly when joined(s, t)."""
        self._require_bounded()
        n = self.rank
        if not 1 <= i <= n - 1:
            raise DomainError(f"{name} rank {i} outside [1, {n - 1}]")
        layer = [e for e in range(self.size) if self.ranks[e] == i]
        copy_of = {t: self.size + idx for idx, t in enumerate(layer)}
        ranks = [r if r <= i else r + 1 for r in self.ranks]
        ranks += [i + 1] * len(layer)
        covers = [(copy_of.get(lo, lo), hi) for lo, hi in self.covers]
        covers += [(s, copy_of[t]) for s in layer for t in layer
                   if joined(s, t)]
        labels = list(self.labels) + [f"{self.labels[t]}'" for t in layer]
        return GradedPoset(ranks, covers, labels)

    def lower_section(self, i: int) -> "GradedPoset":
        """Ranks 0..i of the poset with a new top adjoined above rank i."""
        self._require_bounded()
        keep = [e for e in range(self.size) if self.ranks[e] <= i]
        index = {e: k for k, e in enumerate(keep)}
        ranks = [self.ranks[e] for e in keep] + [i + 1]
        top = len(keep)
        covers = [(index[lo], index[hi]) for lo, hi in self.covers
                  if self.ranks[hi] <= i]
        covers += [(index[e], top) for e in keep if self.ranks[e] == i]
        labels = [self.labels[e] for e in keep] + ["+top"]
        return GradedPoset(ranks, covers, labels)

    def upper_section(self, i: int) -> "GradedPoset":
        """Ranks i..n of the poset with a new bottom adjoined below rank i."""
        self._require_bounded()
        keep = [e for e in range(self.size) if self.ranks[e] >= i]
        index = {e: k + 1 for k, e in enumerate(keep)}
        ranks = [0] + [self.ranks[e] - i + 1 for e in keep]
        covers = [(index[lo], index[hi]) for lo, hi in self.covers
                  if self.ranks[lo] >= i]
        covers += [(0, index[e]) for e in keep if self.ranks[e] == i]
        labels = ["+bot"] + [self.labels[e] for e in keep]
        return GradedPoset(ranks, covers, labels)

    # -- isomorphism

    def canonical_key(self) -> tuple:
        return canonical_relation_key(self.size, self.below_masks())

    # -- serialization

    def to_json(self) -> str:
        data = {
            "elements": list(self.labels),
            "ranks": {self.labels[e]: self.ranks[e]
                      for e in range(self.size)},
            "covers": [[self.labels[lo], self.labels[hi]]
                       for lo, hi in self.covers],
        }
        return json.dumps(data)

    @classmethod
    def from_json(cls, text: str) -> "GradedPoset":
        try:
            data = json.loads(text)
            labels = [str(x) for x in data["elements"]]
            index = {lab: e for e, lab in enumerate(labels)}
            ranks = [data["ranks"][lab] for lab in labels]
            covers = [(index[str(lo)], index[str(hi)])
                      for lo, hi in data["covers"]]
        except (KeyError, TypeError, ValueError) as exc:
            raise DomainError(f"bad poset JSON: {exc}") from None
        return cls(ranks, covers, labels)

    def to_dot(self) -> str:
        lines = ["digraph poset {", "  rankdir=BT;", "  node [shape=plaintext];"]
        for layer in self.layers():
            if layer:
                same = " ".join(f'"{self.labels[e]}"' for e in layer)
                lines.append(f"  {{ rank=same; {same} }}")
        for lo, hi in self.covers:
            lines.append(f'  "{self.labels[lo]}" -> "{self.labels[hi]}";')
        lines.append("}")
        return "\n".join(lines) + "\n"

    def __eq__(self, other):
        return (isinstance(other, GradedPoset)
                and self.ranks == other.ranks
                and self.covers == other.covers
                and self.labels == other.labels)

    __hash__ = None

    def __repr__(self):
        return (f"GradedPoset(rank={self.rank}, size={self.size}, "
                f"layers={self.layer_sizes()})")

    # -- stock posets

    @classmethod
    def chain(cls, n: int) -> "GradedPoset":
        return cls(range(n + 1), [(i, i + 1) for i in range(n)])

    @classmethod
    def boolean_lattice(cls, k: int) -> "GradedPoset":
        masks = sorted(range(1 << k), key=lambda m: (bin(m).count("1"), m))
        index = {m: e for e, m in enumerate(masks)}
        ranks = [bin(m).count("1") for m in masks]
        covers = []
        for m in masks:
            for b in range(k):
                if not m >> b & 1:
                    covers.append((index[m], index[m | (1 << b)]))
        labels = ["{" + ",".join(str(b + 1) for b in _iter_bits(m)) + "}"
                  for m in masks]
        return cls(ranks, covers, labels)


# ---------------------------------------------------------------------------
# natural posets on [n]
# ---------------------------------------------------------------------------

class NaturalPoset:
    """Partial order on labels 1..n refining the integer order. Immutable;
    equal posets have equal n and down-sets."""

    __slots__ = ("n", "down")

    def __init__(self, n: int, down: tuple[int, ...]):
        if n < 0 or len(down) != n:
            raise DomainError("need one down-set mask per element")
        for i, m in enumerate(down):
            if m >> i:
                raise DomainError(
                    f"element {i + 1} has a larger element below it")
            for j in _iter_bits(m):
                if down[j] & ~m:
                    raise DomainError("down-sets are not transitively closed")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "down", down)

    @classmethod
    def _closed(cls, n: int, down: tuple[int, ...]) -> "NaturalPoset":
        """Trusted constructor for down-sets that are natural and
        transitively closed by construction: skips __init__'s check."""
        poset = object.__new__(cls)
        object.__setattr__(poset, "n", n)
        object.__setattr__(poset, "down", down)
        return poset

    def __setattr__(self, name, value):
        raise AttributeError("NaturalPoset is immutable")

    def __delattr__(self, name):
        raise AttributeError("NaturalPoset is immutable")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.n == other.n and self.down == other.down

    def __hash__(self):
        return hash((self.n, self.down))

    def __reduce__(self):
        return NaturalPoset._closed, (self.n, self.down)

    @classmethod
    def from_relations(cls, n: int, pairs) -> "NaturalPoset":
        """Build from strict relations (a, b) meaning a below b, 1-based."""
        if n < 0:
            raise DomainError("need one down-set mask per element")
        direct = [0] * n
        for a, b in pairs:
            if not (1 <= a < b <= n):
                raise DomainError(f"relation ({a}, {b}) violates naturality")
            direct[b - 1] |= 1 << (a - 1)
        down = [0] * n
        for i in range(n):
            acc = direct[i]
            for j in _iter_bits(direct[i]):
                acc |= down[j]
            down[i] = acc
        return cls._closed(n, tuple(down))

    @classmethod
    def antichain(cls, n: int) -> "NaturalPoset":
        return cls(n, (0,) * n)

    @classmethod
    def chain(cls, n: int) -> "NaturalPoset":
        return cls(n, tuple((1 << i) - 1 for i in range(n)))

    # -- structure

    def up(self) -> tuple[int, ...]:
        up = [0] * self.n
        for i, m in enumerate(self.down):
            for j in _iter_bits(m):
                up[j] |= 1 << i
        return tuple(up)

    def less(self, a: int, b: int) -> bool:
        """Strict order between 1-based labels."""
        return bool(self.down[b - 1] >> (a - 1) & 1)

    def relations(self) -> list[tuple[int, int]]:
        return sorted((j + 1, i + 1)
                      for i in range(self.n) for j in _iter_bits(self.down[i]))

    def cover_pairs(self) -> list[tuple[int, int]]:
        out = []
        for i in range(self.n):
            for j in _iter_bits(self.down[i]):
                if not any(self.down[l] >> j & 1
                           for l in _iter_bits(self.down[i])):
                    out.append((j + 1, i + 1))
        return sorted(out)

    # -- ideals and the Birkhoff lattice

    def ideal_masks(self, cap: int | None = None) -> list[int]:
        """All order ideals as bitmasks, sorted by (size, mask)."""
        ideals = _pykernels.order_ideals(self.down, cap)
        ideals.sort(key=lambda m: (bin(m).count("1"), m))
        return ideals

    def ideal_size_profile(self) -> tuple[int, ...]:
        """Ideals of each size 0..n, counted under extension_count's guard."""
        out = [0] * (self.n + 1)
        for m in _pykernels.order_ideals(self.down, DEFAULT_IDEAL_WALK):
            out[bin(m).count("1")] += 1
        return tuple(out)

    def ideals_lattice(self) -> GradedPoset:
        """The distributive lattice of order ideals, ranked by ideal size."""
        if self.n > ISO_SIZE:
            raise GuardExceeded(
                f"ideal lattice limited to posets with {ISO_SIZE} elements")
        ideals = self.ideal_masks(cap=IDEAL_CAP)
        index = {m: e for e, m in enumerate(ideals)}
        ranks = [bin(m).count("1") for m in ideals]
        covers = []
        for m in ideals:
            for i in range(self.n):
                bit = 1 << i
                if not m & bit and not self.down[i] & ~m:
                    covers.append((index[m], index[m | bit]))
        labels = ["{" + ",".join(str(b + 1) for b in _iter_bits(m)) + "}"
                  for m in ideals]
        return GradedPoset(ranks, covers, labels)

    def jq_flag_vectors(self) -> tuple[list[int], list[int]]:
        """(alpha, beta) of the ideal lattice, via the fast kernels. Its one
        guard is that lattice's chain-count table (see _check_chain_table),
        which refuses n above FLAG_TABLE_BITS. The table has at most
        (3^n - 1)/2 entries (at most C(n, r) ideals have size r), so the
        ideal size profile is read only above that; its walk refuses no
        lattice the table accepts (over 2^20 ideals need over 2^21 entries)."""
        if (3 ** self.n - 1) // 2 > 1 << FLAG_TABLE_BITS:
            _check_chain_table(dict(enumerate(self.ideal_size_profile())),
                               FLAG_TABLE_BITS)
        return _kernels.natural_flag_vectors(self.n, self.down)

    # -- linear extensions

    def linear_extensions(self) -> list[Word]:
        """All linear extensions as 1-based words, lexicographically sorted.
        Refused when extension_count finds more than DEFAULT_ORBIT_CAP, the
        word cap of classes.class_of, before any word is built."""
        count = self.extension_count()
        if count > DEFAULT_ORBIT_CAP:
            raise GuardExceeded(f"{count} linear extensions exceed "
                                f"{DEFAULT_ORBIT_CAP} words")
        n = self.n
        down = self.down
        out: list[Word] = []
        word: list[int] = []
        placed = 0

        def rec() -> None:
            nonlocal placed
            if len(word) == n:
                out.append(tuple(word))
                return
            for e in range(n):
                bit = 1 << e
                if placed & bit or down[e] & ~placed:
                    continue
                placed |= bit
                word.append(e + 1)
                rec()
                word.pop()
                placed ^= bit

        rec()
        del rec  # it holds itself through its cell; free it now
        return out

    def extension_count(self, max_ideals: int = DEFAULT_IDEAL_WALK) -> int:
        """Number of linear extensions, the maximal chains of the ideal
        lattice, by dynamic programming over the ideals: an ideal's count is
        the sum of the counts of the ideals one maximal element smaller. Its
        one guard is the walk: GuardExceeded once there are more than
        max_ideals ideals, so every poset of at most 20 elements is counted,
        and thin ones far past that (classes.class_size passes its member
        cap instead).

        The maximal elements of an ideal are its largest element i and
        those of the ideal without i that are not below i. order_ideals
        lists each ideal after all of its sub-ideals, so both that ideal
        and the ones to sum are counted before it, and an ideal costs one
        step per maximal element."""
        down = self.down
        counts = {0: 1}
        maximal = {0: 0}
        for ideal in _pykernels.order_ideals(down, max_ideals)[1:]:
            i = ideal.bit_length() - 1
            top = maximal[ideal ^ 1 << i] & ~down[i] | 1 << i
            maximal[ideal] = top
            count = 0
            while top:
                low = top & -top
                count += counts[ideal ^ low]
                top ^= low
            counts[ideal] = count
        return counts[(1 << self.n) - 1]

    def descent_vector(self, max_size: int = DEFAULT_DESCENT_SIZE) -> list[int]:
        """Linear extension counts grouped by descent set (bitmask index)."""
        if self.n > max_size:
            raise GuardExceeded(
                f"descent tabulation limited to {max_size} elements")
        return _kernels.descent_vector(self.n, self.down)

    # -- order-theoretic predicates

    def is_two_plus_two_free(self) -> bool:
        """No induced pair of disjoint 2-chains with all cross pairs
        incomparable."""
        rels = [(a - 1, b - 1) for a, b in self.relations()]
        for a, b in rels:
            for c, d in rels:
                if len({a, b, c, d}) != 4:
                    continue
                if not (self._comparable(a, c) or self._comparable(a, d)
                        or self._comparable(b, c) or self._comparable(b, d)):
                    return False
        return True

    def is_width_le_two(self) -> bool:
        """No 3-element antichain."""
        for a in range(self.n):
            for b in range(a + 1, self.n):
                if self._comparable(a, b):
                    continue
                for c in range(b + 1, self.n):
                    if not (self._comparable(a, c) or self._comparable(b, c)):
                        return False
        return True

    def _comparable(self, i: int, j: int) -> bool:
        return bool(self.down[j] >> i & 1 or self.down[i] >> j & 1)

    # -- isomorphism

    def canonical_key(self) -> tuple:
        return canonical_relation_key(self.n, self.down)

    def __repr__(self):
        return f"NaturalPoset(n={self.n}, relations={self.relations()})"


def are_isomorphic(first, second) -> bool:
    """Exact poset isomorphism via canonical forms.

    Accepts GradedPoset or NaturalPoset in any combination (the comparison
    forgets rank and labels, which are order-intrinsic anyway for bounded
    graded posets).
    """
    return first.canonical_key() == second.canonical_key()


# ---------------------------------------------------------------------------
# commutation posets and the two-per-rank family
#
# Every poset of the family is built from its level word by one assembler,
# level_word_poset. L(gamma) is the word K P x3 ... xm of its gamma word, and
# q_gamma is the poset of its join-irreducibles; salient.mfenum lists the
# words themselves.
# ---------------------------------------------------------------------------

def q_from_commuting_word(n: int) -> NaturalPoset:
    """The poset on 1..n with a below b exactly when b - a >= 2.

    Its linear extensions are precisely the words reachable from the
    identity by consecutive interchanges.
    """
    if n < 0:
        raise DomainError("n must be >= 0")
    down = tuple((1 << max(i - 1, 0)) - 1 for i in range(n))
    return NaturalPoset(n, down)


def check_gamma(gamma: str) -> str:
    """Validate a left/right construction word for the two-per-rank family.

    The word for a rank-n lattice has n-1 bits; the first bit is forced to 0
    and the second to 1 (the first two extension steps are unique up to
    isomorphism).
    """
    gamma = str(gamma)
    if any(c not in "01" for c in gamma):
        raise DomainError(f"gamma word must be over 0/1, got {gamma!r}")
    if len(gamma) >= 1 and gamma[0] != "0":
        raise DomainError("gamma must start with 0")
    if len(gamma) >= 2 and gamma[1] != "1":
        raise DomainError("the second gamma bit must be 1")
    return gamma


# The covers into a level, by its join and the size of the level below, as
# offsets (a, b) from the first element of each level. A singleton level and
# K are complete; M keeps indices; P and P' leave upper element 0 covering
# both lower ones.
_COVERS = {("1", 1): ((0, 0),), ("1", 2): ((0, 0), (1, 0)),
           ("K", 1): ((0, 0), (0, 1)),
           ("K", 2): ((0, 0), (0, 1), (1, 0), (1, 1)),
           ("M", 2): ((0, 0), (1, 1)),
           ("P", 2): ((0, 0), (0, 1), (1, 0)),
           ("P'", 2): ((0, 0), (1, 0), (1, 1))}


def level_word_poset(word: tuple[str, ...]) -> GradedPoset:
    """The bounded graded poset of a level word (see salient.mfenum): one
    token per interior level, bottom-up, "1" for a singleton and K, M, P or
    P' for a pair by its join with the level below; the top is one more
    singleton level. The covers come out sorted, level by level."""
    ranks = [0]
    covers: list[tuple[int, int]] = []
    low, size = 0, 1  # the first element and size of the level below
    for r, join in enumerate(word + ("1",), 1):
        e = len(ranks)
        try:
            covers += [(low + a, e + b) for a, b in _COVERS[join, size]]
        except KeyError:
            raise DomainError(f"join {join!r} cannot follow a level of "
                              f"size {size}") from None
        low, size = e, 1 if join == "1" else 2
        ranks += [r] * size
    return GradedPoset._valid(tuple(ranks), tuple(covers))


def lattice_from_gamma(gamma: str) -> GradedPoset:
    """The rank-(len(gamma)+1) lattice with two elements per interior rank.

    Each bit of gamma adjoins an element over the left (0) or right (1)
    coatom, below a new top; the new element takes the side it was attached
    on and the old top the other. As a level word this is K, then P for the
    forced bits 01, then for each later bit P where it changes and P' where
    it repeats, so the alternating word 0101... (all P) yields the lattice of
    order ideals of q_from_commuting_word(n).
    """
    gamma = check_gamma(gamma)
    word = ("K", "P")[:len(gamma)] + tuple(
        "P" if bit != prev else "P'" for prev, bit in zip(gamma[1:], gamma[2:]))
    return level_word_poset(word)


def join_irreducibles(lattice: GradedPoset) -> NaturalPoset:
    """The poset of join-irreducible elements (those with exactly one lower
    cover) of a finite distributive lattice, labelled naturally along rank
    order; by Birkhoff's theorem its ideal lattice is isomorphic to the
    lattice."""
    down_counts = [0] * lattice.size
    for _, hi in lattice.covers:
        down_counts[hi] += 1
    irreducibles = [e for e in range(lattice.size) if down_counts[e] == 1]
    if len(irreducibles) != lattice.rank:
        raise InternalConsistencyError(
            "join-irreducible count differs from the lattice rank")
    irreducibles.sort(key=lambda e: (lattice.ranks[e], e))
    below = lattice.below_masks()
    pairs = []
    for ia, a in enumerate(irreducibles):
        for ib, b in enumerate(irreducibles):
            if below[b] >> a & 1:
                pairs.append((ia + 1, ib + 1))
    return NaturalPoset.from_relations(len(irreducibles), pairs)


def q_from_gamma(gamma: str) -> NaturalPoset:
    """The poset of join-irreducible elements of lattice_from_gamma."""
    return join_irreducibles(lattice_from_gamma(gamma))


# ---------------------------------------------------------------------------
# exhaustive and randomized generators
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _natural_down_tuples(n: int) -> tuple[tuple[int, ...], ...]:
    if n == 0:
        return ((),)
    return tuple(downs + (d,) for downs in _natural_down_tuples(n - 1)
                 for d in _pykernels.order_ideals(downs))


def all_natural_posets(n: int) -> list[NaturalPoset]:
    """Every natural partial order of [n] (A006455: 1, 1, 2, 7, 40, 357,
    4824, 96428, ...). Cached; guarded because the counts explode."""
    if n < 0:
        raise DomainError("n must be >= 0")
    if n > NATURAL_SWEEP:
        raise GuardExceeded(
            f"natural-poset sweep limited to n <= {NATURAL_SWEEP}")
    return [NaturalPoset(n, downs) for downs in _natural_down_tuples(n)]


def all_posets_up_to_iso(n: int) -> list[NaturalPoset]:
    """One representative of every isomorphism class of n-element posets
    (A000112: 1, 1, 2, 5, 16, 63, 318, 2045, 16999, ...).

    Grown from the empty poset one maximal element at a time: each class
    representative of size s - 1 gets a new element s over each of its order
    ideals in turn, and a child is kept when its canonical key is new. Every
    class is reached, since removing a maximal element leaves a smaller
    poset. The representatives are the first members of their classes in the
    order of all_natural_posets (a class's first member extends the first
    member of its prefix's class); tests/test_posets.py
    (test_iso_sweep_matches_canonicalize_and_discard) checks that against
    canonicalize-and-discard over all_natural_posets.
    """
    if n < 0:
        raise DomainError("n must be >= 0")
    return list(_iso_sweep(n))[-1]


def _iso_sweep(max_n: int):
    """The sweep of all_posets_up_to_iso, yielding the representatives of
    each size 0..max_n as they are grown (nothing when max_n < 0). Its one
    guard: max_n above ISO_SWEEP raises GuardExceeded before any growth."""
    if max_n > ISO_SWEEP:
        raise GuardExceeded(f"isomorphism-class sweep to {max_n} elements "
                            f"exceeds limit {ISO_SWEEP}")
    reps = [NaturalPoset(0, ())]
    for size in range(max_n + 1):
        if size:
            grown: dict[tuple, NaturalPoset] = {}
            for rep in reps:
                # a new top-labelled element over an order ideal keeps the
                # down-sets natural and closed
                for d in _pykernels.order_ideals(rep.down):
                    child = NaturalPoset._closed(size, rep.down + (d,))
                    grown.setdefault(child.canonical_key(), child)
            reps = list(grown.values())
        yield reps


def all_bounded_graded_posets(max_rank: int,
                              max_size: int) -> list[GradedPoset]:
    """Every bounded graded poset with rank <= max_rank and at most max_size
    elements, one representative per isomorphism class.

    Filtered from the isomorphism-class sweep. A bounded graded poset is a
    bottom and a top adjoined to an interior whose maximal chains all have
    the same number h of elements, and its rank is h + 1 (the empty interior
    gives the 2-chain). So each class of size n = 0..max_size - 2, taken in
    one run of the all_posets_up_to_iso sweep, is kept when its covers raise
    height by exactly one and its maximal elements all have height h - 1; it
    becomes element 0 (bottom), label v as element v, and n + 1 (top). No
    two interiors are isomorphic, so neither are the results. The list is
    ordered by size and then by the order of the sweep. The sweep's guard
    (interiors of at most ISO_SWEEP elements) is the only one, so max_size
    above ISO_SWEEP + 2 raises GuardExceeded; max_rank only filters.
    """
    out: list[GradedPoset] = []
    for n, interiors in enumerate(_iso_sweep(max_size - 2)):
        for interior in interiors:
            heights = _heights(_bit_lists(interior.down))
            h = max(heights, default=-1) + 1
            up = interior.up()
            maximal = [e for e in range(n) if not up[e]]
            if h + 1 > max_rank or any(heights[e] != h - 1 for e in maximal):
                continue
            covers = interior.cover_pairs()
            if any(heights[b - 1] != heights[a - 1] + 1 for a, b in covers):
                continue
            covers += [(0, e + 1) for e in range(n) if not interior.down[e]]
            covers += [(e + 1, n + 1) for e in maximal] if n else [(0, 1)]
            ranks = [0] + [x + 1 for x in heights] + [h + 1]
            out.append(GradedPoset(ranks, covers))
    return out


def random_graded_poset(rng) -> GradedPoset:
    """A random bounded graded poset of rank 2..5 with at most 10 elements:
    random interior layer sizes, random covers between consecutive layers
    with every element kept on a maximal chain. Deterministic for a seeded
    rng."""
    n = rng.randint(2, 5)
    sizes = [1] * (n - 1)
    # one element per rank 0..n, plus up to 9 - n spares: 10 at most
    for _ in range(rng.randint(0, 9 - n)):
        sizes[rng.randrange(n - 1)] += 1
    ranks = [0]
    layer_ids: list[list[int]] = [[0]]
    for r, s in enumerate(sizes, start=1):
        ids = []
        for _ in range(s):
            ids.append(len(ranks))
            ranks.append(r)
        layer_ids.append(ids)
    top = len(ranks)
    ranks.append(n)
    layer_ids.append([top])
    covers = []
    for r in range(n):
        lower, upper = layer_ids[r], layer_ids[r + 1]
        edges = set()
        for lo in lower:
            for hi in upper:
                if rng.random() < 0.45:
                    edges.add((lo, hi))
        for lo in lower:
            if not any(e[0] == lo for e in edges):
                edges.add((lo, upper[rng.randrange(len(upper))]))
        for hi in upper:
            if not any(e[1] == hi for e in edges):
                edges.add((lower[rng.randrange(len(lower))], hi))
        covers.extend(sorted(edges))
    return GradedPoset(ranks, covers)
