"""Structural generation and enumeration of the posets with
multiplicity-free flag h-vectors.

Every such bounded graded poset is an ordinal sum of indecomposable blocks:
a single element, or a tower of two-element levels obtained from one of the
two-per-rank lattice interiors by stretching levels. The distributive case
(lattices of order ideals) mirrors this at the level of the underlying
natural posets, whose blocks are the q_from_gamma posets.
"""
from __future__ import annotations

from functools import lru_cache
from typing import Iterator

from salient.errors import DomainError, GuardExceeded
from salient.posets import (GradedPoset, NaturalPoset, gamma_words,
                            lattice_from_gamma, q_from_gamma)
from salient.series import TruncatedSeries, expand_rational

DEFAULT_MAX_RANK = 10
DEFAULT_MAX_ELEMENTS = 16
DEFAULT_MAX_FAMILY = 10

Fragment = tuple[tuple[int, ...], tuple[tuple[tuple[int, int], ...], ...]]


def g_blocks(n: int) -> int:
    """Number of indecomposable n-element blocks: 1, 1, then 2^(n-3)."""
    if n < 1:
        raise DomainError("n must be >= 1")
    if n <= 2:
        return 1
    return 2 ** (n - 3)


def distributive_count_series(order: int) -> list[int]:
    """Counts of the distributive multiplicity-free family by element count:
    the expansion of (1 - 2x) / ((1 - x)(1 - 2x - x^2))."""
    return expand_rational([1, -2], [1, -3, 1, 1], order)


@lru_cache(maxsize=None)
def distributive_blocks(m: int) -> tuple[NaturalPoset, ...]:
    """The indecomposable m-element members: join-irreducible posets of the
    two-per-rank lattices."""
    return tuple(q_from_gamma(g) for g in gamma_words(m))


def distributive_mf_family(n: int,
                           max_n: int = DEFAULT_MAX_FAMILY
                           ) -> list[NaturalPoset]:
    """All n-element posets (one per isomorphism class) whose ideal lattice
    has a multiplicity-free flag h-vector, built as ordinal sums of blocks."""
    if n < 0:
        raise DomainError("n must be >= 0")
    if n > max_n:
        raise GuardExceeded(f"family generation limited to n <= {max_n}")
    out: list[NaturalPoset] = []

    def rec(prefix: NaturalPoset, remaining: int) -> None:
        if remaining == 0:
            out.append(prefix)
            return
        for m in range(1, remaining + 1):
            for block in distributive_blocks(m):
                rec(prefix.ordinal_sum(block), remaining - m)

    rec(NaturalPoset(0, ()), n)
    return out


def count_distributive_mf(n: int, max_n: int = DEFAULT_MAX_FAMILY) -> int:
    return len(distributive_mf_family(n, max_n=max_n))


# ---------------------------------------------------------------------------
# general graded posets: block fragments
# ---------------------------------------------------------------------------
#
# A fragment is (level sizes, edge layers): edge layer l holds index pairs
# (a, b) meaning element a of level l is covered by element b of level l+1.

_SINGLETON: Fragment = ((1,), ())


@lru_cache(maxsize=None)
def _base_fragments(m: int) -> tuple[Fragment, ...]:
    """Interiors of the rank-(m+1) two-per-rank lattices: m levels of two."""
    out = []
    for g in gamma_words(m + 1):
        lattice = lattice_from_gamma(g)
        layers = lattice.layers()
        position = {}
        for r in range(1, m + 1):
            for pos, e in enumerate(layers[r]):
                position[e] = pos
        edge_layers: list[list[tuple[int, int]]] = [[] for _ in range(m - 1)]
        for lo, hi in lattice.covers:
            r = lattice.ranks[lo]
            if 1 <= r <= m - 1:
                edge_layers[r - 1].append((position[lo], position[hi]))
        sizes = tuple(len(layers[r]) for r in range(1, m + 1))
        out.append((sizes, tuple(tuple(sorted(e)) for e in edge_layers)))
    return tuple(out)


def _stretch_fragment(frag: Fragment, level: int, times: int) -> Fragment:
    """Insert `times` copy levels right above `level`, each element covered
    by its copy and the old outgoing edges moved to the copies."""
    sizes = list(frag[0])
    edges = [list(e) for e in frag[1]]
    for _ in range(times):
        s = sizes[level]
        sizes.insert(level + 1, s)
        edges.insert(level, [(a, a) for a in range(s)])
    return tuple(sizes), tuple(tuple(e) for e in edges)


def _compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    if parts == 0:
        if total == 0:
            yield ()
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


@lru_cache(maxsize=None)
def _blocks_with_levels(levels: int) -> tuple[Fragment, ...]:
    """All indecomposable fragments occupying exactly `levels` levels."""
    out: list[Fragment] = []
    if levels == 1:
        out.append(_SINGLETON)
    for m in range(1, levels + 1):
        for base in _base_fragments(m):
            for js in _compositions(levels - m, m):
                frag = base
                for level in range(m - 1, -1, -1):
                    if js[level]:
                        frag = _stretch_fragment(frag, level, js[level])
                out.append(frag)
    return tuple(out)


def _blocks_with_elements(count: int) -> tuple[Fragment, ...]:
    if count == 1:
        return (_SINGLETON,)
    if count % 2:
        return ()
    return tuple(f for f in _blocks_with_levels(count // 2)
                 if sum(f[0]) == count)


def _assemble(fragments) -> GradedPoset:
    """Ordinal sum of the fragments with a bottom and top adjoined; block
    junctions get complete bipartite covers."""
    ranks = [0]
    levels: list[list[int]] = [[0]]
    covers: list[tuple[int, int]] = []
    for sizes, edge_layers in fragments:
        first_new = len(levels)
        for s in sizes:
            ids = []
            r = len(levels)
            for _ in range(s):
                ids.append(len(ranks))
                ranks.append(r)
            levels.append(ids)
        for lo in levels[first_new - 1]:
            for hi in levels[first_new]:
                covers.append((lo, hi))
        for l, layer_edges in enumerate(edge_layers):
            low = levels[first_new + l]
            high = levels[first_new + l + 1]
            for a, b in layer_edges:
                covers.append((low[a], high[b]))
    top = len(ranks)
    ranks.append(len(levels))
    for lo in levels[-1]:
        covers.append((lo, top))
    return GradedPoset(ranks, covers)


def _fragment_sequences(total: int, block_source) -> Iterator[tuple]:
    if total == 0:
        yield ()
        return
    for part in range(1, total + 1):
        for block in block_source(part):
            for rest in _fragment_sequences(total - part, block_source):
                yield (block,) + rest


def generate_mf_posets(by: str = "rank", bound: int = 8,
                       max_rank: int = DEFAULT_MAX_RANK,
                       max_elements: int = DEFAULT_MAX_ELEMENTS
                       ) -> Iterator[GradedPoset]:
    """All bounded graded posets with at most two elements per rank, hence
    exactly the multiplicity-free ones, up to the bound on rank ("rank") or
    element count ("elements"), one per isomorphism class.

    Each poset is assembled from one sequence of indecomposable blocks whose
    levels (or elements) add up to the rank minus one (or the element count
    minus two). A poset is the ordinal sum of its blocks in exactly one way,
    so distinct sequences give non-isomorphic posets and nothing is
    canonicalized here; tests/test_mfenum.py
    (test_generated_mf_posets_pairwise_non_isomorphic) asserts it.
    """
    if by == "rank":
        if bound > max_rank:
            raise GuardExceeded(f"rank bound {bound} exceeds {max_rank}")
        totals, blocks = range(bound), _blocks_with_levels
    elif by == "elements":
        if bound > max_elements:
            raise GuardExceeded(f"element bound {bound} exceeds {max_elements}")
        totals, blocks = range(bound - 1), _blocks_with_elements
    else:
        raise DomainError(f"unknown enumeration mode {by!r}")
    for total in totals:
        for frags in _fragment_sequences(total, blocks):
            yield _assemble(frags)


def mf_counts_by_rank(max_rank_bound: int, **kwargs) -> list[int]:
    """Counts of the generated posets for each rank 1..max_rank_bound."""
    out = [0] * (max_rank_bound + 1)
    for poset in generate_mf_posets("rank", max_rank_bound, **kwargs):
        out[poset.rank] += 1
    return out[1:]


def mf_counts_by_elements(max_element_bound: int, **kwargs) -> list[int]:
    """Counts of the generated posets for each size 2..max_element_bound."""
    out = [0] * (max_element_bound + 1)
    for poset in generate_mf_posets("elements", max_element_bound, **kwargs):
        out[poset.size] += 1
    return out[2:]


def mf_rank_element_table(max_rank_bound: int, **kwargs) -> dict[tuple[int, int], int]:
    """Counts keyed by (rank, element count), from the by-rank generator."""
    table: dict[tuple[int, int], int] = {}
    for poset in generate_mf_posets("rank", max_rank_bound, **kwargs):
        key = (poset.rank, poset.size)
        table[key] = table.get(key, 0) + 1
    return table


def _bipoly_mul(a: dict, b: dict) -> dict:
    out: dict[tuple[int, int], int] = {}
    for (i1, j1), c1 in a.items():
        for (i2, j2), c2 in b.items():
            key = (i1 + i2, j1 + j2)
            out[key] = out.get(key, 0) + c1 * c2
    return {k: v for k, v in out.items() if v}


def u_bivariate(rank_cap: int, size_cap: int,
                numerator_y_power: int = 2) -> TruncatedSeries:
    """The bivariate rational series counting the family by rank (x) and
    element count (y).

    The correct numerator factor is (1 - 3 x y^2); numerator_y_power = 3
    selects the (1 - 3 x y^3) variant, which fails the brute-force
    cross-check and exists here only so tests can demonstrate that failure.
    """
    p = numerator_y_power
    num = _bipoly_mul({(1, 2): 1},
                      _bipoly_mul({(0, 0): 1, (1, 2): -1},
                                  {(0, 0): 1, (1, p): -3}))
    den = {(0, 0): 1, (1, 1): -1, (1, 2): -5,
           (2, 3): 4, (2, 4): 5, (3, 5): -3}
    return expand_rational(num, den, (rank_cap, size_cap), variables=("x", "y"))
