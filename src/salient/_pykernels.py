"""Pure-Python implementations of the enumeration kernels.

These are the hot inner loops of the exhaustive sweeps: tabulating linear
extensions of a natural poset by descent set, and computing the flag f/h
vectors of its lattice of order ideals. descent_vector, natural_flag_vectors
and zeta_vector have compiled twins in salient._ckernels with identical
contracts, and salient._kernels selects whichever is importable.
order_ideals, chain_counts, flag_vectors and moebius_vector have no twin:
they are the one ideal enumerator, chain counter, flag vector pass and
Moebius transform of the pure path, which salient.posets calls directly for
posets of every kind.

descent_vector is a brute force: it reaches every linear extension once,
depth first, and does little interpreter work per extension. Each placed
ideal's free elements are listed once and reused by every path through that
ideal, and the last two elements are placed inline. It lists its free
elements from down itself, so it shares nothing with order_ideals and the
flag kernels it is checked against.

The flag kernels keep their inner loops out of the interpreter.
chain_counts builds each element's chain counts rank block by rank block,
summing whole lists of lower elements with map and zip. zeta_vector and
moebius_vector are one butterfly over list slices (Yates' method, the fast
zeta/Moebius transform of Bjorklund, Husfeldt, Kaski and Koivisto),
differing only in the operator.

Every flag vector pair (alpha, beta) of the pure path comes from
flag_vectors, beta after alpha. For beta it chooses from the layer sizes
alone (moebius_by_recursion): the Moebius mode of chain_counts, which
builds beta by the same recursion, block by block, where it sums no more
entries than the butterfly's (n-1) * 2^(n-2), and moebius_vector(alpha)
otherwise. Thin posets of rank 13 or more, such as the lattices
L(gamma), take the recursion; wide ones, such as Boolean lattices and most
ideal lattices of seven-element posets, the butterfly. moebius_vector also
stays the inverse of zeta_vector and the reference the tests hold both
passes to.

Conventions shared by both backends:

* a natural poset on n elements is passed as ``down``, a sequence where
  down[i] is the bitmask of elements strictly below element i (0-based
  labels, and down[i] only has bits below i),
* subsets S of [n-1] are encoded as bitmasks with bit i-1 for rank i,
* returned vectors are plain lists of ints indexed by those bitmasks.
"""
from __future__ import annotations

import itertools
import operator

from salient.errors import GuardExceeded

BACKEND = "python"


def descent_vector(n: int, down) -> list[int]:
    """Counts of linear extensions grouped by descent set.

    Entry D of the result is the number of linear extensions w (read as words
    in the 0-based labels) with w[p-1] > w[p] exactly at the positions p whose
    bit p-1 is set in D.

    free maps each placed ideal to its free elements, ascending, each with
    the ideal it extends to. With two elements left the walk counts the
    extensions directly: only the smaller is free when the larger lies
    above it, and otherwise both orders count.
    """
    if n <= 1:
        return [1]
    down = tuple(down)
    # bit p of dmask marks a descent at position p; position 0 has none, so
    # entry D of the result is out[2 * D]
    out = [0] * (1 << n)
    tail = 1 << (n - 2)
    free: dict[int, list[tuple[int, int]]] = {}

    def walk(placed: int, last: int, dmask: int, bit: int) -> None:
        succ = free.get(placed)
        if succ is None:
            succ = free[placed] = [
                (e, placed | 1 << e) for e in range(n)
                if not (placed >> e & 1 or down[e] & ~placed)]
        if bit == tail:
            a = succ[0][0]
            out[dmask | bit if a < last else dmask] += 1
            if len(succ) == 2:
                b = succ[1][0]
                out[(dmask | bit if b < last else dmask) | bit << 1] += 1
            return
        nxt = bit << 1
        for e, ideal in succ:
            if e < last:
                walk(ideal, e, dmask | bit, nxt)
            else:
                walk(ideal, e, dmask, nxt)

    walk(0, -1, 0, 1)
    return out[::2]


def order_ideals(down, cap: int | None = None) -> list[int]:
    """Order ideals of a natural poset given by its down-set masks, in build
    order: element i joins every ideal listed so far that holds its down-set.
    Every ideal comes after all of its sub-ideals (an ideal with top element
    h is built in round h from one listed before), which
    NaturalPoset.extension_count relies on. Raises GuardExceeded once there
    are more than cap of them."""
    ideals = [0]
    for i, di in enumerate(down):
        bit = 1 << i
        ideals += [m | bit for m in ideals if not di & ~m]
        if cap is not None and len(ideals) > cap:
            raise GuardExceeded(f"more than {cap} order ideals")
    return ideals


def layer_entries(sizes) -> list[int]:
    """Entries of a chain-count table by rank: with sizes[r] elements of
    rank r, chain_counts keeps 2^(r-1) entries for each element of rank r
    >= 1, so entry r - 1 of the result is sizes[r] * 2^(r-1)."""
    return [count << r >> 1 for r, count in enumerate(sizes) if r]


def chain_counts(layers, moebius: bool = False) -> list[int]:
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


def moebius_by_recursion(sizes) -> bool:
    """Whether the flag h-vector of a bounded graded poset with sizes[r]
    elements of rank r costs no more by chain_counts(..., moebius=True)
    than by the butterfly of moebius_vector.

    An element of rank r sums at most the vectors of every lower element,
    so the recursion adds at most sum_r sizes[r] * sum_{s<r} sizes[s] *
    2^(s-1) entries; the butterfly does (n-1) * 2^(n-2) subtractions. Thin
    posets (at most two elements per rank) of rank 13 or more take the
    recursion, wide ones such as Boolean lattices the butterfly.
    """
    n = len(sizes) - 1
    below = work = 0
    for count, entries in zip(sizes[1:], layer_entries(sizes)):
        work += count * below
        below += entries
    return n > 1 and work <= (n - 1) << (n - 2)


def flag_vectors(layers) -> tuple[list[int], list[int]]:
    """Flag f- and h-vectors (alpha, beta) of the bounded graded poset given
    as for chain_counts. alpha is chain_counts(layers); beta comes from the
    Moebius mode of chain_counts where moebius_by_recursion says it is no
    dearer, and from moebius_vector(alpha) otherwise."""
    alpha = chain_counts(layers)
    if moebius_by_recursion(list(map(len, layers))):
        return alpha, chain_counts(layers, moebius=True)
    return alpha, moebius_vector(alpha, max(len(layers) - 2, 0))


def natural_flag_vectors(n: int, down) -> tuple[list[int], list[int]]:
    """Flag f- and h-vectors of the lattice of order ideals of a natural poset.

    Returns (alpha, beta). alpha[S] counts chains of ideals whose sizes hit
    exactly the ranks in S; beta is the inclusion-exclusion transform of
    alpha (see flag_vectors). Ideal enumeration relies on naturality
    (down[i] has only bits below i).
    """
    if n <= 0:
        return [1], [1]
    layers: list[list[int]] = [[] for _ in range(n + 1)]
    for m in order_ideals(down):
        layers[bin(m).count("1")].append(m)
    return flag_vectors(layers)


# Entries per slice in _butterfly: slices of at most this many entries keep
# each level's temporaries small whatever the vector length.
_TILE = 1 << 12


def _butterfly(vec, nbits: int, op) -> list[int]:
    """Apply out[S] = op(out[S], out[S - {b}]) for every S holding bit b,
    bit by bit for b < nbits: the subset-sum (op = add) or Moebius (op =
    sub) transform of a vector of 2**nbits entries.

    Bits below the tile width are done tile by tile, through strided slices
    while the stride is short and through contiguous half-blocks once the
    half-blocks are long. Higher bits pair whole tiles. Every level runs as
    map(op, ...) over slices of at most _TILE entries.
    """
    size = 1 << nbits
    if len(vec) != size:
        raise ValueError("vector length must be 2**nbits")
    out = list(vec)
    tile = min(size, _TILE)
    low = tile.bit_length() - 1
    for t in range(0, size, tile):
        end = t + tile
        for b in range(low):
            h = 1 << b
            step = h << 1
            if h * step <= tile:
                for j in range(t, t + h):
                    out[j + h:end:step] = map(
                        op, out[j + h:end:step], out[j:end:step])
            else:
                for i in range(t, end, step):
                    out[i + h:i + step] = map(
                        op, out[i + h:i + step], out[i:i + h])
    for b in range(low, nbits):
        h = 1 << b
        for i in range(0, size, h << 1):
            for c in range(i, i + h, tile):
                out[c + h:c + h + tile] = map(
                    op, out[c + h:c + h + tile], out[c:c + tile])
    return out


def zeta_vector(vec, nbits: int) -> list[int]:
    """Subset-sum transform: out[S] = sum of vec[T] over T subset of S.

    The butterfly with op = add: after the pass over bit b, each entry holds
    the sum over the subsets that differ from it in bits <= b only. Inverse
    of moebius_vector; takes a flag h-vector beta back to alpha.
    """
    return _butterfly(vec, nbits, operator.add)


def moebius_vector(vec, nbits: int) -> list[int]:
    """Moebius transform: out[S] = sum of (-1)^|S - T| vec[T] over T subset
    of S. The butterfly with op = sub; takes a flag f-vector alpha to the
    flag h-vector beta. Inverse of zeta_vector."""
    return _butterfly(vec, nbits, operator.sub)
