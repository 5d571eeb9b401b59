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

The flag kernels keep their inner loops out of the interpreter by packing
each vector into one int of fixed-width fields, entry S in field S
(Kronecker substitution). chain_counts adds a lower element's whole vector
with one big-int addition and decodes only its final vector.
zeta_vector and moebius_vector are one butterfly (Yates' method, the fast
zeta/Moebius transform of Bjorklund, Husfeldt, Kaski and Koivisto) in which
every level is a few big-int operations that add or subtract the packed
vector field by field, differing only in that operation. The field width
comes from a bound on the final entries computed up front, so nothing
truncates or wraps, and the vectors returned are plain lists.

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

import math
import sys
from array import array

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
    # walk holds itself through its cell: clear it, or out and free wait
    # for the cyclic collector
    del walk
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

    Packed vectors: a vector v is held as the one int sum_S v[S] * 2^(W*S),
    W = 8 * _field_bytes(bound) bits per entry. That map is a ring
    homomorphism, so sums, differences and shifts of packed vectors are
    exact whatever the size of their entries, and only the final vector
    needs fields wide enough to be read back. So f(y) is 1 plus the sum of
    f(x) * 2^(W * 2^(s-1)) over every x < y, with s the rank of x: each
    element keeps its vector pre-shifted to its block, and y sums the
    lower elements in one call. A chain takes at most one element per rank,
    so no entry exceeds the product of the interior layer sizes.

    Moebius mode builds the flag h-vector b(y) of each element the same
    way. In the alternating sum b(y)[S] over the subsets T of a rank set S
    with largest rank s, the T holding s give the sum of b(x)[S - {s}] over
    the x < y of rank s, and the others give -b(y)[S - {s}]. So block s of
    b(y) is the sum of b(x) over the x < y of rank s minus the prefix b(y)
    built so far, rank block by rank block. |b[S]| is at most the sum of
    the f-vector entries of the subsets of S, and so at most the product of
    (1 + size) over the interior layers. flag_vectors takes this mode
    instead of the butterfly of moebius_vector where moebius_by_recursion
    finds it no dearer.
    """
    n = len(layers) - 1
    if n <= 0:
        return [1]
    sizes = [len(layer) for layer in layers[1:n]]
    w = _field_bytes(math.prod([size + 1 for size in sizes] if moebius
                               else sizes))
    width = 8 * w
    if moebius:
        # done[s - 1] pairs each element of rank s with its packed b
        done: list[list[tuple[int, int]]] = []
        for r in range(1, n + 1):
            # at r = n, the virtual top: mask -1 holds every mask
            rows = []
            for y in (layers[r] if r < n else [-1]):
                vec = 1
                for s, below in enumerate(done):
                    total = sum([bx for x, bx in below if not x & ~y])
                    vec += (total - vec) << (width << s)
                rows.append((y, vec))
            done.append(rows)
        top = done[-1][0][1]
        # the tables go before the decoded list is built, which keeps the
        # peak memory near that of the final vector
        del done, rows
    else:
        # each element of rank 1..r-1 with its packed f shifted to its block
        lower: list[tuple[int, int]] = []
        for r in range(1, n):
            lower += [(y, (1 + sum([fx for x, fx in lower if not x & ~y]))
                       << (width << (r - 1))) for y in layers[r]]
        top = 1 + sum([fx for _, fx in lower])
        del lower
    count = 1 << (n - 1)
    # adding 2^(W-1) to every field makes each non-negative, so none
    # borrows from the next; flipping that bit back leaves each field in
    # two's complement
    high = _high_bits(count, w)
    top = (top + high) ^ high
    return _unpack(top, count, w)


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
    for r, count in enumerate(sizes[1:], 1):
        work += count * below
        below += count << r >> 1   # an element of rank r keeps 2^(r-1)
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


# array typecodes of the signed fields _pack and _unpack convert in one call,
# by their width in bytes
_SIGNED = {array(code).itemsize: code for code in "hiq"}


def _field_bytes(bound: int) -> int:
    """Bytes per packed field for entries of magnitude at most bound: the
    fewest w with bound < 2^(8w-1), rounded up to 2, 4 or 8 while at most
    8 so that _pack and _unpack convert the fields through array."""
    w = (bound.bit_length() + 8) >> 3
    return w if w > 8 else 8 if w > 4 else 4 if w > 2 else 2


def _high_bits(count: int, w: int) -> int:
    """The top bit of each of count fields of w bytes."""
    return int.from_bytes((bytes(w - 1) + b"\x80") * count, "little")


def _pack(vec, w: int) -> int:
    """vec as fields of w bytes, entry i in field i, each in two's
    complement."""
    code = _SIGNED.get(w)
    if code is None:
        data = b"".join(v.to_bytes(w, "little", signed=True) for v in vec)
    else:
        fields = array(code, vec)
        if sys.byteorder == "big":
            fields.byteswap()
        data = fields.tobytes()
    return int.from_bytes(data, "little")


def _unpack(packed: int, count: int, w: int) -> list[int]:
    """The count fields of w bytes of packed, low field first, each read as
    a two's complement int: the inverse of _pack."""
    code = _SIGNED.get(w)
    if code is None:
        data = packed.to_bytes(count * w, "little")
        return [int.from_bytes(data[i:i + w], "little", signed=True)
                for i in range(0, len(data), w)]
    fields = array(code)
    fields.frombytes(packed.to_bytes(count * w, "little"))
    if sys.byteorder == "big":
        fields.byteswap()
    return fields.tolist()


def _swar_add(x: int, y: int, low: int, high: int) -> int:
    """Field-wise x + y mod 2^W: the low bits add without carrying out of
    their field, and the top bit of each field is their parity."""
    return ((x & low) + (y & low)) ^ ((x ^ y) & high)


def _swar_sub(x: int, y: int, low: int, high: int) -> int:
    """Field-wise x - y mod 2^W: each field's top bit is set before the low
    bits are subtracted, so no borrow leaves the field, and then corrected
    to the parity of the top bits and the borrow."""
    return ((x | high) - (y & low)) ^ ((x ^ y ^ high) & high)


def _butterfly(vec, nbits: int, op) -> list[int]:
    """Apply out[S] = op(out[S], out[S - {b}]) for every S holding bit b,
    bit by bit for b < nbits: the subset-sum (op = _swar_add) or Moebius
    (op = _swar_sub) transform of a vector of 2**nbits entries.

    The vector is packed into one int of 2**nbits fields of w bytes, each
    entry in two's complement (SWAR: SIMD within a register). Every level
    is a few big-int operations over the whole vector: the fields without
    bit b are masked out and shifted up by 2^b fields onto their partners,
    and op combines the two field by field, exactly mod 2^(8w). Each
    output is a signed sum of distinct inputs, so w is the fewest bytes
    with sum|v| < 2^(8w-1), and every output reads back exactly.
    """
    size = 1 << nbits
    if len(vec) != size:
        raise ValueError("vector length must be 2**nbits")
    w = _field_bytes(sum(map(abs, vec)))
    out = _pack(vec, w)
    high = _high_bits(size, w)
    low = ((1 << (8 * w * size)) - 1) ^ high
    # the fields whose index has bit b clear, from the top bit down: the
    # mask for bit b + 1 XOR itself shifted up by 2^b fields
    lower = (1 << (8 * w * size >> 1)) - 1
    for b in reversed(range(nbits)):
        shift = 8 * w << b
        if b < nbits - 1:
            lower ^= lower << shift
        out = op(out, (out & lower) << shift, low, high)
    return _unpack(out, size, w)


def zeta_vector(vec, nbits: int) -> list[int]:
    """Subset-sum transform: out[S] = sum of vec[T] over T subset of S.

    The butterfly with op = _swar_add: after the passes over a set of bits,
    each entry holds the sum over the subsets that differ from it in those
    bits only. Inverse of moebius_vector; takes a flag h-vector beta back to
    alpha.
    """
    return _butterfly(vec, nbits, _swar_add)


def moebius_vector(vec, nbits: int) -> list[int]:
    """Moebius transform: out[S] = sum of (-1)^|S - T| vec[T] over T subset
    of S. The butterfly with op = _swar_sub; takes a flag f-vector alpha to
    the flag h-vector beta. Inverse of zeta_vector."""
    return _butterfly(vec, nbits, _swar_sub)
