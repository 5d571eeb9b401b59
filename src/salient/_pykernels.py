"""Pure-Python implementations of the enumeration kernels.

These are the hot inner loops of the exhaustive sweeps: tabulating linear
extensions of a natural poset by descent set, and computing the flag f/h
vectors of its lattice of order ideals. descent_vector, natural_flag_vectors
and zeta_vector have compiled twins in salient._ckernels with identical
contracts, and salient._kernels selects whichever is importable.
order_ideals, chain_counts and moebius_vector have no twin: they are the one
ideal enumerator, chain counter and Moebius transform of the pure path, which
salient.posets calls directly for posets of every kind.

Conventions shared by both backends:

* a natural poset on n elements is passed as ``down``, a sequence where
  down[i] is the bitmask of elements strictly below element i (0-based
  labels, and down[i] only has bits below i),
* subsets S of [n-1] are encoded as bitmasks with bit i-1 for rank i,
* returned vectors are plain lists of ints indexed by those bitmasks.
"""
from __future__ import annotations

from salient.errors import GuardExceeded

BACKEND = "python"


def descent_vector(n: int, down) -> list[int]:
    """Counts of linear extensions grouped by descent set.

    Entry D of the result is the number of linear extensions w (read as words
    in the 0-based labels) with w[p-1] > w[p] exactly at the positions p whose
    bit p-1 is set in D.
    """
    if n <= 0:
        return [1]
    out = [0] * (1 << (n - 1))
    down = tuple(down)
    full = (1 << n) - 1

    def rec(placed: int, depth: int, last: int, dmask: int) -> None:
        if placed == full:
            out[dmask] += 1
            return
        for e in range(n):
            bit = 1 << e
            if placed & bit or down[e] & ~placed:
                continue
            if depth and e < last:
                rec(placed | bit, depth + 1, e, dmask | (1 << (depth - 1)))
            else:
                rec(placed | bit, depth + 1, e, dmask)

    rec(0, 0, -1, 0)
    return out


def order_ideals(down, cap: int | None = None) -> list[int]:
    """Order ideals of a natural poset given by its down-set masks, in build
    order: element i joins every ideal listed so far that holds its down-set.
    Raises GuardExceeded once there are more than cap of them."""
    ideals = [0]
    for i, di in enumerate(down):
        bit = 1 << i
        ideals += [m | bit for m in ideals if not di & ~m]
        if cap is not None and len(ideals) > cap:
            raise GuardExceeded(f"more than {cap} order ideals")
    return ideals


def chain_counts(layers) -> list[int]:
    """Flag f-vector of a graded poset of rank n = len(layers) - 1.

    layers[r] lists the rank-r elements as down-closed bitmasks, so x <= y
    exactly when mask x is a subset of mask y. Entry S of the result counts
    the chains whose elements have exactly the ranks in S (bit i-1 for rank
    i, 0 < i < n).
    """
    n = len(layers) - 1
    alpha = [0] * (1 << max(n - 1, 0))
    alpha[0] = 1

    def extend(last: int, vec: list[int], smask: int) -> None:
        for r in range(last + 1, n):
            prev = layers[last]
            nvec = []
            for ideal in layers[r]:
                tot = 0
                for k, sub in enumerate(prev):
                    if not sub & ~ideal:
                        tot += vec[k]
                nvec.append(tot)
            m2 = smask | (1 << (r - 1))
            alpha[m2] = sum(nvec)
            extend(r, nvec, m2)

    for r in range(1, n):
        vec = [1] * len(layers[r])
        mask = 1 << (r - 1)
        alpha[mask] = len(layers[r])
        extend(r, vec, mask)
    return alpha


def natural_flag_vectors(n: int, down) -> tuple[list[int], list[int]]:
    """Flag f- and h-vectors of the lattice of order ideals of a natural poset.

    Returns (alpha, beta). alpha[S] counts chains of ideals whose sizes hit
    exactly the ranks in S; beta is the inclusion-exclusion transform of
    alpha. Ideal enumeration relies on naturality (down[i] has only bits
    below i).
    """
    if n <= 0:
        return [1], [1]
    layers: list[list[int]] = [[] for _ in range(n + 1)]
    for m in order_ideals(down):
        layers[bin(m).count("1")].append(m)
    alpha = chain_counts(layers)
    return alpha, moebius_vector(alpha, n - 1)


def zeta_vector(vec, nbits: int) -> list[int]:
    """Subset-sum transform: out[S] = sum of vec[T] over T subset of S.

    Inverse of moebius_vector, used to check Moebius inversion round trips.
    """
    out = list(vec)
    for b in range(nbits):
        bit = 1 << b
        for s in range(len(out)):
            if s & bit:
                out[s] += out[s ^ bit]
    return out


def moebius_vector(vec, nbits: int) -> list[int]:
    """Moebius transform: out[S] = sum of (-1)^|S - T| vec[T] over T subset
    of S. Takes a flag f-vector alpha to the flag h-vector beta; inverse of
    zeta_vector."""
    out = list(vec)
    for b in range(nbits):
        bit = 1 << b
        for s in range(len(out)):
            if s & bit:
                out[s] -= out[s ^ bit]
    return out
