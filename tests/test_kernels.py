import hashlib
import itertools
import math
import operator
import random
import re
import types
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from salient import _kernels, _pykernels
from salient.posets import (NaturalPoset, all_natural_posets,
                            q_from_commuting_word)
from salient.words import descent_set

try:
    from salient import _ckernels
except ImportError:
    _ckernels = None

needs_compiled = pytest.mark.skipif(_ckernels is None,
                                    reason="compiled kernels not built")

PACKAGE = Path(_pykernels.__file__).parent
# sha256 of the _ckernels.pyx that the shipped _ckernels.c was generated from
CKERNELS_PYX_SHA256 = (
    "11caa48ac658ee6bb336a8683fd142b0060b67ac70bd321d49bd99137f95c9a6")


def test_backend_selected():
    assert _kernels.BACKEND in ("python", "c")
    assert "python" in _kernels.backends()


def test_edge_cases():
    assert _kernels.descent_vector(0, ()) == [1]
    assert _kernels.natural_flag_vectors(0, ()) == ([1], [1])
    assert _kernels.descent_vector(1, (0,)) == [1]
    assert _kernels.natural_flag_vectors(1, (0,)) == ([1], [1])
    assert _kernels.zeta_vector([1, 2], 1) == [1, 3]


def _descent_tally(n, words):
    direct = [0] * max(1, 1 << max(n - 1, 0))
    for w in words:
        mask = 0
        for i in descent_set(w):
            mask |= 1 << (i - 1)
        direct[mask] += 1
    return direct


def test_descent_vector_against_direct_enumeration():
    for n in range(7):
        for q in all_natural_posets(n):
            vec = _kernels.descent_vector(q.n, q.down)
            assert vec == _descent_tally(n, q.linear_extensions())


def test_descent_vector_past_six_elements():
    # the antichain on [7]: every permutation is a linear extension
    words = itertools.permutations(range(1, 8))
    assert (_pykernels.descent_vector(7, (0,) * 7)
            == _descent_tally(7, words))
    for n in range(11):
        q = q_from_commuting_word(n)
        assert (_pykernels.descent_vector(n, q.down)
                == _descent_tally(n, q.linear_extensions()))
    # two elements: one forced order, or both orders
    assert _pykernels.descent_vector(2, NaturalPoset.chain(2).down) == [1, 0]
    assert _pykernels.descent_vector(2, NaturalPoset.antichain(2).down) == [1, 1]


def test_order_ideals_list_sub_ideals_first():
    """order_ideals lists every ideal after all of its sub-ideals, so a
    pass in list order can push each ideal's finished value to its covers
    (NaturalPoset.extension_count relies on this)."""
    for n in range(7):
        for q in all_natural_posets(n):
            ideals = _pykernels.order_ideals(q.down)
            for k, ideal in enumerate(ideals):
                assert all(later & ~ideal for later in ideals[k + 1:])


def test_pure_flag_vectors_match_lattice():
    for n in range(6):
        for q in all_natural_posets(n):
            alpha, beta = _pykernels.natural_flag_vectors(q.n, q.down)
            J = q.ideals_lattice()
            assert alpha == J.flag_alpha_vector()
            assert beta == J.flag_beta_vector()


def _loop_transform(vec, nbits, sign):
    # out[S] = sum over T subset of S of sign^|S - T| vec[T], bit by bit
    out = list(vec)
    for b in range(nbits):
        bit = 1 << b
        for s in range(len(out)):
            if s & bit:
                out[s] += sign * out[s ^ bit]
    return out


# The reference for the packed butterfly of zeta_vector and moebius_vector:
# the list-based butterfly it replaced, which runs every level as map(op,
# ...) over list slices. Both transforms must agree with it exactly.

# Entries per slice in _ref_butterfly: slices of at most this many entries keep
# each level's temporaries small whatever the vector length.
_REF_TILE = 1 << 12


def _ref_butterfly(vec, nbits: int, op) -> list[int]:
    """Apply out[S] = op(out[S], out[S - {b}]) for every S holding bit b,
    bit by bit for b < nbits: the subset-sum (op = add) or Moebius (op =
    sub) transform of a vector of 2**nbits entries.

    Bits below the tile width are done tile by tile, through strided slices
    while the stride is short and through contiguous half-blocks once the
    half-blocks are long. Higher bits pair whole tiles. Every level runs as
    map(op, ...) over slices of at most _REF_TILE entries.
    """
    size = 1 << nbits
    if len(vec) != size:
        raise ValueError("vector length must be 2**nbits")
    out = list(vec)
    tile = min(size, _REF_TILE)
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


def test_zeta_inverts_moebius():
    # past 2**12 entries the reference butterfly pairs whole slices of
    # _REF_TILE entries, so nbits <= 14 runs both its in-slice and its
    # cross-slice levels; entries of 2**70 give packed fields of 10 bytes
    rng = random.Random(2)
    big = 2**70
    for nbits in range(15):
        vec = [rng.choice((rng.randint(-9, 9), big, -big,
                           rng.randint(-big, big)))
               for _ in range(1 << nbits)]
        transformed = _pykernels.zeta_vector(vec, nbits)
        assert transformed == _ref_butterfly(vec, nbits, operator.add)
        assert transformed == _loop_transform(vec, nbits, 1)
        assert _kernels.zeta_vector(vec, nbits) == transformed
        inverse = _pykernels.moebius_vector(vec, nbits)
        assert inverse == _ref_butterfly(vec, nbits, operator.sub)
        assert inverse == _loop_transform(vec, nbits, -1)
        assert _pykernels.moebius_vector(transformed, nbits) == vec
        assert _pykernels.zeta_vector(inverse, nbits) == vec


# Packed fields of w bytes hold magnitudes up to 2^(8w-1) - 1; one more
# takes the next width: 2, 4 or 8 bytes, then byte by byte past 2^63.
_NEXT_WIDTH = {2: 4, 4: 8, 8: 9, 9: 10}


@settings(max_examples=60, deadline=None, database=None)
@given(nbits=st.integers(0, 14), w=st.sampled_from(sorted(_NEXT_WIDTH)),
       past=st.booleans(), signs=st.sampled_from(("zeta", "moebius", "mixed")),
       rng=st.randoms(use_true_random=False))
@example(nbits=0, w=2, past=True, signs="zeta", rng=random.Random(0))
@example(nbits=3, w=8, past=True, signs="moebius", rng=random.Random(1))
@example(nbits=14, w=4, past=False, signs="mixed", rng=random.Random(2))
def test_transforms_at_field_width_boundaries(nbits, w, past, signs, rng):
    # the magnitudes sum to the largest bound that fields of w bytes admit
    # (past=False) or to one more; with the signs aligned to a transform,
    # its entry for the full set is +-bound itself
    bound = (1 << (8 * w - 1)) - 1 + past
    assert _pykernels._field_bytes(bound) == (_NEXT_WIDTH[w] if past else w)
    size = 1 << nbits
    cuts = sorted(rng.randint(0, bound) for _ in range(min(size - 1, 40)))
    magnitudes = [b - a for a, b in zip([0] + cuts, cuts + [bound])]
    magnitudes += [0] * (size - len(magnitudes))
    rng.shuffle(magnitudes)
    sign = rng.choice((1, -1))
    full = size - 1
    if signs == "zeta":
        vec = [sign * m for m in magnitudes]
    elif signs == "moebius":
        vec = [sign * m * (-1) ** (full ^ s).bit_count()
               for s, m in enumerate(magnitudes)]
    else:
        vec = [rng.choice((1, -1)) * m for m in magnitudes]
    zeta = _pykernels.zeta_vector(vec, nbits)
    moebius = _pykernels.moebius_vector(vec, nbits)
    assert zeta == _ref_butterfly(vec, nbits, operator.add)
    assert moebius == _ref_butterfly(vec, nbits, operator.sub)
    if signs != "mixed":
        assert (zeta if signs == "zeta" else moebius)[full] == sign * bound


def _stacked_layers(ranks):
    # ranks lists (size, new) per interior rank: an antichain of that size
    # above the bottom and, unless it starts a new block, above every
    # element of the ranks below it in its block; as down-closed masks
    layers, below, bit = [[1]], 1, 2
    for size, new in ranks:
        if new:
            below = 1
        layers.append([below | bit << i for i in range(size)])
        below |= (bit << size) - bit
        bit <<= size
    return layers + [[(bit << 1) - 1]]


def _stacked_flag_vectors(ranks):
    # a chain stays in one block, where alpha(S) is the product of the
    # sizes of the ranks in S; so for S meeting the blocks in the parts P,
    # beta(S) = (-1)^|S| (1 + sum over P of (prod_{r in P} (1 - size_r) - 1))
    blocks = list(itertools.accumulate(new for _, new in ranks))
    alpha, beta = [], []
    for s in range(1 << len(ranks)):
        parts: dict[int, list[int]] = {}
        for r, (size, _) in enumerate(ranks):
            if s >> r & 1:
                parts.setdefault(blocks[r], []).append(size)
        alpha.append(math.prod(next(iter(parts.values())))
                     if len(parts) == 1 else int(not parts))
        beta.append((-1) ** s.bit_count() * (1 + sum(
            math.prod(1 - size for size in part) - 1
            for part in parts.values())))
    return alpha, beta


@settings(max_examples=60, deadline=None, database=None)
@given(st.lists(st.tuples(st.integers(1, 9), st.booleans()), max_size=12))
# one block: alpha bounds 7 * 31 * 151 = 2^15 - 1 and 2^15, beta bounds
# (the product of size + 1) 2^15 - 1 and 2^15, alpha bound 2^31, alpha
# entries past 2^63; two blocks: beta entries down to -27002
@example([(7, False), (31, False), (151, False)])
@example([(32, False), (32, False), (32, False)])
@example([(6, False), (30, False), (150, False)])
@example([(31, False), (31, False), (31, False)])
@example([(256, False), (256, False), (256, False), (128, False)])
@example([(129, False)] * 9)
@example([(7, False), (31, False), (151, False), (2, True)])
def test_chain_counts_at_field_width_boundaries(ranks):
    layers = _stacked_layers(ranks)
    assert (_pykernels.chain_counts(layers),
            _pykernels.chain_counts(layers, moebius=True)) == (
                _stacked_flag_vectors(ranks))


def test_transforms_reject_wrong_lengths():
    for transform in (_pykernels.zeta_vector, _pykernels.moebius_vector):
        with pytest.raises(ValueError):
            transform([1, 2, 3], 2)
        with pytest.raises(ValueError):
            transform([1, 2], 0)


@needs_compiled
def test_backend_parity_exhaustive():
    for n in range(6):
        for q in all_natural_posets(n):
            assert (_pykernels.descent_vector(q.n, q.down)
                    == _ckernels.descent_vector(q.n, q.down))
            assert (_pykernels.natural_flag_vectors(q.n, q.down)
                    == _ckernels.natural_flag_vectors(q.n, q.down))


@needs_compiled
def test_backend_parity_sampled():
    rng = random.Random(3)
    for n in (6, 7):
        sweep = all_natural_posets(n)
        for q in rng.sample(sweep, 200):
            assert (_pykernels.descent_vector(q.n, q.down)
                    == _ckernels.descent_vector(q.n, q.down))
            assert (_pykernels.natural_flag_vectors(q.n, q.down)
                    == _ckernels.natural_flag_vectors(q.n, q.down))
            vec = _pykernels.natural_flag_vectors(q.n, q.down)[1]
            assert (_pykernels.zeta_vector(vec, n - 1)
                    == _ckernels.zeta_vector(vec, n - 1))


@needs_compiled
def test_compiled_range_guard():
    with pytest.raises(ValueError):
        _ckernels.descent_vector(15, (0,) * 15)
    # the dispatcher falls back to pure python past the compiled range
    down = tuple((1 << max(i - 1, 0)) - 1 for i in range(15))
    vec = _kernels.descent_vector(15, down)
    assert sum(vec) == 987


def test_zeta_vector_routes_wrapping_sums_to_pure(monkeypatch):
    # a stand-in for the compiled twin: int64 sums that wrap on overflow
    calls = []

    def int64_zeta_vector(vec, nbits):
        calls.append(list(vec))
        return [(v + 2**63) % 2**64 - 2**63
                for v in _pykernels.zeta_vector(vec, nbits)]

    monkeypatch.setattr(_kernels, "_impl",
                        types.SimpleNamespace(zeta_vector=int64_zeta_vector))
    assert _kernels.zeta_vector([2**62 - 1, 2**62 - 1], 1) == [
        2**62 - 1, 2**63 - 2]
    assert _kernels.zeta_vector([2**62, 2**62], 1) == [2**62, 2**63]
    assert _kernels.zeta_vector([-2**62, -2**62 - 1], 1) == [
        -2**62, -2**63 - 1]
    assert calls == [[2**62 - 1, 2**62 - 1]]


def test_shipped_c_twin_pinned_to_pyx():
    digest = hashlib.sha256(
        (PACKAGE / "_ckernels.pyx").read_bytes()).hexdigest()
    assert digest == CKERNELS_PYX_SHA256, (
        "_ckernels.pyx changed since _ckernels.c was generated: regenerate "
        "the .c with Cython (setup.py build_ext --inplace with Cython "
        "installed) and record the new hash in CKERNELS_PYX_SHA256")


def test_shipped_c_twin_quotes_pyx_lines():
    # Cython quotes each source line it compiles as
    #   /* "salient/_ckernels.pyx":N ... * <line N>  # <<<<<<<<<<<<<<
    pyx = (PACKAGE / "_ckernels.pyx").read_text().splitlines()
    c_source = (PACKAGE / "_ckernels.c").read_text()
    quoted = re.findall(
        r'/\* "salient/_ckernels\.pyx":(\d+)\n(?: \*.*\n)*?'
        r' \* (.*?) +# <{14}\n', c_source)
    assert len(quoted) > 100
    for number, line in quoted:
        assert line.strip() == pyx[int(number) - 1].strip(), number
