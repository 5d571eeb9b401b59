import hashlib
import itertools
import random
import re
import types
from pathlib import Path

import pytest

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


def test_zeta_inverts_moebius():
    # past 2**12 entries the butterfly pairs whole tiles, so nbits <= 14
    # runs both its in-tile levels and its cross-tile levels
    rng = random.Random(2)
    big = 2**70
    for nbits in range(15):
        vec = [rng.choice((rng.randint(-9, 9), big, -big,
                           rng.randint(-big, big)))
               for _ in range(1 << nbits)]
        transformed = _pykernels.zeta_vector(vec, nbits)
        assert transformed == _loop_transform(vec, nbits, 1)
        assert _kernels.zeta_vector(vec, nbits) == transformed
        inverse = _pykernels.moebius_vector(vec, nbits)
        assert inverse == _loop_transform(vec, nbits, -1)
        assert _pykernels.moebius_vector(transformed, nbits) == vec
        assert _pykernels.zeta_vector(inverse, nbits) == vec


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
