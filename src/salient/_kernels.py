"""Backend selection for the enumeration kernels.

Imports the compiled kernels when the extension was built, otherwise the
pure-Python twins; SALIENT_PURE=1 forces the fallback. The compiled backend
only accepts n <= 14 (int64 counts), so calls beyond that are routed to the
pure backend, whose Python ints never overflow. zeta_vector also goes there
when its inputs are large enough for an int64 sum to wrap.
"""
from __future__ import annotations

import os

from salient import _pykernels

if os.environ.get("SALIENT_PURE") == "1":
    _ckernels = None
else:
    try:
        from salient import _ckernels
    except ImportError:
        _ckernels = None

_impl = _ckernels if _ckernels is not None else _pykernels

BACKEND: str = _impl.BACKEND
_C_MAX_N = 14


def descent_vector(n: int, down) -> list[int]:
    if _impl is not _pykernels and n > _C_MAX_N:
        return _pykernels.descent_vector(n, down)
    return _impl.descent_vector(n, down)


def natural_flag_vectors(n: int, down) -> tuple[list[int], list[int]]:
    if _impl is not _pykernels and n > _C_MAX_N:
        return _pykernels.natural_flag_vectors(n, down)
    return _impl.natural_flag_vectors(n, down)


def zeta_vector(vec, nbits: int) -> list[int]:
    # each output sums at most 2**nbits inputs, so the int64 twin cannot
    # wrap while max|v| * 2**nbits < 2**63
    if _impl is not _pykernels and (
            nbits >= _C_MAX_N
            or max(map(abs, vec), default=0) >= 1 << (63 - nbits)):
        return _pykernels.zeta_vector(vec, nbits)
    return _impl.zeta_vector(vec, nbits)


def backends() -> dict[str, object]:
    """Importable kernel modules keyed by backend name (for benchmarks)."""
    out: dict[str, object] = {"python": _pykernels}
    if _ckernels is not None:
        out["c"] = _ckernels
    return out
