"""Payload size accounting for the simulated MPI.

The simulator prices messages by byte count.  ``nbytes_of`` infers the
wire size of common Python payloads (NumPy arrays, buffers, scalars,
uniform containers) so callers can write ``comm.send(dest, payload=arr,
nbytes=nbytes_of(arr))`` — or use :func:`sized` to do both at once.
"""

from __future__ import annotations

import sys
from typing import Any, Tuple

from repro.errors import ConfigError

#: Wire sizes of scalar Python types (C-equivalent encodings).
_SCALAR_SIZES = {
    bool: 1,
    int: 8,
    float: 8,
    complex: 16,
}


def nbytes_of(payload: Any) -> int:
    """Best-effort wire size (bytes) of ``payload``.

    NumPy arrays and anything exposing ``nbytes`` report exactly; bytes
    and strings by length; scalars by their C width; lists/tuples of a
    uniform scalar type as ``len × width``.  Anything else raises —
    better an explicit ``nbytes=`` than a silently mispriced message.
    """
    if payload is None:
        return 0
    nb = getattr(payload, "nbytes", None)
    if nb is not None:
        return int(nb)
    if isinstance(payload, (bytes, bytearray, memoryview)):
        return len(payload)
    if isinstance(payload, str):
        return len(payload.encode())
    for typ, width in _SCALAR_SIZES.items():
        if isinstance(payload, typ):
            return width
    if isinstance(payload, (list, tuple)) and payload:
        first = type(payload[0])
        if first in _SCALAR_SIZES and all(isinstance(x, first) for x in payload):
            return len(payload) * _SCALAR_SIZES[first]
        # A list of arrays implies NumPy is already loaded; never import it.
        np = sys.modules.get("numpy")
        if np is not None and all(isinstance(x, np.ndarray) for x in payload):
            return int(sum(x.nbytes for x in payload))
    raise ConfigError(
        f"cannot infer wire size of {type(payload).__name__}; pass nbytes explicitly"
    )


def sized(payload: Any) -> Tuple[Any, int]:
    """``(payload, nbytes_of(payload))`` — for unpacking into send calls."""
    return payload, nbytes_of(payload)
