"""Cross-engine numeric determinism helpers.

The oracle gate hashes float values exactly, so every float the engine
emits must be bit-identical to what DuckDB computes.  Two rules:

1. never accumulate floats in engine-dependent order — sum exact scaled
   int64 instead (``to_int_scaled``);
2. never use an engine's ``round()`` — pyarrow rounds half-to-even,
   DuckDB half-away-from-zero, and scaled doubles DO land on exact .5
   ties in practice.  ``round_half_up`` = floor(x * 10^d + 0.5) / 10^d,
   identical IEEE ops on both engines (all values here are >= 0).
   The SQL mirror is ``floor(x * 1eD + 0.5) / 1eD``.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc


def to_int_scaled(arr, scale: float) -> pa.Array:
    """float -> exact int64 of floor(x*scale + 0.5)."""
    return pc.cast(pc.floor(pc.add(pc.multiply(arr, pa.scalar(float(scale))),
                                   pa.scalar(0.5))), pa.int64())


def round_half_up(arr, ndigits: int):
    """pyarrow: floor(x*10^d + 0.5) / 10^d (deterministic half-up)."""
    s = float(10 ** ndigits)
    return pc.divide(
        pc.floor(pc.add(pc.multiply(arr, pa.scalar(s)), pa.scalar(0.5))),
        pa.scalar(s))


def np_round_half_up(a: np.ndarray, ndigits: int) -> np.ndarray:
    s = float(10 ** ndigits)
    return np.floor(a * s + 0.5) / s
