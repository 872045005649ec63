"""Deterministic random streams.

All sampling in the package flows through numpy's PCG64 generator, a fixed,
documented 64-bit algorithm: the same seed produces the identical stream of
draws on every platform.  Reports record the seed they were produced with, so
any counterexample can be regenerated exactly.
"""

from __future__ import annotations

import numpy as np


def make_rng(seed: int) -> np.random.Generator:
    """Generator for the main sample stream of a run."""
    return np.random.Generator(np.random.PCG64(seed))

