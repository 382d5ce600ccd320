"""Deterministic seed derivation for named random streams.

Python's builtin ``hash`` is salted per process, so every seeded stream in
the package derives its integer seed from a SHA-256 digest of its textual
identity instead.  The same parts always give the same seed, on any
platform, in any process.  An integer part that is not a bool counts as
the ``int`` it equals, so a numpy integer seeds the same streams as a
Python one.
"""

from __future__ import annotations

import hashlib
import numbers
import random


def derive_seed(*parts: object) -> int:
    """Map a tuple of identifying parts to a stable 63-bit seed."""
    # The type test spares the common parts the slower ABC check.
    text = "\x1f".join(repr(p if type(p) in (int, str, bool) or not isinstance(p, numbers.Integral)
                             else int(p)) for p in parts)
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little") & 0x7FFF_FFFF_FFFF_FFFF


def check_seed(seed: object) -> int:
    """``seed`` as an ``int``; ``ValueError`` unless it is an integer and not a bool."""
    if not isinstance(seed, numbers.Integral) or isinstance(seed, bool):
        raise ValueError(f"rng_seed must be an integer, got {seed!r}")
    return int(seed)


def stream(*parts: object) -> random.Random:
    """A fresh ``random.Random`` seeded from the given identity parts."""
    return random.Random(derive_seed(*parts))
