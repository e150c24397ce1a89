"""Process-independent canonical form of results, for digests and keys.

Sets of strings iterate in an order that depends on the interpreter's hash
seed, so ``repr`` of a result differs between processes.  ``canon`` turns
sets and dicts into sorted lists first.
"""

from __future__ import annotations

import hashlib


def canon(value):
    """Nested lists/tuples/strings/ints in a fixed order."""
    if isinstance(value, (set, frozenset)):
        return sorted((canon(v) for v in value), key=repr)
    if isinstance(value, dict):
        return sorted(([canon(k), canon(v)] for k, v in value.items()), key=repr)
    if isinstance(value, (list, tuple)):
        return [canon(v) for v in value]
    if value is None or isinstance(value, (str, int, float, bool)):
        return value
    return repr(value)


def digest(value):
    """Short hex digest of ``canon(value)``."""
    return hashlib.blake2b(repr(canon(value)).encode(), digest_size=8).hexdigest()
