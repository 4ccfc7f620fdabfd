"""Message authentication codes and BFT-style authenticators.

BFT's key performance trick is replacing signatures with *authenticators*:
a vector with one MAC per receiving replica, computed with pairwise
session keys.  Verification touches only the receiver's own entry.

Two optimizations from the BFT implementation (inherited by BASE) live
here:

- **MAC over digest.**  Authenticators MAC the 32-byte SHA-256 digest of
  the message, not the message itself.  The sender hashes the body once
  (the digest is cached on the message) and then computes one cheap
  fixed-size MAC per receiver, so authenticator cost is independent of
  body size — a piggybacked pre-prepare batch is hashed once, not once
  per receiver.
- **Keyed-state precomputation.**  HMAC pays a key schedule (two hash
  compressions over the padded key) every time ``hmac.new`` runs.  Since
  session keys live for a whole key epoch, we build the keyed inner/outer
  state once per key and every MAC afterwards is a ``.copy()`` plus one
  short update.
"""

from __future__ import annotations

import hashlib
import hmac
from typing import Dict, Iterable

from repro.crypto.keys import KeyRegistry

MAC_SIZE = 16  # truncated HMAC-SHA256, mirroring BFT's short UMAC tags

#: Keyed HMAC states, one per key, reused via ``.copy()``.  Bounded so a
#: pathological workload churning keys cannot grow it without limit.
#: Holds the raw OpenSSL HMAC when available (its ``copy()`` skips the
#: Python wrapper), else the stdlib :class:`hmac.HMAC`.
_KEYED_STATES: Dict[bytes, object] = {}
_KEYED_STATES_MAX = 4096


def _keyed_state(key: bytes):
    state = _KEYED_STATES.get(key)
    if state is None:
        if len(_KEYED_STATES) >= _KEYED_STATES_MAX:
            _KEYED_STATES.clear()
        wrapped = hmac.new(key, digestmod=hashlib.sha256)
        state = getattr(wrapped, "_hmac", None) or wrapped
        _KEYED_STATES[key] = state
    return state


def compute_mac(key: bytes, data: bytes) -> bytes:
    """MAC of ``data`` under ``key`` (truncated HMAC-SHA256).

    The key schedule is precomputed and cached: this is one state copy
    plus one update over ``data`` (32 bytes on the authenticator path).
    """
    h = _keyed_state(key).copy()
    h.update(data)
    return h.digest()[:MAC_SIZE]


def verify_mac(key: bytes, data: bytes, tag: bytes) -> bool:
    return hmac.compare_digest(compute_mac(key, data), tag)


class Authenticator:
    """A vector of MACs over a message *digest*, one per destination.

    Callers pass the 32-byte ``msg.digest()`` — never the full body —
    so creating an authenticator for ``n`` receivers costs one body hash
    (cached on the message) plus ``n`` constant-size MACs.
    """

    __slots__ = ("sender", "tags")

    def __init__(self, sender: object, tags: Dict[object, bytes]):
        self.sender = sender
        self.tags = tags

    @classmethod
    def create(cls, registry: KeyRegistry, sender: object,
               receivers: Iterable[object], digest: bytes) -> "Authenticator":
        tags = {}
        mac_state = registry.mac_state
        for r in receivers:
            h = mac_state(sender, r).copy()
            h.update(digest)
            tags[r] = h.digest()[:MAC_SIZE]
        return cls(sender, tags)

    @classmethod
    def forged(cls, sender: object, receivers: Iterable[object]) -> "Authenticator":
        """An authenticator with garbage tags, for Byzantine-fault tests."""
        return cls(sender, {r: b"\x00" * MAC_SIZE for r in receivers})

    def verify(self, registry: KeyRegistry, receiver: object,
               digest: bytes) -> bool:
        tag = self.tags.get(receiver)
        if type(tag) is not bytes:
            return False
        h = registry.mac_state(self.sender, receiver).copy()
        h.update(digest)
        return hmac.compare_digest(h.digest()[:MAC_SIZE], tag)

    def wire_size(self) -> int:
        return len(self.tags) * MAC_SIZE

    def __repr__(self) -> str:  # pragma: no cover
        return f"Authenticator(sender={self.sender!r}, n={len(self.tags)})"
