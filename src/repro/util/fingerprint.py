"""Stable content fingerprints for cache keys.

Every cache tier keys its entries through :mod:`repro.core.keys`, from
the digests of everything that determines its value: the skeleton, the
hints, the GPU architecture, the bus model and the space.  Each of those
types exposes a ``fingerprint()`` built on :func:`stable_digest`: the
object is first reduced to a *canonical* JSON-safe payload (sorted keys,
no insertion-order or float-repr ambiguity) and then hashed with SHA-256.

Two rules keep the keys useful:

- **Semantically equal inputs hash equally.**  Payloads must normalize
  away representation choices that cannot affect the projection — e.g.
  statement labels, or hint order.  Declaration, statement and access
  order are *not* such choices: the data usage analyzer walks statements
  in program order and lists transfers in declaration order, and kernel
  analysis sums floats in access order.
- **Anything that can change the result changes the hash.**  Every model
  parameter, shape, flop count, and option must appear in the payload.

The hashed types are deeply immutable, so a digest never goes stale:
:func:`memoized` stores it on the object the first time it is asked for,
and every later call — every cache lookup of a repeated what-if — is an
attribute read.
"""

from __future__ import annotations

import functools
import hashlib
import json
from typing import Any, Callable, TypeVar

_T = TypeVar("_T")


def canonical_json(payload: Any) -> str:
    """Deterministic JSON encoding of a JSON-safe payload.

    Keys are sorted and separators fixed, so the encoding is independent
    of dict insertion order and Python version cosmetics.  Floats use
    ``repr`` (shortest round-trip form), which is stable across CPython
    builds.
    """
    return json.dumps(
        payload, sort_keys=True, separators=(",", ":"), allow_nan=False
    )


def stable_digest(payload: Any) -> str:
    """SHA-256 hex digest of :func:`canonical_json` of ``payload``.

    Raises ``TypeError`` if the payload contains non-JSON-safe values —
    fingerprint payloads are built from primitives on purpose, so a leak
    of a rich object into one is a bug worth failing loudly on.
    """
    encoded = canonical_json(payload).encode("utf-8")
    return hashlib.sha256(encoded).hexdigest()


def memoized(method: Callable[[Any], _T]) -> Callable[[Any], _T]:
    """Compute a no-argument method once per object, then reuse it.

    For ``fingerprint()``-style methods of frozen dataclasses: the first
    call stores the result in the instance ``__dict__`` (through
    ``object.__setattr__``, which a frozen dataclass allows), where it is
    not a dataclass field — ``__eq__``, ``__hash__``, ``repr``,
    ``dataclasses.asdict`` and ``dataclasses.replace`` never see it, and
    a ``replace``-d copy starts without one.  Only for types whose every
    field is immutable all the way down: a mutated field would leave the
    stored result stale.
    """
    attr = f"_memo_{method.__name__}"

    @functools.wraps(method)
    def wrapper(self: Any) -> _T:
        try:
            return self.__dict__[attr]
        except KeyError:
            value = method(self)
            object.__setattr__(self, attr, value)
            return value

    return wrapper
