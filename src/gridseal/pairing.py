"""Symmetric bilinear group abstraction with a swappable backend.

A context bundles a prime-order group pair (G, G_T), the pairing map, a
hash-to-group function and two operation meters: one for pairings, one for
scalar multiplications (group exponentiations). Element products, inversions
and hashing are group-law plumbing and stay off the meters; a fused
multi-exponentiation is metered as a single scalar multiplication, the usual
cost model for shared-squaring evaluation.

The bundled "reference" backend tracks discrete logs openly: a G element is
the formal power g^a with a stored, and e(g^a, g^b) = gt^(ab). It satisfies
every algebraic axiom exactly at any prime order, which makes the protocol
layers testable at desk scale; it offers no cryptographic hardness. Curve
providers can register real backends against the same interface.
"""

from __future__ import annotations

import hashlib
import random
import threading
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Callable, Iterable, NamedTuple

from .primes import generate_prime, is_probable_prime

# 160-bit default order, matching the curve size the cost-model defaults assume.
DEFAULT_Q_160 = 1096126227998177188652763624537212264741949407257
MAX_Q_BITS = 1024  # the largest order ctx_new draws; a draw costs ~ the 4th power of its size


class BackendMismatchError(ValueError):
    """Raised when elements from different backends (or group orders) are mixed."""


@dataclass(frozen=True, slots=True)
class GroupElementG:
    backend: str
    data: object


@dataclass(frozen=True, slots=True)
class GroupElementGT:
    backend: str
    data: object


class PairingBackend(ABC):
    """The five group operations plus pairing, hashing and element codecs.

    `ident` must be unique per (backend family, group order) so elements from
    incompatible instances never interoperate; `wire_id` is the byte a record
    carries once to name its backend. Every element of G encodes to exactly
    `g_bytes` bytes and every element of G_T to exactly `gt_bytes`; the two
    decoders get exactly that many and raise ValueError on any body
    `element_bytes` would not emit.
    """

    ident: str
    wire_id: int
    q: int
    g_bytes: int
    gt_bytes: int

    @abstractmethod
    def generator(self) -> GroupElementG: ...

    @abstractmethod
    def identity_g(self) -> GroupElementG: ...

    @abstractmethod
    def identity_gt(self) -> GroupElementGT: ...

    @abstractmethod
    def g_mul(self, a: GroupElementG, b: GroupElementG) -> GroupElementG: ...

    @abstractmethod
    def g_exp(self, base: GroupElementG, k: int) -> GroupElementG: ...

    @abstractmethod
    def gt_mul(self, a: GroupElementGT, b: GroupElementGT) -> GroupElementGT: ...

    @abstractmethod
    def gt_inv(self, a: GroupElementGT) -> GroupElementGT: ...

    @abstractmethod
    def gt_exp(self, base: GroupElementGT, k: int) -> GroupElementGT: ...

    @abstractmethod
    def pair(self, p: GroupElementG, q: GroupElementG) -> GroupElementGT: ...

    @abstractmethod
    def hash_to_g(self, data: bytes) -> GroupElementG:
        """H(u): SHA-256 of data, mapped into G."""

    @abstractmethod
    def element_bytes(self, element: GroupElementG | GroupElementGT) -> bytes: ...

    @abstractmethod
    def element_g_from_bytes(self, body: bytes) -> GroupElementG: ...

    @abstractmethod
    def element_gt_from_bytes(self, body: bytes) -> GroupElementGT: ...

    def check_bodies(self, data: bytes, g_offsets: Iterable[int],
                     gt_offsets: Iterable[int]) -> None:
        """Raise ValueError unless every element body in data decodes.

        A G body starts at each of `g_offsets` and a G_T body at each of
        `gt_offsets`; the caller has checked that every body lies inside
        data. This generic form decodes each body and drops the element, so
        it is exactly as strict as the two decoders; a backend that can
        judge a body from its bytes alone overrides it, as the reference
        backend does.
        """
        g, gt = self.g_bytes, self.gt_bytes
        for offset in g_offsets:
            self.element_g_from_bytes(data[offset:offset + g])
        for offset in gt_offsets:
            self.element_gt_from_bytes(data[offset:offset + gt])

    def g_mulexp(self, pairs: Iterable[tuple[GroupElementG, int]]) -> GroupElementG:
        """Product of powers, the fused-evaluation form.

        This generic form exponentiates and multiplies pair by pair; a backend
        overrides it with a fused evaluation, as the reference backend does.
        """
        acc = self.identity_g()
        for base, k in pairs:
            acc = self.g_mul(acc, self.g_exp(base, k))
        return acc


class ReferenceBackend(PairingBackend):
    """Exponent-tracked discrete-log group; algebraically exact, cryptographically void."""

    wire_id = 0x01

    def __init__(self, q: int):
        self.q = q
        self.ident = f"reference:{q}"
        # both groups hold an exponent below q
        self.g_bytes = self.gt_bytes = (q.bit_length() + 7) // 8
        self._q_body = q.to_bytes(self.g_bytes, "big")

    def _check_g(self, *elements: GroupElementG) -> None:
        for e in elements:
            if not isinstance(e, GroupElementG) or e.backend != self.ident:
                raise BackendMismatchError("G element from a different backend")

    def _check_gt(self, *elements: GroupElementGT) -> None:
        for e in elements:
            if not isinstance(e, GroupElementGT) or e.backend != self.ident:
                raise BackendMismatchError("G_T element from a different backend")

    def generator(self) -> GroupElementG:
        return GroupElementG(self.ident, 1)

    def identity_g(self) -> GroupElementG:
        return GroupElementG(self.ident, 0)

    def identity_gt(self) -> GroupElementGT:
        return GroupElementGT(self.ident, 0)

    def g_mul(self, a, b):
        self._check_g(a, b)
        return GroupElementG(self.ident, (a.data + b.data) % self.q)

    def g_exp(self, base, k):
        self._check_g(base)
        return GroupElementG(self.ident, base.data * k % self.q)

    def g_mulexp(self, pairs):
        """Fused: one sum of exponent products, reduced once."""
        total = 0
        for base, k in pairs:
            self._check_g(base)
            total += base.data * k
        return GroupElementG(self.ident, total % self.q)

    def gt_mul(self, a, b):
        self._check_gt(a, b)
        return GroupElementGT(self.ident, (a.data + b.data) % self.q)

    def gt_inv(self, a):
        self._check_gt(a)
        return GroupElementGT(self.ident, -a.data % self.q)

    def gt_exp(self, base, k):
        self._check_gt(base)
        return GroupElementGT(self.ident, base.data * k % self.q)

    def pair(self, p, q):
        self._check_g(p, q)
        return GroupElementGT(self.ident, p.data * q.data % self.q)

    def hash_to_g(self, data: bytes) -> GroupElementG:
        digest = hashlib.sha256(data).digest()
        return GroupElementG(self.ident, int.from_bytes(digest, "big") % self.q)

    def element_bytes(self, element):
        if isinstance(element, GroupElementG):
            self._check_g(element)
        else:
            self._check_gt(element)
        value: int = element.data
        return value.to_bytes(self.g_bytes, "big")

    def _exponent(self, body: bytes) -> int:
        """The one accepted encoding: exactly ceil(q_bits / 8) bytes, value below q."""
        if len(body) != self.g_bytes:
            raise ValueError("element body has the wrong length")
        value = int.from_bytes(body, "big")
        if value >= self.q:
            raise ValueError("element value out of range")
        return value

    def check_bodies(self, data, g_offsets, gt_offsets):
        """Compare each body with q's fixed-width big-endian bytes.

        Bytes of one length order as the numbers they encode, so a body is
        below q exactly when it sorts below q's body: this accepts what
        `_exponent` accepts, with no integer built.
        """
        width, bound = self.g_bytes, self._q_body
        for offsets in (g_offsets, gt_offsets):
            for offset in offsets:
                if data[offset:offset + width] >= bound:
                    raise ValueError("element value out of range")

    def element_g_from_bytes(self, body: bytes) -> GroupElementG:
        return GroupElementG(self.ident, self._exponent(body))

    def element_gt_from_bytes(self, body: bytes) -> GroupElementGT:
        return GroupElementGT(self.ident, self._exponent(body))


_BACKENDS: dict[str, tuple[int, Callable[[int], PairingBackend]]] = {
    "reference": (ReferenceBackend.wire_id, ReferenceBackend),
}


def register_backend(name: str, wire_id: int, factory: Callable[[int], PairingBackend]) -> None:
    """Register a curve provider under `name`; factory takes the group order q."""
    if name in _BACKENDS:
        raise ValueError(f"backend {name!r} already registered")
    if any(wid == wire_id for wid, _ in _BACKENDS.values()):
        raise ValueError(f"wire id {wire_id:#x} already taken")
    _BACKENDS[name] = (wire_id, factory)


class CounterSnapshot(NamedTuple):
    pairings: int
    scalar_muls: int


class _CounterWindow:
    """Captures meter deltas across a with-block."""

    def __init__(self, ctx: "PairingContext"):
        self._ctx = ctx
        self.pairings = 0
        self.scalar_muls = 0

    def __enter__(self) -> "_CounterWindow":
        self._start = self._ctx.counters
        return self

    def __exit__(self, *exc) -> None:
        end = self._ctx.counters
        self.pairings = end.pairings - self._start.pairings
        self.scalar_muls = end.scalar_muls - self._start.scalar_muls


class PairingContext:
    """A configured group pair with meters; create through ctx_new()."""

    def __init__(self, backend: PairingBackend):
        self.backend = backend
        self.q = backend.q
        self.g = backend.generator()
        self._lock = threading.Lock()
        self._pairings = 0
        self._scalar_muls = 0

    # -- meters ------------------------------------------------------------

    @property
    def counters(self) -> CounterSnapshot:
        with self._lock:
            return CounterSnapshot(self._pairings, self._scalar_muls)

    def measure(self) -> _CounterWindow:
        return _CounterWindow(self)

    # -- metered operations (exponentiations and pairings) ------------------

    def g_exp(self, base: GroupElementG, k: int) -> GroupElementG:
        with self._lock:
            self._scalar_muls += 1
        return self.backend.g_exp(base, k % self.q)

    def gt_exp(self, base: GroupElementGT, k: int) -> GroupElementGT:
        with self._lock:
            self._scalar_muls += 1
        return self.backend.gt_exp(base, k % self.q)

    def g_mulexp(self, pairs: Iterable[tuple[GroupElementG, int]]) -> GroupElementG:
        with self._lock:
            self._scalar_muls += 1
        return self.backend.g_mulexp([(b, k % self.q) for b, k in pairs])

    def pair(self, p: GroupElementG, q: GroupElementG) -> GroupElementGT:
        with self._lock:
            self._pairings += 1
        return self.backend.pair(p, q)

    # -- unmetered group-law plumbing ---------------------------------------

    def gt_mul(self, a: GroupElementGT, b: GroupElementGT) -> GroupElementGT:
        return self.backend.gt_mul(a, b)

    def gt_inv(self, a: GroupElementGT) -> GroupElementGT:
        return self.backend.gt_inv(a)

    def identity_gt(self) -> GroupElementGT:
        return self.backend.identity_gt()

    def hash_to_g(self, data: bytes | str) -> GroupElementG:
        if isinstance(data, str):
            data = data.encode("utf-8")
        return self.backend.hash_to_g(data)

    @property
    def q_bits(self) -> int:
        return self.q.bit_length()

    # -- serialization --------------------------------------------------------

    def element_to_bytes(self, element: GroupElementG | GroupElementGT) -> bytes:
        """The element's fixed-width body: g_bytes for G, gt_bytes for G_T."""
        return self.backend.element_bytes(element)

    def element_g_from_bytes(self, data: bytes, offset: int = 0) -> tuple[GroupElementG, int]:
        """The G element in data[offset:offset + g_bytes], and the offset after it."""
        end = offset + self.backend.g_bytes
        if end > len(data):
            raise ValueError("truncated element")
        return self.backend.element_g_from_bytes(data[offset:end]), end

    def element_gt_from_bytes(self, data: bytes, offset: int = 0) -> tuple[GroupElementGT, int]:
        """The G_T element in data[offset:offset + gt_bytes], and the offset after it."""
        end = offset + self.backend.gt_bytes
        if end > len(data):
            raise ValueError("truncated element")
        return self.backend.element_gt_from_bytes(data[offset:end]), end


def _self_test(backend: PairingBackend, rng: random.Random) -> None:
    """Bilinearity and non-degeneracy spot checks; runs off the meters."""
    g = backend.generator()
    gt = backend.pair(g, g)
    if gt == backend.identity_gt():
        raise ValueError("degenerate pairing: e(g, g) is the identity")
    for _ in range(4):
        a = rng.randrange(1, backend.q)
        b = rng.randrange(1, backend.q)
        left = backend.pair(backend.g_exp(g, a), backend.g_exp(g, b))
        if left != backend.gt_exp(gt, a * b % backend.q):
            raise ValueError("bilinearity self-test failed")
        if left != backend.pair(backend.g_exp(g, b), backend.g_exp(g, a)):
            raise ValueError("pairing symmetry self-test failed")


def ctx_new(
    backend: str = "reference",
    q: int | None = None,
    q_bits: int | None = None,
    rng: random.Random | None = None,
    self_test: bool = True,
) -> PairingContext:
    """Build a pairing context.

    Exactly one of `q` (explicit prime order) or `q_bits` (order size up to
    MAX_Q_BITS, prime drawn from `rng`) may be given; else the pinned 160-bit
    default. Composite orders and unknown backends are rejected.

    An order is proven once, where it enters the program. A supplied `q`
    (a CLI `--q`, a file header) is tested at the adversarial bound of
    `is_probable_prime`, unless it is the pinned default: that constant is
    proven by the test suite, not on every call. A drawn order has already
    passed `generate_prime`'s test for random candidates and is not tested
    again.
    """
    if backend not in _BACKENDS:
        raise ValueError(f"unknown backend {backend!r}")
    if q is not None and q_bits is not None:
        raise ValueError("give q or q_bits, not both")
    if q_bits is not None and q_bits > MAX_Q_BITS:
        raise ValueError(f"q_bits must be at most {MAX_Q_BITS}")
    rng = rng if rng is not None else random.Random(0x5EED)
    if q is None:
        q = DEFAULT_Q_160 if q_bits is None else generate_prime(q_bits, rng)
    elif q != DEFAULT_Q_160 and not is_probable_prime(q):
        raise ValueError("group order must be prime")
    _, factory = _BACKENDS[backend]
    instance = factory(q)
    if self_test:
        _self_test(instance, rng)
    return PairingContext(instance)
