"""Deterministic counter-based random streams.

Every random quantity drawn anywhere in this package is a pure function of a
64-bit key plus an integer slot.  Keys are derived by hashing a path of
integer tokens (seed -> replicate -> attempt -> particle), so results never
depend on batching, chunk sizes or wave layout: particle i of
replicate r always sees the same draws no matter how the simulation around it
is organised.  The hash is the splitmix64 finalizer, applied twice with
domain-separation salts for key derivation versus value draws.  Single keys
are hashed on Python ints (`_mix_int`), arrays in the C kernel of `_kernel` or,
if it could not be built, in numpy (`_mix_numpy`); all are bit-identical.  The
engine derives its particle keys, lifetime uniforms and offspring draws inside
that kernel too, with the same hash and the same u64 -> (0, 1) map as
`slot_uniform`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.special import ndtri

from . import _kernel

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MULT1 = np.uint64(0xBF58476D1CE4E5B9)
_MULT2 = np.uint64(0x94D049BB133111EB)
_CHILD_SALT = np.uint64(0x8F1BBCDCBFA53E0B)
_DRAW_SALT = np.uint64(0x2545F4914F6CDD1D)
_CHILD_SALT_INT, _DRAW_SALT_INT = int(_CHILD_SALT), int(_DRAW_SALT)

_MASK64 = (1 << 64) - 1
_INV_2_53 = 2.0 ** -53
_BELOW_ONE = 1.0 - _INV_2_53  # the largest double below 1
_SHIFT11 = np.uint64(11)


def _mix(z: np.ndarray, salt=0) -> np.ndarray:
    """splitmix64 finalizer of uint64 ndarray `z` ^ scalar `salt`; `z` is never written."""
    if _kernel.LIB is None:
        return _mix_numpy(z ^ np.uint64(salt)) if salt else _mix_numpy(z)
    z = np.ascontiguousarray(z, np.uint64)
    out = np.empty(z.shape, np.uint64)
    _kernel.LIB.mix_xor(_kernel.address(z), int(salt), _kernel.address(out), z.size)
    return out


def _mix_numpy(z: np.ndarray) -> np.ndarray:
    """_mix in numpy: its bit-for-bit oracle and its path without the kernel."""
    z = z + _GOLDEN
    z = (z ^ (z >> np.uint64(30))) * _MULT1
    z = (z ^ (z >> np.uint64(27))) * _MULT2
    return z ^ (z >> np.uint64(31))


def _mix_int(z: int) -> int:
    """_mix on one Python int, taken mod 2^64; no numpy per-call overhead."""
    z = (z + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def _as_u64(x) -> np.ndarray:
    """Coerce ints / int arrays to uint64 arrays (values taken mod 2^64)."""
    if isinstance(x, np.ndarray):
        if x.dtype == np.uint64:
            return x
        if x.dtype.kind == "i":
            return x.astype(np.int64).view(np.uint64)
        return x.astype(np.uint64)
    return np.atleast_1d(np.array(int(x) & _MASK64, dtype=np.uint64))


def mix64(x) -> np.ndarray:
    return _mix(_as_u64(x))


def derive_key(key, token) -> np.ndarray:
    """Child key(s) for integer token(s); broadcasts over either argument."""
    return _mix(_as_u64(key) ^ _mix(_as_u64(token), _CHILD_SALT))


def slot_hash(slot: int) -> np.uint64:
    """Precomputable inner hash for a draw slot; pair with slot_uniform."""
    return np.uint64(_mix_int(int(slot) ^ _DRAW_SALT_INT))


def slot_uniform(keys: np.ndarray, hashed_slot: np.uint64) -> np.ndarray:
    """Uniform(0,1) draws at a precomputed slot for uint64 key arrays."""
    if _kernel.LIB is None:
        return uniform_from_u64(_mix_numpy(keys ^ hashed_slot))
    keys = np.ascontiguousarray(keys, np.uint64)
    out = np.empty(keys.shape, np.float64)
    _kernel.LIB.uniform_xor(_kernel.address(keys), int(hashed_slot), _kernel.address(out), keys.size)
    return out


def draw_u64(key, slot) -> np.ndarray:
    """Raw 64-bit draw(s) at the given slot(s); pure in (key, slot)."""
    return _mix(_as_u64(key) ^ _mix(_as_u64(slot), _DRAW_SALT))


def uniform_from_u64(bits) -> np.ndarray:
    """Map uint64 bits to the open interval (0, 1), 53-bit resolution; the top
    53-bit pattern, which `+ 0.5` rounds up to 1.0, maps to the largest double below 1."""
    return np.minimum(((_as_u64(bits) >> _SHIFT11).astype(np.float64) + 0.5) * _INV_2_53, _BELOW_ONE)


def uniform_at(key, slot) -> np.ndarray:
    return uniform_from_u64(draw_u64(key, slot))


def normal_at(key, slot) -> np.ndarray:
    """Standard normal draw(s) via the exact inverse CDF."""
    return ndtri(uniform_at(key, slot))


@dataclass
class RandomStream:
    """A single-owner sequential view onto one key's slot space.

    Sequential draws advance an internal counter; `child` derives an
    independent substream.  Two streams constructed with the same key always
    produce identical output.  Never share one instance across concurrent
    tasks; derive children instead.
    """

    key: int
    path: tuple = ()
    _counter: int = field(default=0, repr=False)

    def child(self, index: int) -> "RandomStream":
        key = _mix_int(self.key ^ _mix_int(int(index) ^ _CHILD_SALT_INT))
        return RandomStream(key, self.path + (index,))

    def _next_uniform(self) -> float:
        """uniform_at(key, counter) on Python ints; advances the counter."""
        bits = _mix_int(self.key ^ _mix_int(self._counter ^ _DRAW_SALT_INT))
        self._counter += 1
        u = ((bits >> 11) + 0.5) * _INV_2_53
        return u if u < 1.0 else _BELOW_ONE

    def _slots(self, size):
        self._counter += int(size)
        return np.arange(self._counter - int(size), self._counter, dtype=np.uint64)

    def uniform(self, size=None):
        if size is None:
            return self._next_uniform()
        return uniform_at(self.key, self._slots(size))


def stream(seed: int, *path: int) -> RandomStream:
    """Root stream for a 64-bit seed, optionally descended along `path`."""
    s = RandomStream(_mix_int(int(seed)), (int(seed),))
    for token in path:
        s = s.child(token)
    return s
