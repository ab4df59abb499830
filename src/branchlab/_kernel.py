"""The exact-integer part of an engine wave in C, compiled once per checkout.

`mix_xor`, `uniform_xor` and `number` match `rng._mix_numpy(a ^ salt)`, its
`rng.uniform_from_u64` (the same IEEE steps and the same clamp below 1) and
`engine._number_numpy` bit for bit; `number` returns -1 for a replicate
outside [0, m).  Without the library `LIB` is None, a RuntimeWarning says
why, and callers take the oracles.
"""

import ctypes
import hashlib
import os
import subprocess
import sysconfig
import warnings

_SOURCE = r"""#include <stdint.h>
static inline uint64_t splitmix64(uint64_t z) {
    z += 0x9E3779B97F4A7C15ULL;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
}
void mix_xor(const uint64_t *a, uint64_t salt, uint64_t *out, int64_t n) {
    for (int64_t i = 0; i < n; i++) out[i] = splitmix64(a[i] ^ salt);
}
void uniform_xor(const uint64_t *a, uint64_t salt, double *out, int64_t n) {
    for (int64_t i = 0; i < n; i++) {  /* (2^53 - 1) + 0.5 rounds to 2^53; a min is one minsd */
        double u = ((double)(splitmix64(a[i] ^ salt) >> 11) + 0.5) * 0x1p-53;
        out[i] = u < 0x1.fffffffffffffp-1 ? u : 0x1.fffffffffffffp-1;
    }
}
int64_t number(const int64_t *rep, int64_t *next_id, int64_t *local, int64_t n, int64_t m) {
    int64_t top = 0;
    for (int64_t i = 0; i < n; i++) {
        if (rep[i] < 0 || rep[i] >= m) return -1;
        local[i] = next_id[rep[i]]++;
        if (local[i] >= top) top = local[i] + 1;
    }
    return top;
}
"""
_FLAGS = ("-O2", "-shared", "-fPIC", "-ffp-contract=off")
_CACHE = os.path.join(os.path.dirname(__file__), "__pycache__")
_P, _U64, _I64 = ctypes.c_void_p, ctypes.c_uint64, ctypes.c_int64


def _compiler() -> list:
    return (sysconfig.get_config_var("CC") or "cc").split()


def _library() -> str:
    """The library, cached under a hash of source, flags and platform; if missing,
    CC (else cc) builds it into a per-process file renamed into place."""
    tag = "\0".join((_SOURCE, *_FLAGS, sysconfig.get_platform()))
    path = os.path.join(_CACHE, f"_kernel-{hashlib.sha256(tag.encode()).hexdigest()}.so")
    if not os.path.exists(path):
        os.makedirs(_CACHE, exist_ok=True)
        tmp = f"{path}.{os.getpid()}.tmp"
        cmd = [*_compiler(), *_FLAGS, "-x", "c", "-", "-o", tmp]
        proc = subprocess.run(cmd, input=_SOURCE, capture_output=True, text=True)
        if proc.returncode:
            raise OSError(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr.strip()}")
        os.replace(tmp, path)
    return path


def address(a) -> int:
    """Address of a C-contiguous array; from_buffer is 3x faster than .ctypes."""
    try:
        return ctypes.addressof(ctypes.c_char.from_buffer(a))
    except (TypeError, ValueError):
        return a.ctypes.data


def _load():
    """The compiled kernel with its signatures declared, or None."""
    try:
        lib = ctypes.CDLL(_library())
    except OSError as exc:
        warnings.warn(f"branchlab C kernel unavailable, using numpy: {exc}", RuntimeWarning, stacklevel=2)
        return None
    for fn in (lib.mix_xor, lib.uniform_xor):
        fn.argtypes, fn.restype = (_P, _U64, _P, _I64), None
    lib.number.argtypes, lib.number.restype = (_P, _P, _P, _I64, _I64), _I64
    return lib


LIB = _load()
