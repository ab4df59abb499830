"""The exact-integer and copy-only part of an engine wave in C, compiled once.

`mix_xor`, `uniform_xor`, `wave_keys`, `offspring`, `branch`, `gather` and
`ancestry` match `rng._mix_numpy(a ^ salt)`, its `rng.uniform_from_u64` (the
same IEEE steps and clamp below 1), `engine._wave_keys_numpy`,
`engine._offspring_numpy`, `engine._branch_numpy`, `engine._gather_numpy` and
`engine._ancestry_sum_numpy` bit for bit.  `wave_keys` numbers a wave's rows,
derives their keys and, unless given NULL, draws their lifetime uniforms; it
returns -1 for a replicate outside [0, m).  `offspring` adds each row's
lifetime to its birth, compares the death with the horizon and counts the
dead rows' children; `branch` then copies the parents' columns into the
children's rows.  `gather` cuts kept runs out of a round's wave-ordered rows
with one counting pass, and `ancestry` sums each kept row's position from its
parent's in id order.  Beyond the u64 -> double map the C only hashes, adds,
compares and copies, one IEEE step at a time as numpy takes them, so it needs
no libm.  Without the library `LIB` is None, a RuntimeWarning says why, and
callers take the oracles.
"""

import contextlib
import ctypes
import glob
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
static inline double unit(uint64_t bits) {  /* (2^53 - 1) + 0.5 rounds to 2^53; a min is one minsd */
    double u = ((double)(bits >> 11) + 0.5) * 0x1p-53;
    return u < 0x1.fffffffffffffp-1 ? u : 0x1.fffffffffffffp-1;
}
void mix_xor(const uint64_t *a, uint64_t salt, uint64_t *out, int64_t n) {
    for (int64_t i = 0; i < n; i++) out[i] = splitmix64(a[i] ^ salt);
}
void uniform_xor(const uint64_t *a, uint64_t salt, double *out, int64_t n) {
    for (int64_t i = 0; i < n; i++) out[i] = unit(splitmix64(a[i] ^ salt));
}
int64_t wave_keys(const int64_t *rep, const uint64_t *run_keys, uint64_t salt, uint64_t life_slot,
                  int64_t *next_id, int64_t *local, uint64_t *keys, double *u_life, int64_t n, int64_t m) {
    int64_t top = 0;
    for (int64_t i = 0; i < n; i++) {  /* u_life is optional (NULL) */
        if (rep[i] < 0 || rep[i] >= m) return -1;
        local[i] = next_id[rep[i]]++;
        if (local[i] >= top) top = local[i] + 1;
        keys[i] = splitmix64(run_keys[rep[i]] ^ splitmix64((uint64_t)local[i] ^ salt));
        if (u_life) u_life[i] = unit(splitmix64(keys[i] ^ life_slot));
    }
    return top;
}
int64_t offspring(const double *birth, const double *lifetime, double horizon, const uint64_t *keys,
                  uint64_t slot, const double *levels, int64_t n_levels, double *death, uint8_t *alive,
                  int64_t *kids, int64_t n) {
    int64_t total = 0;
    for (int64_t i = 0; i < n; i++) {  /* every level is compared: an early exit mispredicts */
        double d = death[i] = birth[i] + lifetime[i];
        int a = alive[i] = d > horizon;
        double u = a ? -1.0 : unit(splitmix64(keys[i] ^ slot));  /* alive: no children */
        int64_t k = 0;
        for (int64_t l = 0; l < n_levels; l++) k += levels[l] <= u;
        total += kids[i] = k;
    }
    return total;
}
void branch(const int64_t *kids, const int64_t *rep, const double *death, const double *pos_end,
            const int64_t *local, int64_t *rep_out, double *birth, double *pos_start,
            int64_t *parent, int64_t n) {  /* positions and parents are optional (NULL) */
    for (int64_t i = 0, j = 0; i < n; i++) {  /* loads hoisted, as the outputs might alias them */
        int64_t r = rep[i], end = j + kids[i];
        double d = death[i];
        if (parent) for (int64_t k = j; k < end; k++) parent[k] = local[i];
        if (pos_start) {
            double p = pos_end[i];
            for (; j < end; j++) rep_out[j] = r, birth[j] = d, pos_start[j] = p;
        } else {
            for (; j < end; j++) rep_out[j] = r, birth[j] = d;
        }
    }
}
void gather(const int64_t *rep, const int64_t *slot, int64_t *cursor, int64_t *idx, int64_t n) {
    for (int64_t i = 0; i < n; i++) {  /* slot < 0: the replicate is not kept */
        int64_t s = slot[rep[i]];
        if (s >= 0) idx[cursor[s]++] = i;
    }
}
void ancestry(const int64_t *parent, const double *disp, const int64_t *bounds, const double *root,
              int64_t runs, double *pos) {  /* parents precede their children within a run */
    for (int64_t r = 0; r < runs; r++)
        for (int64_t j = bounds[r], s = bounds[r]; j < bounds[r + 1]; j++)
            pos[j] = (parent[j] < 0 ? root[r] : pos[s + parent[j]]) + disp[j];
}
"""
_FLAGS = ("-O2", "-shared", "-fPIC", "-ffp-contract=off")
_CACHE = os.path.join(os.path.dirname(__file__), "__pycache__")
_P, _U64, _I64 = ctypes.c_void_p, ctypes.c_uint64, ctypes.c_int64


def _compiler() -> list:
    return (sysconfig.get_config_var("CC") or "cc").split()


def _library() -> str:
    """The library, cached under a hash of source, flags and platform; if missing,
    CC (else cc) builds it into a per-process file renamed into place, and the
    libraries built from other sources are removed."""
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
        for stale in glob.glob(os.path.join(_CACHE, "_kernel-*.so")):  # builds of other sources
            if stale != path:
                with contextlib.suppress(FileNotFoundError):
                    os.remove(stale)
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
    lib.wave_keys.argtypes, lib.wave_keys.restype = (_P, _P, _U64, _U64, _P, _P, _P, _P, _I64, _I64), _I64
    lib.offspring.argtypes = (_P, _P, ctypes.c_double, _P, _U64, _P, _I64, _P, _P, _P, _I64)
    lib.offspring.restype = _I64
    lib.branch.argtypes, lib.branch.restype = (_P,) * 9 + (_I64,), None
    lib.gather.argtypes, lib.gather.restype = (_P,) * 4 + (_I64,), None
    lib.ancestry.argtypes, lib.ancestry.restype = (_P,) * 4 + (_I64, _P), None
    return lib


LIB = _load()
