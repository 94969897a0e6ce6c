"""Crypto kernel micro-benchmark behind ``python -m repro bench crypto``.

Times the scalar (``pure``) keystream path against the batched
(``vector``) kernels for every cipher that has one, over a sweep of
keystream lengths — from the 3-block sensor frame that dominates a
deployment's runtime to the 64-block messages where the bignum-lane
kernels peak, into the numpy range beyond. Writes ``BENCH_crypto.json``
at the repo root: the machine-readable perf trajectory that
``scripts/bench_compare.py`` gates CI against (see docs/PERFORMANCE.md).

The numbers are blocks (or frames) per second from the best of several
timed repetitions — min-of-reps is the standard way to strip scheduler
noise from a microbenchmark without inflating run time.
"""

from __future__ import annotations

import itertools
import platform
import struct
import time
from typing import Callable

from repro.crypto import kernels
from repro.crypto.aead import AeadConfig, seal
from repro.crypto.block import get_cipher
from repro.crypto.modes import ctr_encrypt, message_counter

#: Ciphers with a registered vector kernel, in report order.
CIPHERS = ("speck64/128", "xtea", "rc5-32/12/16")

#: Keystream lengths (blocks) swept per cipher: the ~3-block frame path,
#: the lane sweet spot, and two numpy-range sizes.
BLOCK_SWEEP = (3, 16, 64, 256)

#: A TinySec-sized sensor reading for the end-to-end frame-path rows.
FRAME_PAYLOAD = bytes(range(41))

_KEY = bytes(range(16))


def _best_rate(fn: Callable[[], None], units: int, reps: int, inner: int) -> float:
    """Best observed ``units``/second over ``reps`` timed loops of ``inner`` calls."""
    best = float("inf")
    for _ in range(reps):
        start = time.perf_counter()
        for _ in range(inner):
            fn()
        elapsed = time.perf_counter() - start
        best = min(best, elapsed)
    return units * inner / best


def _scalar_keystream(cipher, base: int, n_blocks: int) -> bytes:
    """The pure backend's keystream, inlined (what modes does under ``pure``)."""
    pack = struct.pack
    enc = cipher.encrypt_block
    return b"".join(enc(pack(">Q", base + i)) for i in range(n_blocks))


def bench_crypto(quick: bool = False) -> dict:
    """Run the kernel sweep; returns the ``BENCH_crypto.json`` payload.

    ``quick`` cuts repetitions for CI smoke runs — noisier, but the
    compare gate's tolerance absorbs that.
    """
    reps = 3 if quick else 7
    results = []
    for name in CIPHERS:
        cipher = get_cipher(name, _KEY)
        kernel = kernels.get_kernel(cipher)
        for n in BLOCK_SWEEP:
            if n < kernel.min_blocks:
                continue
            base = 7 << 16
            inner = max(1, 256 // n) if quick else max(1, 2048 // n)
            scalar = _best_rate(
                lambda: _scalar_keystream(cipher, base, n), n, reps, inner
            )
            vector = _best_rate(lambda: kernel.keystream(base, n), n, reps, inner)
            results.append(
                {
                    "cipher": name,
                    "blocks": n,
                    "scalar_blocks_per_s": round(scalar, 1),
                    "vector_blocks_per_s": round(vector, 1),
                    "speedup": round(vector / scalar, 2),
                }
            )
    frame_path = []
    # A fresh counter per call, as every real frame has, and consecutive
    # ones, as one sender's hop seqs are: the vector rows include the
    # kernels' lane batches, one lane pass per LANES_MAX_BLOCKS // blocks
    # calls. Neither the CTR mode nor seal is memoised (only opens are,
    # in repro.crypto.aead).
    counters = itertools.count(1)
    for name in CIPHERS:
        cipher = get_cipher(name, _KEY)
        if len(FRAME_PAYLOAD) // 8 + 1 < kernels.get_kernel(cipher).min_blocks:
            continue
        inner = 64 if quick else 512
        rows = {}
        for backend in ("pure", "vector"):
            cfg = AeadConfig(cipher=name, backend=backend)
            rates = {
                "ctr": _best_rate(
                    lambda: ctr_encrypt(
                        cipher, message_counter(next(counters)), FRAME_PAYLOAD, backend
                    ),
                    1,
                    reps,
                    inner,
                ),
                "seal": _best_rate(
                    lambda: seal(_KEY, message_counter(next(counters)), FRAME_PAYLOAD, config=cfg),
                    1,
                    reps,
                    inner,
                ),
            }
            rows[backend] = rates
        frame_path.append(
            {
                "cipher": name,
                "payload_bytes": len(FRAME_PAYLOAD),
                "scalar_ctr_frames_per_s": round(rows["pure"]["ctr"], 1),
                "vector_ctr_frames_per_s": round(rows["vector"]["ctr"], 1),
                "scalar_seal_frames_per_s": round(rows["pure"]["seal"], 1),
                "vector_seal_frames_per_s": round(rows["vector"]["seal"], 1),
                "ctr_speedup": round(rows["vector"]["ctr"] / rows["pure"]["ctr"], 2),
            }
        )
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:  # pragma: no cover - numpy is in the dev image
        numpy_version = None
    return {
        "benchmark": "crypto_kernels",
        "python": platform.python_version(),
        "numpy": numpy_version,
        "default_backend": kernels.active_backend(),
        "quick": quick,
        "results": results,
        "frame_path": frame_path,
    }


def render_bench_crypto(payload: dict) -> str:
    """Human-readable table of a :func:`bench_crypto` payload."""
    lines = [
        f"crypto kernels — python {payload['python']}, "
        f"numpy {payload['numpy']}, default backend {payload['default_backend']}",
        f"{'cipher':<14} {'blocks':>6} {'scalar blk/s':>14} {'vector blk/s':>14} {'speedup':>8}",
    ]
    for row in payload["results"]:
        lines.append(
            f"{row['cipher']:<14} {row['blocks']:>6} "
            f"{row['scalar_blocks_per_s']:>14,.0f} "
            f"{row['vector_blocks_per_s']:>14,.0f} {row['speedup']:>7.2f}x"
        )
    lines.append("")
    lines.append(
        f"{'frame path':<14} {'bytes':>6} {'pure ctr/s':>14} {'vec ctr/s':>14} {'speedup':>8}"
    )
    for row in payload["frame_path"]:
        lines.append(
            f"{row['cipher']:<14} {row['payload_bytes']:>6} "
            f"{row['scalar_ctr_frames_per_s']:>14,.0f} "
            f"{row['vector_ctr_frames_per_s']:>14,.0f} {row['ctr_speedup']:>7.2f}x"
        )
    return "\n".join(lines)
