"""Build, load and call the compiled library, ``_kernel.c``.

It has three entry points: ``wristsim_simulate``, the trial kernel behind
:func:`simulate`; ``wristsim_euler_xyz``, the Euler decomposition behind
:func:`euler_xyz`; and ``wristsim_format_rows``, the exact ``%.17g`` CSV
formatter behind :func:`write_rows`.

The shared library is compiled on first use with the C compiler Python was
built with (``sysconfig``'s ``CC``) and cached under
``${XDG_CACHE_HOME:-~/.cache}/wristsim`` as ``_kernel-<digest>.so``, where
the digest is the SHA-256 of the compiler flags and the source: a changed
source or changed flags get a library of their own, and only the library
built from this source with these flags is loaded.  The compiler works in a
temporary directory beside the cache, and the library is then moved into
place, so concurrent first runs are safe and a failed build leaves nothing
behind.  The SHA-256 is CPython's own module, not ``hashlib``, which loads
OpenSSL; ``subprocess`` and ``sysconfig`` are imported only to build.
"""

from __future__ import annotations

import ctypes
import functools
import os
from pathlib import Path

import numpy as np

from .rotations import GIMBAL_GUARD

SOURCE = Path(__file__).with_name("_kernel.c")

#: strict IEEE double arithmetic: no fused multiply-add, never -ffast-math
CFLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off")

#: per leg: t0, duration, dist, omega, target (3), unit (3)
LEG_FIELDS = 10
#: :func:`~.dynamics.plant_constants`
BODY_FIELDS = 25
#: bytes the formatter may use per value, separator included (FIELD_MAX)
FIELD_BYTES = 32
#: rows formatted per call, and the cap on the reused text buffer, which
#: the CSV writer thread holds while the next trial runs
BLOCK_ROWS = 1024
BLOCK_BYTES = 1 << 19


class KernelCompileError(RuntimeError):
    """Raised when the trial kernel cannot be compiled: no C compiler was
    found, or the compiler failed (its stderr is in the message)."""


def cache_dir() -> Path:
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache"
    )
    return Path(base) / "wristsim"


def _cache_path(source: bytes) -> Path:
    """The cached library for ``source``, named by the SHA-256 of the
    compiler flags and the source."""
    # CPython's own SHA-256, as ``random`` takes its SHA-512: ``hashlib``
    # loads OpenSSL, some 3.5 MB of peak RSS on every run
    try:
        from _sha2 import sha256  # Python 3.12 on
    except ImportError:
        try:
            from _sha256 import sha256
        except ImportError:  # a Python built without its own hashes
            from hashlib import sha256
    digest = sha256(" ".join(CFLAGS).encode() + b"\0" + source).hexdigest()
    return cache_dir() / f"_kernel-{digest}.so"


def _compile(source: bytes, lib: Path) -> None:
    """Compile ``source`` into ``lib``, in a temporary directory beside it
    that is removed whether or not the compiler succeeds."""
    import shlex
    import subprocess
    import sysconfig
    import tempfile

    cc = shlex.split(sysconfig.get_config_var("CC") or "cc")
    with tempfile.TemporaryDirectory(dir=lib.parent) as tmp:
        src, out = os.path.join(tmp, "_kernel.c"), os.path.join(tmp, lib.name)
        Path(src).write_bytes(source)
        cmd = [*cc, *CFLAGS, "-o", out, src, "-lm"]
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True)
        except OSError as exc:
            raise KernelCompileError(
                f"cannot compile the trial kernel: no C compiler ({exc})"
            ) from exc
        if proc.returncode != 0:
            raise KernelCompileError(
                f"compiling the trial kernel failed: {' '.join(cmd)}\n{proc.stderr}"
            )
        os.replace(out, lib)


def build() -> Path:
    """Path of the cached library for the packaged source, compiling it
    when the cache holds none."""
    source = SOURCE.read_bytes()
    lib = _cache_path(source)
    if not lib.is_file():
        lib.parent.mkdir(mode=0o700, parents=True, exist_ok=True)
        _compile(source, lib)
    return lib


@functools.cache
def _library():
    """The library with its three entry points declared, loaded once per
    process."""
    f64 = np.ctypeslib.ndpointer(dtype=np.float64, flags="C_CONTIGUOUS")
    lib = ctypes.CDLL(str(build()))
    lib.wristsim_simulate.argtypes = [
        ctypes.c_int64, ctypes.c_int64, ctypes.c_double,      # n, substeps, h
        f64, f64, f64, f64,                                   # times, stiff, cr, sr
        ctypes.c_int64,                                       # legs
        np.ctypeslib.ndpointer(dtype=np.int64, flags="C_CONTIGUOUS"),
        f64, f64, f64,                                        # legs, body, state
        f64, f64, f64, f64, f64, f64, f64,                    # the seven records
    ]
    lib.wristsim_simulate.restype = ctypes.c_int64
    lib.wristsim_euler_xyz.argtypes = [
        ctypes.c_int64, f64, ctypes.c_double, f64,            # n, quats, guard, angles
        np.ctypeslib.ndpointer(dtype=np.bool_, flags="C_CONTIGUOUS"),
    ]
    lib.wristsim_euler_xyz.restype = ctypes.c_int64
    lib.wristsim_format_rows.argtypes = [
        ctypes.c_int64, ctypes.c_int64, f64,                  # n, k, rows
        np.ctypeslib.ndpointer(dtype=np.uint8, flags="C_CONTIGUOUS"),
        ctypes.c_int64,                                       # buffer capacity
    ]
    lib.wristsim_format_rows.restype = ctypes.c_int64
    return lib


def simulate(times, stiff, cr, sr, leg_start, legs, body, y0, h, substeps):
    """Run the compiled trial kernel over the sample grid ``times``.

    ``stiff``, ``cr`` and ``sr`` are per-sample streams (stiffness and the
    cosine and sine of half the torsion).  Leg ``j`` (a row of ``legs``)
    takes over at sample ``leg_start[j]``; ``body`` is
    :func:`~.dynamics.plant_constants` and ``y0`` the initial (q, omega).
    Returns ``(failed, records)``: ``failed`` is -1 or the first sample whose
    state is not finite, and ``records`` are plan_pos, quat_des, quat,
    omega, tau_cmd, err_angle and disp_max.
    """
    n = len(times)
    times, stiff, cr, sr, legs, body, y = (
        np.ascontiguousarray(a, dtype=np.float64)
        for a in (times, stiff, cr, sr, legs, body, y0)
    )
    leg_start = np.ascontiguousarray(leg_start, dtype=np.int64)
    m = len(leg_start)
    if not (n >= 1 and stiff.shape == cr.shape == sr.shape == times.shape == (n,)
            and m >= 1 and legs.shape == (m, LEG_FIELDS)
            and body.shape == (BODY_FIELDS,) and y.shape == (7,)):
        raise ValueError("trial kernel inputs disagree in shape")
    records = (
        np.empty((n, 3)), np.empty((n, 4)), np.empty((n, 4)),
        np.empty((n, 3)), np.empty((n, 3)), np.empty(n), np.empty(n),
    )
    failed = _library().wristsim_simulate(n - 1, substeps, h, times, stiff, cr, sr,
                                          m, leg_start, legs, body, y, *records)
    return failed, records


def euler_xyz(quats) -> tuple[np.ndarray, np.ndarray]:
    """:func:`~.rotations.euler_xyz_from_quat` of an (n, 4) quaternion
    stack, bit for bit, in the compiled library: ``(angles, locked)``, the
    (n, 3) angles and the (n,) gimbal-lock mask.

    Raises ``ValueError`` on a quaternion with a component that is not
    finite, or whose products overflow into an angle that is not a number.
    """
    q = np.ascontiguousarray(quats, dtype=np.float64)
    if q.ndim != 2 or q.shape[1] != 4:
        raise ValueError(f"expected an (n, 4) quaternion stack, got shape {q.shape}")
    angles, locked = np.empty((len(q), 3)), np.empty(len(q), dtype=bool)
    bad = _library().wristsim_euler_xyz(len(q), q, GIMBAL_GUARD, angles, locked)
    if bad >= 0:
        raise ValueError(f"quaternion {bad} has no Euler angles: {q[bad]}")
    return angles, locked


def write_rows(fh, columns) -> None:
    """Write the rows of ``columns`` side by side to the binary file ``fh``,
    each value as ``'%.17g' % value``, joined by ``,`` and ended by ``\n``.

    Each column is an array of shape (n,) or (n, m) with the same n.  Blocks
    of at most :data:`BLOCK_ROWS` rows are copied into one reused table and
    formatted into one reused buffer, so neither the whole table nor its
    text is ever held in memory.  Raises ``ValueError`` naming the first row
    with a value that is not finite; the rows before its block are already
    written.
    """
    cols = [np.asarray(c, dtype=np.float64) for c in columns]
    cols = [c[:, None] if c.ndim == 1 else c for c in cols]
    if (not cols or any(c.ndim != 2 or len(c) != len(cols[0]) for c in cols)
            or not sum(c.shape[1] for c in cols)):
        raise ValueError(
            f"expected columns of shape (n,) or (n, m) with one n, got "
            f"{[c.shape for c in cols]}"
        )
    n, k = len(cols[0]), sum(c.shape[1] for c in cols)
    rows = max(1, min(n, BLOCK_ROWS, BLOCK_BYTES // (k * FIELD_BYTES)))
    table = np.empty((rows, k))
    buf = np.empty(rows * k * FIELD_BYTES, dtype=np.uint8)
    fmt = _library().wristsim_format_rows
    for start in range(0, n, rows):
        block = table[:min(rows, n - start)]
        np.concatenate([c[start:start + len(block)] for c in cols], axis=1, out=block)
        size = fmt(len(block), k, block, buf, buf.size)
        if size == -1:
            row = start + int(np.argmax(~np.isfinite(block).all(axis=1)))
            raise ValueError(f"row {row} holds a value that is not finite")
        if size < 0:
            raise RuntimeError("the CSV formatter's buffer is too small")
        fh.write(buf[:size])
