"""The compiled library: the trial kernel bit-identical to the Python loop,
the Euler decomposition bit-identical to the Python Euler law, the CSV
formatter byte-identical to ``%.17g``, and its build cache."""

import ctypes
import dataclasses
import functools
import hashlib
import importlib.util
import io
import math
import os
import shlex
import subprocess
import sys
import sysconfig
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import euler_xyz_scalar, savetxt, simulate_scalar, trajectory_table
from wristsim import _kernel
from wristsim.cli import TRAJECTORY_COLUMNS, write_csv, write_trajectory
from wristsim.dynamics import BodyModel, plant, plant_constants
from wristsim.experiments import (
    ClockTask,
    ParamSchedule,
    Trajectory,
    build_clock_schedule,
    build_retune_schedule,
    extract_listing,
    run_trial,
)
from wristsim.fic import DEADBAND, branch_step, branch_torque
from wristsim.planner import ReachProfile
from wristsim.rotations import (euler_xyz_from_quat, pointing_quat, quat_from_euler_xyz,
                                quat_normalize)

RECORDS = ("plan_pos", "quat_des", "quat", "omega", "tau_cmd", "err_angle", "disp_max")


def test_kernel_matches_python_oracle(task, body, weightless, band, opts):
    """All seven records equal the Python loop's bit for bit, and the
    parameter streams equal the per-sample schedule lookups."""
    short = ClockTask(n_targets=2, dwell=0.1)
    # edge cases of the leg table: a first break to the center, and a
    # repeated target; neither starts a leg
    edges = ParamSchedule(
        duration=0.3,
        stiffness_breaks=((0.0, 9000.0), (0.1, 2000.0)),
        torsion_breaks=((0.0, 0.1), (0.15, -0.2)),
        target_breaks=((0.05, -1), (0.1, 1), (0.2, 1)),
    )
    # torsion and stiffness step while the plan holds the center, then
    # while it holds target 0 (its reach ends near 0.49 s); the leg to
    # target 1 starts on that held pose
    holds = ParamSchedule(
        duration=0.6,
        stiffness_breaks=((0.0, 4000.0), (0.03, 8000.0), (0.52, 2000.0)),
        torsion_breaks=((0.0, 0.1), (0.05, -0.2), (0.51, 0.3)),
        target_breaks=((0.1, 0), (0.55, 1)),
    )
    cases = (
        (build_retune_schedule(), task, body),
        (build_clock_schedule(short, band, stiffness=1000.0,
                              torsion=math.radians(-25.0)), short, body),
        (edges, task, weightless),
        (holds, task, body),
    )
    for sched, tsk, bdy in cases:
        traj = run_trial(sched, tsk, bdy, band, opts)
        ref = simulate_scalar(sched, tsk, bdy, band, opts)
        for name in RECORDS:
            got, want = getattr(traj, name), getattr(ref, name)
            assert np.array_equal(got, want), name
            assert got.tobytes() == want.tobytes(), name  # also the sign of zeros
        assert np.array_equal(traj.stiffness, [sched.stiffness_at(t) for t in traj.t])
        targets = [sched.target_at(t) for t in traj.t]
        assert np.array_equal(traj.target, [-1 if i is None else i for i in targets])


@pytest.mark.parametrize("noop, breaks", [
    (((0.05, -1), (0.1, 0)), ((0.1, 0),)),
    (((0.1, 0), (0.3, 0)), ((0.1, 0),)),
    (((0.0, -1), (0.1, 0)), ((0.1, 0),)),
], ids=["first-break-to-center", "repeated-target", "center-at-0"])
def test_a_break_to_the_target_held_starts_no_leg(task, body, band, opts, noop, breaks):
    """A target break that names the target already held starts no leg and
    leaves the branch machine as it is: every record of the trial, gravity
    on, is bit-identical to the trial without that break."""
    def trial(target_breaks):
        schedule = ParamSchedule(duration=0.6, target_breaks=target_breaks)
        return run_trial(schedule, task, body, band, opts)

    got, want = trial(noop), trial(breaks)
    for field in dataclasses.fields(Trajectory):
        assert getattr(got, field.name).tobytes() == getattr(want, field.name).tobytes(), \
            field.name


def kernel_inputs(monkeypatch, schedule, task, body, band, opts):
    """The arguments :func:`run_trial` gives ``_kernel.simulate``."""
    calls, simulate = [], _kernel.simulate
    with monkeypatch.context() as patch:
        patch.setattr(_kernel, "simulate", lambda *args: calls.append(args) or simulate(*args))
        run_trial(schedule, task, body, band, opts)
    (args,) = calls
    return args


def test_kernel_is_reentrant(monkeypatch, task, body, weightless, band, opts):
    """Two kernel calls at once, on two threads, fill records bit-identical
    to the same calls made one after the other: the kernel keeps no state
    between calls, as the kernel pool and the CSV writer thread need."""
    inputs = [
        kernel_inputs(monkeypatch, build_clock_schedule(task, band, 1000.0, math.radians(-25.0)),
                      task, body, band, opts),
        kernel_inputs(monkeypatch, build_clock_schedule(task, band), task, weightless, band,
                      opts),
    ]
    serial = [_kernel.simulate(*args) for args in inputs]
    both = threading.Barrier(2, timeout=60)

    def at_once(args):
        both.wait()
        return _kernel.simulate(*args)

    with ThreadPoolExecutor(2) as pool:
        concurrent = list(pool.map(at_once, inputs))
    for (failed, records), (want_failed, want) in zip(concurrent, serial):
        assert failed == want_failed == -1
        assert [r.tobytes() for r in records] == [r.tobytes() for r in want]
    # the two trials differ, so a record one of them leaked would show
    assert serial[0][1][2].tobytes() != serial[1][1][2].tobytes()


# ---------------------------------------------------------------------------
# single laws: each C law against its Python float law, bit for bit
# ---------------------------------------------------------------------------


@functools.cache
def laws():
    """The library's test entry points ``wristsim_law_*``, declared."""
    f64 = np.ctypeslib.ndpointer(dtype=np.float64, flags="C_CONTIGUOUS")
    d, i = ctypes.c_double, ctypes.c_int
    lib = ctypes.CDLL(str(_kernel.build()))
    for name, args, res in (
        ("digits17", [d, np.ctypeslib.ndpointer(dtype=np.int64, flags="C_CONTIGUOUS")], i),
        ("leg_position", [f64, d, f64], None),
        ("pointing_quat", [f64, d, d, f64], None),
        ("branch_step", [i, ctypes.POINTER(d), d, d], i),
        ("branch_torque", [f64, f64, d, i, d, f64], None),
        ("plant", [f64, f64, f64, f64], None),
    ):
        fn = getattr(lib, f"wristsim_law_{name}")
        fn.argtypes, fn.restype = args, res
    return lib


#: the laws are cheap: more examples reach inputs whose rounding tells
#: one operation order from another
LAW_SETTINGS = settings(max_examples=200)


def bits(values):
    return np.array(values, dtype=float).tobytes()


signed_zero = st.sampled_from([0.0, -0.0])
coord = st.one_of(signed_zero, st.floats(-2.0, 2.0))


def generic(n, scale=1.0):
    """``n`` normal floats with full-length digits, where a changed
    operation order shows in the last bit (hypothesis favours short ones)."""
    return st.integers(0, 2**32 - 1).map(
        lambda seed: tuple((scale * np.random.default_rng(seed).normal(size=n)).tolist())
    )


unit_quat = st.one_of(st.tuples(*[st.floats(-1.0, 1.0)] * 4), generic(4)).filter(
    lambda q: sum(c * c for c in q) > 1e-3
).map(lambda q: tuple(c / math.sqrt(sum(c * c for c in q)) for c in q))


@LAW_SETTINGS
@given(
    t0=st.floats(0.0, 10.0), rel=st.one_of(signed_zero, st.floats(-1.0, 2.0)),
    dist=st.floats(0.0, 0.5), omega=st.floats(0.0, 20.0),
    duration=st.one_of(signed_zero, st.floats(0.0, 1.0)),
    target=st.tuples(coord, coord, coord), unit=st.tuples(coord, coord, coord),
)
def test_leg_position_law(t0, rel, dist, omega, duration, target, unit):
    leg = ReachProfile(target, unit, t0, dist, omega, duration)
    row = np.array([t0, duration, dist, omega, *target, *unit])
    out = np.empty(3)
    for t in (t0 + rel, t0, t0 + duration):
        laws().wristsim_law_leg_position(row, t, out)
        assert out.tobytes() == bits(leg.position(t))


@LAW_SETTINGS
@given(
    p=st.one_of(
        st.tuples(coord, coord, coord),
        # the reversed ray and its neighbours
        st.tuples(st.floats(-2.0, -1e-3), signed_zero, signed_zero),
        st.tuples(st.floats(-2.0, -1e-3), st.floats(-1e-12, 1e-12), signed_zero),
    ).filter(lambda p: math.sqrt(sum(c * c for c in p)) > 1e-6),
    roll=st.one_of(
        st.floats(-2.0 * math.pi, 2.0 * math.pi).map(lambda a: (math.cos(a), math.sin(a))),
        st.tuples(st.sampled_from([1.0, -1.0, 0.0, -0.0]), signed_zero),
        st.tuples(signed_zero, st.sampled_from([1.0, -1.0])),
    ),
)
def test_pointing_quat_law(p, roll):
    out = np.empty(4)
    laws().wristsim_law_pointing_quat(np.array(p), *roll, out)
    assert out.tobytes() == bits(pointing_quat(*p, *roll))


near_deadband = st.sampled_from([0.0, DEADBAND, np.nextafter(DEADBAND, 1.0), 0.5 * DEADBAND])


@LAW_SETTINGS
@given(
    diverging=st.booleans(),
    peak=st.one_of(signed_zero, near_deadband, st.floats(0.0, 3.0)),
    disp=st.one_of(signed_zero, near_deadband, st.floats(0.0, 3.0)),
    rate=st.one_of(signed_zero, st.floats(-1.0, 1.0)),
)
# a growing -0.0 tied with a stored +0.0 keeps the stored bits; the deadband edge
@example(diverging=True, peak=0.0, disp=-0.0, rate=1.0)
@example(diverging=True, peak=DEADBAND, disp=DEADBAND, rate=-0.0)
@example(diverging=False, peak=DEADBAND, disp=DEADBAND, rate=1.0)
def test_branch_step_law(diverging, peak, disp, rate):
    c_peak = ctypes.c_double(peak)
    c_div = laws().wristsim_law_branch_step(int(diverging), ctypes.byref(c_peak), disp, rate)
    py_div, py_peak = branch_step(diverging, peak, disp, rate)
    assert (bool(c_div), bits(c_peak.value)) == (py_div, bits(py_peak))


@LAW_SETTINGS
@given(
    q=unit_quat, d=unit_quat, same=st.sampled_from([None, 1.0, -1.0]),
    stiffness=st.floats(0.0, 1e4), diverging=st.booleans(),
    peak=st.one_of(signed_zero, st.floats(0.0, 3.0)),
)
def test_branch_torque_law(q, d, same, stiffness, diverging, peak):
    if same is not None:  # no error: d is q or its antipode
        d = tuple(same * c for c in q)
    out = np.empty(4)
    laws().wristsim_law_branch_torque(np.array(q), np.array(d), stiffness,
                                      int(diverging), peak, out)
    assert out.tobytes() == bits(branch_torque(*q, *d, stiffness, diverging, peak))


@LAW_SETTINGS
@given(
    mass=st.floats(0.1, 5.0), size=st.tuples(*[st.floats(0.01, 0.3)] * 3),
    com=st.tuples(coord, coord, coord).map(lambda c: tuple(0.1 * x for x in c)),
    gravity=st.one_of(st.just((0.0, 0.0, 0.0)), st.tuples(*[st.floats(-10.0, 10.0)] * 3)),
    q=unit_quat, omega=st.one_of(st.tuples(*[st.floats(-50.0, 50.0)] * 3), generic(3, 10.0)),
    tau=st.one_of(st.tuples(*[st.one_of(signed_zero, st.floats(-5.0, 5.0))] * 3), generic(3)),
)
def test_plant_law(mass, size, com, gravity, q, omega, tau):
    body = BodyModel(mass, *size, com_offset=com, gravity=gravity)
    out = np.empty(7)
    laws().wristsim_law_plant(np.array(plant_constants(body)), np.array([*q, *omega]),
                              np.array(tau), out)
    assert out.tobytes() == bits(plant(body)(*q, *omega, *tau))


def test_euler_law_matches_the_python_laws():
    """The compiled Euler decomposition equals the stack law and the
    per-sample libm law bit for bit, angles and lock flags, on random poses,
    poses at and near gimbal lock, poses whose r02 rounds past +-1, and
    signed zeros."""
    rng = np.random.default_rng(2718)
    random = quat_normalize(rng.normal(size=(100_000, 4)))
    # pitch at +-90 deg, and on both sides of the guard band around it
    pitch = np.array([s * (0.5 * math.pi - d) for s in (1.0, -1.0)
                      for d in (0.0, 1e-7, -1e-7, 3e-8, 1e-6, 2e-6, 1e-3)])
    roll, yaw = rng.uniform(-math.pi, math.pi, size=(2, 200 * len(pitch)))
    near_lock = quat_from_euler_xyz(roll, np.repeat(pitch, 200), yaw)
    half = math.sqrt(0.5)
    zeros = np.array([[1.0, 0.0, 0.0, 0.0], [1.0, -0.0, -0.0, -0.0], [0.0, 1.0, 0.0, 0.0],
                      [0.0, 0.0, 0.0, 1.0], [0.0, 0.0, 1.0, 0.0], [half, 0.0, half, 0.0],
                      [half, 0.0, -half, 0.0], [half, -0.0, half, -0.0]])
    quats = np.vstack([random, near_lock, zeros, -random[:1000], -near_lock, -zeros])
    w, x, y, z = quats.T
    r02 = 2.0 * (x * z + w * y)
    assert (r02 > 1.0).any() and (r02 < -1.0).any()  # the clamp is taken both ways

    angles, locked = _kernel.euler_xyz(quats)
    assert angles.shape == (len(quats), 3) and locked.dtype == bool
    want_angles, want_locked = euler_xyz_from_quat(quats)
    assert angles.tobytes() == want_angles.tobytes()  # also the sign of zeros
    assert locked.tobytes() == want_locked.tobytes()
    rows = [euler_xyz_scalar(q) for q in quats.tolist()]
    assert angles.tobytes() == bits([ang for ang, _ in rows])
    assert locked.tolist() == [lock for _, lock in rows]
    assert 0 < np.count_nonzero(locked[:len(random) + len(near_lock)]) < len(near_lock)


@pytest.mark.parametrize("bad", [
    [math.nan, 0.0, 0.0, 0.0], [1.0, math.inf, 0.0, 0.0], [0.5, 0.5, 0.5, -math.inf],
    [1e200, 1e200, 1e200, 1e200],  # finite, but its products overflow into NaN
], ids=["nan", "inf", "minus-inf", "overflow"])
def test_euler_law_refuses_what_has_no_angles(bad):
    """A quaternion that is not finite, or whose angles would not be
    numbers, is refused by name, where the Python law returns angles for
    it, NaN or not."""
    quats = np.tile([1.0, 0.0, 0.0, 0.0], (5, 1))
    quats[3] = bad
    for call in (_kernel.euler_xyz, extract_listing):
        with pytest.raises(ValueError, match="quaternion 3 has no Euler angles"):
            call(quats)
    with pytest.raises(ValueError, match=r"an \(n, 4\) quaternion stack"):
        _kernel.euler_xyz(quats[0])


def test_missing_or_failing_compiler_raises_named_error(tmp_path, monkeypatch):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    get_config_var = sysconfig.get_config_var
    cc = str(tmp_path / "no-such-cc")
    monkeypatch.setattr(sysconfig, "get_config_var",
                        lambda name: cc if name == "CC" else get_config_var(name))
    with pytest.raises(_kernel.KernelCompileError, match="no C compiler"):
        _kernel.build()
    cc = f"{get_config_var('CC') or 'cc'} --no-such-flag"
    with pytest.raises(_kernel.KernelCompileError, match="no-such-flag"):
        _kernel.build()
    # no temporary file is left behind
    assert list((tmp_path / "wristsim").iterdir()) == []


def test_library_is_named_by_its_flags_and_source(tmp_path, monkeypatch):
    """One file per build in a 0700 directory, no source copy beside it; a
    second build loads that file, and a changed source gets a file of its
    own, compiled anew."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    lib = _kernel.build()
    assert lib.parent == tmp_path / "wristsim"
    assert lib.parent.stat().st_mode & 0o777 == 0o700
    assert [p.name for p in lib.parent.iterdir()] == [lib.name]
    built = lib.stat().st_ino
    assert _kernel.build() == lib and lib.stat().st_ino == built  # cached
    changed = tmp_path / "_kernel.c"
    changed.write_bytes(_kernel.SOURCE.read_bytes() + b"/* one more line */\n")
    monkeypatch.setattr(_kernel, "SOURCE", changed)
    other = _kernel.build()
    assert other.parent == lib.parent and other.name != lib.name
    assert sorted(p.name for p in lib.parent.iterdir()) == sorted([lib.name, other.name])
    assert lib.stat().st_ino == built
    assert ctypes.CDLL(str(other)).wristsim_format_rows  # a library, compiled


def test_naming_the_library_loads_no_openssl():
    """The library's name is hashed without ``hashlib``, whose OpenSSL
    would add some 3.5 MB to the peak RSS of every run."""
    if not any(importlib.util.find_spec(name) for name in ("_sha2", "_sha256")):
        pytest.skip("this Python has no SHA-256 of its own")
    code = (
        "import sys\n"
        "from wristsim import _kernel\n"
        "name = _kernel._cache_path(b'int x;').name\n"
        "assert name == '_kernel-' + sys.argv[1] + '.so', name\n"
        "assert '_hashlib' not in sys.modules and 'hashlib' not in sys.modules\n"
    )
    digest = hashlib.sha256(" ".join(_kernel.CFLAGS).encode() + b"\0int x;").hexdigest()
    src = os.path.dirname(os.path.dirname(_kernel.__file__))
    proc = subprocess.run([sys.executable, "-c", code, digest], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("opt", [("-O3",), ("-O2", "-fno-math-errno")], ids=" ".join)
def test_outputs_do_not_depend_on_the_optimisation_flags(opt, tmp_path, monkeypatch,
                                                         task, body, band, opts):
    """A library built at another optimisation level, still without fused
    multiply-adds, gives the shipped build's bits: the seven records of the
    default clock condition and the Euler decomposition of its poses."""
    def outputs():
        traj = run_trial(build_clock_schedule(task, band), task, body, band, opts)
        return [getattr(traj, name) for name in RECORDS], _kernel.euler_xyz(traj.quat)

    shipped = outputs()
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    monkeypatch.setattr(_kernel, "CFLAGS", (*opt, "-fPIC", "-shared", "-ffp-contract=off"))
    _kernel._library.cache_clear()
    try:
        built = outputs()
        lib = _kernel._cache_path(_kernel.SOURCE.read_bytes())
    finally:
        _kernel._library.cache_clear()
    assert lib.is_file() and lib.parent == tmp_path / "wristsim"  # built anew
    (records, (angles, locked)), (want_records, (want_angles, want_locked)) = built, shipped
    for name, got, want in zip(RECORDS, records, want_records):
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), name
    assert np.array_equal(angles.view(np.uint64), want_angles.view(np.uint64))
    assert np.array_equal(locked, want_locked)


# without 128-bit integers the formatter hands every value to snprintf
@pytest.mark.parametrize("flags", [[], ["-U__SIZEOF_INT128__"]],
                         ids=["default", "without-int128"])
def test_source_compiles_without_warnings(tmp_path, flags):
    """The library builds as :func:`_kernel.build` builds it, with
    ``-Wall -Wextra -Werror``: the optimiser's own warnings count too."""
    cc = shlex.split(sysconfig.get_config_var("CC") or "cc")
    proc = subprocess.run(
        [*cc, *_kernel.CFLAGS, *flags, "-Wall", "-Wextra", "-Werror",
         "-o", str(tmp_path / "_kernel.so"), str(_kernel.SOURCE), "-lm"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr


def formatted(values):
    """The formatter's text of ``values``, one per line."""
    fh = io.BytesIO()
    _kernel.write_rows(fh, [np.asarray(values, dtype=float).ravel()])
    return fh.getvalue().decode().splitlines()


def assert_g17(values):
    values = np.asarray(values, dtype=float).ravel()
    got = formatted(values)
    assert len(got) == len(values)
    bad = [(v, g) for v, g in zip(values.tolist(), got) if g != "%.17g" % v]
    assert not bad, bad[:5]


def neighbours(x, steps=3):
    out, lo, hi = [x], x, x
    for _ in range(steps):
        lo, hi = np.nextafter(lo, -np.inf), np.nextafter(hi, np.inf)
        out += [lo, hi]
    return out


def test_formatter_edge_values():
    tiny, huge = np.finfo(float).smallest_normal, np.finfo(float).max
    edges = [0.0, 5e-324, 2.5e-323, 1e-310, tiny, np.nextafter(tiny, 0.0), huge, 0.5, 0.1]
    edges += neighbours(1e-11) + neighbours(1e17) + neighbours(1e-38)
    # the exact path ends at k = 55, that is at 2^-129, between 1e-39 and 1e-38
    edges += neighbours(1e-39) + neighbours(2.0 ** -129)
    edges += [v for k in range(-38, 31) for v in neighbours(10.0 ** k)]
    # just below a power of ten, where rounding up would carry into a new decade
    edges += [9.9999999999999995e-05, 0.99999999999999994, 9999999999999999.5,
              99999999999999984.0]
    edges = np.array(edges)
    assert_g17(np.concatenate([edges, -edges]))
    assert formatted([0.0, -0.0]) == ["0", "-0"]
    assert formatted([1234567890123456.75]) == ["1234567890123456.8"]


def test_formatter_both_sides_of_the_wide_product(rng):
    # 5^k needs more than 64 bits from k = 28 (|x| < 1e-11) on.  From 1e-11
    # up to 2^-36 the first guess of the exponent is one too low, so the
    # 192-bit product is tried before the 128-bit one; from 1e-38 up to
    # 2^-126 the first guess is k = 55.  From 2^-129 up to 1e-38, k = 55 is
    # also the answer; below 2^-129 the first guess is k = 56, for snprintf
    for lo, hi in ((2.0 ** -38, 2.0 ** -36), (1e-38, 2.0 ** -125), (1e-40, 1e-38)):
        values = rng.uniform(lo, hi, 100_000)
        assert_g17(np.concatenate([values, -values]))


def test_formatter_takes_the_exact_path_across_its_band():
    """Both edges of the band and every k = 0..55 take the exact path, with
    the digits and exponent of ``'%.16e'``; just outside it, snprintf."""
    inside = [2.0 ** -129, np.nextafter(1e17, 0.0)]
    inside += [float(f"{m}e{16 - k}") for k in range(56) for m in ("2", "9.8765432109876543")]
    out = np.empty(2, dtype=np.int64)
    for x in inside:
        assert laws().wristsim_law_digits17(x, out) == 1, x
        mantissa, exp10 = ("%.16e" % x).split("e")
        assert out.tolist() == [int(mantissa.replace(".", "")), int(exp10)], x
    for x in (np.nextafter(2.0 ** -129, 0.0), 1e17):
        assert laws().wristsim_law_digits17(x, out) == 0, x


# formats the one value float.fromhex(argv[2]) with argv[1]'s formatter
FORMAT_ONE = """
import ctypes, sys
fmt = ctypes.CDLL(sys.argv[1]).wristsim_format_rows
fmt.argtypes = [ctypes.c_int64, ctypes.c_int64, ctypes.POINTER(ctypes.c_double),
                ctypes.c_char_p, ctypes.c_int64]
fmt.restype = ctypes.c_int64
x, buf = ctypes.c_double(float.fromhex(sys.argv[2])), ctypes.create_string_buffer(64)
size = fmt(1, 1, ctypes.byref(x), buf, len(buf))
sys.stdout.buffer.write(buf.raw[:size])
"""


def test_formatter_falls_back_when_its_table_is_wrong(tmp_path):
    """A wrong 5^55 makes the exponent search miss at k = 55 and at k = 54
    for the doubles just below 1e-38; the bounded search hands such a value
    to snprintf instead of stepping between the two forever."""
    fill = "pow5[i] = 5 * pow5[i - 1];"
    source = _kernel.SOURCE.read_text()
    assert source.count(fill) == 1
    # the added statement runs once, after the loop that fills the table
    source = source.replace(fill, fill + "\n    pow5[55] += (u128)1 << 80;")
    lib = tmp_path / "wrong.so"
    _kernel._compile(source.encode(), lib)
    x = float(np.nextafter(1e-38, 0.0))
    proc = subprocess.run([sys.executable, "-c", FORMAT_ONE, str(lib), x.hex()],
                          capture_output=True, timeout=20)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == b"%.17g\n" % x


def test_formatter_ties_and_integers(rng):
    # x + j/4 in [2^50, 2^51) has 18 significant digits: j = 1 and 3 are
    # exact ties at the 17th
    ints = 2.0 ** 50 + rng.integers(0, 2 ** 50, 50_000)
    assert_g17(ints[:, None] + np.arange(4) / 4)
    assert_g17(np.arange(2 ** 53 - 20_000, 2 ** 53 + 1, dtype=float))
    assert_g17(np.arange(-20_000, 20_000, dtype=float))


def test_formatter_random_values():
    rng = np.random.default_rng(20261018)
    n = 1_000_000
    values = rng.uniform(1.0, 10.0, n) * 10.0 ** rng.integers(-40, 41, n)
    assert_g17(np.where(rng.random(n) < 0.5, -values, values))


def test_formatter_refuses_non_finite_values():
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="^row 1 holds a value that is not finite$"):
            _kernel.write_rows(io.BytesIO(), [np.array([[1.0, 2.0], [bad, 3.0]])])


def test_write_rows_sets_columns_side_by_side(tmp_path, rng):
    """Columns of one or more values per row make the rows of their stacked
    table, across a block boundary; columns of unequal length are refused."""
    n = _kernel.BLOCK_ROWS + 3
    columns = [rng.normal(size=n), rng.normal(size=(n, 3))[:, ::2], rng.normal(size=(n, 1))]
    with open(tmp_path / "got.csv", "wb") as fh:
        _kernel.write_rows(fh, columns)
    np.savetxt(tmp_path / "want.csv", np.column_stack(columns), fmt="%.17g", delimiter=",")
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()
    with pytest.raises(ValueError, match="one n"):
        _kernel.write_rows(io.BytesIO(), [np.zeros(3), np.zeros((4, 2))])


def head(traj, n):
    """The first ``n`` samples of ``traj``."""
    assert len(traj) >= n
    return dataclasses.replace(traj, **{
        f.name: getattr(traj, f.name)[:n] for f in dataclasses.fields(traj)
    })


def assert_written_as_savetxt(tmp_path, traj):
    with ThreadPoolExecutor(1) as writer:
        write_trajectory(tmp_path / "got.csv", traj, writer).result()
    savetxt(tmp_path / "want.csv", TRAJECTORY_COLUMNS, trajectory_table(traj))
    got = (tmp_path / "got.csv").read_bytes()
    assert got == (tmp_path / "want.csv").read_bytes()
    assert got.count(b"\n") == len(traj) + 1


@pytest.mark.parametrize("rows", [1, 1024, 1025])
def test_write_trajectory_matches_savetxt(tmp_path, task, body, band, opts, rows):
    traj = run_trial(build_retune_schedule(), task, body, band, opts)
    assert_written_as_savetxt(tmp_path, head(traj, rows))


def test_write_trajectory_matches_savetxt_on_tiny_values(tmp_path, task, weightless, band,
                                                        opts):
    """A gravity-off clock trial starts with torsion and swing components
    far below 1e-11, the values the 192-bit product formats."""
    sched = build_clock_schedule(task, band)
    traj = head(run_trial(sched, task, weightless, band, opts), 1025)
    table = np.abs(trajectory_table(traj))
    assert ((table >= 1e-38) & (table < 1e-11)).sum() > 5000
    assert_written_as_savetxt(tmp_path, traj)


def test_write_csv_refuses_non_finite_and_leaves_no_file(tmp_path):
    """A refused table names its first bad row and removes the file, also
    one that was there before."""
    block, column = np.zeros((5, 2)), np.zeros(5)
    block[3, 1] = column[4] = np.nan
    path = tmp_path / "out.csv"
    path.write_bytes(b"an earlier file\n")
    with pytest.raises(ValueError, match=r"out\.csv: row 3 holds .*; nothing written$"):
        write_csv(path, ("a", "b", "c"), [column, block])
    assert not path.exists()
