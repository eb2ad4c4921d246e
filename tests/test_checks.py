"""The ``--check`` suite's Euler round trip: the generator stream it reads
and the memory it holds."""

import tracemalloc

import numpy as np

from wristsim import checks


def test_euler_round_trip_reads_the_stream_of_one_draw():
    """Drawing block by block leaves the generator where one
    ``(EULER_SAMPLES, 4)`` draw leaves it, so the checks after it, and the
    seed's ``--check`` text, see the same numbers."""
    for seed in (0, 1, 7):
        rng, twin = np.random.default_rng(seed), np.random.default_rng(seed)
        assert checks.check_euler_round_trip(rng).passed
        twin.standard_normal((checks.EULER_SAMPLES, 4))
        assert rng.bit_generator.state == twin.bit_generator.state


def traced_peak(samples, monkeypatch) -> int:
    """Bytes the round trip over ``samples`` samples holds at its peak,
    above what was allocated before it."""
    monkeypatch.setattr(checks, "EULER_SAMPLES", samples)
    rng = np.random.default_rng(0)
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        assert checks.check_euler_round_trip(rng).passed
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def test_euler_round_trip_memory_does_not_grow_with_its_samples(monkeypatch):
    """The check draws and checks one block at a time, so doubling its
    samples adds less than 1 MB to its peak, where a whole (n, 4) draw
    would add 3.2 MB."""
    small = traced_peak(100_000, monkeypatch)
    large = traced_peak(200_000, monkeypatch)
    assert large - small < 1 << 20, (small, large)
