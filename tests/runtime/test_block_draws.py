"""The fault layer's block draw reader matches scalar numpy draws value for value."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.runtime.faults import BlockDraws

#: One request: ``("random",)``, ``("uniform", width)`` or ``("integers", lo, hi)``.
REQUESTS = st.one_of(
    st.just(("random",)),
    st.tuples(st.just("uniform"), st.floats(0.0, 10.0)),
    st.integers(-300, 300).flatmap(
        lambda lo: st.tuples(st.just("integers"), st.just(lo), st.integers(lo + 1, lo + 2**40))
    ),
)


def _scalar(rng: np.random.Generator, request: tuple) -> float | int:
    kind, *args = request
    if kind == "random":
        return rng.random()
    if kind == "uniform":
        return float(rng.uniform(0.0, args[0]))
    return int(rng.integers(args[0], args[1]))


def _blocked(draws: BlockDraws, request: tuple) -> float | int:
    kind, *args = request
    if kind == "random":
        return draws.random()
    if kind == "uniform":
        # numpy computes uniform(low, high) as low + (high - low) * random().
        return args[0] * draws.random()
    return draws.integers(args[0], args[1])


@given(
    seed=st.integers(0, 2**32 - 1),
    block=st.integers(1, 64) | st.integers(65, 4096),
    requests=st.lists(REQUESTS, max_size=200),
)
@settings(max_examples=300, deadline=None)
def test_block_draws_match_scalar_draws(seed, block, requests):
    reference = np.random.default_rng(seed)
    draws = BlockDraws(np.random.default_rng(seed), block)
    for request in requests:
        want = _scalar(reference, request)
        got = _blocked(draws, request)
        assert got == want and type(got) is type(want), request


def test_rewind_keeps_the_buffered_half_draw():
    # integers() over a small range uses half of a 64-bit draw and keeps
    # the other half inside the bit generator. A block drawn after it
    # must leave that half for the next integers() call, across the
    # rewind.
    reference = np.random.default_rng(11)
    draws = BlockDraws(np.random.default_rng(11), block=4)
    want = [int(reference.integers(0, 7)), reference.random(), int(reference.integers(0, 7))]
    want += [reference.random() for _ in range(9)]
    got = [draws.integers(0, 7), draws.random(), draws.integers(0, 7)]
    got += [draws.random() for _ in range(9)]
    assert got == want

