"""Keyed streams: every draw equals the draw of a new ``rng_for`` generator."""

import copy
import pickle

import pytest
from hypothesis import Phase, example, find, given, settings, strategies as st

from repro.chip.rng import KeyedStream, _fold, rng_for

#: The draw kinds the chip model makes, with the parameters it uses.
#: Scalar and odd-sized ``integers`` and ``permutation`` draw 32-bit
#: halves, so they can leave one buffered when the stream is re-keyed.
_DRAWS = {
    "normal": lambda g: g.normal(2.1, 0.35),
    "lognormal": lambda g: g.lognormal(10.904, 0.28),
    "uniform": lambda g: g.uniform(0.86, 1.0),
    "integers": lambda g: g.integers(4, 64),
    "integers_sized": lambda g: g.integers(0, 1024, size=3).tolist(),
    "permutation": lambda g: g.permutation(9).tolist(),
}

_KEY = st.integers(min_value=-(1 << 63), max_value=(1 << 64) - 1)
_KEYS = st.lists(_KEY, max_size=4).map(tuple)
_STEP = st.one_of(
    st.tuples(st.just("at"), st.integers(0, 1), _KEYS),
    st.tuples(st.just("draw"), st.integers(0, 1), st.sampled_from(sorted(_DRAWS))),
)
#: (prefix of each of two streams, their first keys, the steps that follow)
_CASES = st.tuples(
    st.tuples(_KEYS, _KEYS), st.tuples(_KEYS, _KEYS), st.lists(_STEP, max_size=30),
)


def _mismatch(make_stream, prefixes, first_keys, steps):
    """Index of the first draw where a stream differs from its reference.

    Two streams run interleaved; each step re-keys one of them or draws
    from it.  Returns None when every draw matches.
    """
    streams = [make_stream(*prefix) for prefix in prefixes]
    gens = [s.at(*keys) for s, keys in zip(streams, first_keys)]
    refs = [rng_for(*prefix, *keys) for prefix, keys in zip(prefixes, first_keys)]
    for index, (op, which, arg) in enumerate(steps):
        if op == "at":
            gens[which] = streams[which].at(*arg)
            refs[which] = rng_for(*prefixes[which], *arg)
        elif _DRAWS[arg](gens[which]) != _DRAWS[arg](refs[which]):
            return index
    return None


def _planted(keep):
    """A stream whose re-key carries the ``keep`` fields of the old state."""

    class Planted(KeyedStream):
        __slots__ = ()

        def at(self, *keys):
            old = self._bit_generator.state
            self._key[0] = _fold(self._folded, keys)
            new = copy.deepcopy(self._state)
            for name in keep:
                new[name] = old[name]
            self._bit_generator.state = new
            return self._generator

    return Planted


#: Re-keying right after a scalar ``integers`` leaves a 32-bit half behind.
_HALF_LEFT = (((1, 0xF11B5), (2,)), ((3,), (4,)),
              [("draw", 0, "integers"), ("at", 0, (5, 6)), ("draw", 0, "integers")])


@settings(max_examples=200, deadline=None)
@given(case=_CASES)
@example(case=_HALF_LEFT)
def test_stream_draws_equal_fresh_generator_draws(case):
    assert _mismatch(KeyedStream, *case) is None


@pytest.mark.parametrize("keep", [("has_uint32", "uinteger"), ("buffer", "buffer_pos")],
                         ids=["half", "buffer"])
def test_generated_cases_catch_a_stream_that_keeps_stale_state(keep):
    planted = _planted(keep)
    found = find(_CASES, lambda case: _mismatch(planted, *case) is not None,
                 settings=settings(max_examples=2_000, database=None,
                                   phases=[Phase.generate]))
    assert _mismatch(planted, *found) is not None


@pytest.mark.parametrize("clone", [copy.deepcopy, lambda s: pickle.loads(pickle.dumps(s))],
                         ids=["deepcopy", "pickle"])
def test_a_copied_stream_draws_like_the_original(clone):
    stream = KeyedStream(7, 0xDEAD)
    stream.at(1, 2).integers(4, 64)
    twin = clone(stream)
    assert twin.at(3, 4).integers(0, 1 << 40, size=5).tolist() == \
        rng_for(7, 0xDEAD, 3, 4).integers(0, 1 << 40, size=5).tolist()
    # The copy owns its generator: re-keying it leaves the original alone.
    gen = stream.at(5)
    twin.at(6)
    assert gen.normal() == rng_for(7, 0xDEAD, 5).normal()
