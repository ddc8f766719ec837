"""The verify suites' draws (``verify._Draws``) are NumPy's legacy
``RandomState(seed)`` streams bit for bit, and the suites print the same
rows with either; a seed RandomState would refuse is refused before any
suite runs."""

import random
import re

import numpy as np
import pytest

from apcone import verify
from apcone.verify import SUITES, _Draws, run_suite

SEED_MESSAGE = re.escape("Seed must be between 0 and 2**32 - 1")


def _calls(seed, n=1000):
    """A mixed, seeded sequence of the draws the suites make, plus a few
    ranges they do not use (scalar and sized ``uniform``, ``choice`` of
    two signs, ``randint`` of 1, 2, 3, 1000 and 2**32)."""
    pick = random.Random(seed)
    calls = []
    for _ in range(n):
        kind = pick.randrange(6)
        if kind == 0:
            calls.append(("uniform", (-0.8, 0.8), {}))
        elif kind == 1:
            calls.append(("uniform", (-2.0, 2.0), {"size": pick.randint(1, 8)}))
        elif kind == 2:
            calls.append(("uniform", (np.log(1e-3), np.log(2.0)), {}))
        elif kind == 3:
            calls.append(("choice", ([-1.0, 1.0],), {}))
        elif kind == 4:
            calls.append(("randint", (2,), {}))
        else:
            high = pick.choice([1, 3, 1000, 2 ** 32])
            calls.append(("randint", (high,), {}))
    return calls


def _bits(value):
    return np.asarray(value, dtype=np.float64).tobytes()


@pytest.mark.parametrize("seed", [0, 1, 17, 2001, 2 ** 32 - 1])
def test_draws_reproduce_randomstate_bit_for_bit(seed):
    ours, theirs = _Draws(seed), np.random.RandomState(seed)
    for name, args, kwargs in _calls(seed):
        a = getattr(ours, name)(*args, **kwargs)
        b = getattr(theirs, name)(*args, **kwargs)
        assert np.shape(a) == np.shape(b), (name, args, kwargs)
        assert _bits(a) == _bits(b), (name, args, kwargs)
    # and both generators end in the same state
    _, key, pos, *_ = theirs.get_state()
    _, state, _ = ours._mt.getstate()
    assert state == (*key.tolist(), pos)


def test_draws_start_in_randomstate_seeded_state():
    _, state, _ = _Draws(5489)._mt.getstate()
    _, key, pos, *_ = np.random.RandomState(5489).get_state()
    assert state == (*key.tolist(), pos)
    assert state[0] == 5489 and state[-1] == 624


@pytest.mark.parametrize("mild", [True, False])
def test_random_type2_spec_takes_either_rng(mild):
    for seed in range(20):
        assert verify.random_type2_spec(_Draws(seed), mild) == \
            verify.random_type2_spec(np.random.RandomState(seed), mild)


@pytest.mark.parametrize("seed", [0, 1, 2001])
@pytest.mark.parametrize("suite", list(SUITES))
def test_suite_rows_are_the_randomstate_rows(suite, seed, monkeypatch):
    rows = run_suite(suite, seed)
    monkeypatch.setattr(verify, "_Draws", np.random.RandomState)
    reference = run_suite(suite, seed)
    assert rows == reference


@pytest.mark.parametrize("seed", [-1, 2 ** 32, 1.0, 0.5, "3", None])
def test_bad_seeds_are_refused_before_any_suite_runs(seed, monkeypatch):
    def must_not_run(seed):
        raise AssertionError("the suite ran")

    monkeypatch.setitem(SUITES, "prop76", must_not_run)
    with pytest.raises(ValueError, match=SEED_MESSAGE):
        run_suite("prop76", seed)
    with pytest.raises(ValueError, match=SEED_MESSAGE):
        _Draws(seed)


@pytest.mark.parametrize("seed", [-1, 2 ** 32])
def test_randomstate_refuses_the_same_seeds(seed):
    with pytest.raises(ValueError, match=SEED_MESSAGE):
        np.random.RandomState(seed)


@pytest.mark.parametrize("seed", [0, 2 ** 32 - 1, np.int64(7), np.uint32(9)])
def test_integer_seeds_in_range_are_taken(seed):
    assert _Draws(seed).uniform(0.0, 1.0) == \
        np.random.RandomState(seed).uniform(0.0, 1.0)


@pytest.mark.parametrize("high", [0, -3, 2 ** 32 + 1])
def test_randint_outside_its_range_is_refused(high):
    with pytest.raises(ValueError):
        _Draws(0).randint(high)
