import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from linenet.errors import InvalidStateError, SpecValidationError
from linenet.sim import ContinuousSpec
from linenet.model import (
    NetworkSpec,
    enumerate_states,
    index_state,
    make_rng,
    state_index,
)


def test_validation_rejects_bad_specs():
    with pytest.raises(SpecValidationError):
        NetworkSpec((0.5,), ())  # single hop
    with pytest.raises(SpecValidationError):
        NetworkSpec((0.5, 0.5), (2, 2))  # wrong buffer count
    with pytest.raises(SpecValidationError):
        NetworkSpec((0.0, 0.5), (2,))  # boundary eps rejected, not clamped
    with pytest.raises(SpecValidationError):
        NetworkSpec((1.0, 0.5), (2,))
    with pytest.raises(SpecValidationError):
        NetworkSpec((0.5, 0.5), (0,))  # empty buffer


@pytest.mark.parametrize("bad", [2.9, 2.0, True, "3", None])
def test_buffer_sizes_must_be_integers(bad):
    # refused rather than truncated, by the one check both spec classes share
    with pytest.raises(SpecValidationError, match="must be an integer"):
        NetworkSpec((0.5, 0.5), (bad,))
    with pytest.raises(SpecValidationError, match="must be an integer"):
        ContinuousSpec((10.0, 3.0), (bad,), 0.001)


def test_numpy_integer_buffers_accepted():
    spec = NetworkSpec((0.5, 0.5, 0.5), np.array([2, 3]))
    assert spec.buffers == (2, 3) and all(type(m) is int for m in spec.buffers)
    assert ContinuousSpec((10.0, 3.0), (np.int32(3),), 0.001).buffers == (3,)


def test_state_index_examples():
    spec = NetworkSpec((0.5, 0.5, 0.5), (2, 2))
    assert state_index((0, 0), spec) == 1
    # 1 + s1 + s2 * (m1 + 1) = 1 + 1 + 2 * 3
    assert state_index((1, 2), spec) == 8
    got = sorted(state_index(index_state(k, spec), spec) for k in range(1, 10))
    assert got == list(range(1, 10))


def test_index_state_examples():
    spec = NetworkSpec((0.5, 0.5, 0.5), (2, 2))
    assert index_state(1, spec) == (0, 0)
    assert index_state(8, spec) == (1, 2)
    spec2 = NetworkSpec((0.5,) * 4, (3, 2, 4))
    for k in range(1, spec2.num_states + 1):
        assert state_index(index_state(k, spec2), spec2) == k


def test_index_errors():
    spec = NetworkSpec((0.5, 0.5, 0.5), (2, 2))
    with pytest.raises(InvalidStateError):
        state_index((3, 0), spec)
    with pytest.raises(InvalidStateError):
        state_index((0, 0, 0), spec)
    with pytest.raises(InvalidStateError):
        index_state(0, spec)
    with pytest.raises(InvalidStateError):
        index_state(10, spec)


@given(
    st.integers(2, 5).flatmap(
        lambda h: st.tuples(
            st.just(h),
            st.lists(st.integers(1, 4), min_size=h - 1, max_size=h - 1),
        )
    )
)
@settings(max_examples=40, deadline=None)
def test_index_bijection_property(hm):
    h, buffers = hm
    spec = NetworkSpec((0.5,) * h, tuple(buffers))
    states = enumerate_states(spec)
    assert states.shape[0] == spec.num_states
    seen = set()
    for row in states:
        k = state_index(tuple(row), spec)
        assert 1 <= k <= spec.num_states
        seen.add(k)
        assert index_state(k, spec) == tuple(row)
    assert len(seen) == spec.num_states


def _channels(rng, spec, n):
    """n epochs of link outcomes, drawn as the simulators and the coupled check draw them."""
    return rng.random((n, spec.h)) >= np.asarray(spec.eps)


def test_sample_channels_bernoulli_law():
    spec = NetworkSpec((0.3, 0.7), (2,))
    n = 200_000
    draws = _channels(make_rng(1), spec, n)
    for i, e in enumerate(spec.eps):
        p_hat = draws[:, i].mean()
        sigma = np.sqrt(e * (1 - e) / n)
        assert abs(p_hat - (1 - e)) < 3 * sigma + 1e-12


def test_sample_channels_independent_links():
    spec = NetworkSpec((0.5, 0.5), (2,))
    n = 200_000
    draws = _channels(make_rng(7), spec, n)
    corr = np.corrcoef(draws[:, 0], draws[:, 1])[0, 1]
    assert abs(corr) < 3 / np.sqrt(n)


def test_sample_channels_deterministic_replay():
    spec = NetworkSpec((0.4, 0.6, 0.2), (1, 3))
    first = _channels(make_rng(123), spec, 50)
    second = _channels(make_rng(123), spec, 50)
    assert np.array_equal(first, second)


def test_json_round_trip(tmp_path):
    doc = {"eps": [0.5, 0.4999, 0.4998, 0.4], "buffers": [5, 5, 5]}
    spec = NetworkSpec.from_json(json.dumps(doc))
    assert spec.h == 4
    assert spec.to_dict() == doc
    path = tmp_path / "net.json"
    path.write_text(json.dumps(spec.to_dict()))
    assert NetworkSpec.load(path) == spec
    with pytest.raises(SpecValidationError):
        NetworkSpec.from_json("not json")
    with pytest.raises(SpecValidationError):
        NetworkSpec.from_json('{"eps": [0.5, 0.5]}')
