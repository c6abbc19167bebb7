"""Unit tests for reproducible random streams (repro.des.rng)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.des import RandomStreams
from repro.des.rng import check_distinct, seed_sequence


def test_same_seed_same_draws():
    a = RandomStreams(7).stream("x")
    b = RandomStreams(7).stream("x")
    assert np.allclose(a.random(16), b.random(16))


def test_different_names_give_independent_streams():
    rs = RandomStreams(7)
    xs = rs.stream("alpha").random(8)
    ys = rs.stream("beta").random(8)
    assert not np.allclose(xs, ys)


def test_stream_memoised_per_name():
    rs = RandomStreams(1)
    assert rs.stream("s") is rs.stream("s")


def test_new_stream_does_not_perturb_existing_one():
    """Key reproducibility property: consuming a new named stream must not
    change the sequence of an already-created stream."""
    rs1 = RandomStreams(5)
    first = rs1.stream("main").random(4)

    rs2 = RandomStreams(5)
    rs2.stream("extra").random(100)  # a consumer that rs1 never had
    second = rs2.stream("main").random(4)
    assert np.allclose(first, second)


def test_seed_type_checked():
    with pytest.raises(TypeError):
        RandomStreams("not-an-int")  # type: ignore[arg-type]


def test_exponential_mean_validation_and_sign():
    rs = RandomStreams(3)
    with pytest.raises(ValueError):
        rs.exponential("t", mean=0.0)
    draws = [rs.exponential("t", mean=2.0) for _ in range(100)]
    assert all(d > 0 for d in draws)
    assert 1.0 < np.mean(draws) < 3.5  # loose sanity band around mean 2


def test_bernoulli_validation_and_extremes():
    rs = RandomStreams(3)
    with pytest.raises(ValueError):
        rs.bernoulli("b", 1.5)
    assert all(rs.bernoulli("one", 1.0) for _ in range(20))
    assert not any(rs.bernoulli("zero", 0.0) for _ in range(20))


def test_choice_other_never_returns_excluded():
    rs = RandomStreams(11)
    n = 5
    for exclude in range(n):
        draws = {rs.choice_other("c", n, exclude) for _ in range(200)}
        assert exclude not in draws
        assert draws <= set(range(n))
        assert len(draws) == n - 1  # all alternatives reachable


def test_choice_other_validation():
    rs = RandomStreams(11)
    with pytest.raises(ValueError):
        rs.choice_other("c", 1, 0)
    with pytest.raises(ValueError):
        rs.choice_other("c", 4, 9)


def test_choice_other_uniformity():
    rs = RandomStreams(123)
    counts = np.zeros(4)
    for _ in range(4000):
        counts[rs.choice_other("u", 4, 2)] += 1
    assert counts[2] == 0
    rest = counts[[0, 1, 3]]
    assert rest.min() > 0.8 * rest.max()  # roughly uniform


def test_spawn_seeds_deterministic_and_distinct():
    a = RandomStreams(9).spawn_seeds("workers", 8)
    b = RandomStreams(9).spawn_seeds("workers", 8)
    assert a == b
    assert len(set(a)) == 8


def test_seed_sequence_helper():
    seeds = list(seed_sequence(42, 5))
    assert len(seeds) == 5 and len(set(seeds)) == 5


def test_check_distinct_diagnostic():
    rs = RandomStreams(2)
    assert check_distinct(rs, ["a", "b", "c"])


# -- bulk draws: the scalar draws' values, from the same buffers -------------

#: One draw program: bulk takes interleaved with scalar draws, on two
#: streams, with choice bounds that share one generator per stream.
_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("exp"), st.sampled_from("ab"), st.integers(0, 1300)),
        st.tuples(st.just("uni"), st.sampled_from("ab"), st.integers(0, 1300)),
        st.tuples(
            st.just("choice"),
            st.sampled_from("ab"),
            st.lists(st.sampled_from([1, 2, 3, 9]), max_size=1300),
        ),
    ),
    max_size=8,
)


def _run(ops, bulk: bool) -> list:
    rs = RandomStreams(11)
    out = []
    for kind, name, arg in ops:
        if kind == "exp":
            if bulk:
                out.extend(rs.take_exponential(name, arg).tolist())
            else:
                out.extend(rs.exponential(name, 1.0) for _ in range(arg))
        elif kind == "uni":
            if bulk:
                out.extend(rs.take_uniform(name, arg).tolist())
            else:
                out.extend(rs.uniform(name) for _ in range(arg))
        elif bulk:
            out.extend(rs.take_choice_indices(name, arg).tolist())
        else:
            out.extend(rs.choice_index(name, k) for k in arg)
    # the buffers are left where the scalar draws leave them
    out.extend(rs.exponential(n, 1.0) for n in "ab")
    out.extend(rs.uniform(n) for n in "ab")
    out.extend(rs.choice_index(n, k) for n in "ab" for k in (1, 2, 3, 9))
    return out


@settings(max_examples=60, deadline=None)
@given(_OPS)
def test_bulk_draws_equal_scalar_draws(ops):
    assert _run(ops, bulk=True) == _run(ops, bulk=False)


def test_take_choice_indices_replays_refill_order():
    """Two bounds on one stream: the second bound's refill comes after
    the first one's 512 draws, exactly as scalar calls trigger it."""
    bounds = [5] * 600 + [7] * 10 + [5] * 600
    bulk = RandomStreams(3).take_choice_indices("s", bounds)
    rs = RandomStreams(3)
    assert bulk.tolist() == [rs.choice_index("s", k) for k in bounds]


def test_take_choice_indices_validation():
    rs = RandomStreams(0)
    assert rs.take_choice_indices("s", []).tolist() == []
    with pytest.raises(ValueError, match="at least 1"):
        rs.take_choice_indices("s", [3, 0])
