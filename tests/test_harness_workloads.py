"""Tests for the input-workload generators."""

import pytest

from repro.core.common import decision_threshold
from repro.errors import ConfigurationError
from repro.harness.workloads import (
    balanced_inputs,
    random_inputs,
    split_inputs,
    supermajority_inputs,
    unanimous_inputs,
)


class TestWorkloads:
    def test_unanimous(self):
        assert unanimous_inputs(5, 1) == [1] * 5
        assert unanimous_inputs(3, 0) == [0] * 3
        with pytest.raises(ConfigurationError):
            unanimous_inputs(3, 2)

    def test_split_counts(self):
        inputs = split_inputs(7, 3)
        assert sum(inputs) == 3 and len(inputs) == 7

    def test_split_shuffle_is_seeded(self):
        a = split_inputs(10, 4, shuffle_seed=1)
        b = split_inputs(10, 4, shuffle_seed=1)
        c = split_inputs(10, 4, shuffle_seed=2)
        assert a == b
        assert sum(a) == sum(c) == 4
        assert a != c or True  # permutations may coincide; counts must not

    def test_split_bounds(self):
        with pytest.raises(ConfigurationError):
            split_inputs(5, 6)

    def test_balanced_is_floor_half(self):
        assert sum(balanced_inputs(9)) == 4
        assert sum(balanced_inputs(10)) == 5

    def test_supermajority_exceeds_threshold(self):
        for n, k in [(7, 2), (9, 4), (13, 4)]:
            inputs = supermajority_inputs(n, k, 1)
            assert sum(inputs) >= decision_threshold(n, k)
        zeros = supermajority_inputs(9, 4, 0)
        assert zeros.count(0) >= decision_threshold(9, 4)

    def test_supermajority_value_must_be_binary(self):
        for value in (2, -1, None):
            with pytest.raises(ConfigurationError):
                supermajority_inputs(7, 2, value)

    def test_supermajority_impossible_rejected(self):
        with pytest.raises(ConfigurationError):
            supermajority_inputs(3, 3, 1)

    def test_random_inputs_seeded(self):
        assert random_inputs(20, seed=5) == random_inputs(20, seed=5)
        assert set(random_inputs(50, seed=1)) <= {0, 1}

    def test_random_inputs_bias(self):
        heavy = random_inputs(500, seed=2, p_one=0.9)
        assert sum(heavy) > 400
