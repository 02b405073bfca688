from fractions import Fraction

import pytest

import stosub as ss


class TestCommonCause:
    def test_deterministic_given_seed(self):
        a = ss.generate_common_cause(3, 2, 3, seed=4)
        b = ss.generate_common_cause(3, 2, 3, seed=4)
        assert a == b

    def test_seeds_vary_instances(self):
        a = ss.generate_common_cause(3, 2, 3, seed=0)
        b = ss.generate_common_cause(3, 2, 3, seed=1)
        assert a != b

    def test_support_capped_by_worlds(self):
        inst = ss.generate_common_cause(4, 2, 3, seed=1)
        assert len(inst.distribution.entries) <= 3

    def test_single_world_is_deterministic_and_independent(self):
        inst = ss.generate_common_cause(3, 2, 1, seed=9)
        assert len(inst.distribution.entries) == 1
        assert ss.kappa(inst).value == Fraction(1)
        assert ss.gamma(inst).value == Fraction(1)

    def test_rejects_bad_sizes(self):
        with pytest.raises(ss.InputError):
            ss.generate_common_cause(0, 2, 2, seed=0)


class TestProduct:
    def test_probabilities_are_exact_products(self):
        inst = ss.generate_product(2, states_per_item=2, seed=3)
        marginals = [{s: Fraction(0) for s in inst.states} for _ in inst.items]
        for realization, prob in inst.distribution.entries:
            for item, marg in zip(inst.items, marginals):
                marg[realization.state_of(item)] += prob
        for realization, prob in inst.distribution.entries:
            expected = Fraction(1)
            for item, marg in zip(inst.items, marginals):
                expected *= marg[realization.state_of(item)]
            assert prob == expected

    def test_full_product_support(self):
        inst = ss.generate_product(3, states_per_item=2, seed=0)
        assert len(inst.distribution.entries) == 8

    def test_explicit_marginals(self):
        marginals = [
            [("x", Fraction(1, 3)), ("y", Fraction(2, 3))],
            [("x", Fraction(1, 2)), ("y", Fraction(1, 2))],
        ]
        inst = ss.generate_product(2, per_item_marginals=marginals, seed=0)
        assert inst.states == ("x", "y")
        probability = dict(inst.distribution.entries)
        assert probability[ss.Realization((("e1", "x"), ("e2", "y")))] == Fraction(1, 6)

    def test_marginals_must_sum_to_one(self):
        with pytest.raises(ss.InputError):
            ss.generate_product(
                1, per_item_marginals=[[("x", Fraction(1, 3))]], seed=0
            )

    def test_support_cap(self):
        with pytest.raises(ss.CapacityError):
            ss.generate_product(13, states_per_item=2, seed=0)

    @pytest.mark.parametrize("seed", range(5))
    def test_independence_degrees_are_one(self, seed):
        inst = ss.generate_product(2, states_per_item=3, seed=seed)
        assert ss.kappa(inst).value == Fraction(1)
        assert ss.gamma(inst).value == Fraction(1)


class TestCommonCause2:
    def test_shape(self, cc2):
        assert cc2.items == ("a", "b")
        assert cc2.states == ("good", "bad")
        assert cc2.utility.targets == ("t1", "t2", "t3")
        assert cc2.utility.weights == (1.0, 1.0, 1.0)
        assert len(cc2.distribution.entries) == 2

    def test_frozen_independence_profile(self, cc2):
        assert ss.kappa(cc2).value == Fraction(1, 2)
        assert ss.gamma(cc2).value == Fraction(1)

    def test_worlds_are_perfectly_correlated(self, cc2):
        for realization, _ in cc2.distribution.entries:
            assert realization.state_of("a") == realization.state_of("b")
