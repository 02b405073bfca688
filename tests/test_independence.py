import math
from fractions import Fraction

import pytest

import stosub as ss
from conftest import make_single_item
from helpers import brute_gamma, brute_kappa, gamma_pair_ratio, kappa_ratio_at


class TestKappa:
    @pytest.mark.parametrize("seed", range(6))
    def test_product_distributions_give_exactly_one(self, seed):
        inst = ss.generate_product(3, states_per_item=2, seed=seed)
        report = ss.kappa(inst)
        assert report.value == Fraction(1)
        assert report.clamped == Fraction(1)

    def test_single_item_is_one(self):
        inst = make_single_item(
            {"hi": 4.0, "lo": 1.0}, {"hi": Fraction(1, 3), "lo": Fraction(2, 3)}
        )
        assert ss.kappa(inst).value == Fraction(1)

    def test_cc2_value_and_witness(self, cc2):
        report = ss.kappa(cc2)
        assert report.value == Fraction(1, 2)
        assert report.value == brute_kappa(cc2)
        assert kappa_ratio_at(cc2, report.witness) == report.value

    @pytest.mark.parametrize("seed", [0, 2, 5, 7])
    def test_matches_brute_force(self, seed):
        inst = ss.generate_common_cause(3, 2, 3, seed)
        report = ss.kappa(inst)
        assert report.value == brute_kappa(inst)

    def test_witness_reproduces_minimum(self):
        for seed in range(4):
            inst = ss.generate_common_cause(3, 2, 4, seed)
            report = ss.kappa(inst)
            assert kappa_ratio_at(inst, report.witness) == report.value

    def test_examined_count_cc2(self, cc2):
        # 2 items x (V = empty: 1 observation, V = other: 2) x 2 base sets.
        assert ss.kappa(cc2).ratios_examined == 12

    def test_cap(self):
        # Product m = 6 with 4 states: 4,096 entries, 2**18 observation keys.
        inst = ss.generate_product(6, states_per_item=4, seed=0)
        with pytest.raises(ss.CapacityError, match="needs 262144 keys"):
            ss.kappa(inst)

    def test_scale_invariance(self, cc2):
        scaled = ss.Instance(
            items=cc2.items,
            states=cc2.states,
            distribution=cc2.distribution,
            utility=ss.WeightedCoverage(
                targets=cc2.utility.targets,
                weights=tuple(7.0 * w for w in cc2.utility.weights),
                coverage=cc2.utility.coverage,
            ),
        )
        assert ss.kappa(scaled).value == ss.kappa(cc2).value

    def test_relabel_invariance(self, cc2):
        renamed = ss.Instance(
            items=("p", "q"),
            states=cc2.states,
            distribution=ss.JointDistribution(
                tuple(
                    (
                        ss.Realization(
                            tuple(
                                ({"a": "p", "b": "q"}[i], s)
                                for i, s in r.pairs
                            )
                        ),
                        prob,
                    )
                    for r, prob in cc2.distribution.entries
                )
            ),
            utility=ss.WeightedCoverage(
                targets=cc2.utility.targets,
                weights=cc2.utility.weights,
                coverage=tuple(
                    (({"a": "p", "b": "q"}[pair[0]], pair[1]), covered)
                    for pair, covered in cc2.utility.coverage
                ),
            ),
        )
        assert ss.kappa(renamed).value == ss.kappa(cc2).value
        assert ss.gamma(renamed).value == ss.gamma(cc2).value


class TestGamma:
    @pytest.mark.parametrize("seed", range(6))
    def test_product_distributions_give_exactly_one(self, seed):
        inst = ss.generate_product(3, states_per_item=2, seed=seed)
        assert ss.gamma(inst).value == Fraction(1)

    def test_single_item_is_one(self):
        inst = make_single_item(
            {"hi": 4.0, "lo": 1.0}, {"hi": Fraction(1, 2), "lo": Fraction(1, 2)}
        )
        assert ss.gamma(inst).value == Fraction(1)

    def test_cc2_matches_brute_force(self, cc2):
        report = ss.gamma(cc2)
        assert report.value == brute_gamma(cc2) == Fraction(1)

    @pytest.mark.parametrize("seed", [0, 2, 3, 5])
    def test_matches_brute_force(self, seed):
        inst = ss.generate_common_cause(3, 2, 4, seed)
        assert ss.gamma(inst).value == brute_gamma(inst)

    def test_witness_reproduces_minimum(self):
        inst = ss.generate_common_cause(3, 2, 4, seed=5)
        report = ss.gamma(inst)
        assert report.value == Fraction(2, 5)
        w = report.witness
        ratio = gamma_pair_ratio(
            inst, w.item, w.observation.as_dict(), w.observation_alt.as_dict()
        )
        assert ratio == report.value

    def test_never_exceeds_one(self):
        # Swapping the two observations inverts a ratio, so the minimum over
        # ordered pairs cannot exceed 1.
        for seed in range(8):
            inst = ss.generate_common_cause(3, 2, 4, seed)
            assert ss.gamma(inst).value <= 1


class TestRatioBound:
    def test_large_m_limit(self):
        value = ss.ratio_bound(1.0, 10**9)
        assert value == pytest.approx(1.0 - math.exp(-0.5), abs=1e-6)

    def test_four_items_full_independence(self):
        # 1 - exp(-k/2 + k/(18 m^2)) - (k+2)/(3 m k) at k=1, m=4.
        want = 1.0 - math.exp(-0.5 + 1.0 / 288.0) - 3.0 / 12.0
        got = ss.ratio_bound(1.0, 4)
        assert got == pytest.approx(want, abs=0)
        assert got == pytest.approx(0.141360, abs=1e-6)

    def test_may_be_negative(self):
        assert ss.ratio_bound(0.5, 2) < 0

    def test_degenerate_kappa(self):
        with pytest.raises(ss.DegenerateBoundError):
            ss.ratio_bound(0.0, 4)

    def test_raw_above_one_rejected(self):
        with pytest.raises(ss.InputError):
            ss.ratio_bound(1.2, 4)


class TestAdaptivityGapBound:
    @pytest.mark.parametrize("g,want", [(1.0, 2.0), (0.5, 3.0), (1.0 / 3.0, 4.0)])
    def test_values(self, g, want):
        assert ss.adaptivity_gap_bound(g) == pytest.approx(want, abs=1e-12)

    def test_degenerate(self):
        with pytest.raises(ss.DegenerateBoundError):
            ss.adaptivity_gap_bound(0.0)


class TestReports:
    def test_clamping(self):
        report = ss.IndependenceReport(
            value=Fraction(3, 2),
            clamped=Fraction(1),
            witness=None,
            ratios_examined=1,
        )
        assert report.clamped == 1

    def test_reports_have_witnesses(self, cc2, product3):
        for inst in (cc2, product3):
            for fn in (ss.kappa, ss.gamma):
                report = fn(inst)
                assert report.witness is not None
                assert report.ratios_examined > 0
