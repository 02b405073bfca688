import random
from fractions import Fraction

import pytest

import stosub as ss
from stosub import fileio, harness
from stosub.model import EXACT_TOL
from helpers import lp_vertex_oracle


def uniform2():
    return ss.UniformMatroid(rank=2)


def partition_ab_cd():
    return ss.PartitionMatroid(blocks=(("a", "b"), ("c", "d")), capacities=(1, 1))


def knapsack_345():
    return ss.Knapsack(costs=(("a", 3.0), ("b", 4.0), ("c", 5.0)), budget=7.0)


def chain(*items):
    """The policy that picks ``items`` in order, whatever it observes."""
    node = ss.STOP
    for item in reversed(items):
        node = ss.pick(item, {"on": node})
    return ss.Policy(root=node)


class TestFeasibility:
    def test_empty_always_feasible(self):
        for c in (
            uniform2(),
            partition_ab_cd(),
            knapsack_345(),
            ss.ExplicitFamily(feasible_sets=((),)),
        ):
            assert ss.is_feasible(c, set())

    def test_uniform_rank(self):
        assert ss.is_feasible(uniform2(), {"a", "b"})
        assert not ss.is_feasible(uniform2(), {"a", "b", "c"})

    def test_partition_caps(self):
        c = partition_ab_cd()
        assert ss.is_feasible(c, {"a", "c"})
        assert not ss.is_feasible(c, {"a", "b"})

    def test_partition_unknown_item(self):
        with pytest.raises(ss.InputError):
            ss.is_feasible(partition_ab_cd(), {"zz"})

    @pytest.mark.parametrize("chosen", [{"z"}, {"a", "z"}])
    def test_partition_unknown_item_raises_before_the_caps(self, chosen):
        """An unknown item raises even beside a block over its cap, as a
        knapsack's unknown item does."""
        c = ss.PartitionMatroid(blocks=(("a",),), capacities=(0,))
        with pytest.raises(ss.InputError, match=r"items \['z'\] not covered"):
            ss.is_feasible(c, chosen)
        knapsack = ss.Knapsack(costs=(("a", 1.0),), budget=0.0)
        with pytest.raises(ss.InputError, match="no cost declared for item 'z'"):
            ss.is_feasible(knapsack, chosen)

    def test_knapsack_budget(self):
        c = knapsack_345()
        assert ss.is_feasible(c, {"a", "b"})
        assert not ss.is_feasible(c, {"a", "b", "c"})
        # The binary values of 0.1, 0.2 and 0.3 sum to 2**-55 over that of
        # 0.6, in any order: the costs are compared as exact integers.
        c = ss.Knapsack(costs=(("c", 0.3), ("a", 0.1), ("b", 0.2)), budget=0.6)
        assert not ss.is_feasible(c, {"a", "b", "c"})
        assert ss.is_feasible(c, {"a", "c"})
        with pytest.raises(ss.InputError, match="no cost declared for item 'x'"):
            ss.is_feasible(c, {"a", "y", "x"})

    def test_knapsack_reads_binary_values_not_float_sums(self):
        # 0.22 + 0.346 rounds to 0.566, but in binary values it is 2**-55 over.
        assert 0.22 + 0.346 == 0.566
        c = ss.Knapsack(costs=(("a", 0.22), ("b", 0.346)), budget=0.566)
        assert not ss.is_feasible(c, {"a", "b"})
        assert ss.is_feasible(c, {"a"}) and ss.is_feasible(c, {"b"})

    def test_explicit_membership(self):
        c = ss.ExplicitFamily(feasible_sets=((), ("a",), ("a", "b"), ("b",)))
        assert ss.is_feasible(c, {"a", "b"})
        assert not ss.is_feasible(c, {"b", "c"})


class TestDownwardClosure:
    def test_missing_subset_rejected(self):
        with pytest.raises(ss.InputError, match="downward-closed"):
            ss.ExplicitFamily(feasible_sets=((), ("a", "b")))

    def test_empty_set_required(self):
        with pytest.raises(ss.InputError, match="empty set"):
            ss.ExplicitFamily(feasible_sets=(("a",),), downward_closed=False)

    def test_prefix_closed_family_allowed_when_not_downward_closed(self):
        c = ss.ExplicitFamily(
            feasible_sets=((), ("a",), ("a", "b")), downward_closed=False
        )
        assert ss.is_feasible(c, {"a", "b"})
        assert not ss.is_feasible(c, {"b"})


class TestPrefixFeasibility:
    """Feasibility of a policy: every prefix of every pick sequence."""

    def test_empty_sequence(self):
        assert ss.policy_is_feasible(chain(), uniform2())

    def test_downward_closed_equals_full_set(self):
        c = knapsack_345()
        for seq in [("a",), ("b", "a"), ("c", "b")]:
            assert ss.policy_is_feasible(chain(*seq), c) == ss.is_feasible(c, seq)

    def test_listed_prefix_family(self):
        c = ss.ExplicitFamily(
            feasible_sets=((), ("a",), ("a", "b")), downward_closed=False
        )
        assert ss.policy_is_feasible(chain("a", "b"), c)
        assert not ss.policy_is_feasible(chain("b"), c)
        assert not ss.policy_is_feasible(chain("b", "a"), c)

    def test_duplicates_rejected(self):
        with pytest.raises(ss.PolicyError):
            chain("a", "a")


class TestLpMaximize:
    def test_all_zero_weights(self):
        sol = ss.lp_maximize(uniform2(), {"a": 0.0, "b": 0.0, "c": 0.0})
        assert sol.objective == 0.0
        assert sol.point.values == (0.0, 0.0, 0.0)
        assert sol.vertex_set == ()

    def test_uniform_top_two(self):
        sol = ss.lp_maximize(uniform2(), {"a": 5.0, "b": 3.0, "c": 1.0})
        assert sol.objective == 8.0
        assert sol.vertex_set == ("a", "b")

    def test_negative_weights_clamped(self):
        sol = ss.lp_maximize(uniform2(), {"a": -5.0, "b": 3.0, "c": -1.0})
        assert sol.vertex_set == ("b",)
        assert sol.objective == 3.0

    def test_partition_respects_blocks(self):
        sol = ss.lp_maximize(
            partition_ab_cd(), {"a": 5.0, "b": 4.0, "c": 2.0, "d": 3.0}
        )
        assert sol.vertex_set == ("a", "d")
        assert sol.objective == 8.0

    def test_knapsack_fractional_vertex(self):
        sol = ss.lp_maximize(knapsack_345(), {"a": 6.0, "b": 4.0, "c": 5.0})
        # densities: a=2, b=1, c=1; a fits, then b gets 4 of the remaining 4.
        assert sol.point.value_of("a") == 1.0
        assert sol.point.value_of("b") == 1.0
        assert sol.point.value_of("c") == 0.0
        assert sol.vertex_set == ("a", "b")

    def test_knapsack_fraction_is_exact(self):
        # a fills 3 of the budget 7; c takes the 4 left of its cost 5.
        sol = ss.lp_maximize(knapsack_345(), {"a": 6.0, "b": 0.0, "c": 5.0})
        assert sol.point.exact == (1, 0, Fraction(4, 5))
        assert sol.objective == 10.0
        # The fraction is of binary values: (0.25 - 0.1) / 0.2 exactly.
        c = ss.Knapsack(costs=(("a", 0.1), ("b", 0.2)), budget=0.25)
        sol = ss.lp_maximize(c, {"a": 2.0, "b": 1.0})
        assert sol.point.exact == (1, (Fraction(0.25) - Fraction(0.1)) / Fraction(0.2))

    def test_knapsack_zero_cost_items_ride_free(self):
        c = ss.Knapsack(costs=(("a", 0.0), ("b", 2.0)), budget=1.0)
        sol = ss.lp_maximize(c, {"a": 1.0, "b": 2.0})
        assert sol.point.value_of("a") == 1.0
        assert sol.point.value_of("b") == 0.5
        assert sol.vertex_set is None
        assert sol.objective == pytest.approx(2.0)

    def test_knapsack_vertex_passes_its_own_feasibility_check(self):
        # In binary values 0.1 + 0.2 + 0.3 is 2**-55 over 0.6: c may not be
        # taken whole, only as an exact fraction below 1.
        c = ss.Knapsack(costs=(("a", 0.1), ("b", 0.2), ("c", 0.3)), budget=0.6)
        sol = ss.lp_maximize(c, {"a": 3.0, "b": 2.0, "c": 1.0})
        assert sol.vertex_set is None
        assert sol.point.value_of("a") == sol.point.value_of("b") == 1.0
        assert 0.0 < sol.point.value_of("c") < 1.0
        assert c.in_polytope(sol.point)
        assert ss.is_feasible(c, ("a", "b"))
        assert not ss.is_feasible(c, ("a", "b", "c"))
        # In binary values 0.4 + 0.03 is 2**-55 over 0.43: a stays below 1.
        c = ss.Knapsack(costs=(("a", 0.4), ("b", 0.03)), budget=0.43)
        sol = ss.lp_maximize(c, {"a": 1.0, "b": 1.0})
        assert sol.vertex_set is None
        assert sol.point.value_of("b") == 1.0 and sol.point.value_of("a") < 1.0
        assert c.in_polytope(sol.point)

    def test_explicit_best_listed_set(self):
        c = ss.ExplicitFamily(feasible_sets=((), ("a",), ("b",), ("a", "b")))
        sol = ss.lp_maximize(c, {"a": 1.0, "b": 2.0})
        assert sol.vertex_set == ("a", "b")
        assert sol.objective == 3.0

    def test_explicit_rejects_sets_with_unknown_items(self):
        c = ss.ExplicitFamily(feasible_sets=((), ("a",), ("a", "z"), ("z",)))
        with pytest.raises(ss.InputError, match="unknown family item 'z'"):
            ss.lp_maximize(c, {"a": 1.0, "b": 2.0})

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_weight_rejected(self, bad):
        with pytest.raises(ss.InputError, match="weight of 'b' is not finite"):
            ss.lp_maximize(uniform2(), {"a": 1.0, "b": bad})

    def test_tie_break_is_stable(self):
        sol = ss.lp_maximize(ss.UniformMatroid(rank=1), {"a": 2.0, "b": 2.0})
        assert sol.vertex_set == ("a",)

    def test_tie_break_is_stable_partition(self):
        # Equal weights inside a block: the earlier item in ``weights`` wins.
        weights = {"b": 2.0, "a": 2.0, "d": 1.0, "c": 1.0}
        sol = ss.lp_maximize(partition_ab_cd(), weights)
        assert sol.vertex_set == ("b", "d")

    def test_tie_break_is_stable_knapsack(self):
        # Equal densities: the earlier item in ``weights`` is packed first.
        c = ss.Knapsack(costs=(("a", 1.0), ("b", 2.0), ("c", 1.0)), budget=2.0)
        sol = ss.lp_maximize(c, {"c": 1.0, "a": 1.0, "b": 2.0})
        assert sol.vertex_set == ("a", "c")
        sol = ss.lp_maximize(c, {"b": 2.0, "c": 1.0, "a": 1.0})
        assert sol.vertex_set == ("b",)

    def test_scaling_preserves_argmax(self):
        rng = random.Random(7)
        for _ in range(20):
            weights = {i: rng.random() for i in "abcde"}
            base = ss.lp_maximize(uniform2(), weights)
            scaled = ss.lp_maximize(
                uniform2(), {i: 3.0 * w for i, w in weights.items()}
            )
            assert base.vertex_set == scaled.vertex_set

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_vertex_enumeration(self, seed):
        rng = random.Random(seed)
        items = ["a", "b", "c", "d"]
        weights = {i: round(rng.uniform(0, 5), 3) for i in items}
        sets = [()]
        for i in items:
            sets.append((i,))
        for i, j in [("a", "b"), ("b", "c"), ("c", "d"), ("a", "d")]:
            sets.append((i, j))
        constraints = [
            ss.UniformMatroid(rank=rng.randint(0, 4)),
            ss.PartitionMatroid(
                blocks=(("a", "c"), ("b", "d")), capacities=(1, rng.randint(0, 2))
            ),
            ss.Knapsack(
                costs=tuple((i, float(rng.randint(1, 5))) for i in items),
                budget=float(rng.randint(2, 9)),
            ),
            ss.ExplicitFamily(feasible_sets=tuple(sets)),
        ]
        for constraint in constraints:
            got = ss.lp_maximize(constraint, weights).objective
            want = lp_vertex_oracle(constraint, weights)
            assert got == pytest.approx(want, abs=1e-9), constraint


class TestAlpha:
    """The rounding-loss factor is no constraint field and no report column:
    the kinds that round are the matroids, and they round losslessly."""

    def test_matroids_round_losslessly(self):
        for constraint in (ss.UniformMatroid(rank=1), ss.PartitionMatroid(
            blocks=(("e1",), ("e2",)), capacities=(1, 1)
        )):
            row = harness.run_pipeline(harness.Scenario(
                name="matroid",
                kind="ratio-check",
                instance=harness.InstanceSpec(generator="common-cause"),
                constraint=constraint,
                greedy=ss.GreedyConfig(delta=0.25),
            ))
            assert not hasattr(row, "alpha")
            assert row.rounded_mean >= row.fractional_value - EXACT_TOL

    def test_configured_knapsack(self):
        doc = {"kind": "knapsack", "costs": {"a": 1.0}, "budget": 1.0}
        c = fileio.constraint_from_dict({**doc, "alpha": 0.38})
        assert c == fileio.constraint_from_dict(doc)
        assert c.to_dict() == doc


class TestPolytopeMembership:
    def test_uniform(self):
        c = uniform2()
        inside = ss.FractionalPoint(("a", "b", "c"), (0.9, 0.6, 0.5))
        outside = ss.FractionalPoint(("a", "b", "c"), (1.0, 1.0, 0.5))
        assert c.in_polytope(inside)
        assert not c.in_polytope(outside)

    def test_partition(self):
        c = partition_ab_cd()
        assert c.in_polytope(
            ss.FractionalPoint(("a", "b", "c", "d"), (0.5, 0.5, 1.0, 0.0))
        )
        assert not c.in_polytope(
            ss.FractionalPoint(("a", "b", "c", "d"), (0.9, 0.5, 1.0, 0.0))
        )

    def test_knapsack(self):
        c = knapsack_345()
        on_budget = ss.FractionalPoint(("a", "b", "c"), (1.0, 0.5, 0.4))
        over = ss.FractionalPoint(("a", "b", "c"), (1.0, 0.5, 0.41))
        assert c.in_polytope(on_budget)
        assert not c.in_polytope(over)
        with pytest.raises(ss.InputError, match="no cost declared for item 'z'"):
            c.in_polytope(ss.FractionalPoint(("a", "z"), (0.0, 0.0)))

    def test_greedy_vertex_lies_in_polytope(self):
        sol = ss.lp_maximize(uniform2(), {"a": 5.0, "b": 3.0, "c": 1.0})
        assert uniform2().in_polytope(sol.point)

    def test_explicit_unsupported(self):
        with pytest.raises(ss.UnsupportedKindError):
            ss.ExplicitFamily(feasible_sets=((),)).in_polytope(
                ss.FractionalPoint(("a",), (0.0,))
            )


class TestUnknownItems:
    """A partition block or a knapsack cost that names an item the instance
    lacks is rejected before the ascent, one step or the rounding starts."""

    PARTITION = ss.PartitionMatroid(blocks=(("a",), ("b", "z")), capacities=(1, 1))
    KNAPSACK = ss.Knapsack(costs=(("a", 1.0), ("b", 1.0), ("z", 5.0)), budget=1.0)
    KINDS = [(PARTITION, "block"), (KNAPSACK, "cost")]

    @pytest.mark.parametrize("constraint,role", KINDS, ids=["partition", "knapsack"])
    def test_ascent_and_step(self, cc2, constraint, role):
        y = ss.FractionalPoint(cc2.items, (0.25, 0.25))
        with pytest.raises(ss.InputError, match=f"unknown {role} item 'z'"):
            ss.run(cc2, constraint, ss.GreedyConfig())
        with pytest.raises(ss.InputError, match=f"unknown {role} item 'z'"):
            ss.step(cc2, constraint, y, 0.0, ss.GreedyConfig())

    def test_rounding(self, cc2):
        y = ss.FractionalPoint(cc2.items, (0.5, 0.5))
        with pytest.raises(ss.InputError, match="unknown block item 'z'"):
            ss.pipage_round(cc2, self.PARTITION, y, seed=0)
        with pytest.raises(ss.InputError, match="unknown block item 'z'"):
            ss.exact_distribution(cc2, self.PARTITION, y)


class TestConstruction:
    def test_partition_duplicate_items(self):
        with pytest.raises(ss.InputError):
            ss.PartitionMatroid(blocks=(("a",), ("a",)), capacities=(1, 1))

    def test_knapsack_negative_cost(self):
        with pytest.raises(ss.InputError):
            ss.Knapsack(costs=(("a", -1.0),), budget=1.0)

    def test_bad_alpha(self):
        # No kind reads alpha, so not even an out-of-range one is rejected.
        for doc in (
            {"kind": "knapsack", "costs": {"a": 1.0}, "budget": 1.0, "alpha": 1.5},
            {"kind": "explicit", "feasible_sets": [[]], "alpha": "x"},
        ):
            assert "alpha" not in fileio.constraint_from_dict(doc).to_dict()

    @pytest.mark.parametrize("rank", [1.5, True, "1", -1, float("inf")])
    def test_rank_must_be_a_whole_number(self, rank):
        with pytest.raises(ss.InputError):
            ss.UniformMatroid(rank=rank)

    def test_integral_float_rank_becomes_int(self):
        assert ss.UniformMatroid(rank=2.0).rank == 2
        assert isinstance(ss.UniformMatroid(rank=2.0).rank, int)

    @pytest.mark.parametrize(
        "make",
        [
            lambda: ss.PartitionMatroid(blocks=(("a",),), capacities=(1.5,)),
            lambda: ss.PartitionMatroid(blocks=(("a",),), capacities=("1",)),
            lambda: ss.PartitionMatroid(blocks=(("a",),), capacities=(False,)),
            lambda: ss.Knapsack(costs=(("a", "1"),), budget=1.0),
            lambda: ss.Knapsack(costs=(("a", 1.0),), budget="x"),
        ],
        ids=[
            "fractional-capacity",
            "string-capacity",
            "bool-capacity",
            "string-cost",
            "string-budget",
        ],
    )
    def test_non_numeric_fields_rejected(self, make):
        with pytest.raises(ss.InputError):
            make()
