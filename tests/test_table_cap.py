"""One cap on the observation table, owned by the evaluator.

``_Evaluator.observations()`` refuses a table of more than 2**EXACT_CAP =
65,536 keys (2**m * |support|, counting the positive-probability worlds it
sorts) before it sorts anything.  kappa, gamma and
the adaptive oracle all read that table, so they stop at the same
instances, with no table built, and the command line exits 2 there with
nothing on stdout.  An instance above the cap keeps every read of the value
table.  ``test_policies`` checks the oracle on both sides of the cap.
"""

import itertools
import random
from fractions import Fraction

import pytest

import stosub as ss
from stosub import fileio
from stosub.cli import main
from stosub.model import EXACT_CAP, _evaluator
from conftest import make_wide
from helpers import direct_set_value, direct_state_value

CAP = 1 << EXACT_CAP

# (m, support): exactly CAP keys, and one key more or one item more.
AT_CAP = {"m16-one-world": (16, 1), "m10-64-worlds": (10, 64)}
ABOVE_CAP = {"m17-one-world": (17, 1), "m10-65-worlds": (10, 65)}


def _keys(instance) -> int:
    return len(instance.distribution.entries) << instance.m


@pytest.mark.parametrize("measure", [ss.kappa, ss.gamma], ids=["kappa", "gamma"])
@pytest.mark.parametrize("shape", AT_CAP)
def test_measures_run_at_the_cap(shape, measure):
    instance = make_wide(*AT_CAP[shape])
    assert _keys(instance) == CAP
    value = measure(instance).value
    # One world is a product prior.
    assert value == 1 if len(instance.distribution.entries) == 1 else value <= 1


@pytest.mark.parametrize("measure", [ss.kappa, ss.gamma], ids=["kappa", "gamma"])
@pytest.mark.parametrize("shape", ABOVE_CAP)
def test_one_key_more_raises_before_any_table(shape, measure):
    m, support = ABOVE_CAP[shape]
    instance = make_wide(m, support)
    message = (
        f"the observation table over {m} items and a support of {support} "
        f"needs {_keys(instance)} keys, above the cap {CAP}"
    )
    with pytest.raises(ss.CapacityError) as raised:
        measure(instance)
    assert str(raised.value) == message
    ev = _evaluator(instance)
    assert ev._observations is None and ev._numerator_table is None


COMMANDS = {
    "kappa": ["kappa"],
    "gamma": ["gamma"],
    "gap": ["gap"],
    "oracle-adaptive": ["oracle", "adaptive"],
}


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("shape", [*AT_CAP, *ABOVE_CAP])
def test_commands_at_and_above_the_cap(tmp_path, capsys, shape, command):
    instance = make_wide(*{**AT_CAP, **ABOVE_CAP}[shape])
    path = tmp_path / "instance.json"
    fileio.save_instance(instance, path)
    code = main([*COMMANDS[command], str(path)])
    out, err = capsys.readouterr()
    if shape in AT_CAP:
        assert (code, err) == (0, "")
        first = {"gap": "gamma = ", "oracle-adaptive": "optimal adaptive value: "}
        assert out.startswith(first.get(command, f"{command} = "))
    else:
        assert (code, out) == (2, "")
        assert err.startswith("capacity error: the observation table over ")


def _with_a_null_world(positive: int) -> ss.Instance:
    """``make_wide(10, positive)`` plus the product prior's next world, at
    probability 0."""
    wide = make_wide(10, positive)
    null = ss.generate_product(10, states_per_item=2, seed=0).distribution.entries[
        positive
    ][0]
    entries = wide.distribution.entries + ((null, Fraction(0)),)
    return ss.Instance(
        wide.items, wide.states, ss.JointDistribution(entries), wide.utility
    )


def test_null_worlds_take_no_keys():
    """The table sorts the positive worlds only, so a world of probability 0
    adds no key: 64 positive worlds at m = 10 sit at the cap."""
    instance = _with_a_null_world(64)
    assert len(instance.distribution.entries) << instance.m > CAP
    assert ss.kappa(instance).value <= 1
    assert ss.gamma(instance).value <= 1
    ss.optimal_adaptive(instance, ss.UniformMatroid(2))
    assert len(_evaluator(instance).observations().masks) > 0


def test_positive_worlds_above_the_cap_still_raise():
    instance = _with_a_null_world(65)
    with pytest.raises(ss.CapacityError) as raised:
        ss.kappa(instance)
    assert str(raised.value) == (
        f"the observation table over 10 items and a support of 65 needs "
        f"{65 << 10} keys, above the cap {CAP}"
    )
    ev = _evaluator(instance)
    assert ev._observations is None and ev._numerator_table is None


def test_value_reads_need_no_observation_table():
    """The dense-ascent shape (m = 12, 3 states, 32 worlds) has 2**17 keys,
    so it has no observation table, yet set values, the multilinear value
    and an ascent step all read the value table."""
    instance = ss.generate_common_cause(12, 3, 32, seed=0)
    assert _keys(instance) > CAP
    items = instance.items
    y = ss.FractionalPoint(items, tuple(0.1 for _ in items))
    config = ss.GreedyConfig(delta=0.05)
    moved, _ = ss.greedy.step(instance, ss.UniformMatroid(3), y, 0.0, config)
    assert ss.multilinear_value(instance, moved) >= ss.multilinear_value(instance, y)
    picked = ss.FractionalPoint(items, tuple(float(i < 3) for i in range(len(items))))
    value = ss.expected_set_value(instance, items[:3])
    assert ss.multilinear_value(instance, picked) == value
    assert value == float(ss.expected_set_value_exact(instance, items[:3]))
    with pytest.raises(ss.CapacityError, match="needs 131072 keys"):
        _evaluator(instance).observations()
    assert _evaluator(instance)._observations is None


def _widest_explicit_table() -> ss.Instance:
    """An explicit table on 8 items x 2 states, the 16 ground pairs
    ``ExplicitTable.CONSTRUCTION_CAP`` allows, under a prior on all 256
    worlds: 2**8 * 256 keys, exactly the observation table's cap.  Its
    values are budget-additive quarters, so the scaled table is int64."""
    items, states = tuple(f"e{k}" for k in range(8)), ("lo", "hi")
    ground = sorted((item, state) for item in items for state in states)
    rng = random.Random(16)
    weight = [rng.randint(1, 5) for _ in ground]
    entries = []
    for mask in range(1 << len(ground)):
        picked = [k for k in range(len(ground)) if mask >> k & 1]
        total = min(sum(weight[k] for k in picked), 24)
        entries.append((tuple(ground[k] for k in picked), total / 4))
    utility = ss.ExplicitTable(ground=tuple(ground), entries=tuple(entries))
    worlds = list(itertools.product(states, repeat=len(items)))
    mass = len(worlds) * (len(worlds) + 1) // 2
    distribution = ss.JointDistribution(
        tuple(
            (ss.Realization(tuple(zip(items, world))), Fraction(w + 1, mass))
            for w, world in enumerate(worlds)
        )
    )
    return ss.Instance(items, states, distribution, utility)


def test_widest_explicit_table_fits_the_cap():
    """Every explicit table fits the observation table: the widest one builds
    its value table and pair gains from its rows, and they equal the exact
    Fraction sums on seeded masks."""
    instance = _widest_explicit_table()
    assert len(instance.utility.ground) == ss.ExplicitTable.CONSTRUCTION_CAP
    assert _keys(instance) == CAP
    ev = _evaluator(instance)
    table, gains = ev.table(), ev.pair_gains()
    rng = random.Random(8)
    for mask in [0, 255, *rng.sample(range(256), 3)]:
        members = [item for i, item in enumerate(instance.items) if mask >> i & 1]
        base = direct_set_value(instance, members)
        assert table[mask] == base * ev.denominator
        e, o = rng.randrange(8), rng.randrange(2)
        pinned = direct_state_value(
            instance, members, instance.items[e], instance.states[o]
        )
        assert gains[mask, e, o] == (pinned - base) * ev.denominator
