"""The 2^m kernels stay vectorized and the value table stays encapsulated.

``multilinear`` contracts the model module's value table with numpy; a
Python loop over ``range(1 << m)`` there would bring back the per-mask
kernels the table replaced.  Only ``model`` may touch the evaluator's
underscore attributes; everyone else goes through its public methods.
The kappa and gamma enumerations compare integer pairs and build a
``Fraction`` only once they are done, never once per ratio; the policy
oracles and reads build none per history or world.  No module but ``model``
values a set through a utility's ``evaluate``: the rest read the evaluator.
Inside the evaluator only ``__init__`` reads the utility's integers (a
coverage utility's units, which pick the table kernel, and an explicit
table's scaled values), and no method rescales a float value: none calls
``ldexp`` or builds a ``Fraction``.
Every field of the observation table is read somewhere outside the build
that fills it, and no module but ``model`` sums the table's weights W,
which the table stores only as its row totals and reads through one
reader.  Each table owns its capacity rule:
the value table's one raise site is ``_Evaluator.table`` and the
observation table's is ``_Evaluator.observations``.  kappa, gamma and both
policy oracles check no cap of their own, and the readers of the value
table stop with one message above its cap.
"""

import ast
from pathlib import Path

import pytest

import stosub
from stosub import model
from stosub.model import Observations
from conftest import make_wide

PACKAGE = Path(stosub.__file__).parent


def _evaluator_class(source: str) -> ast.ClassDef:
    return next(
        n
        for n in ast.parse(source).body
        if isinstance(n, ast.ClassDef) and n.name == "_Evaluator"
    )


def _methods(source: str) -> list[ast.FunctionDef]:
    return [
        n for n in _evaluator_class(source).body if isinstance(n, ast.FunctionDef)
    ]


def _private_evaluator_names() -> set[str]:
    cls = _evaluator_class((PACKAGE / "model.py").read_text())
    names = set()
    for node in ast.walk(cls):
        if isinstance(node, ast.FunctionDef):
            names.add(node.name)
        elif isinstance(node, ast.Attribute) and _is_self(node.value):
            names.add(node.attr)
    return {n for n in names if n.startswith("_") and not n.startswith("__")}


def _is_self(node) -> bool:
    return isinstance(node, ast.Name) and node.id == "self"


PRIVATE = _private_evaluator_names()


def _is_power_range(node) -> bool:
    """``range(...)`` with a ``1 << ...`` shift among its arguments."""
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "range"
        and any(
            isinstance(n, ast.BinOp) and isinstance(n.op, ast.LShift)
            for arg in node.args
            for n in ast.walk(arg)
        )
    )


def mask_loops(source: str) -> list[str]:
    return [
        f"line {node.iter.lineno}: loop over 2^m masks"
        for node in ast.walk(ast.parse(source))
        if isinstance(node, (ast.For, ast.comprehension))
        and _is_power_range(node.iter)
    ]


def private_reads(source: str) -> list[str]:
    return [
        f"line {node.lineno}: evaluator attribute {node.attr}"
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute) and node.attr in PRIVATE
    ]


def _is_utility_integers(node) -> bool:
    """``<...>.utility._units`` or ``<...>.utility._scaled_values``: the
    integers a utility holds, not the evaluator's own copies in ``self``."""
    return (
        isinstance(node, ast.Attribute)
        and node.attr in ("_units", "_scaled_values")
        and _name_of(node.value) == "utility"
    )


def integer_reads(source: str) -> dict[str, list[int]]:
    """The lines of each ``_Evaluator`` method that read a utility's
    integers: ``_units``, which pick the kernel (None for an explicit
    table), or an explicit table's ``_scaled_values``."""
    reads = {}
    for method in _methods(source):
        lines = [node.lineno for node in ast.walk(method) if _is_utility_integers(node)]
        if lines:
            reads[method.name] = lines
    return reads


def test_evaluator_decides_its_kernel_once():
    """Only ``__init__`` reads the utility's integers; every other method
    uses the copies it stored, so the kernel choice and the dtype cast live
    in one place."""
    reads = integer_reads((PACKAGE / "model.py").read_text())
    assert list(reads) == ["__init__"]


def test_guard_catches_unit_reads():
    source = (
        "class _Evaluator:\n"
        "    def __init__(self, instance):\n"
        "        self._units = instance.utility._units\n"
        "    def table(self):\n"
        "        if self._units is None and self.instance.utility._units:\n"
        "            pass\n"
        "    def _scaled(self, codes):\n"
        "        return self.instance.utility._scaled_values[codes]\n"
    )
    assert list(integer_reads(source)) == ["__init__", "table", "_scaled"]


def _is_ldexp_call(node) -> bool:
    return isinstance(node, ast.Call) and _name_of(node.func) == "ldexp"


def float_rescales(source: str) -> list[str]:
    """``ldexp`` calls and ``Fraction`` builds in ``_Evaluator`` methods."""
    return [
        f"line {node.lineno}: {method.name} rescales a float value"
        for method in _methods(source)
        for node in ast.walk(method)
        if _is_ldexp_call(node) or _is_fraction_call(node)
    ]


def test_evaluator_rescales_no_float():
    assert float_rescales((PACKAGE / "model.py").read_text()) == []


@pytest.mark.parametrize(
    "body",
    [
        "return np.ldexp(values, self._shift).astype(np.int64)",
        "return [int(Fraction(v) * scale) for v in values.tolist()]",
        "return [int(fractions.Fraction(v) * scale) for v in values]",
    ],
)
def test_guard_catches_float_rescales(body):
    source = f"class _Evaluator:\n    def _scaled(self, values):\n        {body}\n"
    assert float_rescales(source)


def test_private_names_found():
    assert {"_numerators", "_transform", "_numerator_table"} <= PRIVATE


def test_multilinear_has_no_mask_loops():
    assert mask_loops((PACKAGE / "multilinear.py").read_text()) == []


@pytest.mark.parametrize(
    "path",
    sorted(p for p in PACKAGE.glob("*.py") if p.name != "model.py"),
    ids=lambda p: p.name,
)
def test_evaluator_internals_stay_in_model(path):
    assert private_reads(path.read_text()) == []


@pytest.mark.parametrize(
    "source",
    [
        "for mask in range(1 << m):\n    total += 1",
        "for mask in range(0, 1 << instance.m, 2):\n    pass",
        "values = [ev.set_value(mask) for mask in range(1 << m)]",
    ],
)
def test_guard_catches_mask_loops(source):
    assert mask_loops(source)


@pytest.mark.parametrize(
    "source",
    [
        "ev._numerator_table = None",
        "sums = ev._transform(True)",
        "x = _evaluator(i)._numerators(None)",
    ],
)
def test_guard_catches_private_reads(source):
    assert private_reads(source)


def _is_fraction_call(node) -> bool:
    return isinstance(node, ast.Call) and (
        isinstance(node.func, ast.Name) and node.func.id == "Fraction"
        or isinstance(node.func, ast.Attribute) and node.func.attr == "Fraction"
    )


def _called_names(node) -> set[str]:
    return {
        n.func.id
        for n in ast.walk(node)
        if isinstance(n, ast.Call) and isinstance(n.func, ast.Name)
    }


def fractions_per_ratio(source: str, roots=("kappa", "gamma")) -> list[str]:
    """``Fraction`` calls that run once per loop iteration of the roots.

    That is a call inside a ``for``/``while`` loop or a comprehension of a
    root function, or anywhere in a module function that such a loop calls,
    directly or through other module functions.
    """
    tree = ast.parse(source)
    functions = {n.name: n for n in tree.body if isinstance(n, ast.FunctionDef)}
    loops = (ast.For, ast.While, ast.ListComp, ast.SetComp, ast.DictComp,
             ast.GeneratorExp)
    found, called = [], set()
    for root in roots:
        for loop in ast.walk(functions[root]):
            if isinstance(loop, loops):
                found += [
                    f"line {n.lineno}: Fraction in a loop of {root}"
                    for n in ast.walk(loop)
                    if _is_fraction_call(n)
                ]
                called |= _called_names(loop) & functions.keys()
    pending = list(called)
    while pending:
        name = pending.pop()
        found += [
            f"line {n.lineno}: Fraction in {name}, called per ratio"
            for n in ast.walk(functions[name])
            if _is_fraction_call(n)
        ]
        new = _called_names(functions[name]) & functions.keys() - called
        called |= new
        pending += new
    return sorted(set(found))


def test_independence_builds_no_fraction_per_ratio():
    assert fractions_per_ratio((PACKAGE / "independence.py").read_text()) == []


POLICY_ROOTS = (
    "optimal_adaptive",
    "evaluate_policy",
    "policy_pick_probabilities",
    "virtual_nonadaptive_value",
    "best_nonadaptive",
)


def test_adaptive_oracle_builds_no_fraction_per_history():
    source = (PACKAGE / "policies.py").read_text()
    assert fractions_per_ratio(source, roots=POLICY_ROOTS) == []


def evaluate_calls(source: str) -> list[str]:
    return [
        f"line {node.lineno}: utility evaluate call"
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "evaluate"
    ]


@pytest.mark.parametrize(
    "path",
    sorted(p for p in PACKAGE.glob("*.py") if p.name != "model.py"),
    ids=lambda p: p.name,
)
def test_set_values_go_through_the_evaluator(path):
    assert evaluate_calls(path.read_text()) == []


def test_guard_catches_evaluate_calls():
    assert evaluate_calls("raw = instance.utility.evaluate(pairs)")


GAMMA_STUB = "\ndef gamma(i):\n    pass"


@pytest.mark.parametrize(
    "source",
    [
        "def kappa(i):\n    for r in rs:\n        best = min(best, Fraction(*r))"
        + GAMMA_STUB,
        "def kappa(i):\n    pass\n"
        "def gamma(i):\n    return min(fractions.Fraction(a, b) for a, b in rs)",
        "def _q(a, b):\n    return Fraction(a, b)\n"
        "def _r(a, b):\n    return _q(a, b)\n"
        "def kappa(i):\n    while rs:\n        _r(*rs.pop())" + GAMMA_STUB,
    ],
)
def test_guard_catches_fractions_per_ratio(source):
    assert fractions_per_ratio(source)


def test_guard_allows_one_fraction_after_the_loop():
    source = (
        "def kappa(i):\n    for r in rs:\n        best = r\n    return Fraction(*best)"
        + GAMMA_STUB
    )
    assert fractions_per_ratio(source) == []


def _is_table_call(node) -> bool:
    """A call of ``observations()``, the evaluator's observation table."""
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "observations"
    )


def _bound_names(function, test) -> set[str]:
    """Names the function binds, by plain or tuple assignment, to a value
    that passes ``test``."""
    names = set()
    for node in ast.walk(function):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                pairs = [(target, node.value)]
                if isinstance(target, ast.Tuple) and isinstance(node.value, ast.Tuple):
                    pairs = zip(target.elts, node.value.elts)
                names |= {t.id for t, v in pairs if isinstance(t, ast.Name) and test(v)}
    return names


def _table_reads(function) -> list[ast.Attribute]:
    """The ``x.field`` reads of a function whose ``x`` is an observation
    table: a call of ``observations()``, or a name bound to one."""
    tables = _bound_names(function, _is_table_call)
    return [
        node
        for node in ast.walk(function)
        if isinstance(node, ast.Attribute)
        and (
            _is_table_call(node.value)
            or isinstance(node.value, ast.Name) and node.value.id in tables
        )
    ]


def _functions(source: str) -> list[ast.FunctionDef]:
    """Every function of the source but ``_observe``, which fills the table."""
    return [
        node
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.FunctionDef) and node.name != "_observe"
    ]


def observation_reads(source: str) -> set[str]:
    return {node.attr for f in _functions(source) for node in _table_reads(f)}


def _is_sum(node) -> bool:
    return isinstance(node, ast.Call) and (
        isinstance(node.func, ast.Name) and node.func.id == "sum"
        or isinstance(node.func, ast.Attribute)
        and node.func.attr in ("sum", "reduce", "reduceat")
    )


def weight_sums(source: str) -> list[str]:
    """Sum calls over the table's ``weights``, read directly or through a
    name bound to an expression that reads them."""
    found = []
    for function in _functions(source):
        reads = [node for node in _table_reads(function) if node.attr == "weights"]

        def holds(node, reads=reads) -> bool:
            return any(n in reads for n in ast.walk(node))

        names = _bound_names(function, holds)
        found += [
            f"line {node.lineno}: observation weights summed"
            for node in ast.walk(function)
            if _is_sum(node)
            and any(
                n in reads or isinstance(n, ast.Name) and n.id in names
                for n in ast.walk(node)
            )
        ]
    return found


def test_every_observation_field_is_read():
    reads = set()
    for path in PACKAGE.glob("*.py"):
        reads |= observation_reads(path.read_text())
    assert set(Observations._fields) - reads == set()


@pytest.mark.parametrize(
    "path",
    sorted(p for p in PACKAGE.glob("*.py") if p.name != "model.py"),
    ids=lambda p: p.name,
)
def test_only_model_sums_observation_weights(path):
    assert weight_sums(path.read_text()) == []


def test_guard_reads_only_tables():
    source = (
        "def f(ev, report):\n"
        "    obs, m = ev.observations(), 3\n"
        "    return obs.masks, report.rows, ev.observations().twins\n"
        "def _observe(self):\n"
        "    return self.observations().rows\n"
    )
    assert observation_reads(source) == {"masks", "twins"}


@pytest.mark.parametrize(
    "source",
    [
        "def f(ev):\n    obs = ev.observations()\n"
        "    return obs.weights(rows, 0).sum(axis=-1)",
        "def f(ev):\n    table, m = ev.observations(), 3\n"
        "    w = table.weights(rows, 0)\n    return w.sum(axis=1)",
        "def f(ev):\n    return sum(ev.observations().weights(0, 0))",
    ],
)
def test_guard_catches_weight_sums(source):
    assert weight_sums(source)


def test_guard_allows_other_sums():
    source = (
        "def f(ev, weights):\n    obs = ev.observations()\n"
        "    return obs.totals[0], obs.masks.sum(), weights.sum()\n"
    )
    assert weight_sums(source) == []


def _name_of(node) -> str:
    """The name a ``Name`` or ``Attribute`` node reads, else ``""``."""
    return node.id if isinstance(node, ast.Name) else getattr(node, "attr", "")


def _is_cap_name(node) -> bool:
    return _name_of(node).endswith("_CAP")


def _raises_capacity(node) -> bool:
    return isinstance(node, ast.Raise) and any(
        _name_of(n) == "CapacityError" for n in ast.walk(node)
    )


def cap_checks(source: str, roots) -> list[str]:
    """``CapacityError`` raises and ``*_CAP`` reads in the root functions and
    in every module function they call, directly or through others."""
    functions = {
        n.name: n for n in ast.parse(source).body if isinstance(n, ast.FunctionDef)
    }
    found, reached, pending = [], set(roots), list(roots)
    while pending:
        name = pending.pop()
        for node in ast.walk(functions[name]):
            if _raises_capacity(node):
                found.append(f"line {node.lineno}: {name} raises CapacityError")
            elif _is_cap_name(node):
                found.append(f"line {node.lineno}: {name} reads a cap")
        new = _called_names(functions[name]) & functions.keys() - reached
        reached |= new
        pending += new
    return sorted(set(found))


def capacity_raisers(source: str) -> set[str]:
    """The ``_Evaluator`` methods that raise ``CapacityError``."""
    return {
        method.name
        for method in _methods(source)
        if any(_raises_capacity(n) for n in ast.walk(method))
    }


@pytest.mark.parametrize(
    "module, roots",
    [
        ("independence.py", ("kappa", "gamma")),
        ("policies.py", ("optimal_adaptive", "best_nonadaptive")),
    ],
)
def test_table_readers_check_no_cap(module, roots):
    assert cap_checks((PACKAGE / module).read_text(), roots) == []


def test_one_raise_site_per_table():
    """``table`` refuses the value table above ``EXACT_CAP`` items, and
    ``observations`` the observation table above 2**EXACT_CAP keys."""
    raisers = capacity_raisers((PACKAGE / "model.py").read_text())
    assert raisers == {"table", "observations"}


def test_value_table_readers_share_one_refusal(monkeypatch):
    """Above ``EXACT_CAP`` items the fixed-set oracle and the multilinear
    value stop with the same message, before any table is built."""

    def refuse(*args):
        raise AssertionError("value table built above the exact cap")

    for builder in ("_transform", "_row_sums", "_numerators"):
        monkeypatch.setattr(model._Evaluator, builder, refuse)
    instance = make_wide(model.EXACT_CAP + 1, 1)
    x = stosub.FractionalPoint.zeros(instance.items)
    calls = (
        lambda: stosub.best_nonadaptive(instance, stosub.UniformMatroid(rank=1)),
        lambda: stosub.multilinear_value(instance, x),
    )
    messages = set()
    for call in calls:
        with pytest.raises(stosub.CapacityError) as raised:
            call()
        messages.add(str(raised.value))
    assert messages == {"exact enumeration over 17 items exceeds the cap 16"}
    assert model._evaluator(instance)._numerator_table is None


@pytest.mark.parametrize(
    "source",
    [
        "def _check_cap(i, cap):\n    if i.m > cap:\n        raise CapacityError(i.m)\n"
        "def kappa(i):\n    _check_cap(i, 6)\n",
        "def kappa(i, cap=ENUMERATION_CAP):\n    pass\n",
        "def kappa(i):\n    if i.m > 6:\n        raise errors.CapacityError(i.m)\n",
        "def kappa(i):\n    if len(i.entries) << i.m > policies.ADAPTIVE_TABLE_CAP:\n"
        "        raise errors.CapacityError('too large')\n",
    ],
)
def test_guard_catches_cap_checks(source):
    assert cap_checks(source, ("kappa",))


def test_guard_catches_a_second_raise_site():
    source = (
        "class _Evaluator:\n"
        "    def observations(self):\n"
        "        raise CapacityError('too large')\n"
        "    def _observe(self):\n"
        "        if self.m > 16:\n"
        "            raise CapacityError('too many items')\n"
        "    def gains(self):\n"
        "        return CapacityError\n"
    )
    assert capacity_raisers(source) == {"observations", "_observe"}
