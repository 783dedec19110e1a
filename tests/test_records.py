"""The records behave as the frozen dataclasses they replace.

For every record type: positional and keyword construction agree; equality
needs the same class and compares exactly the fields the repr shows, and
hashing follows it (or raises TypeError where a field is a dict, as a
dataclass's hash does); the repr is ``Name(field=value, ...)``; assigning
or deleting an attribute raises AttributeError; copy, deepcopy and pickle
keep every attribute, derived ones too.  ``ProblemSpec`` is the one
mutable record, and it is unhashable.  Importing the CLI loads no
``dataclasses``.
"""

import copy
import os
import pickle
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

from gkz1 import (
    Exponent,
    IntervalSet,
    LatticeConfig,
    Nonresonance,
    Parameter,
    certify,
    classify,
    exponent_set_prime,
    fake_exponents,
    is_nonresonant,
    parameter,
    solution_bundle,
)
from gkz1.cli import ProblemSpec
from gkz1.lattice import RelationLine

from conftest import TRIANGLE

CONFIG = LatticeConfig(TRIANGLE)
BETA = parameter(CONFIG, (10, 8))
REPORT = solution_bundle(CONFIG, BETA, window=(0, 2))
BUNDLE = REPORT.bundles[0]
CERTIFICATE = certify(CONFIG, BUNDLE.parameter, BUNDLE.solutions[0])

# a built record of each type, and the parameters of its __init__
RECORDS = {
    "LatticeConfig": (CONFIG, ("columns",)),
    "RelationLine": (BETA.line, ("point", "relation")),
    "Parameter": (BETA, ("beta", "line")),
    "Nonresonance": (is_nonresonant(CONFIG, BETA), ("nonresonant", "witness")),
    "Exponent": (fake_exponents(CONFIG, BETA)[0], ("vector", "labels", "m_support")),
    "PrimeExponents": (
        exponent_set_prime(CONFIG, BETA), ("exponents", "multiplicity_sum", "relation_sum")
    ),
    "IntervalSet": (IntervalSet(((0, None), (-3, -1))), ("intervals",)),
    "SupportVerdict": (BUNDLE.certificates[0], ("indices", "lift", "minimal", "membership")),
    "LogSeries": (BUNDLE.solutions[0], ("base_exponent", "relation", "window", "terms")),
    "SolutionBundle": (BUNDLE, (
        "parameter", "exponent", "lift", "solutions", "certificates",
        "hypothesis_failures", "phi_empty",
    )),
    "BundleReport": (REPORT, ("bundles", "total_solutions", "expected_total")),
    "OperatorReport": (CERTIFICATE.box, (
        "operator", "input_window", "safe_window", "passed", "first_failure", "residual",
    )),
    "Certificate": (CERTIFICATE, ("box", "euler", "passed")),
    "Classification": (classify(CONFIG, BETA), (
        "regular", "nonresonant", "mum", "mum_holomorphic", "witness",
    )),
}
# the fields left out of repr, equality and hashing
LEFT_OUT = {"Parameter": {"line"}}
# a changed value of each field, where __init__ derives from its fields and
# so needs real ones; any other record takes object() as a changed value
CHANGED = {"RelationLine": (BETA.line.at(1), (1, 1, -1))}


def _hashable(values) -> bool:
    try:
        hash(tuple(values))
    except TypeError:
        return False
    return True


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_record_behaves_as_a_frozen_dataclass(name):
    record, params = RECORDS[name]
    cls = type(record)
    assert cls.__name__ == name
    args = [getattr(record, p) for p in params]
    positional, keyword = cls(*args), cls(**dict(zip(params, args)))
    assert positional == record and keyword == record and not positional != record
    shown = [p for p in params if p not in LEFT_OUT.get(name, ())]
    values = [getattr(record, f) for f in shown]
    assert repr(record) == f"{name}({', '.join(f'{f}={v!r}' for f, v in zip(shown, values))})"
    if _hashable(values):
        assert hash(positional) == hash(record)
    else:  # a dict field, as in a dataclass
        with pytest.raises(TypeError):
            hash(record)
    # another class never compares equal, not even a tuple of the same values
    assert record != tuple(values) and record.__eq__(tuple(values)) is NotImplemented
    for p in (*params, "other"):
        with pytest.raises(AttributeError):
            setattr(record, p, None)
    for p in params:
        with pytest.raises(AttributeError):
            delattr(record, p)
    assert [getattr(record, p) for p in params] == args
    if name == "LatticeConfig":
        return  # its one field is validated; see test_lattice_config_fields
    for i, p in enumerate(params):
        other = CHANGED[name][i] if name in CHANGED else object()
        changed = cls(*args[:i], other, *args[i + 1:])
        assert (changed == record) is (p in LEFT_OUT.get(name, ()))


def test_parameter_ignores_its_line():
    other = RelationLine(BETA.line.at(1), BETA.line.relation)
    twin = Parameter(BETA.beta, other)
    assert twin == BETA and hash(twin) == hash(BETA)
    assert repr(twin) == f"Parameter(beta={BETA.beta!r})"


def test_lattice_config_fields():
    # the relation is derived: neither an argument, nor shown, nor compared;
    # the derived attributes are set on construction, beside the columns
    twin = LatticeConfig(list(map(list, TRIANGLE)))
    assert twin == CONFIG and hash(twin) == hash(CONFIG) and twin.relation == (1, 1, -2)
    assert repr(twin) == f"LatticeConfig(columns={tuple(TRIANGLE)!r})"
    assert LatticeConfig(TRIANGLE[::-1]) != CONFIG
    assert (twin.perm, twin.k, twin.volume) == ((0, 1, 2), 2, 2)
    assert {"perm", "k", "volume", "positive", "negative"} <= set(vars(twin))
    with pytest.raises(TypeError):
        LatticeConfig(TRIANGLE, (1, 1, -2))


def test_exponent_is_slotted_and_copies():
    exponent = RECORDS["Exponent"][0]
    assert not hasattr(exponent, "__dict__")
    assert Exponent.__slots__ == ("vector", "labels", "m_support")
    twins = copy.copy(exponent), copy.deepcopy(exponent), pickle.loads(pickle.dumps(exponent))
    for twin in twins:
        assert twin == exponent and twin is not exponent and type(twin) is Exponent


def _attributes(record) -> dict:
    """Every attribute a record holds, derived ones too: its dict or its slots."""
    if hasattr(record, "__dict__"):
        return dict(vars(record))
    return {name: getattr(record, name) for name in type(record).__slots__}


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_record_copies(name):
    # copy, deepcopy and pickle keep the fields and what __init__ derived
    # from them, such as LatticeConfig's sides, sums and volume
    record = RECORDS[name][0]
    attributes = _attributes(record)
    for twin in copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record)):
        assert twin == record and twin is not record and type(twin) is type(record)
        assert _attributes(twin) == attributes


def test_equality_needs_the_same_class():
    class Intervals(IntervalSet):
        pass

    assert Intervals(()) != IntervalSet(()) and IntervalSet(()) != Intervals(())
    line = BETA.line
    assert line != Nonresonance(line.point, line.relation)


def test_default_fields():
    assert Nonresonance(True) == Nonresonance(True, None)
    assert repr(Nonresonance(True)) == "Nonresonance(nonresonant=True, witness=None)"
    assert repr(IntervalSet(())) == "IntervalSet(intervals=())"


def test_problem_spec_is_mutable_and_unhashable():
    spec = ProblemSpec([[1], [2]], [F(1, 7)])
    assert spec == ProblemSpec(
        columns=[[1], [2]], beta=[F(1, 7)], u=None, lift=None, window=(-10, 20), r=None,
        verify=True,
    )
    assert repr(spec) == (
        "ProblemSpec(columns=[[1], [2]], beta=[Fraction(1, 7)], u=None, lift=None, "
        "window=(-10, 20), r=None, verify=True)"
    )
    with pytest.raises(TypeError):
        hash(spec)
    twin = copy.copy(spec)
    twin.window, twin.r = (0, 3), 1
    assert (twin.window, twin.r) == ((0, 3), 1) and twin != spec
    assert (spec.window, spec.r) == ((-10, 20), None)


def test_every_record_type_is_covered():
    import gkz1

    classes = {name for name in gkz1.__all__ if isinstance(getattr(gkz1, name), type)}
    assert classes - {"SingularityType"} | {"RelationLine"} == set(RECORDS)


def test_cli_imports_no_dataclasses():
    # a fresh interpreter, as pytest itself imports dataclasses and inspect;
    # -S leaves out the site hooks, which are not the package's imports
    src = Path(__file__).resolve().parent.parent / "src"
    probe = (
        "import sys, gkz1.cli; "
        "print(sorted(m for m in ('dataclasses', 'inspect', 'ast', 'dis', 'tokenize') "
        "if m in sys.modules))"
    )
    out = subprocess.run(
        [sys.executable, "-S", "-c", probe], env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True, text=True, check=True,
    )
    assert out.stdout.strip() == "[]"
