"""Every public entry point refuses an inexact or out-of-range input.

One table lists, per entry point of ``gkz1.__all__`` that takes an integer,
a rational or a column index, the inputs it must refuse: a float, a
non-integral Fraction where an integer belongs, an unparsable string, an
out-of-range index and a wrong-length lift.  Each refusal is an InputError
(a LiftMismatch for a lift of the wrong length) whose message names the
entry.  The CLI reads the same checks, with the file's field names.
"""

import json
import re
from fractions import Fraction as F
from types import SimpleNamespace

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

import gkz1
from gkz1 import (
    LatticeConfig,
    LogSeries,
    apply_box,
    apply_euler,
    apply_euler_row,
    build_config,
    certify,
    certify_bundle,
    classify,
    coefficient_M,
    exponent_set_prime,
    fake_exponents,
    integer_lift,
    is_mum,
    is_mum_holomorphic,
    is_nonresonant,
    log_solution,
    m_support,
    match_exponent,
    negative_support,
    normalize_to_e_prime,
    parameter,
    phi_series,
    solution_bundle,
    support_verdict,
)
from gkz1.cli import main
from gkz1.errors import BetaNotInSpan, EmptyWindow, GkzError, InputError, LiftMismatch

from conftest import QUINTIC, TRIANGLE
from test_cli import _JUNK

T = build_config(TRIANGLE)  # relation (1, 1, -2)
V = (F(2), F(0), F(8))  # the normalized exponent of beta = (10, 8)
NONRESONANT = [F(1, 2), F(1, 3)]
V_NONRESONANT = fake_exponents(T, NONRESONANT)[0]
SERIES = log_solution(T, V, (0, 0, 0), 0, (0, 2))
BUNDLE = solution_bundle(T, [10, 8], window=(0, 2)).bundles[0]
SERIES_1 = BUNDLE.solutions[1]  # the top of a bundle of two, over SERIES
POINTS = [list(p) for p in TRIANGLE]
MEMBERSHIP = support_verdict(T, V, [0, 1, 2], (0, 0, 0)).membership  # [[0, 4]]
SERIES_JSON = SERIES.to_json_dict()
# a parameter and an exponent of other points: the quintic's, and those of
# points with the triangle's relation (1, 1, -2)
Q = build_config(QUINTIC)
Q_PARAMETER = parameter(Q, (-1, 0, 0, 0, 0))
Q_EXPONENT = fake_exponents(Q, Q_PARAMETER)[0]
TWIN_PARAMETER = parameter(build_config([(1, 0), (1, 4), (1, 2)]), (10, 8))


def _series_json(**changes):
    """SERIES_JSON with fields replaced, and with those named None dropped."""
    data = {**SERIES_JSON, **changes}
    return {key: value for key, value in data.items() if value is not None}


def _loose(**changes):
    """SERIES with fields replaced, built by the constructor, which checks nothing."""
    fields = {
        "base_exponent": SERIES.base_exponent, "relation": SERIES.relation,
        "window": SERIES.window, "terms": SERIES.terms, **changes,
    }
    return LogSeries(**fields)


def _lacking(name):
    """SERIES's four fields in a SimpleNamespace, but for the one named."""
    fields = ("base_exponent", "relation", "window", "terms")
    return SimpleNamespace(**{f: getattr(SERIES, f) for f in fields if f != name})


def _with(points, i, j, x):
    changed = [list(p) for p in points]
    changed[i][j] = x
    return changed


# (entry point, call, error class, text the message must contain)
REFUSALS = [
    ("build_config", lambda: build_config(_with(POINTS, 0, 0, 1.5)), InputError, "point 0 entry 0"),
    ("build_config", lambda: build_config(_with(POINTS, 1, 1, "x")), InputError, "point 1 entry 1"),
    ("build_config", lambda: build_config(7), InputError, "points"),
    ("LatticeConfig", lambda: LatticeConfig(_with(POINTS, 2, 0, F(3, 2))), InputError,
     "point 2 entry 0"),
    ("parameter", lambda: parameter(T, [0.5, 8]), InputError, "beta entry 0"),
    ("parameter", lambda: parameter(T, ["abc", 1]), InputError, "beta entry 0"),
    ("parameter", lambda: parameter(T, ["1/0", 1]), InputError, "beta entry 0"),
    ("parameter", lambda: parameter(T, [None, 1]), InputError, "beta entry 0"),
    ("parameter", lambda: parameter(T, "12"), InputError, "beta"),
    ("is_nonresonant", lambda: is_nonresonant(T, [10, "abc"]), InputError, "beta entry 1"),
    ("fake_exponents", lambda: fake_exponents(T, [0.5, 8]), InputError, "beta entry 0"),
    ("exponent_set_prime", lambda: exponent_set_prime(T, ["x", 8]), InputError,
     "beta entry 0"),
    ("classify", lambda: classify(T, [0.5, 8]), InputError, "beta entry 0"),
    ("is_mum", lambda: is_mum(T, ["1/0", 8]), InputError, "beta entry 0"),
    ("is_mum_holomorphic", lambda: is_mum_holomorphic(T, [None, 8]), InputError,
     "beta entry 0"),
    ("integer_lift", lambda: integer_lift(T, ["a", 0]), InputError, "u entry 0"),
    ("integer_lift", lambda: integer_lift(T, [0.5, 0]), InputError, "u entry 0"),
    ("match_exponent", lambda: match_exponent(T, NONRESONANT, ["x", 0], V_NONRESONANT),
     InputError, "u entry 0"),
    ("match_exponent", lambda: match_exponent(T, NONRESONANT, [0, 0], [0.5, 0, 0]),
     InputError, "v entry 0"),
    ("match_exponent", lambda: match_exponent(T, NONRESONANT, [0, 0], [F(1, 2), 0]),
     InputError, "v has 2 entries"),
    ("normalize_to_e_prime", lambda: normalize_to_e_prime(T, [0.5, 0, 8]), InputError,
     "v entry 0"),
    ("normalize_to_e_prime", lambda: normalize_to_e_prime(T, [2, 0]), InputError,
     "v has 2 entries"),
    ("m_support", lambda: m_support(T, ["x", 0, 8]), InputError, "v entry 0"),
    ("m_support", lambda: m_support(T, [2, 0]), InputError, "v has 2 entries"),
    ("m_support", lambda: m_support(T, Q_EXPONENT), InputError, "v has 6 entries"),
    ("normalize_to_e_prime", lambda: normalize_to_e_prime(T, Q_EXPONENT), InputError,
     "v has 6 entries"),
    ("support_verdict", lambda: support_verdict(T, Q_EXPONENT, [0, 1, 2], (0, 0, 0)),
     InputError, "v has 6 entries"),
    ("exponent_set_prime", lambda: exponent_set_prime(T, Q_PARAMETER), BetaNotInSpan,
     "beta: the parameter (-1, 0, 0, 0, 0) belongs to other points"),
    ("solution_bundle", lambda: solution_bundle(T, TWIN_PARAMETER, window=(0, 2)),
     BetaNotInSpan, "beta: the parameter (10, 8) belongs to other points"),
    ("negative_support", lambda: negative_support(V, [0, 5]), InputError, "indices entry 1"),
    ("negative_support", lambda: negative_support(V, [F(1, 2)]), InputError,
     "indices entry 0"),
    ("support_verdict", lambda: support_verdict(T, V, [0, 1, 2], [0.5, 0, 0]), InputError,
     "lift entry 0"),
    ("support_verdict", lambda: support_verdict(T, V, [0, 1, 2], [0, 0]), LiftMismatch,
     "lift"),
    ("support_verdict", lambda: support_verdict(T, V, [0, 5], (0, 0, 0)), InputError,
     "indices entry 1"),
    ("support_verdict", lambda: support_verdict(T, V, [F(1, 2)], (0, 0, 0)), InputError,
     "indices entry 0"),
    ("coefficient_M", lambda: coefficient_M(1, 0, "x"), InputError, "v"),
    ("coefficient_M", lambda: coefficient_M(1, 0, 0.5), InputError, "v"),
    ("coefficient_M", lambda: coefficient_M(1.5, 0, 1), InputError, "l"),
    ("coefficient_M", lambda: coefficient_M(1, F(1, 2), 1), InputError, "s"),
    ("solution_bundle", lambda: solution_bundle(T, [10, 8], u_lift=[1.7, 0, 0]), InputError,
     "lift entry 0"),
    ("solution_bundle", lambda: solution_bundle(T, [10, 8], u_lift=[0, 0]), LiftMismatch,
     "lift"),
    ("solution_bundle", lambda: solution_bundle(T, [10, 8], u=["x", 0]), InputError,
     "u entry 0"),
    ("solution_bundle", lambda: solution_bundle(T, [10, 8], window=(0, 2.9)), InputError,
     "window entry 1"),
    ("solution_bundle", lambda: solution_bundle(T, [10, 8], window=(0, "2")), InputError,
     "window entry 1"),
    ("solution_bundle", lambda: solution_bundle(T, [10, 8], window=(0,)), InputError,
     "window"),
    ("log_solution", lambda: log_solution(T, V, [0.5, 0, 0], 0), InputError, "lift entry 0"),
    ("log_solution", lambda: log_solution(T, V, (0, 0), 0), LiftMismatch, "lift"),
    ("log_solution", lambda: log_solution(T, V, (0, 0, 0), F(1, 2)), InputError, "r"),
    ("log_solution", lambda: log_solution(T, V, (0, 0, 0), 0, (0, 1.5)), InputError,
     "window entry 1"),
    ("SolutionBundle", lambda: BUNDLE.solution(1.0), InputError, "r"),
    ("SolutionBundle", lambda: BUNDLE.solution("1"), InputError, "r"),
    ("SolutionBundle", lambda: BUNDLE.solution(F(1, 2)), InputError, "r"),
    ("phi_series", lambda: phi_series(T, V, (0, 0, 0), q=[0.9]), InputError, "q entry 0"),
    ("phi_series", lambda: phi_series(T, V, (0, 0, 0), q=(7,)), InputError, "q entry 0"),
    ("phi_series", lambda: phi_series(T, V, (0, 0, 0), q=(-1,)), InputError, "q entry 0"),
    ("phi_series", lambda: phi_series(T, V, (0, 0)), LiftMismatch, "lift"),
    ("phi_series", lambda: phi_series(T, V, (0, 0, 0), (), (0, "x")), InputError,
     "window entry 1"),
    ("LogSeries", lambda: LogSeries.make([2, 0, 8], (1.5, 1, -2), (0, 1.9), {(0, 0): 0.1}),
     InputError, "window entry 1"),
    ("LogSeries", lambda: LogSeries.make([2, 0, 8], (1.5, 1, -2), (0, 1), {}), InputError,
     "relation entry 0"),
    ("LogSeries", lambda: LogSeries.make([2, 0, 8], (1, 1, -2), (0, 1), {(0, 0): 0.1}),
     InputError, "term (0, 0)"),
    ("LogSeries", lambda: LogSeries.make([2, 0, 8], (1, 1, -2), (0, 1), {(0.5, 0): 1}),
     InputError, "term (0.5, 0)"),
    ("LogSeries", lambda: LogSeries.make([2, "x", 8], (1, 1, -2), (0, 1), {}), InputError,
     "base_exponent entry 1"),
    ("LogSeries", lambda: LogSeries.make([2, 0, 8], (1, 1, -2), (0, 1), {(0, -1): 1}),
     InputError, "term (0, -1): off the grid z in [0, 1], r >= 0"),
    ("LogSeries", lambda: LogSeries.make([2, 0, 8], (1, 1, -2), (0, 1), {(5, 0): 2}),
     InputError, "term (5, 0): off the grid"),
    ("LogSeries", lambda: LogSeries.make([2, 0, 8], (1, 1, -2), (3, 2), {}), EmptyWindow,
     "window: empty window [3, 2]"),
    ("LogSeries", lambda: LogSeries.from_json_dict([SERIES_JSON]), InputError,
     "series: expected an object"),
    ("LogSeries", lambda: LogSeries.from_json_dict(_series_json(window=None)), InputError,
     "series: missing field 'window'"),
    ("LogSeries", lambda: LogSeries.from_json_dict(_series_json(terms={"z": 0})), InputError,
     "terms[0]: expected an object, got 'z'"),
    ("LogSeries", lambda: LogSeries.from_json_dict(_series_json(terms=5)), InputError,
     "terms: expected a list"),
    ("LogSeries", lambda: LogSeries.from_json_dict(_series_json(terms=[{"z": 0, "coeff": "1"}])),
     InputError, "terms[0]: missing field 'r'"),
    ("LogSeries", lambda: LogSeries.from_json_dict(_series_json(terms=[[0, 0, "1"]])),
     InputError, "terms[0]: expected an object"),
    ("LogSeries",
     lambda: LogSeries.from_json_dict(_series_json(terms=[{"z": 0, "r": "0", "coeff": "1"}])),
     InputError, "terms[0] (z, r) entry 1"),
    ("LogSeries", lambda: LogSeries.from_json_dict(_series_json(terms=[
        {"z": 0, "r": 0, "coeff": "1"}, {"z": 0, "r": 0, "coeff": "2"},
    ])), InputError, "terms[1]: repeats the term (0, 0)"),
    ("LogSeries", lambda: LogSeries.make([2, 0, 8], (1, 1, -2), (0, 1), [((0, 0), 1)]),
     InputError, "terms: expected a mapping of (z, r) keys, got [((0, 0), 1)]"),
    ("LogSeries", lambda: LogSeries.make([2, 0, 8], (1, 1, -2), (0, 1), None), InputError,
     "terms: expected a mapping of (z, r) keys, got None"),
    ("IntervalSet", lambda: MEMBERSHIP.clip(0, 2.5), InputError, "clip bounds entry 1"),
    ("IntervalSet", lambda: MEMBERSHIP.clip("0", 2), InputError, "clip bounds entry 0"),
    ("apply_euler_row", lambda: apply_euler_row(T, [10, 8.0], SERIES, 1), InputError,
     "parameter entry 1"),
    ("apply_euler_row", lambda: apply_euler_row(T, ["x", 8], SERIES, 0), InputError,
     "parameter entry 0"),
    ("apply_euler_row", lambda: apply_euler_row(T, [10, 8], SERIES, 5), InputError, "row"),
    ("apply_euler_row", lambda: apply_euler_row(T, [10, 8], SERIES, 0.5), InputError, "row"),
    ("apply_euler", lambda: apply_euler(T, [10, "1/0"], SERIES), InputError,
     "parameter entry 1"),
    ("certify", lambda: certify(T, [None, 8], SERIES), InputError, "parameter entry 0"),
    ("certify_bundle", lambda: certify_bundle(T, [10, 0.5], BUNDLE.solutions), InputError,
     "parameter entry 1"),
    # a series built by its constructor: the certificate reads it as make would
    ("apply_box", lambda: apply_box(T, _loose(window=(0.0, 2.0))), InputError,
     "window entry 0: expected an integer, got 0.0"),
    ("apply_euler", lambda: apply_euler(T, [10, 8], _loose(window=(0.0, 2.0))), InputError,
     "window entry 0"),
    ("certify", lambda: certify(T, [10, 8], _loose(window=(0, 2.0))), InputError,
     "window entry 1"),
    ("apply_box", lambda: apply_box(T, _loose(terms={(0, 0): 0.5})), InputError,
     "term (0, 0): 0.5 is a float"),
    ("certify", lambda: certify(T, [10, 8], _loose(terms={(1, 0): "abc"})), InputError,
     "term (1, 0): cannot parse rational"),
    ("certify", lambda: certify(T, [10, 8], _loose(terms={(0, True): F(1)})), InputError,
     "term (0, True) entry 1"),
    ("apply_euler_row", lambda: apply_euler_row(T, [10, 8], _loose(terms={(0.5, 0): F(1)}), 0),
     InputError, "term (0.5, 0) entry 0"),
    ("apply_box", lambda: apply_box(T, _loose(base_exponent=(2, "x", 8))), InputError,
     "base_exponent entry 1"),
    # ... and refuses what make refuses: a reversed window, a float relation,
    # terms that are no mapping
    ("apply_box", lambda: apply_box(T, _loose(window=(3, 1))), EmptyWindow,
     "window: empty window [3, 1]"),
    ("apply_euler", lambda: apply_euler(T, [10, 8], _loose(window=(3, 1))), EmptyWindow,
     "window: empty window [3, 1]"),
    ("apply_euler_row", lambda: apply_euler_row(T, [10, 8], _loose(window=(3, 1)), 0),
     EmptyWindow, "window: empty window [3, 1]"),
    ("certify", lambda: certify(T, [10, 8], _loose(window=(3, 1))), EmptyWindow,
     "window: empty window [3, 1]"),
    ("apply_box", lambda: apply_box(T, _loose(relation=(1.0, 1.0, -2.0))), InputError,
     "relation entry 0"),
    ("apply_euler", lambda: apply_euler(T, [10, 8], _loose(relation=(1.0, 1.0, -2.0))),
     InputError, "relation entry 0"),
    ("apply_euler_row",
     lambda: apply_euler_row(T, [10, 8], _loose(relation=(1.0, 1.0, -2.0)), 1),
     InputError, "relation entry 0"),
    ("certify", lambda: certify(T, [10, 8], _loose(relation=(1.0, 1.0, -2.0))), InputError,
     "relation entry 0"),
    ("certify", lambda: certify(T, [10, 8], _loose(terms=[((0, 0), F(1))])), InputError,
     "terms: expected a mapping of (z, r) keys, got [((0, 0), Fraction(1, 1))]"),
    ("certify", lambda: certify(T, [10, 8], _loose(terms=None)), InputError,
     "terms: expected a mapping of (z, r) keys, got None"),
    # a series argument without the four fields of a series is named by the
    # first one it lacks; a bundle's solutions must be a list
    ("certify", lambda: certify(T, [10, 8], None), InputError,
     "series: missing field 'base_exponent'"),
    ("apply_box", lambda: apply_box(T, "x"), InputError, "series: missing field 'base_exponent'"),
    ("apply_euler", lambda: apply_euler(T, [10, 8], _lacking("relation")), InputError,
     "series: missing field 'relation'"),
    ("apply_euler_row", lambda: apply_euler_row(T, [10, 8], _lacking("window"), 0),
     InputError, "series: missing field 'window'"),
    ("certify_bundle", lambda: certify_bundle(T, [10, 8], None), InputError,
     "solutions: expected a list, got None"),
    ("certify_bundle", lambda: certify_bundle(T, [10, 8], [_lacking("terms"), SERIES_1]),
     InputError, "series: missing field 'terms'"),
    # a bool is a truth value, not a number, in the library as in the CLI
    ("build_config", lambda: build_config(_with(POINTS, 0, 0, True)), InputError,
     "point 0 entry 0: expected an integer, got True"),
    ("log_solution", lambda: log_solution(T, V, (0, 0, 0), True, (0, 3)), InputError,
     "r: expected an integer, got True"),
    ("log_solution", lambda: log_solution(T, (2, False, 8), (0, 0, 0), 0), InputError,
     "v entry 1: expected a number, got False"),
    ("solution_bundle", lambda: solution_bundle(T, [10, 8], window=(0, True)), InputError,
     "window entry 1: expected an integer, got True"),
    ("solution_bundle", lambda: solution_bundle(T, [10, 8], u_lift=[True, 0, 0]), InputError,
     "lift entry 0: expected an integer, got True"),
    ("parameter", lambda: parameter(T, [10, True]), InputError,
     "beta entry 1: expected a number, got True"),
    ("coefficient_M", lambda: coefficient_M(1, False, 1), InputError,
     "s: expected an integer, got False"),
    ("apply_euler_row", lambda: apply_euler_row(T, [10, 8], SERIES, True), InputError,
     "row: expected an integer, got True"),
    ("apply_euler_row", lambda: apply_euler_row(T, [True, 8], SERIES, 0), InputError,
     "parameter entry 0: expected a number, got True"),
]

# Callables of gkz1.__all__ that take no number of their own, with the reason.
TAKES_NO_NUMBERS = {
    "singularity_type": "a configuration",
    "volume_crosscheck": "a configuration",
    "SingularityType": "an enum of two names",
    # records: the functions that build them check every number first
    **dict.fromkeys(
        ["BundleReport", "Certificate", "Classification", "Exponent", "Nonresonance",
         "OperatorReport", "Parameter", "PrimeExponents", "SupportVerdict"],
        "a record of checked values",
    ),
}


@pytest.mark.parametrize(
    "call, error, names", [case[1:] for case in REFUSALS],
    ids=[f"{case[0]}: {case[3]}" for case in REFUSALS],
)
def test_inexact_input_is_refused_by_name(call, error, names):
    with pytest.raises(error, match=re.escape(names)):
        call()


def test_every_entry_point_is_in_the_table():
    callables = {name for name in gkz1.__all__ if callable(getattr(gkz1, name))}
    tabled = {case[0] for case in REFUSALS}
    assert not tabled & set(TAKES_NO_NUMBERS)
    assert callables == tabled | set(TAKES_NO_NUMBERS)


def _key(x):
    """x, or its repr where a dict key cannot be a list or a dict."""
    return x if x.__hash__ else repr(x)


# Each slot puts one junk value where an entry point takes a number or a
# list of numbers; the other arguments are valid.
SLOTS = {
    "build_config points": lambda x: build_config(x),
    "build_config entry": lambda x: build_config(_with(POINTS, 0, 0, x)),
    "build_config point": lambda x: build_config([x, [1, 2], [1, 1]]),
    "parameter": lambda x: parameter(T, x),
    "parameter entry": lambda x: parameter(T, [x, 8]),
    "is_nonresonant": lambda x: is_nonresonant(T, x),
    "fake_exponents": lambda x: fake_exponents(T, x),
    "exponent_set_prime": lambda x: exponent_set_prime(T, [10, x]),
    "classify": lambda x: classify(T, x),
    "is_mum": lambda x: is_mum(T, [x, 8]),
    "integer_lift": lambda x: integer_lift(T, x),
    "integer_lift entry": lambda x: integer_lift(T, [x, 0]),
    "match_exponent u": lambda x: match_exponent(T, NONRESONANT, x, V_NONRESONANT),
    "match_exponent v": lambda x: match_exponent(T, NONRESONANT, [0, 0], x),
    "normalize_to_e_prime": lambda x: normalize_to_e_prime(T, x),
    "m_support": lambda x: m_support(T, x),
    "m_support entry": lambda x: m_support(T, [2, x, 8]),
    "negative_support v": lambda x: negative_support(x, [0]),
    "negative_support indices": lambda x: negative_support(V, x),
    "support_verdict v": lambda x: support_verdict(T, x, [0, 1, 2], (0, 0, 0)),
    "support_verdict indices": lambda x: support_verdict(T, V, x, (0, 0, 0)),
    "support_verdict index": lambda x: support_verdict(T, V, [0, x], (0, 0, 0)),
    "support_verdict lift": lambda x: support_verdict(T, V, [0, 1, 2], x),
    "support_verdict lift entry": lambda x: support_verdict(T, V, [0, 1, 2], [0, x, 0]),
    "coefficient_M l": lambda x: coefficient_M(x, 0, F(1, 2)),
    "coefficient_M s": lambda x: coefficient_M(1, x, F(1, 2)),
    "coefficient_M v": lambda x: coefficient_M(1, 0, x),
    "solution_bundle beta": lambda x: solution_bundle(T, x, window=(0, 2)),
    "solution_bundle u": lambda x: solution_bundle(T, [10, 8], u=x, window=(0, 2)),
    "solution_bundle lift": lambda x: solution_bundle(T, [10, 8], u_lift=x, window=(0, 2)),
    "solution_bundle window": lambda x: solution_bundle(T, [10, 8], window=x),
    "solution_bundle window entry": lambda x: solution_bundle(T, [10, 8], window=(x, 2)),
    "log_solution v": lambda x: log_solution(T, x, (0, 0, 0), 0, (0, 2)),
    "log_solution lift": lambda x: log_solution(T, V, x, 0, (0, 2)),
    "log_solution r": lambda x: log_solution(T, V, (0, 0, 0), x, (0, 2)),
    "log_solution window": lambda x: log_solution(T, V, (0, 0, 0), 0, x),
    "SolutionBundle.solution": lambda x: BUNDLE.solution(x),
    "phi_series q": lambda x: phi_series(T, V, (0, 0, 0), x, (0, 2)),
    "phi_series q entry": lambda x: phi_series(T, V, (0, 0, 0), [x], (0, 2)),
    "phi_series lift": lambda x: phi_series(T, V, x, (), (0, 2)),
    "phi_series window": lambda x: phi_series(T, V, (0, 0, 0), (), x),
    "LogSeries.make base": lambda x: LogSeries.make(x, (1, 1, -2), (0, 1), {}),
    "LogSeries.make relation": lambda x: LogSeries.make(V, x, (0, 1), {}),
    "LogSeries.make window": lambda x: LogSeries.make(V, (1, 1, -2), x, {}),
    "LogSeries.make coefficient": lambda x: LogSeries.make(V, (1, 1, -2), (0, 1), {(0, 0): x}),
    "LogSeries.make key": lambda x: LogSeries.make(V, (1, 1, -2), (0, 1), {_key(x): 1}),
    "LogSeries.make key entry": lambda x: LogSeries.make(V, (1, 1, -2), (0, 1), {(_key(x), 0): 1}),
    "LogSeries.make terms": lambda x: LogSeries.make(V, (1, 1, -2), (0, 1), x),
    "LogSeries.from_json_dict": lambda x: LogSeries.from_json_dict(x),
    "LogSeries.from_json_dict terms": lambda x: LogSeries.from_json_dict(_series_json(terms=x)),
    "LogSeries.from_json_dict term": lambda x: LogSeries.from_json_dict(_series_json(terms=[x])),
    "LogSeries.from_json_dict r": lambda x: LogSeries.from_json_dict(
        _series_json(terms=[{"z": 0, "r": x, "coeff": "1"}])
    ),
    "IntervalSet.clip lo": lambda x: MEMBERSHIP.clip(x, 2),
    "IntervalSet.clip hi": lambda x: MEMBERSHIP.clip(0, x),
    "apply_euler_row parameter": lambda x: apply_euler_row(T, x, SERIES, 0),
    "apply_euler_row row": lambda x: apply_euler_row(T, [10, 8], SERIES, x),
    "apply_euler": lambda x: apply_euler(T, [10, x], SERIES),
    "certify": lambda x: certify(T, x, SERIES),
    # a series built by its constructor, with one junk field
    "apply_box window": lambda x: apply_box(T, _loose(window=x)),
    "apply_box base": lambda x: apply_box(T, _loose(base_exponent=x)),
    "certify coefficient": lambda x: certify(T, [10, 8], _loose(terms={(0, 0): x})),
    "certify key": lambda x: certify(T, [10, 8], _loose(terms={_key(x): F(1)})),
    "certify terms": lambda x: certify(T, [10, 8], _loose(terms=x)),
    # junk in place of the series itself, or of a bundle or one of its solutions
    "certify series": lambda x: certify(T, [10, 8], x),
    "apply_box series": lambda x: apply_box(T, x),
    "apply_euler series": lambda x: apply_euler(T, [10, 8], x),
    "apply_euler_row series": lambda x: apply_euler_row(T, [10, 8], x, 0),
    "certify_bundle solutions": lambda x: certify_bundle(T, [10, 8], x),
    "certify_bundle solution": lambda x: certify_bundle(T, [10, 8], [x, SERIES_1]),
}

# The ValueErrors the entry points document, besides the InputErrors.
DOCUMENTED = ("empty window", "entries, the configuration", "s must be nonnegative")


@settings(max_examples=300, deadline=None)
@given(slot=st.sampled_from(sorted(SLOTS)), junk=_JUNK)
def test_junk_inputs_end_in_documented_errors(slot, junk):
    # no IndexError, TypeError or ZeroDivisionError escapes
    try:
        SLOTS[slot](junk)
    except GkzError as exc:
        event(type(exc).__name__)
    except ValueError as exc:
        assert any(text in str(exc) for text in DOCUMENTED), (slot, junk, exc)
        event("documented ValueError")
    else:
        event("accepted")


@pytest.mark.parametrize("field, value, names", [
    ("A", [[1, 0.5], [1, 2], [1, 1]], "A[0][1]"),
    ("beta", ["x", 8], "beta[0]"),
    ("beta", [10, True], "beta[1]"),
    ("u", [0, "1/0"], "u[1]"),
    ("lift", [0, 0, 1.5], "lift[2]"),
    ("window", [0.5, 2], "window[0]"),
    ("window", [0, "2"], "window[1]"),
    ("window", [0, 1, 2], "window"),
    ("r", 1.5, "r"),
])
def test_cli_names_the_field(capsys, tmp_path, field, value, names):
    # the library's checks, with the file's field names, in one line and exit 2
    problem = {"A": POINTS, "beta": [10, 8], "window": [0, 2], field: value}
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(problem))
    assert main(["solve", "--input", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"input error: {names}") and err.count("\n") == 1


@pytest.mark.parametrize("window, code", [([0, 1, 2], 2), ([], 2), ([0, 0.5], 2), ([3, 1], 0)])
def test_file_window_is_checked_where_the_flag_replaces_it(capsys, tmp_path, window, code):
    # the file's window must be two integers even under --window; only the
    # window in force must have lo <= hi
    path = tmp_path / "problem.json"
    path.write_text(json.dumps({"A": POINTS, "beta": [10, 8], "window": window}))
    assert main(["analyze", "--input", str(path), "--window", "0:3"]) == code
    assert capsys.readouterr().err.startswith("input error: window" if code else "")


def test_empty_window_is_an_input_error(capsys, tmp_path):
    # the library's EmptyWindow is both an InputError and the ValueError it
    # was before; the CLI prints it as it is, in one line, with exit 2
    with pytest.raises(EmptyWindow, match=re.escape("window: empty window [3, 1]")) as info:
        solution_bundle(T, [10, 8], window=(3, 1))
    assert isinstance(info.value, InputError) and isinstance(info.value, ValueError)
    path = tmp_path / "problem.json"
    path.write_text(json.dumps({"A": POINTS, "beta": [10, 8]}))
    assert main(["solve", "--input", str(path), "--window", "3:1"]) == 2
    assert capsys.readouterr().err == "input error: window: empty window [3, 1]\n"
