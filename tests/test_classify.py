import json
import random
import time
from fractions import Fraction as F

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from gkz1 import (
    SingularityType,
    build_config,
    certify,
    classify,
    exponent_set_prime,
    is_mum,
    is_mum_holomorphic,
    is_nonresonant,
    singularity_type,
    solution_bundle,
)
from gkz1.cli import main
from gkz1.errors import IrregularSingularity, NotNonresonant

from conftest import QUINTIC, random_config, random_nonresonant_beta, random_relation_config
from reference import classification_reference


class TestSingularityType:
    def test_classical_series_config_is_regular(self, gauss):
        assert singularity_type(gauss) is SingularityType.REGULAR

    def test_heavier_negative_side_is_irregular(self):
        # a1 = a2 + a3 realized in the plane: relation (1, -1, -1)
        config = build_config([(1, 1), (1, 0), (0, 1)])
        assert config.relation == (1, -1, -1)
        assert config.volume == 2
        assert singularity_type(config) is SingularityType.IRREGULAR

    def test_triangle_regular(self, triangle):
        assert singularity_type(triangle) is SingularityType.REGULAR


class TestIsMum:
    def test_integer_sigma_gauss(self, gauss):
        # sigma in Z>=1 with nonintegral thetas: one exponent, full log tower
        beta = (F(-1, 2), F(-1, 3), F(1))
        result = is_mum(gauss, beta)
        assert result.mum is True
        assert result.witness["singleton"] is True

    def test_fractional_sigma_gauss(self, gauss):
        beta = (F(-1, 2), F(-1, 3), F(1, 5) - 1)
        result = is_mum(gauss, beta)
        assert result.mum is False
        assert len(exponent_set_prime(gauss, beta).exponents) == 2

    def test_interior_origin(self, interior):
        result = is_mum(interior, (0, 0))
        assert result.mum is True

    def test_resonant_rejected(self, corner):
        with pytest.raises(NotNonresonant):
            is_mum(corner, (0, 0))

    def test_irregular_rejected(self):
        config = build_config([(1, 1), (1, 0), (0, 1)])
        with pytest.raises(IrregularSingularity):
            is_mum(config, (F(1, 3), F(1, 7)))


class TestIsMumHolomorphic:
    def test_interior_family(self, interior):
        assert is_mum_holomorphic(interior, (0, 0)).mum_holomorphic is True
        result = is_mum_holomorphic(interior, (1, 0))
        assert result.mum is True
        assert result.mum_holomorphic is False

    def test_unique_holomorphic_parameter(self, interior):
        outcomes = {}
        for label, beta in [("0", (0, 0)), ("a1", (1, 0)), ("a2", (0, 1)), ("a1+a2", (1, 1))]:
            outcomes[label] = is_mum_holomorphic(interior, beta).mum_holomorphic
        assert outcomes == {"0": True, "a1": False, "a2": False, "a1+a2": False}

    def test_gauss_sigma_one(self, gauss):
        # all lower parameters equal to one: log coefficients holomorphic
        beta = (F(-1, 2), F(-1, 3), F(0))
        result = is_mum_holomorphic(gauss, beta)
        assert result.mum is True
        assert result.mum_holomorphic is True

    def test_gauss_sigma_two_not_holomorphic(self, gauss):
        beta = (F(-1, 2), F(-1, 3), F(1))
        result = is_mum_holomorphic(gauss, beta)
        assert result.mum is True
        assert result.mum_holomorphic is False


class TestClassify:
    def test_outside_regime_is_none(self, corner):
        result = classify(corner, (0, 0))
        assert result.regular is True
        assert result.nonresonant is False
        assert result.mum is None and result.mum_holomorphic is None

    def test_irregular_is_none(self):
        config = build_config([(1, 1), (1, 0), (0, 1)])
        result = classify(config, (F(1, 3), F(1, 7)))
        assert result.regular is False
        assert result.mum is None

    def test_in_regime_matches_raising_api(self, gauss):
        beta = (F(-1, 2), F(-1, 3), F(1))
        assert classify(gauss, beta) == is_mum_holomorphic(gauss, beta)

    def test_one_test_answers_both_questions(self, gauss):
        beta = (F(-1, 2), F(-1, 3), F(1))
        assert is_mum_holomorphic is is_mum
        result = is_mum(gauss, beta)
        assert result.mum is not None and result.mum_holomorphic is not None


class TestEquivalences:
    def test_singleton_iff_lattice_conditions(self):
        # the cross-check inside the classifier raises on any disagreement;
        # this drives it over a random regular nonresonant sample
        rng = random.Random(55)
        tried = 0
        while tried < 40:
            config = random_config(rng)
            if singularity_type(config) is not SingularityType.REGULAR:
                continue
            beta = random_nonresonant_beta(rng, config)
            tried += 1
            result = is_mum(config, beta)
            singleton = len(exponent_set_prime(config, beta).exponents) == 1
            assert result.mum == singleton
            assert result.witness["singleton"] == (
                result.witness["integer_class_on_positive"]
                and result.witness["unit_positive_entries"]
            )

    def test_mum_beta_in_lattice_always_mum(self, interior):
        rng = random.Random(56)
        for _ in range(10):
            weights = [rng.randint(-3, 3) for _ in range(interior.n)]
            beta = interior.column_combination(weights)
            assert is_mum(interior, beta).mum is True

    def test_holomorphic_bundle_has_nonnegative_shifts(self, interior):
        # when the log coefficients are holomorphic, no negative z appears
        report = solution_bundle(interior, (0, 0), window=(-6, 6))
        assert report.complete
        for bundle in report.bundles:
            for series in bundle.solutions:
                assert all(z >= 0 for z, _ in series.terms)

    def test_holomorphic_components_have_nonnegative_shifts(self, interior):
        # stronger than the assembled solutions: every building-block series
        # with support missing at least one column stays in z >= 0, and a
        # non-holomorphic exponent of the same family does not
        from itertools import combinations_with_replacement

        from gkz1 import phi_series, support_verdict

        zero = (0,) * interior.n
        for v, holomorphic in [((F(0),) * 3, True), ((F(1), F(1), F(0)), False)]:
            seen_negative = False
            for size in range(interior.n):
                for q in combinations_with_replacement(range(interior.n), size):
                    indices = frozenset(range(interior.n)) - frozenset(q)
                    verdict = support_verdict(interior, v, indices, zero)
                    negatives = verdict.membership.clip(-20, -1)
                    if holomorphic:
                        assert not negatives, (v, q)
                    seen_negative = seen_negative or bool(negatives)
                    series = phi_series(interior, v, zero, q, (-6, 6))
                    if holomorphic:
                        assert all(z >= 0 for z, _ in series.terms)
            assert seen_negative != holomorphic

    def test_mum_full_log_tower(self, interior):
        # MUM: one exponent carrying log degrees 0..volume-1, integer shifts
        report = solution_bundle(interior, (1, 0), window=(-6, 6))
        assert report.complete
        assert len(report.bundles) == 1
        degrees = [s.max_log_degree for s in report.bundles[0].solutions]
        assert degrees == list(range(interior.volume))
        for series in report.bundles[0].solutions:
            base = series.base_exponent
            assert all(x.denominator == 1 for x in base)

    def test_nonresonance_witness_surfaces(self, corner):
        res = is_nonresonant(corner, (0, 0))
        result = classify(corner, (0, 0))
        assert result.witness["resonance_witness"] == res.witness


@st.composite
def classify_cases(draw):
    """A configuration and a parameter in its span.

    Half the configurations have relation entries up to 3, so that every
    positive entry is 1, condition (b), now and then.  Half the time the
    positive-side weights of the parameter are integers, so that its class
    is integral on the positive side, condition (a).
    """
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    if draw(st.booleans()):
        config = random_relation_config(rng, max_relation=3)
    else:
        config = random_config(rng)
    integral_positive = draw(st.booleans())
    weights = []
    for mu in range(config.n):
        if integral_positive and config.relation[mu] > 0:
            weights.append(F(draw(st.integers(min_value=-6, max_value=6))))
        else:
            weights.append(F(
                draw(st.integers(min_value=-60, max_value=60)),
                draw(st.sampled_from([1, 2, 3, 5, 7])),
            ))
    return config, config.column_combination(weights)


@settings(max_examples=200, deadline=None)
@given(case=classify_cases())
def test_classification_matches_the_whole_exponent_set(case):
    # the classifier builds the exponent set only when (a) and (b) hold;
    # the oracle always builds it, by the Fraction route
    config, beta = case
    result = classify(config, beta)
    if result.mum is None:
        event("outside the regime")
        return
    mum, holomorphic, vector = classification_reference(config, beta)
    assert (result.mum, result.mum_holomorphic) == (mum, holomorphic)
    assert result.witness["singleton"] is mum
    assert result.witness["exponent"] == (vector and [str(x) for x in vector])
    event(f"mum {mum}, holomorphic {holomorphic}")


def test_classify_without_the_exponent_set(capsys, tmp_path):
    # relation (1000000, -1): one positive entry, and it is not 1, so the
    # answer needs none of the million fake exponents
    path = tmp_path / "long.json"
    path.write_text(json.dumps({"A": [[1], [1000000]], "beta": ["1/7"]}))
    started = time.perf_counter()
    code = main(["classify", "--input", str(path)])
    elapsed = time.perf_counter() - started
    report = json.loads(capsys.readouterr().out)
    assert code == 0 and (report["regular"], report["nonresonant"]) == (True, True)
    assert report["mum"] is False and report["witness"]["exponent"] is None
    assert report["witness"]["unit_positive_entries"] is False
    assert elapsed < 0.5, f"took {elapsed:.3f}s"


class TestResonanceBoundary:
    """The quintic at beta = (-1, 0, 0, 0, 0): resonant, yet a full basis.

    This is no contradiction.  Nonresonance suffices for the rank to equal
    the volume, but it is not needed: the quintic's points have a unimodular
    triangulation, so their toric ring is normal, hence Cohen-Macaulay, and
    then the rank is the volume for every beta (Adolphson 1994;
    Matusevich-Miller-Walther 2005 prove the converse).
    """

    BETA = (-1, 0, 0, 0, 0)

    def test_witness(self):
        result = is_nonresonant(build_config(QUINTIC), self.BETA)
        assert not result
        assert result.witness == (0, 5, -1)

    def test_classify_refuses_with_the_pair(self, capsys, tmp_path):
        path = tmp_path / "quintic.json"
        path.write_text(json.dumps({"A": QUINTIC, "beta": list(self.BETA)}))
        code = main(["classify", "--input", str(path)])
        captured = capsys.readouterr()
        assert code == 3 and captured.out == ""
        assert captured.err.count("\n") == 1
        assert "facet pair (0,5) evaluates to integer -1" in captured.err

    def test_volume_many_certified_solutions(self):
        config = build_config(QUINTIC)
        report = solution_bundle(config, self.BETA, window=(0, 6))
        solutions = [(b, s) for b in report.bundles for s in b.solutions]
        assert len(solutions) == report.total_solutions == config.volume == 5
        assert report.complete
        for bundle, series in solutions:
            assert certify(config, bundle.parameter, series).passed
