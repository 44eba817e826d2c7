"""Model layer: parameters, moment sequences, presets, edge weights."""

import dataclasses
import json
from fractions import Fraction as F

import pytest

from bipcorr.model import (
    InsufficientMomentsError,
    InvalidParamsError,
    ModelParams,
    MomentSequence,
    edge_factor,
    load_moments_file,
    moments_preset,
    required_moment_order,
    validate,
)
from bipcorr.rational import format_scalar


class TestModelParams:
    def test_part_fractions(self):
        params = ModelParams(F(1, 3), F(2))
        assert params.alpha1 == F(1, 3)
        assert params.alpha2 == F(2, 3)

    def test_frozen(self):
        params = ModelParams(F(1, 2), F(1))
        with pytest.raises(AttributeError):
            params.alpha = F(1, 3)

    def test_equal_params_hash_equal(self):
        a, b = ModelParams(F(2, 3), F(5, 2)), ModelParams(F(2, 3), F(5, 2))
        assert a == b and a is not b and hash(a) == hash(b)
        assert {a: "found"}[b] == "found"
        assert hash(a) == hash((F(2, 3), F(5, 2)))

    def test_replace_hashes_the_new_fields(self):
        params = dataclasses.replace(ModelParams(F(1, 2), F(1)), alpha=F(1, 3))
        assert params == ModelParams(F(1, 3), F(1))
        assert hash(params) == hash(ModelParams(F(1, 3), F(1))) == hash((F(1, 3), F(1)))
        assert repr(params) == "ModelParams(alpha=Fraction(1, 3), p=Fraction(1, 1))"
        assert [field.name for field in dataclasses.fields(params)] == ["alpha", "p"]


class TestEdgeFactor:
    def test_multiplicity_two_ignores_p(self):
        moments = MomentSequence([F(1)])
        assert edge_factor(moments, ModelParams(F(1, 2), F(3)), 2) == 1

    def test_examples(self):
        moments = MomentSequence([F(1), F(5), F(1)])
        params = ModelParams(F(1, 2), F(2))
        assert edge_factor(moments, params, 4) == F(5, 2)
        assert edge_factor(moments, params, 6) == F(1, 4)

    def test_multiplicative_in_p_powers(self):
        moments = MomentSequence([F(2), F(3), F(4), F(5)])
        params = ModelParams(F(1, 2), F(7, 3))
        for mult in (2, 4, 6, 8):
            expected = moments.moment(mult) / params.p ** (mult // 2 - 1)
            assert edge_factor(moments, params, mult) == expected

    def test_odd_or_zero_multiplicity_rejected(self):
        moments = MomentSequence([F(1), F(1)])
        params = ModelParams(F(1, 2), F(1))
        for mult in (0, 1, 3, -2):
            with pytest.raises(ValueError):
                edge_factor(moments, params, mult)

    def test_missing_moment(self):
        moments = MomentSequence([F(1)])
        params = ModelParams(F(1, 2), F(1))
        with pytest.raises(InsufficientMomentsError):
            edge_factor(moments, params, 4)


class TestMomentSequence:
    def test_lookup(self):
        moments = MomentSequence([F(1), F(5, 2), F(7)])
        assert moments.moment(2) == 1
        assert moments.moment(4) == F(5, 2)
        assert moments.moment(6) == 7
        assert moments.max_order == 6

    def test_bad_order(self):
        moments = MomentSequence([F(1)])
        for order in (0, 1, 3, -2):
            with pytest.raises(ValueError):
                moments.moment(order)

    def test_insufficient_reports_orders(self):
        moments = MomentSequence([F(1), F(5)])
        with pytest.raises(InsufficientMomentsError) as info:
            moments.require(6)
        assert info.value.required_order == 6
        assert info.value.available_order == 4
        assert info.value.code == "insufficient_moments"

    def test_json_round_trip(self):
        data = json.loads('{"even_moments": ["1", "5/2"]}')
        moments = MomentSequence.from_json_dict(data)
        assert moments == MomentSequence([F(1), F(5, 2)])
        assert [format_scalar(v) for v in moments.values] == data["even_moments"]

    def test_from_json_rejects_malformed(self):
        for bad in ({}, {"even_moments": "1"}, {"even_moments": ["x"]}, None):
            with pytest.raises(ValueError):
                MomentSequence.from_json_dict(bad)


class TestValidate:
    def test_accepts_valid(self):
        validate(ModelParams(F(1, 3), F(5, 2)), MomentSequence([F(1), F(1)]), 2, 2)

    def test_alpha_out_of_range(self):
        for alpha in (F(0), F(1), F(3, 2), F(-1, 4)):
            with pytest.raises(InvalidParamsError) as info:
                validate(ModelParams(alpha, F(1)), MomentSequence([F(1)]), 2, 2)
            assert info.value.code == "alpha_out_of_range"

    def test_p_out_of_range(self):
        with pytest.raises(InvalidParamsError) as info:
            validate(ModelParams(F(1, 2), F(0)), MomentSequence([F(1)]), 2, 2)
        assert info.value.code == "p_out_of_range"

    def test_insufficient_moments_names_order(self):
        with pytest.raises(InsufficientMomentsError) as info:
            validate(ModelParams(F(1, 2), F(2)), MomentSequence([F(1), F(5)]), 2, 4)
        assert info.value.required_order == 6

    def test_odd_indices_need_no_moments(self):
        validate(ModelParams(F(1, 2), F(1)), MomentSequence([]), 3, 2)
        assert required_moment_order(3, 2) == 0
        assert required_moment_order(2, 4) == 6

    def test_bad_indices(self):
        with pytest.raises(InvalidParamsError) as info:
            validate(ModelParams(F(1, 2), F(1)), MomentSequence([F(1)]), 0, 2)
        assert info.value.code == "bad_indices"

    def test_negative_moment_rejected(self):
        # Every stored moment is checked, also one above the order (2, 2) needs.
        for values in ([F(-1), F(2)], [F(1), F(-1, 3)]):
            with pytest.raises(InvalidParamsError) as info:
                validate(ModelParams(F(1, 2), F(1)), MomentSequence(values), 2, 2)
            assert info.value.code == "moment_out_of_range"
        # Zero is a moment of the law a = 0 (``constant:0``).
        validate(ModelParams(F(1, 2), F(1)), MomentSequence([F(0), F(0)]), 2, 2)


class TestPresets:
    def test_rademacher(self):
        assert moments_preset("rademacher", 4).values == (F(1),) * 4

    def test_constant(self):
        moments = moments_preset("constant:3/2", 3)
        assert moments.values == (F(9, 4), F(81, 16), F(729, 64))

    def test_gaussian(self):
        moments = moments_preset("gaussian:2", 3)
        # sigma^2j * (2j-1)!!
        assert moments.values == (F(4), F(48), F(960))

    def test_gaussian_unit(self):
        assert moments_preset("gaussian:1", 4).values == (F(1), F(3), F(15), F(105))

    def test_unknown_or_malformed(self):
        for bad in ("poisson", "constant", "constant:x", "rademacher:2",
                    "two-point:1,2", "two-point:1,3/2,-1", "two-point:1,-1/2,2", "two-point:1,x,2"):
            with pytest.raises(ValueError):
                moments_preset(bad, 2)

    def test_two_point(self):
        # q v1^2j + (1-q) v2^2j
        moments = moments_preset("two-point:1,1/2,2", 3)
        assert moments.values == (F(5, 2), F(17, 2), F(65, 2))

    def test_zero_count(self):
        assert moments_preset("rademacher", 0).values == ()


def test_load_moments_file(tmp_path):
    path = tmp_path / "moments.json"
    path.write_text(json.dumps({"even_moments": ["1", "3", "7/2"]}))
    moments = load_moments_file(str(path))
    assert moments.values == (F(1), F(3), F(7, 2))
