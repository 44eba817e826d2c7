"""Scalar helpers: rational text and decimal rendering."""

import random
from fractions import Fraction as F

import pytest

from bipcorr.rational import format_scalar, parse_scalar, to_decimal


class TestRationalText:
    def test_parse_plain(self):
        assert parse_scalar("3") == 3
        assert parse_scalar("-7") == -7

    def test_parse_fraction(self):
        assert parse_scalar("5/2") == F(5, 2)
        assert parse_scalar(" -4/6 ") == F(-2, 3)

    def test_parse_rejects_garbage(self):
        for bad in ("", "a/b", "1/0", "1.5.2", "2//3"):
            with pytest.raises(ValueError):
                parse_scalar(bad)

    def test_format(self):
        assert format_scalar(F(1, 2)) == "1/2"
        assert format_scalar(F(4)) == "4"
        assert format_scalar(F(-3, 9)) == "-1/3"

    def test_round_trip(self):
        rng = random.Random(99)
        for _ in range(100):
            x = F(rng.randint(-500, 500), rng.randint(1, 500))
            assert parse_scalar(format_scalar(x)) == x


class TestDecimal:
    def test_exact_values(self):
        assert to_decimal(F(1, 2)) == "0.5"
        assert to_decimal(F(3)) == "3"

    def test_repeating(self):
        assert to_decimal(F(1, 3), 12) == "0.333333333333"
        assert to_decimal(F(2, 3), 4) == "0.6667"

    def test_digit_count(self):
        assert to_decimal(F(22, 7), 6) == "3.14286"

    def test_bad_digits(self):
        with pytest.raises(ValueError):
            to_decimal(F(1, 3), 0)
