"""The exact-layer value types: repr text, equality, hashing, immutability, pickling.

Vec2, Mat2, PhaseQ, ChannelValidity and AdelicGainReport are immutable
values. These tests pin what callers can observe of them: the repr,
equality only within one type, hashes equal to the hash of the field
tuple, refused assignment and deletion, and round-trips through pickle
and copy.
"""

import copy
import pickle
from fractions import Fraction

import pytest

from qpadic.adelic import AdelicGainReport, adelic_report
from qpadic.channels import ChannelValidity, channel_validity
from qpadic.lattice import Lattice, Mat2, Vec2
from qpadic.padic import PhaseQ


def _values():
    return {
        "Vec2": Vec2(1, "-1/2"),
        "Mat2": Mat2(1, 2, "3/4", 0),
        "PhaseQ": PhaseQ(Fraction(5, 4)),
        "ChannelValidity": channel_validity(
            Mat2(2, 0, 0, 2), Lattice(Mat2(1, 0, 0, Fraction(1, 3)), 3)
        ),
        "AdelicGainReport": adelic_report(Mat2(12, 0, 0, Fraction(1, 5))),
    }


REPRS = {
    "Vec2": "Vec2(x=Fraction(1, 1), y=Fraction(-1, 2))",
    "Mat2": "Mat2(a=Fraction(1, 1), b=Fraction(2, 1), c=Fraction(3, 4), d=Fraction(0, 1))",
    "PhaseQ": "PhaseQ(angle=Fraction(1, 4))",
    "ChannelValidity": (
        "ChannelValidity(one_minus_det_norm=Fraction(1, 3), noise_measure=Fraction(3, 1), "
        "product=Fraction(1, 1), ok=True)"
    ),
    "AdelicGainReport": (
        "AdelicGainReport(det=Fraction(12, 5), prime_gains={2: -2, 3: -1, 5: 1}, "
        "real_gain={2: 2, 3: 1, 5: -1}, sum_is_zero=True)"
    ),
}

#: The field names of each type, in declaration order.
FIELDS = {
    "Vec2": ("x", "y"),
    "Mat2": ("a", "b", "c", "d"),
    "PhaseQ": ("angle",),
    "ChannelValidity": ("one_minus_det_norm", "noise_measure", "product", "ok"),
    "AdelicGainReport": ("det", "prime_gains", "real_gain", "sum_is_zero"),
}

NAMES = sorted(REPRS)


def _fields(value, name):
    return tuple(getattr(value, f) for f in FIELDS[name])


@pytest.mark.parametrize("name", NAMES)
class TestValueTypes:
    def test_repr_text(self, name):
        assert repr(_values()[name]) == REPRS[name]

    def test_equal_to_a_fresh_copy(self, name):
        one, two = _values()[name], _values()[name]
        assert one is not two
        assert one == two and not (one != two)

    def test_unequal_to_its_field_tuple_and_other_types(self, name):
        values = _values()
        value = values[name]
        assert value != _fields(value, name)
        assert value != list(_fields(value, name))
        for other_name, other in values.items():
            if other_name != name:
                assert value != other

    def test_hash(self, name):
        value = _values()[name]
        if name == "AdelicGainReport":
            with pytest.raises(TypeError):  # dict fields are unhashable
                hash(value)
        else:
            assert hash(value) == hash(_fields(value, name))
            assert hash(value) == hash(_values()[name])

    def test_assignment_is_refused(self, name):
        value = _values()[name]
        field = FIELDS[name][0]
        before = getattr(value, field)
        with pytest.raises(AttributeError):
            setattr(value, field, Fraction(7))
        with pytest.raises(AttributeError):
            value.not_a_field = 1
        assert getattr(value, field) == before

    def test_deletion_is_refused(self, name):
        value = _values()[name]
        field = FIELDS[name][0]
        with pytest.raises(AttributeError):
            delattr(value, field)
        assert getattr(value, field) == getattr(_values()[name], field)

    @pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
    def test_pickle_round_trip(self, name, protocol):
        value = _values()[name]
        back = pickle.loads(pickle.dumps(value, protocol))
        assert type(back) is type(value)
        assert back == value and repr(back) == repr(value)

    def test_copy_round_trips(self, name):
        value = _values()[name]
        for back in (copy.copy(value), copy.deepcopy(value)):
            assert type(back) is type(value)
            assert back == value and repr(back) == repr(value)


class TestEqualityDetails:
    def test_vec2_and_mat2_never_equal(self):
        assert Vec2(1, 0) != Mat2(1, 0, 0, 1)
        assert Mat2(0, 0, 0, 0) != Vec2(0, 0)

    def test_mat2_is_not_its_entry_tuple(self):
        assert Mat2(1, 2, 3, 4) != (1, 2, 3, 4)
        assert Mat2(1, 2, 3, 4) != (Fraction(1), Fraction(2), Fraction(3), Fraction(4))

    def test_fields_are_compared_after_coercion(self):
        assert Vec2(1, "2/4") == Vec2(Fraction(1), Fraction(1, 2))
        assert Mat2("1", 0, 0, 1) == Mat2.identity()
        assert PhaseQ(Fraction(7, 4)) == PhaseQ(Fraction(3, 4))
        assert {Vec2(1, 2), Vec2("1", "2")} == {Vec2(1, 2)}

    def test_fields_are_rationals(self):
        v = Vec2(1, "-3/6")
        assert type(v.x) is Fraction and v.y == Fraction(-1, 2)
        m = Mat2(1, "2", Fraction(3), "4/2")
        assert all(type(e) is Fraction for e in (m.a, m.b, m.c, m.d))

    def test_derived_values_equal_constructed_ones(self):
        m = Mat2(1, 2, 3, 4)
        assert m @ Mat2.identity() == m
        assert m.inverse() @ m == Mat2.identity()
        assert Vec2(1, 2) + Vec2(3, 4) == Vec2(4, 6)
        assert hash(m.scaled(2)) == hash(Mat2(2, 4, 6, 8))
        assert PhaseQ(Fraction(1, 2)) * PhaseQ(Fraction(3, 4)) == PhaseQ(Fraction(1, 4))

    def test_keyword_construction(self):
        assert Vec2(x=1, y=2) == Vec2(1, 2)
        assert Mat2(a=1, b=0, c=0, d=1) == Mat2.identity()
        assert PhaseQ(angle=Fraction(1, 3)).angle == Fraction(1, 3)
        report = AdelicGainReport(det=Fraction(2), prime_gains={2: -1}, real_gain={2: 1},
                                  sum_is_zero=True)
        assert report == adelic_report(Mat2(2, 0, 0, 1))
        check = ChannelValidity(one_minus_det_norm=Fraction(1), noise_measure=Fraction(1),
                                product=Fraction(1), ok=True)
        assert check == channel_validity(Mat2(2, 0, 0, 1), Lattice(Mat2.identity(), 3))
