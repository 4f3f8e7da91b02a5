import pytest

from hiveweb.thirds import ZERO, LatticePoint, Third


def test_arithmetic_is_exact_on_thirds():
    a, b = Third(5), Third(-7)
    assert (a + b).thirds == -2
    assert (a - b).thirds == 12
    assert (-a).thirds == -5


def test_comparison_total_order():
    assert Third(1) < Third(2) < Third(4)
    assert max(Third(3), Third(-3)) == Third(3)
    assert min(Third(3), Third(-3)) == Third(-3)


@pytest.mark.parametrize(
    "thirds, expected",
    [(3, True), (1, False), (0, True), (-3, True), (-2, False)],
)
def test_is_integer(thirds, expected):
    assert Third(thirds).is_integer() is expected


def test_zero_constant():
    assert ZERO == Third(0)
    assert ZERO.is_integer()


def test_rejects_non_int():
    with pytest.raises(TypeError):
        Third(1.5)
    with pytest.raises(TypeError):
        Third(True)


def test_json_round_trip():
    v = Third(-41)
    assert Third.from_json(v.to_json()) == v
    with pytest.raises(ValueError):
        Third.from_json({"thirds": "3"})
    with pytest.raises(ValueError):
        Third.from_json({"n": 3})


def test_lattice_point_parse_and_key():
    p = LatticePoint.parse("-3,7")
    assert (p.x, p.y) == (-3, 7)
    assert p.key() == "-3,7"
    assert LatticePoint(2, 2) - LatticePoint(1, -1) == LatticePoint(1, 3)
    with pytest.raises(ValueError):
        LatticePoint.parse("1,2,3")
