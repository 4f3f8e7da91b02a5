import pytest

from hiveweb.thirds import Third, parse_ints, read_thirds


@pytest.mark.parametrize(
    "thirds, expected",
    [(3, True), (1, False), (0, True), (-3, True), (-2, False)],
)
def test_is_integer(thirds, expected):
    # the repr writes an integer value as an integer, any other as n/3
    assert ("/" not in repr(Third(thirds))) is expected


def test_rejects_non_int():
    with pytest.raises(TypeError):
        Third(1.5)
    with pytest.raises(TypeError):
        Third(True)


def test_json_round_trip():
    v = Third(-41)
    assert v.to_json() == {"thirds": -41}
    assert read_thirds(v.to_json()) == v.thirds
    with pytest.raises(ValueError):
        read_thirds({"thirds": "3"})
    with pytest.raises(ValueError):
        read_thirds({"n": 3})


def test_parse_ints_reads_a_point():
    assert parse_ints("-3,7", 2, "point") == [-3, 7]
    with pytest.raises(ValueError):
        parse_ints("1,2,3", 2, "point")
