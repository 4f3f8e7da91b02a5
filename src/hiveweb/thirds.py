"""Exact arithmetic in (1/3)Z.

Every quantity in the calculus lives in the lattice of integer thirds, so a
value is a plain int ``thirds`` meaning ``thirds / 3``, and a lattice point a
pair ``(x, y)`` of ints.  Python integers are unbounded, which keeps addition,
subtraction, max and min closed and exact with no overflow mode to worry
about.  No float ever appears.

Every integer read from a JSON document or a command-line value passes one
rule, :func:`checked_int`: an exact ``int`` of magnitude at most ``HIVEWEB_MAX_THIRDS``,
except a seed, which is not a quantity and keeps any magnitude ``int()`` converts.
"""

from __future__ import annotations

import functools
import json
import os
from collections import namedtuple

from .errors import MalformedInput

DEFAULT_MAX_THIRDS = 10**12


@functools.cache  # cleared by cli.run(), so the cap is read once per run at first use
def max_thirds() -> int:
    """``HIVEWEB_MAX_THIRDS``, written as a size flag is: ASCII digits alone."""
    raw = os.environ.get("HIVEWEB_MAX_THIRDS", str(DEFAULT_MAX_THIRDS))
    if not is_decimal(raw, signed=False):
        kind = "a non-negative integer" if is_decimal(raw) else "an integer"
        raise MalformedInput(f"HIVEWEB_MAX_THIRDS={raw!r} is not {kind}")
    return parse_int(raw, "HIVEWEB_MAX_THIRDS", capped=False)


def checked_int(value, what: str = "value") -> int:
    """``value`` if it is an int (not a bool, float or string) within the cap."""
    if type(value) is not int:
        raise MalformedInput(f"{what}: expected an integer, got {_shown(value)}")
    if abs(value) > max_thirds():
        raise MalformedInput(f"{what}: |{value}| exceeds HIVEWEB_MAX_THIRDS={max_thirds()}")
    return value


def int_cap() -> int:
    """The cap for inline tests ``-cap <= x <= cap``, or -1 (no int passes) if unparsable."""
    try:
        return max_thirds()
    except MalformedInput:
        return -1


_JSON_TYPES = {dict: "object", list: "array", str: "string", int: "number", float: "number",
               bool: "boolean", type(None): "null"}


def _json_type(value) -> str:
    """The JSON name of the type of a decoded ``value``: object, array,
    string, number, boolean or null."""
    return _JSON_TYPES.get(type(value), type(value).__name__)


def read_object(obj, what: str, *keys: str) -> dict:
    """``obj`` if it is a JSON object holding each of ``keys``."""
    if not isinstance(obj, dict):
        raise MalformedInput(f"{what}: expected an object, got {_json_type(obj)}")
    for key in keys:
        if key not in obj:
            raise MalformedInput(f"{what}: no {key}")
    return obj


def read_array(obj, what: str, key: str) -> list:
    """``obj[key]`` once ``obj`` is a JSON object holding ``key`` and that is an array."""
    value = read_object(obj, what, key)[key]
    if type(value) is not list:
        raise MalformedInput(f"{key}: expected an array, got {_json_type(value)}")
    return value


def read_thirds(obj, what: str = "value") -> int:
    """n of a ``{"thirds": n}`` object, under :func:`checked_int`."""
    if type(obj) is not dict or len(obj) != 1 or "thirds" not in obj:
        raise MalformedInput(f'{what}: expected {{"thirds": n}}, got {_shown(obj)}')
    return checked_int(obj["thirds"], what)


def _shown(value) -> str:
    """How an error text quotes an id, key, label or value it names: a JSON
    value as :func:`json_text` writes it (``true``, ``null``, ``"v"``,
    ``{"thirds":1}``), anything else by ``repr``, so that a Python caller's
    names, such as the tuples of nets, read as they were written."""
    if value is None or isinstance(value, (str, int, float, list, dict)):
        try:
            return json_text(value)
        except (TypeError, ValueError):  # a non-JSON item, keys that do not sort, or a cycle
            pass
    return repr(value)


quoted = json.encoder.encode_basestring_ascii  # the escaper json.dumps writes strings with


def json_text(value) -> str:
    """``value`` as ``json.dumps(value, sort_keys=True, separators=(",", ":"))``
    writes it: an exact int by ``int.__repr__``, a string by :data:`quoted`
    and anything else by ``json.dumps`` itself.  The document writers pass an
    exact int to ``%s`` and an exact string to :data:`quoted` inline, which
    writes the same text; ``json.dumps`` writes a key that is not a string
    as the string of its text."""
    if type(value) is int:
        return int.__repr__(value)
    if type(value) is str:
        return quoted(value)
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def shown_violations(violations: list[dict]) -> str:
    """The first three of ``violations`` as the JSON objects ``validate``
    prints: the one wording of a violation list in an error detail."""
    return json_text(violations[:3])


def is_decimal(text: str, signed: bool = True) -> bool:
    """Whether command-line ``text`` writes an integer: the ASCII digits
    0-9, after one ``-`` when ``signed``.  ``int()`` also takes ``_``,
    ``+``, spaces and non-ASCII digits, which this refuses."""
    if signed and text.startswith("-"):
        text = text[1:]
    return text.isascii() and text.isdecimal()


def parse_int(text: str, what: str, capped: bool = True) -> int:
    """The integer of command-line ``text`` that :func:`is_decimal` accepts,
    under the rule when ``capped``.  Past its leading zeros, a value with more
    digits than ``int()`` converts is over the cap, which ``int()`` reads too."""
    digits = text.lstrip("-").lstrip("0") or "0"
    try:
        value = int("-" + digits if text.startswith("-") else digits)
    except ValueError:  # worded by its digit count, not its digits
        limit = f"HIVEWEB_MAX_THIRDS={max_thirds()}" if capped else "what int() converts"
        raise MalformedInput(f"{what}: a value of {len(digits)} digits exceeds {limit}") from None
    return checked_int(value, what) if capped else value


def parse_ints(text: str, n: int, what: str) -> list[int]:
    """The ``n`` comma-separated integers of command-line ``text``, under the rule."""
    parts = text.split(",")
    if len(parts) != n or not all(map(is_decimal, parts)):
        raise MalformedInput(f"{what} needs {n} comma-separated integers, got {text!r}")
    return [parse_int(part, what) for part in parts]


class Third(namedtuple("Third", "thirds")):
    """A value in (1/3)Z, stored scaled by three: the value type of the
    :data:`~hiveweb.web.HiveValues` dict that the benchmark's checks read.
    Everywhere else a value is the plain int ``thirds``."""

    __slots__ = ()

    def __new__(cls, thirds: int) -> Third:
        if not isinstance(thirds, int) or isinstance(thirds, bool):
            raise TypeError(f"thirds must be an int, got {type(thirds).__name__}")
        return super().__new__(cls, thirds)

    def __repr__(self) -> str:
        q, r = divmod(self.thirds, 3)
        if r == 0:
            return f"Third({q})"
        return f"Third({self.thirds}/3)"

    def to_json(self) -> dict:
        return {"thirds": self.thirds}
