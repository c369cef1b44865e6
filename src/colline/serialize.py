"""The report format: tagged exact values plus one codec table per record.

Every value serializes to text forms that parse back exactly, so stored
witnesses and certificates can be re-validated from the report alone.

Each record is declared once, as its JSON keys in report order with the
codec of each key's value, and both the encoder and the decoder read that
one declaration, so the two directions cannot drift apart; a stored object
with a key its record does not declare does not decode. A codec is an
``(encode, decode)`` pair: ``CERTIFICATE.encode(cert)`` writes a
certificate, ``CERTIFICATE.decode(obj)`` reads it back.  ``json_text`` writes
a report as ``json.dumps(report, indent=2)`` does, byte for byte.

Within ``one_report()``, vectors are read and written once per distinct value:
the first occurrence of a ``Vector`` is formatted and the first occurrence of
a text is parsed, and every later one reuses that text or that (immutable)
``Vector``.  The table lives for one report and is dropped when the block
ends; outside any block each vector is formatted or parsed on its own.
"""

from __future__ import annotations

import math
from collections import namedtuple
from contextlib import contextmanager
from contextvars import ContextVar
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote
from operator import attrgetter, itemgetter
from typing import Callable, Optional

from .engine import Certificate, CertLine, Classification, Equation, ParallelFact, PhiTable
from .engine import PointFact
from .field import Vector, format_scalar, format_vector, parse_scalar, parse_vector
from .geometry import Line, Plane
from .predicates import CheckOutcome, Witness


Codec = namedtuple("Codec", "encode decode")  # value → JSON data, and back
PLAIN = Codec(lambda v: v, lambda j: j)  # text, numbers and booleans as JSON has them
SCALAR = Codec(format_scalar, parse_scalar)

# the vector table of the report being read or written: a Vector maps to its text
# and a text to its Vector (a Vector never equals a str, so the two cannot meet)
_TABLE: ContextVar[Optional[dict]] = ContextVar("colline_vector_table", default=None)


@contextmanager
def one_report():
    """Read or write one report: within the block each distinct vector is
    formatted once and each distinct text parsed once."""
    token = _TABLE.set({})
    try:
        yield
    finally:
        _TABLE.reset(token)


def _once(convert: Callable, key):
    """``convert(key)``, computed once per report for each distinct key."""
    table = _TABLE.get()
    if table is None:
        return convert(key)
    value = table.get(key)
    if value is None:
        value = table[key] = convert(key)
    return value


# the text functions are looked up at call time, like TAGGED's; only a str is looked
# up in the table, so any other stored value fails in parse_vector as it always has
VECTOR = Codec(lambda v: _once(format_vector, v),
               lambda j: _once(parse_vector, j) if isinstance(j, str) else parse_vector(j))


def optional(c: Codec) -> Codec:
    return Codec(lambda v: None if v is None else c.encode(v),
                 lambda j: None if j is None else c.decode(j))


def sequence(c: Codec) -> Codec:
    return Codec(lambda vs: list(map(c.encode, vs)), lambda js: tuple(map(c.decode, js)))


def pair(c1: Codec, c2: Codec) -> Codec:
    return Codec(lambda p: [c1.encode(p[0]), c2.encode(p[1])],
                 lambda j: tuple(c.decode(v) for c, v in zip((c1, c2), j, strict=True)))


def named(c: Codec) -> Codec:
    """Name → value pairs, stored as one JSON object."""
    return Codec(lambda kvs: {k: c.encode(v) for k, v in kvs},
                 lambda j: tuple((k, c.decode(v)) for k, v in j.items()))


_REQUIRED = object()
# one key of a record: its value is read by `get` (an attribute path or a function; by
# default the attribute of the key's name), and a stored report without it reads `default`
Key = namedtuple("Key", "name codec get default", defaults=(PLAIN, None, _REQUIRED))


def record(make: Callable, *keys: Key) -> Codec:
    """A JSON object with ``keys`` in this order; ``make`` takes them by name.
    A stored object with a key that is not declared does not decode."""
    getters = [k.get if callable(k.get) else attrgetter(k.get or k.name) for k in keys]
    encoders = [(k.name, k.codec.encode, get) for k, get in zip(keys, getters)]
    decoders = [(k.name, k.codec.decode, k.default) for k in keys]
    names = {k.name: None for k in keys}  # ordered, for the message

    def encode(x):
        return {name: enc(get(x)) for name, enc, get in encoders}

    def decode(obj):
        if not names.keys() >= obj.keys():
            key = next(key for key in obj if key not in names)
            raise ValueError(f"undeclared key {key!r} in a record of {', '.join(names)}")
        return make(**{name: dec(obj[name]) if default is _REQUIRED or name in obj else default
                       for name, dec, default in decoders})

    return Codec(encode, decode)


# -- tagged values: {"type": tag, ...} for a value of any type ---------------------


def to_jsonable(value):
    if isinstance(value, (tuple, list)):
        tag = ("scalars" if all(isinstance(v, Fraction) for v in value)
               else "vectors" if all(isinstance(v, Vector) for v in value) else None)
    else:
        tag = next((tag for tag, cls in _TYPES if isinstance(value, cls)), None)
    if tag is None:
        raise TypeError(f"cannot serialize value of type {type(value).__name__}")
    return {"type": tag, **_TAGS[tag].encode(value)}


def from_jsonable(obj):
    body = dict(obj)
    kind = body.pop("type")
    if kind not in _TAGS:
        raise ValueError(f"unknown tagged value type {kind!r}")
    return _TAGS[kind].decode(body)


# looked up at call time, so a wrapper installed on the module functions sees every call
TAGGED = Codec(lambda v: to_jsonable(v), lambda j: from_jsonable(j))


def _value(c: Codec) -> Codec:
    return record(lambda value: value, Key("value", c, lambda v: v))


_TYPES = (("scalar", Fraction), ("vector", Vector), ("line", Line), ("plane", Plane), ("text", str))
_TAGS = {
    "scalar": _value(SCALAR),
    "vector": _value(VECTOR),
    "line": record(Line, Key("origin", VECTOR), Key("direction", VECTOR)),
    "plane": record(Plane, Key("origin", VECTOR), Key("dir1", VECTOR), Key("dir2", VECTOR)),
    "scalars": _value(sequence(SCALAR)),
    "vectors": _value(sequence(VECTOR)),
    "text": _value(PLAIN),
}


# -- report records ----------------------------------------------------------------

_WITNESS_BODY = (Key("equation"), Key("inputs", named(TAGGED)), Key("values", named(TAGGED)))
WITNESS = record(Witness, Key("check"), *_WITNESS_BODY)


def _outcome(check, verdict, probes, skipped, witness):
    # the stored witness is named by its outcome's check, less `reduced:`
    if witness is not None:
        witness = Witness(check.removeprefix("reduced:"), **witness)
    return CheckOutcome(check, passed=verdict, probes=probes, witness=witness, skipped=skipped)


OUTCOME = record(
    _outcome,
    Key("check"),
    Key("verdict", Codec(lambda passed: "pass" if passed else "fail",
                         lambda j: {"pass": True, "fail": False}[j]), "passed"),
    Key("probes"),
    Key("skipped", default=0),
    Key("witness", optional(record(dict, *_WITNESS_BODY)), default=None),
)

PHI_TABLE = record(
    PhiTable,
    Key("entries", sequence(pair(SCALAR, SCALAR))),
    Key("anchor", VECTOR),
)


def _cert_line(name, origin, direction, image_origin, image_direction, anchors):
    image = None if image_origin is None else Line(image_origin, image_direction)
    return CertLine(name, Line(origin, direction), image, anchors)


CERTIFICATE = record(
    Certificate,
    Key("kind"),
    Key("lines", sequence(record(
        _cert_line,
        Key("name"),
        Key("origin", VECTOR, "line.origin"),
        Key("direction", VECTOR, "line.direction"),
        Key("image_origin", optional(VECTOR), lambda cl: cl.image and cl.image.origin, None),
        Key("image_direction", optional(VECTOR), lambda cl: cl.image and cl.image.direction,
            None),
        Key("anchors", sequence(VECTOR)),
    ))),
    Key("intersections", sequence(record(
        PointFact, Key("lines", sequence(PLAIN)), Key("point", VECTOR),
    ))),
    Key("parallels", sequence(record(ParallelFact, Key("lines", sequence(PLAIN))))),
    Key("points", sequence(record(  # (label, input, image) triples
        lambda label, input, image: (label, input, image),
        Key("label", PLAIN, itemgetter(0)),
        Key("input", VECTOR, itemgetter(1)),
        Key("image", VECTOR, itemgetter(2)),
    ))),
    Key("equations", sequence(record(
        Equation, Key("label"), Key("lhs", TAGGED), Key("rhs", TAGGED),
    ))),
    Key("conclusion"), Key("note", default=""),
)

CLASSIFICATION = record(
    Classification,
    Key("verdict"),
    Key("matrix", optional(sequence(sequence(SCALAR)))),
    Key("offset", optional(VECTOR)),
    Key("witness", optional(WITNESS), default=None),
    Key("witness_scope"), Key("certificate_scope"),
    Key("reasons", sequence(PLAIN)),
    Key("phi", optional(PHI_TABLE)),
    Key("affine_base", optional(VECTOR)),
)


# -- the report writer ------------------------------------------------------------


def json_text(payload) -> str:
    """``json.dumps(payload, indent=2)``, byte for byte.  ``indent`` makes
    ``json`` leave its C encoder for a pure-Python one; this writer quotes
    strings with the C quoting function and builds the indentation itself.
    Tuples are written as lists, as ``json`` writes them."""
    out: list[str] = []
    _write(payload, out, "\n")
    return "".join(out)


def _write(value, out: list, newline: str) -> None:
    """Append the text of one value, whose line starts at ``newline``'s indent."""
    if isinstance(value, str):
        out.append(_quote(value))
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        inner = newline + "  "
        sep = "[" + inner
        for item in value:
            out.append(sep)
            sep = "," + inner
            _write(item, out, inner)
        out.append(newline + "]")
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key, item in value.items():
            out.append(sep + _quote(key if isinstance(key, str) else _atom(key)) + ": ")
            sep = "," + inner
            _write(item, out, inner)
        out.append(newline + "}")
    else:
        out.append(_atom(value))


def _atom(value) -> str:
    """The JSON text of None, a bool, an int or a float, as ``json`` writes it."""
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        if value != value:
            return "NaN"
        if math.isinf(value):
            return "Infinity" if value > 0 else "-Infinity"
        return float.__repr__(value)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
