"""The one reader of every input document (`read_record`) and the one
holder of every artifact's format (`write_csv`, `write_json`), below every
module that owns a record dataclass (config, space and the stages), so each
reads and writes through it."""

from __future__ import annotations

import csv
import dataclasses
import functools
import json
import math
import types
import typing

from .errors import ConfigError


def _fail(where: str, message: str):
    raise ConfigError(f"{where}: {message}" if where else message)


def read_value(tp, value, where: str):
    """Coerce one document value to the annotated type `tp`: numbers must
    be finite and a bool is not one, lists become tuples, a union takes its
    first member that fits, and a dataclass reads a nested mapping."""
    if dataclasses.is_dataclass(tp):
        return read_record(tp, value, where)
    if isinstance(tp, types.UnionType):
        errors = []
        for member in typing.get_args(tp):
            try:
                return read_value(member, value, where)
            except ConfigError as exc:
                errors.append(exc)
        raise errors[0]
    if typing.get_origin(tp) is tuple:
        if not isinstance(value, (list, tuple)):
            _fail(where, f"expected a list, got {value!r}")
        args = typing.get_args(tp)
        if args[-1] is Ellipsis:
            args = args[:1] * len(value)
        elif len(value) != len(args):
            _fail(where, f"expected a list of {len(args)}, got {value!r}")
        return tuple(read_value(a, v, where) for a, v in zip(args, value))
    if tp is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            _fail(where, f"expected a number, got {value!r}")
        if not math.isfinite(value):
            _fail(where, f"expected a finite number, got {value!r}")
        return float(value)
    if isinstance(value, bool) and tp is int or not isinstance(value, tp):
        kind = {int: "an integer", bool: "a boolean", str: "a string"}
        _fail(where, f"expected {kind.get(tp, tp.__name__)}, got {value!r}")
    return value


@functools.cache
def _schema(cls) -> tuple:
    """(document key, field, type, required) for each field of `cls`."""
    hints = typing.get_type_hints(cls)
    return tuple((f.metadata.get("key", f.name), f, hints[f.name],
                  f.default is f.default_factory is dataclasses.MISSING)
                 for f in dataclasses.fields(cls))


def read_record(cls, mapping, where: str = "", *, complete: bool = False):
    """Build the dataclass `cls` from a parsed document mapping.

    The dataclass is the schema: its fields are the allowed keys, fields
    without a default are required, and each annotation is the value's
    type (`read_value`). With `complete`, every field is required, as in a
    document the program wrote itself from a whole record. A field's
    metadata may give its document `key` and a `read` function of its own.
    `cls.__post_init__` then checks ranges. `where` names the mapping in
    messages ("train" for a section, "" for a whole document); every
    failure is a `ConfigError`.
    """
    if not isinstance(mapping, dict):
        _fail(where, f"expected a mapping, got {mapping!r}")
    schema = _schema(cls)
    keys = [key for key, *_ in schema]
    unknown = sorted(set(mapping) - set(keys))
    if unknown:
        _fail(where, f"unknown key(s) {unknown}; allowed: {sorted(keys)}")
    missing = [key for key, _, _, required in schema
               if (required or complete) and key not in mapping]
    if missing:
        _fail(where, f"missing key(s) {missing}")
    kwargs = {}
    for key, f, tp, _ in schema:
        if key in mapping:
            read = f.metadata.get("read", read_value)
            kwargs[f.name] = read(tp, mapping[key],
                                  f"{where}.{key}" if where else key)
    try:
        return cls(**kwargs)
    except ValueError as exc:
        _fail(where, str(exc))


def write_csv(path, header, rows) -> None:
    """Write `header`, then each row of `rows`, as CSV with `\\n` line ends."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def json_text(doc) -> str:
    """`doc` as JSON: 2-space indent, sorted keys and a final newline."""
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def write_json(path, doc) -> None:
    """Write `doc` to `path` as `json_text`."""
    with open(path, "w") as fh:
        fh.write(json_text(doc))
