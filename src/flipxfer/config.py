"""The JSON document format: one parser, one writer, one typing rule.

Every JSON document flipxfer reads goes through ``parse_json`` (strict
UTF-8, no NaN or infinity) and every one it writes to a file through
``write_json`` (indent 2, sorted keys, newline-terminated). Run configs,
zoo manifests and checkpoint headers are then read by ``resolve``: each
section is checked against the fields of the dataclass that consumes it,
unknown keys are rejected, defaults filled, and every value typed by
``typed``.  A fault is a ``ConfigError`` naming the dotted key.
"""

from __future__ import annotations

import functools
import hashlib
import json
from dataclasses import MISSING, asdict, fields
from types import UnionType
from typing import Union, get_args, get_origin, get_type_hints

__all__ = ["ConfigError", "REQUIRED", "parse_json", "dump_json", "write_json", "digest", "typed", "resolve"]


class ConfigError(ValueError):
    pass


REQUIRED = MISSING  # the default of a key that must be given
_field_types = functools.cache(get_type_hints)  # evaluates annotations once per dataclass


def parse_json(raw: bytes, where):
    """Decode one JSON document from strict UTF-8 bytes; ``where`` names it in a
    fault. The tokens ``NaN``, ``Infinity`` and ``-Infinity`` are not JSON."""

    def reject(token):
        raise ConfigError(f"{where}: {token} is not JSON")

    try:
        return json.loads(raw.decode("utf-8"), parse_constant=reject)
    except UnicodeDecodeError as e:
        raise ConfigError(f"{where}: not UTF-8 text ({e.reason})") from e
    except json.JSONDecodeError as e:
        raise ConfigError(f"{where}: malformed JSON at line {e.lineno} column {e.colno}: {e.msg}") from e


def dump_json(doc) -> str:
    """The text of every JSON file flipxfer writes: indent 2, sorted keys, a
    final newline, and no NaN or infinity, which JSON does not have."""
    return json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n"


def write_json(doc, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(dump_json(doc))


def digest(obj) -> str:
    """A dataclass instance's identity: sha256 of its sorted compact JSON, 16 hex digits."""
    return hashlib.sha256(json.dumps(asdict(obj), sort_keys=True).encode()).hexdigest()[:16]


def typed(value, hint, key: str):
    """The one rule that turns a JSON value into a field's type.

    An int takes a JSON integer (never a boolean), a float any JSON number,
    stored as float, a str a string, a bool a boolean and a dict an object;
    a list or tuple of T takes a JSON list of T, and ``T | None`` also takes
    null. Anything else is a ConfigError naming the dotted ``key``.
    """
    base = hint
    if get_origin(hint) in (Union, UnionType):
        if value is None:
            return None
        (base,) = (a for a in get_args(hint) if a is not type(None))
    if get_origin(base) in (list, tuple) and type(value) is list:
        item = get_args(base)[0]
        return get_origin(base)(typed(v, item, f"{key}[{i}]") for i, v in enumerate(value))
    if base is float and type(value) in (int, float):
        try:
            return float(value)
        except OverflowError:  # an integer beyond the float range
            pass
    elif type(value) is base:
        return value
    raise ConfigError(f"{key}: expected {getattr(hint, '__name__', hint)}, got {json.dumps(value)}")


def resolve(section, path: str, consumer=None, *, skip=(), **keys) -> dict:
    """Check one section of a JSON document; return every key typed, defaults filled.

    The allowed keys are the fields of ``consumer`` -- the dataclass that
    takes the section, or an instance of it whose values replace the field
    defaults -- less ``skip``, the fields the caller fills in itself, plus
    ``keys``: ``name=(type, default)`` for keys no dataclass takes. Unknown
    keys are rejected and a key whose default is REQUIRED must be given.
    ``path`` is the section's dotted key, "" for the top level.
    """
    if consumer is not None:
        hints = _field_types(consumer if isinstance(consumer, type) else type(consumer))
        keys = {
            f.name: (hints[f.name], getattr(consumer, f.name, REQUIRED))
            for f in fields(consumer)
            if f.name not in skip
        } | keys
    where = path or "top level"
    if type(section) is not dict:
        raise ConfigError(f"{where}: expected a JSON object")
    unknown = sorted(set(section) - set(keys))
    if unknown:
        raise ConfigError(f"{where}: unknown keys {unknown}; allowed: {sorted(keys)}")
    out = {}
    for name, (hint, default) in keys.items():
        if name in section:
            out[name] = typed(section[name], hint, f"{path}.{name}" if path else name)
        elif default is REQUIRED:
            raise ConfigError(f"{where}: missing required key {name!r}")
        else:
            out[name] = default
    return out
