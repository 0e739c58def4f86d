"""Strict JSON scenario ingestion.

The schema rejects unknown keys at every level, and ``read_json`` a key
repeated within one object, so a typo cannot silently alter an
experiment. Shape and type problems raise validate.ValidationError with
one diagnostic per issue, each echoing the value through ``model.shown``;
semantic range checks live in ``validate``. A file that JSON cannot read
raises ParseError with one message.

The lists ``nodes``, ``links`` and ``apps`` and the object ``sim`` hold
the fields of model.Node, QuantumLink, Application and SimConfig, which
alone define their keys, types and defaults; ``SCHEMA`` reads them at
import. Apps also take ``workers``, the pool used when sim.assignment is "given".
"""
from __future__ import annotations

import json
from dataclasses import MISSING, fields
from enum import Enum
from typing import IO, Any, Callable, NamedTuple, Optional, get_origin, get_type_hints

from .model import Application, NetworkGraph, Node, QuantumLink, Scenario, SimConfig, shown
from .validate import ValidationError, validate_scenario

_MISSING = object()


# A reader takes a JSON value, the locator of its object, its key and the
# diagnostics list. It returns the model's value, or reports why it cannot
# and returns None; a locator is formatted only for a diagnostic. The
# number readers test first for the exact class that JSON gives.


def _is_id(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _read_int(value: Any, path: str, key: str, diags: list[str]) -> Optional[int]:
    if value.__class__ is int or _is_id(value):
        return value
    diags.append(f"{path}.{key}: expected integer, got {shown(value)}")


def _read_real(value: Any, path: str, key: str, diags: list[str]) -> Optional[float]:
    if value.__class__ is float:
        return value
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            return float(value)
        except OverflowError:  # an int this long is not worth echoing
            diags.append(f"{path}.{key}: expected a number within the float range")
            return None
    diags.append(f"{path}.{key}: expected number, got {shown(value)}")


def _read_id_pair(value: Any, path: str, key: str, diags: list[str]) -> Optional[tuple[int, int]]:
    if isinstance(value, list) and len(value) == 2 and all(map(_is_id, value)):
        return (value[0], value[1])
    diags.append(f"{path}.{key}: expected a pair of node ids, got {shown(value)}")


def _read_id_list(value: Any, path: str, key: str, diags: list[str]) -> Optional[frozenset[int]]:
    if not isinstance(value, list):
        diags.append(f"{path}.{key}: expected list of node ids, got {shown(value)}")
        return None
    for j, item in enumerate(value):
        if not _is_id(item):
            diags.append(f"{path}.{key}[{j}]: expected integer, got {shown(item)}")
    ids = [item for item in value if _is_id(item)]
    if len(set(ids)) != len(ids):
        diags.append(f"{path}.{key}: duplicate entries")
    return frozenset(ids)


def _enum_reader(enum: type[Enum]) -> Callable[[Any, str, str, list[str]], Optional[Enum]]:
    valid = ", ".join(repr(e.value) for e in enum)

    def read(value: Any, path: str, key: str, diags: list[str]) -> Optional[Enum]:
        try:
            return enum(value)
        except ValueError:
            diags.append(f"{path}.{key}: expected one of {valid}, got {shown(value)}")

    return read


# by a field's type, or by its generic's origin: tuple[NodeId, NodeId], frozenset[NodeId]
_READERS = {int: _read_int, float: _read_real, tuple: _read_id_pair, frozenset: _read_id_list}


class Key(NamedTuple):
    """How one JSON key is read into its model field."""

    type: type  # int, float, an Enum, tuple (id pair) or frozenset (id list)
    read: Callable[[Any, str, str, list[str]], Any]
    default: Any  # _MISSING when the key is required; a default is read like a value


def _keys(cls: type) -> dict[str, Key]:
    """The JSON keys of a model dataclass in its field order, so that the
    values read construct it positionally."""
    hints = get_type_hints(cls)
    keys = {}
    for f in fields(cls):
        kind = get_origin(hints[f.name]) or hints[f.name]
        default = f.default
        if default is MISSING:  # an absent id pair reads as null, and is reported as one
            default = None if kind is tuple else _MISSING
        read = _READERS.get(kind) or _enum_reader(kind)
        keys[f.metadata.get("key", f.name)] = Key(kind, read, default)
    return keys


_MODELS = {"nodes": Node, "links": QuantumLink, "apps": Application, "sim": SimConfig}
# section -> JSON key -> Key
SCHEMA = {section: _keys(cls) for section, cls in _MODELS.items()}


def _read(raw: dict, section: str, path: str, diags: list[str]) -> list[Any]:
    """One object's field values in the model's order; a missing required
    key reads as None. Keys outside the section's schema (and ``workers``
    on apps) are reported unknown first."""
    keys = SCHEMA[section]
    if not raw.keys() <= keys.keys():
        extra = ("workers",) if section == "apps" else ()
        diags += [f"{path}.{k}: unknown key" for k in raw if k not in keys and k not in extra]
    return [
        diags.append(f"{path}.{key}: missing required key")
        if (value := raw.get(key, default)) is _MISSING
        else read(value, path, key, diags)
        for key, (_, read, default) in keys.items()
    ]


def parse_scenario(
    data: Any,
) -> tuple[NetworkGraph, tuple[Application, ...], SimConfig, Optional[dict[int, frozenset[int]]]]:
    """Parse a raw scenario document; raises ValidationError on shape/type issues."""
    if not isinstance(data, dict):
        raise ValidationError(["scenario: expected a JSON object at top level"])
    diags = [f"scenario.{key}: unknown key" for key in data if key not in SCHEMA]
    for section, kind, shape in (("nodes", list, "a list"), ("links", list, "a list"),
                                 ("apps", list, "a list"), ("sim", dict, "an object")):
        if section not in data:
            diags.append(f"scenario.{section}: missing required section")
        elif not isinstance(data[section], kind):
            diags.append(f"scenario.{section}: expected {shape}")
    if diags:
        raise ValidationError(diags)

    objects: dict[str, list] = {"nodes": [], "links": [], "apps": []}
    given: dict[int, frozenset[int]] = {}
    for section, out in objects.items():
        for i, raw in enumerate(data[section]):
            path = f"{section}[{i}]"
            if not isinstance(raw, dict):
                diags.append(f"{path}: expected an object")
                continue
            obj = _MODELS[section](*_read(raw, section, path, diags))
            out.append(obj)
            if section == "apps" and "workers" in raw:
                given[obj.id] = _read_id_list(raw["workers"], path, "workers", diags)
    config = SimConfig(*_read(data["sim"], "sim", "sim", diags))

    if diags:
        raise ValidationError(diags)
    graph = NetworkGraph(objects["nodes"], objects["links"])
    return graph, tuple(objects["apps"]), config, (given or None)


class ParseError(Exception):
    """A file that JSON cannot read, or a JSON value Python will not convert."""


def _object(pairs: list[tuple[str, Any]]) -> dict[str, Any]:
    obj = dict(pairs)
    if len(obj) < len(pairs):  # name the first key that repeats
        seen: set[str] = set()
        for key, _ in pairs:
            if key in seen:
                raise ParseError(f"duplicate key {shown(key)}")
            seen.add(key)
    return obj


def _repeat_locator(fh: IO[str]) -> Optional[str]:
    """Where the object that ``_object`` refused sits, such as ``apps[0]``:
    the file is read again, each object as a tuple of its pairs so that no
    repeat hides another. None if the rest of the file cannot be read."""
    refused: list[tuple] = []

    def pairs_of(pairs: list[tuple[str, Any]]) -> tuple:
        pairs = tuple(pairs)
        if not refused and len(dict(pairs)) < len(pairs):
            refused.append(pairs)
        return pairs

    fh.seek(0)
    try:
        stack = [(json.load(fh, object_pairs_hook=pairs_of), "")]
    except (ValueError, RecursionError):
        return None
    while True:  # the refused object is in the document
        value, path = stack.pop()
        if value is refused[0]:
            return (path or "scenario") if len(path) <= 100 else None
        if isinstance(value, (tuple, list)):
            items = value if isinstance(value, tuple) else enumerate(value)
            stack += [(v, _child(path, k)) for k, v in items]


def _child(path: str, key: Any) -> str:
    if isinstance(key, str) and key.isidentifier() and len(key) <= 40:
        return f"{path}.{key}" if path else key
    return f"{path or 'scenario'}[{shown(key)}]"  # an array index, or an odd key


def read_json(path: str) -> Any:
    """The JSON document in a UTF-8 file. Raises OSError as opening it
    does, and ParseError, with one message, on bytes that are not UTF-8,
    on a syntax error (with line and column), on a key repeated within
    one object (with the object's locator), on an integer literal over
    Python's digit limit and on nesting deeper than Python's recursion
    limit."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh, object_pairs_hook=_object)
        except ParseError as err:  # from _object, which cannot say where
            where = _repeat_locator(fh)
            raise ParseError(f"{where}: {err}" if where else str(err)) from None
        except UnicodeDecodeError as err:
            raise ParseError(f"byte {err.start}: {err.reason} (not UTF-8)") from None
        except json.JSONDecodeError as err:
            raise ParseError(f"line {err.lineno} column {err.colno}: {err.msg}") from None
        except ValueError as err:  # int() refuses over sys.get_int_max_str_digits()
            raise ParseError(str(err).partition(";")[0]) from None
        except RecursionError:  # json.load recurses once per nested array or object
            raise ParseError("arrays or objects nested too deeply to read") from None


def load_scenario(path: str) -> Scenario:
    """Read, parse and fully validate a scenario file. Raises OSError,
    ParseError if JSON cannot read it, or ValidationError."""
    return validate_scenario(*parse_scenario(read_json(path)))
