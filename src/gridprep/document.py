"""The one reader of gridprep's input documents.

Every JSON input (the network, config, fragility, scenario and plan
documents) is decoded by :func:`loads`, which refuses text that is not JSON
and a key repeated in one object, and reads its values here, by one set of
rules:

- a number is a finite JSON number, read as a float: never a string, a
  boolean, NaN, Infinity or an integer too large for a float;
- an integer is a JSON integer, so never ``2.0``, ``"2"`` or ``true``;
- a flag is a JSON boolean, so never ``"false"``, ``0`` or ``1``;
- a name is a JSON string.

A :class:`Reader` raises the error class of the document it reads, so the
CLI's one table maps every refusal to exit 2.  :meth:`Reader.record` reads
a flat frozen dataclass field by field from its annotations and defaults.
Range checks belong to the readers' callers and the dataclasses.
"""

from __future__ import annotations

import json
import math
from dataclasses import MISSING, fields
from typing import Mapping

#: the default of :meth:`Reader.get` for a key the document must hold
_REQUIRED = object()

#: a dataclass field's annotation -> the kind of value it holds
_KINDS = {"float": float, "int": int, "bool": bool, "str": str}

_ONE = {float: "a number", int: "an integer", bool: "true or false", str: "a string",
        list: "a list"}
_MANY = {float: "numbers", int: "integers", bool: "flags", str: "strings", list: "lists"}


def loads(text: str, error: type[Exception]):
    """The JSON value of ``text``.  ``error`` is raised for text that is not
    JSON and, naming the key, for a key repeated in one object at any depth."""

    def unique(pairs):
        doc = dict(pairs)
        if len(doc) < len(pairs):
            key = next(k for i, (k, _) in enumerate(pairs) if k in dict(pairs[:i]))
            raise error(f"key '{key}' appears twice in one object")
        return doc

    try:
        return json.loads(text, object_pairs_hook=unique)
    except json.JSONDecodeError as exc:
        raise error(f"not valid JSON: {exc}") from None


class Reader:
    """Reads the values of one kind of document.

    ``wrong_type`` is raised for a missing key or a value of the wrong JSON
    type, ``not_finite`` (``wrong_type`` when not given) for a number that is
    NaN, infinite or too large for a float.  Each message names the key.
    """

    def __init__(self, wrong_type: type[Exception], not_finite: type[Exception] | None = None):
        self.wrong_type = wrong_type
        self.not_finite = not_finite or wrong_type

    def value(self, raw, kind: type, what: str):
        """``raw`` as a value of ``kind``: ``float``, ``int``, ``bool``,
        ``str`` or ``list``."""
        if kind in (float, int) and isinstance(raw, (int, float)) and not isinstance(raw, bool):
            try:
                number = float(raw)
            except OverflowError:
                raise self.not_finite(f"{what} must be finite, got an integer too large "
                                      f"for a float") from None
            if not math.isfinite(number):
                raise self.not_finite(f"{what} must be finite, got {number}")
            if kind is float:
                return number
            if isinstance(raw, int):
                return raw
        elif kind not in (float, int) and isinstance(raw, kind):
            return raw
        raise self.wrong_type(f"{what} must be {_ONE[kind]}, got {raw!r}")

    def get(self, doc, key: str, ctx: str, kind: type | None = None, default=_REQUIRED):
        """``doc[key]`` as a value of ``kind`` (any value when None), or
        ``default`` when ``doc`` has no ``key``; ``ctx`` names ``doc``."""
        if not isinstance(doc, Mapping):
            raise self.wrong_type(f"{ctx} must be an object")
        if key not in doc:
            if default is _REQUIRED:
                raise self.wrong_type(f"{ctx}: missing required key '{key}'")
            return default
        return doc[key] if kind is None else self.value(doc[key], kind, f"{ctx}: {key}")

    def items(self, raw, kind: type, what: str) -> list:
        """``raw``, a JSON list, each entry a value of ``kind``."""
        if not isinstance(raw, list):
            raise self.wrong_type(f"{what} must be a list of {_MANY[kind]}")
        return [self.value(entry, kind, f"{what}[{i}]") for i, entry in enumerate(raw)]

    def table(self, raw, kind: type, what: str) -> dict:
        """``raw``, a JSON object, each value a value of ``kind``."""
        if not isinstance(raw, Mapping):
            raise self.wrong_type(f"{what} must map names to {_MANY[kind]}")
        return {key: self.value(entry, kind, f"{what}[{key!r}]") for key, entry in raw.items()}

    def record(self, cls, doc, ctx: str, strict: bool = False, **given):
        """An instance of the frozen dataclass ``cls`` read from ``doc``.

        Each field's value must be of the field's annotated kind: ``float``,
        ``int``, ``bool``, ``str``, or ``Mapping[str, K]`` for an object of
        values of kind ``K``.  An absent key takes the field's default; a
        field without one is required.  ``given`` sets fields the document
        does not hold.  With ``strict``, a key that names no field is refused.
        """
        if not isinstance(doc, Mapping):
            raise self.wrong_type(f"{ctx} must be an object")
        unknown = sorted(set(doc) - {f.name for f in fields(cls)})
        if strict and unknown:
            raise self.wrong_type(f"unknown {ctx} keys {unknown}")
        values = dict(given)
        for f in fields(cls):
            required = f.default is MISSING and f.default_factory is MISSING
            if f.name in given or not (required or f.name in doc):
                continue
            kind = f.type.removeprefix("Mapping[str, ").removesuffix("]")
            read = self.value if kind == f.type else self.table
            values[f.name] = read(self.get(doc, f.name, ctx), _KINDS[kind], f"{ctx}: {f.name}")
        return cls(**values)
