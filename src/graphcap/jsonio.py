"""Reading the package's JSON inputs with one failure mode.

Malformed or cut-short JSON, and well-formed JSON with missing keys or
values of the wrong type, raise :class:`ShapeError`, which the command
line turns into exit status 2.
"""

from __future__ import annotations

import json
import numbers
from contextlib import contextmanager
from dataclasses import fields
from pathlib import Path

from .errors import ShapeError

__all__ = ["read_json", "read_jsonl", "decoding", "check_field_types"]

# what decoding a malformed document raises: bad JSON or bytes
# (ValueError), a missing key (KeyError), a wrong type (TypeError,
# AttributeError), a short sequence (IndexError), a non-finite number
# where an int belongs (OverflowError)
_MALFORMED = (ValueError, KeyError, TypeError, AttributeError, IndexError, OverflowError)


@contextmanager
def decoding(what):
    """Turn the errors of decoding ``what`` into ``ShapeError``."""
    try:
        yield
    except _MALFORMED as exc:
        raise ShapeError(f"malformed {what}: {type(exc).__name__}: {exc}") from None


def read_json(path: str | Path):
    """Parse a JSON file; malformed or cut-short content raises
    ``ShapeError``."""
    with decoding(path):
        return json.loads(Path(path).read_bytes())


def read_jsonl(path: str | Path) -> list[tuple[str, object]]:
    """Parse a file of one JSON document per non-blank line.  Returns
    ``(where, document)`` pairs, ``where`` naming the file and line for
    the messages of later checks."""
    with decoding(path):
        lines = Path(path).read_bytes().decode("utf-8").splitlines()
    out = []
    for n, line in enumerate(lines, 1):
        if line.strip():
            where = f"{path} line {n}"
            with decoding(where):
                out.append((where, json.loads(line)))
    return out


# the value each annotated field type admits; a bool is an int to
# Python, but no count and no real number here
_FIELD_KINDS = {"int": numbers.Integral, "float": numbers.Real, "bool": bool}


def check_field_types(config) -> None:
    """Raise ``ShapeError`` unless every ``int``, ``float`` and ``bool``
    field of the dataclass ``config`` holds a value of its type: a bool
    for a switch, and a number that is not a bool for a count (an
    integer) or a real."""
    for f in fields(config):
        kind = _FIELD_KINDS.get(f.type)
        value = getattr(config, f.name)
        if kind is not None and not (isinstance(value, kind) and isinstance(value, bool) == (kind is bool)):
            raise ShapeError(f"{type(config).__name__}.{f.name} must be {f.type}, got {value!r}")
