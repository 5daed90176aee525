"""Reading the package's JSON inputs with one failure mode.

Malformed or cut-short JSON, and well-formed JSON with missing keys or
values of the wrong type, raise :class:`ShapeError`, which the command
line turns into exit status 2.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from pathlib import Path

from .errors import ShapeError

__all__ = ["read_json", "read_jsonl", "decoding"]

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
