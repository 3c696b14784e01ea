"""The one check for numeric inputs: flags, environment variables, map and
trajectory JSON, and library parameters; and the one reader of JSON
documents."""

from __future__ import annotations

import json
import math

import numpy as np


def finite_number(value, name: str, *, positive: bool = False, integer: bool = False,
                  error: type[ValueError] = ValueError) -> float | int:
    """Return value as a float (an int with integer=True), or raise error
    with a message naming name.

    Rejects bools (Python counts them as ints), non-numbers, NaN and +-inf;
    with positive=True also anything <= 0.
    """
    kind = "integer" if integer else "number"
    what = f"{name} must be a finite {kind}" + (" > 0" if positive else "")
    kinds = (int, np.integer) if integer else (int, float, np.integer, np.floating)
    if isinstance(value, bool) or not isinstance(value, kinds):
        raise error(what)
    try:
        number = int(value) if integer else float(value)
    except OverflowError:
        raise error(what) from None
    if not integer and not math.isfinite(number):
        raise error(what)
    if positive and number <= 0:
        raise error(what)
    return number


def json_object(source, what: str, keys, error: type[ValueError]) -> dict:
    """source parsed when it is JSON text (str or bytes), else as given; it
    must be an object holding every one of keys, or error is raised naming
    what is wrong."""
    if isinstance(source, (str, bytes)):
        try:
            source = json.loads(source)
        except json.JSONDecodeError as exc:
            raise error(f"invalid JSON: {exc}") from exc
    if not isinstance(source, dict):
        raise error(f"{what} must be a JSON object")
    for key in keys:
        if key not in source:
            raise error(f"missing field '{key}'")
    return source
