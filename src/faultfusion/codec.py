"""Dataclasses as key=value text.

One codec serves the FMDL1 weight-file header (``ModelSpec``) and the INI
sections of a run config (``ModelSpec``, ``TrainConfig``, ``SynthSpec``), so
a field added to any of them is written and read everywhere at once. A value
is written with ``str``; a tuple is written comma-joined, and read back with
empty items skipped.
"""

from __future__ import annotations

from dataclasses import fields
from functools import cache
from typing import Callable, get_args, get_origin, get_type_hints


def encode(obj) -> list[str]:
    """One ``name=value`` line per field of a dataclass instance."""
    lines = []
    for f in fields(obj):
        value = getattr(obj, f.name)
        if isinstance(value, tuple):
            value = ",".join(str(v) for v in value)
        lines.append(f"{f.name}={value}")
    return lines


@cache  # resolving the annotations took 0.3 ms, a quarter of a reduced-model load
def parsers(cls) -> dict[str, Callable[[str], object]]:
    """Field name -> parser of its text, for every field of dataclass ``cls``.

    A parser raises ValueError on text that does not fit the field's type.
    The dict is shared between callers and must not be changed.
    """
    hints = get_type_hints(cls)
    return {f.name: _parser(hints[f.name]) for f in fields(cls)}


def _parser(tp) -> Callable[[str], object]:
    if get_origin(tp) is tuple:
        item = get_args(tp)[0]
        return lambda raw: tuple(item(v.strip()) for v in raw.split(",") if v.strip())
    return tp
