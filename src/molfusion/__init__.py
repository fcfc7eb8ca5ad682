"""molfusion: desk-scale molecular property prediction toolkit.

SMILES parsing, graph/fingerprint featurization, a reverse-mode tensor
engine, a fused local/global graph network with fingerprint cross-attention,
training and evaluation utilities, and a command-line interface.
"""

import numbers
import os
import sys
import dataclasses
from typing import Callable

# One BLAS thread per process unless the caller chose otherwise. ``train``
# and ``predict`` run two lanes, one per core; a BLAS pool in each lane
# would oversubscribe the cores, and at these matrix sizes one thread loses
# nothing. Set before any submodule imports numpy.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
del _var

__version__ = "0.1.0"


class ConfigError(ValueError):
    """A config section with a key or value that the program does not take."""


@dataclasses.dataclass(frozen=True)
class Kind:
    """What a config field takes, bounds included: ``name`` (as README's table
    gives it), ``text``, what a value or each element of a list must be (as
    messages and that table say it), and ``fits``, the test of one value or
    element."""

    name: str
    text: str
    fits: Callable[[object], bool]


def integer(low: int, high: int) -> Kind:
    return Kind("integer", f"an integer in [{low}, {high}]", lambda v: (
        isinstance(v, numbers.Integral) and not isinstance(v, bool) and low <= v <= high
    ))


def distinct_integers(low: int, high: int) -> Kind:
    return Kind("list of distinct integers", f"integers in [{low}, {high}]",
                integer(low, high).fits)


def real(bounds: str, within: Callable[[float], bool]) -> Kind:
    """Finite: not inf or nan, and not an integer too large for a float."""
    return Kind("real", f"a finite number {bounds}", lambda v: (
        isinstance(v, numbers.Real) and not isinstance(v, bool)
        and -sys.float_info.max <= v <= sys.float_info.max and within(v)
    ))


def optional(kind: Kind) -> Kind:
    return Kind(f"optional {kind.name}", f"null or {kind.text}", lambda v: v is None or kind.fits(v))


def choice(options: tuple[str, ...]) -> Kind:
    return Kind("choice", f"one of {options}", lambda v: isinstance(v, str) and v in options)


def distinct_choices(options: tuple[str, ...]) -> Kind:
    return Kind("list of distinct choices", f"names from {options}", choice(options).fits)


def _problem(name: str, kind: Kind, value) -> str | None:
    """A list repeats no entry, and a list of integers has at least one."""
    if not kind.name.startswith("list"):
        return None if kind.fits(value) else f"{name} must be {kind.text}, got {value!r}"
    non_empty = kind.name == "list of distinct integers"
    if not isinstance(value, (list, tuple)) or (non_empty and not value):
        what = f"a non-empty list of {kind.text}" if non_empty else "a list of names"
        return f"{name} must be {what}, got {value!r}"
    bad = [item for item in value if not kind.fits(item)]
    if bad:
        return f"{name} must be {kind.text}, got {bad[0]!r}"
    if len(set(value)) < len(value):
        return f"{name} must not repeat an entry, got {value!r}"
    return None


def check_config(table: dict[str, Kind], values: dict, cross=None) -> dict:
    """``values``, a config section, once every key names a field of ``table``
    and every value fits its field's kind. Otherwise raises one ``ConfigError``: for
    the unknown keys if there are any, naming the keys a section may set (not
    those of a ``derived`` kind, which no value fits), else for every value that
    does not fit and what ``cross(bad)`` adds, the section's rules across
    fields, given the names of those values."""
    unknown = [key for key in values if key not in table]
    if unknown:
        settable = sorted(key for key, kind in table.items() if kind.name != "derived")
        raise ConfigError(f"unknown keys {unknown}; the keys are {settable}")
    problems = {name: _problem(name, table[name], value) for name, value in values.items()}
    problems = {name: problem for name, problem in problems.items() if problem}
    messages = list(problems.values()) + (cross(set(problems)) if cross else [])
    if messages:
        raise ConfigError("; ".join(messages))
    return values


def setting(default, kind: Kind):
    """A field of a config dataclass: its ``default`` and its ``kind``."""
    return dataclasses.field(default=default, metadata={"kind": kind})


class Config:
    """Base of a config section's dataclass, whose settings make its field
    table; it is checked whenever it is built, from a dict or not."""

    cross_field_problems = None  # or the section's rules across fields, as ``check_config`` takes

    @classmethod
    def field_table(cls) -> dict[str, Kind]:
        fields = dataclasses.fields(cls)
        return {f.name: f.metadata["kind"] for f in fields if "kind" in f.metadata}

    def __post_init__(self):
        table = self.field_table()
        check_config(table, {name: getattr(self, name) for name in table}, self.cross_field_problems)

    @classmethod
    def from_dict(cls, values: dict):
        return cls(**check_config(cls.field_table(), values))
