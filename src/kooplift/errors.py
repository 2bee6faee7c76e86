"""Exception types shared across the package, and the checks of options.

Options are never coerced: a bool is not a number, a float or a string is
not an integer, and a string is not a real. Accepted values come back as
plain int/float, so a stored config is canonical. A refused value raises
ConfigError, or the ``error`` class given for values that are data, such as
a sample interval or a step count. The values of a model file are read as
strictly, and a refused one raises DataError.
"""

import inspect
import math
import os
from numbers import Integral, Real

import numpy as np


class KoopliftError(Exception):
    """Base class for all package errors."""


class DataError(KoopliftError):
    """Invalid trajectory data, shape mismatch, or unreadable input."""


class ConfigError(KoopliftError):
    """Invalid configuration: bad parameters, unknown kinds or keys."""


class RegressionError(KoopliftError):
    """Operator fitting failed (degenerate data, rank collapse, ...)."""


def check_int(value, name: str, minimum: int, error=ConfigError) -> int:
    """`value` as a plain int; refused unless an integer >= `minimum`."""
    if isinstance(value, Integral) and not isinstance(value, bool) and value >= minimum:
        return int(value)
    raise error(f"{name} must be an integer >= {minimum}, got {value!r}")


def check_real(value, name: str, positive: bool = False, error=ConfigError) -> float:
    """`value` as a plain float; refused unless finite and >= 0 (> 0 if `positive`)."""
    if (isinstance(value, Real) and not isinstance(value, bool) and math.isfinite(value)
            and (value > 0 if positive else value >= 0)):
        return float(value)
    bound = ">" if positive else ">="
    raise error(f"{name} must be a finite real {bound} 0, got {value!r}")


def check_bool(value, name: str) -> bool:
    """`value` itself; refused unless a bool."""
    if isinstance(value, bool):
        return value
    raise ConfigError(f"{name} must be true or false, got {value!r}")


def _check_memory(need: int, what: str) -> None:
    """ConfigError, before `what` allocates its `need` bytes, if the machine's
    physical memory holds fewer."""
    have = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    if need > have:
        raise ConfigError(f"{what} needs {need:,} bytes, more than the {have:,} bytes "
                          "of physical memory")


def model_number(value, name: str) -> float:
    """A number of a model file as a float; a bool, a string, null or a list
    is refused, not coerced."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise DataError(f"malformed model file: {name} must be a number, got {value!r}")
    return float(value)


def model_array(value, name: str) -> np.ndarray:
    """A model file's (nested) list of numbers as a float array, each entry
    read by model_number; the rows of a ragged list are entries, so refused."""
    entries = np.array(value, dtype=object)
    return np.array([model_number(v, name) for v in entries.flat]).reshape(entries.shape)


def call_with_options(cls, options, what: str):
    """`cls(**options)` once the keys fit the signature of `cls`; `cls` checks values."""
    if not isinstance(options, dict):
        raise ConfigError(f"{what} config must be a JSON object")
    params = inspect.signature(cls).parameters
    extra = set(options) - set(params)
    if extra:
        raise ConfigError(f"unknown keys in {what} config: {sorted(extra)}")
    for name, param in params.items():
        if param.default is param.empty and name not in options:
            raise ConfigError(f"{what} config needs {name!r}")
    return cls(**options)
