"""Learner parameter rules, after scikit-learn's ``_parameter_constraints``.

Each learner class has a ``PARAMETERS`` table that maps its constructor
parameters, less ``seed`` and in constructor order, to a rule
``(description, test)``. A learner's ``fit`` checks its own values and
``search.check_grid`` checks grid candidates against the same table, so
both raise the same message from :func:`check_value`.
"""
from __future__ import annotations

import math
import numbers

import numpy as np

from ..errors import ValidationError


def _integer(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _number(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _at_least(least: int):
    return f"an integer >= {least}", lambda v: _integer(v) and v >= least


N_ESTIMATORS = "a positive integer", lambda v: _integer(v) and v >= 1
MAX_DEPTH = "None or an integer >= 0", lambda v: v is None or (_integer(v) and v >= 0)
MIN_SAMPLES_SPLIT = _at_least(2)
MIN_SAMPLES_LEAF = _at_least(1)
BOOL = "true or false", lambda v: isinstance(v, (bool, np.bool_))
MAX_FEATURES = "None or a positive integer", lambda v: v is None or (_integer(v) and v >= 1)
MAX_FEATURES_OR_SQRT = (
    "None, 'sqrt' or a positive integer",
    lambda v: (isinstance(v, str) and v == "sqrt") or MAX_FEATURES[1](v),
)
FRACTION = "a number in (0, 1]", lambda v: _number(v) and 0 < v <= 1
LEARNING_RATE = "a finite number >= 0", lambda v: _number(v) and 0 <= v < math.inf


def check_value(name: str, value, rule) -> None:
    """ValidationError unless ``value`` passes the parameter's ``rule``."""
    description, test = rule
    if not test(value):
        raise ValidationError(f"{name} must be {description}, got {value!r}")


def check_params(model) -> None:
    """Check every parameter in the table of ``model``'s class."""
    for name, rule in type(model).PARAMETERS.items():
        check_value(name, getattr(model, name), rule)


def params_of(model) -> dict:
    """``model``'s parameter values, in the order of its class's table."""
    return {name: getattr(model, name) for name in type(model).PARAMETERS}
