"""Helpers around exact rational scalars and the JSON lists that carry
them.

All quantities in this library are :class:`fractions.Fraction` values;
floating point is never used (suprema and boundary comparisons must be
exact).  The canonical text form is ``"p/q"`` with ``gcd(p, q) = 1`` and
``q > 0``; plain integers render without the ``/q`` part, so ``"0"`` and
``"3"`` are valid.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .errors import ParameterError

def as_list(value) -> list:
    """``list(value)``; a ``str`` or a ``dict`` is never the list of its
    characters or keys, so it raises TypeError, as a non-iterable does."""
    if isinstance(value, (str, dict)):
        raise TypeError(f"not a list: {value!r}")
    return list(value)


def is_int(value) -> bool:
    """Whether ``value`` is an int and not a bool: JSON ``true`` and
    ``false`` are never read as 1 and 0."""
    return isinstance(value, int) and not isinstance(value, bool)


def as_int(value, what: str, error=ParameterError) -> int:
    """``value`` itself if :func:`is_int`, else ``error`` naming ``what``."""
    if not is_int(value):
        raise error(f"{what} must be an integer, not {value!r}")
    return value


def as_rational(value) -> Fraction:
    """Coerce ``value`` (Fraction, int, or ``"p/q"`` string) to a Fraction;
    a bool is rejected, as :func:`is_int` rejects it."""
    if isinstance(value, Fraction):
        return value
    if is_int(value):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise ParameterError(f"not a rational: {value!r}") from exc
    raise ParameterError(f"cannot interpret {value!r} as a rational")


def rational_str(value: Fraction) -> str:
    """Canonical string form, ``"p/q"`` or ``"p"`` for integers."""
    return str(value)


def lcm_denominator(values) -> int:
    """Least common multiple of the denominators of ``values``."""
    return lcm(*{v.denominator for v in values})
