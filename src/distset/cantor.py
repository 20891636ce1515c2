"""Cantor-type distance sets by iterated middle-interval removal.

Removing the open middle interval of relative width w from [a, b]
leaves [a, g] union [d, b] with

    g = ((1 + w) a + (1 - w) b) / 2,
    d = ((1 - w) a + (1 + w) b) / 2,

so the removed piece has length w (b - a).  A weight vector
(w_0, ..., w_{n-1}) applies the removals level by level: w_0 splits
[0, 1], then the tail acts on both halves, leaving 2^n intervals.  The
result equals the n-th stage of the corresponding infinite construction;
deeper stages only refine it, and boundary points of stage n stay
boundary points of every later stage.

Sets built with every weight above 1/3 keep the truncated sum
associative; the classical middle-thirds choice w = 1/3 does not, with
the depth-2 stage already witnessing the failure.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

from .errors import ParameterError
from .rationals import as_rational
from .rset import RSet

ONE = Fraction(1)
HALF = Fraction(1, 2)


def _check_span(a: Fraction, b: Fraction, w: Fraction) -> None:
    if a >= b:
        raise ParameterError(f"interval [{a}, {b}] must have positive length")
    if not 0 <= w <= 1:
        raise ParameterError(f"relative width {w} must lie in [0, 1]")


def _split(a: Fraction, w: Fraction, b: Fraction) -> tuple[Fraction, Fraction]:
    """The pair (g, d) of the module docstring."""
    return (
        HALF * ((1 + w) * a + (1 - w) * b),
        HALF * ((1 - w) * a + (1 + w) * b),
    )


def gamma(a, w, b) -> Fraction:
    """Right end of the left remainder after removing the middle."""
    fa, fw, fb = as_rational(a), as_rational(w), as_rational(b)
    _check_span(fa, fb, fw)
    return _split(fa, fw, fb)[0]


def delta(a, w, b) -> Fraction:
    """Left end of the right remainder after removing the middle."""
    fa, fw, fb = as_rational(a), as_rational(w), as_rational(b)
    _check_span(fa, fb, fw)
    return _split(fa, fw, fb)[1]


def remove_middle(a, w, b) -> RSet:
    """[a, b] minus its open middle interval of length w (b - a)."""
    fa, fw, fb = as_rational(a), as_rational(w), as_rational(b)
    _check_span(fa, fb, fw)
    g, d = _split(fa, fw, fb)
    return RSet([(fa, g), (d, fb)])


def parse_weights(text: str) -> tuple[Fraction, ...]:
    """Parse the CLI weight syntax, comma-separated rationals."""
    items = [part.strip() for part in text.split(",") if part.strip()]
    return validate_weights(as_rational(item) for item in items)


def validate_weights(weights: Iterable) -> tuple[Fraction, ...]:
    vec = tuple(as_rational(w) for w in weights)
    for w in vec:
        if not 0 < w < 1:
            raise ParameterError(f"weight {w} must lie strictly in (0, 1)")
    return vec


def cantor_set(weights: Sequence) -> RSet:
    """The stage-n set on [0, 1] for a weight vector of length n.

    The empty vector yields [0, 1].  Weight i is applied to every
    interval of stage i, so the result has 2^n intervals and total
    length prod(1 - w_i).
    """
    vec = validate_weights(weights)
    intervals = [(Fraction(0), ONE)]
    for w in vec:
        split = []
        for a, b in intervals:
            g, d = _split(a, w, b)
            split.append((a, g))
            split.append((d, b))
        intervals = split
    return RSet(intervals)
