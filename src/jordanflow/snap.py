"""The label error and the printed form of exact rationals."""

from __future__ import annotations

from fractions import Fraction


class RationalSnapError(ValueError):
    """No exact label is certified: Wolfe's active set fails the exact KKT
    check, or the exact beta lies farther than weights.SNAP_DISTANCE from the
    float spectrum it would label."""


def format_fraction(frac: Fraction) -> str:
    return str(frac.numerator) if frac.denominator == 1 else f"{frac.numerator}/{frac.denominator}"
