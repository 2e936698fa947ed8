"""Exact arithmetic in the field Q(i).

GaussianRational holds two Fractions, so every operation stays exact and
canonical (both parts are reduced by Fraction itself).

A coefficient's type is a function of its value: an element of Q(i) is a
Fraction when its imaginary part is 0 and a GaussianRational only when that
part is nonzero.  Every operation below returns through `gaussian`, which
applies this rule, and accepts int, Fraction and GaussianRational operands,
including a GaussianRational built by hand with a zero imaginary part.
"""

from __future__ import annotations

from fractions import Fraction

_RATIONAL = (int, Fraction)


def gaussian(re: Fraction, im: Fraction):
    """re + i im for Fractions re and im: re itself when im is 0."""
    if not im:
        return re
    z = object.__new__(GaussianRational)
    object.__setattr__(z, "re", re)
    object.__setattr__(z, "im", im)
    return z


class GaussianRational:
    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", Fraction(re))
        object.__setattr__(self, "im", Fraction(im))

    def __setattr__(self, name, value):
        raise AttributeError("GaussianRational is immutable")

    def conjugate(self):
        return gaussian(self.re, -self.im)

    def norm2(self) -> Fraction:
        return self.re * self.re + self.im * self.im

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, _RATIONAL):
            return gaussian(self.re + other, self.im)
        if isinstance(other, GaussianRational):
            return gaussian(self.re + other.re, self.im + other.im)
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return gaussian(-self.re, -self.im)

    def __sub__(self, other):
        if isinstance(other, _RATIONAL):
            return gaussian(self.re - other, self.im)
        if isinstance(other, GaussianRational):
            return gaussian(self.re - other.re, self.im - other.im)
        return NotImplemented

    def __rsub__(self, other):
        if isinstance(other, _RATIONAL):
            return gaussian(other - self.re, -self.im)
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, _RATIONAL):
            return gaussian(self.re * other, self.im * other)
        if isinstance(other, GaussianRational):
            return gaussian(
                self.re * other.re - self.im * other.im,
                self.re * other.im + self.im * other.re,
            )
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, _RATIONAL):
            if other == 0:
                raise ZeroDivisionError("division by zero")
            return gaussian(self.re / other, self.im / other)
        if isinstance(other, GaussianRational):
            n2 = other.norm2()
            if n2 == 0:
                raise ZeroDivisionError("division by zero")
            # self * conj(other) / |other|^2
            return gaussian(
                (self.re * other.re + self.im * other.im) / n2,
                (self.im * other.re - self.re * other.im) / n2,
            )
        return NotImplemented

    def __rtruediv__(self, other):
        if isinstance(other, _RATIONAL):
            n2 = self.norm2()
            if n2 == 0:
                raise ZeroDivisionError("division by zero")
            return gaussian(other * self.re / n2, -other * self.im / n2)
        return NotImplemented

    def __pow__(self, k: int):
        if k < 0:
            return 1 / self ** (-k)
        out = Fraction(1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    # -- comparisons ------------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, _RATIONAL):
            return self.im == 0 and self.re == other
        if isinstance(other, GaussianRational):
            return self.re == other.re and self.im == other.im
        return NotImplemented

    def __hash__(self):
        if self.im == 0:
            return hash(self.re)
        return hash((self.re, self.im))

    def __bool__(self):
        return self.re != 0 or self.im != 0

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"

    def __str__(self):
        from .scalar import coeff_to_str

        return coeff_to_str(self)
