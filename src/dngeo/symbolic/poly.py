"""Multivariate polynomials over Q or Q(i).

A Polynomial is a sparse map from exponent tuples to nonzero coefficients.
A coefficient is a Fraction, or a GaussianRational when its imaginary part
is nonzero (see gaussian.py); both fields share every routine here.  The
term order used for leading terms, printing and canonical forms is graded
lexicographic over the chart's variable order.

Products and exact quotients run on integers.  Both bring each operand to
integer numerators over one common denominator, the lcm of its coefficient
denominators; over Q(i) a numerator is a (re, im) pair of integers.
`Polynomial.__mul__` multiplies and sums plain ints and builds one
coefficient per output term rather than per pair of terms.  `divexact` packs
each exponent tuple into one int whose order is graded-lex (`_packing`) and
divides in `_divide`, which linalg's elimination shares with it together
with the product kernel `_dot`; the elimination packs once per matrix.
Products keep exponent tuples: most products here have a one- or two-term
operand, where packing costs more than it saves.

`terms` holds rational coefficients, not integers plus a content, because
code outside the package reads `terms` directly.

The gcd starts from degree bounds read from images mod P (see modp.py): for
each variable, an upper bound on the degree of the gcd in it.  Bounds that
are all 0 prove gcd 1; bounds equal to the degrees of one argument, with a
trial division that succeeds, make that argument the gcd; and a variable of
bound 0 is absent from the gcd, which is then the gcd of the coefficients
in such variables, each with fewer variables.  Every other pair goes to
recursive content / primitive-part extraction with a subresultant
pseudo-remainder sequence on the main variable, whose divisions are all
exact.  No external library is needed.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd, lcm
from operator import add, mul

from . import modp
from .gaussian import GaussianRational, gaussian

_ONE = Fraction(1)


def _grlex_key(expo):
    return (sum(expo), expo)


class Polynomial:
    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: dict):
        # assumes terms already clean: no zero coefficients
        self.nvars = nvars
        self.terms = terms

    # -- constructors -----------------------------------------------------

    @staticmethod
    def zero(nvars: int) -> "Polynomial":
        return Polynomial(nvars, {})

    @staticmethod
    def const(nvars: int, c) -> "Polynomial":
        if not c:
            return Polynomial(nvars, {})
        return Polynomial(nvars, {(0,) * nvars: c})

    @staticmethod
    def variable(nvars: int, k: int) -> "Polynomial":
        expo = [0] * nvars
        expo[k] = 1
        return Polynomial(nvars, {tuple(expo): _ONE})

    # -- predicates -------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(sum(e) == 0 for e in self.terms)

    def is_one(self) -> bool:
        if len(self.terms) != 1:
            return False
        (e, c), = self.terms.items()
        return sum(e) == 0 and c == 1

    # -- structure --------------------------------------------------------

    def degree_in(self, k: int) -> int:
        if not self.terms:
            return -1
        return max(e[k] for e in self.terms)

    def leading(self):
        """(exponent, coefficient) of the graded-lex leading term."""
        e = max(self.terms, key=_grlex_key)
        return e, self.terms[e]

    def sorted_terms(self):
        """Terms in descending graded-lex order (canonical print order)."""
        return sorted(self.terms.items(), key=lambda t: _grlex_key(t[0]), reverse=True)

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other: "Polynomial") -> "Polynomial":
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = out.get(e)
            if s is None:
                out[e] = c
            else:
                s = s + c
                if s:
                    out[e] = s
                else:
                    del out[e]
        return Polynomial(self.nvars, out)

    def __neg__(self) -> "Polynomial":
        return Polynomial(self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        if self.is_zero() or other.is_zero():
            return Polynomial.zero(self.nvars)
        a, b = _integral(self, False), _integral(other, False)
        pairs = a is None or b is None
        if pairs:  # some coefficient is a GaussianRational
            a, b = _integral(self, True), _integral(other, True)
        (da, a), (db, b) = a, b
        den = da * db
        # the term-pair loop of Fraction arithmetic, on ints: a term is
        # dropped when its sum cancels, as the coefficient would be
        out: dict = {}
        get = out.get
        if not pairs:
            for ea, na in a:
                for eb, nb in b:
                    e = tuple(map(add, ea, eb))
                    s = get(e)
                    if s is None:
                        out[e] = na * nb
                    else:
                        s += na * nb
                        if s:
                            out[e] = s
                        else:
                            del out[e]
            return Polynomial(self.nvars, {e: Fraction(s, den) for e, s in out.items()})
        for ea, ra, ia in a:
            for eb, rb, ib in b:
                e = tuple(map(add, ea, eb))
                re = ra * rb - ia * ib
                im = ra * ib + ia * rb
                s = get(e)
                if s is not None:
                    re += s[0]
                    im += s[1]
                    if not (re or im):
                        del out[e]
                        continue
                out[e] = re, im
        return Polynomial(self.nvars, {e: _coefficient(re, im, den) for e, (re, im) in out.items()})

    def scale(self, c) -> "Polynomial":
        if not c:
            return Polynomial.zero(self.nvars)
        return Polynomial(self.nvars, {e: k * c for e, k in self.terms.items()})

    def __pow__(self, k: int) -> "Polynomial":
        if k < 0:
            raise ValueError("negative polynomial power")
        if not k:
            return poly_one(self.nvars)
        out = None
        base = self
        while True:  # no square after the last bit
            if k & 1:
                out = base if out is None else out * base
            k >>= 1
            if not k:
                return out
            base = base * base

    def __eq__(self, other):
        return (
            isinstance(other, Polynomial)
            and self.nvars == other.nvars
            and self.terms == other.terms
        )

    __hash__ = None

    def __repr__(self):
        return f"Polynomial({self.nvars}, {self.terms!r})"

    # -- calculus and evaluation -------------------------------------------

    def diff(self, k: int) -> "Polynomial":
        out = {}
        for e, c in self.terms.items():
            d = e[k]
            if d == 0:
                continue
            ne = list(e)
            ne[k] = d - 1
            out[tuple(ne)] = c * d
        return Polynomial(self.nvars, out)

    def eval(self, point):
        """Evaluate at a full point (sequence of field elements)."""
        total = 0
        for e, c in self.terms.items():
            v = c
            for k, d in enumerate(e):
                if d:
                    v = v * point[k] ** d
            total = total + v
        return total

    def substitute(self, assign: dict) -> "Polynomial":
        """Partially substitute constants for variables (indices -> values)."""
        out = Polynomial.zero(self.nvars)
        for e, c in self.terms.items():
            v = c
            ne = list(e)
            for k, val in assign.items():
                d = e[k]
                if d:
                    v = v * val ** d
                ne[k] = 0
            if v:
                out = out + Polynomial(self.nvars, {tuple(ne): v})
        return out

    def project(self, keep) -> "Polynomial":
        """Reindex onto the variables listed in `keep` (others must not occur)."""
        out = {}
        for e, c in self.terms.items():
            ne = tuple(e[k] for k in keep)
            if sum(ne) != sum(e):
                raise ValueError("polynomial involves a projected-out variable")
            out[ne] = c
        return Polynomial(len(keep), out)

    def extend(self, new_nvars: int, index_map) -> "Polynomial":
        """Inject into a larger variable space; index_map[k] = new index of old var k."""
        out = {}
        for e, c in self.terms.items():
            ne = [0] * new_nvars
            for k, d in enumerate(e):
                ne[index_map[k]] = d
            out[tuple(ne)] = c
        return Polynomial(new_nvars, out)


def poly_one(nvars: int) -> Polynomial:
    return Polynomial(nvars, {(0,) * nvars: _ONE})


# -- integer kernels ---------------------------------------------------------


def _integral(p: Polynomial, pairs: bool):
    """(den, terms): the coefficients of p as integer numerators over their
    common denominator den, in terms (exponent, numerator).  With pairs the
    numerator is re, im; otherwise None when p has a GaussianRational
    coefficient."""
    if not pairs:
        try:
            den = lcm(*[c.denominator for c in p.terms.values()])
        except AttributeError:  # a GaussianRational
            return None
        return den, [(e, c.numerator * (den // c.denominator)) for e, c in p.terms.items()]
    parts = [
        (e, c.re, c.im) if isinstance(c, GaussianRational) else (e, c, 0) for e, c in p.terms.items()
    ]
    den = lcm(*[x.denominator for _, re, im in parts for x in (re, im)])
    return den, [
        (e, re.numerator * (den // re.denominator), im.numerator * (den // im.denominator))
        for e, re, im in parts
    ]


def _coefficient(re: int, im: int, den: int):
    """(re + i im)/den: a Fraction when im is 0, else a GaussianRational."""
    if im:
        return gaussian(Fraction(re, den), Fraction(im, den))
    return Fraction(re, den)


# -- packed integer polynomials ----------------------------------------------


def _packing(n: int, degree: int):
    """(width, weights, guard) for packing exponent tuples of n variables
    whose total degree is at most degree.

    A packed exponent sum(map(mul, e, weights)) holds the total degree, then
    the exponents in variable order, in fields of width bits, so packed ints
    compare as _grlex_key does and add as exponents do.  The top bit of each
    field (guard) stays clear, so one subtraction tests that a packed
    exponent divides another.
    """
    w = degree.bit_length() + 1
    weights = [(1 << w * n) + (1 << w * j) for j in range(n - 1, -1, -1)]
    guard = sum(1 << w * j + w - 1 for j in range(n + 1))
    return w, weights, guard


def _packed(terms, weights, pairs: bool, k: int = 1) -> dict:
    """The (exponent, numerator) terms of _integral as a packed polynomial,
    each numerator times k."""
    if pairs:
        return {sum(map(mul, e, weights)): [re * k, im * k] for e, re, im in terms}
    return {sum(map(mul, e, weights)): c * k for e, c in terms}


def _unpacked(p: dict, n: int, w: int, pairs: bool, num: int = 1, den: int = 1) -> Polynomial:
    """The Polynomial num/den * p for a packed p of n variables and width w."""
    mask, shifts = (1 << w) - 1, range(w * (n - 1), -1, -w)
    if pairs:
        return Polynomial(n, {
            tuple([k >> s & mask for s in shifts]): _coefficient(re * num, im * num, den)
            for k, (re, im) in p.items()
        })
    return Polynomial(n, {tuple([k >> s & mask for s in shifts]): Fraction(c * num, den) for k, c in p.items()})


def _dot(plus, minus, pairs: bool) -> dict:
    """sum p*q over the pairs (p, q) of plus, minus that over minus, for
    packed polynomials with int coefficients, or [re, im] ones with pairs."""
    out: dict = {}
    get = out.get
    for sign, products in ((1, plus), (-1, minus)):
        for p, q in products:
            q = q.items()
            if not pairs:
                for kp, cp in p.items():
                    cp *= sign
                    for kq, cq in q:
                        k = kp + kq
                        out[k] = get(k, 0) + cp * cq
                continue
            for kp, (pr, pi) in p.items():
                pr, pi = sign * pr, sign * pi
                for kq, (qr, qi) in q:
                    k = kp + kq
                    re, im = pr * qr - pi * qi, pr * qi + pi * qr
                    s = get(k)
                    if s is None:
                        out[k] = [re, im]
                    else:
                        s[0] += re
                        s[1] += im
    if pairs:
        return {k: v for k, v in out.items() if v[0] or v[1]}
    return {k: c for k, c in out.items() if c}


def _divide(rem: dict, divisor: dict, guard: int, pairs: bool):
    """(quotient, scale) with rem / divisor = quotient / scale for packed
    polynomials, scale a positive int; raises ValueError when the division
    is inexact.  rem is consumed, and with pairs its [re, im] lists are
    updated in place.

    The remainder is kept in one dict and its leading term found with a
    lazy max-heap.  scale grows only when the lead of the divisor does not
    divide the lead of the remainder over Z or Z[i], which a division by a
    primitive divisor never meets.
    """
    (glk, lead), *terms = sorted(divisor.items(), reverse=True)
    if pairs:
        lr, li = lead
        norm = lr * lr + li * li
    scale = 1
    heap = [-k for k in rem]
    heapify(heap)
    out: dict = {}
    while rem:
        rk = -heappop(heap)
        if rk not in rem:
            continue
        if (rk | guard) - glk & guard != guard:
            raise ValueError("inexact polynomial division")
        qk = rk - glk
        c = rem.pop(rk)
        if not pairs:
            a, r = divmod(c, lead)
            if r:
                h = gcd(c, lead)
                a, b = (c // h, lead // h) if lead > 0 else (-c // h, -lead // h)
                scale *= b
                for k in rem:
                    rem[k] *= b
                for k in out:
                    out[k] *= b
            out[qk] = a
            for k, v in terms:
                k += qk
                s = rem.get(k)
                if s is None:
                    rem[k] = -a * v
                    heappush(heap, -k)
                else:
                    s -= a * v
                    if s:
                        rem[k] = s
                    else:
                        del rem[k]
            continue
        # (cr + i ci) / (lr + i li) = (ar + i ai) / b in lowest terms
        cr, ci = c
        xr, xi = cr * lr + ci * li, ci * lr - cr * li
        h = gcd(xr, xi, norm)
        ar, ai, b = xr // h, xi // h, norm // h
        if b != 1:
            scale *= b
            for v in rem.values():
                v[0] *= b
                v[1] *= b
            for v in out.values():
                v[0] *= b
                v[1] *= b
        out[qk] = [ar, ai]
        for k, (vr, vi) in terms:
            k += qk
            tr, ti = ar * vr - ai * vi, ar * vi + ai * vr
            s = rem.get(k)
            if s is None:
                rem[k] = [-tr, -ti]
                heappush(heap, -k)
            else:
                tr, ti = s[0] - tr, s[1] - ti
                if tr or ti:
                    s[0], s[1] = tr, ti
                else:
                    del rem[k]
    return out, scale


# -- exact division ---------------------------------------------------------


def divexact(f: Polynomial, g: Polynomial) -> Polynomial:
    """Exact quotient f/g; raises ValueError when g does not divide f."""
    if g.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    if f.is_zero():
        return f
    if g.is_one():
        return f
    n = f.nvars
    a, b = _integral(f, False), _integral(g, False)
    pairs = a is None or b is None
    if pairs:  # some coefficient is a GaussianRational
        a, b = _integral(f, True), _integral(g, True)
    (df, a), (dg, b) = a, b
    # every remainder term has total degree <= deg f
    w, weights, guard = _packing(n, max(map(sum, (*f.terms, *g.terms))))
    out, scale = _divide(_packed(a, weights, pairs), _packed(b, weights, pairs), guard, pairs)
    return _unpacked(out, n, w, pairs, dg, df * scale)


# -- univariate views --------------------------------------------------------


def uni_coeff(f: Polynomial, k: int, d: int) -> Polynomial:
    """Coefficient of x_k^d, as a polynomial with zero k-exponent."""
    out = {}
    for e, c in f.terms.items():
        if e[k] == d:
            ne = list(e)
            ne[k] = 0
            out[tuple(ne)] = c
    return Polynomial(f.nvars, out)


def uni_lead(f: Polynomial, k: int) -> Polynomial:
    return uni_coeff(f, k, f.degree_in(k))


def prem(f: Polynomial, g: Polynomial, k: int) -> Polynomial:
    """Pseudo-remainder of f by g with respect to x_k.

    Satisfies lc_k(g)^(deg_k f - deg_k g + 1) * f = q*g + prem(f, g, k).
    """
    l = g.degree_in(k)
    lcg = uni_lead(g, k)
    r = f
    e = f.degree_in(k) - l + 1
    while not r.is_zero() and r.degree_in(k) >= l:
        dr = r.degree_in(k)
        # the x_k^dr coefficient of r, times x_k^(dr - l)
        lead = {x[:k] + (dr - l,) + x[k + 1:]: c for x, c in r.terms.items() if x[k] == dr}
        r = lcg * r - Polynomial(f.nvars, lead) * g
        e -= 1
    for _ in range(e):
        r = lcg * r
    return r


# -- gcd ---------------------------------------------------------------------


def _monic(p: Polynomial) -> Polynomial:
    if p.is_zero():
        return p
    _, lc = p.leading()
    if lc == 1:
        return p
    return p.scale(1 / lc)


def content_wrt(f: Polynomial, k: int) -> Polynomial:
    """gcd of the coefficients of f viewed as univariate in x_k."""
    c = Polynomial.zero(f.nvars)
    for d in range(f.degree_in(k) + 1):
        coeff = uni_coeff(f, k, d)
        if coeff.is_zero():
            continue
        c = poly_gcd(c, coeff)
        if c.is_one():
            break
    return c


def _subresultant_last(f: Polynomial, g: Polynomial, k: int) -> Polynomial:
    """Last nonzero member of the subresultant PRS of f, g in x_k.

    Requires deg_k(f) >= deg_k(g) >= 1.
    """
    n, m = f.degree_in(k), g.degree_in(k)
    d = n - m
    h = prem(f, g, k)
    if d % 2 == 0:
        h = -h  # divide by beta = (-1)^(d+1)
    lc = uni_lead(g, k)
    c = -(lc ** d)
    last = g
    while not h.is_zero():
        kdeg = h.degree_in(k)
        f, g, m, d = g, h, kdeg, m - kdeg
        last = g
        b = -(lc * c ** d)
        h = prem(f, g, k)
        h = divexact(h, b)
        lc = uni_lead(g, k)
        if d > 1:
            c = divexact((-lc) ** d, c ** (d - 1))
        else:
            c = -lc
    return last


def _degrees(p: Polynomial) -> list:
    return [max(d) for d in zip(*p.terms)]


def _certified_gcd(f: Polynomial, g: Polynomial):
    """gcd(f, g) for nonconstant f, g when the degree bounds of modp settle
    it, else None.

    Every bound is proven, so each exit is exact: all bounds 0 prove gcd 1;
    bounds equal to the degrees of one argument b, with b dividing the
    other, make b the gcd; and a variable of bound 0 is absent from the
    gcd, which is then the gcd of the coefficients of f and g in those
    variables.  A coefficient without an image leaves the pair to the PRS.
    """
    a, b = modp.poly_image(f), modp.poly_image(g)
    if a is None or b is None:
        return None
    n = f.nvars
    df, dg = _degrees(f), _degrees(g)
    bounds = [0] * n  # a variable only one of f, g depends on has bound 0
    for k in range(n):
        if df[k] and dg[k]:
            d = modp.degree_bound(a, b, k, df[k], dg[k])
            bounds[k] = min(df[k], dg[k]) if d is None else d
    if not any(bounds):
        return poly_one(n)
    for p, dp, q in ((f, df, g), (g, dg, f)):
        if dp == bounds:
            try:
                divexact(q, p)
            except ValueError:
                continue
            return _monic(p)
    free = [k for k in range(n) if not bounds[k] and (df[k] or dg[k])]
    if not free:
        return None
    parts: dict = {}
    for i, p in enumerate((f, g)):
        for e, c in p.terms.items():
            rest = list(e)
            for k in free:
                rest[k] = 0
            parts.setdefault((i, *(e[k] for k in free)), {})[tuple(rest)] = c
    out = Polynomial.zero(n)
    for terms in sorted(parts.values(), key=len):
        out = poly_gcd(out, Polynomial(n, terms))
        if out.is_one():
            break
    return out


def poly_gcd(f: Polynomial, g: Polynomial) -> Polynomial:
    """Monic gcd of two polynomials over Q or Q(i)."""
    if f.is_zero():
        return _monic(g)
    if g.is_zero():
        return _monic(f)
    if f.is_constant() or g.is_constant():
        return poly_one(f.nvars)
    out = _certified_gcd(f, g)
    if out is not None:
        return out
    k = next(
        i
        for i in range(f.nvars)
        if f.degree_in(i) > 0 or g.degree_in(i) > 0
    )
    if f.degree_in(k) == 0:
        return poly_gcd(content_wrt(g, k), f)
    if g.degree_in(k) == 0:
        return poly_gcd(content_wrt(f, k), g)
    cf = content_wrt(f, k)
    cg = content_wrt(g, k)
    c = poly_gcd(cf, cg)
    fp = divexact(f, cf)
    gp = divexact(g, cg)
    if fp.degree_in(k) < gp.degree_in(k):
        fp, gp = gp, fp
    last = _subresultant_last(fp, gp, k)
    if last.degree_in(k) == 0:
        return _monic(c)
    pp = divexact(last, content_wrt(last, k))
    return _monic(c * pp)


def poly_lcm(f: Polynomial, g: Polynomial) -> Polynomial:
    if f.is_zero() or g.is_zero():
        return Polynomial.zero(f.nvars)
    return _monic(divexact(f * g, poly_gcd(f, g)))
