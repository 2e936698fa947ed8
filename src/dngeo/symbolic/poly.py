"""Multivariate polynomials over Q or Q(i).

A Polynomial stores integer numerators over one positive integer
denominator: `nums` maps packed exponent keys to nonzero numerators, ints
over Q and (re, im) pairs of ints over Q(i), and `denom` is common to all of
them.  A key holds the total degree, then each exponent in variable order,
in fields of w bits whose top bit stays clear (`_packing`; Monagan and
Pearce, "Polynomial division using dynamic arrays, heaps, and packed
exponent vectors", CASC 2007), so keys compare in graded-lex order, the
term order of leading terms and printing, key 0 is the constant term, and
a product of terms has the sum of their keys.  w is a function of the total
degree, the floor _W0 up to degree 127, and can be read back from the top
key (`_shape`).  The form is canonical: keys of that width, the gcd of
`denom` and every numerator part 1, pairs used only while some imaginary
part is nonzero, and zero {} over 1, so equal polynomials have equal
fields.  The constructor takes exponent tuples with int, Fraction or
GaussianRational coefficients (see gaussian.py), and `terms` is a read-only
view in the key order of `nums`, by exponent tuple.

A sum, a product or `poly_dot` checks with its top keys that the result's
degree fits the floor, or else repacks its operands once, at the width of
the highest degree.  A product with a one-term operand cannot cancel, so
it maps the other operand's terms in one pass, in their key order.  Any
other product sums its term products in the kernel `_dot`, as `poly_dot`
does for a list of pairs, over the lcm of the products' denominators;
ScalarExpr's `dot` runs the contractions of the geometry on it.  `divexact`
divides in `_divide`; linalg's elimination shares both kernels.

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
from functools import cache
from heapq import heapify, heappop, heappush
from math import gcd, lcm
from operator import mul

from . import modp
from .gaussian import GaussianRational, gaussian

_UNIT = (1, (1, 0))  # the numerator 1, as an int and as a pair
_W0 = 8  # the floor of the key width
_FLOOR = (1 << _W0 - 1) - 1  # the highest total degree at the floor width


class Polynomial:
    __slots__ = ("nvars", "nums", "denom")

    def __new__(cls, nvars: int, terms: dict):
        """The polynomial with these coefficients by exponent tuple: ints,
        Fractions or GaussianRationals; zero ones are dropped."""
        parts = {e: (c.re, c.im) if isinstance(c, GaussianRational) else (c, 0) for e, c in terms.items() if c}
        den = lcm(*[x.denominator for pair in parts.values() for x in pair])
        nums = {
            e: (re.numerator * (den // re.denominator), im.numerator * (den // im.denominator))
            for e, (re, im) in parts.items()
        }
        return _make(nvars, _pack(nvars, nums), den)

    @property
    def terms(self) -> dict:
        """The coefficients by exponent tuple, built on each read."""
        den = self.denom
        return {e: _value(c, den) for e, c in self._unpack(self.nums.items())}

    def _unpack(self, items) -> list:
        """[(exponent tuple, c)] for the (key, c) of items, keys of this polynomial."""
        n, w = self.nvars, _shape(self.nums, self.nvars)[1]
        if w == 8:  # a byte a field
            low = (1 << 8 * n) - 1
            return [(tuple((k & low).to_bytes(n, "big")), c) for k, c in items]
        mask, shifts = (1 << w) - 1, range(w * (n - 1), -1, -w)
        return [(tuple([k >> s & mask for s in shifts]), c) for k, c in items]

    # -- constructors -----------------------------------------------------

    @staticmethod
    def zero(nvars: int) -> "Polynomial":
        return _new(nvars, {}, 1)

    @staticmethod
    def const(nvars: int, c) -> "Polynomial":
        if type(c) is int or type(c) is Fraction:  # already in lowest terms
            return _new(nvars, {0: c.numerator} if c else {}, c.denominator)
        return Polynomial(nvars, {(0,) * nvars: c})

    @staticmethod
    def variable(nvars: int, k: int) -> "Polynomial":
        return _new(nvars, {(1 << _W0 * nvars) + (1 << _W0 * (nvars - 1 - k)): 1}, 1)

    # -- predicates -------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.nums

    def is_constant(self) -> bool:
        return not any(self.nums)

    def is_one(self) -> bool:
        return self.denom == 1 and len(self.nums) == 1 and self.nums.get(0) == 1

    def is_real(self) -> bool:
        """Whether every coefficient lies in Q."""
        return not _is_pairs(self.nums)

    # -- structure --------------------------------------------------------

    def degree_in(self, k: int) -> int:
        n, w = self.nvars, _shape(self.nums, self.nvars)[1]
        s, mask = w * (n - 1 - k), (1 << w) - 1
        return max((e >> s & mask for e in self.nums), default=-1)

    def leading(self):
        """(exponent, coefficient) of the graded-lex leading term."""
        (e, c), = self._unpack([_lead(self)])
        return e, _value(c, self.denom)

    def sorted_terms(self):
        """Terms in descending graded-lex order (canonical print order)."""
        den = self.denom
        return [(e, _value(c, den)) for e, c in self._unpack(sorted(self.nums.items(), reverse=True))]

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other: "Polynomial") -> "Polynomial":
        a, b = self.nums, other.nums
        if not a:
            return other
        if not b:
            return self
        n, w = self.nvars, _W0
        if (max(a) | max(b)) >> _W0 * n + _W0 - 1:  # an operand past the floor
            w = _fit(max(_shape(a, n)[0], _shape(b, n)[0]))
            a, b = _repacked(a, n, w), _repacked(b, n, w)
        pairs = _is_pairs(a)
        if self.denom == 1 == other.denom and not pairs and not _is_pairs(b):
            return _make(n, _summed(dict(a), b.items()), 1, w)
        if pairs != _is_pairs(b):
            a, b = _as_pairs(a), _as_pairs(b)
        den = lcm(self.denom, other.denom)
        out = _summed(_times(a, den // self.denom), _times(b, den // other.denom).items())
        return _make(n, out, den, w)

    def __neg__(self) -> "Polynomial":
        return _new(self.nvars, _times(self.nums, -1), self.denom)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        a, b = self.nums, other.nums
        n, w = self.nvars, _W0
        if not a or not b:
            return Polynomial.zero(n)
        if max(a) + max(b) >> _W0 * n + _W0 - 1:  # the product's degree is past the floor
            w = _fit(_shape(a, n)[0] + _shape(b, n)[0])
            a, b = _repacked(a, n, w), _repacked(b, n, w)
        pairs = _is_pairs(a) or _is_pairs(b)
        if pairs:
            a, b = _as_pairs(a), _as_pairs(b)
        den = self.denom * other.denom
        if len(a) == 1 or len(b) == 1:
            # distinct keys plus one key stay distinct and nonzero numerators have a
            # nonzero product, so nothing cancels; the keys keep the other operand's order
            if len(b) != 1:
                a, b = b, a
            (eb, cb), = b.items()
            if pairs:
                return _make(n, {ea + eb: _pair_mul(ca, cb) for ea, ca in a.items()}, den, w)
            return _make(n, {ea + eb: ca * cb for ea, ca in a.items()}, den, w)
        return _make(n, _dot([(a, b, 1)], pairs), den, w)

    def scale(self, c) -> "Polynomial":
        return self * Polynomial.const(self.nvars, c)

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
        same = isinstance(other, Polynomial) and self.nvars == other.nvars
        return same and self.denom == other.denom and self.nums == other.nums

    __hash__ = None

    def __repr__(self):
        return f"Polynomial({self.nvars}, {self.terms!r})"

    # -- calculus and evaluation -------------------------------------------

    def diff(self, k: int) -> "Polynomial":
        n, nums = self.nvars, self.nums
        pairs, w = _is_pairs(nums), _shape(nums, n)[1]
        s, mask = w * (n - 1 - k), (1 << w) - 1
        unit = (1 << w * n) + (1 << s)  # the key of x_k
        out = {}
        for e, c in nums.items():
            d = e >> s & mask
            if d:
                out[e - unit] = (c[0] * d, c[1] * d) if pairs else c * d
        return _make(n, out, self.denom, w)

    def eval(self, point):
        """Evaluate at a full point (sequence of field elements)."""
        value = self.substitute(dict(enumerate(point)))
        return _value(value.nums.get(0, 0), value.denom)

    def substitute(self, assign: dict) -> "Polynomial":
        """Partially substitute constants for variables (indices -> values).

        With each value c/d and m the degree in its variable, a term's
        power j becomes c^j d^(m - j), so every term lands over one
        denominator, denom times each d^m, and sums into one dict.
        """
        w, split = _split(self, list(assign))
        den = self.denom
        powers = []
        for m, value in zip(map(max, zip(*[ds for ds, _, _ in split])), assign.values()):
            v = Polynomial.const(0, value)
            c, d = _as_pairs(v.nums).get(0, (0, 0)), v.denom
            col, cj = [], (1, 0)  # c^j d^(m - j) for j = 0..m
            for j in range(m + 1):
                col.append((cj[0] * d ** (m - j), cj[1] * d ** (m - j)))
                cj = _pair_mul(cj, c)
            powers.append(col)
            den *= d ** m
        terms = []
        for ds, e, c in split:
            c = (c, 0) if type(c) is int else c
            for d, col in zip(ds, powers):
                c = _pair_mul(c, col[d])
            if c != (0, 0):
                terms.append((e, c))
        return _make(self.nvars, _summed({}, terms), den, w)

    def project(self, keep) -> "Polynomial":
        """Reindex onto the variables listed in `keep` (others must not occur)."""
        return _moved(self, len(keep), [(k, j) for j, k in enumerate(keep)])

    def extend(self, new_nvars: int, index_map) -> "Polynomial":
        """Inject into a larger variable space; index_map[k] = new index of old var k."""
        return _moved(self, new_nvars, enumerate(index_map))


def poly_one(nvars: int) -> Polynomial:
    return _new(nvars, {0: 1}, 1)


def poly_dot(nvars: int, pairs) -> Polynomial:
    """sum p*q over the (p, q) of pairs: every term product is summed into
    one dict of numerators over the lcm of the products' denominators."""
    live, top, gauss = [], 0, False
    for p, q in pairs:
        a, b = p.nums, q.nums
        if a and b:
            live.append((a, b, p.denom * q.denom))
            top |= max(a) + max(b)  # any high bit of a sum stays in the or
            gauss = gauss or _is_pairs(a) or _is_pairs(b)
    den, w = lcm(*[d for _, _, d in live]), _W0
    if top >> _W0 * nvars + _W0 - 1:  # a product's degree is past the floor
        w = _fit(max(_shape(a, nvars)[0] + _shape(b, nvars)[0] for a, b, _ in live))
        live = [(_repacked(a, nvars, w), _repacked(b, nvars, w), d) for a, b, d in live]
    products = ((_as_pairs(a), _as_pairs(b), den // d) if gauss else (a, b, den // d) for a, b, d in live)
    return _make(nvars, _dot(products, gauss), den, w)


# -- the integer form --------------------------------------------------------


def _new(nvars: int, nums: dict, denom: int) -> Polynomial:
    """Trusted constructor: nums over denom must already be canonical."""
    p = object.__new__(Polynomial)
    p.nvars, p.nums, p.denom = nvars, nums, denom
    return p


def _make(nvars: int, nums: dict, denom: int, w: int = _W0) -> Polynomial:
    """The polynomial nums/denom, for keys of width w and a positive int denom,
    in canonical form: both divided by the gcd of denom and every numerator
    part, pairs turned to ints when every im is 0, keys at the width of the degree."""
    pairs = _is_pairs(nums)
    if pairs and not any(im for _, im in nums.values()):
        nums, pairs = {e: re for e, (re, _) in nums.items()}, False
    g = denom
    for c in nums.values():  # the content, down to the first gcd of 1
        if g == 1:
            break
        g = gcd(g, *c) if pairs else gcd(g, c)
    if g != 1 and pairs:
        nums = {e: (re // g, im // g) for e, (re, im) in nums.items()}
    elif g != 1:
        nums = {e: c // g for e, c in nums.items()}
    if w != _W0 and nums:  # a cancellation, a derivative or a quotient can narrow the keys
        nums = _repacked(nums, nvars, _fit(max(nums) >> w * nvars), w)
    return _new(nvars, nums, denom // g if nums else 1)


def _fit(degree: int) -> int:
    """The key width of a total degree."""
    return max(degree, _FLOOR).bit_length() + 1


def _shape(nums: dict, n: int):
    """(total degree, width) of the keys nums of n variables: past the floor
    a top key has d.bit_length() + w * n = w * (n + 1) - 1 bits."""
    top = max(nums) if nums else 0
    w = _W0 if top < 1 << _W0 * n + _W0 - 1 else (top.bit_length() + 1) // (n + 1)
    return top >> w * n, w


def _pack(n: int, nums: dict) -> dict:
    """nums with its exponent tuples packed at the width of their total degree."""
    _, weights, _ = _packing(n, max(max(map(sum, nums), default=0), _FLOOR))
    return {sum(map(mul, e, weights)): c for e, c in nums.items()}


def _repacked(nums: dict, n: int, w2: int, w: int = 0) -> dict:
    """nums repacked at width w2 from width w, by default the width of its keys."""
    w = w or _shape(nums, n)[1]
    if w == w2:
        return nums
    mask = (1 << w) - 1
    return {sum((e >> w * j & mask) << w2 * j for j in range(n + 1)): c for e, c in nums.items()}


def _split(p: Polynomial, ks):
    """(w, [(exponents in the x_k of ks, key without them, numerator)]) for p of width w."""
    n, w = p.nvars, _shape(p.nums, p.nvars)[1]
    if list(ks) == list(range(n)):  # every variable, as an evaluation takes them
        return w, [(e, 0, c) for e, c in p._unpack(p.nums.items())]
    mask, shifts = (1 << w) - 1, [w * (n - 1 - k) for k in ks]
    keep = ~sum(mask << s for s in shifts)  # the fields of the other variables, and the total
    out = []
    for e, c in p.nums.items():
        ds = [e >> s & mask for s in shifts]
        out.append((ds, (e & keep) - (sum(ds) << w * n), c))
    return w, out


def _moved(p: Polynomial, m: int, moves) -> Polynomial:
    """p on m variables, the exponent of its x_k that of x_j for the (k, j)
    of moves; raises ValueError when p involves a variable not moved."""
    if not any(p.nums):  # a constant, at key 0 in any number of variables
        return _new(m, p.nums, p.denom)
    w, weights = _shape(p.nums, p.nvars)[1], [0] * p.nvars
    for k, j in moves:
        weights[k] = (1 << w * m) + (1 << w * (m - 1 - j))
    out = {sum(map(mul, e, weights)): c for e, c in p._unpack(p.nums.items())}
    if sum(e >> w * m for e in out) != sum(e >> w * p.nvars for e in p.nums):  # a degree was dropped
        raise ValueError("polynomial involves a projected-out variable")
    return _new(m, out, p.denom)


def _is_pairs(nums: dict) -> bool:
    """Whether the numerators are (re, im) pairs."""
    return type(next(iter(nums.values()), 0)) is tuple


def _as_pairs(nums: dict) -> dict:
    """nums with each int numerator c as the pair (c, 0)."""
    return nums if _is_pairs(nums) else {e: (c, 0) for e, c in nums.items()}


def _parts(nums: dict) -> list:
    """Every numerator part: the ints, or both ints of each pair."""
    return [x for c in nums.values() for x in (c if type(c) is tuple else (c,))]


def _summed(out: dict, terms) -> dict:
    """out with each (exponent, numerator) of terms added in, numerators all
    ints or all pairs; a term whose sum cancels is dropped, as a field
    coefficient would be."""
    get = out.get
    for e, c in terms:
        s = get(e)
        if s is not None:
            c = s + c if type(c) is int else (s[0] + c[0], s[1] + c[1])
            if not c or c == (0, 0):
                del out[e]
                continue
        out[e] = c
    return out


def _pair_mul(a, b):
    return a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0]


def _times(nums: dict, k) -> dict:
    """A new dict of nums times k, an int or an (re, im) pair; pairs when
    either is."""
    if type(k) is tuple:
        return {e: _pair_mul(c, k) for e, c in _as_pairs(nums).items()}
    if k == 1:
        return dict(nums)
    if _is_pairs(nums):
        return {e: (re * k, im * k) for e, (re, im) in nums.items()}
    return {e: c * k for e, c in nums.items()}


def _inverse(c):
    """(k, d) with 1/c = k/d, for c a nonzero int or (re, im) pair and d a
    positive int."""
    if type(c) is tuple:
        return (c[0], -c[1]), c[0] * c[0] + c[1] * c[1]
    return (1, c) if c > 0 else (-1, -c)


def _lead(p: Polynomial):
    """(key, numerator) of the graded-lex leading term."""
    e = max(p.nums)
    return e, p.nums[e]


def _value(c, den: int):
    """The coefficient c/den: a Fraction, or a GaussianRational when c is a
    pair with a nonzero imaginary part."""
    if type(c) is tuple:
        return gaussian(Fraction(c[0], den), Fraction(c[1], den))
    return Fraction(c, den)


def over_monic(num: Polynomial, den: Polynomial):
    """(num / c, den / c) for c the leading coefficient of den."""
    _, lc = _lead(den)
    if den.denom == 1 and lc in _UNIT:
        return num, den
    # c = lc / den.denom, so num / c = num.nums * den.denom / (num.denom * lc)
    k, d = _inverse(lc)
    top = _make(num.nvars, _times(_times(num.nums, k), den.denom), num.denom * d)
    return top, _make(den.nvars, _times(den.nums, k), d)


def primitive_vector(polys) -> list:
    """The polys times the one constant that leaves every coefficient part an
    integer, all of these parts with gcd 1, and the leading coefficient of
    the first nonzero poly a positive integer."""
    _, lc = _lead(next(p for p in polys if p.nums))
    k, _ = _inverse(lc)  # 1/lc up to a positive factor
    common = lcm(*[p.denom for p in polys])
    vec = [_times(_times(p.nums, common // p.denom), k) for p in polys]
    g = gcd(*[x for nums in vec for x in _parts(nums)])
    return [_make(p.nvars, nums, g) for p, nums in zip(polys, vec)]


# -- packed integer polynomials ----------------------------------------------


@cache  # few (n, degree) pairs occur: the floor, and the degrees of wide keys and minors
def _packing(n: int, degree: int):
    """(width, weights, guard) for packing exponent tuples of n variables
    whose total degree is at most degree, in the least width.

    A packed exponent sum(map(mul, e, weights)) holds the total degree, then
    the exponents in variable order, in fields of width bits, so packed ints
    compare in graded-lex order and add as exponents do.  The top bit of
    each field (guard) stays clear, so one subtraction tests that a packed
    exponent divides another.
    """
    w = degree.bit_length() + 1
    weights = tuple((1 << w * n) + (1 << w * j) for j in range(n - 1, -1, -1))
    guard = sum(1 << w * j + w - 1 for j in range(n + 1))
    return w, weights, guard


def _kernel_form(p: Polynomial, w: int, pairs: bool, k: int = 1) -> dict:
    """A new dict of the numerators of p times k at width w, pairs when pairs."""
    nums = p.nums if w == _W0 else _repacked(p.nums, p.nvars, w)  # every width is at least the floor
    return _times(_as_pairs(nums) if pairs else nums, k)


def _dot(products, pairs: bool) -> dict:
    """sum k*p*q over the (p, q, k) of products, for packed polynomials p and
    q with int coefficients, or (re, im) ones with pairs, and ints k; a sum
    that cancels is dropped at once, as `_summed` drops it."""
    out: dict = {}
    get = out.get
    if not pairs:
        for p, q, k in products:
            q = q.items()
            for kp, cp in p.items():
                cp *= k
                for kq, cq in q:
                    e = kp + kq
                    c = out[e] = get(e, 0) + cp * cq
                    if not c:
                        del out[e]
        return out
    for p, q, k in products:
        q = q.items()
        for kp, (pr, pi) in p.items():
            pr, pi = pr * k, pi * k
            for kq, (qr, qi) in q:
                e = kp + kq
                re, im = get(e, (0, 0))
                c = out[e] = re + pr * qr - pi * qi, im + pr * qi + pi * qr
                if c == (0, 0):
                    del out[e]
    return out


def _divide(rem: dict, divisor: dict, guard: int, pairs: bool):
    """(quotient, scale) with rem / divisor = quotient / scale for packed
    polynomials, scale a positive int; raises ValueError when the division
    is inexact.  rem is consumed.

    The remainder is kept in one dict and its leading term found with a
    lazy max-heap.  scale grows only when the lead of the divisor does not
    divide the lead of the remainder over Z or Z[i].  Over Z that proves the
    division inexact when the divisor's content is 1: by Gauss's lemma an
    exact quotient by a primitive divisor has integer coefficients.
    """
    (glk, lead), *terms = sorted(divisor.items(), reverse=True)
    if pairs:
        lr, li = lead
        norm = lr * lr + li * li
    scale, content = 1, None
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
                content = content or gcd(*divisor.values())
                if content == 1:
                    raise ValueError("inexact polynomial division")
                h = gcd(c, lead)
                a, b = (c // h, lead // h) if lead > 0 else (-c // h, -lead // h)
                scale *= b
                rem, out = _times(rem, b), _times(out, b)
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
            rem, out = _times(rem, b), _times(out, b)
        out[qk] = ar, ai
        for k, (vr, vi) in terms:
            k += qk
            tr, ti = ar * vr - ai * vi, ar * vi + ai * vr
            s = rem.get(k)
            if s is None:
                rem[k] = -tr, -ti
                heappush(heap, -k)
            else:
                tr, ti = s[0] - tr, s[1] - ti
                if tr or ti:
                    rem[k] = tr, ti
                else:
                    del rem[k]
    return out, scale


# -- exact division ---------------------------------------------------------


def divexact(f: Polynomial, g: Polynomial) -> Polynomial:
    """Exact quotient f/g; raises ValueError when g does not divide f."""
    if g.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    if f.is_zero() or g.is_one():
        return f
    n = f.nvars
    pairs = _is_pairs(f.nums) or _is_pairs(g.nums)
    # every remainder term has total degree <= deg f
    w, _, guard = _packing(n, max(_shape(f.nums, n)[0], _shape(g.nums, n)[0], _FLOOR))
    out, scale = _divide(_kernel_form(f, w, pairs), _kernel_form(g, w, pairs), guard, pairs)
    return _make(n, _times(out, g.denom), f.denom * scale, w)


# -- univariate views --------------------------------------------------------


def uni_coeff(f: Polynomial, k: int, d: int) -> Polynomial:
    """Coefficient of x_k^d, as a polynomial with zero k-exponent."""
    w, split = _split(f, [k])
    return _make(f.nvars, {e: c for (dk,), e, c in split if dk == d}, f.denom, w)


def prem(f: Polynomial, g: Polynomial, k: int) -> Polynomial:
    """Pseudo-remainder of f by g with respect to x_k.

    Satisfies lc_k(g)^(deg_k f - deg_k g + 1) * f = q*g + prem(f, g, k).
    """
    l = g.degree_in(k)
    lcg = uni_coeff(g, k, l)
    r = f
    e = f.degree_in(k) - l + 1
    while not r.is_zero() and r.degree_in(k) >= l:
        dr = r.degree_in(k)
        # the x_k^dr coefficient of r, times x_k^(dr - l)
        r = lcg * r - uni_coeff(r, k, dr) * Polynomial.variable(f.nvars, k) ** (dr - l) * g
        e -= 1
    for _ in range(e):
        r = lcg * r
    return r


# -- gcd ---------------------------------------------------------------------


def _monic(p: Polynomial) -> Polynomial:
    if p.is_zero():
        return p
    _, lc = _lead(p)
    if p.denom == 1 and lc in _UNIT:
        return p
    # p over its leading coefficient lc / denom is nums / lc
    k, d = _inverse(lc)
    return _make(p.nvars, _times(p.nums, k), d)


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
    lc = uni_coeff(g, k, m)
    c = -(lc ** d)
    last = g
    while not h.is_zero():
        kdeg = h.degree_in(k)
        f, g, m, d = g, h, kdeg, m - kdeg
        last = g
        b = -(lc * c ** d)
        h = prem(f, g, k)
        h = divexact(h, b)
        lc = uni_coeff(g, k, kdeg)
        if d > 1:
            c = divexact((-lc) ** d, c ** (d - 1))
        else:
            c = -lc
    return last


def _degrees(p: Polynomial) -> list:
    return [max(d) for d in zip(*[e for e, _ in p._unpack(p.nums.items())])]


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
        w, split = _split(p, free)
        for ds, rest, c in split:
            parts.setdefault((i, *ds), ({}, p.denom, w))[0][rest] = c
    out = Polynomial.zero(n)
    for nums, den, w in sorted(parts.values(), key=lambda part: len(part[0])):
        out = poly_gcd(out, _make(n, nums, den, w))
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
    k = next(i for i in range(f.nvars) if f.degree_in(i) > 0 or g.degree_in(i) > 0)
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
