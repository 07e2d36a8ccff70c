"""Hilbert-Poincare series as rational functions p(t) / prod_j (1 - t^{k_j}).

The numerator is an integer polynomial in t, the denominator a multiset
of cyclotomic-style factors (1 - t^k).  Expansion is exact.
"""


def _poly_mul(a, b):
    out = {}
    for i, x in a.items():
        for j, y in b.items():
            k = i + j
            v = out.get(k, 0) + x * y
            if v:
                out[k] = v
            else:
                del out[k]
    return out


def _poly_divexact(a, b):
    """a / b over Z[t] if the division is exact, else None."""
    if not a:
        return {}
    if not b:
        return None
    rem = dict(a)
    db = max(b)
    lead = b[db]
    quo = {}
    while rem:
        da = max(rem)
        if da < db:
            return None
        c, r = divmod(rem[da], lead)
        if r:
            return None
        quo[da - db] = c
        for j, y in b.items():
            k = da - db + j
            v = rem.get(k, 0) - c * y
            if v:
                rem[k] = v
            else:
                rem.pop(k, None)
    return quo


class RationalSeries:
    """p(t) / prod (1 - t^{k_j}) with exact integer expansion."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=()):
        self.num = {int(k): int(v) for k, v in num.items() if v}
        den = tuple(sorted(int(k) for k in den))
        if any(k <= 0 for k in den):
            raise ValueError("denominator factors must be positive exponents")
        self.den = den

    def expand(self, w_max):
        """Coefficients of t^0 .. t^{w_max}, exactly."""
        coeffs = [0] * (w_max + 1)
        for i, c in self.num.items():
            if 0 <= i <= w_max:
                coeffs[i] = c
        for k in self.den:
            # multiply by 1/(1 - t^k): prefix recurrence c[i] += c[i-k]
            for i in range(k, w_max + 1):
                coeffs[i] += coeffs[i - k]
        return coeffs

    def _common(self, other):
        """Numerators over a common denominator (per-factor max multiplicity)."""
        from collections import Counter
        ca, cb = Counter(self.den), Counter(other.den)
        common = {k: max(ca.get(k, 0), cb.get(k, 0)) for k in set(ca) | set(cb)}
        num_a, num_b = dict(self.num), dict(other.num)
        for k, m in common.items():
            factor = {0: 1, k: -1}
            for _ in range(m - ca.get(k, 0)):
                num_a = _poly_mul(num_a, factor)
            for _ in range(m - cb.get(k, 0)):
                num_b = _poly_mul(num_b, factor)
        den = tuple(sorted(k for k, m in common.items() for _ in range(m)))
        return num_a, num_b, den

    def add(self, other):
        na, nb, den = self._common(other)
        for i, c in nb.items():
            v = na.get(i, 0) + c
            if v:
                na[i] = v
            else:
                na.pop(i, None)
        return RationalSeries(na, den).normalized()

    def sub(self, other):
        na, nb, den = self._common(other)
        for i, c in nb.items():
            v = na.get(i, 0) - c
            if v:
                na[i] = v
            else:
                na.pop(i, None)
        return RationalSeries(na, den).normalized()

    def normalized(self):
        """Cancel denominator factors that divide the numerator exactly."""
        num = dict(self.num)
        den = list(self.den)
        changed = True
        while changed:
            changed = False
            for k in sorted(set(den), reverse=True):
                q = _poly_divexact(num, {0: 1, k: -1})
                if q is not None:
                    num = q
                    den.remove(k)
                    changed = True
                    break
        return RationalSeries(num, tuple(den))

    def __eq__(self, other):
        if not isinstance(other, RationalSeries):
            return NotImplemented
        na, nb, _ = self._common(other)
        return na == nb

    def __str__(self):
        if not self.num:
            return "0"
        bits = []
        for i in sorted(self.num):
            c = self.num[i]
            t = "1" if i == 0 else ("t" if i == 1 else "t^%d" % i)
            bits.append(("%d" % c) if i == 0 else
                        (t if c == 1 else ("-" + t if c == -1 else "%d*%s" % (c, t))))
        num = " + ".join(bits).replace("+ -", "- ")
        if not self.den:
            return num
        from collections import Counter
        den = "*".join("(1-t%s)%s" % ("" if k == 1 else "^%d" % k,
                                      "" if m == 1 else "^%d" % m)
                       for k, m in sorted(Counter(self.den).items()))
        return "(%s)/%s" % (num, den)

    __repr__ = __str__


# the reference series of the Lefschetz computation ------------------------

H_SERIES = {
    0: RationalSeries({0: 1, 1: 4, 2: 4}, (2, 2)),
    1: RationalSeries({1: 4, 2: 8, 3: 4, 4: 4}, (2, 2)),
    2: RationalSeries({2: 2, 3: 4, 4: 8}, (2, 2)),
    3: RationalSeries({4: 4}, (2, 2)),
    4: RationalSeries({4: 1}, (2, 2)),
}

KERNEL_SERIES = {
    1: RationalSeries({0: -1, 2: 2}, (2, 2)).add(
        RationalSeries({0: 1, 2: 2}, (1, 1, 1, 1))),
    2: RationalSeries({4: 3}, (2, 2)).add(
        RationalSeries({2: 2, 4: 1}, (1, 1, 1, 1))),
    3: RationalSeries({4: 3}, (2, 2)).add(
        RationalSeries({4: 1}, (1, 1, 1, 1))),
    4: RationalSeries({4: 1}, (2, 2)),
}

# the kernel line for degree 3 as printed in the source text, kept for
# the consistency flag in reports (its lemma forces the corrected one)
KERNEL3_PRINTED = RationalSeries({4: 1}, (2, 2)).add(
    RationalSeries({4: 1}, (1, 1, 1, 1)))
