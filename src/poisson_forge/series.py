"""Hilbert-Poincare series as rational functions p(t) / prod_j (1 - t^{k_j}).

The numerator is an integer polynomial in t, the denominator a multiset
of cyclotomic-style factors (1 - t^k).  Expansion is exact.  The commands
only expand a series and print it, so the reference series below are
literals, each in lowest terms; the identities between them (the short
exact sequences and the paper's two-term forms) are proven in the tests
by bounded expansion.
"""

from .rationals import exact


def _integer(x):
    """x as an int; a float raises TypeError, a non-integral value ValueError."""
    x = exact(x)
    if type(x) is not int:
        raise ValueError("series exponents and coefficients must be "
                         "integers, got %s" % x)
    return x


class RationalSeries:
    """p(t) / prod (1 - t^{k_j}) with exact integer expansion."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=()):
        self.num = {}
        for k, v in num.items():
            k, v = _integer(k), _integer(v)
            if v:
                self.num[k] = v
        den = tuple(sorted(_integer(k) for k in den))
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

# each kernel series in lowest terms; the comment above it names the
# two-term form the paper prints
KERNEL_SERIES = {
    # (2t^2 - 1)/(1-t^2)^2 + (1 + 2t^2)/(1-t)^4
    1: RationalSeries({1: 4, 2: 4, 4: 4}, (1, 1, 2, 2)),
    # 3t^4/(1-t^2)^2 + (2t^2 + t^4)/(1-t)^4
    2: RationalSeries({2: 2, 3: 4, 4: 6, 5: -4, 6: 4}, (1, 1, 2, 2)),
    # 3t^4/(1-t^2)^2 + t^4/(1-t)^4
    3: RationalSeries({4: 4, 5: -4, 6: 4}, (1, 1, 2, 2)),
    # t^4/(1-t^2)^2
    4: RationalSeries({4: 1}, (2, 2)),
}

# the kernel line for degree 3 as printed in the source text, kept for
# the consistency flag in reports (its lemma forces the corrected one):
# t^4/(1-t^2)^2 + t^4/(1-t)^4
KERNEL3_PRINTED = RationalSeries({4: 2, 6: 2}, (1, 1, 2, 2))
