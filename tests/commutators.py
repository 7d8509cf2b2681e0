"""Test-side commutators, one term pair at a time: the loop that
``claims._commutator_matrix``'s matrix identity is checked against."""

from cvcluster.gates import X, Y


def reference_commutator(e1, e2):
    """``[e1, e2]`` in units of i as one loop over every term pair, grouped by
    exponent sum: ``{s: coefficient of e^{sr}}``."""
    by_sum = {}
    partners = {}
    for (m2, k2, ex2), c2 in e2.items():
        partners.setdefault((m2, k2), []).append((ex2, c2))
    for (m1, k1, ex1), c1 in e1.items():
        sign = 1.0 if k1 == X else -1.0
        for ex2, c2 in partners.get((m1, Y if k1 == X else X), ()):
            by_sum[ex1 + ex2] = by_sum.get(ex1 + ex2, 0.0) + sign * c1 * c2
    return by_sum



def term_size(e1, e2):
    """``Σ |c1 c2|`` over the term pairs ``[e1, e2]`` sums at exponent sum 0:
    the size that bounds its rounding."""
    return sum(abs(c1 * c2) for (m1, k1, ex1), c1 in e1.items() for (m2, k2, ex2), c2 in e2.items()
               if m1 == m2 and k1 != k2 and ex1 + ex2 == 0)
