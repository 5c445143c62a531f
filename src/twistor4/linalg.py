"""Exact linear algebra over Z and Q.

One fraction-free elimination serves the determinant, the rank and the
nullspace.  Rows are made integral once (denominators cleared), and each
elimination step replaces a row by the primitive part of
``p*row - f*pivot_row``; rows with a zero in the pivot column are not
touched, so sparse matrices such as the pairing's arrowhead cost O(n^2)
rather than O(n^3).  No floats anywhere.  ``format_combination`` prints an
integer combination of basis names, for every class type's ``str()``.
"""

from fractions import Fraction
from math import gcd, lcm, prod

from .errors import ScheduleError


def _integral(row):
    """``row`` as a list of ints times 1/scale: (ints, scale)."""
    if set(map(type, row)) <= {int}:
        return list(row), 1
    fr = [Fraction(x) for x in row]
    scale = lcm(*(x.denominator for x in fr))
    return [x.numerator * (scale // x.denominator) for x in fr], scale


def _eliminate(rows, *, reduced=False, determinant=False):
    """Echelon form over Z of an int/Fraction matrix.

    Returns ``(rows, pivots, factor)``: the integer rows after elimination
    (reduced echelon form when ``reduced``: every pivot column is zero
    outside its pivot row), the pivot column of each of the first
    ``len(pivots)`` rows, and, when ``determinant``, the Fraction ``factor``
    with det(input) = factor * det(output) (``None`` otherwise).  A square
    matrix that turns out singular stops early with factor 0.
    """
    m, sign, factor = [], 1, Fraction(1)
    for row in rows:
        ints, scale = _integral(row)
        m.append(ints)
        if scale != 1:
            factor /= scale
    ncols = len(m[0]) if m else 0
    pivots = []
    r = 0
    for col in range(ncols):
        for i in range(r, len(m)):
            if m[i][col]:
                break
        else:
            if determinant:
                return m, pivots, Fraction(0)
            continue
        if i != r:
            m[r], m[i] = m[i], m[r]
            sign = -sign
        prow = m[r]
        p = prow[col]
        contents, updated = 1, 0
        for i in range(0 if reduced else r + 1, len(m)):
            f = m[i][col]
            if f and i != r:
                new = [p * x - f * y for x, y in zip(m[i], prow)]
                g = gcd(*new)
                if g > 1:
                    new = [x // g for x in new]
                m[i] = new
                contents *= g
                updated += 1
        if determinant and updated:
            factor *= Fraction(contents, p ** updated)
        pivots.append(col)
        r += 1
        if r == len(m):
            break
    return m, pivots, sign * factor if determinant else None


def bareiss_determinant(rows):
    """Determinant of a square matrix of ints/Fractions.

    Computed by the content-reducing elimination of this module, not by
    Bareiss's scheme any more; the name stays because callers and tools
    look the function up by it.  Every step's factor p/g and every row
    swap is recorded, so the result is exact: an int when it is integral,
    else a Fraction.
    """
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ScheduleError("matrix is not square")
    m, _, factor = _eliminate(rows, determinant=True)
    factor *= prod(m[k][k] for k in range(n))
    return int(factor) if factor.denominator == 1 else factor


def rank(rows):
    """Rank over Q of a matrix with int/Fraction entries."""
    return len(_eliminate(rows)[1])


def nullspace(rows):
    """Primitive integer basis of {x : A.x = 0} for an int/Fraction matrix A.

    Returned vectors are tuples of ints with content 1 and first nonzero
    entry positive, listed in order of their free column.
    """
    m, pivots, _ = _eliminate(rows, reduced=True)
    if not m:
        return []
    pivot_set = set(pivots)
    basis = []
    for fc in range(len(m[0])):
        if fc in pivot_set:
            continue
        # with the other free entries 0, pivot row i reads
        # m[i][pc] * x[pc] + m[i][fc] * x[fc] = 0
        scale = lcm(*(m[i][pc] for i, pc in enumerate(pivots) if m[i][fc]))
        v = [0] * len(m[0])
        v[fc] = scale
        for i, pc in enumerate(pivots):
            v[pc] = -m[i][fc] * scale // m[i][pc]
        g = gcd(*v) if next(x for x in v if x) > 0 else -gcd(*v)
        basis.append(tuple(x // g for x in v))
    return basis


def left_nullspace(rows):
    """Primitive integer basis of {v : v.A = 0} (nullspace of the transpose)."""
    return nullspace(list(zip(*rows)))


def format_combination(coeffs, names):
    """``sum(c * name)`` as text, e.g. ``"2*l - f + E3"``; ``"0"`` when
    every coefficient is 0.  A basis name ``"1"`` is the constant term."""
    out = ""
    for c, name in zip(coeffs, names):
        if c == 0:
            continue
        k = abs(c)
        term = str(k) if name == "1" else name if k == 1 else f"{k}*{name}"
        if out:
            out += (" - " if c < 0 else " + ") + term
        else:
            out = ("-" if c < 0 else "") + term
    return out or "0"
