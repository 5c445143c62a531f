"""Exact linear algebra over Z and Q.

One sparse, fraction-free elimination serves the determinant, the rank and
the nullspace.  Each row is stored once as a dict ``{column: nonzero int}``
(denominators cleared) and reduced in turn against the earlier pivot rows
while its least column holds a pivot.  A step is one of two kinds: when the
pivot entry p divides the row's entry f, the row becomes ``row - (f/p)*
pivot_row`` in place, touching only the pivot row's columns (Bareiss's exact
quotient); otherwise it becomes the primitive part of ``p*row - f*pivot_row``.
A row that stays nonzero becomes a pivot at its least column.  Sparse
matrices (the oracle's two-entry rows, the pairing's arrowhead) stay cheap.
No floats anywhere.  ``format_combination`` prints an integer combination
of basis names, for every class type's ``str()``.
"""

from fractions import Fraction
from itertools import compress
from math import gcd, lcm, prod

from .errors import ScheduleError, check


def _width(rows):
    """The common length of the sequence (non-dict) rows, below which every
    dict row's columns must lie; None if there is no sequence row."""
    widths = {len(row) for row in rows if not isinstance(row, dict)}
    if len(widths) > 1:
        raise ScheduleError(f"matrix rows differ in length: {sorted(widths)}")
    if not widths:
        return None
    width = widths.pop()
    if not all(0 <= c < width for row in rows if isinstance(row, dict) for c in row):
        raise ScheduleError(f"a dict row has a column outside range({width})")
    return width


def _integral(row):
    """``row`` as {column: nonzero int} times 1/scale: (dict, scale).  A dict
    of nonzero ints is returned as it is, never copied or changed."""
    if not isinstance(row, dict):
        row = {c: row[c] for c in compress(range(len(row)), row)}
    elif 0 in row.values():
        row = {c: x for c, x in row.items() if x}
    for x in row.values():
        if type(x) is not int:
            break
    else:
        return row, 1
    fr = {c: Fraction(x) for c, x in row.items()}
    scale = lcm(*(x.denominator for x in fr.values()))
    return {c: x.numerator * (scale // x.denominator) for c, x in fr.items()}, scale


def _reduce(row, prow, col, given):
    """Clear ``row`` at ``col`` against ``prow``: (new row, g, p), the new
    row scaling the determinant by p/g.  With p, f the entries at ``col``:
    when p divides f, the exact step ``row - (f/p)*prow`` (g = p = 1), made
    in place unless ``row`` is the caller's dict ``given``, then on a copy;
    else the scaled step, the primitive part of ``p*row - f*prow``."""
    p, f = prow[col], row[col]
    if f % p:
        new = {c: p * x for c, x in row.items()}
    else:
        new, f, p = row.copy() if row is given else row, f // p, 1
    for c, y in prow.items():
        x = new.get(c, 0) - f * y
        if x:
            new[c] = x
        else:
            del new[c]
    g = gcd(*new.values()) if p != 1 else 1
    return ({c: x // g for c, x in new.items()} if g > 1 else new), g, p


def _eliminate(rows, *, determinant=False):
    """Echelon form over Z of an int/Fraction matrix.

    Returns ``(pivots, factor)``: ``pivots`` maps each pivot column to its
    integer row, in the order the rows became pivots; a pivot row holds no
    column below its own.  When ``determinant``, det(input) = factor *
    det(the pivot rows in that order), and a row that reduces to zero stops
    the elimination with factor 0; else factor is ``None``.  Only a scaled
    step (its g/p) and a scaled row (its 1/scale) change the factor, which
    is kept as an integer numerator and denominator until the end.
    """
    pivots, num, den = {}, 1, 1
    for given in rows:
        row, scale = _integral(given)
        while row and (col := min(row)) in pivots:
            row, g, p = _reduce(row, pivots[col], col, given)
            if determinant and p != 1:
                num, den = num * g, den * p
        if row:
            pivots[col] = row
        elif determinant:
            return pivots, Fraction(0)
        if determinant and scale != 1:
            den *= scale
    return pivots, Fraction(num, den) if determinant else None


def bareiss_determinant(rows):
    """Determinant of a square matrix of ints/Fractions; a row is a sequence
    of length n or a dict {column: value} with columns in range(n).

    Computed by the sparse elimination of this module, whose exact step is
    Bareiss's exact quotient; the name stays because callers and tools look
    the function up by it.  The factor g/p of every scaled step is
    recorded, and the sign is that of the permutation taking each row to its
    pivot column, so the result is exact: an int when it is integral, else
    a Fraction.
    """
    n, cols = len(rows), set(range(len(rows)))
    check(all(row.keys() <= cols if isinstance(row, dict) else len(row) == n
              for row in rows), "matrix is not square")
    pivots, factor = _eliminate(rows, determinant=True)
    perm, sign = list(pivots) if factor else [], 1  # singular: det 0
    for i in range(len(perm)):
        while (j := perm[i]) != i:
            perm[i], perm[j], sign = perm[j], j, -sign
    factor *= sign * prod(row[col] for col, row in pivots.items())
    return int(factor) if factor.denominator == 1 else factor


def rank(rows):
    """Rank over Q of a matrix with int/Fraction entries; a row is a
    sequence or a dict {column: value}."""
    _width(rows)
    return len(_eliminate(rows)[0])


def nullspace(rows):
    """Primitive integer basis of {x : A.x = 0} for an int/Fraction matrix A.

    A sequence row fixes the width, so dict rows need one beside them.
    Returned vectors are tuples of ints with content 1 and first nonzero
    entry positive, listed in order of their free column.
    """
    ncols = _width(rows) if rows else 0
    if ncols is None:
        raise ScheduleError("nullspace needs a sequence row to fix the width")
    pivots = _eliminate(rows)[0]
    last_first = sorted(pivots.items(), reverse=True)
    basis = []
    for fc in range(ncols):
        if fc in pivots:
            continue
        # the other free entries 0; back-substitute from the last pivot row
        # up, scaling sol so that each row's p*sol[pc] + s = 0 solves in ints
        sol = {fc: 1}
        for pc, row in last_first:
            s = sum([x * sol[c] for c, x in row.items() if c in sol])
            if s:
                g = gcd(s, p := row[pc])
                if p != g:
                    sol = {c: p // g * x for c, x in sol.items()}
                sol[pc] = -s // g
        v = [sol.get(c, 0) for c in range(ncols)]
        g = gcd(*v) if next(x for x in v if x) > 0 else -gcd(*v)
        basis.append(tuple(x // g for x in v))
    return basis


def left_nullspace(rows):
    """Primitive integer basis of {v : v.A = 0} (nullspace of the transpose);
    the rows are sequences."""
    if any(isinstance(row, dict) for row in rows):
        raise ScheduleError("left_nullspace takes sequence rows, not dict rows")
    _width(rows)
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
