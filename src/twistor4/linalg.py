"""Exact linear algebra over Z and Q.

A matrix is a list of dict rows ``{column: int or Fraction}`` and a width:
every column is an int in ``range(width)`` and a missing one is 0; each
entry point refuses any other row, column or width with a ScheduleError.
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
from math import gcd, lcm, prod

from .errors import check


#: the refusal of a row, formatted with the width
_ROW = "a row is not a dict of int columns in range({})"


def _check_width(width):
    check(type(width) is int and width >= 0,
          "matrix width {!r} is not a non-negative int", width)


def _integral(row, width, message=_ROW):
    """``row`` as {column: nonzero int} times 1/scale: (dict, scale), refused
    with ``message`` unless it is a dict of int columns in range(width).  A
    dict of nonzero ints is returned as it is, never copied or changed."""
    if type(row) is dict:
        for c, x in row.items():
            if type(x) is not int or not x or type(c) is not int or not 0 <= c < width:
                break
        else:
            return row, 1
    check(type(row) is dict and all(type(c) is int and 0 <= c < width for c in row),
          message, width)
    fr = {c: Fraction(x) for c, x in row.items() if x}
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


def _eliminate(rows, width, *, determinant=False, message=_ROW):
    """Echelon form over Z of dict rows with int/Fraction values, each row
    refused with ``message`` unless its columns lie in range(width).

    Returns ``(pivots, factor)``: ``pivots`` maps each pivot column to its
    integer row, in the order the rows became pivots; a pivot row holds no
    column below its own.  When ``determinant``, det(input) = factor *
    det(the pivot rows in that order), and a zero row makes the factor 0
    (the later rows are then only checked); else factor is ``None``.  Only
    a scaled step (its g/p) and a scaled row (its 1/scale) change the
    factor, kept as an integer numerator and denominator until the end.
    """
    _check_width(width)
    pivots, num, den = {}, 1, 1
    for given in rows:
        row, scale = _integral(given, width, message)
        if not num:
            continue
        while row and (col := min(row)) in pivots:
            row, g, p = _reduce(row, pivots[col], col, given)
            if determinant and p != 1:
                num, den = num * g, den * p
        if row:
            pivots[col] = row
        elif determinant:
            num = 0
        if determinant and scale != 1:
            den *= scale
    return pivots, Fraction(num, den) if determinant else None


def bareiss_determinant(rows):
    """Determinant of the square matrix of n dict rows, width n.

    Computed by the sparse elimination of this module, whose exact step is
    Bareiss's exact quotient; the name stays because callers and tools look
    the function up by it.  The factor g/p of every scaled step is
    recorded, and the sign is that of the permutation taking each row to its
    pivot column, so the result is exact: an int when it is integral, else
    a Fraction.
    """
    pivots, factor = _eliminate(rows, len(rows), determinant=True,
                                message="matrix is not square: " + _ROW)
    perm, sign = list(pivots) if factor else [], 1  # singular: det 0
    for i in range(len(perm)):
        while (j := perm[i]) != i:
            perm[i], perm[j], sign = perm[j], j, -sign
    factor *= sign * prod(row[col] for col, row in pivots.items())
    return int(factor) if factor.denominator == 1 else factor


def rank(rows, width):
    """Rank over Q of the matrix of the rows."""
    return len(_eliminate(rows, width)[0])


def nullspace(rows, width):
    """Primitive integer basis of {x : A.x = 0}, A the matrix of the rows.

    Returned vectors are tuples of ints of length ``width``, with content 1
    and first nonzero entry positive, listed in order of their free column.
    """
    pivots = _eliminate(rows, width)[0]
    last_first = sorted(pivots.items(), reverse=True)
    basis = []
    for fc in range(width):
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
        v = [sol.get(c, 0) for c in range(width)]
        g = gcd(*v) if next(x for x in v if x) > 0 else -gcd(*v)
        basis.append(tuple(x // g for x in v))
    return basis


def left_nullspace(rows, width):
    """Primitive integer basis of {v : v.A = 0}: the nullspace of A^T."""
    _check_width(width)
    columns = [{} for _ in range(width)]
    for i, row in enumerate(rows):
        _integral(row, width)  # refuses a bad row before its columns index
        for c, x in row.items():
            columns[c][i] = x
    return nullspace(columns, len(rows))


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
