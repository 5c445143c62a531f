"""The integral cohomology ring of a simply connected twistor space over nCP².

The ring is Z[x_1..x_n, w] modulo the relations

    x_i x_j        (i != j)
    x_i^2 - x_j^2
    w^2 + w(x_1 + ... + x_n) + x_1^2

truncated above degree 6 (top class H^6 = Z, so additionally x_1^3 = 0; the
monomial w*x_1^2 generates the top).  The truncation is an independent
relation only when n = 1 — for n >= 2 it already follows, via
x_2(x_1 x_2) - x_1(x_2^2 - x_1^2) = x_1^3.  Each graded piece gets a fixed
basis:

    H^0: 1
    H^2: x_1, ..., x_n, w                -> coeffs (a_1..a_n, b)
    H^4: w*x_1, ..., w*x_n, x_1^2        -> coeffs (c_1..c_n, d)
    H^6: w*x_1^2                         -> coeffs (e,)

The normalization is fixed by the geometry of real twistor fibres: the fibre
class is dual to -x_1^2, which forces the top monomial w*x_1^2 to evaluate
to -1 against the fundamental class.  All consistency anchors (c_1^3,
c_1.c_2, the cube of the half-canonical class) are asserted in tests against
this single choice.

Everything is exact integer arithmetic on immutable values.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .errors import DegreeError, check

__all__ = [
    "CohomologyClass",
    "ChernData",
    "PairingData",
    "chern_numbers",
    "pairing_matrix",
    "pairing_kernel",
    "euler_char_fundamental",
    "cup",
    "evaluate",
    "scalar",
    "x",
    "w",
    "c1_class",
    "c2_class",
    "fundamental_class",
]

_BASIS_LEN = {0: lambda n: 1, 2: lambda n: n + 1, 4: lambda n: n + 1, 6: lambda n: 1}
#: message of every check of a computed value against its closed form
_CLOSED_FORM = "computed {}, closed form {} at n={}"
#: ``linalg``, once ``_linalg`` has imported it: importing this module loads
#: neither it nor the ``fractions`` it needs
linalg = None


def _linalg():
    """The ``linalg`` module, imported by the first pairing or ``str()`` that
    needs it; later calls cost a global lookup, not an import statement."""
    global linalg
    if linalg is None:
        from . import linalg
    return linalg


class CohomologyClass(namedtuple("CohomologyClass", ("n", "degree", "coeffs"))):
    """An element of one graded piece of H*(Z, Z), its coefficients stored
    as a tuple; checked on construction and by ``_make``.

    >>> cup(w(2), w(2))
    CohomologyClass(n=2, degree=4, coeffs=(-1, -1, -1))
    >>> evaluate(cup(w(4), cup(w(4), w(4))))
    -3
    """

    __slots__ = ()

    def __new__(cls, n, degree, coeffs):
        expected = _basis_len(n, degree)
        if len(coeffs) != expected:
            raise DegreeError(
                f"degree-{degree} class over n={n} needs "
                f"{expected} coefficients, got {len(coeffs)}"
            )
        if not set(map(type, coeffs)) <= {int}:
            raise DegreeError(f"coefficients must be ints, got {coeffs}")
        return tuple.__new__(cls, (n, degree, tuple(coeffs)))

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    def __str__(self):
        names = _basis_names(self.n, self.degree)
        return _linalg().format_combination(self.coeffs, names)


def _check_int(name, value, least=1):
    """Raise DegreeError unless ``value`` is an int, not a bool, of at least
    ``least`` (0 or 1)."""
    if type(value) is not int or value < least:
        kind = "a positive" if least else "a non-negative"
        raise DegreeError(f"{name} must be {kind} integer")


def _basis_len(n, degree):
    """The number of basis classes of degree ``degree`` over ``n``."""
    _check_int("n", n)
    if type(degree) is not int or degree not in _BASIS_LEN:
        raise DegreeError(f"degree must be one of 0,2,4,6, got {degree}")
    return _BASIS_LEN[degree](n)


def _basis_names(n, degree):
    if degree == 0:
        return ("1",)
    if degree == 2:
        return tuple(f"x{i}" for i in range(1, n + 1)) + ("w",)
    if degree == 4:
        return tuple(f"w*x{i}" for i in range(1, n + 1)) + ("x1^2",)
    return ("w*x1^2",)


# -- constructors ---------------------------------------------------------

def scalar(n, k):
    return CohomologyClass(n, 0, (k,))


def x(n, i):
    """The generator x_i, 1-based."""
    _check_int("n", n)
    if type(i) is not int or not 1 <= i <= n:
        raise DegreeError(f"x{i!r} does not exist for n={n}")
    coeffs = [0] * (n + 1)
    coeffs[i - 1] = 1
    return CohomologyClass(n, 2, tuple(coeffs))


def w(n):
    return CohomologyClass(n, 2, (0,) * n + (1,))


def c1_class(n):
    """First Chern class 4w + 2*sum(x_i), in degree 2."""
    return CohomologyClass(n, 2, (2,) * n + (4,))


def c2_class(n):
    """Second Chern class -6*x_1^2, in degree 4."""
    return CohomologyClass(n, 4, (0,) * n + (-6,))


def fundamental_class(n):
    """The half-canonical class 2w + sum(x_i); twice it is c_1.

    >>> fundamental_class(4).coeffs
    (1, 1, 1, 1, 2)
    """
    result = CohomologyClass(n, 2, (1,) * n + (2,))
    doubled, c1 = tuple(2 * c for c in result.coeffs), c1_class(n).coeffs
    check(doubled == c1, _CLOSED_FORM, doubled, c1, n, invariant="fundamental-class")
    return result


# -- ring structure -------------------------------------------------------

def cup(a: CohomologyClass, b: CohomologyClass) -> CohomologyClass:
    """Cup product, reduced to the fixed basis.

    Rewrite rules: x_i x_j = 0 (i != j); x_i^2 = x_1^2;
    w^2 = -sum_j(w x_j) - x_1^2; w(w x_i) = -w x_1^2;
    x_j (w x_i) = w x_1^2 if i = j else 0; w x_1^2 stays; x_i x_1^2 = 0.
    """
    if not isinstance(a, CohomologyClass) or not isinstance(b, CohomologyClass):
        raise DegreeError("cup expects two CohomologyClass values")
    if a.n != b.n:
        raise DegreeError("mismatched n")
    total = a.degree + b.degree
    if total > 6:
        raise DegreeError(f"cup product of degrees {a.degree}+{b.degree} exceeds 6")
    n = a.n
    if a.degree == 0 or b.degree == 0:
        (k,), other = (a.coeffs, b) if a.degree == 0 else (b.coeffs, a)
        return CohomologyClass(n, other.degree, tuple(k * c for c in other.coeffs))
    if a.degree == 2 and b.degree == 2:
        *av, ab = a.coeffs
        *bv, bb = b.coeffs
        c = tuple(av[i] * bb + bv[i] * ab - ab * bb for i in range(n))
        d = sum(av[i] * bv[i] for i in range(n)) - ab * bb
        return CohomologyClass(n, 4, c + (d,))
    if {a.degree, b.degree} == {2, 4}:
        two, four = (a, b) if a.degree == 2 else (b, a)
        *av, ab = two.coeffs
        *cv, cd = four.coeffs
        e = sum(av[i] * cv[i] for i in range(n)) - ab * sum(cv) + ab * cd
        return CohomologyClass(n, 6, (e,))
    raise DegreeError(f"no product defined for degrees {a.degree} and {b.degree}")


def evaluate(c: CohomologyClass) -> int:
    """Pair a degree-6 class with the fundamental homology class.

    The basis monomial w*x_1^2 evaluates to -1 (the unique normalization
    under which real twistor fibres, dual to -x_1^2, have degree +1).
    """
    if not isinstance(c, CohomologyClass):
        raise DegreeError("evaluate expects a CohomologyClass")
    if c.degree != 6:
        raise DegreeError(f"evaluate needs a degree-6 class, got degree {c.degree}")
    return -c.coeffs[0]


# -- derived invariants ----------------------------------------------------

ChernData = namedtuple("ChernData", ("c1_cubed", "c1_c2", "c3"))


def chern_numbers(n: int) -> ChernData:
    """Chern numbers (c_1^3, c_1 c_2, c_3) = (16(4-n), 24, 2(n+2)).

    The first two are also recomputed through the ring and checked equal
    on every call; c_3 lives in odd-degree data the ring model does not
    carry, so the closed form is authoritative.
    """
    _check_int("n", n)
    data = ChernData(16 * (4 - n), 24, 2 * (n + 2))
    c1 = c1_class(n)
    cubed, c1_c2 = evaluate(cup(c1, cup(c1, c1))), evaluate(cup(c1, c2_class(n)))
    check(cubed == data.c1_cubed, _CLOSED_FORM, cubed, data.c1_cubed, n,
          invariant="chern-c1-cubed")
    check(c1_c2 == data.c1_c2, _CLOSED_FORM, c1_c2, data.c1_c2, n,
          invariant="chern-c1-c2")
    return data


PairingData = namedtuple("PairingData", ("matrix", "det"))


def _arrowhead(n):
    """The matrix of ``pairing_matrix``, rows as int tuples."""
    _check_int("n", n)
    return tuple(
        (0,) * i + (2,) + (0,) * (n - 1 - i) + (1,) for i in range(n)
    ) + ((-1,) * n + (-2,),)


def pairing_matrix(n: int) -> PairingData:
    """Matrix of (alpha -> alpha cup s) on H^2, s = 2w + sum(x_i).

    Row i is the image of the i-th H^2 basis vector (x_1..x_n, w) written in
    the H^4 basis (w x_1..w x_n, x_1^2); with this row convention the matrix
    is

        ( 2 0 .. 0 | 1 )
        ( 0 2 .. 0 | 1 )        and the signed determinant is
        ( ......... | . )       2^(n-1) * (n - 4).
        ( 0 0 .. 2 | 1 )
        (-1 -1 .. -1|-2 )

    The matrix is written down in this closed form (the tests rebuild it
    from the cups); its determinant is found by fraction-free elimination,
    never floats, and checked against the signed closed form.
    """
    matrix = _arrowhead(n)
    det, closed = _linalg().bareiss_determinant(matrix), 2 ** (n - 1) * (n - 4)
    check(det == closed, _CLOSED_FORM, det, closed, n,
          invariant="pairing-determinant")
    return PairingData(matrix, det)


def pairing_kernel(n: int):
    """Primitive integer generators of {alpha in H^2 : alpha cup s = 0}.

    Empty unless n = 4, where the kernel is spanned by the half-canonical
    class itself, coordinates (1, 1, 1, 1, 2).  Checked on every call: each
    generator v has v.A = 0, and one comes back iff n = 4.
    """
    matrix = _arrowhead(n)
    kernel = tuple(_linalg().left_nullspace(matrix))
    images = [sum(a * b for a, b in zip(v, c)) for v in kernel for c in zip(*matrix)]
    check(len(kernel) == (n == 4) and not any(images),
          "kernel {} at n={}: needs v.A = 0, one vector iff n = 4", kernel, n,
          invariant="pairing-kernel")
    return kernel


def euler_char_fundamental(n: int, m: int) -> int:
    """chi of the m-th power of the half-canonical bundle.

    Riemann-Roch on the twistor space gives m + 1 + 2(4-n)*C(m+2, 3);
    for n = 4 this collapses to m + 1.
    """
    _check_int("n", n)
    _check_int("m", m, 0)
    return m + 1 + 2 * (4 - n) * math.comb(m + 2, 3)

