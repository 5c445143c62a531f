"""Cross-checks of the exact linear algebra against sympy."""

import ast
import copy
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
import sympy

from twistor4 import linalg
from twistor4.cohomology import CohomologyClass, pairing_matrix
from twistor4.errors import ScheduleError
from twistor4.lattice import SurfaceLattice
from twistor4.linalg import bareiss_determinant, left_nullspace, nullspace, rank


def _random_matrix(rng, rows, cols, lo=-6, hi=6):
    return [[rng.randint(lo, hi) for _ in range(cols)] for _ in range(rows)]


def _sparse(m, keep_zero=lambda: False):
    """The dense matrix ``m`` as (dict rows, width): each row its nonzero
    entries, and a zero only where ``keep_zero()`` says so."""
    rows = [{c: x for c, x in enumerate(row) if x or keep_zero()} for row in m]
    return rows, len(m[0]) if m else 0


def _dense(rows, width):
    return [[row.get(c, 0) for c in range(width)] for row in rows]


def test_determinant_matches_sympy():
    rng = random.Random(20260816)
    for _ in range(120):
        n = rng.randint(1, 6)
        m = _random_matrix(rng, n, n)
        assert bareiss_determinant(_sparse(m)[0]) == int(sympy.Matrix(m).det())


def test_determinant_empty_and_nonsquare():
    assert bareiss_determinant([]) == 1
    with pytest.raises(ValueError):
        # two rows with a third column: [[1, 3, 5], [2, 4, 6]]
        bareiss_determinant([{0: 1, 1: 3, 2: 5}, {0: 2, 1: 4, 2: 6}])


def test_determinant_rational_entries():
    m = [{0: Fraction(1, 2), 1: Fraction(1, 3)}, {0: Fraction(1, 4), 1: Fraction(1, 5)}]
    assert bareiss_determinant(m) == Fraction(1, 10) - Fraction(1, 12)


def test_rank_matches_sympy():
    rng = random.Random(7)
    for _ in range(120):
        r = rng.randint(1, 5)
        c = rng.randint(1, 5)
        m = _random_matrix(rng, r, c, lo=-3, hi=3)
        assert rank(*_sparse(m)) == sympy.Matrix(m).rank()


def test_rank_with_fractions():
    m = [{0: Fraction(1, 2), 1: 1}, {0: Fraction(1, 4), 1: Fraction(1, 2)}]
    assert rank(m, 2) == 1


def test_nullspace_matches_sympy_dimension_and_membership():
    rng = random.Random(99)
    for _ in range(80):
        r = rng.randint(1, 4)
        c = rng.randint(1, 5)
        m = _random_matrix(rng, r, c, lo=-3, hi=3)
        basis = nullspace(*_sparse(m))
        assert len(basis) == c - sympy.Matrix(m).rank()
        for v in basis:
            image = sympy.Matrix(m) * sympy.Matrix(v)
            assert all(entry == 0 for entry in image)


def test_nullspace_vectors_are_primitive_integer():
    singular = [
        [2, 0, 0, 0, 1],
        [0, 2, 0, 0, 1],
        [0, 0, 2, 0, 1],
        [0, 0, 0, 2, 1],
        [-1, -1, -1, -1, -2],
    ]
    basis = nullspace(*_sparse(singular))
    assert len(basis) == 1
    for v in basis:
        assert all(isinstance(c, int) for c in v)
        from math import gcd
        g = 0
        for c in v:
            g = gcd(g, c)
        assert g == 1
        first = next(c for c in v if c != 0)
        assert first > 0


def test_left_nullspace_is_nullspace_of_transpose():
    m = [[1, 2, 3], [2, 4, 6]]
    for v in left_nullspace(*_sparse(m)):
        assert all(
            sum(v[i] * m[i][j] for i in range(len(m))) == 0
            for j in range(len(m[0]))
        )
    assert len(left_nullspace(*_sparse(m))) == 1


# -- the one elimination, against sympy, on the shapes its callers meet --------

def _entry(rng, density, fractions):
    if rng.random() >= density:
        return 0
    value = rng.choice([v for v in range(-9, 10) if v])
    return Fraction(value, rng.randint(1, 6)) if fractions else value


def _matrices(seed, count):
    """Seeded matrices up to 25x25, two in three sparse (about 10% nonzero)
    and the rest half full: square, singular square, wide, tall, and with
    a zero row and a zero column; every other one has Fraction entries.
    Yields (kind, matrix)."""
    rng = random.Random(seed)
    for index in range(count):
        kind = ("square", "singular", "wide", "tall", "zero-lines")[index % 5]
        fractions = index % 2 == 1
        density = 0.1 if index % 3 else 0.5
        r = rng.randint(2, 25)
        c = {"wide": rng.randint(r, 25), "tall": rng.randint(1, r)}.get(kind, r)
        m = [[_entry(rng, density, fractions) for _ in range(c)] for _ in range(r)]
        if kind == "singular":
            # row i becomes a combination of two other rows
            i = rng.randrange(r)
            j, k = (rng.choice([x for x in range(r) if x != i]) for _ in range(2))
            f = rng.randint(-3, 3)
            m[i] = [f * a + b for a, b in zip(m[j], m[k])]
        if kind == "zero-lines":
            m[rng.randrange(r)] = [0] * c
            col = rng.randrange(c)
            for row in m:
                row[col] = 0
        yield kind, m


def _sympy(m):
    return sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in row]
                         for row in m])


def _primitive(vector):
    """A rational vector scaled to integers with content 1 and its first
    nonzero entry positive."""
    fr = [Fraction(int(x.p), int(x.q)) for x in vector]
    scale = math.lcm(*(x.denominator for x in fr))
    ints = [int(x * scale) for x in fr]
    g = math.gcd(*ints)
    if next(x for x in ints if x) < 0:
        g = -g
    return tuple(x // g for x in ints)


def test_determinant_matches_sympy_on_sparse_singular_and_rational():
    for kind, m in _matrices(4101, 60):
        if kind in ("wide", "tall"):
            continue
        got = bareiss_determinant(_sparse(m)[0])
        want = _sympy(m).det()
        assert got == Fraction(int(want.p), int(want.q)), (kind, m)
        assert type(got) is int or got.denominator > 1
        if kind in ("singular", "zero-lines"):
            assert got == 0


def test_rank_matches_sympy_on_every_shape():
    for kind, m in _matrices(4102, 60):
        assert rank(*_sparse(m)) == len(_sympy(m).rref()[1]), (kind, m)


def test_nullspace_equals_sympy_up_to_primitive_normalization():
    for kind, m in _matrices(4103, 60):
        want = [_primitive(v) for v in _sympy(m).nullspace()]
        assert nullspace(*_sparse(m)) == want, (kind, m)


def test_zero_and_empty_shapes():
    assert rank([], 0) == 0 and nullspace([], 0) == [] and left_nullspace([], 0) == []
    assert nullspace([{}], 3) == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    # a left nullspace vector has one entry per row, whatever the width
    assert left_nullspace([], 3) == [] and left_nullspace([{}], 0) == [(1,)]
    zeros = dict.fromkeys(range(3), 0)
    assert rank([zeros, zeros], 3) == 0 and left_nullspace([zeros, {}], 3) == [(1, 0), (0, 1)]
    assert bareiss_determinant([{1: 1}, {1: 2}]) == 0
    swapped = [{1: 1}, {0: 1}]
    assert bareiss_determinant(swapped) == -1
    assert nullspace(swapped, 2) == [] and swapped == [{1: 1}, {0: 1}]
    assert bareiss_determinant([{0: Fraction(2, 3)}]) == Fraction(2, 3)


def test_rank_on_dict_rows_equals_rank_on_the_dense_rows():
    # the same matrices given with only their nonzero entries, with some
    # zeros kept explicit, and with every column explicit; no input is changed
    rng = random.Random(4104)
    for kind, m in _matrices(4104, 60):
        sparse, width = _sparse(m)
        some_zeros, _ = _sparse(m, lambda: rng.random() < 0.3)
        dense, _ = _sparse(m, lambda: True)
        before = copy.deepcopy((sparse, some_zeros, dense))
        assert rank(sparse, width) == rank(some_zeros, width) == rank(dense, width), (kind, m)
        assert (sparse, some_zeros, dense) == before


@pytest.mark.parametrize("call,rows", [
    (rank, [[1], [2, 3]]),
    (rank, [[1, 2], [3]]),
    (rank, [{0: 1}, [1, 2], [3]]),
    (nullspace, [[0, 1], [2]]),
    (nullspace, [[1, 2, 3], [4, 5]]),
    (left_nullspace, [[1, 2], [3]]),
    (left_nullspace, [[1], [2, 3]]),
])
def test_ragged_rows_are_refused_with_a_tag(call, rows):
    # a row is a dict: sequence rows, ragged or not, are refused whole
    width = max(map(len, rows))
    with pytest.raises(ScheduleError, match=rf"not a dict of int columns in range\({width}\)"):
        call(rows, width)


def _refusals():
    """(entry point, its arguments, message) for each bad width and column."""
    widths = [(-1, "-1"), (2.0, r"2\.0"), (True, "True"), (None, "None")]
    # every column is an int in range(width), the number of rows, so that
    # the determinant sees the same matrix; -1 once sent its sign loop round
    # forever; 1.0, True and "0" name a column but are no int
    columns = [("minus-1", [{-1: 1}]), ("past-width", [{0: 1}, {2: 1}]),
               ("float", [{0: 1, 1.0: 1}, {1: 1}]), ("bool", [{True: 1}]),
               ("str", [{"0": 1}])]
    for call in (rank, nullspace, left_nullspace):
        for width, shown in widths:
            yield pytest.param(call, ([{0: 1}], width),
                               f"matrix width {shown} is not a non-negative int",
                               id=f"{call.__name__}-width-{width!r}")
    for call in (rank, nullspace, left_nullspace, bareiss_determinant):
        for name, rows in columns:
            args = (rows,) if call is bareiss_determinant else (rows, len(rows))
            yield pytest.param(call, args, rf"int columns in range\({len(rows)}\)",
                               id=f"{call.__name__}-column-{name}")


@pytest.mark.parametrize("call,args,message", _refusals())
def test_a_bad_width_or_column_is_refused_with_a_tag(call, args, message):
    before = copy.deepcopy(args)
    with pytest.raises(ScheduleError, match=message):
        call(*args)
    assert args == before


def test_the_refusals_hold_under_python_O():
    # every refusal is an explicit raise through errors.check, not an assert
    src = Path(linalg.__file__).resolve().parents[1]
    script = (
        "from twistor4.errors import ScheduleError\n"
        "from twistor4.linalg import bareiss_determinant, left_nullspace, nullspace, rank\n"
        "assert False, 'asserts are on'\n"
        "for call in (lambda: rank([{0: 1}], -1), lambda: nullspace([{-1: 1}], 1),\n"
        "             lambda: left_nullspace([{1.0: 1}], 2), lambda: bareiss_determinant([{-1: 1}]),\n"
        "             lambda: rank([[1, 2]], 2)):\n"
        "    try:\n"
        "        call()\n"
        "    except ScheduleError:\n"
        "        print('refused')\n"
    )
    env = dict(os.environ, PYTHONPATH=str(src))
    result = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True,
                            text=True, env=env, check=True, timeout=60)
    assert result.stdout.split() == ["refused"] * 5


def test_linalg_has_one_row_type():
    # every entry point takes dict rows and a width: no branch on the row
    # type, no width read off sequence rows, no dense-row scan
    tree = ast.parse(Path(linalg.__file__).read_text(encoding="utf-8"))
    offenders = [
        f"linalg.py:{node.lineno}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        and node.func.id == "isinstance"
        and any(isinstance(arg, ast.Name) and arg.id == "dict"
                for arg in ast.walk(node.args[1]))
        or isinstance(node, ast.Name) and node.id in ("_width", "compress")
        or isinstance(node, ast.FunctionDef) and node.name == "_width"
        or isinstance(node, ast.alias) and node.name == "compress"
    ]
    assert offenders == []


# -- the two step kinds: exact quotient and scaled ----------------------------

def _arrowhead(n):
    """The pairing matrix at n as dict rows: {i: 2, n: 1}, then -1s and -2."""
    last = dict.fromkeys(range(n), -1)
    last[n] = -2
    return [{i: 2, n: 1} for i in range(n)] + [last]


def _unit_lower(rng, n, cols):
    """An n x cols matrix, 1 on the diagonal and 0 above it: every pivot is 1."""
    return [[rng.randint(-9, 9) if c < r else int(c == r) for c in range(cols)]
            for r in range(n)]


def _odd_below_twos(rng, n, cols):
    """n - 1 rows with pivot 2 and odd entries to its right, then a row of odd
    entries: every step has p = 2 and an odd f, and leaves its row odd."""
    def odd():
        return rng.choice([-1, 1]) * rng.randrange(1, 10, 2)
    return [[0] * r + [2] + [odd() for _ in range(cols - r - 1)]
            for r in range(n - 1)] + [[odd() for _ in range(cols)]]


def _exact_quotient_matrices(seed):
    """Yields (kind, dict rows, width)."""
    rng = random.Random(seed)
    for n in (1, 2, 3, 4, 5, 9, 17):
        yield "arrowhead", _arrowhead(n), n + 1
    for _ in range(20):
        n = rng.randint(1, 12)
        yield "unit-lower", *_sparse(_unit_lower(rng, n, rng.randint(n, n + 3)))


def _scaled_matrices(seed):
    """Yields (kind, dict rows, width)."""
    rng = random.Random(seed)
    for _ in range(20):
        n = rng.randint(2, 12)
        yield "odd-below-twos", *_sparse(_odd_below_twos(rng, n, rng.randint(n, n + 3)))


@pytest.mark.parametrize("family", [_exact_quotient_matrices, _scaled_matrices])
def test_both_step_kinds_match_sympy(family):
    for kind, rows, width in family(4105):
        want = _sympy(_dense(rows, width))
        assert rank(rows, width) == want.rank(), (kind, rows)
        assert nullspace(rows, width) == [_primitive(v) for v in want.nullspace()]
        if want.is_square:
            assert bareiss_determinant(rows) == int(want.det()), (kind, rows)


@pytest.fixture
def steps(monkeypatch):
    """Counts of the elimination's steps and of the gcds they take."""
    calls = {"_reduce": 0, "gcd": 0}
    for name in calls:
        def spy(*args, _real=getattr(linalg, name), _name=name):
            calls[_name] += 1
            return _real(*args)
        monkeypatch.setattr(linalg, name, spy)
    return calls


def test_the_exact_quotient_step_takes_no_gcd(steps):
    # a unit pivot divides every entry, so no step scales its row; the
    # arrowhead's last row is scaled once (f = -1, p = 2), then every f is -2
    for kind, rows, width in _exact_quotient_matrices(4106):
        calls = [(rank, (rows, width))]
        if len(rows) == width:
            calls.append((bareiss_determinant, (rows,)))
        for call, args in calls:
            steps.update(_reduce=0, gcd=0)
            call(*args)
            assert steps["gcd"] == (kind == "arrowhead"), (kind, call.__name__)
    steps.update(_reduce=0, gcd=0)
    bareiss_determinant(_arrowhead(150))
    assert steps == {"_reduce": 150, "gcd": 1}


def test_the_scaled_step_takes_one_gcd_each(steps):
    for kind, rows, width in _scaled_matrices(4107):
        steps.update(_reduce=0, gcd=0)
        rank(rows, width)
        assert steps["gcd"] == steps["_reduce"] > 0, (kind, rows)


def test_no_entry_point_changes_its_input():
    # the exact step works in place, on a copy when the row is the caller's
    rng = random.Random(4108)
    matrices = [(rows, width) for _, rows, width in _exact_quotient_matrices(4109)]
    matrices += [(rows, width) for _, rows, width in _scaled_matrices(4110)]
    matrices += [_sparse(m) for _, m in _matrices(4111, 20)]
    for rows, width in matrices:
        some_zeros, _ = _sparse(_dense(rows, width), lambda: rng.random() < 0.3)
        for given in (rows, some_zeros):
            before = copy.deepcopy(given)
            calls = [(rank, (given, width)), (nullspace, (given, width)),
                     (left_nullspace, (given, width))]
            if len(given) == width:
                calls.append((bareiss_determinant, (given,)))
            for call, args in calls:
                call(*args)
                assert given == before, (call.__name__, given)
    row = {0: 1, 1: 2}
    assert bareiss_determinant([row, row]) == 0 and row == {0: 1, 1: 2}
    assert rank([row, {0: 3, 1: 1}, row], 2) == 2 and row == {0: 1, 1: 2}


def test_a_dict_row_outside_the_square_is_refused():
    # judged by its length alone, the first row would pass (det 1, column 2
    # ignored) and the column -1 would send the sign loop round forever; a
    # zero row ends the elimination but not the check, and a column holding
    # an explicit 0 is checked too
    for rows in ([{0: 1, 2: 1}, {1: 1, 0: 1}], [{-1: 1}],
                 [{0: 1}, {0: 1, 1: 2, 2: 3}], [{}, {-1: 1}], [{0: 1, 2: 0}, {1: 1}]):
        with pytest.raises(ScheduleError, match="matrix is not square"):
            bareiss_determinant(rows)


# -- the pairing: an arrowhead matrix, almost every entry zero ------------------

def test_pairing_determinant_is_the_signed_closed_form_up_to_150():
    for n in range(1, 151):
        assert pairing_matrix(n).det == 2 ** (n - 1) * (n - 4), n


# -- printing a class: one term printer for divisors and cohomology ------------

def test_str_of_a_class():
    l1, l2 = SurfaceLattice(1), SurfaceLattice(2)
    table = [
        (l2.zero(), "0"),
        (SurfaceLattice(0).divisor(0, -1), "-f"),
        (l2.divisor(-1, 0, (0, 0, 0, 1)), "-l + E4"),
        (l2.divisor(-3, 2, (1, -1, 0, -2)), "-3*l + 2*f + E1 - E2 - 2*E4"),
        (l2.divisor(1, 1), "l + f"),
        (l1.divisor(0, 1, (-1,)), "f - E1"),
        (l1.divisor(0, 0, (0, 12)), "12*E2"),
        (CohomologyClass(3, 2, (0, 0, 0, 0)), "0"),
        (CohomologyClass(4, 0, (0,)), "0"),
        (CohomologyClass(4, 0, (-1,)), "-1"),
        (CohomologyClass(4, 0, (1,)), "1"),
        (CohomologyClass(4, 0, (3,)), "3"),
        (CohomologyClass(2, 0, (-12,)), "-12"),
        (CohomologyClass(2, 4, (-1, -1, -1)), "-w*x1 - w*x2 - x1^2"),
        (CohomologyClass(2, 2, (2, 2, 4)), "2*x1 + 2*x2 + 4*w"),
        (CohomologyClass(3, 2, (0, -1, 5, -2)), "-x2 + 5*x3 - 2*w"),
        (CohomologyClass(2, 4, (1, 0, -7)), "w*x1 - 7*x1^2"),
        (CohomologyClass(1, 6, (3,)), "3*w*x1^2"),
        (CohomologyClass(1, 6, (-1,)), "-w*x1^2"),
    ]
    for value, text in table:
        assert str(value) == text, value
