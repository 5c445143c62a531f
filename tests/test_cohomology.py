"""Ring tests: an independent polynomial-quotient oracle plus anchors.

The oracle rebuilds H*(Z) as Q[x1..xn, w] modulo the ideal

    (x_i x_j for i<j,  x_i^2 - x_1^2,  w^2 + w*sum(x_i) + x_1^2,  x_1^3)

and checks every cup product against Groebner normal forms.  The x_1^3
generator is the top-degree truncation; for n >= 2 it is already a
consequence of the quadratic relations, but for n = 1 it is independent
and must be imposed for H^6 to be a single copy of Z.
"""

import ast
import importlib
import os
import pkgutil
import random
import subprocess
import sys
from pathlib import Path

import pytest
import sympy

from twistor4 import cohomology, linalg
from twistor4.cohomology import (
    c1_class,
    c2_class,
    chern_numbers,
    CohomologyClass,
    cup,
    euler_char_fundamental,
    evaluate,
    fundamental_class,
    pairing_kernel,
    pairing_matrix,
    scalar,
    w,
    x,
)
from twistor4.errors import DegreeError, InvariantError


def _ring(n):
    gens = sympy.symbols(f"x1:{n + 1}") + (sympy.Symbol("w"),)
    xs, ww = gens[:-1], gens[-1]
    ideal = []
    for i in range(n):
        for j in range(i + 1, n):
            ideal.append(xs[i] * xs[j])
    for i in range(1, n):
        ideal.append(xs[i] ** 2 - xs[0] ** 2)
    ideal.append(ww**2 + ww * sum(xs) + xs[0] ** 2)
    ideal.append(xs[0] ** 3)
    basis = sympy.groebner(ideal, *gens, order="grevlex")
    return xs, ww, basis


def _nf(basis, expr):
    return basis.reduce(sympy.expand(expr))[1]


def _to_poly(cls, xs, ww):
    n = cls.n
    if cls.degree == 0:
        return sympy.Integer(cls.coeffs[0])
    if cls.degree == 2:
        return sum(cls.coeffs[i] * xs[i] for i in range(n)) + cls.coeffs[n] * ww
    if cls.degree == 4:
        return (
            sum(cls.coeffs[i] * ww * xs[i] for i in range(n))
            + cls.coeffs[n] * xs[0] ** 2
        )
    return cls.coeffs[0] * ww * xs[0] ** 2


def _random_class(rng, n, degree):
    length = 1 if degree in (0, 6) else n + 1
    return CohomologyClass(
        n, degree, tuple(rng.randint(-5, 5) for _ in range(length))
    )


@pytest.mark.parametrize("n", [2, 4])
def test_cup_matches_groebner_oracle(n):
    xs, ww, basis = _ring(n)
    rng = random.Random(1000 + n)
    combos = [(2, 2), (2, 4), (4, 2), (0, 2), (2, 0), (0, 4), (0, 6), (0, 0)]
    for trial in range(150):
        da, db = combos[trial % len(combos)]
        a = _random_class(rng, n, da)
        b = _random_class(rng, n, db)
        product = cup(a, b)
        assert product.degree == da + db
        diff = _to_poly(a, xs, ww) * _to_poly(b, xs, ww) - _to_poly(
            product, xs, ww
        )
        assert _nf(basis, diff) == 0, (a, b, product)


def test_triple_products_match_groebner_oracle():
    n = 4
    xs, ww, basis = _ring(n)
    rng = random.Random(77)
    for _ in range(60):
        a = _random_class(rng, n, 2)
        b = _random_class(rng, n, 2)
        c = _random_class(rng, n, 2)
        product = cup(cup(a, b), c)
        diff = (
            _to_poly(a, xs, ww) * _to_poly(b, xs, ww) * _to_poly(c, xs, ww)
            - _to_poly(product, xs, ww)
        )
        assert _nf(basis, diff) == 0


@pytest.mark.parametrize("n,implied", [(1, False), (2, True), (4, True)])
def test_top_truncation_independent_only_for_one_summand(n, implied):
    # x2(x1 x2) - x1(x2^2 - x1^2) = x1^3, so for n >= 2 the truncation
    # follows from the quadratic relations; for n = 1 it must be imposed
    gens = sympy.symbols(f"x1:{n + 1}") + (sympy.Symbol("w"),)
    xs, ww = gens[:-1], gens[-1]
    ideal = []
    for i in range(n):
        for j in range(i + 1, n):
            ideal.append(xs[i] * xs[j])
    for i in range(1, n):
        ideal.append(xs[i] ** 2 - xs[0] ** 2)
    ideal.append(ww**2 + ww * sum(xs) + xs[0] ** 2)
    partial = sympy.groebner(ideal, *gens, order="grevlex")
    assert (partial.reduce(xs[0] ** 3)[1] == 0) == implied


def test_cup_commutative_and_associative_seeded():
    rng = random.Random(20260816)
    for _ in range(500):
        n = rng.randint(1, 5)
        a = _random_class(rng, n, 2)
        b = _random_class(rng, n, 2)
        c = _random_class(rng, n, 2)
        assert cup(a, b).coeffs == cup(b, a).coeffs
        assert cup(cup(a, b), c).coeffs == cup(a, cup(b, c)).coeffs


@pytest.mark.parametrize("n", range(1, 9))
def test_w_cubed_evaluates_to_one_minus_n(n):
    assert evaluate(cup(w(n), cup(w(n), w(n)))) == 1 - n


def test_generator_relations():
    n = 4
    assert cup(x(n, 1), x(n, 2)).coeffs == (0,) * (n + 1)
    sq1 = cup(x(n, 1), x(n, 1))
    sq3 = cup(x(n, 3), x(n, 3))
    assert sq1.coeffs == sq3.coeffs
    assert cup(sq1, x(n, 1)).coeffs == (0,)
    # w^2 + w sum(x_i) + x_1^2 == 0
    terms = [cup(w(n), w(n)), sq1] + [cup(w(n), x(n, i)) for i in range(1, n + 1)]
    assert tuple(map(sum, zip(*(t.coeffs for t in terms)))) == (0,) * (n + 1)


@pytest.mark.parametrize("n", range(1, 9))
def test_chern_numbers_closed_forms(n):
    data = chern_numbers(n)
    assert data == (16 * (4 - n), 24, 2 * (n + 2))
    c1, c2 = c1_class(n), c2_class(n)
    assert evaluate(cup(c1, cup(c1, c1))) == data.c1_cubed
    assert evaluate(cup(c1, c2)) == data.c1_c2


@pytest.mark.parametrize("n", range(1, 9))
def test_fundamental_class_is_half_of_c1(n):
    f = fundamental_class(n)
    assert tuple(2 * c for c in f.coeffs) == c1_class(n).coeffs
    assert evaluate(cup(f, cup(f, f))) == 2 * (4 - n)
    assert f.coeffs[-1] == 2


@pytest.mark.parametrize("n", range(1, 11))
def test_pairing_determinant_closed_form(n):
    matrix, det = pairing_matrix(n)
    assert abs(det) == 2 ** (n - 1) * abs(n - 4)
    assert det == sympy.Matrix([list(r) for r in matrix]).det()


def test_pairing_matrix_layout_small_n():
    matrix, det = pairing_matrix(2)
    assert matrix == ((2, 0, 1), (0, 2, 1), (-1, -1, -2))
    assert det == -4


def test_pairing_matrix_is_the_cup_matrix_up_to_150():
    # oracle: row i is the i-th H^2 basis vector cupped with s = 2w + sum(x_i)
    for n in range(1, 151):
        s = fundamental_class(n)
        basis = [x(n, i) for i in range(1, n + 1)] + [w(n)]
        cups = tuple(cup(alpha, s).coeffs for alpha in basis)
        assert pairing_matrix(n).matrix == cups, n


def test_pairing_kernel_only_at_four():
    assert pairing_kernel(4) == ((1, 1, 1, 1, 2),)
    for n in (1, 2, 3, 5, 6, 7, 8, 9, 10, 40, 80):
        assert pairing_kernel(n) == ()


def test_kernel_vector_kills_the_pairing():
    matrix, _ = pairing_matrix(4)
    v = pairing_kernel(4)[0]
    for j in range(len(matrix[0])):
        assert sum(v[i] * matrix[i][j] for i in range(len(matrix))) == 0


def test_pairing_kernel_checks_its_output_and_skips_the_determinant(monkeypatch):
    # the kernel never computes the determinant; a wrong vector, a missing
    # one at n = 4 or an extra one elsewhere trips its own check
    monkeypatch.setattr(linalg, "bareiss_determinant", None)
    assert pairing_kernel(4) == ((1, 1, 1, 1, 2),) and pairing_kernel(80) == ()
    for n, kernel in ((4, [(1, 1, 1, 1, 3)]), (4, []), (5, [(1,) * 6]),
                      (4, [(1, 1, 1, 1, 2)] * 2)):
        monkeypatch.setattr(linalg, "left_nullspace", lambda rows: kernel)
        with pytest.raises(InvariantError) as err:
            pairing_kernel(n)
        assert err.value.tag == "invariant-pairing-kernel"
        assert str(err.value).endswith(f"at n={n}: needs v.A = 0, one vector iff n = 4")


# -- invariants are explicit raises ------------------------------------------------

def test_chern_and_fundamental_class_checks_raise(monkeypatch):
    monkeypatch.setattr(cohomology, "evaluate", lambda c: 7)
    with pytest.raises(InvariantError) as err:
        chern_numbers(3)
    assert err.value.tag == "invariant-chern-c1-cubed"
    monkeypatch.setattr(cohomology, "c1_class", lambda n: w(n))
    with pytest.raises(InvariantError) as err:
        fundamental_class(4)
    assert err.value.tag == "invariant-fundamental-class"


def test_invariants_survive_python_O():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    script = (
        "from twistor4 import cohomology, linalg\n"
        "from twistor4.acceptance import golden_case_a\n"
        "from twistor4.classify import check_report, classify, "
        "model_from_schedule\n"
        "from twistor4.errors import InvariantError\n"
        "assert False, 'asserts are on'\n"
        "good = classify(model_from_schedule(golden_case_a()))\n"
        "bad = good._replace(algebraic_dimension=0)\n"
        "try:\n"
        "    check_report(bad)\n"
        "except InvariantError as exc:\n"
        "    print(exc.tag)\n"
        "linalg.bareiss_determinant = lambda rows: 4\n"
        "try:\n"
        "    cohomology.pairing_matrix(2)\n"
        "except InvariantError as exc:\n"
        "    print(exc.tag)\n"
    )
    result = subprocess.run([sys.executable, "-O", "-c", script],
                            capture_output=True, env=env, check=True)
    assert result.stdout == (
        b"invariant-report-dimension-bound\ninvariant-pairing-determinant\n"
    )


def test_no_module_imports_another_modules_private_helpers():
    # a module's underscore names are its own: no sibling imports them or
    # reads them off the module object
    package = Path(cohomology.__file__).parent
    offenders = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        siblings = set()
        for node in ast.walk(tree):
            if not isinstance(node, ast.ImportFrom) or not (
                    node.level or (node.module or "").startswith("twistor4")):
                continue
            for alias in node.names:
                if node.module in (None, "twistor4"):  # from . import module
                    siblings.add(alias.asname or alias.name)
                elif alias.name.startswith("_"):
                    offenders.append(f"{path.name}:{node.lineno} {alias.name}")
        offenders += [
            f"{path.name}:{node.lineno} {node.value.id}.{node.attr}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id in siblings and node.attr.startswith("_")
            and not node.attr.endswith("__")
        ]
    assert offenders == []


def test_package_has_no_assert_statements():
    # every check must survive ``python -O``, so none may be an assert
    package = Path(cohomology.__file__).parent
    offenders = [
        f"{path.name}:{node.lineno}"
        for path in sorted(package.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert offenders == []


def test_cli_has_one_output_path():
    # results are printed by ``_emit`` alone and diagnoses by ``main``;
    # infinity is encoded once, by ``ClassificationReport.as_dict``
    path = Path(cohomology.__file__).parent / "cli.py"
    callers = {}
    for top in ast.parse(path.read_text(encoding="utf-8")).body:
        for node in ast.walk(top):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "attr", getattr(node.func, "id", None))
                callers.setdefault(name, []).append(getattr(top, "name", None))
            elif isinstance(node, (ast.Name, ast.Attribute)):
                assert "encode_infinite" not in (
                    getattr(node, "id", None), getattr(node, "attr", None))
    assert callers["canonical_json"] == ["_emit"]
    assert set(callers["print"]) == {"_emit", "main"}


def test_euler_char_fundamental():
    for m in range(0, 51):
        assert euler_char_fundamental(4, m) == m + 1
    assert euler_char_fundamental(4, 5) == 6
    for n in range(1, 9):
        for m in range(0, 12):
            assert (
                euler_char_fundamental(n, m)
                == m + 1 + 2 * (4 - n) * ((m + 2) * (m + 1) * m) // 6
            )
    with pytest.raises(DegreeError):
        euler_char_fundamental(0, 1)
    with pytest.raises(DegreeError):
        euler_char_fundamental(4, -1)


def test_cup_degree_overflow_errors():
    n = 3
    deg4 = cup(w(n), w(n))
    with pytest.raises(DegreeError):
        cup(deg4, deg4)
    top = cup(deg4, w(n))
    with pytest.raises(DegreeError):
        cup(top, w(n))


def test_cup_distinct_n_errors():
    with pytest.raises(DegreeError):
        cup(w(2), w(3))


def test_evaluate_needs_top_degree():
    with pytest.raises(DegreeError):
        evaluate(w(2))
    assert evaluate(CohomologyClass(2, 6, (1,))) == -1


def test_generator_index_bounds():
    with pytest.raises(DegreeError):
        x(3, 0)
    with pytest.raises(DegreeError):
        x(3, 4)


def test_class_validation():
    with pytest.raises(DegreeError):
        CohomologyClass(2, 3, (0, 0, 0))
    with pytest.raises(DegreeError):
        CohomologyClass(2, 2, (1, 2))  # needs n+1 coefficients
    assert CohomologyClass(2, 4, [0, 0, 0]).coeffs == (0, 0, 0)


@pytest.mark.parametrize("call", [
    lambda: CohomologyClass(1, 0, (0.5,)),
    lambda: CohomologyClass(1, 0, (True,)),
    lambda: CohomologyClass(1.0, 0, (1,)),
    lambda: CohomologyClass(True, 0, (1,)),
    lambda: CohomologyClass(1, 2.0, (0, 1)),
    lambda: CohomologyClass(1, False, (1,)),
    lambda: pairing_matrix(2.0),
    lambda: pairing_matrix(True),
    lambda: chern_numbers(4.0),
    lambda: euler_char_fundamental(4.0, 1),
    lambda: euler_char_fundamental(4, 1.5),
    lambda: euler_char_fundamental(4, 1.0),
    lambda: euler_char_fundamental(4, True),
    lambda: x(2, True),
    lambda: x(2, 1.0),
    lambda: x(2.0, 1),
    lambda: x(True, 1),
    # every deliberate raise is a TwistorError, also for a non-class argument
    lambda: cup(w(2), (0, 0, 1)),
    lambda: cup(1, w(2)),
    lambda: evaluate(-1),
    lambda: evaluate((1,)),
], ids=["coeff-float", "coeff-bool", "n-float", "n-bool", "degree-float",
        "degree-bool", "pairing-float", "pairing-bool", "chern-float",
        "euler-float", "euler-m-fraction", "euler-m-float", "euler-m-bool",
        "x-i-bool", "x-i-float", "x-n-float", "x-n-bool", "cup-tuple", "cup-int",
        "evaluate-int", "evaluate-tuple"])
def test_bad_library_arguments_raise_degree_error(call):
    # an integer argument is checked, never truncated, and a bool is no int
    with pytest.raises(DegreeError):
        call()


def test_scalar_action_is_cup_in_degree_zero():
    a = CohomologyClass(2, 2, (1, 1, 0))
    assert cup(scalar(2, 3), a).coeffs == (3, 3, 0)
    assert cup(a, scalar(2, -1)).coeffs == (-1, -1, 0)
    assert cup(scalar(2, 2), scalar(2, 3)) == scalar(2, 6)
    with pytest.raises(DegreeError):
        cup(scalar(2, 1), w(3))


def test_the_ring_has_no_arithmetic_operators():
    # classes combine only through cup; chern_numbers recomputes every call
    deleted = ("__add__", "__sub__", "__neg__", "__mul__", "__rmul__",
               "__matmul__", "is_zero", "_check_compatible")
    assert [name for name in deleted if name in vars(CohomologyClass)] == []
    assert not hasattr(cohomology, "zero")
    assert not hasattr(chern_numbers, "cache_clear")


def test_doctests():
    # the examples in every module's docstrings run as written
    import doctest

    package = Path(cohomology.__file__).parent
    for info in pkgutil.iter_modules([str(package)]):
        mod = importlib.import_module(f"twistor4.{info.name}")
        failures, _ = doctest.testmod(mod)
        assert failures == 0, info.name
