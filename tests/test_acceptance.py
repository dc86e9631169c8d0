"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Everything is exact arithmetic, so every comparison below is equality with
zero tolerance.  Run with `pytest tests/test_acceptance.py -v -s` to see the
per-criterion lines.
"""

from itertools import product

from dp3ring import cox, ore, thcr, verify
from dp3ring.cyclotomic import CycNum
from dp3ring.ncpoly import XY, parse
from dp3ring.picard import (
    DivisorClass,
    K,
    MINUS_K,
    chi,
    h0_formula,
    intersect,
    is_ample,
    rotate_class,
    rotate_class_power,
    rotation_eigensystem,
    twist_divisor,
    vanishing_criterion,
)


def _report(number: int, name: str, problems: list[str]) -> None:
    status = "FAIL" if problems else "PASS"
    print(f"acceptance criterion {number:02d} ({name}): {status}")
    assert not problems, f"criterion {number} ({name}): " + "; ".join(problems)


def test_criterion_01_hilbert_series():
    problems = []
    cap = 24
    series = [1] + [0] * cap
    for step in (1, 2, 3):
        for n in range(step, cap + 1):
            series[n] += series[n - step]
    counted = [len(ore.pbw_basis(n)) for n in range(cap + 1)]
    if counted != series:
        problems.append(f"counts {counted} != series {series}")
    if counted[:7] != [1, 1, 2, 3, 4, 5, 7]:
        problems.append(f"low-degree counts are {counted[:7]}")
    _report(1, "hilbert series", problems)


def test_criterion_02_defining_relations():
    problems = []
    for text in ("x^5 - y*x*y", "y^2 - x*y*x", "x^6 - y^3"):
        if not ore.xy_to_pbw(parse(text, XY)).is_zero:
            problems.append(f"{text} does not vanish")
    # the full conversion chain once more with explicit generator images
    from dp3ring.ncpoly import WZX

    big_y = parse("w + x^2", WZX)
    x = parse("x", WZX)
    if not ore.normal_form(big_y * x * big_y - x**5).is_zero:
        problems.append("YxY != x^5 for Y = w + x^2")
    if not ore.commutes_with_generators(parse("x^6", XY)):
        problems.append("x^6 is not central")
    _report(2, "defining relations", problems)


def test_criterion_03_twist_divisor_table():
    problems = []
    table = {
        1: (1, 1, 0, 1),
        2: (1, 1, 0, 0),
        3: (2, 1, 1, 1),
        4: (2, 1, 0, 1),
        5: (3, 2, 1, 1),
        6: (3, 1, 1, 1),
        7: (4, 2, 1, 2),
    }
    for n, coords in table.items():
        if twist_divisor(n) != DivisorClass(*coords):
            problems.append(f"D({n}) = {twist_divisor(n)} != {coords}")
    _report(3, "twist divisor table", problems)


def test_criterion_04_dimension_identity():
    problems = []
    for n in range(25):
        div = twist_divisor(n)
        values = (
            len(ore.pbw_basis(n)),
            cox.section_count(div),
            h0_formula(n),
            chi(div),
        )
        if len(set(values)) != 1:
            problems.append(f"degree {n}: {values}")
    for n, expected in ((6, 7), (7, 8), (12, 19)):
        if cox.section_count(twist_divisor(n)) != expected:
            problems.append(f"h0(D{n}) != {expected}")
    _report(4, "dimension identity", problems)


def test_criterion_05_graded_isomorphism():
    problems = []
    for n in range(19):
        count, images = thcr.word_image_exponents(n)
        basis = set(thcr.twist_basis(n).basis)
        if images != basis:
            problems.append(f"degree {n}: images differ from the basis")
        if len(ore.pbw_basis(n)) != len(basis):
            problems.append(f"degree {n}: dimension mismatch")
    for word, expected in thcr.LOW_DEGREE_TABLE:
        if thcr.word_image(word) != cox.parse_monomial(expected):
            problems.append(f"{word} does not map to {expected}")
    _report(5, "graded isomorphism", problems)


def test_criterion_06_generation():
    problems = []
    linear, quadratic = twist_divisor(1), twist_divisor(2)
    for n in range(23):
        lower, middle, target = (twist_divisor(n + i) for i in range(3))
        if not thcr.check_generation(linear, quadratic, lower, middle, target):
            problems.append(f"degree {n + 2} not generated")
    check = verify.check_generation_divisor_table()
    if not check.passed:
        problems.append(check.witness or "divisor table check failed")
    _report(6, "generation", problems)


def test_criterion_07_lattice_structure():
    import random

    problems = []
    basis = [DivisorClass(*(1 if i == j else 0 for j in range(4))) for i in range(4)]
    for div in basis + [DivisorClass(2, -3, 5, 7)]:
        if rotate_class_power(div, 6) != div:
            problems.append(f"rotation^6 moves {div}")
    rng = random.Random(0)
    for _ in range(1000):
        left = DivisorClass(*(rng.randint(-9, 9) for _ in range(4)))
        right = DivisorClass(*(rng.randint(-9, 9) for _ in range(4)))
        if intersect(rotate_class(left), rotate_class(right)) != intersect(left, right):
            problems.append(f"isometry fails at {left}, {right}")
            break
    try:
        rotation_eigensystem()
    except ArithmeticError as exc:
        problems.append(str(exc))
    if intersect(K, K) != 6:
        problems.append("K.K != 6")
    cycle = ("X", "u", "Y", "t", "Z", "s")
    weights = [cox.WEIGHT_TABLE[cox.VARIABLES.index(v)] for v in cycle]
    for i in range(6):
        for j in range(6):
            expected = -1 if i == j else (1 if (i - j) % 6 in (1, 5) else 0)
            if intersect(weights[i], weights[j]) != expected:
                problems.append(f"hexagon entry ({i},{j})")
    pair_set = set(cox.IRRELEVANT_PAIRS)
    for pair in cox.IRRELEVANT_PAIRS:
        if frozenset(cox.rotate_variable(v) for v in pair) not in pair_set:
            problems.append(f"irrelevant pair {set(pair)} not stable")
    _report(7, "lattice structure", problems)


def test_criterion_08_ampleness_equivalence():
    problems = []
    count = 0
    for a, b, c, d in product(range(-5, 10), repeat=4):
        div = DivisorClass(a, b, c, d)
        count += 1
        if vanishing_criterion(div) != is_ample(div - K):
            problems.append(f"disagreement at {div}")
            break
    if count != 50625:
        problems.append(f"box size {count} != 50625")
    _report(8, "ampleness equivalence on the box", problems)


def test_criterion_09_cubic_veronese():
    problems = []
    gens = [parse(text, XY) for text in ("x^3", "x*y", "y*x")]
    basis6 = ore.pbw_basis(6)
    rows = []
    for left in gens:
        for right in gens:
            terms = ore.xy_to_pbw(left * right).terms
            if not all(ore.is_pbw_word(word) for word in terms):
                problems.append(f"unordered word in ({left})*({right})")
            rows.append([terms.get(word, CycNum(0)) for word in basis6])
    kernel = len(rows) - verify.matrix_rank(rows)
    if kernel != 2:
        problems.append(f"kernel dimension {kernel} != 2")
    if not ore.xy_to_pbw(gens[0] ** 2 - gens[1] ** 2).is_zero:
        problems.append("(x^3)^2 != (xy)^2")
    if not ore.xy_to_pbw(gens[1] ** 2 - gens[2] ** 2).is_zero:
        problems.append("(xy)^2 != (yx)^2")
    dim6, dim3 = len(ore.pbw_basis(6)), len(ore.pbw_basis(3))
    if not (dim6 == 7 and dim6 == dim3 * dim3 - 2):
        problems.append(f"dims {dim6}, {dim3}")
    _report(9, "cubic veronese relations", problems)


def test_criterion_10_anticanonical_cone():
    problems = []
    expected = [1, 7, 19, 37, 61]
    for n in range(5):
        values = (
            len(ore.pbw_basis(6 * n)),
            cox.section_count(n * MINUS_K),
            3 * n * n + 3 * n + 1,
        )
        if len(set(values)) != 1 or values[0] != expected[n]:
            problems.append(f"n={n}: {values} != {expected[n]}")
    _report(10, "anticanonical cone dimensions", problems)


def test_not_machine_checkable_claims_are_reported_not_asserted():
    report = verify.run_all(6)
    listed = "\n".join(report.not_machine_checkable)
    for fragment in (
        "category equivalence",
        "sigma-ampleness",
        "noetherianity",
        "global homological dimension",
        "Auslander-Gorenstein",
        "center",
    ):
        assert fragment in listed
    print("not machine-checkable items: reported explicitly (6 items)")
