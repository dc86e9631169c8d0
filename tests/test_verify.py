"""The verification suite itself: the cap bound, the work one report does,
the JSON shape, exact rank, and faults that the golden transcript does not
inject."""

import json
from collections import Counter
from itertools import islice, product
from operator import itemgetter

import pytest

import dp3ring.cox as cox
import dp3ring.ore as ore
import dp3ring.picard as picard
import dp3ring.thcr as thcr
import dp3ring.verify as verify
from dp3ring.cli import main
from dp3ring.cyclotomic import CycNum, ZETA
from dp3ring.verify import (
    check_ample_criterion_box,
    check_hexagon,
    check_hilbert_series,
    matrix_rank,
    run_all,
)


def test_run_all_rejects_tiny_caps():
    with pytest.raises(ValueError):
        run_all(5)


def _report_work(cap: int) -> Counter:
    """Section-basis enumerations, by class, and lattice rotations made by
    run_all(cap)."""
    calls = Counter()

    def counted(key, fn):
        def wrapper(*args):
            calls[key] += 1
            return fn(*args)

        return wrapper

    enumerate_sections = counted("sections", cox.enumerate_sections)

    def sections(div):
        calls[div] += 1
        return enumerate_sections(div)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cox, "enumerate_sections", sections)
        mp.setattr(thcr, "enumerate_sections", sections)
        mp.setattr(picard, "rotate_class", counted("rotations", picard.rotate_class))
        assert run_all(cap).all_passed
    return calls


def test_each_degree_fact_is_built_once_per_report():
    # graded_isomorphism and generation compare classes row by row: the only
    # bases listed are those of degrees 1 and 2, by generation's predicates,
    # once per degree and twice more for degree three's linear retry; and the
    # twist divisors come from one walk of the recursion, so the work grows
    # linearly with the cap
    at_60, at_120 = _report_work(60), _report_work(120)
    low_degrees = {picard.twist_divisor(1), picard.twist_divisor(2)}
    assert {key for key in at_120 if isinstance(key, picard.DivisorClass)} <= low_degrees
    assert at_120["sections"] <= 121
    assert at_120["rotations"] <= 2 * at_60["rotations"]


@pytest.mark.parametrize(
    "shift, sections",
    [
        # a polygon inside D(17)'s: only class additivity tells it apart
        (picard.DivisorClass(0, 0, 0, 1), 29),
        (picard.DivisorClass(1, 0, 0, 0), 44),
    ],
)
def test_shifted_twist_divisor_fails_both_cover_checks(shift, sections):
    twists = list(islice(picard.twist_divisors(), 31))
    twists[17] += shift
    dims = [len(ore.pbw_basis(n)) for n in range(25)]
    iso = verify.check_graded_isomorphism(24, twists, dims)
    assert iso.witness == f"degree 17: basis dim 33, section dim {sections}, image set different"
    assert verify.check_generation(24, twists).witness == "degree 17 not generated"


def test_permuted_rotation_step_fails_generation():
    # two steps of the variable rotation with the images of X and Y swapped;
    # the class rotation and so the twist divisors are untouched, and so is
    # the one step `hexagon` checks
    images = list(cox._ROT_POWERS[2])
    images[0], images[1] = images[1], images[0]
    gather = itemgetter(*sorted(range(6), key=images.__getitem__))
    twists = list(islice(picard.twist_divisors(), 31))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cox, "_ROT_GATHER", cox._ROT_GATHER[:2] + (gather,) + cox._ROT_GATHER[3:])
        assert check_hexagon().passed
        generation = verify.check_generation(24, twists)
    assert generation.witness == "degree 3 not generated"


def verify_json(capsys, *flags):
    """The report as `verify --format json` prints it."""
    code = main(["verify", "--max-degree", "6", "--format", "json", *flags])
    out = capsys.readouterr().out
    assert code == 0
    assert out == json.dumps(json.loads(out), sort_keys=True, indent=2) + "\n"
    return json.loads(out)["result"]


def test_json_shape_and_sorted_keys(capsys):
    payload = verify_json(capsys)
    assert set(payload) == {"max_degree", "all_passed", "checks", "not_machine_checkable"}
    assert payload["all_passed"] is True
    assert payload["max_degree"] == 6
    for entry in payload["checks"]:
        assert set(entry) == {"name", "passed", "detail", "witness"}
    # timing is kept out of the default output so it is stable
    timed = verify_json(capsys, "--timings")
    assert all("elapsed" in entry for entry in timed["checks"])


def _flip_at(mp, name, corner):
    """Negate `verify.<name>` on the one class `corner`, so the box check
    disagrees there and nowhere else."""
    real = getattr(verify, name)
    mp.setattr(verify, name, lambda div: real(div) != (tuple(div) == corner))


@pytest.mark.parametrize(
    "name, corner, tested, witness",
    [
        ("vanishing_criterion", (-5, -5, -5, -5), 1, "(-5,-5,-5,-5)"),
        ("vanishing_criterion", (9, 9, 9, 9), 15**4, "(9,9,9,9)"),
        # is_ample sees D - K, so its corner is the last class minus K
        ("is_ample", (12, 10, 10, 10), 15**4, "(9,9,9,9)"),
    ],
)
def test_ample_criterion_box_edges(monkeypatch, name, corner, tested, witness):
    _flip_at(monkeypatch, name, corner)
    check = check_ample_criterion_box()
    assert check.detail == f"{tested} classes tested"
    assert check.witness == f"criterion and ampleness of D - K disagree at {witness}"


def test_ample_criterion_box_judges_every_class_in_order(monkeypatch):
    seen = {"vanishing_criterion": [], "is_ample": []}
    for name, classes in seen.items():
        real = getattr(verify, name)

        # a plain tuple, which a DivisorClass never equals
        def record(div, real=real, classes=classes):
            classes.append(tuple(div))
            return real(div)

        monkeypatch.setattr(verify, name, record)
    assert check_ample_criterion_box().passed
    box = list(product(range(-5, 10), repeat=4))
    assert seen["vanishing_criterion"] == box
    # is_ample sees D - K for each D of the box, in the box's order
    assert seen["is_ample"] == [tuple(x - k for x, k in zip(div, picard.K)) for div in box]


def test_matrix_rank_on_known_matrices():
    one = CycNum(1)
    zero = CycNum(0)
    assert matrix_rank([]) == 0
    assert matrix_rank([[one, zero], [zero, one]]) == 2
    assert matrix_rank([[one, one], [one, one]]) == 1
    assert matrix_rank([[zero, zero], [zero, zero]]) == 0
    # rows over the field: (1, z), (z, z^2) are proportional
    assert matrix_rank([[one, ZETA], [ZETA, ZETA * ZETA]]) == 1
    assert matrix_rank([[one, ZETA], [ZETA, one]]) == 2


def test_hilbert_series_counts_the_basis():
    # the closed form still matches the series; only the basis count is off
    dims = [len(ore.pbw_basis(n)) + (n == 10) for n in range(13)]
    check = check_hilbert_series(12, dims)
    assert not check.passed
    assert check.witness == "degree 10: basis has 15 words, series says 14"


def test_iso_degree_thirteen_counts():
    count, images = thcr.word_image_exponents(13)
    assert count == 377
    assert len(images) == 21
    assert len(ore.pbw_basis(13)) == 21
