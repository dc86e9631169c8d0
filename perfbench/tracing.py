"""Spans and counters at dp3ring's layer boundaries, recorded from outside the package.

`Tracer.install` replaces each traced function by a wrapper in every dp3ring
module that holds it.  Patching the defining module alone is not enough:
`verify` imports `is_ample`, `twist_divisor` and `vanishing_criterion` from
`picard` by name, and `thcr` does the same with `enumerate_sections` and
`twist_divisor`, so their calls would bypass a wrapper set on `picard` or `cox`.

Only the functions in `TARGETS` get spans.  Hot helpers under them, such as
`cox.rotate_exponents`, stay inside their caller's self time, so a layer's
self time is the work done in that layer.  `CycNum` arithmetic is counted
but not timed, because a span per field operation would swamp the rest.

Spans are kept in memory as (id, parent, operation, name, start_ns, end_ns)
and written out by `write_spans` once the run is over.  A span's self time
is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import csv
import functools
import itertools
import sys
import time
from collections import Counter
from pathlib import Path

from dp3ring import cli, cox, cyclotomic, ncpoly, ore, picard, thcr, verify


def _count_word_images(counts, args, result):
    words, images = result
    counts["thcr.word_image_exponents.words"] += words
    counts["thcr.word_image_exponents.images"] += len(images)


def _count_normal_form(counts, args, result):
    counts["ore.normal_form.words_in"] += len(args[0].terms)
    counts["ore.normal_form.terms_out"] += len(result.terms)


def _count_substitute(counts, args, result):
    counts["ncpoly.substitute.words_out"] += len(result.terms)


def _count_sections(counts, args, result):
    a = args[0].a
    counts["cox.enumerate_sections.monomials"] += result.dimension
    # the (i, j) triangle enumerate_sections searches for i + j + k = a
    counts["cox.enumerate_sections.candidates"] += (a + 1) * (a + 2) // 2 if a >= 0 else 0


def _count_checks(counts, args, result):
    for check in result.checks:
        counts[f"verify.check.{check.name}_s"] += check.elapsed


# (owner, attribute, span name, counter called with (counts, args, result))
TARGETS = (
    (cli, "main", "cli", None),
    (ncpoly, "parse", "ncpoly.parse", None),
    (ncpoly.NcPoly, "substitute", "ncpoly.substitute", _count_substitute),
    (ore, "normal_form", "ore.normal_form", _count_normal_form),
    (ore, "xy_to_pbw", "ore.xy_to_pbw", None),
    (cox, "enumerate_sections", "cox.enumerate_sections", _count_sections),
    (thcr, "word_image_exponents", "thcr.word_image_exponents", _count_word_images),
    (thcr, "twisted_mul", "thcr.twisted_mul", None),
    (thcr, "section_from_xy", "thcr.section_from_xy", None),
    (thcr, "check_generation", "thcr.check_generation", None),
    (thcr, "degree_two_covers", "thcr.degree_two_covers", None),
    (picard, "twist_divisor", "picard.twist_divisor", None),
    (picard, "is_ample", "picard.is_ample", None),
    (picard, "vanishing_criterion", "picard.vanishing_criterion", None),
    (verify, "run_all", "verify.run_all", _count_checks),
    (verify, "matrix_rank", "verify.matrix_rank", None),
)

# counters that read 0 when their layer never ran
COUNTERS = (
    "thcr.word_image_exponents.words",
    "thcr.word_image_exponents.images",
    "ore.normal_form.words_in",
    "ore.normal_form.terms_out",
    "ncpoly.substitute.words_out",
    "cox.enumerate_sections.monomials",
    "cox.enumerate_sections.candidates",
    "cyclotomic.objects",
    "cyclotomic.mul_calls",
    "cyclotomic.add_calls",
)

# CycNum methods counted, by counter name
CYCNUM_COUNTERS = (
    ("__init__", "cyclotomic.objects"),
    ("__mul__", "cyclotomic.mul_calls"),
    ("__rmul__", "cyclotomic.mul_calls"),
    ("__add__", "cyclotomic.add_calls"),
    ("__radd__", "cyclotomic.add_calls"),
)


class Tracer:
    """Records spans and counts while `active` is true; a no-op pass-through otherwise."""

    def __init__(self):
        self.active = False
        self.op = -1
        self.spans: list[tuple[int, int, int, str, int, int]] = []
        self.counts: Counter = Counter()
        self._stack = [-1]
        self._ids = itertools.count()
        self._patches: list[tuple[object, str, object]] = []

    # -- installing ------------------------------------------------------------

    def install(self) -> None:
        for owner, attr, name, count in TARGETS:
            original = getattr(owner, attr)
            wrapper = self._span_wrapper(name, original, count)
            if isinstance(owner, type):
                self._patch(owner, attr, wrapper)
            else:
                self._patch_everywhere(original, wrapper)
        for attr, key in CYCNUM_COUNTERS:
            original = getattr(cyclotomic.CycNum, attr)
            self._patch(cyclotomic.CycNum, attr, self._count_wrapper(key, original))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _patch_everywhere(self, original, wrapper) -> None:
        """Rebind every dp3ring module-level name that refers to `original`."""
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "dp3ring" and not mod_name.startswith("dp3ring."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patch(module, attr, wrapper)

    # -- wrappers --------------------------------------------------------------

    def _span_wrapper(self, name: str, fn, count):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            span_id = next(tracer._ids)
            parent = tracer._stack[-1]
            tracer._stack.append(span_id)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                tracer._stack.pop()
                tracer.spans.append((span_id, parent, tracer.op, name, start, end))
            if count is not None:
                count(tracer.counts, args, result)
            return result

        return wrapper

    def _count_wrapper(self, key: str, fn):
        tracer = self
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.active:
                counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- results ---------------------------------------------------------------

    def layer_metrics(self, ops: int, checks: list[str]) -> dict[str, float]:
        """Per-operation calls, self seconds and counts for every traced layer,
        the ratios between counts, and the seconds of each named verify check.

        Layers that never ran read 0, so every workload reports the same names.
        """
        child_ns: Counter = Counter()
        for _, parent, _, _, start, end in self.spans:
            child_ns[parent] += end - start
        calls: Counter = Counter()
        self_ns: Counter = Counter()
        for span_id, _, _, name, start, end in self.spans:
            calls[name] += 1
            self_ns[name] += end - start - child_ns[span_id]
        out: dict[str, float] = {}
        for _, _, name, _ in TARGETS:
            out[f"{name}.calls"] = calls[name] / ops
            out[f"{name}.self_s"] = self_ns[name] / 1e9 / ops
        c = self.counts
        for key in COUNTERS:
            out[key] = c[key] / ops
        unlisted = {k for k in c if k.startswith("verify.check.")}
        for check in checks:
            key = f"verify.check.{check}_s"
            unlisted.discard(key)
            out[key] = c[key] / ops
        if unlisted:
            raise ValueError(f"verify ran checks the benchmark does not list: {sorted(unlisted)}")
        out["thcr.word_image_exponents.images_per_word"] = _ratio(
            c["thcr.word_image_exponents.images"], c["thcr.word_image_exponents.words"]
        )
        out["ore.normal_form.out_per_in"] = _ratio(
            c["ore.normal_form.terms_out"], c["ore.normal_form.words_in"]
        )
        out["cox.enumerate_sections.hit_ratio"] = _ratio(
            c["cox.enumerate_sections.monomials"], c["cox.enumerate_sections.candidates"]
        )
        return out

    def write_spans(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(("span", "parent", "op", "name", "start_ns", "end_ns"))
            writer.writerows(self.spans)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
