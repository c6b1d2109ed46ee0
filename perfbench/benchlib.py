"""Workload definitions, the verdict oracle and the statistics of the benchmark.

Everything here is pure: no process is started and nothing of ``bseries``
is imported, so ``test_perfbench.py`` can check it in milliseconds.
"""

from __future__ import annotations

import difflib
import random
import time
from dataclasses import dataclass
from typing import Optional


# Digits each workload verifies at.  The records come from ``catalog.txt``
# next to this file: a copy of the 100-record catalog the package shipped
# when the benchmark was defined, so a change to the package's catalog
# changes the program, not the workload.  BENCHMARK.json says why each
# workload exists.  The deep workloads run below the 1000 and 300 digits
# one would choose (67 s and 55 s a pass on a 2-core machine) so that a
# run of --seconds 40 holds two passes of deep_rational and one of
# deep_quadratic, whose envelope certification alone takes 15 s.
WORKLOADS = {"sweep30": 30, "deep_rational": 300, "deep_quadratic": 150}

# The full 30-digit sweep takes about 240 s on a 2-core machine with
# mpmath's pure-Python backend (aldawoud-t31-r10 alone takes 72 s), which
# does not fit a run.  sweep30 keeps every rational record (4.7 s), every
# certificate, the known-failing quadratic record and the quadratic records
# that verified in under 1.5 s each at 30 digits.
SWEEP30_QUADRATIC = (
    "conj4.1-ha",
    "conj4.1-hb",
    "conj4.2-ha",
    "conj4.2-hb",
    "sec4-r1",
    "sec4-r2",
    "sec4-gr5",
    "sec4-grm5",
    "conj5.2-7pi-remark",
)

# Quadratic records whose limiting term ratio |base| * growth^(+-1) is at
# least 0.9 (0.929, 0.946, 0.924; the next one is 0.81).
DEEP_QUADRATIC = ("conj5.1-slow", "conj6.1-111", "conj6.2-17z")

# Verdicts that differ from what the status implies in the pinned catalog.
# They stay in the workloads and count as failed; any other failure makes
# the run incorrect.
KNOWN_FAILURES = {
    "conj5.2-7pi-remark": "FAIL",  # CITED, but the record as written is false
    "sec1-g1a": "INCONCLUSIVE",  # |base| equals the growth rate; budget runs out
}


# The machine this runs on changes speed by up to 40% within seconds, as
# other tenants load it, and a fixed pure-Python loop slows by about the
# same factor as bseries does.  Every time is therefore measured next to
# this loop (before, after and every 0.2 s during each record) and scaled
# to the loop's time on an idle core of the reference machine (a 2-core
# Xeon VM at 2.0 GHz): "seconds at reference speed".  On that machine the
# 30-digit sweep's wall time spread by 10% between runs on the clock and
# by 2% at reference speed.
CALIBRATION_LOOPS = 50_000
REFERENCE_CALIBRATION_S = 0.005


def calibrate() -> float:
    """Seconds the fixed calibration loop takes now."""
    t0 = time.perf_counter()
    x = 0
    for i in range(CALIBRATION_LOOPS):
        x += i * i % 7
    return time.perf_counter() - t0


def at_reference_speed(seconds: float, calibration_s: float) -> float:
    return seconds * REFERENCE_CALIBRATION_S / calibration_s


@dataclass(frozen=True)
class Item:
    """One unit of work: a catalog record and how the benchmark checks it."""

    id: str
    kind: str  # "series" or "cert"
    status: str
    field_d: int = 1


def catalog_items(cat) -> list[Item]:
    """Items for the records of a parsed ``bseries`` catalog."""
    return [
        Item(
            r.id,
            "series" if r.kind == "series_identity" else "cert",
            r.status,
            r.series.field_d if r.series is not None else 1,
        )
        for r in cat
    ]


def select_items(workload: str, items: list[Item]) -> list[Item]:
    """The workload's items in catalog order."""
    if workload == "sweep30":
        keep = set(SWEEP30_QUADRATIC)
        out = [it for it in items if it.kind == "cert" or it.field_d == 1 or it.id in keep]
        expected = 57 + 5 + len(SWEEP30_QUADRATIC)
    elif workload == "deep_rational":
        out = [it for it in items if it.kind == "series" and it.field_d == 1]
        expected = 57
    elif workload == "deep_quadratic":
        out = [it for it in items if it.id in DEEP_QUADRATIC]
        expected = len(DEEP_QUADRATIC)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    if len(out) != expected:
        raise ValueError(f"{workload}: selected {len(out)} records, expected {expected}")
    return out


def seeded_order(ids: list[str], seed: int) -> list[str]:
    """The same ids in an order fixed by the seed; the seed changes nothing else."""
    out = sorted(ids)
    random.Random(seed).shuffle(out)
    return out


def expected_verdict(item: Item) -> str:
    if item.kind == "series" and item.status == "KNOWN_FALSE":
        return "FAIL"
    return "PASS"


def count_failures(items: list[Item], verdicts: dict[str, str]) -> tuple[int, list[str]]:
    """(failed, unexpected): failed counts every verdict other than the one the
    status implies, a raised exception included; unexpected lists the failures
    that are not the pinned known ones."""
    failed = 0
    unexpected = []
    for it in items:
        got = verdicts.get(it.id, "MISSING")
        if got == expected_verdict(it):
            continue
        failed += 1
        if KNOWN_FAILURES.get(it.id) != got:
            unexpected.append(f"{it.id}: {got}, expected {expected_verdict(it)}")
    return failed, unexpected


def tail_percentile(values: list[float]) -> tuple[float, float, int]:
    """(value, percentile, n) for the highest percentile that has at least ten
    samples beyond it; with ten samples or fewer, the maximum."""
    xs = sorted(values)
    n = len(xs)
    if n == 0:
        raise ValueError("no samples")
    if n <= 10:
        return xs[-1], 100.0, n
    i = n - 11
    return xs[i], 100.0 * (i + 1) / n, n


# ----------------------------------------------------------------------
# spans


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]  # index of the enclosing span, None at the top
    record: Optional[str]
    info: object = None

    @property
    def duration(self) -> float:
        return self.end - self.start


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of its interval its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        reach = s.start
        for a, b in sorted(children.get(i, ())):
            a, b = max(a, reach, s.start), min(b, s.end)
            if b > a:
                covered += b - a
                reach = b
        out.append(s.duration - covered)
    return out


# Exceptions with which certify_envelope refuses a series it cannot bound.
REFUSALS = ("NotHypergeometric", "NonConvergent")


def layer_metrics(spans: list[Span], scale: dict[Optional[str], float]) -> dict[str, float]:
    """Per-layer counts and times from the spans of one traced pass.

    Span names are "verify", "envelope", "sturm", "sum", "rhs", "cert",
    "catalog" and "constants.<name>".  Each time is multiplied by
    ``scale[span.record]``, the factor to reference speed measured next to
    that record."""
    own = [t * scale[s.record] for t, s in zip(self_times(spans), spans)]

    def pick(name: str) -> list[int]:
        return [i for i, s in enumerate(spans) if s.name == name]

    def durs(idx: list[int]) -> list[float]:
        return [spans[i].duration * scale[spans[i].record] for i in idx]

    env, sums = pick("envelope"), pick("sum")
    const = [i for i, s in enumerate(spans) if s.name.startswith("constants.")]
    k0s = [spans[i].info for i in env if isinstance(spans[i].info, int)]
    terms = sum(spans[i].info for i in sums if isinstance(spans[i].info, int))
    sum_busy = sum(durs(sums))
    return {
        "catalog.load_s": sum(durs(pick("catalog"))),
        "envelope.calls": len(env),
        "envelope.busy_s": sum(durs(env)),
        "envelope.max_s": max(durs(env), default=0.0),
        "envelope.sturm_s": sum(durs(pick("sturm"))),
        "envelope.refused": sum(1 for i in env if spans[i].info in REFUSALS),
        "envelope.k0_max": max(k0s, default=0),
        "sum.calls": len(sums),
        "sum.busy_s": sum_busy,
        "sum.terms": terms,
        "sum.us_per_term": 1e6 * sum_busy / terms if terms else 0.0,
        "rhs.calls": len(pick("rhs")),
        "rhs.self_s": sum(own[i] for i in pick("rhs")),
        "constants.calls": len(const),
        "constants.busy_s": sum(durs(const)),
        "constants.lvalue_s": sum(durs(pick("constants.lvalue"))),
        "constants.max_s": max(durs(const), default=0.0),
        "cert.calls": len(pick("cert")),
        "cert.busy_s": sum(durs(pick("cert"))),
        "verify.self_s": sum(own[i] for i in pick("verify")),
        "trace.self_sum_s": sum(own[i] for i, s in enumerate(spans) if s.name != "catalog"),
    }


# ----------------------------------------------------------------------
# the verdict table

TABLE_HEADER = "id\tverdict\ttail\tterms\tattempts\tq\tk0"


def render_table(rows: list[dict]) -> list[str]:
    """One line per record, sorted by id so that seeds do not reorder it."""
    cols = ("id", "verdict", "tail", "terms", "attempts", "q", "k0")
    lines = [TABLE_HEADER]
    for r in sorted(rows, key=lambda r: r["id"]):
        lines.append("\t".join(str(r.get(c, "-")) for c in cols))
    return lines


def table_diff(previous: Optional[list[str]], current: list[str]) -> list[str]:
    if previous is None:
        return ["verdict table: no previous run to compare"]
    diff = list(difflib.unified_diff(previous, current, "previous", "current", lineterm=""))
    if not diff:
        return [f"verdict table unchanged ({len(current) - 1} records)"]
    return diff
