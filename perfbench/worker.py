"""One pass of a workload in a fresh interpreter; prints one JSON line.

``run.py`` starts this script once per pass, and a few more times with
``--setup-only`` to sample set-up time.  The pass imports ``bseries`` from
``src/`` of the checkout, parses the pinned ``catalog.txt``, and then checks
the workload's records one at a time in the order the seed fixes: series
records with ``verify_identity`` at the workload's digits, certificates with
``check_telescoping`` or ``check_derivative``.  Each record's time is
reported on the clock and at reference speed (see ``benchlib.calibrate``).

With ``--trace 1`` the public functions of each layer are rebound, in this
process only, to wrappers that record a span per call.  This works because
``verify_identity`` looks up ``certify_envelope`` and ``sum_series`` as
module globals of ``bseries.evaluator``, ``eval_ball`` is found through the
``ClosedForm`` class, and ``closedform`` calls ``constants.*_ball`` through
the module.
"""

from __future__ import annotations

import argparse
import json
import resource
import signal
import statistics
import sys
import time
import traceback
from pathlib import Path

import benchlib

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"


class Recorder:
    """The record being checked, each record's envelope outcome, and the
    spans of a traced pass (``spans`` is None when tracing is off)."""

    def __init__(self, tracing: bool, clock=time.perf_counter):
        self.clock = clock
        self.record = None
        self.envelopes: dict[str, object] = {}
        self.spans: list[list] | None = [] if tracing else None
        self._stack: list[int] = []

    def wrap(self, name, fn, info=lambda result: None, err_info=lambda exc: type(exc).__name__):
        def traced(*args, **kwargs):
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            span = [name, self.clock(), 0.0, parent, self.record, None]
            self.spans.append(span)
            self._stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[5] = err_info(exc)
                raise
            finally:
                span[2] = self.clock()
                self._stack.pop()
            span[5] = info(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def capture_envelopes(self, fn):
        """Keep certify_envelope's q and k0 (or its refusal) for the verdict table."""

        def captured(*args, **kwargs):
            try:
                env = fn(*args, **kwargs)
            except Exception as exc:
                self.envelopes[self.record] = type(exc).__name__
                raise
            self.envelopes[self.record] = env
            return env

        captured.__wrapped__ = fn
        return captured


class SpeedSampler:
    """Times the calibration loop before and after each record and, from an
    interval timer, every SAMPLE_EVERY_S while the record runs, so that a
    long record is scaled by the machine's speed during it."""

    SAMPLE_EVERY_S = 0.2

    def __init__(self):
        self.samples: list[float] = []
        self.ticks_s = 0.0  # time the timer's samples have taken, in all
        signal.signal(signal.SIGALRM, self._tick)

    def clock(self) -> float:
        """time.perf_counter() without the time the timer's samples took."""
        return time.perf_counter() - self.ticks_s

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        self.samples.append(benchlib.calibrate())
        self.ticks_s += time.perf_counter() - t0

    def start(self) -> None:
        self.samples = [benchlib.calibrate()]
        signal.setitimer(signal.ITIMER_REAL, self.SAMPLE_EVERY_S, self.SAMPLE_EVERY_S)

    def stop(self) -> float:
        """The mean calibration time around and during the record."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        self.samples.append(benchlib.calibrate())
        return statistics.mean(self.samples)


def install(rec: Recorder, catalog, closedform, constants, evaluator, telescope) -> None:
    evaluator.certify_envelope = rec.capture_envelopes(evaluator.certify_envelope)
    if rec.spans is None:
        return
    evaluator.verify_identity = rec.wrap("verify", evaluator.verify_identity)
    evaluator.certify_envelope = rec.wrap(
        "envelope", evaluator.certify_envelope, info=lambda env: env.k0
    )
    # The Sturm-chain root isolation inside certify_envelope, while it exists.
    if hasattr(evaluator, "last_integer_beyond_roots"):
        evaluator.last_integer_beyond_roots = rec.wrap(
            "sturm", evaluator.last_integer_beyond_roots
        )
    evaluator.sum_series = rec.wrap(
        "sum",
        evaluator.sum_series,
        info=lambda res: res.terms_used,
        err_info=lambda exc: getattr(exc, "terms_used", type(exc).__name__),
    )
    closedform.ClosedForm.eval_ball = rec.wrap("rhs", closedform.ClosedForm.eval_ball)
    for fn, span in (
        ("pi_ball", "constants.pi"),
        ("log_ball", "constants.log"),
        ("zeta3_ball", "constants.zeta3"),
        ("l_value_ball", "constants.lvalue"),
    ):
        setattr(constants, fn, rec.wrap(span, getattr(constants, fn)))
    telescope.check_telescoping = rec.wrap("cert", telescope.check_telescoping)
    telescope.check_derivative = rec.wrap("cert", telescope.check_derivative)
    catalog.loads_catalog = rec.wrap("catalog", catalog.loads_catalog)


def check_record(r, digits: int, rec: Recorder, evaluator, telescope) -> dict:
    """Check one record; the row of the verdict table it gives."""
    if r.kind == "series_identity":
        rep = evaluator.verify_identity(
            r.series, r.rhs, digits, budget_terms=r.budget_terms, lhs_scale=r.lhs_scale
        )
        env = rec.envelopes.get(r.id)
        if isinstance(env, str) or env is None:
            q, k0 = env or "-", "-"
        else:
            q, k0 = str(env.q), env.k0
        return {
            "verdict": rep.status.value,
            "tail": rep.tail_mode,
            "terms": rep.terms_used,
            "attempts": rep.attempts,
            "q": q,
            "k0": k0,
        }
    if isinstance(r.cert, telescope.TelescopingCert):
        rep = telescope.check_telescoping(r.cert)
    else:
        rep = telescope.check_derivative(r.cert)
    return {"verdict": "PASS" if rep.passed else "FAIL", "tail": "exact"}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(benchlib.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spawned-at", type=float, required=True,
                    help="time.monotonic() of the parent just before it started this process")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    sys.path.insert(0, str(HERE.parent / "src"))
    import mpmath
    from bseries import catalog, closedform, constants, evaluator, telescope

    speed = SpeedSampler()
    rec = Recorder(tracing=bool(args.trace), clock=speed.clock)
    install(rec, catalog, closedform, constants, evaluator, telescope)
    cat = catalog.loads_catalog((HERE / "catalog.txt").read_text(encoding="utf-8"))
    items = benchlib.select_items(args.workload, benchlib.catalog_items(cat))
    order = benchlib.seeded_order([it.id for it in items], args.seed)
    setup_s = time.monotonic() - args.spawned_at
    # Set-up is scaled by a calibration taken right after it.
    calibration = {None: benchlib.calibrate()}
    setup = {"setup_s": setup_s, "setup_ref_s": benchlib.at_reference_speed(setup_s, calibration[None])}
    if args.setup_only:
        print(json.dumps(setup))
        return 0

    digits = benchlib.WORKLOADS[args.workload]
    rows, times, ref_times = [], {}, {}
    t_pass = time.perf_counter()
    for rid in order:
        rec.record = rid
        speed.start()
        t0 = speed.clock()
        try:
            row = check_record(cat.lookup(rid), digits, rec, evaluator, telescope)
        except Exception as exc:
            traceback.print_exc(file=sys.stderr)
            row = {"verdict": f"RAISED:{type(exc).__name__}"}
        times[rid] = speed.clock() - t0
        calibration[rid] = speed.stop()
        ref_times[rid] = benchlib.at_reference_speed(times[rid], calibration[rid])
        rows.append({"id": rid, **row})
    wall_s = time.perf_counter() - t_pass
    rec.record = None

    out = {
        **setup,
        "wall_s": wall_s,
        "ref_wall_s": sum(ref_times.values()),
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "backend": mpmath.libmp.BACKEND,
        "mpmath": mpmath.__version__,
        "items": [[it.id, it.kind, it.status, it.field_d] for it in items],
        "rows": rows,
        "times": times,
        "ref_times": ref_times,
        "calibration_s": {rid: c for rid, c in calibration.items() if rid is not None},
    }
    if rec.spans is not None:
        spans = [benchlib.Span(*s) for s in rec.spans]
        OUT.mkdir(exist_ok=True)
        with open(OUT / f"{args.workload}.spans.jsonl", "w", encoding="utf-8") as f:
            for s in rec.spans:
                f.write(json.dumps(dict(zip(("name", "start", "end", "parent", "record", "info"), s))) + "\n")
        scale = {rid: benchlib.at_reference_speed(1.0, c) for rid, c in calibration.items()}
        out["layers"] = benchlib.layer_metrics(spans, scale)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
