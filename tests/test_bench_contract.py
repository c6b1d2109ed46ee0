"""The benchmark worker's contract with ``bseries``, checked on five records.

``perfbench/worker.py`` rebinds module functions to trace them, calls
``verify_identity`` with ``budget_terms=`` (ignored; ``conj5.1-slow`` passes
20000 from the pinned catalog) and reads ``q`` and ``k0`` off each envelope.
A change that breaks any of this turns every benchmark row into
``RAISED:``; this test fails first.  The worker is imported without writing
bytecode next to it, and every attribute it rebinds is restored afterwards.
"""

import sys
from pathlib import Path

from bseries import catalog, closedform, constants, evaluator, telescope

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# id -> (verdict, q, k0, spans the check must record); certificates have no envelope
ROWS = {
    "sec1-z": ("PASS", "65/4096", 1, {"verify", "envelope", "sum", "rhs"}),
    "conj4.1-hb": ("PASS", "12507613/16777216", 33, {"verify", "envelope", "sum", "rhs"}),
    "conj5.1-slow": ("PASS", "7913603/8388608", 0, {"verify", "envelope", "sum", "rhs"}),
    "cert-4096-single": ("PASS", None, None, {"cert"}),
    "cert-arctan": ("PASS", None, None, {"cert"}),
}


def test_worker_checks_records_with_tracing_on(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    import worker

    targets = (catalog, closedform, closedform.ClosedForm, constants, evaluator, telescope)
    saved = [(t, dict(vars(t))) for t in targets]
    try:
        rec = worker.Recorder(tracing=True)
        worker.install(rec, catalog, closedform, constants, evaluator, telescope)
        cat = catalog.loads_catalog((PERFBENCH / "catalog.txt").read_text(encoding="utf-8"))
        rows = {}
        for rid in ROWS:
            rec.record = rid
            rows[rid] = worker.check_record(cat.lookup(rid), 30, rec, evaluator, telescope)
    finally:
        for t, before in saved:
            for name, value in before.items():
                if vars(t).get(name) is not value:
                    setattr(t, name, value)
    assert not hasattr(evaluator.certify_envelope, "__wrapped__")

    assert any(s[0] == "catalog" for s in rec.spans)
    for rid, (verdict, q, k0, spans) in ROWS.items():
        row = rows[rid]
        assert row["verdict"] == verdict, (rid, row)
        if q is not None:
            assert (row["q"], row["k0"]) == (q, k0), (rid, row)
        assert spans <= {s[0] for s in rec.spans if s[4] == rid}, rid
