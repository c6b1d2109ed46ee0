"""The ``bseries`` command line tool.

    bseries verify ID [--digits D]

checks one record of the catalog (``BSERIES_CATALOG`` or the packaged one):
a series identity is summed and compared with its closed form at D digits
(default 30), and a certificate is checked exactly.  It prints the verdict,
the tail mode, the terms and precision attempts the sum took, the digits
matched and the time, and exits with status 0 when the verdict is the one
the record's status implies (FAIL for KNOWN_FALSE, PASS otherwise), 1 when
it is not, and 2 on a bad command line or an unknown record.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Optional

from .catalog import CatalogError, load_catalog, resolve_catalog_path
from .evaluator import verify_identity
from .telescope import TelescopingCert, check_derivative, check_telescoping

__all__ = ["main"]


def _verify(rid: str, digits: int) -> int:
    try:
        rec = load_catalog(resolve_catalog_path()).lookup(rid)
    except CatalogError as e:
        print(f"bseries: {e}", file=sys.stderr)
        return 2
    expected = "FAIL" if rec.kind == "series_identity" and rec.status == "KNOWN_FALSE" else "PASS"
    if rec.kind == "series_identity":
        rep = verify_identity(rec.series, rec.rhs, digits, lhs_scale=rec.lhs_scale)
        verdict = rep.status.value
        lines = [
            ("tail mode", rep.tail_mode), ("terms", rep.terms_used), ("attempts", rep.attempts),
            ("digits matched", rep.digits_matched), ("time", f"{rep.elapsed:.3f} s"),
        ]
        if rep.note:
            lines.append(("note", rep.note))
    else:
        t0 = time.monotonic()
        check = check_telescoping if isinstance(rec.cert, TelescopingCert) else check_derivative
        rep = check(rec.cert)
        verdict = "PASS" if rep.passed else "FAIL"
        elapsed = time.monotonic() - t0
        lines = [("tail mode", "exact"), ("time", f"{elapsed:.3f} s"), ("detail", rep.detail)]
    print(f"{rec.id}: {verdict} (status {rec.status}, expected {expected})")
    for name, value in lines:
        print(f"  {name}: {value}")
    return 0 if verdict == expected else 1


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="bseries", description=__doc__.splitlines()[0])
    commands = parser.add_subparsers(dest="command", required=True)
    verify = commands.add_parser("verify", help="check one catalog record")
    verify.add_argument("id", help="the record's id")
    verify.add_argument("--digits", type=int, default=30, help="digits to compare (default 30)")
    args = parser.parse_args(argv)
    if args.digits < 1:
        parser.error("--digits must be at least 1")
    return _verify(args.id, args.digits)


if __name__ == "__main__":
    sys.exit(main())
