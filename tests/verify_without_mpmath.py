"""Check every shipped catalog record at 30 digits on the standard library alone.

Usage: python tests/verify_without_mpmath.py [SRC]

SRC is the directory that holds the ``bseries`` package (default: ``src/``
of this checkout).  Any import of mpmath raises ``ImportError``, so a run
that ends shows that verification needs no package outside the standard
library.  Prints each record's verdict as one JSON object, and exits with
status 1 unless the catalog's 94 series and 5 certificates all PASS except
``aldawoud-t31-r10`` (FAIL: the record is known to be false) and
``sec1-g1a`` (INCONCLUSIVE: its term ratio tends to 1, so no tail is
certified), unless ``conj5.1-265`` also PASSes at 4,400 digits, past
CPython's default limit of 4,300 digits on one int-to-str conversion, and
unless both catalogs of this checkout parse to their pinned digests
(``tests/parse_pin.py``) and the seeded closed-form corpus of
``tests/cf_corpus.py`` to its own, so the expression front end is checked
on the Python that runs this, and unless every shipped series' ball at 30
and 300 digits is the one ``tests/sum_pins.tsv`` pins
(``tests/sum_pin.py``), so the summation is checked bit for bit there too.
It also exits with status 1 if a class of a module the catalog check
imports is a dataclass: each process would generate its methods with
``exec`` while it sets up; and unless a catalog record whose weight is
nested in 1,000 parentheses, or whose rhs follows 1,000 minus signs, fails
to load with a ``CatalogError`` naming the record: past the interpreter's
recursion limit, on every Python version; and unless one whose weight sums
3,000 terms, which nests nothing, loads.
"""

import dataclasses
import json
import sys
from pathlib import Path

RECORDS = 99
NOT_PASSING = {"aldawoud-t31-r10": "FAIL", "sec1-g1a": "INCONCLUSIVE"}
DEEP, DEEP_DIGITS = "conj5.1-265", 4400
# a field and a text for it nested past the recursion limit, and a flat one that loads
NESTED = (
    ("weight", "(" * 1000 + "k" + ")" * 1000),
    ("rhs", "-" * 1000 + "pi"),
)
FLAT = ("weight", " + ".join(["k"] * 3000))
# the bseries modules the catalog check imports
IMPORTED = (
    "precision", "exactnum", "exprparse", "kernels", "seriesmodel", "constants", "closedform",
    "telescope", "catalog", "envelope", "evaluator",
)


def main(argv: list[str]) -> int:
    sys.path.insert(0, argv[1] if len(argv) > 1 else str(Path(__file__).resolve().parents[1] / "src"))
    sys.modules["mpmath"] = None  # any import of mpmath raises ImportError
    # the modules the perfbench worker imports
    from bseries import catalog, closedform, constants, evaluator, telescope  # noqa: F401
    import cf_corpus
    import sum_pin
    from parse_pin import PINS, digest

    generated = [
        f"{name}.{cls.__name__}"
        for name in IMPORTED
        for cls in vars(sys.modules[f"bseries.{name}"]).values()
        if isinstance(cls, type)
        and cls.__module__ == f"bseries.{name}"
        and dataclasses.is_dataclass(cls)
    ]

    root = Path(__file__).resolve().parents[1]
    moved = [rel for rel, pin in PINS.items() if digest(catalog.load_catalog(root / rel)) != pin]
    if cf_corpus.digest() != cf_corpus.PIN:
        moved.append("tests/cf_corpus.py")
    rows, pins = (set(map(tuple, x)) for x in (sum_pin.rows(), sum_pin.pinned()))
    sums = sorted(" ".join(row[:2]) for row in rows ^ pins)

    got, cat = {}, catalog.load_catalog(catalog.resolve_catalog_path())
    for r in cat:
        if r.kind == "series_identity":
            rep = evaluator.verify_identity(r.series, r.rhs, 30, lhs_scale=r.lhs_scale)
            got[r.id] = rep.status.value
        elif isinstance(r.cert, telescope.TelescopingCert):
            got[r.id] = "PASS" if telescope.check_telescoping(r.cert).passed else "FAIL"
        else:
            got[r.id] = "PASS" if telescope.check_derivative(r.cert).passed else "FAIL"
    print(json.dumps(got))
    first = cat.by_kind("series_identity")[0]
    deep, nesting = f"CatalogError: record {first.id!r} (line 1): expression nested too deeply", []
    for (key, text), want in [(x, deep) for x in NESTED] + [(FLAT, "loaded")]:
        fields = dict(first.fields, **{key: text})
        try:
            catalog.loads_catalog("\n".join(f"{k}: {v}" for k, v in fields.items()))
            error = "loaded"
        except Exception as e:
            error = f"{type(e).__name__}: {e}"
        if error != want:
            nesting.append(f"{key}: {error[:100]}")
    not_passing = {rid: v for rid, v in got.items() if v != "PASS"}
    r = cat.lookup(DEEP)
    rep = evaluator.verify_identity(r.series, r.rhs, DEEP_DIGITS, lhs_scale=r.lhs_scale)
    # the report prints its strings when they are read: read them past the limit too
    deep = rep.status.value if rep.lhs_str and rep.residual_str else "no report strings"
    passing = len(got) == RECORDS and not_passing == NOT_PASSING and deep == "PASS"
    if passing and not moved and not sums and not generated and not nesting:
        return 0
    print(f"{len(got)} records, not passing: {not_passing}", file=sys.stderr)
    print(f"{DEEP} at {DEEP_DIGITS} digits: {deep}", file=sys.stderr)
    print(f"catalogs or corpora whose parse moved from the pin: {moved}", file=sys.stderr)
    print(f"sums whose ball moved from the pin: {sums}", file=sys.stderr)
    print(f"dataclasses: {generated}", file=sys.stderr)
    print(f"deep nesting not rejected, or a flat sum not loaded: {nesting}", file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
