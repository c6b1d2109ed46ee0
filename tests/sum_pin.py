r"""The ball of every shipped series' sum, pinned bit for bit in ``sum_pins.tsv``.

:func:`rows` sums each series identity of the shipped catalog that has an
envelope at 30 and 300 digits, and the three of :data:`DEEP`, which sum in
the largest blocks, at 1000 digits too, and gives ``(id, digits, P, terms,
attempts, digest)`` per sum, the digest the first 16 hex digits of the sha256 of
``"S,units"``; :func:`pinned` reads the same rows from the file.  It needs
the standard library alone.  A change that is meant to move the balls
regenerates the rows below the file's comment line, from the repository's
root, with

    PYTHONPATH=src:tests python -c 'import sum_pin; [print(*r, sep="\t") for r in sum_pin.rows()]'
"""

from __future__ import annotations

import hashlib
from pathlib import Path

from bseries import evaluator
from bseries.catalog import load_catalog, resolve_catalog_path
from bseries.envelope import NonConvergent, certify_envelope

PINS = Path(__file__).parent / "sum_pins.tsv"
DEEP = ("conj5.1-slow", "conj6.1-111", "conj6.2-17z")


def rows() -> list[list[str]]:
    """The sum at digits + 5 of every shipped series identity with an envelope, at 30 and
    300 digits, and at 1000 for :data:`DEEP`, as strings.  No sum uses more terms than the count its precision was sized for."""
    out = []
    for rec in load_catalog(resolve_catalog_path()).by_kind("series_identity"):
        try:
            env = certify_envelope(rec.series)
        except NonConvergent:
            continue
        for digits in (30, 300, 1000) if rec.id in DEEP else (30, 300):
            res = evaluator._sum_to_digits(rec.series, digits + 5, env)
            assert res.terms_used <= res.predicted_terms, (rec.id, digits)
            ball = res.ball
            digest = hashlib.sha256(f"{ball.s},{ball.units}".encode()).hexdigest()[:16]
            pin = (rec.id, digits, ball.p, res.terms_used, res.attempts, digest)
            out.append([str(x) for x in pin])
    return out


def pinned() -> list[list[str]]:
    """The rows of ``sum_pins.tsv`` below its comment line."""
    lines = PINS.read_text().splitlines()
    return [line.split("\t") for line in lines if not line.startswith("#")]
