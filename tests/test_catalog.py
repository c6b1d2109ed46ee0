"""Catalog loading, validation, round-trip, path resolution, and label map."""

import ast
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bseries.catalog import (
    CATALOG_ENV,
    Catalog,
    CatalogError,
    IdentityRecord,
    load_catalog,
    loads_catalog,
    resolve_catalog_path,
    serialize_catalog,
)
from bseries.evaluator import Status, verify_identity
from bseries.exactnum import IntegerSurdPoly
from bseries.telescope import DerivativeCert, TelescopingCert
from oracles import loads_catalog_by_record
from parse_pin import PINS, digest

REPO_ROOT = Path(__file__).resolve().parent.parent
SOURCE_DOC = REPO_ROOT / "paper.md"
SHIPPED = resolve_catalog_path()
MAP_FILE = SHIPPED.parent / "paper_map.txt"

MINIMAL = """\
id: t1
kind: series_identity
kernel: central^3
position: denominator
base: 16
weight: 3*k - 1
den: k^3
kstart: 1
rhs: 1/2*pi^2
status: CITED
source: somewhere
"""


@pytest.fixture(scope="module")
def shipped():
    return load_catalog(SHIPPED)


# ---------------------------------------------------------------------------
# shipped catalog content
# ---------------------------------------------------------------------------


def test_shipped_catalog_is_large(shipped):
    assert len(shipped) >= 60
    assert len(shipped) == 99


def test_shipped_tallies(shipped):
    assert shipped.tallies == {
        "PROVED": 15,
        "CONJECTURAL": 60,
        "CITED": 23,
        "KNOWN_FALSE": 1,
    }


def test_required_status_examples(shipped):
    assert shipped.lookup("thm1.1-pi").status == "PROVED"
    assert shipped.lookup("conj5.1-375").status == "CONJECTURAL"
    assert shipped.lookup("aldawoud-t31-r10").status == "KNOWN_FALSE"


def test_only_aldawoud_is_known_false(shipped):
    false = shipped.by_status("KNOWN_FALSE")
    assert [r.id for r in false] == ["aldawoud-t31-r10"]


def test_ids_unique(shipped):
    ids = [r.id for r in shipped]
    assert len(ids) == len(set(ids))


def test_every_series_record_parses_fully(shipped):
    for rec in shipped.by_kind("series_identity"):
        assert rec.series is not None, rec.id
        assert rec.rhs is not None, rec.id


def test_certificates_parse(shipped):
    tel = shipped.by_kind("telescoping")
    der = shipped.by_kind("derivative")
    assert len(tel) == 4 and len(der) == 1
    assert all(isinstance(r.cert, TelescopingCert) for r in tel)
    assert all(isinstance(r.cert, DerivativeCert) for r in der)


def test_verification_hints_parsed(shipped):
    # the shipped catalog dropped the hints; the benchmark's pinned copy keeps them
    assert shipped.lookup("conj5.1-slow").budget_terms is None
    text = (REPO_ROOT / "perfbench" / "catalog.txt").read_text(encoding="utf-8")
    assert loads_catalog(text).lookup("conj5.1-slow").budget_terms == 20000


def test_lhs_scale_on_known_false_record(shipped):
    rec = shipped.lookup("aldawoud-t31-r10")
    assert rec.lhs_scale is not None
    # the scale is a positive constant (pi times a real surd)
    assert rec.lhs_scale.eval_ball(15).s > 0


def test_round_trip_byte_identity(shipped):
    assert shipped.serialize() == SHIPPED.read_text(encoding="utf-8")


def test_membership_and_indexing(shipped):
    assert "thm1.1-pi" in shipped
    assert "no-such-record" not in shipped
    assert shipped[0].id == "sec1-z"


def test_lookup_missing_id_raises(shipped):
    with pytest.raises(CatalogError, match="no record with id 'nope'"):
        shipped.lookup("nope")


# ---------------------------------------------------------------------------
# parser errors
# ---------------------------------------------------------------------------


def test_empty_text_gives_empty_catalog():
    cat = loads_catalog("")
    assert len(cat) == 0
    assert cat.serialize() == ""
    assert serialize_catalog([]) == ""


def test_blank_lines_only():
    assert len(loads_catalog("\n\n\n")) == 0


def test_minimal_record_round_trip():
    cat = loads_catalog(MINIMAL)
    assert cat.serialize() == MINIMAL
    rec = cat.lookup("t1")
    assert rec.kind == "series_identity"
    assert rec.series.k_start == 1


def test_key_order_normalized_on_serialize():
    shuffled = (
        "status: CITED\nid: t1\nsource: somewhere\nrhs: 1/2*pi^2\n"
        "kind: series_identity\nweight: 3*k - 1\nden: k^3\nkstart: 1\n"
        "base: 16\nkernel: central^3\nposition: denominator\n"
    )
    assert loads_catalog(shuffled).serialize() == MINIMAL


def test_malformed_line_reports_line_number():
    bad = MINIMAL.replace("weight: 3*k - 1", "weight 3*k - 1")
    with pytest.raises(CatalogError, match=r"line 6: expected 'key: value'"):
        loads_catalog(bad)


def test_unknown_key_rejected():
    with pytest.raises(CatalogError, match="unknown key 'wight'"):
        loads_catalog(MINIMAL.replace("weight:", "wight:"))


def test_duplicate_key_in_record_rejected():
    with pytest.raises(CatalogError, match="duplicate key 'base'"):
        loads_catalog(MINIMAL + "base: 17\n")


def test_duplicate_id_reports_both_lines():
    text = MINIMAL + "\n" + MINIMAL
    with pytest.raises(CatalogError, match=r"duplicate record id 't1' \(lines 1 and 13\)"):
        loads_catalog(text)


def test_parse_error_carries_record_id_and_line():
    bad = MINIMAL.replace("weight: 3*k - 1", "weight: 3*k -")
    with pytest.raises(CatalogError, match=r"record 't1' \(line 1\)"):
        loads_catalog(bad)


BAD_WEIGHT = "record 't1' (line 1): unexpected token None in '3*k -'"


@pytest.mark.parametrize(
    "first, second, message",
    [
        (
            ("status: CITED", "status: TRUE"),
            ("weight: 3*k - 1", "weight: 3*k -"),
            "record 't1' (line 1): status must be one of "
            "('PROVED', 'CONJECTURAL', 'CITED', 'KNOWN_FALSE'), got 'TRUE'",
        ),
        (("weight: 3*k - 1", "weight: 3*k -"), ("weight:", "wight:"), BAD_WEIGHT),
        (("weight: 3*k - 1", "weight: 3*k -"), ("base: 16", "base: 16 +"), BAD_WEIGHT),
        (("weight: 3*k - 1", "weight: 3*k -"), ("weight: 3*k - 1", "weight 3*k - 1"), BAD_WEIGHT),
        (("weight: 3*k - 1", "weight: 3*k -"), ("status: CITED", "status: CITED\nstatus: CITED"), BAD_WEIGHT),
        (("weight: 3*k - 1", "weight: 3*k -"), ("id: t2", "id: t1"), BAD_WEIGHT),
        (
            ("status: CITED", "status: TRUE"),
            ("weight: 3*k - 1", "weight: " + "(" * 1000 + "k" + ")" * 1000),
            "record 't1' (line 1): status must be one of "
            "('PROVED', 'CONJECTURAL', 'CITED', 'KNOWN_FALSE'), got 'TRUE'",
        ),
    ],
    ids=[
        "status-then-weight", "weight-then-unknown-key", "weight-then-base",
        "weight-then-malformed-line", "weight-then-duplicate-key", "weight-then-duplicate-id",
        "status-then-deep-weight",
    ],
)
def test_first_bad_record_raises_first(first, second, message):
    # the text is split into blocks before any record is built, and the fields are parsed one
    # kind at a time, all bases before any weight; the first record's error is still the one raised
    text = MINIMAL.replace(*first) + "\n" + MINIMAL.replace("id: t1", "id: t2").replace(*second)
    with pytest.raises(CatalogError) as caught:
        loads_catalog(text)
    assert str(caught.value) == message


def test_bad_kind_rejected():
    with pytest.raises(CatalogError, match="kind must be one of"):
        loads_catalog(MINIMAL.replace("kind: series_identity", "kind: mystery"))


def test_bad_status_rejected():
    with pytest.raises(CatalogError, match="status must be one of"):
        loads_catalog(MINIMAL.replace("status: CITED", "status: TRUE"))


def test_missing_required_key_rejected():
    bad = MINIMAL.replace("rhs: 1/2*pi^2\n", "")
    with pytest.raises(CatalogError, match=r"missing required keys \['rhs'\]"):
        loads_catalog(bad)


def test_known_false_reserved():
    bad = MINIMAL.replace("status: CITED", "status: KNOWN_FALSE")
    with pytest.raises(CatalogError, match="KNOWN_FALSE is reserved"):
        loads_catalog(bad)


def test_negative_kstart_rejected():
    with pytest.raises(CatalogError, match="kstart must be >= 0"):
        loads_catalog(MINIMAL.replace("kstart: 1", "kstart: -1"))


@pytest.mark.parametrize(
    "old, new",
    [("base: 16", "base: (1/2)^(2^-1)"), ("rhs: 1/2*pi^2", "rhs: pi^(2^-1)")],
)
def test_non_integer_exponent_names_the_record(old, new):
    # 2^-1 is no integer exponent: a CatalogError naming the record, not a TypeError
    with pytest.raises(CatalogError, match=r"record 't1' \(line 1\): non-integer exponent"):
        loads_catalog(MINIMAL.replace(old, new))


@pytest.mark.parametrize(
    "old, new, why",
    [
        ("kstart: 1", "kstart: 0", r"denominator factor 1\*k\+0 vanishes at k=0"),
        ("weight: 3*k - 1", "weight: 1/(k - 3)", "weight denominator vanishes at k=3"),
    ],
)
def test_pole_at_an_index_rejected(old, new, why):
    bad = MINIMAL.replace("den: k^3", "den: k").replace(old, new)
    with pytest.raises(CatalogError, match=rf"record 't1' \(line 1\): {why}"):
        loads_catalog(bad)


def test_negative_harmonic_index_rejected():
    bad = (
        MINIMAL.replace("weight: 3*k - 1", "weight: H(k - 1,1)")
        .replace("den: k^3", "den: 1")
        .replace("kstart: 1", "kstart: 0")
    )
    with pytest.raises(CatalogError, match=r"record 't1' \(line 1\): harmonic index -1 < 0 at k=0"):
        loads_catalog(bad)
    assert loads_catalog(bad.replace("kstart: 0", "kstart: 1")).lookup("t1").series.k_start == 1


@pytest.mark.parametrize(
    "old, new, why",
    [
        ("weight: 3*k - 1", "weight: 0", "weight must be nonzero"),
        ("weight: 3*k - 1", "weight: k - k", "weight must be nonzero"),
        ("weight: 3*k - 1", "weight: 1/(k - k)", "division by zero"),
        ("weight: 3*k - 1", "weight: H(k,1)*H(k,1)", "linear in harmonic atoms"),
        ("weight: 3*k - 1", "weight: H(4*k,1)", r"unsupported harmonic index 4\*k\+0"),
        ("weight: 3*k - 1", "weight: H(k,4)", "unsupported harmonic order 4"),
        ("weight: 3*k - 1", "weight: H(H(k,1),1)", "nested harmonic atoms"),
        ("weight: 3*k - 1", "weight: 1/H(k,1)", "cannot divide by a harmonic atom"),
        ("weight: 3*k - 1", "weight: H(k/2,1)", "harmonic argument must have integer coefficients"),
        ("weight: 3*k - 1", "weight: H(sqrt(2)*k,1)", "harmonic argument must have integer coefficients"),
        ("weight: 3*k - 1", "weight: sqrt(2)*k + sqrt(3)", "radicands"),
        ("weight: 3*k - 1", "weight: 1/(2 - 2)", "division by zero in weight"),
        ("weight: 3*k - 1", "weight: 0^-1", "division by zero in weight"),
        ("weight: 3*k - 1", "weight: 2^(1/2)", "non-integer exponent"),
        ("weight: 3*k - 1", "weight: sqrt(-4)", "sqrt of a negative rational"),
        ("base: 16", "base: 1/(2 - 2)", "division by zero in scalar expressions"),
        ("base: 16", "base: 0^-1", "zero base"),
        ("base: 16", "base: (2 - 2)^-1", "division by zero: zero base to a negative power"),
        ("base: 16", "base: 2 - 2", "zero base"),
        ("den: k^3", "den: sqrt(-4)", "sqrt of a negative rational"),
        ("den: k^3", "den: 0^-1", "division by zero in denominator"),
        ("den: k^3", "den: k*(k - k)^-2", "division by zero in denominator"),
        ("base: 16", "base: 4 + sqrt(3)", "radicands"),
        ("weight: 3*k - 1", "weight: 1/(k - 1)", "weight denominator vanishes at k=1"),
        ("den: k^3", "den: k^2 + 1", "denominator factor must be linear in k"),
        ("den: k^3", "den: H(k,1)", "harmonic atoms not allowed in denominator"),
        ("den: k^3", "den: k^0", "exponents must be positive"),
        ("den: k^3", "den: k^-1", "exponents must be positive"),
        ("den: k^3", "den: 1 - k", r"u\*k \+ v with integer u > 0"),
        ("den: k^3", "den: k - 2", r"denominator factor 1\*k-2 vanishes at k=2"),
        ("den: k^3", "den: sqrt(2)*k+1", r"denominator factors must be u\*k \+ v with integer u > 0"),
        ("rhs: 1/2*pi^2", "rhs: L(2)", r"L\(2\): not a discriminant"),
        ("rhs: 1/2*pi^2", "rhs: zeta(2)", r"only zeta\(3\) is supported"),
        ("rhs: 1/2*pi^2", "rhs: (1 + pi)^-1", "can only divide by a single closed-form term"),
        ("rhs: 1/2*pi^2", "rhs: 1/(2 - 2)", "division by zero in closed form"),
        ("rhs: 1/2*pi^2", "rhs: 3/(pi - pi)", "division by zero in closed form"),
        ("rhs: 1/2*pi^2", "rhs: log(0)", "log of non-positive rational"),
        ("rhs: 1/2*pi^2", "rhs: sqrt(-4)", "sqrt of a non-positive closed-form radicand"),
        # past the interpreter's recursion limit: one text on every Python version
        pytest.param(
            "weight: 3*k - 1", "weight: " + "(" * 1000 + "k" + ")" * 1000, "expression nested too deeply",
            id="deep-parentheses",
        ),
        pytest.param(
            "rhs: 1/2*pi^2", "rhs: " + "-" * 1000 + "pi", "expression nested too deeply", id="deep-minus"
        ),
    ],
)
def test_malformed_series_field_names_the_record(old, new, why):
    # every rejection of the weight, den, base and rhs parsers is a CatalogError
    # naming the record and its line
    bad = MINIMAL.replace(old, new)
    if new.startswith("weight: sqrt"):
        bad = bad.replace("base: 16", "base: 16 + sqrt(2)")
    if new.startswith("base:"):
        bad = bad.replace("weight: 3*k - 1", "weight: 3*k - sqrt(2)")
    with pytest.raises(CatalogError, match=rf"record 't1' \(line 1\): .*{why}"):
        loads_catalog(bad)


@pytest.mark.parametrize(
    "old, new, same",
    [
        pytest.param("weight: 3*k - 1", "weight: " + " + ".join(["k"] * 3000), "weight: 3000*k", id="long-sum"),
        pytest.param(
            "weight: 3*k - 1", "weight: " + " + ".join(["k"] * 10000), "weight: 10000*k", id="long-weight"
        ),
        pytest.param("rhs: 1/2*pi^2", "rhs: " + " + ".join(["pi"] * 10000), "rhs: 10000*pi", id="long-rhs"),
        pytest.param(
            "rhs: 1/2*pi^2", "rhs: " + " - ".join(["pi/2"] * 10000), "rhs: -4999*pi", id="long-difference"
        ),
    ],
)
def test_flat_field_loads(old, new, same):
    # a flat sum nests nothing, however many terms it adds: it loads as what it adds up to
    got, want = (loads_catalog(MINIMAL.replace(old, text)).records[0] for text in (new, same))
    assert (got.series, got.rhs) == (want.series, want.rhs)


def test_series_records_load_without_ratfun():
    # coefficient lists are the one polynomial form: no module of bseries
    # defines or reads a name of the second polynomial stack, and
    # IntegerSurdPoly is built from integer lists alone
    gone = {
        "Poly", "RatFun", "poly_divmod", "poly_gcd", "_field",  # exactnum
        "EvalContext", "eval_ast",  # exprparse
        "_RatFunCtx", "parse_ratfun", "_fold_constant_den", "render_ratfun", "den_poly",
        "WeightTerm", "from_terms", "ratfun_terms", "weight_ratfun", "term_ratio",  # seriesmodel
        "ratio_polys",  # kernels
        "_BivarCtx", "_rename", "x_power", "parse_ratfun_ast",  # telescope
        "_WeightValue",
        "_flatten_sum", "_flatten_product", "_mentions", "_n_poly",  # telescope's closed-form walker
        "_x_exponent_offset", "_binom_pair", "_BaseEval",
    }
    found = set()
    for path in sorted((REPO_ROOT / "src" / "bseries").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            name = getattr(node, "id", None) or getattr(node, "attr", None) or getattr(node, "name", None)
            if name in gone:
                found.add((path.name, name))
    assert not found
    assert "__init__" not in vars(IntegerSurdPoly)


def test_denominator_without_integer_root_loads():
    text = MINIMAL.replace("den: k^3", "den: (2*k - 1)").replace("kstart: 1", "kstart: 0")
    assert loads_catalog(text).lookup("t1").series.den_factors == ((2, -1, 1),)


def test_benchmark_catalog_round_trips():
    # the benchmark's pinned copy still carries the ignored hint keys
    text = (REPO_ROOT / "perfbench" / "catalog.txt").read_text(encoding="utf-8")
    assert "min_digits: " in text and "budget_terms: " in text
    assert loads_catalog(text).serialize() == text


@pytest.mark.parametrize("rel", sorted(PINS))
def test_parse_is_pinned(rel):
    # every value the parse produces, for both catalogs the repository ships:
    # a change to the expression front end must leave each one as it is
    text = (REPO_ROOT / rel).read_text(encoding="utf-8")
    assert digest(loads_catalog(text)) == PINS[rel]


BENCH_TEXT = (REPO_ROOT / "perfbench" / "catalog.txt").read_text(encoding="utf-8")
BENCH_BLOCKS = [block.splitlines() for block in BENCH_TEXT.split("\n\n")]
BENCH_VALUES = sorted({line.partition(": ")[2] for block in BENCH_BLOCKS for line in block})
PARSED_KEYS = (
    "base:", "weight:", "den:", "rhs:", "lhs_scale:", "closed_form:", "f_rational:", "arctan_coeff:",
    "target:", "endpoint:",
)
LINE_EDITS = (
    "no-separator", "no-value", "unknown-key", "duplicate-key", "delete", "blank-line", "first-id",
    "other-value", "drop-last", "edit-character", "deep-parentheses", "deep-minus", "long-sum",
)


@st.composite
def mutated_catalogs(draw):
    """Two to six blocks of the benchmark's catalog with up to three lines edited."""
    picks = st.lists(st.integers(0, len(BENCH_BLOCKS) - 1), min_size=2, max_size=6, unique=True)
    blocks = [list(BENCH_BLOCKS[i]) for i in draw(picks)]
    for _ in range(draw(st.integers(0, 3))):
        block = draw(st.sampled_from(blocks))
        where = range(len(block))
        if draw(st.booleans()):  # half the edits go to a field the expression parser reads
            where = [j for j, line in enumerate(block) if line.startswith(PARSED_KEYS)] or where
        i = draw(st.sampled_from(where))
        if len(block[i]) > 1000:  # already made long by an edit: a second one would multiply it
            continue
        key, _, value = block[i].partition(": ")
        edit = draw(st.sampled_from(LINE_EDITS))
        if edit == "no-separator":
            lines = [f"{key} {value}"]
        elif edit == "no-value":
            lines = [f"{key}: "]
        elif edit == "unknown-key":
            lines = [f"{key}x: {value}"]
        elif edit == "duplicate-key":
            lines = [block[i], block[i]]
        elif edit == "delete":
            lines = []
        elif edit == "blank-line":
            lines = ["", block[i]]
        elif edit == "first-id":
            lines = [blocks[0][0]]
        elif edit == "other-value":
            lines = [f"{key}: {draw(st.sampled_from(BENCH_VALUES))}"]
        elif edit == "drop-last":
            lines = [block[i][:-1]]
        elif edit == "edit-character":
            j, c = draw(st.integers(0, len(value))), draw(st.sampled_from("()+-*/^,0123456789knx "))
            lines = [f"{key}: {value[:j]}{c}{value[j + 1:]}"]
        elif edit == "deep-parentheses":
            lines = [f"{key}: {'(' * 1000}{value}{')' * 1000}"]
        elif edit == "deep-minus":
            lines = [f"{key}: {'-' * 1000}{value}"]
        else:  # a flat sum nests nothing; each fraction it adds multiplies its denominator
            lines = [f"{key}: {' + '.join([value] * 30)}"]
        block[i:i + 1] = lines
    return "\n\n".join("\n".join(block) for block in blocks) + "\n"


def load_outcome(load, text):
    """The parse digest and text of the catalog, or the type and message of the load's error."""
    try:
        cat = load(text)
    except Exception as e:
        return type(e).__name__, str(e)
    return digest(cat), cat.serialize()


@settings(max_examples=1000, deadline=None)
@given(mutated_catalogs())
def test_one_pass_load_matches_record_by_record(text):
    # splitting once and parsing one field kind at a time give the catalog, or the error,
    # of reading the text line by line and parsing each field when its record needs it
    assert load_outcome(loads_catalog, text) == load_outcome(loads_catalog_by_record, text)


def test_kstart_not_allowed_on_telescoping():
    # a telescoping certificate's base case is fixed at k = 0
    cert = (
        "id: c1\nkind: telescoping\nkernel: binom(6k,3k)\nposition: numerator\n"
        "base: 1/4096\nweight: 4536*k^3 - 4644*k^2 + 1074*k + 25\nden: 6*k - 5\n"
        "closed_form: -(2*n + 1)*(6*n + 5)*binom(6*n,3*n)*x^n\nstatus: PROVED\nsource: s\n"
    )
    assert isinstance(loads_catalog(cert).lookup("c1").cert, TelescopingCert)
    with pytest.raises(CatalogError, match=r"keys \['kstart'\] not allowed for kind telescoping"):
        loads_catalog(cert.replace("den: 6*k - 5\n", "den: 6*k - 5\nkstart: 1\n"))


def test_series_keys_not_allowed_on_derivative():
    bad = (
        "id: d1\nkind: derivative\nbase: 16\nf_rational: t\narctan_coeff: 1\n"
        "target: 1\nstatus: PROVED\nsource: s\n"
    )
    with pytest.raises(CatalogError, match=r"keys \['base'\] not allowed"):
        loads_catalog(bad)


# ---------------------------------------------------------------------------
# path resolution
# ---------------------------------------------------------------------------


def test_resolve_explicit_beats_env(tmp_path, monkeypatch):
    flag = tmp_path / "flag.txt"
    env = tmp_path / "env.txt"
    monkeypatch.setenv(CATALOG_ENV, str(env))
    assert resolve_catalog_path(str(flag)) == flag


def test_resolve_env_beats_packaged(tmp_path, monkeypatch):
    env = tmp_path / "env.txt"
    monkeypatch.setenv(CATALOG_ENV, str(env))
    assert resolve_catalog_path() == env


def test_resolve_packaged_default(monkeypatch):
    monkeypatch.delenv(CATALOG_ENV, raising=False)
    p = resolve_catalog_path()
    assert p.name == "catalog.txt"
    assert p.exists()


def test_load_catalog_missing_file(tmp_path):
    with pytest.raises(CatalogError, match="cannot read catalog"):
        load_catalog(tmp_path / "absent.txt")


def test_load_env_override_round_trips(tmp_path, monkeypatch):
    alt = tmp_path / "alt.txt"
    alt.write_text(MINIMAL, encoding="utf-8")
    monkeypatch.setenv(CATALOG_ENV, str(alt))
    cat = load_catalog(resolve_catalog_path())
    assert len(cat) == 1 and "t1" in cat


# ---------------------------------------------------------------------------
# label map over the source document
# ---------------------------------------------------------------------------


@pytest.mark.skipif(not SOURCE_DOC.exists(), reason="source document not present")
def test_label_map_covers_source_document(shipped):
    labels = re.findall(r"\\label\{([^}]*)\}", SOURCE_DOC.read_text(encoding="utf-8"))
    assert labels, "source document has labels"
    mapped = {}
    for line in MAP_FILE.read_text(encoding="utf-8").splitlines():
        parts = line.split("\t")
        assert len(parts) in (2, 3), line
        mapped[parts[0]] = parts[1]
    assert set(mapped) == set(labels)
    for label, ids in mapped.items():
        if ids == "-":
            continue
        for rid in ids.split(","):
            assert rid in shipped, f"{label} -> {rid}"


@pytest.mark.skipif(not SOURCE_DOC.exists(), reason="source document not present")
def test_label_map_in_document_order():
    labels = re.findall(r"\\label\{([^}]*)\}", SOURCE_DOC.read_text(encoding="utf-8"))
    keys = [ln.split("\t")[0] for ln in MAP_FILE.read_text(encoding="utf-8").splitlines()]
    assert keys == labels


# ---------------------------------------------------------------------------
# spot numeric checks straight off the shipped records
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("rid", ["thm1.2-42k+5", "conj3.7-equiv", "sec2-4500"])
def test_spot_verify_shipped_records(shipped, rid):
    rec = shipped.lookup(rid)
    rep = verify_identity(rec.series, rec.rhs, digits=15, lhs_scale=rec.lhs_scale)
    assert rep.status is Status.PASS, rep.note


def test_spot_known_false_fails(shipped):
    rec = shipped.lookup("aldawoud-t31-r10")
    rep = verify_identity(rec.series, rec.rhs, digits=12, lhs_scale=rec.lhs_scale)
    assert rep.status is Status.FAIL
