"""Independent checks of op outputs.

Nothing here imports redinv.  Each check takes an op and the JSON record
the op printed, and returns None when the record is right or a short
reason when it is not.  Exit codes are judged by the caller.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import sys


def _inv(obj) -> tuple:
    return (obj["rank"], tuple(obj["torsion"]))


def _digest(payload) -> str:
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()).hexdigest()


def _mismatch(what: str, got, want) -> str:
    return f"{what}: got {got}, expected {want}"


def _verdicts(rec: dict) -> str | None:
    bad = sorted(k for k, ok in rec["verdicts"].items() if ok is not True)
    return f"verdicts false: {bad}" if bad else None


def check_invariants(op, rec: dict) -> str | None:
    _, spec, exp, in_catalog = op.expect
    if rec["inputDigest"] != _digest({"spec": spec}):
        return "inputDigest does not match the spec"
    for key, want in exp.items():
        got = _inv(rec["outputs"][key])
        if got != want:
            return _mismatch(key, got, want)
    if ("matches-catalog" in rec["verdicts"]) != in_catalog:
        return "matches-catalog verdict present for a spec outside the catalog or missing"
    return _verdicts(rec)


def check_pi1d(op, rec: dict) -> str | None:
    # The fundamental complex has H^-1 = character group and H^0 = mu*.
    _, spec, resolution, exp = op.expect
    if rec["outputs"]["resolution"] != resolution:
        return "wrong resolution echoed"
    for key, want in (("H-1", exp["characterGroup"]), ("H0", exp["muDual"])):
        got = _inv(rec["outputs"][key])
        if got != want:
            return _mismatch(key, got, want)
    return _verdicts(rec)


def check_ses(op, rec: dict) -> str | None:
    got = [_inv(x["group"]) for x in rec["outputs"]["sequence"]]
    if got != op.expect[1]:
        return _mismatch("long exact sequence", got, op.expect[1])
    return _verdicts(rec)


def check_cech(op, rec: dict) -> str | None:
    _, degree, h0, h1 = op.expect
    want = {str(i): (h0 if i == 0 else h1 if i == 1 else (0, ())) for i in range(degree)}
    got = {k: _inv(v) for k, v in rec["outputs"]["cohomology"].items()}
    if got != want:
        return _mismatch("cohomology", got, want)
    return _verdicts(rec)


def check_bar(op, rec: dict) -> str | None:
    got = _inv(rec["group"])
    if rec["degree"] != op.degree or got != op.expect[2]:
        return _mismatch(op.expect[1], got, op.expect[2])
    return None


# --- exact integer matrices ----------------------------------------------------

def matmul(a: list, b: list) -> list:
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]


def det(a: list) -> int:
    """Fraction-free Bareiss determinant, with row pivoting."""
    a = [list(r) for r in a]
    n, sign, prev = len(a), 1, 1
    for k in range(n):
        p = next((i for i in range(k, n) if a[i][k]), None)
        if p is None:
            return 0
        if p != k:
            a[k], a[p] = a[p], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1] if n else 1


def _ints(rows) -> list:
    return [[int(x) for x in r] for r in rows]


def _unimodular(u: list, product_det: int, m_det: int) -> bool:
    """|det U| = 1, where U @ M (@ V) has determinant ``product_det``.

    When det M != 0 this follows from |product_det| = |det M| without
    expanding det U, whose entries run to thousands of bits.
    """
    if m_det:
        return abs(product_det) == abs(m_det)
    return abs(det(u)) == 1


def check_snf(op, rec: dict) -> str | None:
    m = op.expect[1]
    n = len(m)
    u, d, v = (_ints(rec["outputs"][k]) for k in ("U", "D", "V"))
    if any(d[i][j] for i in range(n) for j in range(n) if i != j):
        return "D is not diagonal"
    diag = [d[i][i] for i in range(n)]
    if any(x < 0 for x in diag):
        return "negative invariant factor"
    for a, b in zip(diag, diag[1:]):
        if (b % a if a else b):
            return f"divisibility fails: {a} does not divide {b}"
    if matmul(matmul(u, m), v) != d:
        return "U M V != D"
    m_det = det(m)
    prod = 1
    for x in diag:
        prod *= x
    if not _unimodular(u, prod, m_det) or (not m_det and abs(det(v)) != 1):
        return "a transform is not unimodular"
    return None


def check_hnf(op, rec: dict) -> str | None:
    m = op.expect[1]
    h, u = _ints(rec["outputs"]["H"]), _ints(rec["outputs"]["U"])
    if matmul(u, m) != h:
        return "U M != H"
    last, prod = -1, 1
    for i, row in enumerate(h):
        j = next((c for c, x in enumerate(row) if x), None)
        if j is None:
            if any(any(r) for r in h[i:]):
                return "zero row above a nonzero row"
            break
        if j <= last or row[j] <= 0:
            return f"row {i} breaks the echelon shape"
        if any(not 0 <= h[k][j] < row[j] for k in range(i)):
            return f"entries above pivot {i} not reduced"
        last, prod = j, prod * row[j]
    if not _unimodular(u, prod if last == len(m) - 1 else 0, det(m)):
        return "U is not unimodular"
    return None


@contextlib.contextmanager
def unlimited_int_digits():
    """Lift Python's limit on int/str conversion (3.11+) for a while: exact
    transforms have entries of thousands of digits."""
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


def known_defect(op, error: str) -> bool:
    """Whether an uncaught error is one of redinv's documented defects:
    ``InvalidDatum`` past the CLI on a malformed spec, or Python's int/str
    limit hit while an SNF record is written."""
    if op.expect[0] == "reject":
        return error.startswith("InvalidDatum: ")
    if op.expect[0] == "snf":
        return (error.startswith("ValueError: Exceeds the limit (")
                and "integer string conversion" in error)
    return False


CHECKS = {
    "invariants": check_invariants,
    "pi1d": check_pi1d,
    "ses": check_ses,
    "cech": check_cech,
    "bar": check_bar,
    "snf": check_snf,
    "hnf": check_hnf,
}


def judge(op, exit_code, out: str, error: str | None) -> tuple[str | None, bool]:
    """(reason, wrong) for one finished op; reason is None when it passed.

    ``wrong`` marks a wrong answer: a wrong exit code, a rejected record or
    an uncaught error other than a known defect.  A known defect fails the
    op without making the run incorrect.
    """
    if error is not None:
        return f"uncaught {error}", not known_defect(op, error)
    if exit_code != op.exit_code:
        return f"exit {exit_code}, expected {op.exit_code}", True
    if op.expect[0] == "reject":
        return (None, False) if not out else ("rejected input printed a record", True)
    try:
        with unlimited_int_digits():
            reason = CHECKS[op.expect[0]](op, json.loads(out))
    except (ValueError, KeyError, TypeError, IndexError, AttributeError) as exc:
        reason = f"malformed record: {type(exc).__name__}: {exc}"
    return reason, reason is not None
