"""Command-line interface.

Exit codes: 0 when all checks pass, 1 when a verification fails (a JSON
witness is printed), 2 on input errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Callable

from .intmat import IntMatrix, hnf, int_from_json, snf
from .abgrp import MAX_RANK, Checks
from .catalogio import (
    ResultRecord,
    catalog_expected,
    datum_invariants,
    input_digest,
    invariants_json,
    read_bounded,
)
from .rootdata import from_catalog, radical_characters, validate

# tres (which brings in homcx), cech and hashlib are imported by the commands
# that run them, so a fresh process compiles only the layers its command needs

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INPUT_ERROR = 2

# Most decimal digits in the text of a file that a command reads, counted
# before the JSON parse, so that no file makes unbounded work; a matrix is
# also capped at abgrp.MAX_RANK on its shorter side and 4 * MAX_RANK on its
# longer (the 216 x 36 bar differential of Z[S3] is a golden record).  The
# whole command at the bound on 2 vCPUs (Python 3.11), one run of each tall
# shape and best of 3 of each square one: matrix 256 x 64 of 1-digit
# entries, 4.4-5.1 s for hnf and for snf, with a 27 MB record; 128 x 64 of
# 2-digit entries, 3.1-3.4 s for each, with 21 MB; 64 x 64 of 4-digit
# entries, 0.35 s for hnf and 0.45-0.7 s for snf; 32 x 32 of 16-digit
# entries, 0.2-0.3 s; 16 x 16 of 64-digit entries, 0.15-0.25 s.  Tall
# matrices cost the most, in the kernel rows of U, which is not unique and
# is carried entry by entry.  cech with 64 x 64 relations of 1- or 2-digit
# entries in F(X) or F(G), at --max-degree 8: 1.0-1.9 s.
MAX_FILE_DIGITS = 16384


def _fmt_group(inv: dict) -> str:
    parts = ["Z"] * inv["rank"] + [f"Z/{d}" for d in inv["torsion"]]
    return " + ".join(parts) if parts else "0"


class _InputError(Exception):
    """An input error, which ``main`` reports as one line on stderr."""


def _load(parse: Callable[[], Any]) -> Any:
    """parse(); an input error it raises is raised again as _InputError.

    Unknown specs, invalid data and bad values raise ValueError (which
    covers UnknownGroupSpec, InvalidDatum and JSONDecodeError); a file of
    the wrong JSON shape raises KeyError or TypeError, one nested too deep
    RecursionError; a missing file raises OSError.
    """
    try:
        return parse()
    except (OSError, KeyError, TypeError, ValueError, RecursionError) as exc:
        raise _InputError(exc) from None


def _read(path: str) -> tuple[bytes, Any]:
    """The bytes of the file at path, if they are at most
    catalogio.MAX_FILE_BYTES and hold at most MAX_FILE_DIGITS decimal digits,
    and the JSON they hold; every command that reads a file reads it here."""
    data = read_bounded(path)
    digits = len(data) - len(data.translate(None, b"0123456789"))
    if digits > MAX_FILE_DIGITS:
        raise ValueError(f"file of {digits} decimal digits: at most {MAX_FILE_DIGITS}")
    return data, json.loads(data.decode("utf-8"), parse_int=int_from_json)


def _parse_file(path: str, parse: Callable[[Any], Any]) -> tuple[dict, Any]:
    """The digest payload of the file's bytes, and parse() of its JSON.

    The digest names the content, not the path, so a file gives the
    same record from any directory.
    """
    import hashlib

    data, obj = _read(path)
    return {"fileSha256": hashlib.sha256(data).hexdigest()}, parse(obj)


def _emit(args, command: str, digest_payload: dict, outputs: dict,
          checks: Checks, lines: list[str]) -> int:
    """Print the result and return the exit code.

    JSON mode prints exactly one record; human mode prints the lines and
    one line per check.  When a check fails, its name and witness go to
    stdout in human mode and to stderr in JSON mode.
    """
    verdicts = checks.verdicts()
    if args.format == "json":
        record = ResultRecord(command, input_digest(digest_payload), outputs, verdicts)
        sys.stdout.write(record.to_json())
    else:
        lines = lines + [f"check {name}: {ok}" for name, ok in verdicts.items()]
        print("\n".join(lines))
    if checks.passed:
        return EXIT_OK
    witness = {name: w for name, ok, w in checks.entries if not ok}
    print(json.dumps({"failures": witness}, sort_keys=True),
          file=sys.stderr if args.format == "json" else sys.stdout)
    return EXIT_CHECK_FAILED


def cmd_invariants(args) -> int:
    d = _load(lambda: from_catalog(args.spec))
    rep = validate(d)
    got = datum_invariants(d)
    outputs = dict(got, radicalCharacters=invariants_json(radical_characters(d).group))
    entries = [("datum-valid", rep.passed, rep.failures())]
    try:
        want = catalog_expected(args.spec, args.catalog)
    except (OSError, ValueError, RecursionError):
        want = None  # the catalog is advisory: a missing or broken one gives no verdict
    if want is not None:
        entries.append(("matches-catalog", got == want, {"expected": want, "computed": got}))
    lines = [
        f"group:              {args.spec}",
        f"character group G*: {_fmt_group(outputs['characterGroup'])}",
        f"Pic = mu*:          {_fmt_group(outputs['muDual'])}",
        f"pi_1:               {_fmt_group(outputs['pi1'])}",
        f"radical characters: {_fmt_group(outputs['radicalCharacters'])}",
    ]
    checks = Checks(tuple(entries))
    verdicts = checks.verdicts()
    lines.append(f"datum valid:        {verdicts['datum-valid']}")
    if "matches-catalog" in verdicts:
        lines.append(f"matches catalog:    {verdicts['matches-catalog']}")
    return _emit(args, "invariants", {"spec": args.spec}, outputs, checks, lines)


def cmd_pi1d(args) -> int:
    from .homcx import two_term_complex
    from .tres import canonical_tresolution, four_term_check, pushout_tresolution

    d = _load(lambda: from_catalog(args.spec))
    res = (
        canonical_tresolution(d)
        if args.resolution == "canonical"
        else pushout_tresolution(d)
    )
    cx = two_term_complex(res.rho_star)
    outputs = {
        "resolution": args.resolution,
        "rhoStar": res.rho_star.matrix.to_json(),
        "RstarGenerators": res.rho_star.source.group.ambient_rank,
        "TstarGenerators": res.rho_star.target.group.ambient_rank,
        "H-1": invariants_json(cx.cohomology_data(-1).group),
        "H0": invariants_json(cx.cohomology_data(0).group),
    }
    lines = [
        f"group:      {args.spec}",
        f"resolution: {args.resolution}",
        f"complex:    [R* ({outputs['RstarGenerators']} gens) -> "
        f"T* ({outputs['TstarGenerators']} gens)] in degrees -1, 0",
        f"H^-1:       {_fmt_group(outputs['H-1'])}",
        f"H^0:        {_fmt_group(outputs['H0'])}",
    ]
    payload = {"spec": args.spec, "resolution": args.resolution}
    return _emit(args, "pi1d", payload, outputs, four_term_check(res), lines)


def cmd_check_ses(args) -> int:
    from .tres import SESData, ses_to_complex_ses

    payload, ses = _load(lambda: _parse_file(args.file, SESData.from_json))
    _, _, checks, les = ses_to_complex_ses(ses)
    outputs = {}
    lines = [f"fixture: {args.file}"]
    if les is not None:
        outputs["sequence"] = [
            {"label": label, "group": invariants_json(g)}
            for label, g in zip(les.labels, les.groups)
        ]
        chain = " -> ".join(
            f"{item['label']}={_fmt_group(item['group'])}" for item in outputs["sequence"]
        )
        lines.append("long exact sequence: 0 -> " + chain + " -> 0")
    return _emit(args, "check-ses", payload, outputs, checks, lines)


def cmd_cech(args) -> int:
    from .cech import CechInput, build_complex, cohomology_groups, contraction_check

    payload, cx = _load(lambda: _parse_file(args.file, lambda obj: build_complex(
        CechInput.from_json(obj), args.max_degree)))
    checks = contraction_check(cx)
    cohs = {str(i): invariants_json(h) for i, h in enumerate(cohomology_groups(cx, checks))}
    lines = [f"input: {args.file} (degrees up to {args.max_degree})"]
    lines += [f"H^{i} = {_fmt_group(cohs[str(i)])}" for i in range(args.max_degree)]
    payload["maxDegree"] = args.max_degree
    return _emit(args, "cech", payload, {"cohomology": cohs}, checks, lines)


def _bounded_matrix(obj) -> IntMatrix:
    """The matrix of obj, if its shorter side is at most MAX_RANK and its
    longer side at most 4 * MAX_RANK, so that its normal forms stay cheap."""
    m = IntMatrix.from_json(obj)
    short, long = sorted(m.shape)
    if short > MAX_RANK or long > 4 * MAX_RANK:
        raise ValueError(f"matrix of shape {m.shape}: at most {MAX_RANK} on the "
                         f"shorter side and {4 * MAX_RANK} on the longer")
    return m


def cmd_matrix(args) -> int:
    m = _load(lambda: _bounded_matrix(_read(args.file)[1]))
    if args.kind == "hnf":
        h, u = hnf(m)
        outputs = {"H": h.to_json(), "U": u.to_json()}
    else:
        u, dd, v = snf(m)
        outputs = {"D": dd.to_json(), "U": u.to_json(), "V": v.to_json()}
    # records sort their keys, so this order is only that of the human lines,
    # which JSON mode never prints
    lines = ([f"{name} = {value}" for name, value in outputs.items()]
             if args.format == "human" else [])
    payload = {"kind": args.kind, "matrix": m.to_json()}
    return _emit(args, "matrix", payload, outputs, Checks(()), lines)


_parser: argparse.ArgumentParser | None = None


def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and shared by every
    later one: ``parse_args`` keeps no state between calls, and no default
    depends on the environment (the catalog path is read per command)."""
    global _parser
    if _parser is not None:
        return _parser
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("human", "json"), default="human")
    parser = argparse.ArgumentParser(
        prog="redinv",
        description="Invariants and exact sequences of reductive data",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("invariants", parents=[common],
                       help="character group, Pic, pi_1 of a group spec")
    p.add_argument("spec")
    p.add_argument("--catalog", default=None,
                   help="catalog path (default: shipped file or REDINV_CATALOG)")

    p = sub.add_parser("pi1d", parents=[common], help="the fundamental complex and its cohomology")
    p.add_argument("spec")
    p.add_argument("--resolution", choices=("canonical", "pushout"),
                   default="canonical")

    p = sub.add_parser("check-ses", parents=[common], help="verify a short-exact-sequence fixture")
    p.add_argument("file")

    p = sub.add_parser("cech", parents=[common], help="cochain complex of a map F(X) -> F(G)")
    p.add_argument("file")
    p.add_argument("--max-degree", type=int, default=6)

    p = sub.add_parser("matrix", parents=[common], help="normal forms of an integer matrix")
    p.add_argument("kind", choices=("snf", "hnf"))
    p.add_argument("file")
    _parser = parser
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # looked up at each call, so the shared parser holds no command function
    # and a wrapper put on one after the first call still runs
    command = {"invariants": cmd_invariants, "pi1d": cmd_pi1d, "check-ses": cmd_check_ses,
               "cech": cmd_cech, "matrix": cmd_matrix}[args.command]
    # results may pass Python's limit on int/str conversion (absent before
    # 3.10.7); inputs keep it through intmat.int_from_json
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        return command(args)
    except _InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())
