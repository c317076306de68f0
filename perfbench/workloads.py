"""Seeded op streams for the four benchmark workloads.

An op is one call into redinv: a CLI command run in-process, or (for
``bar_cohomology``) one bar-complex cohomology group.  Each op carries the
files it needs and what an independent oracle expects of it.  Every
expectation here comes from closed-form mathematics or from the way the
input was built, never from redinv itself.

A stream is a sequence of cycles of fixed composition, so that any prefix
of it holds the same mix of op types whatever the seed; the seed only
changes which inputs fill each slot.  No input repeats within a stream.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from dataclasses import dataclass
from typing import Callable, Iterator

from perfbench.oracles import matmul

WORKLOADS = ("cli_mix", "rank_sweep", "bar_cohomology", "dense_normal_forms")

# Golden-ratio step: consecutive points of k * PHI (mod 1) stay evenly spread.
PHI = (5 ** 0.5 - 1) / 2

Inv = tuple  # (free rank, torsion invariants)
ZERO: Inv = (0, ())


@dataclass(frozen=True)
class Op:
    """One call into redinv and what its oracle expects.

    ``argv`` holds CLI arguments (without ``--format json``); bar ops have
    an empty ``argv`` and carry a Gamma-module as JSON in ``module``.
    ``expect`` starts with the oracle's name, followed by its parameters.
    """

    argv: tuple = ()
    files: tuple = ()  # (file name, content) pairs written before the op
    module: str = ""
    degree: int = 0
    expect: tuple = ()

    @property
    def exit_code(self) -> int:
        return 2 if self.expect[0] == "reject" else 0


def spread(values: list, rng: random.Random) -> list:
    """``values`` reordered so that every prefix covers them evenly."""
    n, u = len(values), rng.random()
    out, used, k = [], set(), 0
    while len(out) < n:
        i = int(n * ((u + k * PHI) % 1.0))
        k += 1
        if i not in used:
            used.add(i)
            out.append(values[i])
    return out


def _matrix_json(rows: list) -> str:
    return json.dumps([[str(x) for x in r] for r in rows])


# --- group specs and their closed-form invariants ---------------------------

def cyc(*torsion: int) -> Inv:
    return (0, tuple(torsion))


def free(n: int) -> Inv:
    return (n, ())


def classical(family: str, n: int) -> tuple[str, dict]:
    """Spec of a classical group from its rank parameter ``n``, with its
    character group, mu* (= Pic), pi_1 and radical characters."""
    if family == "SL":
        return f"SL({n + 1})", _inv(ZERO, ZERO, ZERO)
    if family == "PGL":
        return f"PGL({n + 1})", _inv(ZERO, cyc(n + 1), cyc(n + 1))
    if family == "GL":
        return f"GL({n})", _inv(free(1), ZERO, free(1), free(1))
    if family == "Sp":
        return f"Sp({2 * n})", _inv(ZERO, ZERO, ZERO)
    if family == "SOodd":
        return f"SO({2 * n + 1})", _inv(ZERO, cyc(2), cyc(2))
    if family == "SOeven":
        return f"SO({2 * n})", _inv(ZERO, cyc(2), cyc(2))
    if family == "Spinodd":
        return f"Spin({2 * n + 1})", _inv(ZERO, ZERO, ZERO)
    if family == "Spineven":
        return f"Spin({2 * n})", _inv(ZERO, ZERO, ZERO)
    if family == "PSO":
        z = cyc(2, 2) if n % 2 == 0 else cyc(4)
        return f"PSO({2 * n})", _inv(ZERO, z, z)
    if family == "T":
        return f"T({n})", _inv(free(n), ZERO, free(n), free(n))
    raise ValueError(family)


def _inv(char: Inv, mu: Inv, pi1: Inv, rad: Inv = ZERO) -> dict:
    return {"characterGroup": char, "muDual": mu, "pi1": pi1, "radicalCharacters": rad}


# Smallest rank parameter each family accepts.
FAMILY_MIN = {"SL": 1, "PGL": 1, "GL": 1, "Sp": 2, "SOodd": 2, "SOeven": 3,
              "Spinodd": 2, "Spineven": 3, "PSO": 3, "T": 1}

# Exceptional types: pi_1 of the adjoint form is the centre of the simply
# connected one; E6 and E7 default to simply connected.
EXCEPTIONAL = {
    **{f"{k}{s}": _inv(ZERO, ZERO, ZERO) for k in ("G2", "F4", "E8") for s in ("", "sc", "ad")},
    **{f"{k}{s}": _inv(ZERO, ZERO, ZERO) for k in ("E6", "E7") for s in ("", "sc")},
    "E6ad": _inv(ZERO, cyc(3), cyc(3)),
    "E7ad": _inv(ZERO, cyc(2), cyc(2)),
}

# A twist permutes simple roots; it leaves the underlying groups unchanged.
TWISTED = {
    f"{base}x{g}:{tw}": exp
    for base, tw, exp in (
        ("SL(3)", "flip", _inv(ZERO, ZERO, ZERO)),
        ("PGL(3)", "flip", _inv(ZERO, cyc(3), cyc(3))),
        ("Spin(8)", "triality", _inv(ZERO, ZERO, ZERO)),
        ("PSO(8)", "triality", _inv(ZERO, cyc(2, 2), cyc(2, 2))),
    )
    for g in ("Gamma", "Γ")
}


def spec_ops(spec: str, exp: dict, commands: tuple, catalog: bool) -> list[Op]:
    ops = []
    for cmd in commands:
        if cmd == "invariants":
            ops.append(Op(("invariants", spec), expect=("invariants", spec, exp, catalog)))
        else:
            ops.append(Op(("pi1d", spec, "--resolution", cmd),
                          expect=("pi1d", spec, cmd, exp)))
    return ops


def load_catalog_expectations(catalog_path: str) -> list[tuple[str, dict]]:
    """The shipped catalog's specs and stored values, read as plain JSON."""
    with open(catalog_path, encoding="utf-8") as fh:
        raw = json.load(fh)
    out = []
    for e in raw["entries"]:
        want = e["expected"]
        exp = {k: (want[k]["rank"], tuple(want[k]["torsion"]))
               for k in ("characterGroup", "muDual", "pi1")}
        out.append((e["spec"], exp))
    return out


def classical_pool(max_rank: int) -> list[tuple[str, dict]]:
    """Every classical, exceptional and twisted spec of rank <= max_rank."""
    pool = [classical(f, n) for f in FAMILY_MIN for n in range(FAMILY_MIN[f], max_rank + 1)]
    pool += list(EXCEPTIONAL.items()) + list(TWISTED.items())
    return pool


# --- malformed specs ---------------------------------------------------------
# Every kind must exit 2.  The flip and triality kinds reach the datum
# constructors, which today raise InvalidDatum past the CLI, so they keep
# that defect visible: 9 of the 26 malformed ops in a cli_mix stream.

MALFORMED_KINDS = (
    lambda k: ["SL({})", "SO({})", "Sp({})", "GL({})", "PGL({})"][k % 5].format(
        [4 + k, 7 + 2 * k, 4 + 2 * k, 3 + k, 4 + k][k % 5]) + "xGamma:flip",
    lambda k: f"SL({3 + k})xGamma:" + ["spin", "rot", "swap", "cyc", "Z2", "outer"][k % 6],
    lambda k: ["SL({})", "Sp({})", "SO({})", "Spin({})"][k % 4].format(
        [5 + k, 8 + 2 * k, 8 + 2 * k, 10 + 2 * k][k % 4]) + "xGamma:triality",
    lambda k: ["FOO", "SU", "Sl", "SPIN", "PSp"][k % 5] + f"({2 + k})",
    lambda k: f"Sp({5 + 2 * k})" if k % 2 else f"PSO({7 + 2 * k})",
    lambda k: [f"E{9 + k}", f"G{3 + k}", f"SL({3 + k}", f"F{5 + k}ad", f"E6bc{k}"][k % 5],
)


def malformed_specs(rng: random.Random) -> Iterator[str]:
    """Distinct malformed or unsupported specs, one kind after another."""
    for k in itertools.count(rng.randrange(8)):
        for kind in MALFORMED_KINDS:
            yield kind(k)


# --- SES fixtures and cech inputs ------------------------------------------

def ses_fixture(family: str, n: int, data_dir: str) -> tuple[str, str, list]:
    """(file name, content, expected long exact sequence) of a standard SES:
    ``gm`` is T(1) -> GL(n) -> PGL(n), ``sl`` is SL(n) -> GL(n) -> T(1).
    The shipped fixture is used where there is one."""
    if family == "gm":
        name = f"ses_gm_gl{n}_pgl{n}.json"
        x3 = [[int(j == i) - int(j == i + 1) for j in range(n)] for i in range(n - 1)]
        obj = {"g1": "T(1)", "g2": f"GL({n})", "g3": f"PGL({n})", "part1": [],
               "part3": list(range(n - 1)), "x2ToX1": [[1]] * n, "x3ToX2": x3}
        seq = [ZERO, free(1), free(1), cyc(n), ZERO, ZERO]
    else:
        name = f"ses_sl{n}_gl{n}_gm.json"
        x2 = [[int(j == i) - int(j == i - 1) for j in range(n - 1)] for i in range(n)]
        obj = {"g1": f"SL({n})", "g2": f"GL({n})", "g3": "T(1)", "part1": list(range(n - 1)),
               "part3": [], "x2ToX1": x2, "x3ToX2": [[1] * n]}
        seq = [free(1), free(1), ZERO, ZERO, ZERO, ZERO]
    try:
        with open(f"{data_dir}/{name}", encoding="utf-8") as fh:
            text = fh.read()
    except FileNotFoundError:
        for key in ("x2ToX1", "x3ToX2"):
            obj[key] = [[str(x) for x in row] for row in obj[key]]
        text = json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"
    return name, text, seq


def unimodular(rng: random.Random, n: int, steps: int) -> list[list[int]]:
    """A random product of elementary integer row operations."""
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(steps if n > 1 else 0):
        i, k = rng.sample(range(n), 2)
        q = rng.choice((-2, -1, 1, 2))
        u[i] = [a + q * b for a, b in zip(u[i], u[k])]
    return u


def cech_input(rng: random.Random, name: str) -> Op:
    """phi = U D V with chosen invariant factors, so ker and coker are known."""
    a, b = rng.randint(1, 4), rng.randint(1, 4)
    r = rng.randint(0, min(a, b))
    factors = sorted(rng.choice((1, 1, 2, 3, 4, 6)) for _ in range(r))
    for i in range(1, r):  # make a divisibility chain d1 | d2 | ...
        factors[i] = math.lcm(factors[i], factors[i - 1])
    d = [[factors[i] if i == j and i < r else 0 for j in range(b)] for i in range(a)]
    phi = matmul(matmul(unimodular(rng, a, 3), d), unimodular(rng, b, 3))
    deg = rng.randint(4, 8)
    obj = {"fx": {"ambientRank": a, "relations": []},
           "fg": {"ambientRank": b, "relations": []},
           "phi": [[str(x) for x in row] for row in phi]}
    h0 = free(a - r)
    h1 = (b - r, tuple(f for f in factors if f > 1))
    return Op(("cech", name, "--max-degree", str(deg)), ((name, json.dumps(obj)),),
              expect=("cech", deg, h0, h1))


# --- workload streams --------------------------------------------------------

CLI_COMMANDS = ("invariants", "canonical", "pushout")


def cli_mix(rng: random.Random, data_dir: str) -> Iterator[Op]:
    """Catalog, small classical specs, SES fixtures, cech, malformed specs.

    One cycle: one catalog spec and four other specs of rank <= 12, each
    through all three commands, one SES fixture, three cech inputs and
    one malformed spec (1 in 20 ops).  The catalog sets the stream to 26
    cycles.
    """
    catalog = load_catalog_expectations(f"{data_dir}/catalog.json")
    names = {s for s, _ in catalog}
    rng.shuffle(catalog)
    pool = spread([p for p in classical_pool(12) if p[0] not in names], rng)
    fixtures = [ses_fixture(f, n, data_dir) for f in ("gm", "sl") for n in range(2, 15)]
    rng.shuffle(fixtures)
    bad = malformed_specs(rng)
    per_cycle = len(pool) // len(catalog)
    for c, (spec, exp) in enumerate(catalog):
        # X / saturation(root lattice) is free of the central rank, which is
        # the free rank of the character group.
        exp = dict(exp, radicalCharacters=free(exp["characterGroup"][0]))
        yield from spec_ops(spec, exp, CLI_COMMANDS, catalog=True)
        for other, oexp in pool[c * per_cycle:(c + 1) * per_cycle]:
            yield from spec_ops(other, oexp, CLI_COMMANDS, catalog=False)
        name, text, seq = fixtures[c % len(fixtures)]
        yield Op(("check-ses", name), ((name, text),), expect=("ses", seq))
        for k in range(3):
            yield cech_input(rng, f"cech{c:03d}_{k}.json")
        cmd = ("invariants",) if c % 2 else ("pi1d",)
        yield Op(cmd + (next(bad),), expect=("reject",))


RANK_SWEEP_FAMILIES = {
    # family: (ranks, strata).  One rank is drawn from each stratum of
    # neighbouring ranks, so every seed gets the same spread of sizes.  The
    # pushouts of PGL and GL go through member_coords and cost about four
    # times the others, so they stop lower.
    "SL": (range(16, 30), 7), "PGL": (range(14, 20), 3), "GL": (range(14, 20), 3),
    "Sp": (range(16, 30), 7), "SOodd": (range(16, 30), 7), "SOeven": (range(16, 30), 7),
    "Spinodd": (range(16, 30), 7), "Spineven": (range(16, 30), 7), "PSO": (range(16, 30), 7),
}


def stratified(values: list, strata: int, rng: random.Random) -> list:
    """One value from each of ``strata`` runs of neighbouring values."""
    size = len(values) // strata
    return [rng.choice(values[i * size:(i + 1) * size]) for i in range(strata)]


def rank_sweep(rng: random.Random, data_dir: str) -> Iterator[Op]:
    """Classical specs of rank 14..29 through invariants and pushout: 55
    specs, 110 ops.  Each cycle takes one spec per family."""
    ranks = {f: spread(stratified(list(r), k, rng), rng)
             for f, (r, k) in RANK_SWEEP_FAMILIES.items()}
    for c in range(max(len(r) for r in ranks.values())):
        for family, rs in ranks.items():
            if c < len(rs):
                spec, exp = classical(family, rs[c])
                yield from spec_ops(spec, exp, ("invariants", "pushout"), catalog=False)


# --- finite groups of order <= 8, built here from their elements -------------

def _dihedral(n: int):
    elems = [(r, s) for s in (0, 1) for r in range(n)]

    def mul(x, y):
        return ((x[0] + (y[0] if x[1] == 0 else -y[0])) % n, x[1] ^ y[1])
    return elems, mul


def _abelian(*orders: int):
    elems = list(itertools.product(*(range(o) for o in orders)))

    def mul(x, y):
        return tuple((a + b) % o for a, b, o in zip(x, y, orders))
    return elems, mul


# Products of the symbols 1, i, j, k as (symbol, sign bit).
_QUAT = {
    (0, 0): (0, 0), (0, 1): (1, 0), (0, 2): (2, 0), (0, 3): (3, 0),
    (1, 0): (1, 0), (1, 1): (0, 1), (1, 2): (3, 0), (1, 3): (2, 1),
    (2, 0): (2, 0), (2, 1): (3, 1), (2, 2): (0, 1), (2, 3): (1, 0),
    (3, 0): (3, 0), (3, 1): (2, 0), (3, 2): (1, 1), (3, 3): (0, 1),
}


def _quaternion():
    elems = [(s, a) for s in (0, 1) for a in range(4)]  # (sign bit, symbol)

    def mul(x, y):
        c, s = _QUAT[(x[1], y[1])]
        return ((x[0] + y[0] + s) % 2, c)
    return elems, mul


def _sign_chars(elems, parity_vectors) -> list[dict]:
    """Characters x -> (-1)^(c . v(x)) for nonzero c, v a map to (Z/2)^k."""
    k = len(parity_vectors(elems[0]))
    chars = []
    for c in itertools.product((0, 1), repeat=k):
        if any(c):
            chars.append({x: -1 if sum(a * b for a, b in zip(c, parity_vectors(x))) % 2 else 1
                          for x in elems})
    return chars


def small_groups() -> list[tuple[str, list, Callable, Inv, list, bool]]:
    """(name, elements, product, abelianization, sign characters, cyclic)."""
    out = []
    for n in range(1, 9):
        elems, mul = _abelian(n)
        chars = _sign_chars(elems, lambda x: (x[0] % 2,)) if n % 2 == 0 else []
        out.append((f"C{n}", elems, mul, cyc(n) if n > 1 else ZERO, chars, True))
    for orders in ((2, 2), (4, 2), (2, 2, 2)):
        elems, mul = _abelian(*orders)
        name = "x".join(f"C{o}" for o in orders)
        chars = _sign_chars(elems, lambda x: tuple(a % 2 for a in x))
        out.append((name, elems, mul, cyc(*sorted(orders)), chars, False))
    elems, mul = _dihedral(3)
    out.append(("S3", elems, mul, cyc(2), _sign_chars(elems, lambda x: (x[1],)), False))
    elems, mul = _dihedral(4)
    chars = _sign_chars(elems, lambda x: (x[0] % 2, x[1]))
    out.append(("D4", elems, mul, cyc(2, 2), chars, False))
    elems, mul = _quaternion()
    qv = {0: (0, 0), 1: (1, 0), 2: (0, 1), 3: (1, 1)}
    out.append(("Q8", elems, mul, cyc(2, 2), _sign_chars(elems, lambda x: qv[x[1]]), False))
    return out


def _module_json(table: list, labels: dict, elems: list, rank: int, action) -> str:
    """GammaModule JSON; ``action(x)`` is the matrix of element x."""
    return json.dumps({
        "gamma": {"order": len(table), "table": table},
        "group": {"ambientRank": rank, "relations": []},
        "action": {str(labels[x]): [[str(v) for v in row] for row in action(x)] for x in elems},
    }, sort_keys=True)


BAR_CYCLES = 6


def bar_cohomology(rng: random.Random, data_dir: str) -> Iterator[Op]:
    """H^1 and H^2 over every group of order <= 8 with trivial Z, sign and
    induced coefficients, and the fixed points H^0(G, Z[G]); each op gets a
    fresh labelling of the group.

    Expected values: H^1(G, Z) = 0 and H^2(G, Z) = G^ab; H^i(G, Z[G]^k) = 0
    for i > 0 and H^0(G, Z[G]) = Z, the multiples of the norm element
    (Shapiro); H^1(G, Z_chi) = Z/2 for a nontrivial sign character chi
    (inflation-restriction from G / ker chi = C2), and H^2(C_n, Z_chi) = 0
    since (Z_chi)^G = 0.  Induced H^2 of the groups of order 7 and 8 (2.3 s
    for C7, 4.3 s for C8, about 6 s for D4) is left out, so that the stream
    fits in one run; their induced H^1 is in.  The H^0 ops, which take
    under 1.5 ms, also put the median op time inside the plateau of the
    order-8 H^1 ops (about 1.7 ms each), rather than on the step between
    2.5 ms and 4 ms ops, where it moved by 10% from seed to seed.
    """
    groups = small_groups()
    seen: set = set()
    for c in range(BAR_CYCLES):
        for name, elems, mul, ab, chars, cyclic in groups:
            cases = [("induced", 0, 1, free(1)), ("Z", 1, 1, ZERO), ("Z", 2, 1, ab)]
            if chars:
                cases.append(("sign", 1, c % len(chars), cyc(2)))
                if cyclic:
                    cases.append(("sign", 2, c % len(chars), ZERO))
            cases.append(("induced", 1, 1, ZERO))
            if len(elems) <= 6:
                cases.append(("induced", 2, 1, ZERO))
            if len(elems) <= 3:
                cases += [("induced", i, 2, ZERO) for i in (1, 2)]
            for kind, degree, param, expected in cases:
                op = _bar_op(rng, name, elems, mul, chars, kind, degree, param, expected, seen)
                if op is not None:
                    yield op


def _labellings(rng: random.Random, q: int) -> Iterator[list]:
    """Seeded orderings of 0..q-1: all of them, shuffled, for q <= 6."""
    if q <= 6:
        perms = [list(p) for p in itertools.permutations(range(q))]
        rng.shuffle(perms)
        yield from perms
    else:
        for _ in range(50):
            yield rng.sample(range(q), q)


def _bar_op(rng, name, elems, mul, chars, kind, degree, param, expected, seen):
    """The op on a labelling of the group not used before, or None when the
    group has run out of them (C1 has one labelling, C2 two)."""
    q = len(elems)
    for perm in _labellings(rng, q):
        labels = {x: perm[i] for i, x in enumerate(elems)}
        table = [[0] * q for _ in range(q)]
        for x in elems:
            for y in elems:
                table[labels[x]][labels[y]] = labels[mul(x, y)]
        if kind == "Z":
            module = _module_json(table, labels, elems, 1, lambda x: [[1]])
        elif kind == "sign":
            module = _module_json(table, labels, elems, 1, lambda x: [[chars[param][x]]])
        else:
            action = _induced(labels, elems, mul, param)
            module = _module_json(table, labels, elems, param * q, action)
        if (module, degree) not in seen:
            seen.add((module, degree))
            label = f"H^{degree}({name}, {kind}{param if kind != 'Z' else ''})"
            return Op(module=module, degree=degree, expect=("bar", label, expected))
    return None


def _induced(labels, elems, mul, k):
    """Action on Z[G]^k: e_(j, x) -> e_(j, g x), basis ordered by label."""
    q = len(elems)
    by_label = {labels[x]: x for x in elems}

    def action(g):
        rows = []
        for j in range(k):
            for lab in range(q):
                row = [0] * (k * q)
                row[j * q + labels[mul(g, by_label[lab])]] = 1
                rows.append(row)
        return rows
    return action


DENSE_CYCLES = 20
DENSE_BANDS = (range(10, 18), range(18, 26), range(26, 34), range(34, 41))


def dense_normal_forms(rng: random.Random, data_dir: str) -> Iterator[Op]:
    """SNF and HNF of dense square matrices, n = 10..40, |entries| <= 9..99.

    One cycle: one SNF and one HNF in each of four size bands.  Within a
    band, n and the entry bound follow a fixed, evenly spread schedule, the
    same for every seed; the seed draws the entries.  20 cycles, 160 ops.
    """
    schedule = random.Random("dense_normal_forms schedule")
    sizes = [spread(list(b), schedule) for b in DENSE_BANDS]
    bounds = [spread(list(range(9, 100)), schedule) for _ in DENSE_BANDS]
    for c in range(DENSE_CYCLES):
        for kind in ("snf", "hnf"):
            for band, (ns, bs) in enumerate(zip(sizes, bounds)):
                n, bound = ns[c % len(ns)], bs[(2 * c + (kind == "hnf")) % len(bs)]
                m = [[rng.randint(-bound, bound) for _ in range(n)] for _ in range(n)]
                name = f"m{c:04d}_{kind}{band}.json"
                yield Op(("matrix", kind, name), ((name, _matrix_json(m)),),
                         expect=(kind, m))


STREAMS = {
    "cli_mix": cli_mix,
    "rank_sweep": rank_sweep,
    "bar_cohomology": bar_cohomology,
    "dense_normal_forms": dense_normal_forms,
}

# One op per workload on an input outside its measured set (rank 13 or 11,
# degree 0, a 5 x 5 matrix), run first and not checked.
WARMUP = {
    "cli_mix": Op(("invariants", "T(13)"), expect=("warmup",)),
    "rank_sweep": Op(("invariants", "SL(12)"), expect=("warmup",)),
    "bar_cohomology": Op(module=_module_json([[0, 1], [1, 0]], {(0,): 0, (1,): 1}, [(0,), (1,)],
                                             1, lambda x: [[1]]), expect=("warmup",)),
    "dense_normal_forms": Op(("matrix", "snf", "warmup.json"), (("warmup.json", _matrix_json(
        [[2, 1, 0, 3, 1], [1, -4, 2, 0, 5], [0, 3, 7, -1, 2], [6, 0, -2, 4, 1],
         [1, 1, 1, -3, 8]])),), expect=("warmup",)),
}


def stream(workload: str, seed: int, data_dir: str) -> Iterator[Op]:
    """The op stream of ``workload`` for ``seed``; ``data_dir`` holds the
    shipped catalog."""
    return STREAMS[workload](random.Random(f"{workload}:{seed}"), data_dir)
