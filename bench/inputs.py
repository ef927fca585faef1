"""Seeded inputs for the four workloads.

Each generator takes the workload seed and returns a ``Plan``: the files
to write, the units to time (one CLI invocation each, or one worker op
list for ``domains_warm``) and what each unit is expected to print.
Expectations come from ``reference``; nothing here imports wadm.

The mix of each workload is fixed (how many instances of which kind and
rank); the seed only draws the values.  That keeps the work per run the
same from seed to seed, which the steadiness check relies on.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import reference as ref

# check_batch follows the baseline cases that ROADMAP item 1 lists and item 3
# measured the thread pool on: one `wadm check` over a 300-file batch and
# `wadm sweep --rank 4 --count 500`.
N_ZETA, N_UNDECIDED, N_CHAIN, N_BLOCK = 150, 38, 56, 53  # + 3 goldens = 300 files
SWEEP_COUNT = 500
# A passing rank-11 check takes about 13 s on a 2-vCPU x86-64 VM (Python
# 3.11), too long for a 28-s run; a cycle of the mix below takes about 15 s.
# Two passing instances per rank, each at a fixed residue prime.  The
# oracle's time depends on the drawn values (one rank-10 instance took
# 2.3-2.7 s over seeds 1, 4 and 5), so a pair per rank halves the seed's
# share of the spread; p moves it by up to 9% (p = 2 against p = 5), so it
# is not drawn.
DEEP_RANKS = ((9, 3), (9, 5), (10, 3), (10, 5))
# One query per group, the two commands alternating: the gl(20) query alone
# takes about 5 s cold, and both commands on all four groups would not fit
# three cycles into a run.  Both commands pay the same root closure.  The
# residue prime (third field) is fixed per query, like DEEP_RANKS's.
QUERIES = (("satake-norm", 8, 2), ("affinoid", 12, 3), ("satake-norm", 16, 5), ("affinoid", 20, 3))
PAIRS_PER_GROUP = 100
# Committed goldens, with the subobjects the oracle enumerates for each.
GOLDENS = {"gl2_pass": 3, "gl2_fail": 0, "gl2_steinberg": 2}

# Criterion-4 boxes: (group, rank, (p, e, f), highest weight per embedding).
WARM_CASES = (
    ("gl", 2, (3, 1, 1), ((-3, 3),)),
    ("gl", 3, (2, 1, 1), ((-2, 1, 3),)),
    ("gl", 3, (2, 2, 1), ((0, 0, 1), (0, 1, 1))),
    ("sp4", 2, (3, 1, 1), ((3, 2),)),
    ("sp4", 2, (2, 1, 2), ((1, 0), (2, 1))),
)
PAIR_GROUPS = (("gl", 2), ("gl", 3), ("sp4", 2))


@dataclass
class Unit:
    """One timed unit: a CLI invocation (``args`` after ``wadm``) or, for
    domains_warm, one worker op.  ``ops`` is how many operations it holds."""

    label: str
    args: list
    ops: int
    expect: object
    subobjects: int = 0  # subobjects the admissibility oracle enumerates
    sample: str = ""  # latency sample the unit's time adds to; "" for none


@dataclass
class Plan:
    files: dict = field(default_factory=dict)  # relative path -> text
    units: list = field(default_factory=list)
    judged: int = 0  # operations with a pass/fail reference verdict
    passing: int = 0  # of those, the ones expected to pass (or be members)

    def digest(self) -> str:
        blob = json.dumps([sorted(self.files.items()), [u.args for u in self.units]])
        return hashlib.sha256(blob.encode()).hexdigest()

    def write(self, root: Path) -> None:
        for rel, text in self.files.items():
            path = root / rel
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text, encoding="utf-8")


def fmt(values) -> str:
    return " ".join(str(Fraction(v)) for v in values)


def _spread(rng: random.Random, values, rounds: int, upto: int | None = None):
    """Robin Hood transfers of less than half the gap among values[:upto]:
    the result stays majorized by the input, keeps its total and its order."""
    v = list(values)
    idx = range(len(v) if upto is None else upto)
    for _ in range(rounds if len(idx) > 1 else 0):
        i, j = sorted(rng.sample(idx, 2))
        gap = v[j] - v[i]
        if gap > 1:
            t = Fraction(rng.randint(1, math.ceil(gap) - 1), 2)
            v[i] += t
            v[j] -= t
    return v


def zeta_vals(rng: random.Random, bound, kind: str):
    """Distinct valuations that pass (majorized by the increasing ``bound``)
    or fail by a tail ("fail-tail") or by the total ("fail-total")."""
    n = len(bound)
    for attempt in range(51):
        rounds = 2 * n if attempt < 50 else 0  # the last try keeps ``bound``'s order
        v = list(bound)
        if kind == "fail-tail":
            t = Fraction(rng.randint(1, 4), 2)
            v[0] -= t
            v[-1] += t
            v = _spread(rng, v, rounds, upto=n - 1)
        else:
            v = _spread(rng, v, rounds)
        if kind == "fail-total":
            v[-1] += Fraction(rng.choice((-1, 1)) * rng.randint(1, 3), 2)
        if len(set(v)) == n:
            break
    rng.shuffle(v)
    return v


def _header(ident: str, pef, group: str | None = None) -> list:
    p, e, f = pef
    lines = [f"id: {ident}", f"field.p: {p}", f"field.e: {e}", f"field.f: {f}"]
    if group:
        lines.append(f"group: {group}")
    return lines


def _rows(form: str, rows) -> list:
    return [f"weights.form: {form}"] + [
        f"weights.sigma{k}: " + " ".join(str(v) for v in row) for k, row in enumerate(rows, 1)
    ]


def zeta_text(ident, pef, a_rows, vals, group=None) -> str:
    lines = _header(ident, pef, group) + _rows("a", a_rows)
    lines += ["galois.form: zeta", f"galois.zeta_vals: {fmt(vals)}", "options.normalized: true"]
    return "\n".join(lines) + "\n"


def wd_text(ident, pef, jump_rows, parts, ramified=False) -> str:
    lines = _header(ident, pef) + _rows("i", jump_rows) + ["galois.form: wd"]
    for k, part in enumerate(parts, 1):
        if part[0] == "unramified":
            jordan = f" jordan={part[3]}" if len(part) > 3 else ""
            lines.append(f"galois.wd.{k}: unramified val={Fraction(part[1])} mult={part[2]}{jordan}")
        else:
            lines.append(f"galois.wd.{k}: steinberg base={Fraction(part[1])} dim={part[2]} len={part[3]}")
    if ramified:
        lines.append("galois.wd.ramified: true")
    return "\n".join(lines) + "\n"


def _pef(rng: random.Random, k: int):
    """Field invariants; the degree pattern is fixed by position."""
    e, f = ((1, 1), (1, 1), (2, 1), (1, 2))[k % 4]
    return rng.choice((2, 3, 5)), e, f


def _weights(rng: random.Random, n: int, deg: int, lo=-3, hi=3):
    return [sorted(rng.randint(lo, hi) for _ in range(n)) for _ in range(deg)]


def _jumps(rng: random.Random, n: int, deg: int, span=12):
    return [sorted(rng.sample(range(-span, span + 1), n)) for _ in range(deg)]


def _zeta_case(rng, ident, k, n, kind):
    """(text, expectation, subobjects) of a zeta instance."""
    pef = _pef(rng, k)
    deg = pef[1] * pef[2]
    a_rows = _weights(rng, n, deg)
    base_kind = "pass" if kind == "undecided" else kind
    vals = zeta_vals(rng, ref.weight_bound(a_rows, deg), base_kind)
    if kind == "undecided":
        i, j = rng.sample(range(n), 2)
        vals[j] = vals[i]
    expect = ref.zeta_expect(vals, a_rows, deg)
    group = f"gl({n})" if k % 3 == 0 else None
    subobjects = 2**n - 1 if expect["adm"] == ref.PASS else 0
    return zeta_text(ident, pef, a_rows, vals, group), expect, subobjects


def _chain_case(rng, ident, k):
    pef = _pef(rng, k)
    deg = pef[1] * pef[2]
    piece, length = ((1, 2), (1, 3), (2, 2), (2, 3))[k // 2 % 4]
    jumps = _jumps(rng, piece * length, deg)
    t_h = sum(map(sum, jumps))
    base = (Fraction(t_h, piece) - Fraction(deg * length * (length - 1), 2)) / length
    if k % 2:
        base += Fraction(rng.randint(1, 4), 2)
    parts = [("steinberg", base, piece, length)]
    expect = ref.chain_expect(base, piece, length, jumps, deg)
    return wd_text(ident, pef, jumps, parts), expect, length


def _block_case(rng, ident, k, want_pass: bool):
    """A chain plus unramified parts, drawn until the verdict is the wanted one."""
    pef = _pef(rng, k)
    deg = pef[1] * pef[2]
    n = 3 + k % 4
    for _ in range(10_000):
        jumps = _jumps(rng, n, deg, span=6)
        parts = [["steinberg", Fraction(rng.randint(-8, 8), 2), 1, 2]]
        left = n - 2
        while left:
            mult = min(left, rng.choice((1, 2)))
            part = ["unramified", Fraction(rng.randint(-8, 8), 2), mult]
            if mult == 2 and rng.random() < 0.5:
                part.append(2)
            parts.append(part)
            left -= mult
        head = parts[1]
        others = sum(tn for tn, _ in ref.block_pieces(parts, deg)) - head[1] * head[2]
        head[1] = (sum(map(sum, jumps)) - others) / head[2]
        if ref.block_admissible(parts, jumps, deg) == want_pass:
            expect = ref.block_expect(parts, jumps, deg)
            return wd_text(ident, pef, jumps, parts), expect, 0
    raise RuntimeError("block generator exhausted its draws")


def check_batch(seed: int, root: Path, data_dir: str) -> Plan:
    """The generated instances and the goldens in one `wadm check`, one
    sweep, and the edge inputs one invocation each.  The batch invocation
    is the latency sample."""
    rng = random.Random(f"check_batch-{seed}")
    plan = Plan()
    batch = []
    for k in range(N_ZETA + N_UNDECIDED + N_CHAIN + N_BLOCK):
        ident = f"gen-{k:04d}"
        if k < N_ZETA:
            kind = ("pass", "fail-tail", "pass", "fail-total")[k % 4]
            case = _zeta_case(rng, ident, k, 2 + k % 5, kind)
        elif k < N_ZETA + N_UNDECIDED:
            case = _zeta_case(rng, ident, k, 2 + k % 5, "undecided")
        elif k < N_ZETA + N_UNDECIDED + N_CHAIN:
            case = _chain_case(rng, ident, k)
        else:
            case = _block_case(rng, ident, k, k % 2 == 0)
        text, expect, subobjects = case
        rel = f"{data_dir}/{ident}.inst"
        plan.files[rel] = text
        batch.append((rel, ident, expect, subobjects))
        plan.judged += 1
        plan.passing += expect["adm"] == ref.PASS
    for name, subobjects in GOLDENS.items():
        inst = f"tests/golden/{name}.inst"
        golden = (root / "tests/golden/expected" / f"{name}.check.txt").read_text(encoding="utf-8")
        ident = _ident_of((root / inst).read_text(encoding="utf-8"))
        batch.append((inst, ident, golden, subobjects))
        plan.judged += 1
        plan.passing += "\nverdict: pass\n" in golden
    rng.shuffle(batch)
    plan.units.append(Unit(
        "batch", ["check"] + [rel for rel, *_ in batch], len(batch),
        ("reports", [(ident, expect) for _, ident, expect, _ in batch]),
        sum(s for *_, s in batch), sample="batch"))
    plan.units.append(Unit("sweep", ["sweep", "--rank", "4", "--count", str(SWEEP_COUNT),
                                     "--seed", str(seed)], SWEEP_COUNT, ("sweep", SWEEP_COUNT)))
    for label, text, allowed in edge_inputs(rng):
        rel = f"{data_dir}/{label}.inst"
        plan.files[rel] = text
        plan.units.append(Unit(label, ["check", rel], 1, ("edge", allowed)))
    return plan


def _ident_of(text: str) -> str:
    for line in text.splitlines():
        if line.startswith("id:"):
            return line.partition(":")[2].strip()
    raise ValueError("golden instance without an id line")


def edge_inputs(rng: random.Random):
    """Inputs outside the happy path, each run in its own invocation:
    (label, text, {allowed exit code: required verdict or None}).  The exit-code
    contract allows a verdict, undecided (2) or an input error (3)."""
    pef = (3, 1, 1)
    a13 = _weights(rng, 13, 1)
    vals13 = zeta_vals(rng, ref.weight_bound(a13, 1), "pass")
    yield "edge-rank13-pass", zeta_text("edge-rank13-pass", pef, a13, vals13), {0: "pass", 2: None}
    text = zeta_text("edge-zero-denominator", pef, [[0, 1]], [0, 2]).replace(
        "galois.zeta_vals: 0 2", "galois.zeta_vals: 1/0 2")
    yield "edge-zero-denominator", text, {3: None}
    text = zeta_text("edge-empty-lists", pef, [[0]], [0])
    text = text.replace("weights.sigma1: 0", "weights.sigma1:").replace(
        "galois.zeta_vals: 0", "galois.zeta_vals:")
    yield "edge-empty-lists", text, {3: None}
    yield "edge-cartan-int", zeta_text("edge-cartan-int", pef, [[0, 1]], [0, 2], "cartan 5"), {3: None}
    parts = [("unramified", 0, 1), ("unramified", 1, 1)]
    yield "edge-ramified", wd_text("edge-ramified", pef, [[-1, 0]], parts, ramified=True), {2: "undecided"}


def check_deep(seed: int, root: Path, data_dir: str) -> Plan:
    """Passing distinct-slope instances at ranks 9 and 10, each with a failing
    twin (same weights, one tail pushed over its bound).  An instance and
    its twin form one latency sample, so that the median is the mean of the
    two pairs rather than the midpoint between a fast twin and a slow pass."""
    rng = random.Random(f"check_deep-{seed}")
    plan = Plan()
    for n, p in DEEP_RANKS:
        pef = (p, 1, 1)
        a_rows = _weights(rng, n, 1)
        bound = ref.weight_bound(a_rows, 1)
        for kind in ("pass", "fail-tail"):
            ident = f"deep-r{n}-p{p}-{kind.split('-')[0]}"
            vals = zeta_vals(rng, bound, kind)
            rel = f"{data_dir}/{ident}.inst"
            plan.files[rel] = zeta_text(ident, pef, a_rows, vals)
            expect = ref.zeta_expect(vals, a_rows, 1)
            passing = expect["adm"] == ref.PASS
            plan.judged += 1
            plan.passing += passing
            plan.units.append(Unit(ident, ["check", rel], 1, ("reports", [(ident, expect)]),
                                   2**n - 1 if passing else 0, sample=f"r{n}"))
    return plan


def _norm_terms(rng: random.Random, n: int, p: int, span: int = 2, count: int = 3):
    terms, seen = [], set()
    while len(terms) < count:
        lam = tuple(rng.randint(-span, span) for _ in range(n))
        a = Fraction(rng.randint(-9, 9), rng.choice((1, p)))
        b = Fraction(rng.randint(-9, 9), rng.choice((1, p)))
        if lam in seen or (a == 0 and b == 0):
            continue
        seen.add(lam)
        terms.append((lam, a, b))
    return terms


def queries_cold(seed: int, root: Path, data_dir: str) -> Plan:
    """One query per gl(n), n in 8/12/16/20: satake-norm on gl(8) and
    gl(16), affinoid on gl(12) and gl(20).  Each query is its own latency
    sample."""
    rng = random.Random(f"queries_cold-{seed}")
    plan = Plan()
    for command, n, p in QUERIES:
        pef = (p, 1, 1)
        xi = _weights(rng, n, 1, lo=0, hi=2)
        if command == "affinoid":
            bound = [e + s for e, s in zip(ref.gl_eta(n), ref.agg(xi))]
            member = rng.random() < 0.5
            point = zeta_vals(rng, bound, "pass" if member else "fail-tail")
            plan.judged += 1
            plan.passing += member
            ident = f"affinoid-gl{n}"
            lines = _header(ident, pef, f"gl({n})") + _rows("a", xi)
            lines += [f"point.vals: {fmt(point)}", "options.normalized: true"]
            report = [
                "report: affinoid", f"id: {ident}", f"group: gl({n})",
                f"point.vals: {fmt(point)}", "normalized: true",
                f"member: {'true' if member else 'false'}",
            ]
            expect = ("bytes", int(not member), "\n".join(report) + "\n")
        else:
            ident = f"norm-gl{n}"
            terms = _norm_terms(rng, n, p)
            lines = _header(ident, pef, f"gl({n})") + _rows("a", xi)
            lines += [f"element.{k}: lambda={','.join(map(str, lam))} a={a} b={b}"
                      for k, (lam, a, b) in enumerate(terms, 1)]
            value = ref.gl_norm_val(terms, xi, p, 1, 1)
            report = [
                "report: satake-norm", f"id: {ident}", f"group: gl({n})",
                f"element.terms: {len(terms)}", f"norm.val_q: {value}", f"norm.val_L: {value}",
            ]
            expect = ("bytes", 0, "\n".join(report) + "\n")
        rel = f"{data_dir}/{ident}.inst"
        plan.files[rel] = "\n".join(lines) + "\n"
        plan.units.append(Unit(ident, [command, rel], 1, expect, sample=f"gl{n}"))
    return plan


def warm_box(group: str, rank: int, deg: int, xi_rows):
    """Half-lattice points of the bounding box of W(eta_L + xi_L) - eta_L."""
    if group == "gl":
        eta = [deg * e for e in ref.gl_eta(rank)]
    else:  # sp(4): eta = (2, 1); W acts by signed permutations
        eta = [2 * deg, deg]
    top = [e + s for e, s in zip(eta, ref.agg(xi_rows))]
    if group == "gl":
        lo, hi = [min(top)] * rank, [max(top)] * rank
    else:
        m = max(abs(v) for v in top)
        lo, hi = [-m] * rank, [m] * rank
    axes = [[Fraction(k, 2) for k in range(int(2 * (a - e)), int(2 * (b - e)) + 1)]
            for a, b, e in zip(lo, hi, eta)]
    return list(itertools.product(*axes))


def _pair_xi(rng: random.Random, group: str, rank: int):
    if group == "gl":
        return [sorted(rng.randint(0, 3) for _ in range(rank))]
    low = rng.randint(0, 3)
    return [[low + rng.randint(0, 3), low]]


def domains_warm(seed: int, root: Path, data_dir: str) -> Plan:
    """Every criterion-4 box point (in_hull and in_Vxi) plus norm pairs,
    shuffled into one op list that warm worker processes run in slices."""
    rng = random.Random(f"domains_warm-{seed}")
    plan = Plan()
    ops = []
    for c, (group, rank, pef, xi) in enumerate(WARM_CASES):
        deg = pef[1] * pef[2]
        for z in warm_box(group, rank, deg, xi):
            member = ref.gl_member(z, xi, deg, normalized=False) if group == "gl" else None
            plan.judged += member is not None
            plan.passing += bool(member)
            ops.append(Unit("point", ["point", c, [str(v) for v in z]], 1, ("point", member)))
    for g, (group, rank) in enumerate(PAIR_GROUPS):
        for _ in range(PAIRS_PER_GROUP):
            xi = _pair_xi(rng, group, rank)
            x, y = (_norm_terms(rng, rank, 3, span=3, count=rng.randint(1, 3)) for _ in range(2))
            expect = None
            if group == "gl":
                expect = [str(ref.gl_norm_val(t, xi, 3, 1, 1)) for t in (x, y)]
            wire = [[list(lam), str(a), str(b)] for lam, a, b in x], \
                   [[list(lam), str(a), str(b)] for lam, a, b in y]
            ops.append(Unit("pair", ["pair", g, xi, wire[0], wire[1], rng.randrange(10**6)], 1,
                            ("pair", expect)))
    rng.shuffle(ops)
    worker_input = {
        "cases": [[group, rank, list(pef), [list(r) for r in xi]]
                  for group, rank, pef, xi in WARM_CASES],
        "pair_groups": [list(g) for g in PAIR_GROUPS],
        "ops": [u.args for u in ops],
    }
    plan.files[f"{data_dir}/warm.json"] = json.dumps(worker_input)
    plan.units = ops
    return plan


PLANS = {
    "check_batch": check_batch,
    "check_deep": check_deep,
    "domains_warm": domains_warm,
    "queries_cold": queries_cold,
}
