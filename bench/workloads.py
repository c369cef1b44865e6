"""The three benchmark workloads: seeded inputs, one timed call per item, and
ground truth that colline did not compute.

Every workload builds a fixed pool of items from its seed during set-up. The
timed loop cycles through that pool, so a faster commit repeats the same
items rather than reaching new ones, and per-run figures stay pool averages.

Ground truth comes from how each input is built: a linear map passes every
line check; a map built as L·R with L and R triangular with nonzero diagonals
has rank r; a jump or a warped ray is not affine. colline's own rank and
classification functions are never the oracle. colline's re-check functions
(``revalidate_witness``, ``Certificate.validate``) are used only to confirm
that the evidence colline produced re-checks.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import re
import shutil
import time
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Optional

CLASSIFY_PROBES = 100
LINE_PROBES = 500
ROUNDTRIP_PROBES = "20"
LINE_CHECKS = ("line_image", "line_injectivity", "ratio_preservation")


# -- exact helpers owned by the benchmark ---------------------------------------


def rand_scalar(rng: random.Random, bound: int) -> Fraction:
    return Fraction(rng.randint(-bound, bound), rng.randint(1, bound))


def rand_nonzero(rng: random.Random, bound: int) -> Fraction:
    while True:
        s = rand_scalar(rng, bound)
        if s:
            return s


def mat_mul(a, b):
    return [[sum((a[i][k] * b[k][j] for k in range(len(b))), Fraction(0))
             for j in range(len(b[0]))] for i in range(len(a))]


def rank_r_matrix(rng: random.Random, n: int, m: int, r: int):
    """An n×m matrix of rank exactly r, with pivot columns returned.

    L (n×r) has a nonzero diagonal and zeros above it, so its columns are
    independent; R (r×m) has a nonzero diagonal and zeros below it, so its
    rows are independent. L·R then has rank r. Rows and columns are shuffled;
    the returned columns hold the images of R's first two columns, which are
    independent by the same triangular argument.
    """
    small = lambda: Fraction(rng.randint(-3, 3), rng.randint(1, 2))
    nonzero = lambda: Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 2))
    left = [[(nonzero() if i == j else small()) if j <= i else Fraction(0)
             for j in range(r)] for i in range(n)]
    right = [[(nonzero() if i == j else small()) if j >= i else Fraction(0)
              for j in range(m)] for i in range(r)]
    a = mat_mul(left, right)
    rows = list(range(n))
    cols = list(range(m))
    rng.shuffle(rows)
    rng.shuffle(cols)
    shuffled = [[a[i][cols[j]] for j in range(m)] for i in rows]
    # column j of the shuffled matrix is column cols[j] of L·R
    pivots = (cols.index(0), cols.index(1))
    return shuffled, pivots


def independent(u, v) -> bool:
    """Two vectors are independent iff some 2×2 minor is nonzero."""
    return any(u[i] * v[j] != u[j] * v[i]
               for i in range(len(u)) for j in range(i + 1, len(u)))


def scalar_text(s: Fraction) -> str:
    return str(s.numerator) if s.denominator == 1 else f"{s.numerator}/{s.denominator}"


def vector_text(v) -> str:
    return "(" + ", ".join(scalar_text(c) for c in v) + ")"


def affine_text(row, const=Fraction(0)) -> str:
    """DSL text of Σ row[j]·xj + const."""
    terms = [(a, f"x{j}") for j, a in enumerate(row) if a] + ([(const, None)] if const else [])
    if not terms:
        return "0"
    out = []
    for k, (a, var) in enumerate(terms):
        body = scalar_text(abs(a)) + (f"*{var}" if var else "")
        if k == 0:
            out.append(("-" if a < 0 else "") + body)
        else:
            out.append(("- " if a < 0 else "+ ") + body)
    return " ".join(out)


def map_text(name: str, m: int, outputs) -> str:
    body = ";\n".join(f"  y{i} = {expr}" for i, expr in enumerate(outputs))
    return f"map {name} : {m} -> {len(outputs)} {{\n{body}\n}}\n"


def plain(value):
    """A colline value as nested tuples of strings, read from its attributes
    only, so that digesting calls nothing in colline."""
    if isinstance(value, Fraction):
        return str(value)
    if hasattr(value, "coords"):
        return tuple(str(c) for c in value.coords)
    if hasattr(value, "direction"):
        return ("line", plain(value.origin), plain(value.direction))
    if isinstance(value, (tuple, list)):
        return tuple(plain(v) for v in value)
    return repr(value)


# -- seeded map families ---------------------------------------------------------


def linear_family(rng, name, m, n):
    r = rng.randint(2, min(m, n))
    a, pivots = rank_r_matrix(rng, n, m, r)
    return dict(name=name, kind="linear", m=m, matrix=a, pivots=pivots,
                text=map_text(name, m, [affine_text(row) for row in a]))


def affine_family(rng, name, m, n):
    r = rng.randint(2, min(m, n))
    a, pivots = rank_r_matrix(rng, n, m, r)
    b = [rand_scalar(rng, 3) for _ in range(n)]
    if not any(b):
        b[rng.randrange(n)] = rand_nonzero(rng, 3)
    return dict(name=name, kind="affine", m=m, matrix=a, offset=b, pivots=pivots,
                text=map_text(name, m, [affine_text(row, c) for row, c in zip(a, b)]))


def jump_family(rng, name, m, n, guards=(-2, -1, 0, 1, 2)):
    """y_j jumps by k where x0 crosses g; every other output is linear.

    With g < 0 the jump is taken at the origin, so f(0) = k·e_j ≠ 0.
    """
    a = [[rand_scalar(rng, 3) for _ in range(m)] for _ in range(n)]
    j = rng.randrange(n)
    g = rng.choice(guards)
    k = rng.choice((-5, -4, -3, -2, -1, 1, 2, 3, 4, 5))
    outputs = [affine_text(row) for row in a]
    outputs[j] = (f"if x0 <= {g} then {affine_text(a[j])}"
                  f" else {affine_text(a[j], Fraction(k))}")
    return dict(name=name, kind="jump", m=m, text=map_text(name, m, outputs))


def warped_family(rng, name, m, n):
    """x ↦ ψ(xi)·d with ψ(t) = c·t for t ≤ 0 and 2c·t for t > 0 (a warped ray)."""
    i = rng.randrange(m)
    c = rand_nonzero(rng, 3)
    d = [rand_scalar(rng, 3) for _ in range(n)]
    if not any(d):
        d[rng.randrange(n)] = rand_nonzero(rng, 3)
    along = lambda coef: affine_text([coef if j == i else Fraction(0) for j in range(m)])
    outputs = [f"if x{i} <= 0 then {along(c * dk)} else {along(2 * c * dk)}" if dk else "0"
               for dk in d]
    return dict(name=name, kind="warped", m=m, text=map_text(name, m, outputs))


# -- workload protocol -------------------------------------------------------------


@dataclass
class Result:
    """What the harness learns from one item after it ran."""

    probes: int
    ok: bool
    record: object  # digested; colline-independent plain data
    known_defect: bool = False
    revalidate_s: Optional[float] = None
    report_bytes: int = 0


class Workload:
    """One workload: a seeded item pool, the timed call, and its checks."""

    name = ""

    def __init__(self, lib, seed: int, root: str):
        self.lib = lib
        self.seed = seed
        self.root = root
        self.rng = random.Random(f"{self.name}:{seed}")

    def setup(self) -> list:
        """Generate the item pool (timed as part of set-up)."""
        raise NotImplementedError

    def warmup(self) -> None:
        """Run a fixed, seed-independent input once so lazy state is built."""
        raise NotImplementedError

    def run(self, item):
        """The timed call into colline's public API."""
        raise NotImplementedError

    def verify(self, item, out) -> Result:
        """Check the output against ground truth (untimed)."""
        raise NotImplementedError

    def reproduce_defects(self) -> list:
        """Results of the items kept out of the pool because they run into a
        documented defect; run once, untimed, after the timed loop."""
        return []

    @contextlib.contextmanager
    def active(self):
        yield

    def close(self) -> None:
        pass


class LinesLinear(Workload):
    """Random linear maps through the three line checks at 500 probes."""

    name = "lines-linear"

    def setup(self):
        zoo, predicates = self.lib.zoo, self.lib.predicates
        self.cfg = predicates.ProbeConfig(count=LINE_PROBES)
        items = []
        # three maps of every size 1..4 × 1..4: 144 items
        for idx, (_, m, n) in enumerate(product(range(3), range(1, 5), range(1, 5))):
            a = [[rand_scalar(self.rng, 12) for _ in range(m)] for _ in range(n)]
            handle = zoo.make_linear(a, name=f"lin{idx}")
            items.extend((idx, handle, check) for check in LINE_CHECKS)
        return items

    def warmup(self):
        f = self.lib.zoo.make_linear([[1, 2], [3, 4]])
        cfg = self.lib.predicates.ProbeConfig(count=50)
        for check in LINE_CHECKS:
            getattr(self.lib.predicates, "check_" + check)(f, cfg)

    def run(self, item):
        _, handle, check = item
        return getattr(self.lib.predicates, "check_" + check)(handle, self.cfg)

    def verify(self, item, out):
        idx, _, check = item
        ok = (out.passed and out.check == check.replace("_", "-")
              and out.probes + out.skipped == LINE_PROBES)
        return Result(out.probes, ok, (idx, out.check, out.passed, out.probes, out.skipped))


class ClassifyDsl(Workload):
    """Seeded DSL texts of four families whose verdict is known by construction."""

    name = "classify-dsl"
    # per size: three linear maps, then one of each other family. Half the
    # pool is linear, so the median item is a linear verdict (not the gap
    # between the cheap refutations and the dear verdicts). The affine
    # family, the slowest, sets the p90; its maps are all 2 -> 2 because
    # across sizes their cost varies twofold, which moved the p90 by 12 %
    # from seed to seed.
    FAMILIES = (
        (linear_family, "empirically_linear", None),
        (linear_family, "empirically_linear", None),
        (linear_family, "empirically_linear", None),
        (affine_family, "empirically_affine", (2, 2)),
        (jump_family, "non_linear", None),
        (warped_family, "non_linear", None),
    )
    SIZES = ((2, 2), (2, 3), (3, 2), (3, 3)) * 2

    def setup(self):
        self.cfg = self.lib.predicates.ProbeConfig(count=CLASSIFY_PROBES)
        items = []
        for size in self.SIZES:
            for family, verdict, fixed in self.FAMILIES:
                spec = family(self.rng, f"f{len(items)}", *(fixed or size))
                items.append((len(items), spec["kind"], spec["text"], verdict))
        return items

    def warmup(self):
        text = "map w : 2 -> 2 { y0 = x0 + 2*x1; y1 = x1 + 1 }"
        spec = self.lib.dsl.parse_map_file(text)[0]
        cfg = self.lib.predicates.ProbeConfig(count=20)
        self.lib.engine.classify_map(self.lib.zoo.make_dsl(spec), cfg, use_symbolic=False)

    def run(self, item):
        spec = self.lib.dsl.parse_map_file(item[2])[0]
        handle = self.lib.zoo.make_dsl(spec)
        return handle, self.lib.engine.classify_map(handle, self.cfg, use_symbolic=False)

    def verify(self, item, out):
        idx, kind, _, expected = item
        handle, cls = out
        engine, predicates = self.lib.engine, self.lib.predicates
        ok = cls.verdict == expected
        reduced = None
        if cls.affine_base is not None:
            reduced = engine.shift_reduce(handle, cls.affine_base)
        if expected == "non_linear":
            target = reduced if cls.witness_scope == "reduced" else handle
            ok = ok and cls.witness is not None and target is not None
            ok = ok and predicates.revalidate_witness(target, cls.witness)
        target = reduced if cls.certificate_scope == "reduced" else handle
        for cert in cls.certificates:
            ok = ok and target is not None and not cert.validate(target)
        probes = sum(o.probes for o in cls.outcomes)
        record = (
            idx, kind, cls.verdict,
            tuple((o.check, o.passed, o.probes, o.skipped) for o in cls.outcomes),
            None if cls.witness is None else (cls.witness.check, plain(cls.witness.inputs)),
        )
        return Result(probes, ok, record)


_WALL_TIME = re.compile(rb'"wall_time_ms": [0-9.eE+-]+')


class ReportRoundtrip(Workload):
    """In-process ``colline.cli.run``: write a report, then ``--revalidate`` it."""

    name = "report-roundtrip"
    DEMOS = {  # read from the demo sources, not computed by colline
        "identity.map": "linear",
        "translate.map": "affine",
        "jump2.map": "jump",
        "psi.map": "warped",
    }

    def setup(self):
        self.work = os.path.join(self.root, ".bench_out", f"{self.name}-{self.seed}-{os.getpid()}")
        shutil.rmtree(self.work, ignore_errors=True)
        os.makedirs(self.work)
        maps = []  # (argv selecting the map, kind, (a, b) with independent images)
        for demo, kind in self.DEMOS.items():
            shutil.copy(os.path.join(self.root, "demos", demo), self.work)
            pair = ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1))) if kind in (
                "linear", "affine") else None
            maps.append(([demo], kind, pair))
        shutil.copy(os.path.join(self.root, "demos", "shear.matrix"), self.work)
        # shear sends (1, 0) to (1, 0) and (0, 1) to (1, 1)
        maps.append((["--builtin", "linear:shear.matrix"], "linear",
                     ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)))))
        # per size three linear maps, one affine and one jump taken at the
        # origin; with the demos, 97 pool items and 10 defect items
        seeded = [(linear_family, {})] * 3 + [(affine_family, {}),
                                              (jump_family, {"guards": (-2, -1)})]
        for k, ((m, n), (family, extra)) in enumerate(product(ClassifyDsl.SIZES[:4], seeded)):
            spec = family(self.rng, f"s{k}", m, n, **extra)
            path = f"s{k}.map"
            with open(os.path.join(self.work, path), "w", encoding="utf-8") as fh:
                fh.write(spec["text"])
            kind = "jump-moves-0" if spec["kind"] == "jump" else spec["kind"]
            maps.append(([path], kind, self._cert_pair(spec)))
        items, self.defect_items = [], []
        for argv, kind, pair in maps:
            for cmd in self._commands(kind, pair):
                # certify on a map that is not linear runs into the known
                # defect (WORKLOADS.md): every such item fails, so it stays
                # out of the timed pool and is reproduced apart
                if cmd[2][0] == "certificate" and not cmd[2][2]:
                    self.defect_items.append((f"d{len(self.defect_items)}", kind, cmd, argv))
                else:
                    items.append((len(items), kind, cmd, argv))
        return items

    def _cert_pair(self, spec):
        if spec["kind"] not in ("linear", "affine"):
            return None
        m = spec["m"]
        basis = lambda j: tuple(Fraction(int(i == j)) for i in range(m))
        a, b = basis(spec["pivots"][0]), basis(spec["pivots"][1])
        if spec["kind"] == "linear":
            return a, b
        # f(s·e) = s·A·e + offset: at most two values of s make the images
        # dependent, so one of the first three scales works
        image = lambda v: [sum(r[j] * v[j] for j in range(m)) + c
                           for r, c in zip(spec["matrix"], spec["offset"])]
        for s in (1, 2, 3):
            sa, sb = tuple(s * x for x in a), tuple(s * x for x in b)
            if independent(image(sa), image(sb)):
                return sa, sb
        raise AssertionError("no scale gives independent images")

    @staticmethod
    def _commands(kind, pair):
        """(words, options, expectation) per command; see WORKLOADS.md."""
        exact = {"linear": "exact_linear", "affine": "exact_affine"}.get(kind, "non_linear")
        empirical = {"linear": "empirically_linear", "affine": "empirically_affine"}.get(
            kind, "non_linear")
        cmds = [(["classify"], [], ("verdict", exact)),
                (["classify"], ["--no-symbolic"], ("verdict", empirical))]
        # only checks that fail whatever the probes: an affine map with an
        # offset breaks additivity and homogeneity on every probe (c ≠ 1), and
        # it or a jump taken at the origin moves 0
        failing = {"affine": ("zero", "additivity", "homogeneity"),
                   "jump-moves-0": ("zero",)}.get(kind, ())
        cmds += [(["check", name], [], ("check-fails", name)) for name in failing]
        if pair is not None:
            ab = ["--a", vector_text(pair[0]), "--b", vector_text(pair[1])]
            holds = kind == "linear"
            cmds += [(["certify", k], ab, ("certificate", k, holds))
                     for k in ("additivity", "homogeneity")]
        return cmds

    def warmup(self):
        with self.active():
            self._roundtrip(["zoo", "identity.map"], "warmup.json")

    def reproduce_defects(self):
        results = []
        with self.active():
            for item in self.defect_items:
                try:
                    results.append(self.verify(item, self.run(item)))
                except Exception as exc:  # a defect item that raises is not the defect
                    results.append(Result(0, False, ("raised", type(exc).__name__, str(exc))))
        return results

    @contextlib.contextmanager
    def active(self):
        cwd = os.getcwd()
        os.chdir(self.work)
        try:
            yield
        finally:
            os.chdir(cwd)

    def _cli(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = self.lib.cli.run(argv)
            except SystemExit as exc:  # argparse rejected the argv
                code = exc.code if isinstance(exc.code, int) else 1
        return code, err.getvalue()

    def _roundtrip(self, argv, report):
        write = self._cli(argv + ["--out", report])
        t0 = time.perf_counter()
        check = self._cli(["--revalidate", report])
        return write, check, time.perf_counter() - t0

    def run(self, item):
        idx, _, (words, options, _), source = item
        report = f"r{idx}.json"
        # positionals before options: the map inputs follow the check or kind name
        cmd = words + source + ["--probes", ROUNDTRIP_PROBES, "--seed", "0"] + options
        return (report,) + self._roundtrip(cmd, report)

    def verify(self, item, out):
        idx, kind, (_, _, expect), _ = item
        report_path, (write_code, _), (check_code, check_err), revalidate_s = out
        with open(report_path, "rb") as fh:
            raw = fh.read()
        report = json.loads(raw)
        outcomes = report["outcomes"]
        probes = sum(o["probes"] for o in outcomes)
        produced = write_code == 0
        if expect[0] == "verdict":
            produced = produced and report["classification"]["verdict"] == expect[1]
        elif expect[0] == "check-fails":
            produced = produced and [o["verdict"] for o in outcomes] == ["fail"]
        else:
            _, cert_kind, holds = expect
            if holds:
                produced = produced and len(report["certificates"]) == 1 and not outcomes
            else:
                produced = (produced and not report["certificates"]
                            and [(o["check"], o["verdict"]) for o in outcomes]
                            == [(f"certificate:{cert_kind}", "fail")])
        # the known defect: certify records a failed certificate under the
        # name certificate:<kind>, which --revalidate cannot look up
        defect = (produced and expect[0] == "certificate" and not expect[2]
                  and check_code == 2
                  and f"witness for certificate:{expect[1]} no longer violates" in check_err)
        ok = produced and check_code == 0
        record = (idx, write_code, check_code, _WALL_TIME.sub(b'"wall_time_ms": 0', raw))
        return Result(probes, ok, record, known_defect=defect, revalidate_s=revalidate_s,
                      report_bytes=len(raw))

    def close(self):
        shutil.rmtree(self.work, ignore_errors=True)


WORKLOADS = {w.name: w for w in (LinesLinear, ClassifyDsl, ReportRoundtrip)}
