"""Command-line front end: load maps, run classification or individual
checks, emit JSON reports and certificates, revalidate stored reports.

Exit codes: 0 = a verdict was produced (any verdict), 1 = usage or parse
error, 2 = ``--revalidate`` found a stored fact that no longer re-checks.

Reports are deterministic for fixed argv and inputs except for the
``wall_time_ms`` field.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time
from typing import Optional

from . import __version__
from .dsl import parse_map_file
from .engine import (
    Certificate,
    REASON_NOT_INDEPENDENT,
    Classification,
    additivity_certificate,
    classify_map,
    decide,
    homogeneity_certificate,
    phi_consistency,
    shift_reduce,
)
from .errors import CollineError, MapParseError, ViolationError
from .field import Vector, parse_scalar, parse_vector
from .predicates import (
    CHECKS,
    CheckOutcome,
    ProbeConfig,
    check_scalar_monotone,
    find_independence_witness,
    revalidate_witness,
    run_check,
)
from .serialize import CERTIFICATE, CLASSIFICATION, OUTCOME, VECTOR, json_text, one_report
from .serialize import pair, sequence
from .zoo import MapHandle, from_source, make_dsl, parse_builtin

# `colline check` names: every row of the check table with a default probe
# stream (four under a shorter name), plus two checks that are algorithms
_SHORT_NAMES = {
    "zero-fixed": "zero",
    "ratio-preservation": "ratio",
    "parallelism-preservation": "parallelism",
    "scalar-multiplicative": "scalar-mult",
}
_CHECKS = {
    **{
        _SHORT_NAMES.get(row.name, row.name): functools.partial(run_check, row)
        for row in CHECKS.values()
        if row.stream is not None
    },
    "scalar-monotone": lambda f, cfg: check_scalar_monotone(f, cfg),
    "phi-consistency": lambda f, cfg: phi_consistency(f, cfg)[0],
}

_CERT_KINDS = ("homogeneity", "additivity")


class _ArgumentParser(argparse.ArgumentParser):
    """argparse with usage errors on exit code 1; exit code 2 is kept for a
    stored report that no longer re-checks. Subparsers inherit the class."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


@functools.lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: nothing in it depends on the
    environment (``COLLINE_SEED`` is read in ``_resolve_seed``)."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--probes", type=int, default=500, help="probe budget per check")
    common.add_argument(
        "--seed", type=int, default=None,
        help="probe stream seed (default 0; COLLINE_SEED overrides the default)",
    )
    common.add_argument("--range", type=int, default=12, dest="range_",
                        help="bound on sampled numerators/denominators")
    common.add_argument("--params-per-line", type=int, default=5)
    common.add_argument("--format", choices=("json", "text"), default="json")
    common.add_argument("--out", help="write the report here instead of stdout")

    source = argparse.ArgumentParser(add_help=False)
    source.add_argument("--builtin", help="builtin map spec, e.g. lemma23:m=2,n=2,e0=0,d0=(0,1)")
    source.add_argument("--map", dest="map_name", help="select one map from a multi-map file")

    def add_inputs(p):
        p.add_argument("inputs", nargs="*", help=".map files")

    parser = _ArgumentParser(
        prog="colline",
        description="exact-rational verification laboratory for linear/affine structure of vector maps",
    )
    parser.add_argument("--revalidate", metavar="PATH",
                        help="re-check the witnesses, certificates and exact verdicts in a report")
    sub = parser.add_subparsers(dest="command")

    p_classify = sub.add_parser("classify", parents=[common, source],
                                help="run the full classification pipeline")
    add_inputs(p_classify)
    p_classify.add_argument("--no-symbolic", action="store_true",
                            help="disable the exact structural fast path (test flag)")

    p_check = sub.add_parser("check", parents=[common, source], help="run one named check")
    p_check.add_argument("name", choices=sorted(_CHECKS), metavar="name",
                         help=f"one of: {', '.join(sorted(_CHECKS))}")
    add_inputs(p_check)

    p_certify = sub.add_parser("certify", parents=[common, source],
                               help="build one line-constellation certificate")
    p_certify.add_argument("kind", choices=_CERT_KINDS)
    add_inputs(p_certify)
    p_certify.add_argument("--a", dest="point_a", help="vector, e.g. (1, 0)")
    p_certify.add_argument("--b", dest="point_b", help="vector, e.g. (0, 1)")
    p_certify.add_argument("--r", dest="scale_r", default="2", help="scalar, e.g. 3 or 1/2")

    p_zoo = sub.add_parser("zoo", parents=[common, source],
                           help="describe a builtin map and sample a few evaluations")
    add_inputs(p_zoo)
    return parser


def _resolve_seed(args) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get("COLLINE_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError as exc:
            raise CollineError(f"COLLINE_SEED must be an integer, got {env!r}") from exc
    return 0


def _load_maps(args) -> list[MapHandle]:
    handles: list[MapHandle] = []
    if args.builtin:
        handles.append(parse_builtin(args.builtin))
    for path in args.inputs:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        try:
            specs = parse_map_file(text)
        except MapParseError as exc:
            raise CollineError(f"{path}:{exc.line}:{exc.col}: {exc.message}") from None
        handles.extend(make_dsl(spec) for spec in specs)
    if args.map_name is not None:
        handles = [h for h in handles if h.name == args.map_name]
        if not handles:
            raise CollineError(f"no map named {args.map_name!r} in the given inputs")
    if not handles:
        raise CollineError("no map given: pass a .map file or --builtin SPEC")
    return handles


def _config_echo(args, cfg: ProbeConfig) -> dict:
    echo = {
        "command": args.command,
        "probes": cfg.count,
        "seed": cfg.seed,
        "range": cfg.coordinate_range,
        "params_per_line": cfg.params_per_line,
        "format": args.format,
        "inputs": list(args.inputs),
        "builtin": args.builtin,
    }
    if args.command == "check":
        echo["check"] = args.name
    if args.command == "certify":
        echo["certify"] = args.kind
        echo["a"] = args.point_a
        echo["b"] = args.point_b
        echo["r"] = args.scale_r
    if args.command == "classify":
        echo["symbolic"] = not args.no_symbolic
    return echo


def _report_for_map(handle: MapHandle, args, cfg: ProbeConfig) -> dict:
    start = time.perf_counter()
    outcomes: list[CheckOutcome] = []
    certificates: list[Certificate] = []
    classification: Optional[Classification] = None
    extra: dict = {}

    if args.command == "classify":
        classification = classify_map(handle, cfg, use_symbolic=not args.no_symbolic)
        outcomes = list(classification.outcomes)
        certificates = list(classification.certificates)
    elif args.command == "check":
        outcomes = [_CHECKS[args.name](handle, cfg)]
    elif args.command == "certify":
        a = parse_vector(args.point_a) if args.point_a else Vector.basis(handle.m, 0)
        b = (
            parse_vector(args.point_b)
            if args.point_b
            else Vector.basis(handle.m, min(1, handle.m - 1))
        )
        try:
            if args.kind == "homogeneity":
                certificates = [homogeneity_certificate(handle, a, b, parse_scalar(args.scale_r))]
            else:
                ind = find_independence_witness(handle, cfg)
                certificates = [additivity_certificate(handle, a, b, ind)]
        except ViolationError as exc:
            outcomes = [
                CheckOutcome(f"certificate:{args.kind}", False, 1, exc.witness)
            ]
    elif args.command == "zoo":
        xs = [Vector.basis(handle.m, i) for i in range(handle.m)] + [Vector.zero(handle.m)]
        extra["samples"] = sequence(pair(VECTOR, VECTOR)).encode((x, handle(x)) for x in xs)

    wall_ms = (time.perf_counter() - start) * 1000.0
    return {
        "tool": "colline",
        "version": __version__,
        "map": {
            "name": handle.name,
            "m": handle.m,
            "n": handle.n,
            "source": handle.source(),
        },
        "config": _config_echo(args, cfg),
        "outcomes": [OUTCOME.encode(o) for o in outcomes],
        "certificates": [CERTIFICATE.encode(c) for c in certificates],
        "classification": classification and CLASSIFICATION.encode(classification),
        **extra,
        "wall_time_ms": round(wall_ms, 3),
    }


def _render_text(report: dict) -> str:
    lines = [
        f"colline {report['version']} — map {report['map']['name']}"
        f" ({report['map']['m']} -> {report['map']['n']})",
    ]
    for outcome in report["outcomes"]:
        mark = "PASS" if outcome["verdict"] == "pass" else "FAIL"
        lines.append(
            f"  [{mark}] {outcome['check']}"
            f" (probes={outcome['probes']}, skipped={outcome['skipped']})"
        )
        if outcome["witness"]:
            lines.append(f"         witness: {json.dumps(outcome['witness']['inputs'])}")
    for cert in report["certificates"]:
        lines.append(
            f"  certificate {cert['kind']}: {cert['conclusion']}"
            f" (holds, {len(cert['lines'])} lines)"  # seal validated it before it was written
        )
        for cl in cert["lines"]:
            entry = f"    {cl['name']}: line {cl['origin']} dir {cl['direction']}"
            if cl["image_origin"] is not None:
                entry += f" -> line {cl['image_origin']} dir {cl['image_direction']}"
            lines.append(entry)
    cls = report.get("classification")
    if cls:
        lines.append(f"  verdict: {cls['verdict']}")
        for reason in cls["reasons"]:
            lines.append(f"    - {reason}")
    if "samples" in report:
        for x, y in report["samples"]:
            lines.append(f"  {x} -> {y}")
    lines.append(f"  wall time: {report['wall_time_ms']} ms")
    return "\n".join(lines) + "\n"


def _emit(payload, args) -> int:
    if args.format == "json":
        text = json_text(payload) + "\n"
    else:
        reports = payload if isinstance(payload, list) else [payload]
        text = "".join(_render_text(r) for r in reports)
    if not args.out:
        sys.stdout.write(text)
        return 0
    try:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        print(f"colline: cannot write report {args.out}: {exc}", file=sys.stderr)
        return 1
    return 0


def _recheck_report(report: dict) -> list[str]:
    """Failures of one stored report; stored data that does not decode raises."""
    try:
        handle = from_source(report["map"]["source"])
    except (KeyError, TypeError, CollineError, ValueError) as exc:
        return [f"map reconstruction failed: {exc}"]
    failures = [f"map.{key} is {stored!r} but the rebuilt map has {key} = {value}"
                for key, value in (("m", handle.m), ("n", handle.n))
                if type(stored := report["map"].get(key)) is not int or stored != value]
    outcomes = [OUTCOME.decode(o) for o in report.get("outcomes", [])]
    cls = report.get("classification")  # a report with none makes no verdict claim
    stored = CLASSIFICATION.decode(cls) if cls else Classification("inconclusive")
    if stored.verdict in ("exact_linear", "exact_affine"):  # from the map's structure
        if handle.affine_form() != (stored.matrix, stored.offset) or (
                stored.verdict == "exact_linear" and not stored.offset.is_zero()):
            failures.append(f"classification {stored.verdict} does not match the"
                            " affine form of the rebuilt map")
    elif cls:  # an empirical verdict and its reasons are re-derived from its outcomes
        decided = decide(outcomes, REASON_NOT_INDEPENDENT not in stored.reasons)
        if all(o.check != "zero-fixed" for o in outcomes):  # stopped by an evaluation error:
            decided["reasons"] = stored.reasons[:1]  # its one reason is a stated fact
        if any(getattr(stored, key) != value for key, value in decided.items()):
            failures.append(f"classification {stored.verdict} does not follow from its outcomes")
        if stored.verdict.startswith("empirically_") and not report.get("certificates"):
            failures.append(f"classification {stored.verdict} has no certificate")
    reduced = None if stored.affine_base is None else shift_reduce(handle, stored.affine_base)
    for outcome in outcomes:
        if outcome.witness is None:
            continue
        target = reduced if outcome.check.startswith("reduced:") else handle
        if target is None:
            failures.append(f"{outcome.check}: no reduced map recorded")
            continue
        if not revalidate_witness(target, outcome.witness):
            failures.append(f"witness for {outcome.check} no longer violates")
    cert_target = reduced if stored.certificate_scope == "reduced" else handle
    if stored.phi is not None:  # read off the map its certificates are for
        failures.extend(f"phi table: {failure}" for failure in stored.phi.validate(cert_target))
    for cert in map(CERTIFICATE.decode, report.get("certificates", [])):
        failures.extend(
            f"certificate {cert.kind}: {failure}" for failure in cert.validate(cert_target)
        )
    return failures


def _revalidate(path: str) -> int:
    try:
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        print(f"colline: cannot load report {path}: {exc}", file=sys.stderr)
        return 1
    reports = payload if isinstance(payload, list) else [payload]
    if not reports or not all(isinstance(r, dict) and isinstance(r.get("map"), dict)
                              and "source" in r["map"] for r in reports):
        print(f"colline: cannot load report {path}: not a report object or a list of them",
              file=sys.stderr)
        return 1
    failures: list[str] = []
    for report in reports:
        try:
            with one_report():
                failures.extend(_recheck_report(report))
        except (CollineError, ArithmeticError, LookupError, TypeError, ValueError,
                AttributeError) as exc:
            failures.append(f"stored data is malformed ({type(exc).__name__}: {exc})")
    if failures:
        for failure in failures:
            print(f"colline: revalidation failed: {failure}", file=sys.stderr)
        return 2
    print(f"colline: all stored facts in {path} re-check")
    return 0


def run(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.revalidate:
        return _revalidate(args.revalidate)
    if not args.command:
        parser.print_usage(sys.stderr)
        return 1
    try:
        cfg = ProbeConfig(
            seed=_resolve_seed(args),
            count=args.probes,
            coordinate_range=args.range_,
            params_per_line=args.params_per_line,
        )
        handles = _load_maps(args)
        reports = []
        for handle in handles:
            with one_report():
                reports.append(_report_for_map(handle, args, cfg))
    except (CollineError, OSError, ValueError) as exc:
        print(f"colline: {exc}", file=sys.stderr)
        return 1
    return _emit(reports[0] if len(reports) == 1 else reports, args)


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
