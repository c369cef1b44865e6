#!/usr/bin/env python3
"""Measure where each workload's traced self time goes, module by module, and
test the layer -> workload predictions against the calls the trace counted.

    python3 bench/shares.py            # writes bench/module_shares.json

Each workload runs one traced pass over its seed-1 pool.
"""

from __future__ import annotations

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402
from tracer import SPANS, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

LL, CD, RR = "lines-linear", "classify-dsl", "report-roundtrip"
# span -> workloads on which it should do work (the layer table in WORKLOADS.md)
ACTIVE = {
    "field.vector_arith": (LL, CD), "field.vector_init": (LL, CD), "field.rank": (LL,),
    "field.collinearity": (CD,), "field.text": (RR,), "geometry.line": (LL,),
    "geometry.ratio": (LL, CD), "geometry.incidence": (CD, RR), "dsl.parse": (RR,),
    "dsl.eval": (CD,), "dsl.symbolic": (RR,), "dsl.render": (RR,),
    "zoo.eval.linear": (LL,), "zoo.eval.dsl": (CD,), "zoo.eval.compose": (CD,),
    "zoo.from_source": (RR,), "predicates.sampler": (LL,), "predicates.shrink": (CD,),
    "predicates.independence": (CD,), "predicates.revalidate": (RR,),
    "engine.classify": (CD,), "engine.phi": (CD,), "engine.certificate_build": (CD, RR),
    "engine.certificate_validate": (RR,), "engine.affine": (CD,),
    "serialize.encode": (RR,), "serialize.decode": (RR,), "cli.run": (RR,),
    **{s: (LL, CD) for s in SPANS if s.startswith("predicates.check.")
       and s.split(".")[-1] in ("line_image", "line_injectivity", "ratio_preservation")},
}
# workload -> modules (or spans) that must read 0 calls
IDLE = {
    LL: ("dsl.eval", "engine", "serialize", "cli"),
    CD: ("serialize", "cli"),
}


def main() -> int:
    spans, shares = {}, {}
    for name in WORKLOADS:
        tracer = Tracer()
        run.one_pass(name, 1, tracer)
        spans[name] = tracer.per_span()
        shares[name] = {m: round(v["self_share"], 4) for m, v in tracer.module_shares().items()}
    predictions = []
    for span, workloads in ACTIVE.items():
        for name in workloads:
            calls = spans[name][span]["calls"]
            predictions.append({"span": span, "workload": name, "expect": "calls > 0",
                                "calls": calls, "holds": calls > 0})
    for name, idle in IDLE.items():
        for span, row in spans[name].items():
            if span in idle or span.split(".")[0] in idle:
                predictions.append({"span": span, "workload": name, "expect": "0 calls",
                                    "calls": row["calls"], "holds": row["calls"] == 0})
    out = {
        "how": "one traced pass over the seed-1 pool of each workload (bench/shares.py)",
        "module_self_share": shares,
        "span_self_share": {
            name: {s: round(row["self_ms"] / total, 4) for s, row in rows.items()
                   if row["self_ms"] and (total := sum(r["self_ms"] for r in rows.values()))}
            for name, rows in spans.items()
        },
        "failed_predictions": [p for p in predictions if not p["holds"]],
        "predictions": predictions,
    }
    path = os.path.join(run.HERE, "module_shares.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")
    for p in out["failed_predictions"]:
        print(f"prediction failed: {p['span']} on {p['workload']}: expected {p['expect']},"
              f" measured {p['calls']} calls")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
