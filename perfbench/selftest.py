"""Self-test of the benchmark's tracer and checker on one tiny fixed job.

expand_from_hds(1, 7) is traced, and its counts must equal the values read
from pdfam's code; both outputs must pass the checker; the checker must flag
the per-block completion declared as a PDF; and uninstalling the tracer must
restore every module attribute.  The benchmark runs this before each run.

Run: PYTHONPATH=src python3 perfbench/selftest.py   (exit 0 when all hold)
"""

import json
import sys

import pdfam
from check import check_expansion, expected_verify_exit, hadamard_base
from pdfam import constructions, serialize
from tracing import Tracer, layer_metrics

M = 7
EXPECTED = {
    # search leaf (k = 1: one emit) 1 + complement_pdf 2, then per
    # completion make_recipe 1 + validate_recipe 1 + double_sdf 2 +
    # sdf_lift 2 + the final family 1
    "multisets.verify_calls": 1 + 2 + 2 * (1 + 1 + 2 + 2 + 1),
    "search.leaf_verify_calls": 1,
    "search.hits": 1,
    # endomorphism tables: (M-1)/2 starters times M ring elements, per
    # completion; every other mul runs inside pdfam.rings
    "rings.mul_calls": 2 * (M - 1) // 2 * M,
}


def snapshot() -> dict:
    return {(name, attr): obj for name, mod in list(sys.modules.items())
            if name == "pdfam" or name.startswith("pdfam.")
            for attr, obj in vars(mod).items()}


def main() -> int:
    failures = []
    before = snapshot()
    tracer = Tracer()
    tracer.install()
    try:
        pair = constructions.expand_from_hds(1, M)
    finally:
        tracer.uninstall()
    got = layer_metrics(tracer.spans, tracer.counts, outputs=2)
    for key, want in EXPECTED.items():
        if got[key] != want:
            failures.append(f"{key} = {got[key]}, expected {want}")
    after = snapshot()
    if any(after.get(k) is not v for k, v in before.items()):
        failures.append("uninstall left a module attribute replaced")

    single, per_block = (serialize.canonical_dumps(
        serialize.result_to_json(r)).encode() for r in pair)
    base = hadamard_base(1)
    for name, out in (("single", single), ("per-block", per_block)):
        failures += [f"{name}: {p}" for p in check_expansion(out, base, M, name)]
    if not check_expansion(per_block, base, M, "single"):
        failures.append("checker accepted the per-block completion as a PDF")
    if expected_verify_exit(json.loads(per_block), "right") != 2:
        failures.append("checker expects the per-block completion to certify")

    for f in failures:
        print(f"selftest: {f}")
    print(f"selftest: {'ok' if not failures else 'FAILED'} "
          f"(pdfam {pdfam.__version__})")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
