"""Write the library outputs that the recertify workload reads back.

Both completions of the order-1504 expansion (the order-32 family by a
ring of order 47) and of the order-400 expansion (the searched (16,6,2)
set by a ring of order 25), serialized as `pdfam construct --out` writes
them.  The benchmark runs this in a child process so that building the
inputs leaves no trace in the measured process's memory high-water mark.

Run: PYTHONPATH=src python3 perfbench/gen_outputs.py OUT_DIR
"""

import sys
from pathlib import Path

from pdfam.constructions import COMPLETIONS, expand_from_hds, expand_nonabelian32
from pdfam.serialize import canonical_dumps, result_to_json

SOURCES = {
    "order1504": lambda: expand_nonabelian32(47),
    "order400": lambda: expand_from_hds(2, 25),
}


def main(out_dir: str) -> None:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for name, build in SOURCES.items():
        for completion, result in zip(COMPLETIONS, build()):
            (out / f"{name}-{completion}.json").write_text(
                canonical_dumps(result_to_json(result)))


if __name__ == "__main__":
    main(sys.argv[1])
