"""Set-up of one benchmark workload, run as a process of its own so that its
time covers interpreter start, the import, `gen` and the provenance triple.

    python3 perfbench/prepare.py --workload dilate-wide --seed 0 --work DIR

Writes the workload's specs (through `icpmaps gen`) and the provenance triple
that `equiv` compares against (`factory.random_icp`, then
`stinespring.minimal_compress` and `serialize.triple_to_json`) into DIR. The
last line of stdout is JSON: the file paths, the problem sizes, each map's
coefficient scale and the sha256 of every file written.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from icpmaps import cli, factory, serialize, stinespring  # noqa: E402
from icpmaps.algebra import Algebra  # noqa: E402
from workloads import WORKLOADS, pinned_seed  # noqa: E402


def prepare(workload, seed: int, work: Path) -> dict:
    paths, sizes, scales = {}, {}, {}
    for key, spec in workload.specs.items():
        gen_seed, kappa = pinned_seed(spec, seed)
        paths[key] = work / f"{key}.json"
        rc = cli.main(spec.gen_argv(gen_seed, str(paths[key])))
        if rc != 0:
            raise SystemExit(f"gen exited {rc} for spec {key}")
        sizes[key] = {"d": spec.d, "k": spec.k, "n": spec.n, "h": spec.h, "N": spec.gram_size,
                      "kappa": kappa, "gen_seed": gen_seed}
        block, triple = factory.random_icp(
            Algebra(list(spec.blocks)), spec.k, spec.n, spec.h, seed=gen_seed
        )
        if triple.kappa != kappa:
            raise SystemExit(f"random_icp drew kappa {triple.kappa} for spec {key}, expected {kappa}")
        scales[key] = block.coefficient_scale()
        if key == workload.dilated:
            minimal, _ = stinespring.minimal_compress(triple)
            paths["provenance"] = work / "provenance.json"
            paths["provenance"].write_text(serialize.dumps(serialize.triple_to_json(minimal)), encoding="utf-8")
    return {
        "paths": {key: str(path) for key, path in paths.items()},
        "sizes": sizes,
        "scales": scales,
        "sha256": {key: hashlib.sha256(path.read_bytes()).hexdigest() for key, path in paths.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work", required=True, type=Path)
    args = parser.parse_args(argv)
    print(json.dumps(prepare(WORKLOADS[args.workload], args.seed, args.work)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
