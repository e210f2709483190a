"""Print the sha256 of the files one benchmark round writes.

Runs one `perfbench.workloads.run_round` of a workload, the first measured
round of `perfbench/run.py --seed N` (round seed N * 1000), and prints the
sha256 of the dataset, trial and bank files it wrote, the sha256 of its
coverage pool (every patch's points bytes, in pool order) and the coverage
verdicts of its two checked probes. Two checkouts that print the same lines
wrote byte-identical files and sampled bit-identical pools.

Run from the repo root:  python3 tools/file_digests.py --workload loop --seed 7
"""

import argparse
import hashlib
import os
import sys
import tempfile

# the benchmark pins BLAS to one thread before numpy loads; so does this
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import workloads  # noqa: E402


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.SPECS))
    ap.add_argument("--seed", type=int, required=True)
    args = ap.parse_args(argv)
    spec = workloads.SPECS[args.workload]
    with tempfile.TemporaryDirectory() as workdir:
        rnd = workloads.run_round(spec, workloads.make_fixtures(spec), seed=args.seed * 1000, workdir=workdir)
        for name, path in sorted(rnd.check_inputs["paths"].items()):
            with open(path, "rb") as f:
                print(f"{name} {hashlib.sha256(f.read()).hexdigest()}")
    pool = hashlib.sha256()
    for patch in rnd.check_inputs["pool"]:
        pool.update(patch.points.tobytes())
    print(f"pool {pool.hexdigest()} ({len(rnd.check_inputs['pool'])} patches)")
    for k, (_, covered) in enumerate(rnd.check_inputs["probes"]):
        print(f"probe{k} covered={covered}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
