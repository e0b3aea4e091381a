"""Write `reference.json`: the outputs the benchmark checks every op against
at the reference seed, for each workload at full and smoke size.

    python3 perfbench/make_reference.py

Run it only when casemix's numbers change on purpose; the diff of
`reference.json` then shows which values moved.
"""

import json
import os
import shutil
import sys

import check
import run
from workloads import ANALYZE, WORKLOADS, smoke


def reference_values(workload, smoke_mode: bool) -> dict:
    bench = run.Bench(workload, check.REFERENCE_SEED, 0.0, False, smoke_mode)
    try:
        os.makedirs(bench.work, exist_ok=True)
        res = bench.run_child(1, False, bench.make_inputs())
        errors = res["errors"] or check.sanity_errors(workload.kind, bench.outdir,
                                                      workload.labels)
        if errors:
            raise SystemExit(f"{bench.ref_key}: {errors}")
        return (check.analyze_values(bench.outdir) if workload.kind == ANALYZE
                else check.simulate_values(bench.outdir))
    finally:
        shutil.rmtree(bench.work, ignore_errors=True)


def main() -> int:
    out = {"_about": {"seed": check.REFERENCE_SEED, "src_sha256": run._src_sha256(),
                      "git_sha": run._git_sha()}}
    for w in WORKLOADS.values():
        out[w.name] = reference_values(w, False)
        out[w.name + ":smoke"] = reference_values(smoke(w), True)
        print(f"{w.name}: {len(out[w.name])} values", file=sys.stderr)
    with open(check.REFERENCE_FILE, "w") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
