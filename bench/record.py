"""Record reference.json: the SHA-256 of every case's canonical stdout.

Usage (from the repository root, at a commit whose tier-1 tests pass):

    python3 bench/record.py

Refuses to record a case that exits non-zero or, for a verify suite, any
non-experimental report whose status is not "match".
"""

import json
import sys

from run import REFERENCE, canonical, environment, sha256, spawn
from workloads import WORKLOADS, case_id


def main() -> int:
    cases = {}
    for workload, pool in WORKLOADS.items():
        for argv in pool:
            cid = case_id(argv)
            rep = spawn(argv, cid, False)
            if "failure" in rep or rep["code"] != 0:
                sys.exit(f"error: {cid}: {rep.get('failure', 'exit %s' % rep['code'])}")
            entry = {"workload": workload, "sha256": sha256(rep["stdout"])}
            if argv[0] == "verify":
                reports = json.loads(rep["stdout"])["reports"]
                bad = [r["case"] for r in reports if r["status"] != "match" and not r["experimental"]]
                if bad:
                    sys.exit(f"error: {cid}: not matched: {bad}")
                entry["reports"] = {r["case"]: sha256(canonical(r)) for r in reports}
                if len(entry["reports"]) != len(reports):
                    sys.exit(f"error: {cid}: duplicate report case ids")
            cases[cid] = entry
            print(f"{rep['work_s']:8.3f}s  {cid}", file=sys.stderr)
    env = environment(seed=None)
    record = {"commit": env["commit"], "python": env["python"],
              "src_sha256": env["src_sha256"], "cases": cases}
    with open(REFERENCE, "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
