"""Write factorize_table.json: every factorization above trial_limit**2 that
the census-gauss workload and the seed-1 verify-sweep workload make.

The script pins itself to one CPU, so that census levels are factored in
this process rather than in forked workers:

    python3 tests/data/capture_factorize_table.py CHECKOUT OUT.json

CHECKOUT is the root of the checkout whose engine is captured; its src/ and
bench/ are imported.  Each distinct (n, trial_limit, rho_iterations) is kept
once, in the order the workloads first factor it.
"""

import json
import os
import subprocess
import sys

root, out = sys.argv[1], sys.argv[2]
os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
sys.path[:0] = [os.path.join(root, "src"), os.path.join(root, "bench")]

import workloads  # noqa: E402
from wieferich import ideals, intfactor, qfield  # noqa: E402

engine = intfactor.factorize
rows: dict[tuple[int, int, int], dict] = {}
workload = None


def capture(n, budget=None):
    result = engine(n, budget)
    budget = budget or intfactor.FactorBudget()
    key = (n, budget.trial_limit, budget.rho_iterations)
    if n > budget.trial_limit**2 and key not in rows:
        rows[key] = {"n": n, "trial_limit": budget.trial_limit, "rho_iterations": budget.rho_iterations,
                     "factors": [list(item) for item in result.factors.items()],
                     "cofactor": result.cofactor, "from": workload}
    return result


# the modules that import factorize by name
for module in (intfactor, ideals, qfield):
    module.factorize = capture
for workload in ("census-gauss", "verify-sweep"):
    workloads.execute(workload, workloads.make_inputs(workload, 1))

commit = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"], capture_output=True, text=True).stdout.strip()
header = {
    "what": "factorize(n, FactorBudget(trial_limit, rho_iterations)) for every n above trial_limit**2 "
    "that census -d 1 -a 2,1 --n-max 80 and the seed-1 verify-sweep bases factor; factors are the "
    "ordered items of FactorResult.factors",
    "commit": commit,
    "command": "python3 tests/data/capture_factorize_table.py CHECKOUT tests/data/factorize_table.json",
}
# one row per line, as in the other tables here
lines = [f"{json.dumps(key)}: {json.dumps(value)}," for key, value in header.items()]
lines += ['"rows": [', ",\n".join(json.dumps(row) for row in rows.values()), "]"]
with open(out, "w") as handle:
    handle.write("{\n" + "\n".join(lines) + "\n}\n")
print(f"{len(rows)} rows, {sum(row['cofactor'] > 1 for row in rows.values())} incomplete")
