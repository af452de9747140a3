"""Write ecpp_chain_table.json: the Atkin-Morain chain _ecpp_chain builds for
each prime that the ECPP tests prove, and for the 280-bit probable prime that
no chain reaches.

    python3 tests/data/capture_ecpp_chains.py CHECKOUT OUT.json

CHECKOUT is the root of the checkout whose engine is captured; its src/ is
imported.  sympy picks the sampled primes of TestECPP.test_agrees_with_sympy;
the test that reads the table needs no sympy.
"""

import json
import os
import random
import subprocess
import sys

root, out = sys.argv[1], sys.argv[2]
sys.path.insert(0, os.path.join(root, "src"))

import sympy  # noqa: E402

from wieferich import intfactor  # noqa: E402

# the primes above DETERMINISTIC_MR_BOUND that census -d 1 -a 2,1 --n-max 80 proves
primes = [
    3550878809978795277956310481,
    2329648300071491261807194529161,
    1313756387718033230092827753030509,
    4083812675629167639309400035131744437,
    5551115123125782699294073819827146561,
    355417856903951625637926246979059221821,
    2060217667404538867445649680592653838363544001,
    # a 139-bit prime of level 160 whose chain starts with a peeled order
    433680868994201773602564634132105306674641,
    # the 280-bit probable prime of level 139, which no chain reaches
    1373598218259996285644462524008538599438107346003212393523675170048618217618375922993,
]
# the sample of TestECPP.test_agrees_with_sympy
rng = random.Random(2024)
primes += [int(sympy.nextprime(rng.getrandbits(bits) | 1 << (bits - 1))) for bits in range(90, 341, 25)]

rows = []
for q in primes:
    chain = intfactor._ecpp_chain(q)
    rows.append({"q": q, "chain": None if chain is None else [[*step[:6], list(step[6])] for step in chain]})

commit = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"], capture_output=True, text=True).stdout.strip()
header = {
    "what": "_ecpp_chain(q) for the census-gauss primes, a peeled 139-bit prime, the 280-bit "
    "probable prime of level 139 (null: no chain) and the sympy sample of the ECPP tests; "
    "each step is [q, D, a, b, m, r, [x, y]]",
    "commit": commit,
    "command": "python3 tests/data/capture_ecpp_chains.py CHECKOUT tests/data/ecpp_chain_table.json",
}
# one row per line, as in the other tables here
lines = [f"{json.dumps(key)}: {json.dumps(value)}," for key, value in header.items()]
lines += ['"rows": [', ",\n".join(json.dumps(row) for row in rows), "]"]
with open(out, "w") as handle:
    handle.write("{\n" + "\n".join(lines) + "\n}\n")
print(f"{len(rows)} rows, {sum(row['chain'] is None for row in rows)} without a chain")
