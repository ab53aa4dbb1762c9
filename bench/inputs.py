"""Generate one workload's input documents from a seed.

run.py starts this script in a fresh interpreter and takes its wall time
as the benchmark's set-up time, so the time covers importing esymfano and
building every document the timed calls will read:

    python3 bench/inputs.py --workload classify-q --seed 0 --size full --out DIR

It writes the documents into DIR together with manifest.json, which lists
the jobs (one CLI invocation each) in the order the timed loop runs them,
and prints the sha256 of the manifest and documents so that repeated
set-ups can be checked for determinism.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import esymfano.cli  # noqa: E402,F401  (set-up pays for importing the CLI)
from esymfano import fano  # noqa: E402
from esymfano.fields import QQ  # noqa: E402
from esymfano.linalg import rank  # noqa: E402

# Per workload and size: what one round of jobs holds, and how many rounds
# the traced run replays.  The timed loop stops only at round boundaries, so
# every run sees the same mix of jobs.
SIZES = {
    "xcheck-fp": {
        "full": {"configs": [(2, 6, 3)], "traced_rounds": 1},
        "tiny": {"configs": [(2, 4, 3)], "traced_rounds": 1},
    },
    "classify-q": {
        "full": {"ds": (3, 4), "ms": (8, 9, 10), "rounds": 10, "traced_rounds": 3},
        "tiny": {"ds": (2, 3), "ms": (6, 7), "rounds": 2, "traced_rounds": 1},
    },
    "invariants-q": {
        "full": {"n": 4, "bn": 3, "degree": 6, "traced_rounds": 1},
        "tiny": {"n": 3, "bn": 2, "degree": 4, "traced_rounds": 1},
    },
    "equations": {
        "full": {"configs": [(4, 10), (5, 10)], "traced_rounds": 1},
        "tiny": {"configs": [(2, 5), (3, 6)], "traced_rounds": 1},
    },
}


# Each generator returns a list of rounds, each a list of jobs.  Exhaustive
# enumeration and chart equations take no random input: the seed at most
# orders their round.


def xcheck_rounds(spec, rng, out):
    return [[
        {"argv": ["xcheck", "--d", str(d), "--m", str(m), "--prime", str(p)], "d": d, "m": m, "p": p}
        for d, m, p in spec["configs"]
    ]]


def equations_rounds(spec, rng, out):
    jobs = [
        {"argv": ["equations", "--d", str(d), "--m", str(m)], "d": d, "m": m}
        for d, m in spec["configs"]
    ]
    rng.shuffle(jobs)
    return [jobs]


def _class_sizes(m, d, rng):
    """Sizes >= 2 summing to m, with at least d classes."""
    k = rng.randint(d, m // 2)
    sizes = [2] * k
    for _ in range(m - 2 * k):
        sizes[rng.randrange(k)] += 1
    return sizes


def _member_rows(d, m, rng):
    classes, scalars = fano.random_partition_certificate(_class_sizes(m, d, rng), rng)
    return fano.sample_member(classes, scalars, d, seed=rng.randrange(2**32)).rows


def _random_rows(d, m, rng):
    while True:
        rows = [[QQ.from_int(rng.randint(-9, 9)) for _ in range(m)] for _ in range(d)]
        if rank(rows, QQ) == d:
            return rows


def classify_rounds(spec, rng, out):
    """Each round has one document per (d, m, member?) cell, so any whole
    number of rounds holds the same mix of cheap members and costly
    non-members."""
    cells = [(d, m, kind) for d in spec["ds"] for m in spec["ms"] for kind in ("member", "random")]
    rounds = []
    for r in range(spec["rounds"]):
        jobs = []
        for d, m, kind in cells:
            rows = _member_rows(d, m, rng) if kind == "member" else _random_rows(d, m, rng)
            name = f"classify-{r:03d}-{d}-{m}-{kind}.txt"
            with open(os.path.join(out, name), "w") as fh:
                fh.write("Q\n")
                for row in rows:
                    fh.write(" ".join(str(x) for x in row) + "\n")
            jobs.append({"argv": ["classify"], "doc": name, "d": d, "m": m, "kind": kind})
        rounds.append(jobs)
    return rounds


def _perm_matrix(perm, signs):
    n = len(perm)
    return [[signs[i] if perm[i] == j else 0 for j in range(n)] for i in range(n)]


def _generated_order(gens):
    """Order of the group generated by signed permutations (perm, signs)."""
    n = len(gens[0][0])
    ident = (tuple(range(n)), (1,) * n)
    seen = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for p, s in frontier:
            for q, t in gens:
                # (p, s) then (q, t): x_i -> s_i x_{p_i} -> s_i t_{p_i} x_{q_{p_i}}
                el = (tuple(q[p[i]] for i in range(n)), tuple(s[i] * t[p[i]] for i in range(n)))
                if el not in seen:
                    seen.add(el)
                    nxt.append(el)
        frontier = nxt
    return len(seen)


def _random_generators(n, signed, rng):
    """Two random signed permutations generating S_n (signed=False) or B_n."""
    target = 1
    for k in range(2, n + 1):
        target *= k
    if signed:
        target *= 2**n
    while True:
        gens = []
        for _ in range(2):
            perm = list(range(n))
            rng.shuffle(perm)
            signs = [rng.choice((1, -1)) if signed else 1 for _ in range(n)]
            gens.append((tuple(perm), tuple(signs)))
        if _generated_order(gens) == target:
            return [_perm_matrix(p, s) for p, s in gens]


def invariants_rounds(spec, rng, out):
    """S_n and B_n over Q and S_n over F_101, each from two random generators
    and one signed coordinate seed form, so the orbit Chern classes always
    generate the invariant ring."""
    scenarios = [("S", spec["n"], "Q"), ("B", spec["bn"], "Q"), ("S", spec["n"], "F101")]
    jobs = []
    for group, n, field in scenarios:
        seed_form = [0] * n
        seed_form[rng.randrange(n)] = rng.choice((1, -1))
        doc = {
            "field": field,
            "generators": _random_generators(n, group == "B", rng),
            "seeds": [seed_form],
            "degree": spec["degree"],
        }
        name = f"invariants-{group}{n}-{field}.json"
        with open(os.path.join(out, name), "w") as fh:
            json.dump(doc, fh)
        jobs.append({"argv": ["invariants"], "doc": name, "group": group, "n": n,
                     "degree": spec["degree"]})
    rng.shuffle(jobs)
    return [jobs]


GENERATORS = {
    "xcheck-fp": xcheck_rounds,
    "classify-q": classify_rounds,
    "invariants-q": invariants_rounds,
    "equations": equations_rounds,
}


def write_inputs(workload, seed, size, out):
    spec = SIZES[workload][size]
    rng = random.Random(f"{workload}/{seed}")
    rounds = GENERATORS[workload](spec, rng, out)
    manifest = {
        "workload": workload,
        "round": len(rounds[0]),
        "traced_jobs": len(rounds[0]) * spec["traced_rounds"],
        "jobs": [job for jobs in rounds for job in jobs],
    }
    text = json.dumps(manifest, sort_keys=True)
    with open(os.path.join(out, "manifest.json"), "w") as fh:
        fh.write(text)
    digest = hashlib.sha256(text.encode())
    for job in manifest["jobs"]:
        if "doc" in job:
            with open(os.path.join(out, job["doc"]), "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(SIZES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    print(write_inputs(args.workload, args.seed, args.size, args.out))


if __name__ == "__main__":
    main()
